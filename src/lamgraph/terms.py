"""Lambda-calculus with letrec: abstract syntax and parser.

Concrete syntax: ``\\x. body`` for abstraction, juxtaposition for
left-associative application, ``letrec x1 = t1; ...; xn = tn in t`` for
recursive bindings, parentheses for grouping.  Identifiers match
``[a-zA-Z_][a-zA-Z0-9_']*``.  Only closed terms are accepted.

The parser reads each token once.  It takes one Python frame per
parenthesis, lambda or letrec, so the nesting it accepts is bounded by
the recursion limit.  A binding body may use names of its
group that are read after it, so an identifier that no binder holds where
it is read waits until its group's ``in``; it is reported unbound (at its
own offset) once no enclosing group still reading its bindings can bind it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple


class TermSyntaxError(Exception):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


class UnboundVariable(Exception):
    def __init__(self, name: str, position: int):
        self.name = name
        self.position = position
        super().__init__(f"unbound variable {name!r} (at offset {position})")


class DuplicateBinding(Exception):
    def __init__(self, name: str, position: int):
        self.name = name
        self.position = position
        super().__init__(f"duplicate letrec binding {name!r} (at offset {position})")


class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True)
class Abs(Term):
    name: str
    body: Term


@dataclass(frozen=True)
class Letrec(Term):
    bindings: tuple[tuple[str, Term], ...]
    body: Term


_KEYWORDS = {"letrec", "in"}
_PUNCTUATION = {"\\": "lambda", ".": "dot", "(": "lpar", ")": "rpar", "=": "eq", ";": "semi"}
# Groups: whitespace (as str.isspace) or a comment, an identifier, a
# punctuation mark, any other character.  Some group matches at every
# offset, so the matches tile the text and offsets are running lengths.
_TOKEN = re.compile(r"(\s+|#[^\n]*)|([a-zA-Z_][a-zA-Z0-9_']*)|([\\.()=;])|(.)", re.DOTALL)


class _Token(NamedTuple):
    kind: str  # 'ident', 'lambda', 'dot', 'lpar', 'rpar', 'eq', 'semi', 'letrec', 'in', 'eof'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    for skip, word, mark, other in _TOKEN.findall(text):
        if word:
            tokens.append(_Token(word if word in _KEYWORDS else "ident", word, pos))
        elif mark:
            tokens.append(_Token(_PUNCTUATION[mark], mark, pos))
        elif other:
            raise TermSyntaxError(f"unexpected character {other!r}", pos)
        pos += len(skip or word or mark)
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        # Each name's count of enclosing binders, kept up on entry and exit.
        self.scope: dict[str, int] = {}
        # One list per letrec group still reading its bindings: the
        # identifier tokens no binder held when read, innermost group last.
        self.pending: list[list[_Token]] = []

    def take(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise TermSyntaxError(f"expected {kind}, found {tok.text or 'end of input'!r}", tok.pos)
        self.pos += 1
        return tok

    def term(self) -> Term:
        # Left-associative application over atoms.  The body of a lambda or
        # letrec extends as far right as possible, so no atom follows it.
        result = None
        while True:
            tok = self.tokens[self.pos]
            if tok.kind == "ident":
                self.pos += 1
                if not self.scope.get(tok.text):
                    if not self.pending:
                        raise UnboundVariable(tok.text, tok.pos)
                    self.pending[-1].append(tok)
                arg = Var(tok.text)
            elif tok.kind == "lpar":
                self.pos += 1
                arg = self.term()
                self.take("rpar")
            elif tok.kind == "lambda":
                self.pos += 1
                name = self.take("ident").text
                self.take("dot")
                self.scope[name] = self.scope.get(name, 0) + 1
                arg = Abs(name, self.term())
                self.scope[name] -= 1
            elif tok.kind == "letrec":
                # Binding bodies may use any of the group's names, also those
                # read later, so an unbound name waits on the group's pending
                # list until 'in'; what the group does not bind passes to the
                # enclosing group.
                self.pos += 1
                pending: list[_Token] = []
                self.pending.append(pending)
                bindings: dict[str, Term] = {}
                while True:
                    tok = self.take("ident")
                    if tok.text in bindings:
                        raise DuplicateBinding(tok.text, tok.pos)
                    self.scope[tok.text] = self.scope.get(tok.text, 0) + 1
                    self.take("eq")
                    bindings[tok.text] = self.term()
                    if self.tokens[self.pos].kind != "semi":
                        break
                    self.pos += 1
                self.take("in")
                self.pending.pop()
                unbound = [tok for tok in pending if tok.text not in bindings]
                if self.pending:
                    self.pending[-1].extend(unbound)
                elif unbound:
                    raise UnboundVariable(unbound[0].text, unbound[0].pos)
                arg = Letrec(tuple(bindings.items()), self.term())
                for name in bindings:
                    self.scope[name] -= 1
            elif result is None:
                raise TermSyntaxError(f"expected a term, found {tok.text or 'end of input'!r}", tok.pos)
            else:
                return result
            result = arg if result is None else App(result, arg)


def parse_term(text: str) -> Term:
    """Parse a closed term; unbound names and duplicate bindings are errors."""
    parser = _Parser(_tokenize(text))
    result = parser.term()
    parser.take("eof")
    return result


def format_term(t: Term) -> str:
    """Render a term back to concrete syntax (mainly for messages)."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Abs):
        return f"\\{t.name}. {format_term(t.body)}"
    if isinstance(t, App):
        fun = format_term(t.fun)
        arg = format_term(t.arg)
        if isinstance(t.fun, (Abs, Letrec)):
            fun = f"({fun})"
        if isinstance(t.arg, (App, Abs, Letrec)):
            arg = f"({arg})"
        return f"{fun} {arg}"
    if isinstance(t, Letrec):
        binds = "; ".join(f"{n} = {format_term(b)}" for n, b in t.bindings)
        return f"letrec {binds} in {format_term(t.body)}"
    raise TypeError(f"not a term: {t!r}")
