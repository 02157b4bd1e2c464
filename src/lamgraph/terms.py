"""Lambda-calculus with letrec: abstract syntax and parser.

Concrete syntax: ``\\x. body`` for abstraction, juxtaposition for
left-associative application, ``letrec x1 = t1; ...; xn = tn in t`` for
recursive bindings, parentheses for grouping.  Identifiers match
``[a-zA-Z_][a-zA-Z0-9_']*``.  Only closed terms are accepted.
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
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"duplicate letrec binding {name!r}")


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

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise TermSyntaxError(f"expected {kind}, found {tok.text or 'end of input'!r}", tok.pos)
        self.pos += 1
        return tok

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "lambda":
            self.take("lambda")
            name = self.take("ident").text
            self.take("dot")
            self.scope[name] = self.scope.get(name, 0) + 1
            body = self.term()
            self.scope[name] -= 1
            return Abs(name, body)
        if tok.kind == "letrec":
            return self.letrec()
        return self.application()

    def letrec(self) -> Term:
        # Binding bodies may use any of the group's names, so the names
        # are collected in a skip pass first and the bodies reparsed.
        self.take("letrec")
        names: set[str] = set()
        raw: list[tuple[str, int, int]] = []
        while True:
            name_tok = self.take("ident")
            if name_tok.text in names:
                raise DuplicateBinding(name_tok.text)
            names.add(name_tok.text)
            self.take("eq")
            start = self.pos
            self.skip_binding_body()
            raw.append((name_tok.text, start, self.pos))
            if self.peek().kind == "semi":
                self.take("semi")
            else:
                break
        self.take("in")
        for name in names:
            self.scope[name] = self.scope.get(name, 0) + 1
        bindings = []
        end = self.pos
        for name, start, stop in raw:
            self.pos = start
            bindings.append((name, self.term()))
            if self.pos != stop:
                raise TermSyntaxError("malformed letrec binding", self.tokens[start].pos)
        self.pos = end
        body = self.term()
        for name in names:
            self.scope[name] -= 1
        return Letrec(tuple(bindings), body)

    def skip_binding_body(self) -> None:
        # A binding body ends at ';' or 'in' outside parentheses and
        # outside any nested letrec (letrec..in pairs nest like brackets).
        pdepth = 0
        ldepth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                raise TermSyntaxError("unterminated letrec", tok.pos)
            if pdepth == 0 and ldepth == 0 and tok.kind in ("semi", "in"):
                return
            if tok.kind == "lpar":
                pdepth += 1
            elif tok.kind == "rpar":
                if pdepth == 0:
                    raise TermSyntaxError("unbalanced ')'", tok.pos)
                pdepth -= 1
            elif tok.kind == "letrec":
                ldepth += 1
            elif tok.kind == "in":
                if ldepth == 0:
                    raise TermSyntaxError("'in' without letrec", tok.pos)
                ldepth -= 1
            self.pos += 1

    def application(self) -> Term:
        result = self.atom()
        while self.peek().kind in ("ident", "lpar", "lambda", "letrec"):
            tok = self.peek()
            if tok.kind in ("lambda", "letrec"):
                # Trailing lambda/letrec extends as far right as possible.
                result = App(result, self.term())
                break
            result = App(result, self.atom())
        return result

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "ident":
            self.take("ident")
            if not self.scope.get(tok.text):
                raise UnboundVariable(tok.text, tok.pos)
            return Var(tok.text)
        if tok.kind == "lpar":
            self.take("lpar")
            inner = self.term()
            self.take("rpar")
            return inner
        raise TermSyntaxError(f"expected a term, found {tok.text or 'end of input'!r}", tok.pos)


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
