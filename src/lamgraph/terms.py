"""Lambda-calculus with letrec: abstract syntax and parser.

Concrete syntax: ``\\x. body`` for abstraction, juxtaposition for
left-associative application, ``letrec x1 = t1; ...; xn = tn in t`` for
recursive bindings, parentheses for grouping.  Identifiers match
``[a-zA-Z_][a-zA-Z0-9_']*``.  Only closed terms are accepted.

The parser reads the token texts of one regular-expression scan, each
once, in one loop over its own stack; neither it nor ``format_term`` takes
a Python frame per term level.  An offset is computed only when an error
is raised, by scanning the text again.  A binding body may use
names of its group that are read after it, so an identifier that no binder
holds where it is read waits until its group's ``in``; it is reported
unbound (at its own offset) once no enclosing group still reading its
bindings can bind it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice


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
    """A term.  ``==``, ``hash`` and ``repr`` give what the frozen
    dataclasses' generated methods give, but keep their own stacks, so a
    term of any depth compares, hashes and prints at the default
    recursion limit.  Terms and the tuples among their fields are walked;
    any other field value is compared, hashed and printed as it is."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            parts = _parts(a) if a.__class__ is b.__class__ else None
            if parts is None:
                if a != b:
                    return False
                continue
            others = _parts(b)
            if len(parts) != len(others):
                return False
            todo.extend(reversed(list(zip(parts, others))))
        return True

    def __hash__(self):
        # As the dataclasses hash: the tuple of the fields, each tuple or
        # term among them by its own hash, found first.
        hashes: dict[int, int] = {}  # id of a term or tuple -> its hash
        todo = [self]
        while todo:
            x = todo[-1]
            parts = _parts(x)
            waiting = [p for p in parts if id(p) not in hashes and _parts(p) is not None]
            if waiting:
                todo += waiting
                continue
            todo.pop()
            hashes[id(x)] = hash(tuple(_Hash(hashes[id(p)]) if id(p) in hashes else p for p in parts))
        return hashes[id(self)]

    def __repr__(self):
        out: list[str] = []
        todo: list = [(self,)]  # text to write and (value,) to render, next last
        while todo:
            x = todo.pop()
            if isinstance(x, str):
                out.append(x)
                continue
            (x,) = x
            parts = _parts(x)
            if parts is None:
                out.append(repr(x))
                continue
            if isinstance(x, Term):
                names = [f"{', ' * (k > 0)}{name}=" for k, name in enumerate(x.__dataclass_fields__)]
                head, tail = f"{type(x).__qualname__}(", ")"
            else:
                names = [", " * (k > 0) for k in range(len(parts))]
                head, tail = "(", ",)" if len(parts) == 1 else ")"
            out.append(head)
            todo.append(tail)
            for name, part in reversed(list(zip(names, parts))):
                todo += ((part,), name)
        return "".join(out)


def _parts(x) -> tuple | None:
    """What ``Term`` compares, hashes and prints ``x`` by: a term's fields
    in order, a tuple's items; None for any other value."""
    if isinstance(x, Term):
        return tuple(getattr(x, name) for name in x.__dataclass_fields__)
    return x if type(x) is tuple else None


class _Hash:
    """Stands in a tuple for a value of the given hash."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


@dataclass(frozen=True, eq=False, repr=False)
class Var(Term):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True, eq=False, repr=False)
class Abs(Term):
    name: str
    body: Term


@dataclass(frozen=True, eq=False, repr=False)
class Letrec(Term):
    bindings: tuple[tuple[str, Term], ...]
    body: Term


# One token per match, its text the only group: whitespace (as
# str.isspace) and comments are skipped, then an identifier, a
# punctuation mark, any other character, or "" at the end of the text.
_TOKEN = re.compile(r"\s*(?:#[^\n]*\s*)*([a-zA-Z_][a-zA-Z0-9_']*|[\\.()=;]|.|\Z)", re.DOTALL)
_IDENT_START = re.compile(r"[a-zA-Z_]").match
# Token kinds by text; any other token is an identifier or a stray character.
_KIND = {"\\": "lambda", ".": "dot", "(": "lpar", ")": "rpar", "=": "eq", ";": "semi",
         "letrec": "letrec", "in": "in", "": "eof"}


def _offset(text: str, k: int) -> int:
    return next(islice(_TOKEN.finditer(text), k, None)).start(1)


def _expected(kind: str, tokens: list[str], k: int, text: str) -> TermSyntaxError:
    return TermSyntaxError(f"expected {kind}, found {tokens[k] or 'end of input'!r}", _offset(text, k))


def parse_term(text: str) -> Term:
    """Parse a closed term; unbound names and duplicate bindings are errors."""
    return _parse(_TOKEN.findall(text), text)


def _parse(tokens: list[str], text: str) -> Term:
    bad = [tok for tok in set(tokens).difference(_KIND) if not _IDENT_START(tok)]
    if bad:
        k = min(map(tokens.index, bad))
        raise TermSyntaxError(f"unexpected character {tokens[k]!r}", _offset(text, k))
    # Each name's count of enclosing binders, kept up on entry and exit.
    scope: dict[str, int] = {}
    # One list per letrec group still reading its bindings: the indices of
    # the identifiers no binder held when read, innermost group last.
    pending: list[list[int]] = []
    # Open frames, innermost last: (tag, the application before the frame,
    # binder, the group's bindings), tagged "lpar", "lambda", "letrec" for
    # a letrec binding and "in" for a letrec body.
    stack: list[tuple] = []
    # Left-associative application over atoms.  The body of a lambda or
    # letrec extends as far right as possible: the token that ends it ends
    # the enclosing level too, so each frame it closes passes it up.
    result: Term | None = None
    i = 0
    while True:
        tok = tokens[i]
        tag = _KIND.get(tok)
        if tag is None:
            if not scope.get(tok):
                if not pending:
                    raise UnboundVariable(tok, _offset(text, i))
                pending[-1].append(i)
            i += 1
            result = Var(tok) if result is None else App(result, Var(tok))
            continue
        if tag == "lpar":
            stack.append((tag, result, None, None))
            result = None
            i += 1
            continue
        if tag == "lambda":
            saved, bindings = result, ()
        elif tag == "letrec":
            saved, bindings = result, {}
            pending.append([])
        elif result is None:
            raise _expected("a term", tokens, i, text)
        elif not stack:
            if tag != "eof":
                raise _expected("eof", tokens, i, text)
            return result
        else:
            kind = tag
            tag, saved, name, bindings = stack.pop()
            if tag != "letrec":
                if tag == "lpar":
                    if kind != "rpar":
                        raise _expected("rpar", tokens, i, text)
                    arg = result
                    i += 1
                elif tag == "lambda":
                    scope[name] -= 1
                    arg = Abs(name, result)
                else:
                    for name in bindings:
                        scope[name] -= 1
                    arg = Letrec(tuple(bindings.items()), result)
                result = arg if saved is None else App(saved, arg)
                continue
            bindings[name] = result
            if kind != "semi":
                if kind != "in":
                    raise _expected("in", tokens, i, text)
                # The names read unbound in the group's bindings that it does
                # not bind pass to the enclosing group, or are unbound.
                unbound = [k for k in pending.pop() if tokens[k] not in bindings]
                if pending:
                    pending[-1].extend(unbound)
                elif unbound:
                    raise UnboundVariable(tokens[unbound[0]], _offset(text, unbound[0]))
                stack.append((kind, saved, None, bindings))
                result = None
                i += 1
                continue
        # A binder: "\\ name .", "letrec name =" or "; name =".
        name = tokens[i + 1]
        if name in _KIND:
            raise _expected("ident", tokens, i + 1, text)
        if name in bindings:
            raise DuplicateBinding(name, _offset(text, i + 1))
        scope[name] = scope.get(name, 0) + 1
        mark = "." if tag == "lambda" else "="
        if tokens[i + 2] != mark:
            raise _expected(_KIND[mark], tokens, i + 2, text)
        stack.append((tag, saved, name, bindings))
        result = None
        i += 3


def format_term(t: Term) -> str:
    """Render a term back to concrete syntax (mainly for messages)."""
    out: list[str] = []
    todo: list = [(t,)]  # text to write and (subterm,) to render, next last
    while todo:
        t = todo.pop()
        if isinstance(t, str):
            out.append(t)
            continue
        (t,) = t
        if isinstance(t, Var):
            out.append(t.name)
        elif isinstance(t, Abs):
            out.append(f"\\{t.name}. ")
            todo.append((t.body,))
        elif isinstance(t, App):
            fun_paren, arg_paren = isinstance(t.fun, (Abs, Letrec)), isinstance(t.arg, (App, Abs, Letrec))
            out.append("(" * fun_paren)
            todo += (")" * arg_paren, (t.arg,), ")" * fun_paren + " " + "(" * arg_paren, (t.fun,))
        elif isinstance(t, Letrec):
            out.append("letrec ")
            todo += ((t.body,), " in ")
            for k, (name, sub) in reversed(list(enumerate(t.bindings))):
                todo += ((sub,), f"{'; ' * (k > 0)}{name} = ")
        else:
            raise TypeError(f"not a term: {t!r}")
    return "".join(out)
