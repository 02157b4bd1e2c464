"""Lambda-calculus with letrec: abstract syntax and parser.

Concrete syntax: ``\\x. body`` for abstraction, juxtaposition for
left-associative application, ``letrec x1 = t1; ...; xn = tn in t`` for
recursive bindings, parentheses for grouping.  Identifiers match
``[a-zA-Z_][a-zA-Z0-9_']*``.  Only closed terms are accepted.

The tokens are the texts of one ``findall`` of a regular expression
without groups (``_TOKEN``): identifiers, comments and single
characters other than whitespace; comments are dropped only where the
text holds a ``#``.  A one-character token that is neither punctuation
nor a letter is a stray character, so the distinct tokens less the
token kinds and the letters tell whether there is one, and only then is
the token list scanned for the first.  The parser reads each token
once, in one loop over its own stack; neither it nor ``format_term``
takes a Python frame per term level.  An offset is computed only when
an error is raised, by scanning the text again.

The scan builds no term object: it fills only the table the translator
reads (``_Table``), the nodes in post-order, each variable resolved to
its binder's lambda depth or letrec binding as it is read, and the
groups spliced into binding terms.  A binding body may use names of its
group that are read after it, so an identifier read in a group's
bindings that no binder in the group holds waits until the group's
``in``; it is resolved there, or waits on in the enclosing group, or is
reported unbound (at its own offset) once no enclosing group still
reading its bindings can bind it.

``parse_term`` returns a root of the right class that holds the table
alone, as the private attribute ``_table``, outside ``==``, ``hash`` and
``repr``.  ``translate.term_to_graph`` reads the table there, so the
command route builds no term.  The first read of a field of the root
reads the whole term back from the table, in one pass over its nodes
(``_read_back``), and fills the root's fields.  ``==``, ``hash``,
``repr`` and ``dataclasses.replace`` read the fields, and ``copy`` and
``pickle`` copy the table, so each gives what it gives on a term built
field by field.  Any other term (one built by hand, a subterm, a
``dataclasses.replace`` copy) has no table, and the translator walks it
into one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

from .core import _trusted


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

    def __getattr__(self, name):
        # Only a field missing from the instance gets here: a root that
        # ``parse_term`` returned holds its table alone until a field is
        # read, and then takes every field read back from the table.
        tab = self.__dict__.get("_table")
        if tab is None or name not in self.__dataclass_fields__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__.update(vars(_read_back(tab)))
        return self.__dict__[name]


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


# One token per match, the whole match its text: an identifier, a
# comment, or any one character but whitespace (``\s`` is
# ``str.isspace``).  Whitespace is in no match, so the scan skips it;
# ``_lex`` drops the comments.
_TOKEN = re.compile(r"[a-zA-Z_][a-zA-Z0-9_']*|#[^\n]*|\S")
# Token kinds by text; any other token is an identifier or a stray character.
_KIND = {"\\": "lambda", ".": "dot", "(": "lpar", ")": "rpar", "=": "eq", ";": "semi",
         "letrec": "letrec", "in": "in", "": "eof"}
# The one-character identifiers: any other one-character token that has
# no kind is a stray character.
_LETTERS = frozenset("_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _lex(text: str) -> list[str]:
    """The token texts of ``text``, comments dropped, then "" for its end."""
    tokens = _TOKEN.findall(text)
    if "#" in text:
        tokens = [tok for tok in tokens if tok[0] != "#"]
    tokens.append("")
    return tokens


def _offset(text: str, k: int) -> int:
    """Where token ``k`` of ``_lex(text)`` starts."""
    starts = (m.start() for m in _TOKEN.finditer(text) if m[0][0] != "#")
    return next(islice(starts, k, None), len(text))


def _expected(kind: str, tokens: list[str], k: int, text: str) -> TermSyntaxError:
    return TermSyntaxError(f"expected {kind}, found {tokens[k] or 'end of input'!r}", _offset(text, k))


def parse_term(text: str) -> Term:
    """Parse a closed term; unbound names and duplicate bindings are errors."""
    return _parse(_lex(text), text)


# The kinds of a table's nodes, and the class of the term each is.
_VAR, _REF, _APP, _ABS, _LETREC = range(5)
_CLASS = (Var, Var, App, Abs, Letrec)


class _Table:
    """A term resolved into parallel lists in post-order, one entry per
    node (see ``translate``).  Per node: ``kind``; ``data``, a variable's
    or abstraction's lambda depth, a reference's binding id, an
    application's function node, -1 for a letrec; and ``base`` (a
    variable's name with "!", a binder's name, "a" for an application).
    A node's last child, its argument or body, is the node before it.
    Per letrec node: ``groups``, its binding ids in emission order, each
    spliced group before the binding whose term it was.  Per binding id
    whose term was a letrec: ``spliced``, the binding ids of each group
    spliced into it, outermost first.  Per binding id,
    from 1 in the order the binders are read: ``term``, its term's node,
    ``name`` and ``depth``.  Per owner, 0 and the binding ids: ``own``,
    its variables' depth bits, and ``refs``, the bindings it
    references."""

    __slots__ = ("kind", "data", "base", "groups", "spliced", "term", "name", "depth", "own", "refs")

    def __init__(self):
        self.kind, self.data, self.base = [], [], []
        self.groups: dict[int, list[int]] = {}
        self.spliced: dict[int, list[list[int]]] = {}
        self.term, self.name, self.depth = [-1], [""], [0]
        self.own, self.refs = [0], [set()]


def _parse(tokens: list[str], text: str) -> Term:
    # Every token of two or more characters is an identifier, so a stray
    # is a one-character token that is neither a kind nor a letter.
    rest = set(tokens).difference(_KIND, _LETTERS)
    if rest and min(map(len, rest)) == 1:
        k = next(k for k, tok in enumerate(tokens) if len(tok) == 1 and tok in rest)
        raise TermSyntaxError(f"unexpected character {tokens[k]!r}", _offset(text, k))
    tab = _Table()
    kind, data, base, groups, spliced = tab.kind, tab.data, tab.base, tab.groups, tab.spliced
    terms, names, depths, own, refs = tab.term, tab.name, tab.depth, tab.own, tab.refs
    # Each name's binders, innermost last: an abstraction as its lambda
    # depth, a letrec binding as its id negated.
    env: dict[str, list[int]] = {}
    # The letrec groups still reading their bindings, innermost last:
    # (lambda depth, first binding id, pending).  An identifier read in
    # the group's bindings whose binder, if any, lies outside the group
    # waits in pending as (node, name, owner, token index) until the
    # group's "in", since a later binding of the group may bind it.
    reading: list[tuple[int, int, list]] = []
    # The innermost reading group's lambda depth and first binding id; a
    # binder is in the group where its depth or id is at least these.
    # With no group reading, every binder is.
    rdepth = rfirst = 0
    # Open frames, innermost last: (tag, whether a term came before the
    # frame, that term's node, x), tagged "lpar" (x None), "lambda" (x
    # the binder), "letrec" for a letrec binding (x its id, the group's
    # names and binding ids, and the owner outside the binding) and "in"
    # for a letrec body (x the group's names and binding ids).  The owner
    # is the binding whose term is being read, or 0.
    stack: list[tuple] = []
    # Left-associative application over atoms: where the level has a term
    # already, each atom read is its argument, and the node before the
    # atom its function.  The body of a lambda or letrec extends as far
    # right as possible: the token that ends it ends the enclosing level
    # too, so each frame it closes passes it up.
    have = False
    lam = owner = i = 0
    while True:
        tok = tokens[i]
        tag = _KIND.get(tok)
        if tag is None:
            # A variable or a reference, resolved now where its binder is
            # in the innermost reading group; else it waits for that
            # group's "in", or is unbound where no group is reading.
            binders = env.get(tok)
            if binders and (d := binders[-1]) >= rdepth:
                kind.append(_VAR)
                data.append(d)
                base.append(tok + "!")
                own[owner] |= 1 << d
            elif binders and d <= -rfirst:
                kind.append(_REF)
                data.append(-d)
                base.append(None)
                refs[owner].add(-d)
            elif reading:
                reading[-1][2].append((len(kind), tok, owner, i))
                kind.append(_REF)
                data.append(-1)
                base.append(None)
            else:
                raise UnboundVariable(tok, _offset(text, i))
            i += 1
            if have:
                data.append(len(kind) - 2)
                kind.append(_APP)
                base.append("a")
            have = True
            continue
        if tag == "lambda":
            # A binder: "\\ name .".
            name = tokens[i + 1]
            if name in _KIND:
                raise _expected("ident", tokens, i + 1, text)
            if tokens[i + 2] != ".":
                raise _expected("dot", tokens, i + 2, text)
            env.setdefault(name, []).append(lam)
            lam += 1
            stack.append((tag, have, len(kind) - 1, name))
            have = False
            i += 3
            continue
        if tag == "lpar":
            stack.append((tag, have, len(kind) - 1, None))
            have = False
            i += 1
            continue
        if tag == "letrec":
            saved, at, bindings, ids = have, len(kind) - 1, set(), []
            rdepth, rfirst = lam, len(names)
            reading.append((rdepth, rfirst, []))
        elif not have:
            raise _expected("a term", tokens, i, text)
        elif not stack:
            if tag != "eof":
                raise _expected("eof", tokens, i, text)
            for node, ids in groups.items():
                if not {int}.issuperset(map(type, ids)):
                    groups[node] = _flatten(ids)
            return _trusted(_CLASS[kind[-1]], _table=tab)
        else:
            close = tag
            tag, saved, at, x = stack.pop()
            if tag != "letrec":
                if tag == "lambda":
                    env[x].pop()
                    lam -= 1
                    kind.append(_ABS)
                    data.append(lam)
                    base.append(x)
                elif tag == "lpar":
                    if close != "rpar":
                        raise _expected("rpar", tokens, i, text)
                    i += 1
                else:
                    bindings, ids = x
                    for name in bindings:
                        env[name].pop()
                    groups[len(kind)] = ids
                    kind.append(_LETREC)
                    data.append(-1)
                    base.append(None)
                if saved:
                    kind.append(_APP)
                    data.append(at)
                    base.append("a")
                have = True
                continue
            # A letrec binding ends, and the owner outside it is restored.
            # A letrec in binding position splices its group into this one,
            # and its body is the binding's term, spliced in turn where it
            # is a letrec.
            b, bindings, ids, owner = x
            bindings.add(names[b])
            while kind[-1] == _LETREC:
                # The spliced group's ids go in as one list, flattened when
                # the parse ends, so a chain of splices copies no id twice;
                # its own bindings are kept for the readback.
                group = groups.pop(len(kind) - 1)
                ids.append(group)
                spliced.setdefault(b, []).append([c for c in group if type(c) is int])
                kind.pop()
                data.pop()
                base.pop()
            terms[b] = len(kind) - 1
            ids.append(b)
            if close != "semi":
                if close != "in":
                    raise _expected("in", tokens, i, text)
                # The names that waited in the group's bindings: each has
                # its binder now, the group's or one outside it, and waits
                # on in the enclosing group where that binder lies outside
                # that group too; with none, it is unbound.
                pending = reading.pop()[2]
                rdepth, rfirst = reading[-1][:2] if reading else (0, 0)
                for node, name, who, k in pending:
                    binders = env.get(name)
                    if reading and (not binders or rfirst > -binders[-1] > -rdepth):
                        reading[-1][2].append((node, name, who, k))
                    elif not binders:
                        raise UnboundVariable(name, _offset(text, k))
                    elif (d := binders[-1]) >= 0:
                        kind[node] = _VAR
                        data[node] = d
                        base[node] = name + "!"
                        own[who] |= 1 << d
                    else:
                        data[node] = -d
                        refs[who].add(-d)
                stack.append((close, saved, at, (bindings, ids)))
                have = False
                i += 1
                continue
        # A letrec binding: "letrec name =" or "; name =".
        name = tokens[i + 1]
        if name in _KIND:
            raise _expected("ident", tokens, i + 1, text)
        if name in bindings:
            raise DuplicateBinding(name, _offset(text, i + 1))
        if tokens[i + 2] != "=":
            raise _expected("eq", tokens, i + 2, text)
        b = len(names)
        names.append(name)
        terms.append(-1)
        depths.append(lam)
        own.append(0)
        refs.append(set())
        env.setdefault(name, []).append(-b)
        stack.append(("letrec", saved, at, (b, bindings, ids, owner)))
        owner = b
        have = False
        i += 3


def _read_back(tab: _Table) -> Term:
    """The term of a table, built in one pass over its nodes, each from
    its children, which precede it.  A binding's term is complete at its
    last node, where the groups spliced into it are put back around it."""
    kind, data, base, name, groups, spliced = tab.kind, tab.data, tab.base, tab.name, tab.groups, tab.spliced
    inner = {c for lets in spliced.values() for ids in lets for c in ids}
    ends = dict(zip(tab.term, range(len(tab.term))))  # a binding's last node -> its id
    full: list = [None] * len(tab.term)  # each binding's term
    built: list[Term] = []
    for i, k in enumerate(kind):
        if k == _VAR:
            t = Var(base[i][:-1])
        elif k == _REF:
            t = Var(name[data[i]])
        elif k == _APP:
            t = App(built[data[i]], built[-1])
        elif k == _ABS:
            t = Abs(base[i], built[-1])
        else:
            t = Letrec(tuple((name[c], full[c]) for c in groups[i] if c not in inner), built[-1])
        built.append(t)
        b = ends.get(i)
        if b is not None:
            for ids in reversed(spliced.get(b, ())):
                t = Letrec(tuple((name[c], full[c]) for c in ids), t)
            full[b] = t
    return built[-1]


def _flatten(parts: list) -> list[int]:
    """The ints of ``parts`` in order, each nested list read in its place."""
    out: list[int] = []
    todo = [iter(parts)]
    while todo:
        for x in todo[-1]:
            if type(x) is list:
                todo.append(iter(x))
                break
            out.append(x)
        else:
            todo.pop()
    return out


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
