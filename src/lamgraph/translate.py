"""Translate closed letrec terms to delimited first-order graphs.

The traversal carries the current abstraction-prefix word.  Entering an
abstraction pushes its fresh vertex; before descending into a subterm,
trailing word entries whose binder has no free occurrence in the
subterm (tracked through letrec references by a fixpoint) are popped,
one delimiter vertex per pop, 0-successor continuing into the subterm
and 1-successor back-linking to the popped abstraction.

Letrec bindings translate in two passes: entry vertices for the whole
group are allocated first, then the defining terms are filled in, so
cycles and cross-references become direct edges.  Occurrences of letrec
names are plain edges to the entry vertex; only lambda-bound variables
become variable vertices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .core import Label, SignatureVariant, build_pruned
from .delimited import (
    DelimitedGraph,
    _non_eager_reason,
    _non_eager_vertex,
    is_fully_back_linked,
)
from .terms import Abs, App, Letrec, Term, UnboundVariable, Var


class InternalValidationFailure(Exception):
    """The translator produced an invalid graph; this is a bug guard."""


class DegenerateBinding(Exception):
    """A letrec binding defined only through a cycle of bare names."""


# ---------------------------------------------------------------------------
# Resolution: unique integer ids for binders, free-binder sets per node.


@dataclass
class _RNode:
    fv: frozenset[int] = field(default_factory=frozenset, init=False)


@dataclass
class _RVar(_RNode):
    binder: int
    name: str


@dataclass
class _RRef(_RNode):
    binding: int


@dataclass
class _RApp(_RNode):
    fun: "_RNode"
    arg: "_RNode"


@dataclass
class _RAbs(_RNode):
    binder: int
    name: str
    body: "_RNode"


@dataclass
class _RLetrec(_RNode):
    bindings: list[tuple[int, str, "_RNode"]]
    body: "_RNode"
    live: frozenset[int] = frozenset()


class _Resolver:
    def __init__(self):
        self.counter = 0
        self.binding_term: dict[int, _RNode] = {}

    def fresh(self) -> int:
        self.counter += 1
        return self.counter

    def resolve(self, t: Term, env: dict[str, tuple[str, int]]) -> _RNode:
        if isinstance(t, Var):
            if t.name not in env:  # parser output is closed; guard hand-built terms
                raise UnboundVariable(t.name, -1)
            kind, ident = env[t.name]
            return _RVar(ident, t.name) if kind == "lam" else _RRef(ident)
        if isinstance(t, App):
            return _RApp(self.resolve(t.fun, env), self.resolve(t.arg, env))
        if isinstance(t, Abs):
            b = self.fresh()
            inner = dict(env)
            inner[t.name] = ("lam", b)
            return _RAbs(b, t.name, self.resolve(t.body, inner))
        if isinstance(t, Letrec):
            inner = dict(env)
            ids = []
            for name, _ in t.bindings:
                ident = self.fresh()
                ids.append(ident)
                inner[name] = ("rec", ident)
            bindings: list[tuple[int, str, _RNode]] = []
            for (name, sub), ident in zip(t.bindings, ids):
                resolved = self.resolve(sub, inner)
                # A letrec in binding position lives in the same lambda
                # environment, so its groups splice into this one (the
                # body of a spliced letrec may be yet another letrec).
                while isinstance(resolved, _RLetrec):
                    bindings.extend(resolved.bindings)
                    resolved = resolved.body
                bindings.append((ident, name, resolved))
                self.binding_term[ident] = resolved
            return _RLetrec(bindings, self.resolve(t.body, inner))
        raise TypeError(f"not a term: {t!r}")


def _compute_fv(root: _RNode, binding_term: dict[int, _RNode]) -> None:
    """Annotate every node with its free lambda binders, resolving letrec
    references by a least fixpoint over the binding group."""
    bind_fv: dict[int, frozenset[int]] = {b: frozenset() for b in binding_term}

    def fv(node: _RNode) -> frozenset[int]:
        if isinstance(node, _RVar):
            return frozenset((node.binder,))
        if isinstance(node, _RRef):
            return bind_fv[node.binding]
        if isinstance(node, _RApp):
            return fv(node.fun) | fv(node.arg)
        if isinstance(node, _RAbs):
            return fv(node.body) - {node.binder}
        if isinstance(node, _RLetrec):
            return fv(node.body)
        raise TypeError(node)

    changed = True
    while changed:
        changed = False
        for b, term in binding_term.items():
            new = fv(term)
            if new != bind_fv[b]:
                bind_fv[b] = new
                changed = True

    def annotate(node: _RNode) -> None:
        # Each node's set comes from its children's, so this is one pass.
        if isinstance(node, _RApp):
            annotate(node.fun)
            annotate(node.arg)
            node.fv = node.fun.fv | node.arg.fv
        elif isinstance(node, _RAbs):
            annotate(node.body)
            node.fv = node.body.fv - {node.binder}
        elif isinstance(node, _RLetrec):
            for _, _, term in node.bindings:
                annotate(term)
            annotate(node.body)
            node.fv = node.body.fv
        else:
            node.fv = fv(node)

    annotate(root)


def _mark_live(root: _RNode) -> None:
    """Fill each letrec's set of bindings actually referenced, directly or
    through other live bindings.  Dead bindings are never translated."""

    def exposed(node: _RNode) -> frozenset[int]:
        # Binding ids a translation of this node will touch.
        if isinstance(node, _RRef):
            return frozenset((node.binding,))
        if isinstance(node, _RApp):
            return exposed(node.fun) | exposed(node.arg)
        if isinstance(node, _RAbs):
            return exposed(node.body)
        if isinstance(node, _RLetrec):
            group = {ident for ident, _, _ in node.bindings}
            term_of = {ident: term for ident, _, term in node.bindings}
            live: set[int] = set()
            body = exposed(node.body)
            frontier = list(body & group)
            external = set(body - group)
            while frontier:
                b = frontier.pop()
                if b in live:
                    continue
                live.add(b)
                for r in exposed(term_of[b]):
                    if r in group:
                        frontier.append(r)
                    else:
                        external.add(r)
            node.live = frozenset(live)
            return frozenset(external)
        return frozenset()

    exposed(root)


# ---------------------------------------------------------------------------
# Graph emission.


class _Builder:
    def __init__(self):
        self.labels: dict[str, Label] = {}
        self.succ: dict[str, list[str] | None] = {}
        self.expected_prefix: dict[str, tuple[str, ...]] = {}
        self.counts: dict[str, int] = {}

    def fresh_name(self, base: str) -> str:
        from .textfmt import RESERVED_NAMES

        n = self.counts.get(base, 0) + 1
        self.counts[base] = n
        name = base if n == 1 else f"{base}.{n}"
        # Skip names the document format cannot express (a binder may be
        # called "scope" or "root").
        while name in self.labels or name in RESERVED_NAMES:
            n += 1
            self.counts[base] = n
            name = f"{base}.{n}"
        return name

    def alloc(self, base: str, label: Label, word: tuple) -> str:
        name = self.fresh_name(base)
        self.labels[name] = label
        self.succ[name] = None
        self.expected_prefix[name] = tuple(v for v, _ in word)
        return name


# Prefix words during translation pair the emitted abstraction vertex
# name with the resolver's binder id.
_Word = tuple[tuple[str, int], ...]


def _pop(word: _Word, fv: frozenset[int]) -> _Word:
    i = len(word)
    while i > 0 and word[i - 1][1] not in fv:
        i -= 1
    return word[:i]


class _Translator:
    def __init__(self, rng: random.Random | None):
        self.b = _Builder()
        self.rng = rng  # None: eager pops everywhere; else lazy where legal
        self.entry: dict[int, tuple[str, _Word]] = {}
        self.term_of: dict[int, _RNode] = {}

    def chain(self, source: _Word, target: _Word, target_name: str) -> str:
        """One delimiter per popped word entry, bottom-up; returns the top."""
        cur = target_name
        for level in range(len(target) + 1, len(source) + 1):
            popped = source[level - 1][0]
            s = self.b.alloc("s", Label.DEL, source[:level])
            self.b.succ[s] = [cur, popped]
            cur = s
        return cur

    def attach(self, node: _RNode, word: _Word) -> str:
        """Translate ``node`` below an edge whose source carries ``word``,
        emitting the delimiter chain for the prefix drop."""
        target = _pop(word, node.fv)
        if self.rng is not None and not isinstance(node, (_RVar, _RRef)):
            # Lazy mode: keep a random part of the poppable tail.  Variable
            # and reference targets have forced prefixes and stay exact.
            keep = self.rng.randint(0, len(word) - len(target))
            target = word[: len(target) + keep]
        top = self.translate(node, target)
        return self.chain(word, target, top)

    def translate(self, node: _RNode, word: _Word) -> str:
        if isinstance(node, _RVar):
            assert word and word[-1][1] == node.binder
            v = self.b.alloc(f"{node.name}!", Label.VAR, word)
            self.b.succ[v] = [word[-1][0]]
            return v
        if isinstance(node, _RRef):
            name, entry_word = self.resolve_entry(node.binding, ())
            assert word == entry_word
            return name
        if isinstance(node, _RApp):
            v = self.b.alloc("a", Label.APP, word)
            self.b.succ[v] = [self.attach(node.fun, word), self.attach(node.arg, word)]
            return v
        if isinstance(node, _RAbs):
            v = self.b.alloc(node.name, Label.ABS, word)
            body_word = word + ((v, node.binder),)
            self.b.succ[v] = [self.attach(node.body, body_word)]
            return v
        if isinstance(node, _RLetrec):
            for ident, name, term in node.bindings:
                self.term_of[ident] = term
            fills = []
            for ident, name, term in node.bindings:
                if ident in node.live and not isinstance(term, _RRef):
                    entry_word = _pop(word, term.fv)
                    v = self.b.alloc(name, self.shape_label(term), entry_word)
                    self.entry[ident] = (v, entry_word)
                    fills.append((ident, term, v, entry_word))
            for ident, term, v, entry_word in fills:
                self.fill(term, v, entry_word)
            return self.attach(node.body, word)
        raise TypeError(node)

    def shape_label(self, term: _RNode) -> Label:
        if isinstance(term, _RAbs):
            return Label.ABS
        if isinstance(term, _RApp):
            return Label.APP
        if isinstance(term, _RVar):
            return Label.VAR
        raise TypeError(term)

    def fill(self, term: _RNode, v: str, word: _Word) -> None:
        if isinstance(term, _RAbs):
            body_word = word + ((v, term.binder),)
            self.b.succ[v] = [self.attach(term.body, body_word)]
        elif isinstance(term, _RApp):
            self.b.succ[v] = [self.attach(term.fun, word), self.attach(term.arg, word)]
        elif isinstance(term, _RVar):
            assert word and word[-1][1] == term.binder
            self.b.succ[v] = [word[-1][0]]
        else:
            raise TypeError(term)

    def resolve_entry(self, binding: int, trail: tuple[int, ...]) -> tuple[str, _Word]:
        if binding in self.entry:
            return self.entry[binding]
        term = self.term_of[binding]
        if isinstance(term, _RRef):
            if term.binding in trail:
                raise DegenerateBinding(
                    "letrec binding defined only through a cycle of names"
                )
            resolved = self.resolve_entry(term.binding, trail + (binding,))
            self.entry[binding] = resolved
            return resolved
        raise AssertionError("reference to a binding that was never allocated")


def term_to_graph(t: Term, rng: random.Random | None = None) -> DelimitedGraph:
    """Translate a closed term to a valid eager-scope delimited graph
    over the signature with both kinds of back-links.

    With ``rng`` the translation keeps some closable scopes open longer
    (still valid, generally not eager); used to generate test diversity.
    """
    resolver = _Resolver()
    rnode = resolver.resolve(t, {})
    _compute_fv(rnode, resolver.binding_term)
    _mark_live(rnode)
    if rnode.fv:
        raise ValueError("term is not closed")
    tr = _Translator(rng)
    root = tr.attach(rnode, ())
    graph, pruned = build_pruned(
        SignatureVariant(1, 2), tr.b.labels, tr.b.succ, root
    )
    if pruned:
        raise InternalValidationFailure(f"translator left unreachable vertices: {pruned}")
    try:
        result = DelimitedGraph.from_graph(graph)
    except ValueError as exc:
        raise InternalValidationFailure(str(exc)) from exc
    id_of = {name: v for v, name in enumerate(graph.names)}
    for name, word in tr.b.expected_prefix.items():
        got = result.prefixes[id_of[name]]
        if got != tuple(id_of[x] for x in word):
            raise InternalValidationFailure(f"prefix mismatch at {name}")
    if rng is None:
        w = _non_eager_vertex(result)
        if w is not None:
            raise InternalValidationFailure(
                "eager translation produced a non-eager graph: "
                + _non_eager_reason(result, w)
            )
        if not is_fully_back_linked(result):
            raise InternalValidationFailure("eager translation is not fully back-linked")
    return result
