"""Higher-order term graph representations of cyclic lambda-terms.

Two equivalent ways to attach scope information to a delimiter-free term
graph: a scope function mapping each abstraction vertex to the vertex
set inside its extended scope, and an abstraction-prefix function
mapping every vertex to the word of abstraction vertices whose extended
scopes it sits in, outermost first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Mapping

from .core import DomainMismatch, Label, TermGraph, VariantMismatch

# Normalized scope / prefix functions over a fixed graph: keyed by vertex id.
ScopeFn = dict[int, frozenset[int]]
PrefixFn = dict[int, tuple[int, ...]]


@dataclass(frozen=True)
class Violation:
    condition: str
    witnesses: tuple[int, ...]

    def describe(self, g: TermGraph) -> str:
        return f"{self.condition} at {', '.join(g.names[v] for v in self.witnesses)}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def describe(self, g: TermGraph) -> str:
        if self.passed:
            return "pass"
        return "fail: " + self.violation_text(g)

    def violation_text(self, g: TermGraph) -> str:
        """The violations alone, without the verdict, for error messages."""
        return "; ".join(v.describe(g) for v in self.violations)


def _is_word_prefix(shorter: tuple, longer: tuple) -> bool:
    return len(shorter) <= len(longer) and longer[: len(shorter)] == shorter


def _resolve_map(g: TermGraph, m: Mapping, freeze: type) -> dict:
    """Keys and members of m as ids, through the graph's name-or-id lookup:
    an unknown name raises ``KeyError``, and an id that is no vertex is
    kept for the domain check."""
    find = g._lookup.__getitem__
    return {find(key): freeze(map(find, xs)) for key, xs in m.items()}


def normalize_scope_fn(g: TermGraph, sc: Mapping) -> ScopeFn:
    """Accept ids or names as keys/members, check the domain, freeze."""
    return _check_scope_domain(g, _resolve_map(g, sc, frozenset))


def _check_scope_keys(g: TermGraph, sc: Mapping) -> None:
    """The key test alone, for a map whose members are ids by construction."""
    if set(sc) != set(g.vertices_labeled(Label.ABS)):
        raise DomainMismatch("scope function domain must be exactly the abstraction vertices")


def _check_scope_domain(g: TermGraph, sc: ScopeFn) -> ScopeFn:
    """The domain tests of ``normalize_scope_fn``, on a map keyed by ids:
    the keys, then every member in one C-level pass against the ids, so
    a member that equals no id is refused, whatever its type."""
    _check_scope_keys(g, sc)
    ids = set(g.vertices())
    if not ids.issuperset(chain.from_iterable(sc.values())):
        m = next(m for members in sc.values() for m in members if m not in ids)
        raise DomainMismatch(f"scope member {m} is not a vertex")
    return sc


def normalize_prefix_fn(g: TermGraph, p: Mapping) -> PrefixFn:
    return _check_prefix_domain(g, _resolve_map(g, p, tuple))


def _check_prefix_domain(g: TermGraph, p: PrefixFn) -> PrefixFn:
    """The domain tests of ``normalize_prefix_fn``, on a map keyed by ids."""
    ids = set(g.vertices())
    if set(p) != ids:
        raise DomainMismatch("prefix function must be total on the vertex set")
    if not ids.issuperset(chain.from_iterable(p.values())):
        x = next(x for word in p.values() for x in word if x not in ids)
        raise DomainMismatch(f"prefix entry {x} is not a vertex")
    return p


def _containing(g: TermGraph, sc: ScopeFn) -> tuple[list[int], list[list[int]]]:
    """The scope function's one inversion: the abstractions ranked by
    decreasing scope size, ties by ascending id, and for each vertex u
    the abstractions v with u in sc[v], in that rank order.

    When the scopes are valid they nest, so the rank order lists each
    vertex's binders outermost first.  One sort and one pass over the
    scopes: O(n + sum of |sc(v)| + A log A) for A abstractions.
    """
    # A stable sort: reverse=True keeps ties in ascending id.
    order = sorted(g.vertices_labeled(Label.ABS), key=lambda v: len(sc[v]), reverse=True)
    containing: list[list[int]] = [[] for _ in g.vertices()]
    for v in order:
        for u in sc[v]:
            containing[u].append(v)
    return order, containing


def validate_scope(g: TermGraph, sc: Mapping) -> ValidationReport:
    """Check a scope function on a delimiter-free graph.

    Conditions: the root lies in no scope but its own; every abstraction
    is in its own scope; scopes nest; scopes are closed under incoming
    edges; every variable lies in some scope; with variable back-links,
    a variable and its abstraction share exactly the same scopes.

    The scopes are inverted once (``_containing``), so the root, self,
    closed, scope0 and scope1 tests visit only the abstractions whose
    scope holds the vertex at hand, and nesting is one laminar-family
    pass (``_scopes_nest``) in the inversion's rank order:
    O(n + m + sum of |sc(v)| + A log A + k log k) time for A abstractions
    and k violations.  Only when that pass fails does the per-pair
    nesting walk run, to report which pairs fail; it costs O(|sc(v1)|)
    for each abstraction v1 in another's scope.  Violations come in a
    fixed order: root and self per abstraction, then nest, closed,
    scope0 and scope1, each by ascending vertex ids.
    """
    if g.variant.del_arity is not None:
        raise VariantMismatch("scope functions live on delimiter-free graphs")
    sc = normalize_scope_fn(g, sc)
    return _validate_scope(g, sc, *_containing(g, sc))


def _validate_scope(
    g: TermGraph, sc: ScopeFn, order: list[int], containing: list[list[int]]
) -> ValidationReport:
    """``validate_scope`` past its variant check, on a normalized function
    and its inversion.  The inversion is in rank order, not id order:
    two vertices in the same scopes have equal lists, and only a failing
    edge has its closed witnesses sorted back into ascending ids."""
    bad: list[Violation] = []
    labels, args, root = g.labels, g.args, g.root
    ABS, VAR = Label.ABS, Label.VAR
    abs_vertices = [v for v, lab in enumerate(labels) if lab is ABS]

    for v in abs_vertices:
        if root != v and root in sc[v]:
            bad.append(Violation("root", (v,)))
        if v not in sc[v]:
            bad.append(Violation("self", (v,)))
    if not _scopes_nest(g, sc, order):
        is_abs = [lab is ABS for lab in labels]
        for v0 in abs_vertices:
            inner = sorted(v1 for v1 in sc[v0] if is_abs[v1] and v1 != v0)
            for v1 in inner:
                # sc[v1] <= sc[v0] - {v0}, without copying sc[v0].
                if v0 in sc[v1] or not sc[v1] <= sc[v0]:
                    bad.append(Violation("nest", (v0, v1)))
    for w, succ in enumerate(args):
        for wk in succ:
            for v in containing[wk]:
                if v != wk and w not in sc[v]:
                    bad += [
                        Violation("closed", (u, w, wk))
                        for u in sorted(containing[wk])
                        if u != wk and w not in sc[u]
                    ]
                    break
    variables = [w for w, lab in enumerate(labels) if lab is VAR]
    for w in variables:
        # A variable is no abstraction, so every scope holding it counts.
        if not containing[w]:
            bad.append(Violation("scope0", (w,)))
    if g.variant.var_arity == 1:
        for w in variables:
            w0 = args[w][0]
            if labels[w0] is not ABS:
                bad.append(Violation("scope1", (w, w0)))
                continue
            # Both lists follow the rank order, so equal sets are equal lists.
            if containing[w] != containing[w0]:
                for v in sorted(set(containing[w]).symmetric_difference(containing[w0])):
                    bad.append(Violation("scope1", (w, w0, v)))
    return ValidationReport(tuple(bad))


def _scopes_nest(g: TermGraph, sc: ScopeFn, order: list[int]) -> bool:
    """Laminar-family test: True only if no pair of scopes fails to nest.

    The abstractions are taken in ``order``, the rank order of
    ``_containing`` (decreasing scope size, ties in ascending id), and
    each vertex keeps the last abstraction whose scope claimed it.  v
    passes if v is in sc(v), its parent (the last claimer of v) is not,
    and every member of sc(v) was last claimed by that parent; then v
    claims them all.
    If every v passes, the scope sets form a tree under inclusion in
    which no scope holds an earlier abstraction, so each v1 in sc(v0)
    comes later and sc(v1) <= sc(v0) - {v0}.  Every valid scope function
    passes.  Both the self and the parent test are needed: without the
    parent test ``{a: {a, b}, b: {a, b}}`` would pass, and without the
    self test ``{a: {x, y}, b: {b, a}}``.  O(n + sum of |sc(v)|).
    """
    last = [-1] * g.vertex_count
    for v in order:
        members = sc[v]
        parent = last[v]
        if v not in members or parent in members:
            return False
        for u in members:
            if last[u] != parent:
                return False
            last[u] = v
    return True


def validate_prefix_ho(g: TermGraph, p: Mapping) -> ValidationReport:
    """Check an abstraction-prefix function on a delimiter-free graph.

    Abstraction and application edges may shorten the prefix (word-prefix
    order); variables need a nonempty prefix, and with back-links the
    target must be the last prefix entry.
    """
    if g.variant.del_arity is not None:
        raise VariantMismatch("this validator is for delimiter-free graphs")
    return _validate_prefix_ho(g, normalize_prefix_fn(g, p))


def _validate_prefix_ho(g: TermGraph, p: PrefixFn) -> ValidationReport:
    """``validate_prefix_ho`` past its variant check, on a normalized function."""
    bad = _prefix_word_sanity(g, p)
    if p[g.root] != ():
        bad.append(Violation("root", (g.root,)))
    labels, args = g.labels, g.args
    ABS, APP, VAR = Label.ABS, Label.APP, Label.VAR
    for w, succ in enumerate(args):
        lab = labels[w]
        if lab is ABS:
            word = p[w] + (w,)
            for wk in succ:
                if not _is_word_prefix(p[wk], word):
                    bad.append(Violation("lambda", (w, wk)))
        elif lab is APP:
            word = p[w]
            for wk in succ:
                if not _is_word_prefix(p[wk], word):
                    bad.append(Violation("apply", (w, wk)))
    variables = [w for w, lab in enumerate(labels) if lab is VAR]
    for w in variables:
        if p[w] == ():
            bad.append(Violation("var0", (w,)))
    if g.variant.var_arity == 1:
        for w in variables:
            w0 = args[w][0]
            if labels[w0] is not ABS or p[w0] + (w0,) != p[w]:
                bad.append(Violation("var1", (w, w0)))
    return ValidationReport(tuple(bad))


def _prefix_word_sanity(g: TermGraph, p: PrefixFn) -> list[Violation]:
    # Derived facts re-checked defensively: prefix entries are abstraction
    # vertices, occur once per word, and a vertex never lists itself.
    bad = []
    labels, abs_label = g.labels, Label.ABS
    for w, word in p.items():
        for x in word:
            if labels[x] is not abs_label:
                bad.append(Violation("entry-not-abstraction", (w, x)))
        if len(set(word)) != len(word):
            bad.append(Violation("repeated-entry", (w,)))
        if w in word:
            bad.append(Violation("self-in-prefix", (w,)))
    return bad


@dataclass(frozen=True)
class ScopedGraph:
    """A delimiter-free term graph together with a valid scope function.

    The constructor takes a map keyed by vertex ids and refuses an
    invalid one: a domain error as in ``normalize_scope_fn``, a graph
    with delimiters, or a ``ValueError`` naming the violations that
    ``validate_scope`` reports.  ``checked`` also accepts names.  It
    inverts the scopes once (``_containing``), validates on that
    inversion and keeps its lists as ``_binder_lists``.
    """

    graph: TermGraph
    scopes: dict[int, frozenset[int]] = field(hash=False)

    def __post_init__(self):
        g = self.graph
        _check_scope_domain(g, self.scopes)
        if g.variant.del_arity is not None:
            raise VariantMismatch("scope functions live on delimiter-free graphs")
        order, containing = _containing(g, self.scopes)
        report = _validate_scope(g, self.scopes, order, containing)
        if not report.passed:
            raise ValueError(f"invalid scope function: {report.violation_text(g)}")
        self.__dict__["_binder_lists"] = containing

    @classmethod
    def checked(cls, graph: TermGraph, scopes: Mapping) -> "ScopedGraph":
        return cls(graph, _resolve_map(graph, scopes, frozenset))

    @cached_property
    def _binder_lists(self) -> list[list[int]]:
        """Per vertex, the abstractions whose scope holds it, outermost first.

        ``_containing``'s lists: the constructor stores the ones it
        validated on, and an instance made through ``core._trusted``
        inverts its scopes on first use, in O(n + sum of |sc(v)| + A log A).
        """
        return _containing(self.graph, self.scopes)[1]


@dataclass(frozen=True)
class PrefixedGraph:
    """A delimiter-free term graph with a valid abstraction-prefix function.

    The constructor takes a map keyed by vertex ids and refuses an
    invalid one, as ``ScopedGraph`` does, with ``validate_prefix_ho``'s
    violations.  ``checked`` also accepts names.
    """

    graph: TermGraph
    prefixes: dict[int, tuple[int, ...]] = field(hash=False)

    def __post_init__(self):
        _check_prefix_domain(self.graph, self.prefixes)
        if self.graph.variant.del_arity is not None:
            raise VariantMismatch("this validator is for delimiter-free graphs")
        report = _validate_prefix_ho(self.graph, self.prefixes)
        if not report.passed:
            raise ValueError(f"invalid prefix function: {report.violation_text(self.graph)}")

    @classmethod
    def checked(cls, graph: TermGraph, prefixes: Mapping) -> "PrefixedGraph":
        return cls(graph, _resolve_map(graph, prefixes, tuple))


def binders(h: ScopedGraph, w: int | str) -> list[int]:
    """Abstractions whose scope contains w, outermost first.

    The scopes of the binders of any vertex form a strict inclusion
    chain, so sorting by decreasing scope size linearizes them.  An id
    that is no vertex lies in no scope and has no binders.
    """
    w = h.graph.resolve(w)
    if not 0 <= w < h.graph.vertex_count:
        return []
    return list(h._binder_lists[w])
