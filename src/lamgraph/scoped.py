"""Higher-order term graph representations of cyclic lambda-terms.

Two equivalent ways to attach scope information to a delimiter-free term
graph: a scope function mapping each abstraction vertex to the vertex
set inside its extended scope, and an abstraction-prefix function
mapping every vertex to the word of abstraction vertices whose extended
scopes it sits in, outermost first.

Both are held as one binder tree, ``_inner``: each vertex's innermost
binder other than itself, the last entry of its word, or -1 for the
empty word.  On a valid function every word is P(v) = P(u)·u for that
binder u, and every scope is its abstraction and the vertices below it
in the tree, so the tree holds the whole scoping.  The validating
constructors check a function as given, at the trust boundary, and
store the tree where they make the graph: ``ScopedGraph`` the one that
the scope validator's laminar pass builds and tests the other
conditions on, ``PrefixedGraph`` the last entries of its words.
Conversions pass the tree on, and words and scopes are derived from it
where they are first read.

One word validator, ``_validate_prefix_ho``, checks prefix functions on
both signatures: with delimiters an abstraction or application edge
fixes its successor's word, without it may shorten it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

from .core import DomainMismatch, Label, TermGraph, VariantMismatch, _derived_field

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
    """Keys and members of m as ids.  A map without names is taken as it
    is, after one C-level type pass, so the domain check refuses 1.0 and
    True, which equal an id but are none.  Any other resolves through
    the graph's name-or-id lookup: an unknown name raises ``KeyError``,
    and an id that is no vertex is kept for the domain check, as is
    anything neither a name nor an int, so neither 1.0 nor True is read
    as 1."""
    types = set(map(type, chain(m, chain.from_iterable(m.values()))))
    if not any(issubclass(t, str) for t in types):
        return {key: freeze(xs) for key, xs in m.items()}
    lookup = g._lookup
    find = lookup.__getitem__
    if not all(t is int or issubclass(t, str) for t in types):
        find = lambda x: lookup[x] if type(x) is int or isinstance(x, str) else x  # noqa: E731
    return {find(key): freeze(map(find, xs)) for key, xs in m.items()}


def normalize_scope_fn(g: TermGraph, sc: Mapping) -> ScopeFn:
    """Accept ids or names as keys/members, check the domain, freeze."""
    return _check_scope_domain(g, _resolve_map(g, sc, frozenset))


def _check_scope_keys(g: TermGraph, sc: Mapping) -> None:
    """The key test alone, for a map whose members are ids by construction."""
    if set(sc) != set(g.vertices_labeled(Label.ABS)) or not {int}.issuperset(map(type, sc)):
        raise DomainMismatch("scope function domain must be exactly the abstraction vertices")


def _check_ids(ids: set[int], groups, what: str) -> None:
    """Refuse the first member of the groups that is no vertex id, as
    ``{what} {m} is not a vertex``.  An id is an int: 1.0 and True equal
    one but are none.  Two C-level passes when every member is an id."""
    flat = chain.from_iterable
    if not ({int}.issuperset(map(type, flat(groups))) and ids.issuperset(flat(groups))):
        m = next(m for ms in groups for m in ms if type(m) is not int or m not in ids)
        raise DomainMismatch(f"{what} {m} is not a vertex")


def _check_scope_domain(g: TermGraph, sc: ScopeFn) -> ScopeFn:
    """The domain tests of ``normalize_scope_fn``, on a map keyed by ids:
    the keys, then every member against the ids, so a member that is no
    id is refused, whatever its type."""
    _check_scope_keys(g, sc)
    _check_ids(set(g.vertices()), sc.values(), "scope member")
    return sc


def normalize_prefix_fn(g: TermGraph, p: Mapping) -> PrefixFn:
    return _check_prefix_domain(g, _resolve_map(g, p, tuple))


def _check_prefix_domain(g: TermGraph, p: PrefixFn) -> PrefixFn:
    """The domain tests of ``normalize_prefix_fn``, on a map keyed by ids."""
    ids = set(g.vertices())
    if set(p) != ids or not {int}.issuperset(map(type, p)):
        raise DomainMismatch("prefix function must be total on the vertex set")
    _check_ids(ids, p.values(), "prefix entry")
    return p


def _containing(g: TermGraph, sc: ScopeFn) -> list[list[int]]:
    """For each vertex u, the abstractions v with u in sc[v], ranked by
    decreasing scope size, ties by ascending id: the inversion that
    ``_report`` reads where the scopes do not nest.

    One sort and one pass over the scopes: O(n + sum of |sc(v)| + A log A)
    for A abstractions.
    """
    containing: list[list[int]] = [[] for _ in g.vertices()]
    for v in _rank_order(g, sc):
        for u in sc[v]:
            containing[u].append(v)
    return containing


def _rank_order(g: TermGraph, sc: ScopeFn) -> list[int]:
    # A stable sort: reverse=True keeps ties in ascending id.
    return sorted(g.vertices_labeled(Label.ABS), key=lambda v: len(sc[v]), reverse=True)


def validate_scope(g: TermGraph, sc: Mapping) -> ValidationReport:
    """Check a scope function on a delimiter-free graph.

    Conditions: the root lies in no scope but its own; every abstraction
    is in its own scope; scopes nest; scopes are closed under incoming
    edges; every variable lies in some scope; with variable back-links,
    a variable and its abstraction share exactly the same scopes.

    Nesting is one laminar-family pass (``_binder_tree``), which also
    gives the binder tree; on that tree the root, closed, scope0 and
    scope1 tests take O(1) per vertex or edge (``_tree_holds``), in
    O(n + m + sum of |sc(v)| + A log A) time for A abstractions.  A
    function that fails them gets the full report (``_report``).
    """
    if g.variant.del_arity is not None:
        raise VariantMismatch("scope functions live on delimiter-free graphs")
    return _validate_scope(g, normalize_scope_fn(g, sc))[0]


def _validate_scope(g: TermGraph, sc: ScopeFn) -> tuple[ValidationReport, list[int] | None]:
    """``validate_scope`` past its variant check, on a normalized
    function: the report, and the binder tree where the scopes nest.

    Where the scopes nest and the tree passes, the report is empty.
    Otherwise the scopes are inverted (``_containing``) and every
    condition is tested on that inversion, to name each violation.
    """
    inner = _binder_tree(g, sc)
    if inner is not None and _tree_holds(g, sc, inner):
        return ValidationReport(), inner
    return _report(g, sc, _containing(g, sc), inner is not None), inner


def _binder_tree(g: TermGraph, sc: ScopeFn) -> list[int] | None:
    """Laminar-family test: the binder tree, or None if a pair of scopes
    may fail to nest.

    The abstractions are taken in rank order (decreasing scope size,
    ties in ascending id), and each vertex keeps the last abstraction
    whose scope claimed it.  v passes if v is in sc(v), its parent (the
    last claimer of v) is not, and every member of sc(v) was last
    claimed by that parent; then v claims them all.
    If every v passes, the scope sets form a tree under inclusion in
    which no scope holds an earlier abstraction, so each v1 in sc(v0)
    comes later and sc(v1) <= sc(v0) - {v0}.  Every valid scope function
    on a carrier that the root reaches passes.  Both the self and the
    parent test are needed: without the parent test
    ``{a: {a, b}, b: {a, b}}`` would pass, and without the self test
    ``{a: {x, y}, b: {b, a}}``.

    The tree is each vertex's innermost binder other than itself, -1 for
    none: its last claimer, or an abstraction's parent.  A vertex's
    binders are that binder and its ancestors, and an abstraction's are
    itself and its parent's.  O(n + sum of |sc(v)| + A log A).
    """
    last = [-1] * g.vertex_count
    parents = []
    for v in _rank_order(g, sc):
        members = sc[v]
        parent = last[v]
        if v not in members or parent in members:
            return None
        for u in members:
            if last[u] != parent:
                return None
            last[u] = v
        parents.append((v, parent))
    for v, parent in parents:
        last[v] = parent
    return last


def _tree_holds(g: TermGraph, sc: ScopeFn, inner: list[int]) -> bool:
    """The root, closed, scope0 and scope1 tests on the binder tree of
    scopes that nest; the laminar pass has settled self and nest.

    A vertex's binders other than itself are x, its innermost one, and
    x's ancestors, whose scopes hold sc(x).  So the root lies in no
    scope but its own iff its x is -1; an edge w -> wk keeps every scope
    that holds wk but is not wk's own closed iff w is in sc(x) of wk; a
    variable lies in some scope iff its x is not -1; and a variable and
    its back-link target share their scopes iff the target is its x,
    which makes the back-link closed.  O(n + m).
    """
    labels, args = g.labels, g.args
    linked, VAR = g.variant.var_arity == 1, Label.VAR
    if inner[g.root] != -1:
        return False
    for w, succ in enumerate(args):
        if labels[w] is VAR:
            if inner[w] < 0 or linked and inner[w] != succ[0]:
                return False
            continue
        for wk in succ:
            x = inner[wk]
            if x >= 0 and w not in sc[x]:
                return False
    return True


def _report(g: TermGraph, sc: ScopeFn, containing: list[list[int]], nests: bool) -> ValidationReport:
    """Every violation of a normalized scope function, on its inversion.

    The inversion is in rank order, not id order: two vertices in the
    same scopes have equal lists, and only a failing edge has its closed
    witnesses sorted back into ascending ids.  Only where ``nests`` is
    false does the per-pair nesting walk run, to report which pairs
    fail; it costs O(|sc(v1)|) for each abstraction v1 in another's
    scope.  Violations come in a fixed order: root and self per
    abstraction, then nest, closed, scope0 and scope1, each by ascending
    vertex ids.
    """
    bad: list[Violation] = []
    labels, args, root = g.labels, g.args, g.root
    ABS, VAR = Label.ABS, Label.VAR
    abs_vertices = [v for v, lab in enumerate(labels) if lab is ABS]

    for v in abs_vertices:
        if root != v and root in sc[v]:
            bad.append(Violation("root", (v,)))
        if v not in sc[v]:
            bad.append(Violation("self", (v,)))
    if not nests:
        is_abs = [lab is ABS for lab in labels]
        for v0 in abs_vertices:
            nested = sorted(v1 for v1 in sc[v0] if is_abs[v1] and v1 != v0)
            for v1 in nested:
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


def validate_prefix_ho(g: TermGraph, p: Mapping) -> ValidationReport:
    """Check an abstraction-prefix function on a delimiter-free graph.

    Abstraction and application edges may shorten the prefix (word-prefix
    order); variables need a nonempty prefix, and with back-links the
    target must be the last prefix entry.  ``delimited.validate_prefix_fo``
    runs the same check, with its strict edges, on graphs with delimiters.
    """
    if g.variant.del_arity is not None:
        raise VariantMismatch("this validator is for delimiter-free graphs")
    return _validate_prefix_ho(g, normalize_prefix_fn(g, p))


def _validate_prefix_ho(g: TermGraph, p: PrefixFn) -> ValidationReport:
    """The one word validator, past the variant checks of
    ``validate_prefix_ho`` and ``validate_prefix_fo``, on a normalized
    function.

    With delimiters an abstraction or application edge fixes its
    successor's word, and a delimiter pops one entry (``delim-pop``) and
    back-links to it (``delim-backlink``); without, such an edge may
    shorten the word.  Violations come per vertex in id order, edge by
    edge, then ``var0`` and then ``var1`` by ascending variable.
    """
    bad = _prefix_word_sanity(g, p)
    if p[g.root] != ():
        bad.append(Violation("root", (g.root,)))
    labels, args = g.labels, g.args
    ABS, APP, VAR, DEL = Label.ABS, Label.APP, Label.VAR, Label.DEL
    fits = _is_word_prefix if g.variant.del_arity is None else tuple.__eq__
    for w, succ in enumerate(args):
        lab = labels[w]
        if lab is ABS:
            word = p[w] + (w,)
            for wk in succ:
                if not fits(p[wk], word):
                    bad.append(Violation("lambda", (w, wk)))
        elif lab is APP:
            word = p[w]
            for wk in succ:
                if not fits(p[wk], word):
                    bad.append(Violation("apply", (w, wk)))
        elif lab is DEL:
            word, wk = p[w], succ[0]
            # A delimiter pops one entry, so its own word cannot be empty.
            if not word or p[wk] != word[:-1]:
                bad.append(Violation("delim-pop", (w, wk)))
            for wk in succ[1:]:
                if labels[wk] is not ABS or p[wk] + (wk,) != word:
                    bad.append(Violation("delim-backlink", (w, wk)))
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
    keeps the binder tree it validated on as ``_inner``, from which
    ``binders``, ``scope_to_prefix`` and ``max_share_ho`` read the
    scoping.
    """

    graph: TermGraph
    scopes: dict[int, frozenset[int]] = field(hash=False)

    def __post_init__(self):
        g = self.graph
        _check_scope_domain(g, self.scopes)
        if g.variant.del_arity is not None:
            raise VariantMismatch("scope functions live on delimiter-free graphs")
        report, inner = _validate_scope(g, self.scopes)
        if not report.passed:
            raise ValueError(f"invalid scope function: {report.violation_text(g)}")
        # Valid scopes without a tree need a vertex that the root does
        # not reach, which ``TermGraph`` refuses.
        self.__dict__["_inner"] = inner

    @classmethod
    def checked(cls, graph: TermGraph, scopes: Mapping) -> "ScopedGraph":
        return cls(graph, _resolve_map(graph, scopes, frozenset))


def _scopes(h: ScopedGraph) -> ScopeFn:
    """The scopes of a graph made with ``_inner`` instead of ``scopes``:
    sc(v) is v and every vertex below it in the binder tree, keyed in id
    order.  One preorder walk of the tree lays the vertices out so that
    each scope is one run of that order, cut out when its walk ends:
    O(n + sum of |sc(v)|)."""
    g, inner = h.graph, h._inner
    labels, ABS = g.labels, Label.ABS
    below: list[list[int]] = [[] for _ in range(g.vertex_count + 1)]
    for u, x in enumerate(inner):
        below[x].append(u)  # below[-1]: the vertices with the empty word
    order: list[int] = []
    runs: dict[int, frozenset[int]] = {}
    walks = [(-1, 0, iter(below[-1]))]  # binder, start of its run, its walk
    while walks:
        v, start, walk = walks[-1]
        for u in walk:
            order.append(u)
            if labels[u] is ABS:
                walks.append((u, len(order) - 1, iter(below[u])))
                break
        else:
            walks.pop()
            if v >= 0:
                runs[v] = frozenset(order[start:])
    return {v: runs[v] for v in g.vertices_labeled(ABS)}


# ``prefix_to_scope`` makes a ``ScopedGraph`` from its binder tree alone;
# its scopes are derived where they are first read.
_derived_field(ScopedGraph, "scopes", _scopes)


def _words(inner: Sequence[int]) -> PrefixFn:
    """The words of innermost binders ``inner``, as for a graph made
    with ``_inner`` instead of ``prefixes``: P(v) = P(u)·u for its
    innermost binder u, and () for -1, keyed in id order.  The vertices
    with one innermost binder share one word, built once from the
    binder's own, so this takes O(n) plus the length of the binders'
    words."""
    below = {-1: ()}  # binder u -> P(u)·u
    for u in set(inner):
        # Up the binder chain to a known word, then down it.
        path = []
        while u not in below:
            path.append(u)
            u = inner[u]
        for u in reversed(path):
            below[u] = below[inner[u]] + (u,)
    return dict(enumerate(map(below.__getitem__, inner)))


@dataclass(frozen=True)
class PrefixedGraph:
    """A delimiter-free term graph with a valid abstraction-prefix function.

    The constructor takes a map keyed by vertex ids and refuses an
    invalid one, as ``ScopedGraph`` does, with ``validate_prefix_ho``'s
    violations; a word that is no tuple is kept as its tuple.
    ``checked`` also accepts names.  A conversion makes one through
    ``core._trusted`` with its innermost binders, ``_inner``, and its
    words are derived where they are first read (``_words``).
    """

    graph: TermGraph
    prefixes: dict[int, tuple[int, ...]] = field(hash=False)

    def __post_init__(self):
        if not {tuple}.issuperset(map(type, self.prefixes.values())):
            # A word given as a list, say, is read as its tuple, as the
            # validator reads it, and kept as one.
            self.__dict__["prefixes"] = {v: tuple(word) for v, word in self.prefixes.items()}
        _check_prefix_domain(self.graph, self.prefixes)
        if self.graph.variant.del_arity is not None:
            raise VariantMismatch("this validator is for delimiter-free graphs")
        report = _validate_prefix_ho(self.graph, self.prefixes)
        if not report.passed:
            raise ValueError(f"invalid prefix function: {report.violation_text(self.graph)}")
        # The innermost binders: the last entries of the words.
        words = map(self.prefixes.__getitem__, self.graph.vertices())
        self.__dict__["_inner"] = [word[-1] if word else -1 for word in words]

    @classmethod
    def checked(cls, graph: TermGraph, prefixes: Mapping) -> "PrefixedGraph":
        return cls(graph, _resolve_map(graph, prefixes, tuple))


_derived_field(PrefixedGraph, "prefixes", lambda x: _words(x._inner))


def binders(h: ScopedGraph, w: int | str) -> list[int]:
    """Abstractions whose scope contains w, outermost first: w itself if
    it is an abstraction, below its chain of innermost binders.  O(1)
    per binder.  An id that is no vertex lies in no scope and has no
    binders.
    """
    g = h.graph
    w = g.resolve(w)
    if type(w) is not int or not 0 <= w < g.vertex_count:
        return []
    inner = h._inner
    found = [w] if g.labels[w] is Label.ABS else []
    x = inner[w]
    while x >= 0:
        found.append(x)
        x = inner[x]
    found.reverse()
    return found
