"""Independent brute-force oracles the tests check the library against.

Everything here prefers exhaustive enumeration over cleverness and never
calls the code paths it is used to verify.  The one exception is
``all_scope_functions`` (with ``admits_scoping`` on top of it), which
filters its candidates through the library's ``validate_scope`` and
checks that validator against ``per_pair_validate_scope`` on every one.

The replaced fast paths live on here as well, as references for the
ones that took their place: ``max_share_ho`` as the composition of its
public steps (these share the chain loop and the refinement with the
array route, and each has its own oracle here), bisimilarity by
refining the disjoint union, the name-keyed delimiter insertion and
erasure, the name-keyed translator, whose resolver keeps free binders as sets
of binder ids, which finds free variables and live bindings with the
walks that one worklist analysis replaced, and emits, infers and
checks on its own, prefix inference
followed by a full validation pass, the eager and back-link checks with
one search per word through every deeper region, the per-character
term tokenizer and vertex-name test, the term parser that scans
each letrec binding body before parsing it, the generated dataclass
comparison, hash and repr of the terms and of the graph and report
classes, and the graph constructor
and document parser that check and resolve on vertex names, where the
library indexes the names once and works on ids.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field, make_dataclass
from itertools import product
from typing import Iterable, Mapping, NamedTuple

from lamgraph import (
    ArityMismatch,
    DanglingSuccessor,
    DelimitedGraph,
    DomainMismatch,
    ForbiddenLabel,
    FormatError,
    GraphDocument,
    GraphError,
    Label,
    NotEagerScope,
    Partition,
    Path,
    PrefixedGraph,
    ScopedGraph,
    SignatureVariant,
    Term,
    TermGraph,
    UnreachableVertex,
    ValidationReport,
    VariantMismatch,
    Violation,
    build,
    build_pruned,
    collapse,
    insert_delimiters,
    is_fully_back_linked,
    num_delimiters,
    prefix_to_scope,
    scope_to_prefix,
    strip_delimiters,
    validate_scope,
)
from lamgraph.core import _predecessors
from lamgraph.delimited import _failure, _non_eager_reason, _non_eager_vertex, validate_prefix_fo
from lamgraph.scoped import PrefixFn, ScopeFn, normalize_prefix_fn, normalize_scope_fn
from lamgraph.sharing import _refine
from lamgraph.terms import (
    Abs,
    App,
    DuplicateBinding,
    Letrec,
    TermSyntaxError,
    UnboundVariable,
    Var,
)
from lamgraph.textfmt import RESERVED_NAMES
from lamgraph.textfmt import _LABELS as _TEXT_LABELS
from lamgraph.translate import DegenerateBinding, InternalValidationFailure


def all_partitions(items: list) -> list[list[list]]:
    """Every partition of ``items`` into nonempty blocks."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    result = []
    for smaller in all_partitions(rest):
        for i in range(len(smaller)):
            result.append(smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :])
        result.append([[first]] + smaller)
    return result


def is_compatible_partition(g: TermGraph, blocks: list[list[int]]) -> bool:
    block_of = {}
    for i, block in enumerate(blocks):
        for v in block:
            block_of[v] = i
    for block in blocks:
        pivot = block[0]
        for v in block[1:]:
            if g.labels[v] is not g.labels[pivot]:
                return False
            for k in range(len(g.args[v])):
                if block_of[g.args[v][k]] != block_of[g.args[pivot][k]]:
                    return False
    return True


def brute_coarsest_partition(g: TermGraph) -> frozenset[frozenset[int]]:
    """Coarsest label/successor-compatible partition, by full enumeration.

    Asserts the minimum is unique, as the lattice structure promises.
    """
    candidates = [
        p for p in all_partitions(list(g.vertices())) if is_compatible_partition(g, p)
    ]
    best = min(len(p) for p in candidates)
    minimal = [p for p in candidates if len(p) == best]
    assert len(minimal) == 1, "coarsest compatible partition is not unique"
    return frozenset(frozenset(b) for b in minimal[0])


def signature_refinement_partition(g: TermGraph) -> Partition:
    """Coarsest compatible partition by naive signature refinement.

    Each round splits blocks by (block, successor blocks) and renumbers
    by first visit in a depth-first walk from the root, lowest edge index
    first, until the block count stops growing: one O(n) round per
    level, so quadratic on chains, but simple enough to trust.
    """

    def renumber(keys: dict) -> dict[int, int]:
        order: dict = {}
        seen = set()
        stack = [g.root]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            if keys[v] not in order:
                order[keys[v]] = len(order)
            stack.extend(reversed(g.args[v]))
        return {v: order[keys[v]] for v in g.vertices()}

    block = renumber({v: g.labels[v] for v in g.vertices()})
    while True:
        sig = {
            v: (block[v], tuple(block[w] for w in g.args[v])) for v in g.vertices()
        }
        refined = renumber(sig)
        done = len(set(refined.values())) == len(set(block.values()))
        block = refined
        if done:
            break
    return Partition(
        block=tuple(block[v] for v in g.vertices()),
        block_count=len(set(block.values())),
        root_block=block[g.root],
    )


def per_vertex_fully_back_linked(g: DelimitedGraph) -> bool:
    """True iff the last abstraction of every nonempty prefix is reachable.

    One forward search per vertex; reachability is plain directed
    reachability, back-link edges included.
    """

    def reachable_from(graph: TermGraph, v: int) -> set[int]:
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in graph.args[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    for w, word in g.prefixes.items():
        if word and word[-1] not in reachable_from(g.graph, w):
            return False
    return True


def per_vertex_eager_scope(g: DelimitedGraph, strict: bool = False) -> bool:
    """Eager-scope check by one forward search per vertex.

    For each vertex w whose prefix ends with abstraction v there must be
    a path from w to a variable vertex back-linking to v, moving only
    through vertices whose prefixes extend w's.  Delimiter vertices are
    exempt as path sources unless ``strict``.
    """
    if g.graph.variant.var_arity != 1:
        raise VariantMismatch("eager-scope is defined only with variable back-links")
    graph = g.graph
    for w, word in g.prefixes.items():
        if not word:
            continue
        if graph.labels[w] is Label.DEL and not strict:
            continue
        if not per_vertex_eager_at(g, w):
            return False
    return True


def per_vertex_eager_at(g: DelimitedGraph, w: int) -> bool:
    """Does w reach an occurrence of its innermost binder inside its scope?"""
    graph, prefixes = g.graph, g.prefixes
    base = prefixes[w]
    v = base[-1]
    seen = {w}
    stack = [w]
    while stack:
        u = stack.pop()
        if graph.labels[u] is Label.VAR and graph.args[u] and graph.args[u][0] == v:
            return True
        for t in graph.args[u]:
            if t not in seen and prefixes[t][: len(base)] == base:
                seen.add(t)
                stack.append(t)
    return False


def _per_word_groups(g: DelimitedGraph) -> dict[tuple[int, ...], list[int]]:
    groups: dict[tuple[int, ...], list[int]] = {}
    for w in range(len(g.prefixes)):
        word = g.prefixes[w]
        if word:
            groups.setdefault(word, []).append(w)
    return groups


def _per_word_reach_back(
    preds: list[list[int]], depth: list[int], floor: int, sources: list[int]
) -> set[int]:
    """Every vertex with a path to a source through vertices whose words
    have at least ``floor`` entries."""
    seen = set(sources)
    stack = list(seen)
    while stack:
        u = stack.pop()
        for p in preds[u]:
            if p not in seen and depth[p] >= floor:
                seen.add(p)
                stack.append(p)
    return seen


def _per_word_setup(g: DelimitedGraph) -> tuple[list[list[int]], list[int]]:
    preds: list[list[int]] = [[] for _ in g.graph.vertices()]
    for u, succ in enumerate(g.graph.args):
        for t in succ:
            preds[t].append(u)
    return preds, [len(g.prefixes[u]) for u in g.graph.vertices()]


def per_word_fully_back_linked(g: DelimitedGraph) -> bool:
    """``is_fully_back_linked`` by one backward search per distinct word
    through every vertex of the word's region, deeper regions included,
    and a whole-graph search for a group left unreached."""
    preds, depth = _per_word_setup(g)
    for word, members in _per_word_groups(g).items():
        v = word[-1]
        entries = [p for p in preds[v] if g.prefixes[p] == word]
        reached = _per_word_reach_back(preds, depth, len(word), entries)
        if any(w not in reached for w in members):
            reached = _per_word_reach_back(preds, depth, 0, [v])
            if any(w not in reached for w in members):
                return False
    return True


def per_word_non_eager_vertex(g: DelimitedGraph, strict: bool = False) -> int | None:
    """``_non_eager_vertex`` by one backward search per distinct word
    through every vertex of the word's region, deeper regions included.
    Words are taken in the order of their smallest vertex, and vertices
    in ascending id order."""
    if g.graph.variant.var_arity != 1:
        raise VariantMismatch("eager-scope is defined only with variable back-links")
    labels = g.graph.labels
    preds, depth = _per_word_setup(g)
    for word, members in _per_word_groups(g).items():
        uses = [u for u in members if labels[u] is Label.VAR]
        reached = _per_word_reach_back(preds, depth, len(word), uses)
        for w in members:
            if w not in reached and (strict or labels[w] is not Label.DEL):
                return w
    return None


def stepwise_max_share_ho(h: ScopedGraph) -> ScopedGraph:
    """``max_share_ho`` as the composition of public steps it was before
    it ran on arrays: to prefixes, to the delimited form, the eager
    check (here by one search per word), the collapse, the quotient's
    inferred words, and back through ``strip_delimiters`` and
    ``prefix_to_scope``."""
    g = h.graph
    if g.variant.var_arity != 1:
        raise VariantMismatch("maximal sharing needs variable back-links and no delimiters")
    delimited = insert_delimiters(scope_to_prefix(h), 2)
    w = per_word_non_eager_vertex(delimited)
    if w is not None:
        names = delimited.graph.names
        binder = names[delimited.prefixes[w][-1]]
        raise NotEagerScope(
            "the delimited form of the input is not eager-scope: "
            f"{names[w]} reaches no occurrence of {binder} within its scope",
            names[w],
        )
    quotient = DelimitedGraph.from_graph(collapse(delimited.graph)[0])
    return prefix_to_scope(strip_delimiters(quotient))


def all_homomorphisms(g1: TermGraph, g2: TermGraph) -> list[dict[int, int]]:
    """Every root/label/argument-preserving map, by exhaustive search.

    Candidates are narrowed per vertex by label (and to the root for the
    root) before the product enumeration; the conditions checked on each
    candidate map are still the full ones.
    """
    vertices = list(g1.vertices())
    candidates = [
        [g2.root]
        if v == g1.root
        else [w for w in g2.vertices() if g2.labels[w] is g1.labels[v]]
        for v in vertices
    ]
    found = []
    for values in product(*candidates):
        h = dict(zip(vertices, values))
        ok = all(
            g1.labels[v] is g2.labels[h[v]]
            and tuple(h[w] for w in g1.args[v]) == g2.args[h[v]]
            and (v != g1.root or h[v] == g2.root)
            for v in vertices
        )
        if ok:
            found.append(h)
    return found


def relational_bisimilar(g1: TermGraph, g2: TermGraph) -> bool:
    """Greatest-fixpoint bisimulation on the product of the vertex sets."""
    rel = {
        (u, v)
        for u in g1.vertices()
        for v in g2.vertices()
        if g1.labels[u] is g2.labels[v]
    }
    changed = True
    while changed:
        changed = False
        for u, v in list(rel):
            if any(
                (g1.args[u][k], g2.args[v][k]) not in rel
                for k in range(len(g1.args[u]))
            ):
                rel.discard((u, v))
                changed = True
    return (g1.root, g2.root) in rel


def refinement_bisimilar(g1: TermGraph, g2: TermGraph) -> bool:
    """Bisimilarity by refining the disjoint union: do the roots share a
    block of its coarsest stable partition?  g2's ids are offset by the
    vertex count of g1."""
    if g1.variant != g2.variant:
        raise VariantMismatch(f"{g1.variant} vs {g2.variant}")
    n = g1.vertex_count
    args = g1.args + tuple(tuple(n + w for w in out) for out in g2.args)
    block = _refine(g1.labels + g2.labels, _predecessors(args))[0]
    return block[g1.root] == block[n + g2.root]


def lex_min_simple_path(g: TermGraph, v: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The lexicographically least simple root path to v, by enumeration."""
    paths = simple_root_paths(g, v)
    best = min(paths, key=lambda p: p.indices)
    return best.vertices, best.indices


def per_pair_validate_scope(g: TermGraph, sc: Mapping) -> ValidationReport:
    """The per-pair scope validator: every test against every abstraction.

    Conditions: the root lies in no scope but its own; every abstraction
    is in its own scope; scopes nest; scopes are closed under incoming
    edges; every variable lies in some scope; with variable back-links,
    a variable and its abstraction share exactly the same scopes.
    """
    if g.variant.del_arity is not None:
        raise VariantMismatch("scope functions live on delimiter-free graphs")
    sc = normalize_scope_fn(g, sc)
    bad: list[Violation] = []
    abs_vertices = g.vertices_labeled(Label.ABS)

    def scope_minus(v):
        return sc[v] - {v}

    for v in abs_vertices:
        if g.root in scope_minus(v):
            bad.append(Violation("root", (v,)))
        if v not in sc[v]:
            bad.append(Violation("self", (v,)))
    for v0 in abs_vertices:
        for v1 in abs_vertices:
            if v1 in scope_minus(v0) and not sc[v1] <= scope_minus(v0):
                bad.append(Violation("nest", (v0, v1)))
    for w, k, wk in g.edges():
        for v in abs_vertices:
            if wk in scope_minus(v) and w not in sc[v]:
                bad.append(Violation("closed", (v, w, wk)))
    for w in g.vertices_labeled(Label.VAR):
        if not any(w in scope_minus(v) for v in abs_vertices):
            bad.append(Violation("scope0", (w,)))
    if g.variant.var_arity == 1:
        for w in g.vertices_labeled(Label.VAR):
            w0 = g.args[w][0]
            if g.labels[w0] is not Label.ABS:
                bad.append(Violation("scope1", (w, w0)))
                continue
            for v in abs_vertices:
                if (w in sc[v]) != (w0 in sc[v]):
                    bad.append(Violation("scope1", (w, w0, v)))
    return ValidationReport(tuple(bad))


def per_abstraction_binders(h: ScopedGraph, w: int | str) -> list[int]:
    """Abstractions whose scope contains w, outermost first, by a scan of
    every abstraction.

    The scopes of the binders of any vertex form a strict inclusion
    chain, so sorting by decreasing scope size linearizes them.
    """
    w = h.graph.resolve(w)
    result = [v for v in h.graph.vertices_labeled(Label.ABS) if w in h.scopes[v]]
    result.sort(key=lambda v: len(h.scopes[v]), reverse=True)
    return result


def per_vertex_scope_to_prefix(h: ScopedGraph) -> PrefixedGraph:
    """Derive the prefix function: each vertex's binders, outermost first.

    The carrier is unchanged (the very same graph object).
    """
    prefixes = {
        w: tuple(v for v in per_abstraction_binders(h, w) if v != w)
        for w in h.graph.vertices()
    }
    return PrefixedGraph.checked(h.graph, prefixes)


def per_abstraction_prefix_to_scope(a: PrefixedGraph) -> ScopedGraph:
    """Derive the scope function: v's scope is v plus everyone listing v."""
    scopes = {
        v: frozenset(w for w, word in a.prefixes.items() if v in word) | {v}
        for v in a.graph.vertices_labeled(Label.ABS)
    }
    return ScopedGraph.checked(a.graph, scopes)


def check_scope_nesting(g: TermGraph, sc: ScopeFn) -> ValidationReport:
    """Redundant diagnostic over validate_scope.

    Confirms two derived facts: intersecting scopes nest, and every
    access path of a vertex in a scope visits that scope's abstraction.
    Checked by exhaustive simple-path enumeration; graphs are small.
    Takes the graph and an id-keyed scope function, which need not be
    valid.
    """
    bad = []
    abs_vertices = g.vertices_labeled(Label.ABS)
    for v1 in abs_vertices:
        for v2 in abs_vertices:
            if v1 < v2 and sc[v1] & sc[v2]:
                if not (
                    sc[v1] <= sc[v2] - {v2}
                    or sc[v2] <= sc[v1] - {v1}
                ):
                    bad.append(Violation("overlap-without-nesting", (v1, v2)))
    for v in abs_vertices:
        for w in sc[v]:
            if w == v:
                continue
            for path in simple_root_paths(g, w):
                if v not in path.vertices:
                    bad.append(Violation("access-path-misses-binder", (v, w)))
                    break
    return ValidationReport(tuple(bad))


def admits_scoping(g: TermGraph) -> bool:
    """Does a delimiter-free graph admit any valid scope function?

    Equivalently, a correct abstraction-prefix function under the relaxed
    (word-prefix) edge conditions.  Diagnostic only: decided by pruned
    exhaustive search, meant for small graphs; the delimited classes have
    the efficient membership test.
    """
    return next(iter(all_scope_functions(g)), None) is not None


def all_scope_functions(g: TermGraph) -> Iterable[ScopeFn]:
    """Enumerate every valid scope function of a small graph (oracle use).

    Candidate scopes are prefiltered per abstraction by the conditions
    that mention a single scope (root membership and edge closedness);
    only their combinations go through the full validator.  Every
    combination also checks ``validate_scope`` against
    ``per_pair_validate_scope``, violation order included.
    """
    abs_vertices = g.vertices_labeled(Label.ABS)
    if not abs_vertices:
        empty: ScopeFn = {}
        if _agreed_scope_report(g, empty).passed:
            yield empty
        return
    universe = list(g.vertices())
    edges = list(g.edges())
    per_abs = []
    for v in abs_vertices:
        options = []
        rest = [u for u in universe if u != v]
        for mask in range(1 << len(rest)):
            members = frozenset([v] + [u for i, u in enumerate(rest) if mask >> i & 1])
            if g.root in members - {v}:
                continue
            if any(wk in members - {v} and w not in members for w, _, wk in edges):
                continue
            options.append(members)
        per_abs.append(options)
    for combo in product(*per_abs):
        sc = dict(zip(abs_vertices, combo))
        if _agreed_scope_report(g, sc).passed:
            yield sc


def _agreed_scope_report(g: TermGraph, sc: ScopeFn) -> ValidationReport:
    report = validate_scope(g, sc)
    assert report == per_pair_validate_scope(g, sc), (g, sc)
    return report


def simple_root_paths(g: TermGraph, v: int) -> list[Path]:
    """Every access path of v, by exhaustive backtracking (small graphs)."""
    v = g.resolve(v)
    out: list[Path] = []

    def walk(u, verts, idxs):
        if u == v:
            out.append(Path(tuple(verts), tuple(idxs)))
            return
        for k, w in enumerate(g.args[u]):
            if w not in verts:
                verts.append(w)
                idxs.append(k)
                walk(w, verts, idxs)
                verts.pop()
                idxs.pop()

    walk(g.root, [g.root], [])
    return out


def name_keyed_insert_delimiters(a: PrefixedGraph, j: int = 2) -> DelimitedGraph:
    """Interpose delimiter chains wherever the prefix shrinks along an edge.

    For an edge whose source word (plus the source itself on abstraction
    edges) exceeds the target's prefix by n entries, a descending chain
    of n fresh delimiter vertices is inserted, one per dropped word;
    with j=2 each of them back-links to the abstraction it pops.  Chains
    are never shared between edges; collapse can merge them later.
    """
    if j not in (1, 2):
        raise ValueError("delimiter arity must be 1 or 2")
    g = a.graph
    out_variant = SignatureVariant(g.variant.var_arity, j)
    labels: dict[str, Label] = {}
    succ: dict[str, list[str]] = {}
    taken = set(g.names)

    def fresh(base: str) -> str:
        name = base
        n = 1
        while name in taken:
            n += 1
            name = f"{base}.{n}"
        taken.add(name)
        return name

    for v in g.vertices():
        labels[g.names[v]] = g.labels[v]
        succ[g.names[v]] = []

    for w, k, wk in g.edges():
        n = num_delimiters(a, w, k)
        if n == 0:
            succ[g.names[w]].append(g.names[wk])
            continue
        base_word = a.prefixes[w] + ((w,) if g.labels[w] is Label.ABS else ())
        lower = len(a.prefixes[wk])
        chain_names = [fresh(f"{g.names[w]}.{k}.s") for _ in range(n)]
        # chain_names[0] sits at the longest word (level len(base_word)),
        # the last one at level lower+1, feeding the edge's target.
        succ[g.names[w]].append(chain_names[0])
        for pos, name in enumerate(chain_names):
            level = len(base_word) - pos
            labels[name] = Label.DEL
            next_name = chain_names[pos + 1] if pos + 1 < n else g.names[wk]
            succ[name] = [next_name]
            if j == 2:
                succ[name].append(g.names[base_word[level - 1]])

    carrier = build(out_variant, labels, succ, g.names[g.root])
    result = DelimitedGraph.from_graph(carrier)
    # The construction fixes each vertex's word; inference must agree.
    for v in g.vertices():
        expected = tuple(carrier.id_of(g.names[x]) for x in a.prefixes[v])
        assert result.prefixes[carrier.id_of(g.names[v])] == expected
    return result


def name_keyed_strip_delimiters(g: DelimitedGraph) -> PrefixedGraph:
    """Erase delimiter vertices, rerouting edges through their chains."""
    graph = g.graph
    if graph.variant.del_arity is None:
        raise VariantMismatch("input must be over a signature with delimiters")

    def skip(u: int) -> int:
        while graph.labels[u] is Label.DEL:
            u = graph.args[u][0]
        return u

    kept = [v for v in graph.vertices() if graph.labels[v] is not Label.DEL]
    labels = {graph.names[v]: graph.labels[v] for v in kept}
    succ = {
        graph.names[v]: [graph.names[skip(w)] for w in graph.args[v]] for v in kept
    }
    out_variant = SignatureVariant(graph.variant.var_arity, None)
    carrier = build(out_variant, labels, succ, graph.names[skip(graph.root)])
    prefixes = {
        carrier.id_of(graph.names[v]): tuple(
            carrier.id_of(graph.names[x]) for x in g.prefixes[v]
        )
        for v in kept
    }
    return PrefixedGraph.checked(carrier, prefixes)


# The resolved terms of the name-keyed translator.  Each node holds its
# free binders as a set of binder ids, where the library keeps a mask
# over lambda depth; a letrec also gets the set of its live bindings.


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
    fun: _RNode
    arg: _RNode


@dataclass
class _RAbs(_RNode):
    binder: int
    name: str
    body: _RNode


@dataclass
class _RLetrec(_RNode):
    bindings: list[tuple[int, str, _RNode]]
    body: _RNode


class _Resolver:
    """Binder ids, one per abstraction and per letrec binding, counted from
    1 in pre-order, a letrec's bindings before their terms.  Letrecs in
    binding position splice into their group, as the library's do."""

    def __init__(self):
        self.counter = 0
        self.binding_term: dict[int, _RNode] = {}

    def fresh(self) -> int:
        self.counter += 1
        return self.counter

    def resolve(self, t: Term, env: dict[str, list[tuple[str, int]]]) -> _RNode:
        if isinstance(t, Var):
            if not env.get(t.name):
                raise UnboundVariable(t.name, -1)
            kind, ident = env[t.name][-1]
            return _RVar(ident, t.name) if kind == "lam" else _RRef(ident)
        if isinstance(t, App):
            return _RApp(self.resolve(t.fun, env), self.resolve(t.arg, env))
        if isinstance(t, Abs):
            b = self.fresh()
            env.setdefault(t.name, []).append(("lam", b))
            node = _RAbs(b, t.name, self.resolve(t.body, env))
            env[t.name].pop()
            return node
        if isinstance(t, Letrec):
            ids = [self.fresh() for _ in t.bindings]
            for (name, _), ident in zip(t.bindings, ids):
                binders = env.setdefault(name, [])
                if binders and binders[-1][1] >= ids[0]:
                    raise DuplicateBinding(name, -1)
                binders.append(("rec", ident))
            bindings: list[tuple[int, str, _RNode]] = []
            for (name, sub), ident in zip(t.bindings, ids):
                resolved = self.resolve(sub, env)
                while isinstance(resolved, _RLetrec):
                    bindings.extend(resolved.bindings)
                    resolved = resolved.body
                bindings.append((ident, name, resolved))
                self.binding_term[ident] = resolved
            node = _RLetrec(bindings, self.resolve(t.body, env))
            for name, _ in t.bindings:
                env[name].pop()
            return node
        raise TypeError(f"not a term: {t!r}")


def _fixpoint_compute_fv(root: _RNode, binding_term: dict[int, _RNode]) -> None:
    """Annotate every node with its free lambda binders, resolving letrec
    references by a least fixpoint over the binding group.

    Re-walks every binding until no set changes: O(bindings^2) walks on
    a chain whose bindings depend on each other in reverse order.
    """
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


class _NameKeyedBuilder:
    def __init__(self):
        self.labels: dict[str, Label] = {}
        self.succ: dict[str, list[str] | None] = {}
        self.expected_prefix: dict[str, tuple[str, ...]] = {}
        self.counts: dict[str, int] = {}

    def fresh_name(self, base: str) -> str:
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


class _NameKeyedTranslator:
    def __init__(self, rng: random.Random | None):
        self.b = _NameKeyedBuilder()
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


def name_keyed_term_to_graph(t: Term, rng: random.Random | None = None) -> DelimitedGraph:
    """Translate a closed term to a valid eager-scope delimited graph
    over the signature with both kinds of back-links, keyed by names.

    The library's translator before it emitted on ids: it builds through
    ``build_pruned``, infers every prefix again with ``from_graph``,
    compares the words name by name, and runs the eager and full
    back-link checks.  The free-variable sets and live bindings come from
    the fixpoint and the liveness walk above, so the library's analysis
    is checked against them as well.

    With ``rng`` the translation keeps some closable scopes open longer
    (still valid, generally not eager).  The library has no such mode,
    so the tests draw every lazy translation from here.
    """
    resolver = _Resolver()
    rnode = resolver.resolve(t, {})
    _fixpoint_compute_fv(rnode, resolver.binding_term)
    _mark_live(rnode)
    if rnode.fv:
        raise ValueError("term is not closed")
    tr = _NameKeyedTranslator(rng)
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
                + _non_eager_reason(result.graph.names, result._inner, w)
            )
        if not is_fully_back_linked(result):
            raise InternalValidationFailure("eager translation is not fully back-linked")
    return result


def revalidating_infer_prefix(
    g: TermGraph, rng: random.Random | None = None
) -> tuple[PrefixFn | None, ValidationReport | None]:
    """``infer_prefix`` as it was: the same propagation, then the strict
    validator over the whole result."""
    if g.variant.del_arity is None:
        raise VariantMismatch("prefix inference needs a signature with delimiters")
    prefixes: PrefixFn = {g.root: ()}
    worklist = [g.root]
    while worklist:
        if rng is None:
            w = worklist.pop()
        else:
            w = worklist.pop(rng.randrange(len(worklist)))
        pw = prefixes[w]
        lab = g.labels[w]
        forced: list[tuple[int, tuple[int, ...]]] = []
        if lab is Label.ABS:
            forced.append((g.args[w][0], pw + (w,)))
        elif lab is Label.APP:
            forced.append((g.args[w][0], pw))
            forced.append((g.args[w][1], pw))
        elif lab is Label.VAR and g.variant.var_arity == 1:
            if not pw:
                return _failure("var0", w)
            if g.args[w][0] != pw[-1]:
                return _failure("var1", w, g.args[w][0])
            forced.append((g.args[w][0], pw[:-1]))
        elif lab is Label.DEL:
            if not pw:
                return _failure("delim-pop", w, g.args[w][0])
            forced.append((g.args[w][0], pw[:-1]))
            if g.variant.del_arity == 2:
                if g.args[w][1] != pw[-1]:
                    return _failure("delim-backlink", w, g.args[w][1])
                forced.append((g.args[w][1], pw[:-1]))
        for target, value in forced:
            if target in prefixes:
                if prefixes[target] != value:
                    return _failure("prefix-conflict", w, target)
            else:
                prefixes[target] = value
                worklist.append(target)
    report = validate_prefix_fo(g, prefixes)
    if not report.passed:
        return None, report
    return prefixes, None


_IDENT = re.compile(r"[a-zA-Z_][a-zA-Z0-9_']*")


class _Token(NamedTuple):
    kind: str  # 'ident', 'lambda', 'dot', 'lpar', 'rpar', 'eq', 'semi', 'letrec', 'in', 'eof'
    text: str
    pos: int


def per_character_tokenize(text: str) -> list[_Token]:
    """The term tokenizer as a per-character loop."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "\\":
            tokens.append(_Token("lambda", c, i))
            i += 1
        elif c == ".":
            tokens.append(_Token("dot", c, i))
            i += 1
        elif c == "(":
            tokens.append(_Token("lpar", c, i))
            i += 1
        elif c == ")":
            tokens.append(_Token("rpar", c, i))
            i += 1
        elif c == "=":
            tokens.append(_Token("eq", c, i))
            i += 1
        elif c == ";":
            tokens.append(_Token("semi", c, i))
            i += 1
        else:
            m = _IDENT.match(text, i)
            if not m:
                raise TermSyntaxError(f"unexpected character {c!r}", i)
            word = m.group()
            kind = word if word in ("letrec", "in") else "ident"
            tokens.append(_Token(kind, word, i))
            i = m.end()
    tokens.append(_Token("eof", "", n))
    return tokens


def per_character_writable(name: str) -> bool:
    """The document format's vertex-name test, one character at a time."""
    return (
        name not in RESERVED_NAMES
        and not any(map(str.isspace, name))
        and not any(map(name.__contains__, "#{}"))
        and bool(name)
    )


class _TwoPassParser:
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
                raise DuplicateBinding(name_tok.text, name_tok.pos)
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


def two_pass_parse_term(text: str) -> Term:
    """The term parser that scans each letrec binding body, then parses it again."""
    parser = _TwoPassParser(per_character_tokenize(text))
    result = parser.term()
    parser.take("eof")
    return result


class _RecursiveParser:
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


def recursive_parse_term(text: str) -> Term:
    """The one-pass term parser as a recursive descent, one Python frame
    per parenthesis, lambda or letrec."""
    parser = _RecursiveParser(per_character_tokenize(text))
    result = parser.term()
    parser.take("eof")
    return result


def recursive_format_term(t: Term) -> str:
    """``format_term`` as a recursive walk, one Python frame per term level."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Abs):
        return f"\\{t.name}. {recursive_format_term(t.body)}"
    if isinstance(t, App):
        fun = recursive_format_term(t.fun)
        arg = recursive_format_term(t.arg)
        if isinstance(t.fun, (Abs, Letrec)):
            fun = f"({fun})"
        if isinstance(t.arg, (App, Abs, Letrec)):
            arg = f"({arg})"
        return f"{fun} {arg}"
    if isinstance(t, Letrec):
        binds = "; ".join(f"{n} = {recursive_format_term(b)}" for n, b in t.bindings)
        return f"letrec {binds} in {recursive_format_term(t.body)}"
    raise TypeError(f"not a term: {t!r}")


def _name_keyed_reachable(root, succ: Mapping) -> set:
    seen = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in succ[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def name_keyed_build_common(variant, labels, successors, root):
    """The constructor that ``build`` and ``build_pruned`` shared before
    ``_build_ids``: checks and reachability on the maps' own keys."""
    keys = set(labels)
    if keys != set(successors) or root not in keys:
        raise DomainMismatch("label and successor maps must share a key set containing the root")
    for v in labels:
        lab = labels[v]
        if not variant.allows(lab):
            raise ForbiddenLabel(v)
        if len(successors[v]) != variant.arity(lab):
            raise ArityMismatch(v)
        for k, w in enumerate(successors[v]):
            if w not in keys:
                raise DanglingSuccessor(v, k)
    reachable = _name_keyed_reachable(root, successors)
    order = [v for v in labels if v in reachable]
    pruned = tuple(v for v in labels if v not in reachable)
    index = {v: i for i, v in enumerate(order)}
    g = TermGraph(
        variant=variant,
        labels=tuple(labels[v] for v in order),
        args=tuple(tuple(index[w] for w in successors[v]) for v in order),
        root=index[root],
        names=tuple(str(v) for v in order),
    )
    return g, pruned


def name_keyed_build(variant, labels, successors, root) -> TermGraph:
    """``build`` on ``name_keyed_build_common``."""
    g, pruned = name_keyed_build_common(variant, labels, successors, root)
    if pruned:
        raise UnreachableVertex(pruned)
    return g


def name_keyed_parse_graph(text: str) -> GraphDocument:
    """The graph-document parser that builds name-keyed maps, hands them
    to ``name_keyed_build``, and resolves the annotation lines by name."""
    sig: SignatureVariant | None = None
    root: str | None = None
    labels: dict[str, Label] = {}
    succ: dict[str, list[str]] = {}
    prefix_lines: list[tuple[int, str, list[str]]] = []
    scope_lines: list[tuple[int, str, list[str]]] = []
    declared_at: dict[str, int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # Braces need not be whitespace-separated: "{b v}" parses too.
        fields = line.replace("{", " { ").replace("}", " } ").split()
        head = fields[0]
        if head == "sig":
            if sig is not None:
                raise FormatError(line_no, "duplicate sig line")
            if len(fields) not in (2, 3) or not all(f.isdigit() for f in fields[1:]):
                raise FormatError(line_no, "expected 'sig i' or 'sig i j'")
            try:
                sig = SignatureVariant(
                    int(fields[1]), int(fields[2]) if len(fields) == 3 else None
                )
            except ValueError as exc:
                raise FormatError(line_no, str(exc)) from None
        elif head == "root":
            if root is not None:
                raise FormatError(line_no, "duplicate root line")
            if len(fields) != 2:
                raise FormatError(line_no, "expected 'root name'")
            root = fields[1]
        elif head == "prefix":
            if len(fields) < 3 or fields[2] != "=":
                raise FormatError(line_no, "expected 'prefix v = entries...'")
            prefix_lines.append((line_no, fields[1], fields[3:]))
        elif head == "scope":
            if len(fields) < 5 or fields[2] != "=" or fields[3] != "{" or fields[-1] != "}":
                raise FormatError(line_no, "expected 'scope v = { members... }'")
            scope_lines.append((line_no, fields[1], fields[4:-1]))
        else:
            if len(fields) < 2:
                raise FormatError(line_no, "expected 'name label successors...'")
            name, label_token, *successors = fields
            if label_token not in _TEXT_LABELS:
                raise FormatError(line_no, f"unknown label {label_token!r}")
            if name in labels:
                raise FormatError(line_no, f"duplicate vertex {name!r}")
            labels[name] = _TEXT_LABELS[label_token]
            succ[name] = successors
            declared_at[name] = line_no

    if sig is None:
        raise FormatError(1, "missing sig line")
    if root is None:
        raise FormatError(1, "missing root line")
    if root not in labels:
        raise FormatError(1, f"root {root!r} is not declared")
    try:
        graph = name_keyed_build(sig, labels, succ, root)
    except GraphError as exc:
        vertex = getattr(exc, "vertex", None)
        line_no = declared_at.get(vertex, 1)
        raise FormatError(line_no, str(exc)) from exc

    prefixes = None
    if prefix_lines:
        raw_p: dict[str, tuple[str, ...]] = {}
        for line_no, name, entries in prefix_lines:
            if name not in labels or any(e not in labels for e in entries):
                raise FormatError(line_no, "prefix line mentions unknown vertex")
            if name in raw_p:
                raise FormatError(line_no, f"duplicate prefix line for {name!r}")
            raw_p[name] = tuple(entries)
        for name in labels:  # omitted lines mean the empty word
            raw_p.setdefault(name, ())
        prefixes = normalize_prefix_fn(graph, raw_p)
    scopes = None
    if scope_lines:
        raw_s: dict[str, frozenset[str]] = {}
        for line_no, name, members in scope_lines:
            if name not in labels or any(m not in labels for m in members):
                raise FormatError(line_no, "scope line mentions unknown vertex")
            if name in raw_s:
                raise FormatError(line_no, f"duplicate scope line for {name!r}")
            raw_s[name] = frozenset(members)
        try:
            scopes = normalize_scope_fn(graph, raw_s)
        except GraphError as exc:
            raise FormatError(scope_lines[0][0], str(exc)) from exc
    return GraphDocument(graph, prefixes, scopes)


# The graph, report and term classes as the frozen dataclasses they were
# declared as: their fields in order, with their defaults, and the
# scoping maps outside the hash.  Each keeps its own ``__str__``, and
# ``TermGraph`` its own ``__repr__``, with the ``vertices`` it reads, as a
# dataclass would.  The term references have the generated ==, hash and
# repr, which recurse once per term level; ``Term`` keeps its own stacks.
_DATACLASS_RECORDS = {
    cls: make_dataclass(
        cls.__name__,
        spec,
        frozen=True,
        namespace={name: vars(cls)[name] for name in ("__str__", "__repr__", "vertices") if name in vars(cls)},
    )
    for cls, spec in {
        SignatureVariant: ["var_arity", ("del_arity", int, field(default=None))],
        Path: ["vertices", "indices"],
        TermGraph: ["variant", "labels", "args", "root", "names"],
        Violation: ["condition", "witnesses"],
        ValidationReport: [("violations", tuple, field(default=()))],
        ScopedGraph: ["graph", ("scopes", dict, field(hash=False))],
        PrefixedGraph: ["graph", ("prefixes", dict, field(hash=False))],
        DelimitedGraph: ["graph", ("prefixes", dict, field(hash=False))],
        GraphDocument: ["graph", ("prefixes", dict, field(default=None)), ("scopes", dict, field(default=None))],
        Partition: ["block", "block_count", "root_block"],
        Var: ["name"],
        App: ["fun", "arg"],
        Abs: ["name", "body"],
        Letrec: ["bindings", "body"],
    }.items()
}


def dataclass_record(x):
    """``x`` rebuilt from ``_DATACLASS_RECORDS``, the records and terms
    among its fields and in the tuples among them recursively."""
    ref = _DATACLASS_RECORDS.get(type(x))
    if ref is not None:
        return ref(*(dataclass_record(getattr(x, name)) for name in ref.__dataclass_fields__))
    return tuple(map(dataclass_record, x)) if type(x) is tuple else x
