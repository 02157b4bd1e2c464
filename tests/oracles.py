"""Independent brute-force oracles the tests check the library against.

Everything here prefers exhaustive enumeration over cleverness and never
calls the code paths it is used to verify.
"""

from __future__ import annotations

from itertools import product

from lamgraph import DelimitedGraph, Label, Partition, TermGraph, VariantMismatch


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


def lex_min_simple_path(g: TermGraph, v: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The lexicographically least simple root path to v, by enumeration."""
    from lamgraph.core import simple_root_paths

    paths = simple_root_paths(g, v)
    best = min(paths, key=lambda p: p.indices)
    return best.vertices, best.indices
