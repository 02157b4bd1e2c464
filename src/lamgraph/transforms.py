"""Translations between the three graph representations.

Scope functions and abstraction-prefix functions interconvert without
touching the carrier.  Going first-order inserts a chain of delimiter
vertices wherever the prefix word shrinks along an edge; going back
erases delimiter vertices and reroutes edges through them.
"""

from __future__ import annotations

from .core import Label, SignatureVariant, TermGraph, VariantMismatch, build
from .delimited import DelimitedGraph
from .scoped import PrefixedGraph, ScopedGraph, binders


def forget(x: ScopedGraph | PrefixedGraph | DelimitedGraph) -> TermGraph:
    """Drop scope or prefix information, keeping the underlying graph."""
    return x.graph


def scope_to_prefix(h: ScopedGraph) -> PrefixedGraph:
    """Derive the prefix function: each vertex's binders, outermost first.

    The carrier is unchanged (the very same graph object).  The scopes
    are inverted once, so the conversion takes O(n + sum of |sc(v)| +
    A log A) for A abstractions, plus validating the result.
    """
    prefixes = {}
    for w in h.graph.vertices():
        word = binders(h, w)
        if w in word:
            word.remove(w)
        prefixes[w] = tuple(word)
    return PrefixedGraph.checked(h.graph, prefixes)


def prefix_to_scope(a: PrefixedGraph) -> ScopedGraph:
    """Derive the scope function: v's scope is v plus everyone listing v.

    One pass over the prefix words: O(n + sum of |prefix(w)|), plus
    validating the result.
    """
    members = {v: [v] for v in a.graph.vertices_labeled(Label.ABS)}
    for w, word in a.prefixes.items():
        for v in word:
            if v in members:
                members[v].append(w)
    scopes = {v: frozenset(ws) for v, ws in members.items()}
    return ScopedGraph.checked(a.graph, scopes)


def num_delimiters(a: PrefixedGraph, w: int | str, k: int) -> int:
    """How many delimiter vertices the edge w -k-> w' needs when going
    first-order: the prefix length drop, counting the abstraction's own
    push on abstraction edges.  Never negative for valid inputs.
    """
    g = a.graph
    w = g.resolve(w)
    w_succ = g.args[w][k]
    if g.labels[w] is Label.APP:
        return len(a.prefixes[w]) - len(a.prefixes[w_succ])
    if g.labels[w] is Label.ABS:
        return len(a.prefixes[w]) + 1 - len(a.prefixes[w_succ])
    return 0


def insert_delimiters(a: PrefixedGraph, j: int = 2) -> DelimitedGraph:
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


def strip_delimiters(g: DelimitedGraph) -> PrefixedGraph:
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
