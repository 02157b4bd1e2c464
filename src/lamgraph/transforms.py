"""Translations between the three graph representations.

Scope functions and abstraction-prefix functions interconvert without
touching the carrier.  Going first-order inserts a chain of delimiter
vertices wherever the prefix word shrinks along an edge.  One loop,
``_delimit``, makes the chains as labels and successor rows on ids:
``insert_delimiters`` names them and builds with ``delimited._Builder``,
as the term translation does, whose finish step checks each vertex's
innermost binder, and ``sharing.max_share_ho`` refines the rows
directly.  Going back erases delimiter vertices and reroutes edges
through them.

Every input was validated when it was made, and each conversion takes
a valid object to a valid one: scope functions and prefix functions
correspond one to one, inserting delimiters keeps every word, and
erasing them leaves each edge's target word a prefix of its source's.
So each conversion is its derivation alone and makes its result through
``core._trusted``; no validator runs on what it returns.
"""

from __future__ import annotations

from .core import Label, SignatureVariant, TermGraph, _trusted
from .delimited import DelimitedGraph, _Builder
from .scoped import PrefixedGraph, PrefixFn, ScopedGraph


def forget(x: ScopedGraph | PrefixedGraph | DelimitedGraph) -> TermGraph:
    """Drop scope or prefix information, keeping the underlying graph."""
    return x.graph


def scope_to_prefix(h: ScopedGraph) -> PrefixedGraph:
    """Derive the prefix function: each vertex's binders, outermost first.

    The carrier is unchanged (the very same graph object).  The words
    are the scopes' one inversion, ``_binder_lists``, which the
    constructor made when it validated them; the conversion copies them
    in O(n + sum of |sc(v)|).
    """
    labels, ABS = h.graph.labels, Label.ABS
    prefixes = {}
    for w, word in enumerate(h._binder_lists):
        # An abstraction lies in its own scope, not in its own prefix;
        # its scope is the smallest holding it, so it comes last.
        prefixes[w] = tuple(word[:-1]) if labels[w] is ABS else tuple(word)
    return _trusted(PrefixedGraph, graph=h.graph, prefixes=prefixes)


def prefix_to_scope(a: PrefixedGraph) -> ScopedGraph:
    """Derive the scope function: v's scope is v plus everyone listing v.

    One pass over the prefix words: O(n + sum of |prefix(w)|).
    """
    ABS = Label.ABS
    members = {v: [v] for v, lab in enumerate(a.graph.labels) if lab is ABS}
    for w, word in a.prefixes.items():
        for v in word:
            if v in members:
                members[v].append(w)
    scopes = {v: frozenset(ws) for v, ws in members.items()}
    return _trusted(ScopedGraph, graph=a.graph, scopes=scopes)


def num_delimiters(a: PrefixedGraph, w: int | str, k: int) -> int:
    """How many delimiter vertices the edge w -k-> w' needs when going
    first-order: the prefix length drop, counting the abstraction's own
    push on abstraction edges.  Never negative.
    """
    g = a.graph
    w = g._vertex(w)
    w_succ = g.args[w][k]
    if g.labels[w] is Label.APP:
        return len(a.prefixes[w]) - len(a.prefixes[w_succ])
    if g.labels[w] is Label.ABS:
        return len(a.prefixes[w]) + 1 - len(a.prefixes[w_succ])
    return 0


def _delimit(g: TermGraph, p: PrefixFn, j: int) -> tuple[list[Label], list]:
    """The chain loop: labels and successor rows of the delimited form.

    For an edge whose source word (plus the source itself on abstraction
    edges) exceeds the target's prefix by n entries, a descending chain
    of n delimiter vertices is inserted, one per dropped word; with j=2
    each of them back-links to the abstraction it pops.  Chains are
    never shared between edges; collapse can merge them later.

    The input's vertices keep their ids, and the delimiters follow in
    edge order, each chain from the longest word down, so a chain is a
    run of consecutive ids whose last member leads to the edge's target.
    The chain delimiter at level L of its edge's word W back-links to
    W[L-1] and has the word W[:L], by induction down its chain.  Every
    row is a tuple: the input's own for a vertex without a chain.
    O(n + m + D) for D delimiters.
    """
    labels, succ = list(g.labels), list(g.args)
    ABS, APP, DEL = Label.ABS, Label.APP, Label.DEL
    for w, lab in enumerate(g.labels):
        if lab is ABS:
            base_word = p[w] + (w,)
        elif lab is APP:
            base_word = p[w]
        else:
            continue  # variable back-links get no chain
        for k, wk in enumerate(g.args[w]):
            # The edge's drop, as ``num_delimiters`` counts it.
            lower = len(p[wk])
            if len(base_word) <= lower:
                continue
            # Levels run from len(base_word) down to lower + 1; each
            # delimiter feeds the next one, and the last the edge's target.
            d = len(labels)
            succ[w] = succ[w][:k] + (d,) + succ[w][k + 1:]
            for level in range(len(base_word), lower, -1):
                d += 1
                below = d if level > lower + 1 else wk
                labels.append(DEL)
                succ.append((below, base_word[level - 1]) if j == 2 else (below,))
    return labels, succ


def insert_delimiters(a: PrefixedGraph, j: int = 2) -> DelimitedGraph:
    """Interpose delimiter chains wherever the prefix shrinks along an edge.

    The chains are ``_delimit``'s.  A delimiter is named after its edge,
    ``<source>.<k>.s``, with ``.2``, ``.3``, ... appended until the name
    is new, in id order.  Each input vertex keeps its word, and a chain
    delimiter has its edge's word up to the entry it pops; the builder
    gets their last entries and checks them in O(n + m + D) for D
    delimiters.  The names are minted, and the output's words built,
    only where they are first read.
    """
    if j not in (1, 2):
        raise ValueError("delimiter arity must be 1 or 2")
    g, p = a.graph, a.prefixes
    labels, succ = _delimit(g, p, j)
    inner = [word[-1] if word else -1 for word in map(p.__getitem__, g.vertices())]
    b = _Builder(labels, succ, g.names, inner)
    n, ABS = g.vertex_count, Label.ABS
    for w, name in enumerate(g.names):
        for k, d in enumerate(succ[w]):
            if d < n:
                continue
            # The chain is the run of ids >= n down to the edge's target;
            # its delimiters pop the edge's word from its last entry on.
            base = f"{name}.{k}.s"
            x = w if g.labels[w] is ABS else inner[w]
            while d >= n:
                b.bases.append(base)
                b.inner.append(x)
                x, d = inner[x], succ[d][0]
    return b.finish(g.root, SignatureVariant(g.variant.var_arity, j))


def strip_delimiters(g: DelimitedGraph) -> PrefixedGraph:
    """Erase delimiter vertices, rerouting edges through their chains.

    The kept vertices are renumbered by rank, keeping their order and
    names; successors skip delimiter chains and prefix words map
    through the same ids.  O(n + m + sum of |prefix(w)|).
    """
    graph = g.graph
    labels, args, DEL = graph.labels, graph.args, Label.DEL

    def skip(u: int) -> int:
        while labels[u] is DEL:
            u = args[u][0]
        return u

    kept = [v for v, lab in enumerate(labels) if lab is not DEL]
    new_id = [-1] * graph.vertex_count
    for i, v in enumerate(kept):
        new_id[v] = i
    carrier = _trusted(
        TermGraph,
        variant=SignatureVariant(graph.variant.var_arity, None),
        labels=tuple(labels[v] for v in kept),
        args=tuple(tuple(new_id[skip(w)] for w in args[v]) for v in kept),
        root=new_id[skip(graph.root)],
        names=tuple(graph.names[v] for v in kept),
    )
    prefixes = {new_id[v]: tuple(new_id[x] for x in g.prefixes[v]) for v in kept}
    return _trusted(PrefixedGraph, graph=carrier, prefixes=prefixes)
