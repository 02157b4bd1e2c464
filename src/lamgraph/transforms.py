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

from typing import Sequence

from .core import Label, SignatureVariant, TermGraph, _trusted, successor
from .delimited import DelimitedGraph, _Builder
from .scoped import PrefixedGraph, ScopedGraph


def forget(x: ScopedGraph | PrefixedGraph | DelimitedGraph) -> TermGraph:
    """Drop scope or prefix information, keeping the underlying graph."""
    return x.graph


def scope_to_prefix(h: ScopedGraph) -> PrefixedGraph:
    """Derive the prefix function: each vertex's binders, outermost first.

    The carrier is unchanged (the very same graph object).  The result
    shares the binder tree, ``_inner``, that the constructor validated
    on, in O(1); its words are derived where they are first read, one
    per innermost binder (``scoped._words``).
    """
    return _trusted(PrefixedGraph, graph=h.graph, _inner=h._inner)


def prefix_to_scope(a: PrefixedGraph) -> ScopedGraph:
    """Derive the scope function: v's scope is v plus everyone listing v.

    The carrier is unchanged.  The result shares the prefix function's
    innermost binders, ``_inner``, in O(1); its scopes are derived where
    they are first read (``scoped._scopes``).
    """
    return _trusted(ScopedGraph, graph=a.graph, _inner=a._inner)


def num_delimiters(a: PrefixedGraph, w: int | str, k: int) -> int:
    """How many delimiter vertices the edge w -k-> w' needs when going
    first-order: the prefix length drop, counting the abstraction's own
    push on abstraction edges.  Never negative.

    As in ``_delimit``, the edge leaves from the word of its source's
    binder (w at an abstraction, its innermost binder at an
    application), and one delimiter pops each binder-tree link from
    there up to the edge target's innermost binder; a variable edge
    needs none.  An index past w's arity, or negative, raises
    ``IndexOutOfRange``.
    """
    g, inner = a.graph, a._inner
    w = g._vertex(w)
    t = inner[successor(g, w, k)]
    x = w if g.labels[w] is Label.ABS else inner[w] if g.labels[w] is Label.APP else t
    n = 0
    while x != t:
        x, n = inner[x], n + 1
    return n


def _delimit(g: TermGraph, inner: Sequence[int], j: int) -> tuple[list[Label], list]:
    """The chain loop: labels and successor rows of the delimited form,
    from the innermost binders ``inner`` of a valid prefix function.

    An edge leaves from the word P(x)·x of its source's binder x: the
    source itself at an abstraction, its innermost binder at an
    application.  The target's word is a prefix of it, P(t)·t for the
    target's innermost binder t, an ancestor of x in the binder tree, or
    the empty word for t = -1.  Where t is not x, a descending chain of
    delimiter vertices is inserted, one per dropped entry: the first
    pops x, each next one the binder of the one before, up to t.  With
    j=2 each of them back-links to the abstraction it pops.  Chains are
    never shared between edges; collapse can merge them later.

    The input's vertices keep their ids, and the delimiters follow in
    edge order, each chain from the longest word down, so a chain is a
    run of consecutive ids whose last member leads to the edge's target.
    Every row is a tuple: the input's own for a vertex without a chain.
    O(n + m + D) for D delimiters.
    """
    labels, succ = list(g.labels), list(g.args)
    ABS, APP, DEL = Label.ABS, Label.APP, Label.DEL
    for w, lab in enumerate(g.labels):
        if lab is ABS:
            x = w
        elif lab is APP:
            x = inner[w]
        else:
            continue  # variable back-links get no chain
        for k, wk in enumerate(g.args[w]):
            t = inner[wk]
            if t == x:
                continue
            # Each delimiter feeds the next one, and the last the edge's target.
            d = len(labels)
            succ[w] = succ[w][:k] + (d,) + succ[w][k + 1:]
            y = x
            while y != t:
                d += 1
                y, popped = inner[y], y
                labels.append(DEL)
                below = d if y != t else wk
                succ.append((below, popped) if j == 2 else (below,))
    return labels, succ


def insert_delimiters(a: PrefixedGraph, j: int = 2) -> DelimitedGraph:
    """Interpose delimiter chains wherever the prefix shrinks along an edge.

    The chains are ``_delimit``'s.  A delimiter is named after its edge,
    ``<source>.<k>.s``, with ``.2``, ``.3``, ... appended until the name
    is new, in id order.  Each input vertex keeps its innermost binder,
    and a chain delimiter has the binder of the abstraction it pops; the
    builder checks them in O(n + m + D) for D delimiters.  No word is
    read: the names are minted, and the output's words built, only where
    they are first read.
    """
    if j not in (1, 2):
        raise ValueError("delimiter arity must be 1 or 2")
    g, inner = a.graph, a._inner
    labels, succ = _delimit(g, inner, j)
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
    names; successors skip delimiter chains, and each kept vertex's
    innermost binder, an abstraction, maps through the same ids, so the
    words map with them.  O(n + m); the result's words are derived where
    they are first read.
    """
    graph = g.graph
    labels, args, DEL = graph.labels, graph.args, Label.DEL

    def skip(u: int) -> int:
        while labels[u] is DEL:
            u = args[u][0]
        return u

    kept = [v for v, lab in enumerate(labels) if lab is not DEL]
    new_id = [-1] * (graph.vertex_count + 1)  # new_id[-1]: the empty word's -1
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
    inner = g._inner
    return _trusted(PrefixedGraph, graph=carrier, _inner=[new_id[inner[v]] for v in kept])
