"""Functional bisimulation, collapse, and maximal sharing.

A term graph is a deterministic automaton over the edge indices {0, 1},
so its bisimulation collapse is DFA minimization.  ``coarsest_partition``
computes the coarsest partition compatible with labels and indexed
successors by Hopcroft partition refinement in O(m log n) for n vertices
and m edges (Valmari & Lehtinen, STACS 2008, for partial transition
functions): start from the label classes, split by predecessor sets, and
after each split refine only by the smaller half.  The worklist holds
blocks, and one pop splits by the block for both edge indices, reading
the predecessor index that ``core._predecessors`` builds once per
graph.  The blocks are a refinable partition, ranges of one vertex
array that a split cuts in place, and the largest label class is never
a splitter (see ``_refine``).  Block ids are then numbered once by
first visit in a depth-first walk from the root that takes the lowest
edge index first, so the quotient's vertex numbering is deterministic.

``are_bisimilar`` needs no partition: it decides whether two roots are
bisimilar by Hopcroft and Karp's union-find on vertex pairs (1971),
growing an equivalence from the root pair and stopping at the first
pair whose labels differ.

Refinement and numbering work on labels and successor rows, so
``max_share_ho`` refines the rows of the delimited form without
building it, on the predecessor index its eager check reads too,
numbers the blocks by a walk of the input's own rows, and reads its
result off the projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    GraphError,
    Label,
    TermGraph,
    VariantMismatch,
    VertexMap,
    _predecessors,
    _trusted,
    find_homomorphism,
)
from .delimited import DelimitedGraph, _non_eager, _non_eager_reason
from .scoped import PrefixedGraph, ScopedGraph
from .transforms import _delimit

__all__ = [
    "Partition",
    "NotEagerScope",
    "find_homomorphism",
    "lift_homomorphism",
    "is_label_restricted",
    "are_bisimilar",
    "coarsest_partition",
    "collapse",
    "max_share",
    "max_share_ho",
]


class NotEagerScope(GraphError):
    """Maximal sharing requested for a graph outside the eager class.

    ``vertex`` names the witness in the input's delimited form: a vertex
    that reaches no occurrence of its innermost binder within its scope.
    """

    def __init__(self, message: str, vertex: str | None = None):
        self.vertex = vertex
        super().__init__(message)


@dataclass(frozen=True)
class Partition:
    """Vertex -> block id, with blocks numbered by first DFS visit."""

    block: tuple[int, ...]
    block_count: int
    root_block: int

    def as_blocks(self) -> frozenset[frozenset[int]]:
        groups: dict[int, set[int]] = {}
        for v, b in enumerate(self.block):
            groups.setdefault(b, set()).add(v)
        return frozenset(frozenset(g) for g in groups.values())


def coarsest_partition(g: TermGraph) -> Partition:
    """Coarsest partition compatible with labels and indexed successors."""
    block, count = _renumber(g.args, g.root, *_refine(g.labels, _predecessors(g.args)))
    return Partition(block=tuple(block), block_count=count, root_block=block[g.root])


_LABELS = tuple(Label)


def _refine(
    labels: Sequence[Label], into: tuple[Sequence[Sequence[int]], Sequence[Sequence[int]]]
) -> tuple[list[int], int]:
    """Coarsest stable partition of the graph with these labels and the
    successor rows whose predecessor index is ``into``
    (``core._predecessors``), as vertex -> block id (ids arbitrary) and
    the block count.

    Hopcroft refinement: a splitter block b separates, inside every
    block and for each index k, the vertices whose k-th successor lies
    in b from the rest.  Blocks start as the label classes, so every
    vertex in a block has the same arity.  The worklist holds blocks,
    each at most once (``pending``); a pop splits by a snapshot of the
    block's members, for index 0 and then for index 1.  After a split of
    a block that is not pending, the smaller half suffices as a new
    splitter: once the pop that split it is done, every block is stable
    under the old block for both indices (for the class never taken as
    a splitter, see below), and stability under the old block and one
    half gives stability under the other half.  A block split while
    pending has both halves queued.

    The blocks form a refinable partition (Valmari & Lehtinen): the
    vertices sit in ``elems``, block b the range ``first[b]`` to
    ``end[b]``, and ``pos`` gives each vertex's index.  A hit swaps the
    vertex into its block's marked prefix, which ends at ``mid``; a
    block partly hit hands the marked prefix a new id in place, so a
    split costs the number of hits and no set is copied.  A hit in a
    one-vertex block, which cannot split, is skipped at once.

    The largest label class is never a splitter, for either index.
    Skipping any one class is sound: at the end a block X is stable
    under every other class, through its splitters and their
    descendants.  Every vertex of X has a k-th successor or none does,
    so if no k-th successor of X lies in another class, they all lie in
    the skipped class, and X is stable under it too.  The largest class
    would cost the most hits.
    """
    classes = [c for c in ([v for v, x in enumerate(labels) if x is lab] for lab in _LABELS) if c]
    n = len(labels)
    elems: list[int] = []
    block = [0] * n
    first: list[int] = []
    end: list[int] = []
    for b, c in enumerate(classes):
        first.append(len(elems))
        elems += c
        end.append(len(elems))
        for v in c:
            block[v] = b
    pos = [0] * n
    for i, v in enumerate(elems):
        pos[v] = i
    mid = first[:]
    sizes = [len(c) for c in classes]
    skip = sizes.index(max(sizes))
    pending = [b != skip for b in range(len(classes))]
    work = [b for b in range(len(classes)) if b != skip]
    while work:
        b = work.pop()
        pending[b] = False
        members = elems[first[b] : end[b]]
        for into_k in into:
            touched = []
            for w in members:
                for v in into_k[w]:
                    x = block[v]
                    m = mid[x]
                    if m == first[x]:
                        if end[x] - m == 1:
                            continue
                        touched.append(x)
                    i, u = pos[v], elems[m]
                    elems[i], pos[u] = u, i
                    elems[m], pos[v] = v, m
                    mid[x] = m + 1
            for x in touched:
                f, m, e = first[x], mid[x], end[x]
                if m == e:
                    mid[x] = f
                    continue
                y = len(first)
                first.append(f)
                end.append(m)
                mid.append(f)
                first[x] = mid[x] = m
                for v in elems[f:m]:
                    block[v] = y
                if pending[x]:
                    work.append(y)
                    pending.append(True)
                else:
                    smaller = y if m - f <= e - m else x
                    work.append(smaller)
                    pending.append(False)
                    pending[smaller] = True
    return block, len(first)


def _renumber(
    args: Sequence[Sequence[int]], root: int, keys: Sequence[int], count: int
) -> tuple[list[int], int]:
    """Dense block ids in first-visit DFS order (lowest index first) for
    ``keys``, a map onto 0..count-1, and the number of ids given."""
    order = [-1] * count
    seen = [False] * len(keys)
    given = 0
    stack = [root]
    while stack:
        v = stack.pop()
        if seen[v]:
            continue
        seen[v] = True
        k = keys[v]
        if order[k] < 0:
            order[k] = given
            given += 1
        for w in reversed(args[v]):
            if not seen[w]:
                stack.append(w)
    return [order[k] for k in keys], given


def collapse(g: TermGraph) -> tuple[TermGraph, VertexMap]:
    """The bisimulation collapse and the projection map onto it.

    The projection is a homomorphism, and no nontrivial homomorphism
    leaves the result.  Quotient vertex b is block b of
    ``coarsest_partition``; it takes the label, successors and name of
    the block's minimal vertex.  The root's block becomes the new root.
    """
    part = coarsest_partition(g)
    return _quotient(g, part.block, part.block_count)[1], dict(enumerate(part.block))


def _quotient(g: TermGraph, image: Sequence[int], count: int) -> tuple[list[int], TermGraph]:
    """The quotient of g by ``image``, a map onto 0..count-1, and its
    representatives: quotient vertex b takes the label and name of
    ``reps[b]``, the minimal vertex that ``image`` maps to b, and the
    images of that vertex's successors.  ``image`` must make the
    quotient a homomorphic image, as a bisimulation's blocks do, so any
    other member's successors would give the same."""
    reps = [0] * count
    for v in reversed(g.vertices()):
        reps[image[v]] = v
    labels, args, names = g.labels, g.args, g.names
    quotient = _trusted(
        TermGraph,
        variant=g.variant,
        labels=tuple([labels[r] for r in reps]),
        args=tuple([tuple([image[t] for t in args[r]]) for r in reps]),
        root=image[g.root],
        names=tuple([names[r] for r in reps]),
    )
    return reps, quotient


def are_bisimilar(g1: TermGraph, g2: TermGraph) -> bool:
    """Bisimilarity of the roots, by Hopcroft and Karp's union-find.

    One union-find runs over the ids of both graphs, g2's offset by the
    vertex count of g1, with path halving.  A worklist of vertex pairs
    starts at the root pair.  A popped pair whose ids already share a
    class is skipped; a pair whose own labels differ answers ``False``;
    otherwise the two classes are joined and the pair's successors are
    pushed index by index.  Labels and successors are read from the
    pair itself, never from the class representatives; equal labels
    within one variant mean equal arities.

    Soundness: every joined pair has equal labels, and each of its
    successor pairs is pushed and so lies in the equivalence by the time
    the worklist empties.  The joined pairs thus form a bisimulation up
    to equivalence, whose equivalence closure is a bisimulation holding
    the root pair.  Completeness: any bisimulation holding the root pair
    holds every pair ever pushed, so a pair with different labels
    refutes it.  At most n1 + n2 - 1 joins succeed, each pushing at most
    two pairs, so the check is near-linear and stops at the first
    mismatch.
    """
    if g1.variant != g2.variant:
        raise VariantMismatch(f"{g1.variant} vs {g2.variant}")
    offset = g1.vertex_count
    parent = list(range(offset + g2.vertex_count))
    labels1, args1, labels2, args2 = g1.labels, g1.args, g2.labels, g2.args
    work = [(g1.root, g2.root)]
    while work:
        u, v = work.pop()
        x = u
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        y = v + offset
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x == y:
            continue
        if labels1[u] is not labels2[v]:
            return False
        parent[x] = y
        work.extend(zip(args1[u], args2[v]))
    return True


def is_label_restricted(h: VertexMap, g1: TermGraph, label: Label) -> bool:
    """True iff h identifies only vertices carrying the given label."""
    classes: dict[int, list[int]] = {}
    for v, w in h.items():
        classes.setdefault(w, []).append(v)
    for members in classes.values():
        if len(members) > 1 and any(g1.labels[v] is not label for v in members):
            return False
    return True


def _check_carrier_homomorphism(h: VertexMap, g1: TermGraph, g2: TermGraph) -> None:
    if set(h) != set(g1.vertices()):
        raise ValueError("map is not total on the source vertex set")
    if h[g1.root] != g2.root:
        raise ValueError("map does not preserve the root")
    for v in g1.vertices():
        if g1.labels[v] is not g2.labels[h[v]]:
            raise ValueError(f"map does not preserve the label at {g1.names[v]}")
        if tuple(h[w] for w in g1.args[v]) != g2.args[h[v]]:
            raise ValueError(f"map does not preserve the arguments at {g1.names[v]}")


def lift_homomorphism(
    h: VertexMap,
    x1: ScopedGraph | PrefixedGraph | DelimitedGraph,
    x2: ScopedGraph | PrefixedGraph | DelimitedGraph,
) -> bool:
    """Does a carrier homomorphism respect the scoping structure on top?

    For scope functions the image of each scope must equal the scope of
    the image; for prefix functions (explicit or inferred) the image of
    each word must equal the image vertex's word.
    """
    if type(x1) is not type(x2):
        raise ValueError("both sides must use the same representation")
    _check_carrier_homomorphism(h, x1.graph, x2.graph)
    if isinstance(x1, ScopedGraph):
        return all(
            frozenset(h[u] for u in x1.scopes[v]) == x2.scopes[h[v]]
            for v in x1.graph.vertices_labeled(Label.ABS)
        )
    return all(
        tuple(h[u] for u in x1.prefixes[v]) == x2.prefixes[h[v]]
        for v in x1.graph.vertices()
    )


def max_share(g: DelimitedGraph) -> DelimitedGraph:
    """Maximally shared form of a delimited graph: its bisimulation
    collapse, with the quotient's innermost binders inferred in
    O(n + m) and its words derived where they are first read.
    """
    part = coarsest_partition(g.graph)
    return DelimitedGraph.from_graph(_quotient(g.graph, part.block, part.block_count)[1])


def max_share_ho(h: ScopedGraph) -> ScopedGraph:
    """Maximally shared form of a scope-function graph with back-links.

    The paper's route goes to prefixes, to the delimited first-order
    form, through its bisimulation collapse, and back.  The input's
    delimited image must be eager-scope; the eager class is closed
    under homomorphism, so the collapse stays inside it.  Here the route
    runs on arrays and builds neither a prefix word, nor the delimited
    graph, nor its quotient, nor a scope: ``_delimit`` gives the
    delimited form's labels and rows from the binder tree that the
    input's constructor validated on (``ScopedGraph._inner``), one
    predecessor index of those rows serves both the eager check, which
    also reads that tree, and the refinement, and the result is read off
    the projection.

    Delimiting an eager (1,2) graph preserves and reflects the sharing
    order, so the projection restricted to the input's vertices is a
    homomorphism of higher-order graphs onto the result.  Hence:

    - a block without delimiters is a result vertex, with the label and
      name of its minimal vertex, an input vertex;
    - its successors are the blocks of the input edges' targets:
      bisimilar vertices have chains of one length on each edge, ending
      in bisimilar targets, so skipping a chain in the quotient lands on
      the block of the input edge's target;
    - its innermost binder is the block of the minimal vertex's, so its
      scopes are the block images of the input's, derived from that
      binder tree where they are first read.

    The result's vertices are numbered by a first-visit walk of the
    input's own rows, which gives the numbering that ``collapse`` and
    ``strip_delimiters`` give by way of the delimited form: a walk of
    the delimited rows reaches the input vertices in the same order.  A
    delimiter chain is private to its edge and leads on to the edge's
    target; its back-links end at the edge's source or at the source's
    binders, which dominate the source, so the walk has entered them
    already.

    The input was validated when it was made, its carrier's reachability
    from the root included, and the result is valid by that
    correspondence, so no validator runs.  ``NotEagerScope``
    names the first vertex of the delimited form that fails the eager
    check, which is always an input vertex.
    """
    g = h.graph
    if g.variant.var_arity != 1:
        raise VariantMismatch("maximal sharing needs variable back-links and no delimiters")
    inner = h._inner
    labels, args = _delimit(g, inner, 2)
    into = _predecessors(args)
    w = _non_eager(labels, args, into, inner, Label.DEL)
    if w is not None:
        raise NotEagerScope(
            "the delimited form of the input is not eager-scope: "
            + _non_eager_reason(g.names, inner, w),
            g.names[w],
        )
    block, count = _refine(labels, into)
    image, kept = _renumber(g.args, g.root, block[: g.vertex_count], count)
    reps, carrier = _quotient(g, image, kept)
    image.append(-1)  # image[-1]: the empty word stays empty
    return _trusted(ScopedGraph, graph=carrier, _inner=[image[inner[r]] for r in reps])
