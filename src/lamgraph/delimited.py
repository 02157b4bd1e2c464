"""First-order lambda term graphs with scope-delimiter vertices.

Here the prefix discipline is strict: abstraction and application edges
determine the successor's prefix exactly, and each delimiter vertex pops
exactly one abstraction off the word.  That rigidity makes the correct
prefix function unique, so membership in the class is decidable by one
forward propagation from the root.  Given each vertex's innermost
binder, the last entry of its word, the eager-scope and back-link
checks each take one backward search over all binders' body regions at
once, in linear time; they group the vertices by their innermost binder
only to name a witness or to search again.

This module also emits delimited graphs on integer ids: ``_Builder``
allocates vertices, each with its innermost binder, the last entry of
its word, and its finish step checks that array in one DFS.  The
correct prefix function is unique, so the check is as strong as
inference.  Both producers, ``term_to_graph`` and ``insert_delimiters``,
build with it; the names are minted, and the words derived from the
array, only where they are first read.  A ``DelimitedGraph`` made
directly must carry exactly the inferred words; ``from_graph`` infers
them and trusts the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from .core import (
    DomainMismatch,
    Label,
    SignatureVariant,
    TermGraph,
    UnreachableVertex,
    VariantMismatch,
    _derived_field,
    _reachable_keys,
    _trusted,
)
from .scoped import (
    PrefixFn,
    ValidationReport,
    Violation,
    _check_prefix_domain,
    _last_entries,
    _prefix_word_sanity,
    _words,
    normalize_prefix_fn,
)


def validate_prefix_fo(g: TermGraph, p: Mapping) -> ValidationReport:
    """Check a prefix function against the strict delimiter conditions.

    O(n + m + sum of |prefix(w)|).
    """
    if g.variant.del_arity is None:
        raise VariantMismatch("this validator needs a signature with delimiters")
    p = normalize_prefix_fn(g, p)
    bad = _prefix_word_sanity(g, p)
    if p[g.root] != ():
        bad.append(Violation("root", (g.root,)))
    for w, k, wk in g.edges():
        lab = g.labels[w]
        if lab is Label.ABS and p[wk] != p[w] + (w,):
            bad.append(Violation("lambda", (w, wk)))
        elif lab is Label.APP and p[wk] != p[w]:
            bad.append(Violation("apply", (w, wk)))
        elif lab is Label.DEL and k == 0 and (not p[w] or p[wk] != p[w][:-1]):
            # A delimiter pops one entry, so its own word cannot be empty.
            bad.append(Violation("delim-pop", (w, wk)))
        elif lab is Label.DEL and k == 1:
            if g.labels[wk] is not Label.ABS or p[wk] + (wk,) != p[w]:
                bad.append(Violation("delim-backlink", (w, wk)))
    for w in g.vertices_labeled(Label.VAR):
        if p[w] == ():
            bad.append(Violation("var0", (w,)))
        elif g.variant.var_arity == 1:
            w0 = g.args[w][0]
            if g.labels[w0] is not Label.ABS or p[w0] + (w0,) != p[w]:
                bad.append(Violation("var1", (w, w0)))
    return ValidationReport(tuple(bad))


def infer_prefix(g: TermGraph) -> tuple[PrefixFn | None, ValidationReport | None]:
    """Compute the unique correct prefix function, if one exists.

    Propagates the forced prefix values from the root outward in one
    pass; a conflict at a join vertex means no correct function exists.
    Returns (prefixes, None) on success and (None, report) on failure.  A
    failure found while propagating is reported with one violation:
    ``prefix-conflict`` at (source, target) for an edge that forces its
    target to a second word, or the validator's ``var0``/``var1``/
    ``delim-pop``/``delim-backlink`` at the vertex whose own word rules
    out its back-link or pop.

    Words grow only by pushing the abstraction being processed, which no
    word holds yet: they are repeat-free words of abstractions that never
    list their own vertex, and every word ending in v is P(v)·v.  So a
    back-link edge, whose target is the last entry v of its source's
    word, would force on v the word v already has, and forces nothing.
    A conflict-free propagation has checked every other edge of every
    reached vertex, and the strict validator would find nothing more,
    except that a graph without variable back-links needs each
    variable's word to be nonempty; those ``var0`` violations are all
    reported, in ascending vertex order.

    The worklist is a stack, and an application pushes its function
    before its argument; that order fixes the words' key order and which
    failure is found first.  A vertex the root does not reach raises
    ``DomainMismatch``.
    """
    if g.variant.del_arity is None:
        raise VariantMismatch("prefix inference needs a signature with delimiters")
    labels, args = g.labels, g.args
    var_linked = g.variant.var_arity == 1
    del_linked = g.variant.del_arity == 2
    ABS, APP, DEL = Label.ABS, Label.APP, Label.DEL
    prefixes: PrefixFn = {g.root: ()}
    get = prefixes.get
    worklist = [g.root]
    pop, push = worklist.pop, worklist.append
    while worklist:
        w = pop()
        pw = prefixes[w]
        lab = labels[w]
        succ = args[w]
        if lab is APP:
            # Both successors get w's word, the first pushed first.
            t = succ[0]
            old = get(t)
            if old is None:
                prefixes[t] = pw
                push(t)
            elif old != pw:
                return _failure("prefix-conflict", w, t)
            t = succ[1]
            value = pw
        elif lab is ABS:
            t = succ[0]
            value = pw + (w,)
        elif lab is DEL:
            if not pw:
                return _failure("delim-pop", w, succ[0])
            if del_linked and succ[1] != pw[-1]:
                return _failure("delim-backlink", w, succ[1])
            t = succ[0]
            value = pw[:-1]
        else:
            if var_linked:
                if not pw:
                    return _failure("var0", w)
                if succ[0] != pw[-1]:
                    return _failure("var1", w, succ[0])
            continue
        old = get(t)
        if old is None:
            prefixes[t] = value
            push(t)
        elif old != value:
            return _failure("prefix-conflict", w, t)
    # The words hold only vertices propagation reached, so the prefix
    # function is total iff it has a word for every vertex.
    if len(prefixes) < g.vertex_count:
        raise DomainMismatch("prefix function must be total on the vertex set")
    if not var_linked:
        var0 = [w for w in g.vertices_labeled(Label.VAR) if not prefixes[w]]
        if var0:
            return None, ValidationReport(tuple(Violation("var0", (w,)) for w in var0))
    return prefixes, None


def _failure(condition: str, *witnesses: int) -> tuple[None, ValidationReport]:
    return None, ValidationReport((Violation(condition, witnesses),))


def is_lambda_term_graph(g: TermGraph) -> bool:
    """True iff the graph admits a correct abstraction-prefix function."""
    prefixes, _ = infer_prefix(g)
    return prefixes is not None


@dataclass(frozen=True)
class DelimitedGraph:
    """A graph that passed prefix inference, with the prefixes cached.

    The constructor refuses a graph without a correct prefix function,
    and words other than the inferred ones (in any key order), naming
    the first vertex whose word differs.  A graph that ``_Builder``
    built passed ``_check_inner`` instead, and derives its words from
    the innermost binders on their first read (``_words``).
    """

    graph: TermGraph
    prefixes: dict[int, tuple[int, ...]] = field(hash=False)

    def __post_init__(self):
        graph, prefixes = self.graph, self.prefixes
        inferred = _inferred(graph)
        if inferred != prefixes:
            _check_prefix_domain(graph, prefixes)
            v = next(v for v in graph.vertices() if prefixes[v] != inferred[v])
            raise ValueError(f"not the inferred words: vertex {v} ({graph.names[v]}) gets another")

    @classmethod
    def from_graph(cls, graph: TermGraph) -> "DelimitedGraph":
        return _trusted(cls, graph=graph, prefixes=_inferred(graph))

    _inner = cached_property(_last_entries)


def _inferred(graph: TermGraph) -> PrefixFn:
    """The graph's inferred words, or a ``ValueError`` naming why there
    are none."""
    prefixes, report = infer_prefix(graph)
    if prefixes is None:
        raise ValueError(f"not a valid delimited lambda graph: {report.violation_text(graph)}")
    return prefixes


class _Builder:
    """A delimited graph under construction, on dense ids.

    Each vertex has its label, its successor row (a tuple, filled in
    after the vertex is allocated) and its innermost binder, the last
    entry of its word or -1 for the empty word.  A builder starts empty
    or seeded with the labels, rows, innermost binders and names of a
    leading run of vertices; each vertex after that run is allocated
    with the base of its name, and names are minted only where they are
    first read (``core._minted_names``).
    """

    def __init__(self, labels=(), succ=(), names=(), inner=()):
        self.labels: list[Label] = list(labels)
        self.succ: list = list(succ)
        self.inner: list[int] = list(inner)
        self.names: tuple[str, ...] = tuple(names)
        self.bases: list[str] = []  # of the vertices after the named run

    def alloc(self, base: str, label: Label, inner: int) -> int:
        v = len(self.labels)
        self.labels.append(label)
        self.succ.append(None)
        self.inner.append(inner)
        self.bases.append(base)
        return v

    def finish(self, root: int, variant: SignatureVariant) -> DelimitedGraph:
        """The built graph, once ``_check_inner`` has passed it.

        Its names and its words are derived where they are first read.
        """
        graph = _trusted(
            TermGraph,
            variant=variant,
            labels=tuple(self.labels),
            args=tuple(self.succ),
            root=root,
            _unnamed=(self.names, self.bases),
        )
        bad = _check_inner(graph, self.inner)
        if bad is not None:
            raise ValueError(f"not a valid delimited lambda graph: {bad.describe(graph)}")
        return _trusted(DelimitedGraph, graph=graph, _inner=self.inner)


def _check_inner(graph: TermGraph, inner: Sequence[int]) -> Violation | None:
    """Check that ``inner`` is the innermost-binder array of a correct
    prefix function, one DFS from the root in O(n + m).

    Every edge of a reached vertex w must meet the strict validator's
    condition, read on the array: an abstraction's body has ``inner``
    w, an application's successors have w's, a delimiter's pop target
    has that of w's binder, and a back-link leads to w's binder, which
    a delimiter and a variable must have.  The root's is -1.  A failure
    gives ``validate_prefix_fo``'s violation; a vertex the DFS misses
    raises ``UnreachableVertex``, naming them all.

    Then, by induction along the DFS tree, each reached vertex's binder
    is -1 or an abstraction reached before it, back-link targets
    included, and P(v) = P(inner v)·inner v satisfies every condition:
    it is the unique correct prefix function, the one inference finds.
    """
    labels, args, root = graph.labels, graph.args, graph.root
    var_linked = graph.variant.var_arity == 1
    del_linked = graph.variant.del_arity == 2
    ABS, APP, DEL = Label.ABS, Label.APP, Label.DEL
    if inner[root] != -1:
        return Violation("root", (root,))
    seen = [False] * len(labels)
    seen[root] = True
    stack = [root]
    pop, push = stack.pop, stack.append
    while stack:
        w = pop()
        lab, succ, i = labels[w], args[w], inner[w]
        if lab is APP:
            t, u = succ
            if inner[t] != i:
                return Violation("apply", (w, t))
            if inner[u] != i:
                return Violation("apply", (w, u))
            if not seen[t]:
                seen[t] = True
                push(t)
            t = u
        elif lab is ABS:
            t = succ[0]
            if inner[t] != w:
                return Violation("lambda", (w, t))
        elif lab is DEL:
            t = succ[0]
            if i < 0 or inner[t] != inner[i]:
                return Violation("delim-pop", (w, t))
            if del_linked and succ[1] != i:
                return Violation("delim-backlink", (w, succ[1]))
        else:
            if i < 0:
                return Violation("var0", (w,))
            if var_linked and succ[0] != i:
                return Violation("var1", (w, succ[0]))
            continue
        if not seen[t]:
            seen[t] = True
            push(t)
    if not all(seen):
        raise UnreachableVertex(name for name, s in zip(graph.names, seen) if not s)
    return None


# A graph that ``_Builder.finish`` made has its words derived where they
# are first read: equivalence and sharing read labels and successors only.
_derived_field(DelimitedGraph, "prefixes", _words)


def is_fully_back_linked(g: DelimitedGraph) -> bool:
    """True iff the last abstraction of every nonempty prefix is reachable.

    Reachability is plain directed reachability, back-link edges included.
    A vertex whose word ends in v reaches v if it reaches, inside v's body
    region, a vertex with its word and an edge to v.  One backward search
    from all such vertices decides that for every vertex at once (see
    ``_reach_in_region``): O(n + m), given the innermost binders.  Each
    binder with a vertex left unreached searches again over the whole
    graph, without the region search's jump, O(n + m) more; on eager
    (1,2) graphs none does.
    """
    graph, inner = g.graph, g._inner
    # The vertices with an edge to their innermost binder (-1 is no id).
    sources = [u for u, succ in enumerate(graph.args) if inner[u] in succ]
    reached = _reach_in_region(graph.labels, graph.args, sources, inner)
    unreached: dict[int, list[int]] = {}
    for w, x in enumerate(inner):
        if x >= 0 and w not in reached:
            unreached.setdefault(x, []).append(w)
    if unreached:
        preds = _predecessors(graph)
        for v, members in unreached.items():
            reached = _reachable_keys(v, preds)
            if any(w not in reached for w in members):
                return False
    return True


def is_eager_scope(g: DelimitedGraph, strict: bool = False) -> bool:
    """Check that every open scope can still reach a use of its variable.

    For each vertex w whose prefix ends with abstraction v there must be
    a path from w to a variable vertex back-linking to v, moving only
    through vertices whose prefixes extend w's.  Delimiter vertices are
    exempt as path sources by default: a delimiter closing a binder with
    no remaining occurrences could never satisfy the condition, and its
    chain target carries its own obligation.  ``strict=True`` quantifies
    over delimiter vertices as well.

    A variable back-links to the last entry of its own word, so w meets
    the condition iff it reaches, inside its word's region, a variable
    with w's word.  One backward search from every variable decides all
    vertices at once, each step keeping to one word (see
    ``_reach_in_region``): O(n + m), given the innermost binders.
    """
    return _non_eager_vertex(g, strict) is None


def _non_eager_vertex(g: DelimitedGraph, strict: bool = False) -> int | None:
    """A vertex that violates the eager-scope condition, or None.

    The witness is the first violating vertex with the vertices grouped
    by their innermost binder, groups in the order of their smallest
    member and members in ascending id order.  Only a failed check
    groups them.
    """
    if g.graph.variant.var_arity != 1:
        raise VariantMismatch("eager-scope is defined only with variable back-links")
    graph = g.graph
    return _non_eager(graph.labels, graph.args, g._inner, None if strict else Label.DEL)


def _non_eager(
    labels: Sequence[Label], args: Sequence[Sequence[int]], inner: Sequence[int], exempt: Label | None
) -> int | None:
    """``_non_eager_vertex`` on arrays, checking the vertices that
    ``inner`` holds innermost binders for, 0 up to its length, except
    those labelled ``exempt``.

    The search reads no delimiter's binder where delimiters back-link
    (see ``_reach_in_region``).  So on a (1,2) graph whose delimiters
    have larger ids than every other vertex, the binders of the others
    suffice when delimiters are exempt: a group of the witness order
    whose smallest member is a delimiter holds only delimiters.
    """
    VAR = Label.VAR
    sources = [u for u, lab in enumerate(labels) if lab is VAR]
    reached = _reach_in_region(labels, args, sources, inner)
    for w, x in enumerate(inner):
        if x >= 0 and w not in reached and labels[w] is not exempt:
            break
    else:
        return None
    return next(
        w
        for members in _by_binder(inner).values()
        for w in members
        if w not in reached and labels[w] is not exempt
    )


def _non_eager_reason(names: Sequence[str], inner: Sequence[int], w: int) -> str:
    return f"{names[w]} reaches no occurrence of {names[inner[w]]} within its scope"


def _predecessors(graph: TermGraph) -> list[list[int]]:
    preds: list[list[int]] = [[] for _ in graph.vertices()]
    for u, succ in enumerate(graph.args):
        for t in succ:
            preds[t].append(u)
    return preds


def _by_binder(inner: Sequence[int]) -> dict[int, list[int]]:
    """The vertices with a nonempty prefix, grouped by their innermost
    binder, the last entry of their word.

    A word ending in v is P(v)·v, so the binder identifies the word.
    Vertices are taken in ascending id order, so the eager check's
    witness does not depend on the order in which inference found the
    words.
    """
    groups: dict[int, list[int]] = {}
    for w, x in enumerate(inner):
        if x >= 0:
            groups.setdefault(x, []).append(w)
    return groups


def _reach_in_region(
    labels: Sequence[Label], args: Sequence[Sequence[int]], sources: list[int], inner: Sequence[int]
) -> set[int]:
    """The vertices that reach a source with their own word W through
    W's region, the vertices whose words extend W.

    With a correct prefix function an edge keeps, pushes or pops one word
    entry, so a predecessor of a vertex t with word W, of k entries, is in
    W's region iff its word has at least k entries.  By its kind:

    - an application keeps the word, so it has word W;
    - an abstraction pushes, so its word is shorter;
    - a delimiter's first edge pops, so the delimiter lies in the body
      region of x, the last entry of its word, an abstraction with
      word W, and the search steps straight to x.  A delimiter's
      back-link is x, so its innermost binder is read only where it
      has none;
    - a back-link targets the last entry of its source's word, which
      makes that word W·t, and the step straight to entry k is back to t.

    The jump to x loses nothing.  Every vertex is reachable from the
    root, whose word is empty, and the only edge into x's body region
    from outside is x's body edge (a kept or popped word extends W·x only
    if the source's does, and pushing gives W·x only at x).  So a root
    path to a vertex of the region enters it last through x: x reaches
    every vertex of the region without leaving it, and a vertex with
    word W reaches the region only through x.

    So the search steps back from t to its application predecessors and
    to the last word entry of its delimiter predecessors, all with word
    W; no step reads a word's length.  The sets of vertices sharing a
    word are disjoint, so a search from sources with different words
    gives the union of the searches from each word's sources, and each
    vertex is visited once.
    """
    APP, DEL = Label.APP, Label.DEL
    steps: list[list[int]] = [[] for _ in labels]
    for u, lab in enumerate(labels):
        if lab is APP:
            fun, arg = args[u]
            steps[fun].append(u)
            steps[arg].append(u)
        elif lab is DEL:
            succ = args[u]
            steps[succ[0]].append(succ[1] if len(succ) == 2 else inner[u])
    seen = set(sources)
    stack = list(seen)
    while stack:
        for p in steps[stack.pop()]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen
