"""First-order lambda term graphs with scope-delimiter vertices.

Here the prefix discipline is strict: abstraction and application edges
determine the successor's prefix exactly, and each delimiter vertex pops
exactly one abstraction off the word.  That rigidity makes the correct
prefix function unique, so membership in the class is decidable by one
forward propagation from the root.  Every word is P(v) = P(u)·u for its
last entry u, the vertex's innermost binder, so the propagation carries
those binders alone, in O(n + m) (``_infer_inner``), and words are
derived from them only where they are read (``scoped._words``).
``_infer_inner`` is the one inference entry: ``infer_prefix``,
``is_lambda_term_graph``, ``DelimitedGraph`` and ``_Builder`` all read
it.  Given the binders, the eager-scope check takes one backward search
over all binders' body regions at once, and the back-link check one
strongly-connected-component pass from the root, each in linear time;
the eager check groups the vertices by their innermost binder only to
name a witness.  ``validate_prefix_fo`` is the one word validator,
``scoped._validate_prefix_ho``, on a graph with delimiters.

This module also emits delimited graphs on integer ids: ``_Builder``
allocates vertices, each with its innermost binder as its producer
records it, and its finish step compares that array with the inferred
one.  The correct prefix function is unique, so any other binder is
refused.  Both producers, ``term_to_graph`` and ``insert_delimiters``,
build with it; the names are minted, and the words derived, only where
they are first read.  A ``DelimitedGraph`` made directly must carry
exactly the inferred words; ``from_graph`` infers the binders and
trusts them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .core import (
    Label,
    SignatureVariant,
    TermGraph,
    UnreachableVertex,
    VariantMismatch,
    _derived_field,
    _predecessors,
    _trusted,
)
from .scoped import (
    PrefixFn,
    ValidationReport,
    Violation,
    _check_prefix_domain,
    _validate_prefix_ho,
    _words,
    normalize_prefix_fn,
)


def validate_prefix_fo(g: TermGraph, p: Mapping) -> ValidationReport:
    """Check a prefix function against the strict delimiter conditions:
    ``scoped._validate_prefix_ho``, the one word validator, on a graph
    with delimiters.

    O(n + m + sum of |prefix(w)|).
    """
    if g.variant.del_arity is None:
        raise VariantMismatch("this validator needs a signature with delimiters")
    return _validate_prefix_ho(g, normalize_prefix_fn(g, p))


def infer_prefix(g: TermGraph) -> tuple[PrefixFn | None, ValidationReport | None]:
    """Compute the unique correct prefix function, if one exists.

    Returns (prefixes, None) on success, the words keyed in ascending id
    order, and (None, report) on failure; ``_infer_inner`` finds either.
    """
    inner, report = _infer_inner(g)
    return (None, report) if inner is None else (_words(inner), None)


def _infer_inner(g: TermGraph) -> tuple[list[int] | None, ValidationReport | None]:
    """Propagate the forced innermost binders from the root outward in
    one pass, O(n + m); a conflict at a join vertex means no correct
    prefix function exists.

    Returns (inner, None) on success: each vertex's innermost binder,
    the last entry of its word, -1 for the empty word.  A failure found
    while propagating gives (None, report) with one violation:
    ``prefix-conflict`` at (source, target) for an edge that forces its
    target to a second binder, or the validator's ``var0``/``var1``/
    ``delim-pop``/``delim-backlink`` at the vertex whose own binder rules
    out its back-link or pop.

    Words grow only by pushing the abstraction being processed, which no
    word holds yet: they are repeat-free words of abstractions that never
    list their own vertex, and every word ending in v is P(v)·v.  So two
    words are equal iff their last entries are, the binders carry the
    whole propagation, and a delimiter pops to its binder's binder.  A
    back-link edge, whose target is its source's binder v, would force
    on v the binder v already has, and forces nothing.  A conflict-free
    propagation has checked every other edge of every reached vertex,
    and the strict validator would find nothing more, except that a
    graph without variable back-links needs each variable's word to be
    nonempty; those ``var0`` violations are all reported, in ascending
    vertex order, as (None, report).  A vertex that propagation leaves
    unreached, which only a graph made through ``core._trusted`` can
    hold, raises ``UnreachableVertex``, naming them all.

    The worklist is a stack, and an application pushes its function
    before its argument; that order fixes which failure is found first.
    """
    if g.variant.del_arity is None:
        raise VariantMismatch("prefix inference needs a signature with delimiters")
    labels, args = g.labels, g.args
    var_linked = g.variant.var_arity == 1
    del_linked = g.variant.del_arity == 2
    ABS, APP, DEL = Label.ABS, Label.APP, Label.DEL
    inner = [-2] * len(labels)
    inner[g.root] = -1
    worklist = [g.root]
    pop, push = worklist.pop, worklist.append
    while worklist:
        w = pop()
        x = inner[w]
        lab = labels[w]
        succ = args[w]
        if lab is APP:
            # Both successors get w's binder, the first pushed first.
            t = succ[0]
            old = inner[t]
            if old == -2:
                inner[t] = x
                push(t)
            elif old != x:
                return _failure("prefix-conflict", w, t)
            t = succ[1]
            value = x
        elif lab is ABS:
            t = succ[0]
            value = w
        elif lab is DEL:
            if x < 0:
                return _failure("delim-pop", w, succ[0])
            if del_linked and succ[1] != x:
                return _failure("delim-backlink", w, succ[1])
            t = succ[0]
            value = inner[x]
        else:
            if var_linked:
                if x < 0:
                    return _failure("var0", w)
                if succ[0] != x:
                    return _failure("var1", w, succ[0])
            continue
        old = inner[t]
        if old == -2:
            inner[t] = value
            push(t)
        elif old != value:
            return _failure("prefix-conflict", w, t)
    if -2 in inner:
        raise UnreachableVertex(name for name, x in zip(g.names, inner) if x == -2)
    if not var_linked:
        var0 = [w for w in g.vertices_labeled(Label.VAR) if inner[w] == -1]
        if var0:
            return None, ValidationReport(tuple(Violation("var0", (w,)) for w in var0))
    return inner, None


def _failure(condition: str, *witnesses: int) -> tuple[None, ValidationReport]:
    return None, ValidationReport((Violation(condition, witnesses),))


def is_lambda_term_graph(g: TermGraph) -> bool:
    """True iff the graph admits a correct abstraction-prefix function."""
    return _infer_inner(g)[0] is not None


@dataclass(frozen=True)
class DelimitedGraph:
    """A graph that passed prefix inference, with its innermost binders
    cached as ``_inner``.

    The constructor refuses a graph without a correct prefix function,
    and words other than the inferred ones (in any key order), naming
    the first vertex whose word differs; a word that is no tuple is kept
    as its tuple.  A graph that ``from_graph`` or ``_Builder`` made has
    its words derived from the binders on their first read (``_words``).
    """

    graph: TermGraph
    prefixes: dict[int, tuple[int, ...]] = field(hash=False)

    def __post_init__(self):
        if not {tuple}.issuperset(map(type, self.prefixes.values())):
            # A word given as a list, say, is read as its tuple, as
            # ``PrefixedGraph`` reads it, and kept as one.
            self.__dict__["prefixes"] = {v: tuple(word) for v, word in self.prefixes.items()}
        graph, prefixes = self.graph, self.prefixes
        inner = _inferred(graph)
        inferred = _words(inner)
        if inferred != prefixes:
            _check_prefix_domain(graph, prefixes)
            v = next(v for v in graph.vertices() if prefixes[v] != inferred[v])
            raise ValueError(f"not the inferred words: vertex {v} ({graph.names[v]}) gets another")
        self.__dict__["_inner"] = inner

    @classmethod
    def from_graph(cls, graph: TermGraph) -> "DelimitedGraph":
        return _trusted(cls, graph=graph, _inner=_inferred(graph))


def _inferred(graph: TermGraph) -> list[int]:
    """The graph's inferred innermost binders, or a ``ValueError`` naming
    why there are none."""
    inner, report = _infer_inner(graph)
    if inner is None:
        raise ValueError(f"not a valid delimited lambda graph: {report.violation_text(graph)}")
    return inner


class _Builder:
    """A delimited graph under construction, on dense ids.

    Each vertex has its label, its successor row (a tuple, extended as
    its successors are emitted) and its innermost binder, the last entry
    of its word or -1 for the empty word, at its id in the parallel lists
    ``labels``, ``succ`` and ``inner``.  A builder starts empty or seeded
    with the labels, rows, innermost binders and names of a leading run
    of vertices; each vertex after that run is appended to those lists by
    its emitter, with the base of its name in ``bases``, and names are
    minted only where they are first read (``core._minted_names``).
    """

    def __init__(self, labels=(), succ=(), names=(), inner=()):
        self.labels: list[Label] = list(labels)
        self.succ: list = list(succ)
        self.inner: list[int] = list(inner)
        self.names: tuple[str, ...] = tuple(names)
        self.bases: list[str] = []  # of the vertices after the named run

    def finish(self, root: int, variant: SignatureVariant) -> DelimitedGraph:
        """The built graph, once its recorded innermost binders equal the
        inferred ones.

        The correct prefix function is unique, so a builder that records
        any other binder for any vertex is refused.  Where inference
        fails, ``_inferred`` names its violation, or every vertex the root
        does not reach; where the arrays differ, the first vertex that
        differs, with both binders.  The graph's names and words are
        derived where they are first read.
        """
        graph = _trusted(
            TermGraph,
            variant=variant,
            labels=tuple(self.labels),
            args=tuple(self.succ),
            root=root,
            _unnamed=(self.names, self.bases),
        )
        inner = _inferred(graph)
        if inner != self.inner:
            names = graph.names
            v = next(v for v, x in enumerate(inner) if x != self.inner[v])
            recorded, inferred = (names[x] if x >= 0 else "()" for x in (self.inner[v], inner[v]))
            raise ValueError(f"recorded binder {recorded} of {names[v]} is not the inferred {inferred}")
        return _trusted(DelimitedGraph, graph=graph, _inner=self.inner)


# A graph that ``from_graph`` or ``_Builder.finish`` made has its words
# derived where they are first read: equivalence and sharing read labels
# and successors only.
_derived_field(DelimitedGraph, "prefixes", lambda x: _words(x._inner))


def is_fully_back_linked(g: DelimitedGraph) -> bool:
    """True iff the last abstraction of every nonempty prefix is reachable.

    Reachability is plain directed reachability, back-link edges included.
    A vertex whose word ends in v lies in v's body region, and v reaches
    every vertex of that region (see ``_reach_in_region``).  So the vertex
    reaches v iff both lie in one strongly connected component, and one
    component pass from the root decides every vertex (``_components``):
    O(n + m), given the innermost binders.
    """
    comp = _components(g.graph.args, g.graph.root)
    return all(comp[w] == comp[x] for w, x in enumerate(g._inner) if x >= 0)


def _components(args: Sequence[Sequence[int]], root: int) -> list[int]:
    """Each vertex's strongly connected component, named by the vertex
    of it that the search enters first, for the vertices the root
    reaches (-1 for the others): Tarjan's (1972) algorithm on an
    explicit stack, O(n + m).

    ``order`` numbers the vertices as the search enters them, and
    ``low[v]`` is the least number of an open vertex (entered, its
    component not yet closed) that v's search subtree has an edge to.  A
    vertex whose ``low`` is its own number closes its component: itself
    and the vertices entered since it that are still open.
    """
    n = len(args)
    order, low, comp = [-1] * n, [0] * n, [-1] * n
    order[root], entered = 0, 1
    stack, calls = [root], [(root, iter(args[root]))]
    while calls:
        v, edges = calls[-1]
        for w in edges:
            if order[w] < 0:
                order[w] = low[w] = entered
                entered += 1
                stack.append(w)
                calls.append((w, iter(args[w])))
                break
            if comp[w] < 0 and order[w] < low[v]:
                low[v] = order[w]
        else:
            calls.pop()
            if low[v] == order[v]:
                while comp[v] < 0:
                    comp[stack.pop()] = v
            elif low[v] < low[calls[-1][0]]:
                low[calls[-1][0]] = low[v]
    return comp


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
    exempt = None if strict else Label.DEL
    return _non_eager(graph.labels, graph.args, _predecessors(graph.args), g._inner, exempt)


def _non_eager(
    labels: Sequence[Label],
    args: Sequence[Sequence[int]],
    into: tuple[Sequence[Sequence[int]], Sequence[Sequence[int]]],
    inner: Sequence[int],
    exempt: Label | None,
) -> int | None:
    """``_non_eager_vertex`` on arrays, with ``into`` the rows'
    predecessor index (``core._predecessors``), checking the vertices
    that ``inner`` holds innermost binders for, 0 up to its length,
    except those labelled ``exempt``.

    The search reads no delimiter's binder where delimiters back-link
    (see ``_reach_in_region``).  So on a (1,2) graph whose delimiters
    have larger ids than every other vertex, the binders of the others
    suffice when delimiters are exempt: a group of the witness order
    whose smallest member is a delimiter holds only delimiters.
    """
    VAR = Label.VAR
    sources = [u for u, lab in enumerate(labels) if lab is VAR]
    reached = _reach_in_region(labels, args, into, sources, inner)
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
    labels: Sequence[Label],
    args: Sequence[Sequence[int]],
    into: tuple[Sequence[Sequence[int]], Sequence[Sequence[int]]],
    sources: list[int],
    inner: Sequence[int],
) -> set[int]:
    """The vertices that reach a source with their own word W through
    W's region, the vertices whose words extend W, read off the
    predecessor index ``into`` of the rows.

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

    So the search steps back from t along both edges into it from an
    application, to the application, and along a delimiter's pop edge,
    to the delimiter's back-link, or to its innermost binder where it
    has no back-link; every other edge into t is skipped.  Each step
    keeps word W, and no step reads a word's length.  The sets of
    vertices sharing a word are disjoint, so a search from sources with
    different words gives the union of the searches from each word's
    sources, and each vertex is visited once.
    """
    APP, DEL = Label.APP, Label.DEL
    into0, into1 = into
    seen = set(sources)
    stack = list(seen)
    while stack:
        t = stack.pop()
        for p in into0[t]:
            lab = labels[p]
            if lab is DEL:
                succ = args[p]
                p = succ[1] if len(succ) == 2 else inner[p]
            elif lab is not APP:
                continue
            if p not in seen:
                seen.add(p)
                stack.append(p)
        for p in into1[t]:
            if p not in seen and labels[p] is APP:
                seen.add(p)
                stack.append(p)
    return seen
