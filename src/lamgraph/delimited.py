"""First-order lambda term graphs with scope-delimiter vertices.

Here the prefix discipline is strict: abstraction and application edges
determine the successor's prefix exactly, and each delimiter vertex pops
exactly one abstraction off the word.  That rigidity makes the correct
prefix function unique, so membership in the class is decidable by one
forward propagation from the root.  Given the words, the eager-scope and
back-link checks group the vertices by their innermost binder and take
linear time.

This module also emits delimited graphs on integer ids: ``_Builder``
allocates vertices and mints their names, and its finish step infers
the words, so inference is the one source of a ``DelimitedGraph``'s
prefix function.  Both producers, ``term_to_graph`` and
``insert_delimiters``, build with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .core import DomainMismatch, Label, SignatureVariant, TermGraph, VariantMismatch, _reachable_keys
from .scoped import (
    PrefixFn,
    ValidationReport,
    Violation,
    _prefix_word_sanity,
    normalize_prefix_fn,
)
from .textfmt import RESERVED_NAMES


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
    """
    if g.variant.del_arity is None:
        raise VariantMismatch("prefix inference needs a signature with delimiters")
    prefixes: PrefixFn = {g.root: ()}
    worklist = [g.root]
    while worklist:
        w = worklist.pop()
        pw = prefixes[w]
        lab = g.labels[w]
        if lab is Label.ABS:
            forced = ((g.args[w][0], pw + (w,)),)
        elif lab is Label.APP:
            forced = ((g.args[w][0], pw), (g.args[w][1], pw))
        elif lab is Label.DEL:
            if not pw:
                return _failure("delim-pop", w, g.args[w][0])
            if g.variant.del_arity == 2 and g.args[w][1] != pw[-1]:
                return _failure("delim-backlink", w, g.args[w][1])
            forced = ((g.args[w][0], pw[:-1]),)
        else:
            if g.variant.var_arity == 1:
                if not pw:
                    return _failure("var0", w)
                if g.args[w][0] != pw[-1]:
                    return _failure("var1", w, g.args[w][0])
            continue
        for target, value in forced:
            if target in prefixes:
                if prefixes[target] != value:
                    return _failure("prefix-conflict", w, target)
            else:
                prefixes[target] = value
                worklist.append(target)
    # The words hold only vertices propagation reached, so the prefix
    # function is total iff it has a word for every vertex.  A successor
    # id below 0, which only a graph built without ``build`` can hold,
    # names no vertex, though indexing wraps it round to one.
    if len(prefixes) < g.vertex_count or min(prefixes) < 0:
        raise DomainMismatch("prefix function must be total on the vertex set")
    if g.variant.var_arity == 0:
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
    """A graph that passed prefix inference, with the prefixes cached."""

    graph: TermGraph
    prefixes: dict[int, tuple[int, ...]] = field(hash=False)

    @classmethod
    def from_graph(cls, graph: TermGraph) -> "DelimitedGraph":
        prefixes, report = infer_prefix(graph)
        if prefixes is None:
            raise ValueError(f"not a valid delimited lambda graph: {report.violation_text(graph)}")
        return cls(graph, prefixes)


class _Builder:
    """A delimited graph under construction, on dense ids.

    Each vertex has its label, its successors (filled in after the vertex
    is allocated) and a name for output.  A builder starts empty or
    seeded with a graph, whose vertices keep their ids; allocated
    vertices follow them.
    """

    def __init__(self, graph: TermGraph | None = None):
        self.labels: list[Label] = []
        self.succ: list[list[int] | None] = []
        self.names: list[str] = []
        if graph is not None:
            self.labels += graph.labels
            self.succ += map(list, graph.args)
            self.names += graph.names
        # Minting never reuses a seeded name, nor one the document format
        # cannot express (a binder may be called "scope" or "root").
        self.taken: set[str] = set(RESERVED_NAMES).union(self.names)
        self.counts: dict[str, int] = {}

    def fresh_name(self, base: str) -> str:
        """``base`` itself, or else ``base.j`` for the smallest free j >= 2.

        Every ``base.j`` with j up to ``counts[base]`` is taken, so the
        search resumes there.
        """
        n = self.counts.get(base, 0) + 1
        name = base if n == 1 else f"{base}.{n}"
        while name in self.taken:
            n += 1
            name = f"{base}.{n}"
        self.counts[base] = n
        self.taken.add(name)
        return name

    def alloc(self, base: str, label: Label) -> int:
        v = len(self.labels)
        self.labels.append(label)
        self.succ.append(None)
        self.names.append(self.fresh_name(base))
        return v

    def finish(self, root: int, variant: SignatureVariant) -> DelimitedGraph:
        """The built graph, with its words inferred by ``from_graph``.

        Every vertex must be reachable from ``root``.
        """
        graph = TermGraph(
            variant=variant,
            labels=tuple(self.labels),
            args=tuple(map(tuple, self.succ)),
            root=root,
            names=tuple(self.names),
        )
        return DelimitedGraph.from_graph(graph)


def is_fully_back_linked(g: DelimitedGraph) -> bool:
    """True iff the last abstraction of every nonempty prefix is reachable.

    Reachability is plain directed reachability, back-link edges included.
    Vertices are grouped by their innermost binder v, and each group takes
    one backward search from v through v's body region (see
    ``_reach_in_region``): O(n + m) in all, given the words.  A group with
    a member left unreached searches again over the whole graph, without
    the region search's jump, O(n + m) more; on eager (1,2) graphs no
    group does.
    """
    graph, prefixes = g.graph, g.prefixes
    preds = _predecessors(graph)
    for v, members in _by_binder(prefixes).items():
        k = len(prefixes[v]) + 1
        # A predecessor of v lies in v's body region only if its innermost
        # binder is v: its word has k entries, as v's has k - 1.
        entries = [p for p in preds[v] if prefixes[p][-1:] == (v,)]
        reached = _reach_in_region(preds, prefixes, k, entries)
        if any(w not in reached for w in members):
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

    Vertices with the same innermost binder share that search region, so
    one backward search per binder decides them all, and each search
    visits only its own group (see ``_reach_in_region``): O(n + m),
    given the words.
    """
    return _non_eager_vertex(g, strict) is None


def _non_eager_vertex(g: DelimitedGraph, strict: bool = False) -> int | None:
    """A vertex that violates the eager-scope condition, or None.

    Groups are taken in the order of their smallest member, and members
    in ascending id order.
    """
    if g.graph.variant.var_arity != 1:
        raise VariantMismatch("eager-scope is defined only with variable back-links")
    graph, prefixes = g.graph, g.prefixes
    labels = graph.labels
    preds = _predecessors(graph)
    for v, members in _by_binder(prefixes).items():
        # A variable back-linking to v lies in v's body region only if its
        # innermost binder is v (its word ends in v, and words are
        # repeat-free).
        uses = [u for u in members if labels[u] is Label.VAR]
        reached = _reach_in_region(preds, prefixes, len(prefixes[v]) + 1, uses)
        for w in members:
            if w not in reached and (strict or labels[w] is not Label.DEL):
                return w
    return None


def _non_eager_reason(g: DelimitedGraph, w: int) -> str:
    names = g.graph.names
    binder = names[g.prefixes[w][-1]]
    return f"{names[w]} reaches no occurrence of {binder} within its scope"


def _predecessors(graph: TermGraph) -> list[list[int]]:
    preds: list[list[int]] = [[] for _ in graph.vertices()]
    for u, succ in enumerate(graph.args):
        for t in succ:
            preds[t].append(u)
    return preds


def _by_binder(prefixes: PrefixFn) -> dict[int, list[int]]:
    """The vertices with a nonempty prefix, grouped by their innermost
    binder, the last entry of their word.

    A word ending in v is P(v)·v, so the binder identifies the word.
    Vertices are taken in ascending id order, whatever the order of the
    prefix function's keys, so the eager check's witness does not depend
    on the order in which inference found the words.
    """
    groups: dict[int, list[int]] = {}
    for w in range(len(prefixes)):
        word = prefixes[w]
        if word:
            groups.setdefault(word[-1], []).append(w)
    return groups


def _reach_in_region(
    preds: list[list[int]], prefixes: PrefixFn, k: int, sources: list[int]
) -> set[int]:
    """The vertices with the sources' word W, of ``k`` entries, that reach
    a source through W's region, the vertices whose words extend W.

    With a correct prefix function an edge keeps, pushes or pops one word
    entry, so a predecessor of a vertex in W's region is in it iff its
    word has at least k entries.  One with more lies in the body region
    of u = its word's entry k, an abstraction with word W, and the search
    steps straight to u.  That loses nothing.  Every vertex is reachable
    from the root, whose word is empty, and the only edge into u's body
    region from outside is u's body edge (a kept or popped word extends
    W·u only if the source's does, and pushing gives W·u only at u).  So
    a root path to a vertex of the region enters it last through u: u
    reaches every vertex of the region without leaving it, and a vertex
    with word W reaches the region only through u.  The search therefore
    visits only vertices with word W, each scanning its predecessors once.
    """
    seen = set(sources)
    stack = list(seen)
    while stack:
        u = stack.pop()
        for p in preds[u]:
            word = prefixes[p]
            if len(word) > k:
                p = word[k]
            elif len(word) < k:
                continue
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen
