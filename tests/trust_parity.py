"""Check the validating constructors against the validators.

    python3 tests/trust_parity.py [--inputs N] [--seed S]

Draws N hand-built inputs (default 20000), input i under seed S + i
(default S = 2000), taking turns over four kinds, and every fourth seed
also draws a ``rows`` input:

- ``scope``: a scope function on a delimiter-free graph, ``ScopedGraph``
  against ``validate_scope``;
- ``prefix``: a prefix function on a delimiter-free graph,
  ``PrefixedGraph`` against ``validate_prefix_ho``;
- ``ids``: a graph's fields with a successor or root id moved, maybe out
  of 0..n-1, ``TermGraph`` against a scan of the ids and then a search
  from the root, since a moved id may leave a vertex unreached;
- ``words``: a delimited graph with words, ``DelimitedGraph`` against
  ``infer_prefix``;
- ``rows``: a graph's labels and successor rows with one label, one
  successor count or one successor changed, or one vertex renamed to
  another's name, or none, ``TermGraph`` against ``build`` on the same
  rows: both run ``core._check_rows``.  ``build``'s maps are keyed by
  name, so for a shared name the refusal naming both vertices is
  written out instead.

Half the annotations are random; the others are a valid one, from a
translated term, with at most one entry changed.  Now and then a scope
or prefix function also loses a key or gains an entry that names no
vertex.  A constructor must
refuse exactly the inputs its validator refuses, with the validator's
violations, or for ids and words the first id or vertex at fault (for
ids, then every vertex the root misses); for rows, with the exception
type and message of ``build``, which name the same vertex.  A
``TermGraph`` it takes must equal ``build``'s graph of the same rows.
A ``ScopedGraph`` it takes
must keep the binder tree of the scopes inverted from scratch: per
vertex, the abstractions whose scope holds it, by decreasing scope
size and then ascending id, end in the vertex's innermost binder, its
``_inner`` entry (after the vertex itself, for an abstraction), and
``binders``, which walks that tree, must give those lists.
Exits 1 at the first input where they differ, naming the seed and the
input; otherwise prints, per kind, how many inputs were taken and how
many refused.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from generators import erase_backlinks, random_graph, random_term  # noqa: E402

from lamgraph import (  # noqa: E402
    DelimitedGraph,
    DomainMismatch,
    GraphError,
    Label,
    PrefixedGraph,
    ScopedGraph,
    TermGraph,
    UnreachableVertex,
    binders,
    build,
    infer_prefix,
    prefix_to_scope,
    strip_delimiters,
    term_to_graph,
    validate_prefix_ho,
    validate_scope,
)

KINDS = ("scope", "prefix", "ids", "words", "rows")


def verdict(make, *args):
    """``None`` if ``make`` takes the input, else its refusal's type and
    message; for a ``ScopedGraph`` taken with another binder tree or
    other binders than ``rank_order_lists`` gives, the tree or the
    binders, and for a ``TermGraph`` other than ``build``'s, the graph."""
    try:
        made = make(*args)
    except (GraphError, ValueError, TypeError) as exc:
        return type(exc), str(exc)
    if make is TermGraph:
        try:
            built = build(*as_maps(*args))
        except (GraphError, TypeError) as exc:
            built = exc
        if made != built:
            return "graph", made
    if make is ScopedGraph:
        g, sc = args
        lists = rank_order_lists(g, sc)
        inner = [next((v for v in reversed(vs) if v != u), -1) for u, vs in enumerate(lists)]
        if made._inner != inner:
            return "binder tree", made._inner
        found = [binders(made, u) for u in g.vertices()]
        if found != lists:
            return "binders", found
    return None


def as_maps(variant, labels, args, root, names):
    """``TermGraph``'s fields as ``build``'s arguments, keyed by name."""
    succ = {name: [names[t] for t in row] for name, row in zip(names, args)}
    return variant, dict(zip(names, labels)), succ, names[root]


def rank_order_lists(g, sc):
    """Per vertex, the abstractions whose scope holds it, by decreasing
    scope size and then ascending id."""
    return [
        sorted((v for v in sc if u in sc[v]), key=lambda v: (-len(sc[v]), v)) for u in g.vertices()
    ]


def refusal(validate, g, fn, what):
    """The refusal a constructor owes the input that ``validate`` judges:
    the validator's own domain error, or its violations."""
    try:
        report = validate(g, fn)
    except DomainMismatch as exc:
        return DomainMismatch, str(exc)
    return None if report.passed else (ValueError, f"{what}: {report.violation_text(g)}")


def off_domain(rng, g, fn, freeze):
    """fn, or now and then fn with a key dropped or an entry that names
    no vertex."""
    if fn and rng.random() < 0.1:
        fn.pop(rng.choice(sorted(fn)))
    elif fn and rng.random() < 0.1:
        v = rng.choice(sorted(fn))
        fn[v] = freeze((*fn[v], rng.choice((-1, g.vertex_count))))
    return fn


def translated(rng):
    """A valid delimited graph of a random variant, from a random term."""
    dg = term_to_graph(random_term(rng, depth=rng.randint(1, 4)))
    i, j = rng.choice([(0, 1), (0, 2), (1, 1), (1, 2)])
    return dg if (i, j) == (1, 2) else DelimitedGraph.from_graph(erase_backlinks(dg.graph, i, j))


def delimiter_free(rng):
    """A delimiter-free graph with no annotation, or a valid prefix
    function with its graph."""
    if rng.random() < 0.5:
        a = strip_delimiters(translated(rng))
        return a.graph, a.prefixes
    while True:
        g = random_graph(rng, max_vertices=8)
        if g.variant.del_arity is None:
            return g, None


def scope_input(rng):
    g, prefixes = delimiter_free(rng)
    abstractions = g.vertices_labeled(Label.ABS)
    if prefixes is None:
        vertices = list(g.vertices())
        sc = {v: frozenset(u for u in vertices if rng.random() < 0.4) | {v} for v in abstractions}
    else:
        sc = dict(prefix_to_scope(PrefixedGraph(g, prefixes)).scopes)
    if sc and rng.random() < 0.5:
        v = rng.choice(abstractions)
        sc[v] ^= {rng.randrange(g.vertex_count)}
    sc = off_domain(rng, g, sc, frozenset)
    return (ScopedGraph, g, sc), refusal(validate_scope, g, sc, "invalid scope function")


def prefix_input(rng):
    g, prefixes = delimiter_free(rng)
    abstractions = g.vertices_labeled(Label.ABS)
    if prefixes is None:
        prefixes = {
            w: tuple(rng.sample(abstractions, rng.randint(0, min(2, len(abstractions)))))
            for w in g.vertices()
        }
    p = dict(prefixes)
    if abstractions and rng.random() < 0.5:
        w = rng.randrange(g.vertex_count)
        p[w] = p[w][:-1] if p[w] and rng.random() < 0.5 else p[w] + (rng.choice(abstractions),)
    p = off_domain(rng, g, p, tuple)
    if rng.random() < 0.2:
        # Words as lists: the validator reads each as its tuple, and so
        # must the constructor.
        p = {w: list(word) for w, word in p.items()}
    return (PrefixedGraph, g, p), refusal(validate_prefix_ho, g, p, "invalid prefix function")


def ids_input(rng):
    g = random_graph(rng, max_vertices=8)
    n = g.vertex_count
    args, root = [list(succ) for succ in g.args], g.root
    moved = rng.randint(-2, n + 1)
    edges = [(w, k) for w, succ in enumerate(args) for k in range(len(succ))]
    if edges and rng.random() < 0.8:
        w, k = rng.choice(edges)
        args[w][k] = moved
    else:
        root = moved
    made = (TermGraph, g.variant, g.labels, tuple(map(tuple, args)), root, g.names)
    bad = [(w, t) for w, succ in enumerate(args) for t in succ if not 0 <= t < n]
    if not 0 <= root < n:
        return made, (DomainMismatch, f"root id {root} names no vertex")
    if bad:
        w, t = bad[0]
        return made, (DomainMismatch, f"successor id {t} of {g.names[w]} names no vertex")
    reached, stack = {root}, [root]
    while stack:
        for t in args[stack.pop()]:
            if t not in reached:
                reached.add(t)
                stack.append(t)
    if len(reached) < n:
        unreached = [g.names[v] for v in range(n) if v not in reached]
        return made, (UnreachableVertex, f"vertices not reachable from the root: {unreached}")
    return made, None


def words_input(rng):
    if rng.random() < 0.5:
        dg = translated(rng)
        g, words = dg.graph, dict(dg.prefixes)
    else:
        while True:
            g = random_graph(rng, max_vertices=8)
            if g.variant.del_arity is not None:
                break
        inferred, _ = infer_prefix(g)
        words = dict(inferred or {v: () for v in g.vertices()})
    abstractions = g.vertices_labeled(Label.ABS)
    if abstractions and rng.random() < 0.5:
        w = rng.randrange(g.vertex_count)
        words[w] = words[w] + (rng.choice(abstractions),)
    inferred, report = infer_prefix(g)
    made = (DelimitedGraph, g, words)
    if inferred is None:
        return made, (ValueError, f"not a valid delimited lambda graph: {report.violation_text(g)}")
    if inferred != words:
        v = next(v for v in g.vertices() if words[v] != inferred[v])
        return made, (ValueError, f"not the inferred words: vertex {v} ({g.names[v]}) gets another")
    return made, None


def rows_input(rng):
    g = random_graph(rng, max_vertices=8)
    n = g.vertex_count
    labels, args, names = list(g.labels), [list(row) for row in g.args], list(g.names)
    v, change = rng.randrange(n), rng.random()
    if change < 0.3:
        labels[v] = rng.choice((*Label, "lam", None))
    elif change < 0.45 and args[v]:
        del args[v][rng.randrange(len(args[v]))]
    elif change < 0.6:
        args[v].insert(rng.randint(0, len(args[v])), rng.randrange(n))
    elif change < 0.75 and args[v]:
        args[v][rng.randrange(len(args[v]))] = rng.randrange(n)
    elif change < 0.9 and n > 1:
        # One vertex takes another's name: build's maps, keyed by name,
        # cannot hold that, so the refusal is written out here.
        u, w = rng.sample(range(n), 2)
        names[w] = names[u]
        fields = (g.variant, tuple(labels), tuple(map(tuple, args)), g.root, tuple(names))
        shared = f"vertices {min(u, w)} and {max(u, w)} share the name {names[u]!r}"
        return (TermGraph, *fields), (DomainMismatch, shared)
    fields = (g.variant, tuple(labels), tuple(map(tuple, args)), g.root, tuple(names))
    want = verdict(build, *as_maps(*fields))
    return (TermGraph, *fields), want


DRAW = {"scope": scope_input, "prefix": prefix_input, "ids": ids_input, "words": words_input, "rows": rows_input}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=2000)
    args = parser.parse_args(argv)
    taken, refused = Counter(), Counter()
    for i, seed in enumerate(range(args.seed, args.seed + args.inputs)):
        for kind in (KINDS[i % 4], "rows") if i % 4 == 0 else (KINDS[i % 4],):
            (make, *fields), want = DRAW[kind](random.Random(seed))
            got = verdict(make, *fields)
            if got != want:
                print(f"seed {seed} ({kind}): {make.__name__} and its validator differ on {fields!r}")
                print(f"  constructor: {got!r}\n  validator:   {want!r}")
                return 1
            (taken if got is None else refused)[kind] += 1
    counts = ", ".join(f"{k} {taken[k]} taken / {refused[k]} refused" for k in KINDS)
    last = args.seed + args.inputs - 1
    print(f"{args.inputs} inputs (seeds {args.seed}-{last}): all agree; {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
