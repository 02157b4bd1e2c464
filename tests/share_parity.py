"""Check ``max_share_ho`` against its stepwise composition.

    python3 tests/share_parity.py [--inputs N] [--seed S]

Draws N scope-function graphs with variable back-links (default 20000),
input i under seed S + i (default S = 2100), taking turns over four
kinds:

- ``term``: the scopes of a translated random term, eager by
  construction;
- ``doc``: a ring or tower document of size 2 to 12, and every 25th
  one of size 32 to 96, whose towers have long delimiter chains and
  deep walks; rings share, towers do not;
- ``lazy``: a translated term's prefix words with up to three vertices'
  words lengthened as far as their predecessors allow, an abstraction's
  variables following it, taken where the constructors take them;
  about a fifth are not eager;
- ``hand``: a random scope function on a random carrier, drawn until
  ``ScopedGraph`` takes one; now and then the carrier holds a vertex
  the root does not reach, which the ``TermGraph`` constructor must
  refuse with ``UnreachableVertex``, and that refusal is the input's
  outcome.

``max_share_ho`` and ``oracles.stepwise_max_share_ho`` must give an
equal ``ScopedGraph`` with the same ``serialize_graph`` text, or both
raise ``NotEagerScope`` with the same message and vertex, or both
refuse the input with the same error.  Where they
share, the input's carrier must map onto the result's by a homomorphism
that lifts to the scopes.  The replay's first-order step,
``insert_delimiters``, must give the words that ``infer_prefix`` finds
on its output, which the library derives from each vertex's innermost
binder instead.  Exits 1 at the first input where any of
this fails, naming the seed; otherwise prints, per kind, how many
inputs were shared, not eager or refused.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from generators import random_graph, random_scopes, random_term, ring_doc, tower_doc  # noqa: E402
from oracles import stepwise_max_share_ho  # noqa: E402

from lamgraph import (  # noqa: E402
    GraphDocument,
    GraphError,
    Label,
    NotEagerScope,
    PrefixedGraph,
    ScopedGraph,
    SignatureVariant,
    find_homomorphism,
    infer_prefix,
    insert_delimiters,
    lift_homomorphism,
    max_share_ho,
    parse_graph,
    prefix_to_scope,
    scope_to_prefix,
    serialize_graph,
    strip_delimiters,
    TermGraph,
    UnreachableVertex,
    term_to_graph,
)
from lamgraph.core import _trusted  # noqa: E402

KINDS = ("term", "doc", "lazy", "hand")
VERDICTS = ("shared", "not eager", "refused")


def translated(rng):
    """The stripped translation of a random term, with its words."""
    return strip_delimiters(term_to_graph(random_term(rng, depth=rng.randint(1, 4))))


def term_input(rng):
    return prefix_to_scope(translated(rng))


def doc_input(rng, wide=False):
    family = rng.choice((ring_doc, tower_doc))
    doc = parse_graph(family(rng.randint(32, 96) if wide else rng.randint(2, 12)))
    return ScopedGraph.checked(doc.graph, doc.scopes)


def lazy_input(rng):
    while True:
        a = translated(rng)
        g, p = a.graph, dict(a.prefixes)
        ABS, VAR = Label.ABS, Label.VAR
        preds = [[] for _ in g.vertices()]
        for u, succ in enumerate(g.args):
            for t in succ:
                preds[t].append(u)
        movable = [w for w in g.vertices() if w != g.root and g.labels[w] is not VAR]
        for w in rng.sample(movable, min(len(movable), rng.randint(1, 3))):
            # The longest common prefix of the words w's edges come from.
            words = [p[u] + (u,) if g.labels[u] is ABS else p[u] for u in preds[w]]
            words = [word for u, word in zip(preds[w], words) if g.labels[u] is not VAR]
            n = min(map(len, words))
            while any(word[:n] != words[0][:n] for word in words):
                n -= 1
            p[w] = words[0][:n]
            if g.labels[w] is ABS:
                for u in preds[w]:
                    if g.labels[u] is VAR:
                        p[u] = p[w] + (w,)
        try:
            return ScopedGraph(g, prefix_to_scope(PrefixedGraph(g, p)).scopes)
        except ValueError:
            continue


def hand_input(rng):
    """A ``ScopedGraph``, or the constructor's refusal of a carrier with
    a vertex the root does not reach where the scope function drawn for
    it would be taken."""
    while True:
        g = random_graph(rng, max_vertices=8)
        if g.variant != SignatureVariant(1):
            continue
        refusal = None
        if rng.random() < 0.2:
            # A copy of a vertex that nothing points to: the constructor
            # must refuse it.  The scope function is then drawn and
            # judged on the unchecked carrier.
            v = rng.randrange(g.vertex_count)
            copy = g.names[v] + "'"
            fields = dict(
                variant=g.variant,
                labels=g.labels + (g.labels[v],),
                args=g.args + (g.args[v],),
                root=g.root,
                names=g.names + (copy,),
            )
            try:
                TermGraph(**fields)
            except UnreachableVertex as exc:
                refusal = exc
            if refusal is None or refusal.vertices != (copy,):
                raise AssertionError(f"TermGraph did not refuse exactly the unreached vertex {copy}")
            g = _trusted(TermGraph, **fields)
        try:
            h = ScopedGraph(g, random_scopes(rng, g))
        except ValueError:
            continue
        return h if refusal is None else refusal


DRAW = {"term": term_input, "doc": doc_input, "lazy": lazy_input, "hand": hand_input}


def outcome(share, h: ScopedGraph) -> tuple:
    """What ``share`` makes of h: the result with its document text, or
    the refusal's type, message and vertex.  An input refused where it
    was made is refused alike by every route."""
    if isinstance(h, UnreachableVertex):
        return ("refused", UnreachableVertex, str(h))
    try:
        result = share(h)
    except NotEagerScope as exc:
        return ("not eager", str(exc), exc.vertex)
    except GraphError as exc:
        return ("refused", type(exc), str(exc))
    return ("shared", result, serialize_graph(GraphDocument(result.graph, scopes=result.scopes)))


def projection_lifts(h: ScopedGraph, result: ScopedGraph) -> bool:
    """Does h's carrier map onto the result's by a homomorphism that
    maps each scope onto its image's scope?"""
    m = find_homomorphism(h.graph, result.graph)
    return m is not None and lift_homomorphism(m, h, result)


def inserted_words_are_inferred(h: ScopedGraph) -> bool:
    """Does the delimited form the stepwise replay makes of h carry the
    words that inference finds?"""
    d = insert_delimiters(scope_to_prefix(h), 2)
    return d.prefixes == infer_prefix(d.graph)[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=2100)
    args = parser.parse_args(argv)
    counts = Counter()
    for i, seed in enumerate(range(args.seed, args.seed + args.inputs)):
        kind = KINDS[i % len(KINDS)]
        rng = random.Random(seed)
        try:
            if kind == "doc" and i // len(KINDS) % 25 == 24:
                h = doc_input(rng, wide=True)
            else:
                h = DRAW[kind](rng)
        except AssertionError as exc:
            print(f"seed {seed} ({kind}): {exc}")
            return 1
        got, want = outcome(max_share_ho, h), outcome(stepwise_max_share_ho, h)
        if got != want:
            print(f"seed {seed} ({kind}): max_share_ho and its steps differ on {h!r}")
            print(f"  array route: {got!r}\n  steps:       {want!r}")
            return 1
        if got[0] == "shared" and not projection_lifts(h, got[1]):
            print(f"seed {seed} ({kind}): the projection does not lift on {h!r}")
            return 1
        if isinstance(h, ScopedGraph) and not inserted_words_are_inferred(h):
            print(f"seed {seed} ({kind}): the inserted delimiters' words are not the inferred ones on {h!r}")
            return 1
        counts[kind, got[0]] += 1
    tally = "; ".join(
        f"{k} " + ", ".join(f"{counts[k, verdict]} {verdict}" for verdict in VERDICTS)
        for k in KINDS
    )
    last = args.seed + args.inputs - 1
    print(f"{args.inputs} inputs (seeds {args.seed}-{last}): all agree; {tally}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
