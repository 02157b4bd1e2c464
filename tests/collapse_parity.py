"""Check ``coarsest_partition`` against naive signature refinement.

    python3 tests/collapse_parity.py [--inputs N] [--seed S]

Draws N term graphs (default 20000), input i under seed S + i (default
S = 2300), taking turns over five kinds:

- ``random``: ``random_graph`` of up to 60 vertices over one of the six
  variants;
- ``skewed``: a graph of up to 60 vertices over one of the six variants
  in which one label the variant allows has the strictly largest class,
  the class that ``_refine`` never takes as a splitter; on a (0,·)
  variant that label is often the variables, whose rows are empty;
- ``uniform``: a graph of one label only, so the skipped class is the
  only class;
- ``term``: the translation of a random term, a (1,2) graph;
- ``quotient``: a random quotient of such a translation, between it and
  its collapse.

``coarsest_partition`` and ``oracles.signature_refinement_partition``
must give equal partitions: the same block of every vertex, numbered by
first visit, and the same block count.  Exits 1 at the first input
where they differ, naming the seed; otherwise prints, per kind, how many
inputs and vertices were checked.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from generators import ALL_VARIANTS, random_graph, random_quotient, random_term  # noqa: E402
from oracles import signature_refinement_partition  # noqa: E402

from lamgraph import (  # noqa: E402
    Label,
    SignatureVariant,
    TermGraph,
    build_pruned,
    coarsest_partition,
    term_to_graph,
)

KINDS = ("random", "skewed", "uniform", "term", "quotient")
MAX_VERTICES = 60


def allowed_labels(variant: SignatureVariant) -> list[Label]:
    return [lab for lab in Label if variant.allows(lab)]


def labeled_graph(rng: random.Random, variant: SignatureVariant, labels: list[Label]) -> TermGraph:
    """Vertex i takes ``labels[i]`` and random successors; the root is
    vertex 0, and the vertices it does not reach are dropped."""
    names = [f"n{i}" for i in range(len(labels))]
    succ = {
        name: [rng.choice(names) for _ in range(variant.arity(lab))]
        for name, lab in zip(names, labels)
    }
    return build_pruned(variant, dict(zip(names, labels)), succ, names[0])[0]


def skewed_graph(
    rng: random.Random, variant: SignatureVariant, label: Label, max_vertices: int = MAX_VERTICES
) -> TermGraph:
    """A graph over ``variant`` of at most ``max_vertices`` vertices whose
    ``label`` class is strictly larger than every other class.  The
    root's label is drawn evenly, so a label of arity 0 need not make a
    one-vertex graph; the other vertices take ``label`` with probability
    0.7.  Drawn again until the class is the largest."""
    allowed = allowed_labels(variant)
    while True:
        n = rng.randint(1, max_vertices)
        labels = [rng.choice(allowed)]
        labels += [label if rng.random() < 0.7 else rng.choice(allowed) for _ in range(n - 1)]
        g = labeled_graph(rng, variant, labels)
        sizes = Counter(g.labels)
        if all(sizes[label] > k for lab, k in sizes.items() if lab is not label):
            return g


def skewed_input(rng: random.Random) -> TermGraph:
    variant = rng.choice(ALL_VARIANTS)
    return skewed_graph(rng, variant, rng.choice(allowed_labels(variant)))


def uniform_input(rng: random.Random) -> TermGraph:
    variant = rng.choice(ALL_VARIANTS)
    label = rng.choice(allowed_labels(variant))
    return labeled_graph(rng, variant, [label] * rng.randint(1, MAX_VERTICES))


def term_input(rng: random.Random) -> TermGraph:
    return term_to_graph(random_term(rng, depth=rng.randint(1, 5))).graph


DRAW = {
    "random": lambda rng: random_graph(rng, max_vertices=MAX_VERTICES),
    "skewed": skewed_input,
    "uniform": uniform_input,
    "term": term_input,
    "quotient": lambda rng: random_quotient(term_input(rng), rng)[0],
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=2300)
    args = parser.parse_args(argv)
    inputs, vertices = Counter(), Counter()
    for i, seed in enumerate(range(args.seed, args.seed + args.inputs)):
        kind = KINDS[i % len(KINDS)]
        g = DRAW[kind](random.Random(seed))
        got, want = coarsest_partition(g), signature_refinement_partition(g)
        if got != want:
            print(f"seed {seed} ({kind}): coarsest_partition and signature refinement differ on {g!r}")
            print(f"  coarsest_partition: {got!r}\n  signature:          {want!r}")
            return 1
        inputs[kind] += 1
        vertices[kind] += g.vertex_count
    tally = "; ".join(f"{k} {inputs[k]} inputs, {vertices[k]} vertices" for k in KINDS)
    last = args.seed + args.inputs - 1
    print(f"{args.inputs} inputs (seeds {args.seed}-{last}): all agree; {tally}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
