"""Check ``parse_graph`` against the name-keyed reference parser.

    python3 tests/parse_parity.py [--docs N] [--seed S]

Draws N documents (default 20000) from the CLI golden corpus, each
mutated one to three times by the CLI fuzz test's ``_mutate`` under
seed S + i (default S = 1900), and parses each with ``parse_graph`` and
with ``oracles.name_keyed_parse_graph``.  Both must give the same
document, the key order of its prefix and scope maps included, or raise
the same exception type with the same message and line number.  Exits 1
at the first divergence, naming the seed and the document; otherwise
prints how many documents parsed and how many were refused.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from oracles import name_keyed_parse_graph  # noqa: E402

from lamgraph import parse_graph  # noqa: E402


def outcome(parse, text: str) -> tuple:
    """What ``parse`` makes of ``text``: the document with its maps as
    item lists, or the exception's type, message and line number."""
    try:
        doc = parse(text)
    except Exception as exc:  # every refusal is compared, whatever its type
        return ("refused", type(exc), str(exc), getattr(exc, "line_no", None))
    items = [None if m is None else list(m.items()) for m in (doc.prefixes, doc.scopes)]
    return ("parsed", doc.graph, *items)


def corpus_docs() -> list[str]:
    """The graph documents of every CLI golden entry."""
    from test_cli_golden import ENTRIES, entry

    return [
        text
        for name in ENTRIES
        for file, text in entry(name)[0].items()
        if not file.endswith(".lam")
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--docs", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=1900)
    args = parser.parse_args(argv)
    from test_cli import _DOC_SNIPPETS, _mutate

    docs = corpus_docs()
    refused = 0
    for seed in range(args.seed, args.seed + args.docs):
        rng = random.Random(seed)
        text = _mutate(rng.choice(docs), _DOC_SNIPPETS, rng)
        ours, ref = outcome(parse_graph, text), outcome(name_keyed_parse_graph, text)
        if ours != ref:
            print(f"seed {seed}: parse_graph and the reference differ on {text!r}")
            print(f"  parse_graph: {ours!r}\n  reference:   {ref!r}")
            return 1
        refused += ours[0] == "refused"
    print(f"{args.docs} documents from {len(docs)} (seeds {args.seed}-{args.seed + args.docs - 1}): "
          f"all agree, {args.docs - refused} parsed, {refused} refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
