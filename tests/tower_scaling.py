"""Time the library's stages on towers of growing size.

    python3 tests/tower_scaling.py

The tower term ``\\x0. ... \\x{n-1}. x0 x1 ... x{n-1}`` nests n binders
and gives words of up to n entries, so any stage that builds a word per
vertex is quadratic on it.  For n = 1000, 2000 and 4000 this prints the
CPU time of ``parse_term`` on its text, which resolves every name and
fills the translator's table as it reads, of ``term_to_graph``, of
``collapse`` on its graph and of ``DelimitedGraph.from_graph`` on the
quotient, with no word read, and their sum, the library part of
``maxshare`` short of serializing.  At
the same sizes it prints the time of ``is_fully_back_linked`` on the
(1,1) tower ``\\x0. ... \\x{n-1}. x0``, translated with its delimiter
back-links erased, so that no vertex has an edge to its binder but the
variable.  For the hotg tower document (``generators.tower_doc``) at
n = 250, 500 and 1000 it prints the time of ``max_share_ho`` on the
validated input, with no scope of the result read; that input is
already Θ(n²).  Each time is
the median of ``ROUNDS`` runs, and each row after the first gives its
ratio to the row before, one doubling.  Informational: exits 0.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from generators import erase_backlinks, tower_doc  # noqa: E402

from lamgraph import DelimitedGraph, ScopedGraph, collapse, max_share_ho, parse_graph, parse_term  # noqa: E402
from lamgraph import is_fully_back_linked, term_to_graph  # noqa: E402

ROUNDS = 5


def tower_term(n: int) -> str:
    return "".join(f"\\x{i}. " for i in range(n)) + " ".join(f"x{i}" for i in range(n))


def timed(fn, *args):
    start = time.process_time()
    out = fn(*args)
    return out, time.process_time() - start


def term_stages(n: int) -> dict[str, float]:
    t, parse = timed(parse_term, tower_term(n))
    dg, translate = timed(term_to_graph, t)
    (quotient, _), shared = timed(collapse, dg.graph)
    _, infer = timed(DelimitedGraph.from_graph, quotient)
    return {"parse_term": parse, "term_to_graph": translate, "collapse": shared, "from_graph": infer}


def backlink_stages(n: int) -> dict[str, float]:
    t = parse_term("".join(f"\\x{i}. " for i in range(n)) + "x0")
    dg = DelimitedGraph.from_graph(erase_backlinks(term_to_graph(t).graph, 1, 1))
    return {"is_fully_back_linked": timed(is_fully_back_linked, dg)[1]}


def doc_stages(n: int) -> dict[str, float]:
    doc = parse_graph(tower_doc(n))
    h = ScopedGraph(doc.graph, doc.scopes)
    return {"max_share_ho": timed(max_share_ho, h)[1]}


def table(stages, sizes, total: bool) -> None:
    previous = None
    for n in sizes:
        runs = [stages(n) for _ in range(ROUNDS)]
        row = {name: statistics.median(run[name] for run in runs) for name in runs[0]}
        if total:
            row["total"] = sum(row.values())
        cells = [f"{name} {secs:.4f}s" for name, secs in row.items()]
        if previous:
            cells += [f"x{row[name] / previous[name]:.2f}" if previous[name] else "x-" for name in row]
        print(f"n={n:5d}  " + "  ".join(cells))
        previous = row


def main() -> None:
    print(f"Python {sys.version.split()[0]}, CPU seconds, median of {ROUNDS}")
    table(term_stages, (1000, 2000, 4000), total=True)
    table(backlink_stages, (1000, 2000, 4000), total=False)
    table(doc_stages, (250, 500, 1000), total=False)


if __name__ == "__main__":
    main()
