"""Check that ``term_to_graph`` emits eager, fully back-linked graphs,
and exactly the graphs of the name-keyed reference translator.

    python3 tests/translate_parity.py [--terms N] [--seed S]

``term_to_graph`` checks its output with one pass over each vertex's
innermost binder, and derives the words from those binders when they
are read.  The paper's eager translation yields eager (1,2)
lambda-term-graphs by construction, so the library runs no eager check
on them; this script is the guard that claim rests on.  It translates
N random terms (default 20000), term i drawn by ``random_term`` under
seed S + i (default S = 2200); then N more from the same seeds with
``splice``, whose letrec bindings may be letrecs that the parser splices
into the enclosing group; then the fixture terms and ``SCOPING_TERMS``,
whose letrec names shadow as random terms' never do.  It requires of
each output:

- the signature variant (1,2);
- a ``validate_prefix_fo`` report on its words that passes;
- words equal to those ``infer_prefix`` finds, which no library route
  computes for a translation;
- ``is_eager_scope``;
- ``is_fully_back_linked``;
- equality with ``oracles.name_keyed_term_to_graph``, the translator
  on vertex names with free-binder sets that the library's replaced:
  the same labels, successors, root, vertex names and words;
- one table on both of the translator's routes: the one the parser's
  scan leaves on ``parse_term(format_term(t))`` equals, field for
  field, the one ``translate._walk`` makes of a copy of t, and the two
  translate to the same graph;
- the term read back from that table: a root that ``parse_term``
  returns holds its table alone, and its first read, ``==`` on one
  parse and ``hash`` on another, must find it equal to t, with t's hash.

Full back-linking follows from eagerness.  Take a vertex w with word W
and v = W[-1]: a variable back-links to v (condition var1), a
delimiter back-links to v (condition delim-backlink), and any other
vertex reaches, inside W's region, a variable that back-links to v,
since the graph is eager.  So w reaches v in every case.  It is
checked all the same, as the library checks neither.

Exits 1 at the first term whose translation fails a check, or whose
translation raises, naming the seed (or the fixture term) and the
witness vertex or the first field that differs from the reference or
between the routes; otherwise prints how many terms, vertices and
delimiters were checked.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from generators import COLLIDING_TERMS, FIXTURE_TERMS, SCOPING_TERMS, random_term  # noqa: E402
from oracles import name_keyed_term_to_graph  # noqa: E402

from lamgraph import (  # noqa: E402
    Label,
    SignatureVariant,
    format_term,
    infer_prefix,
    is_eager_scope,
    is_fully_back_linked,
    parse_term,
    term_to_graph,
    validate_prefix_fo,
)
from lamgraph.delimited import _non_eager_reason, _non_eager_vertex  # noqa: E402
from lamgraph.terms import _Table  # noqa: E402
from lamgraph.translate import _walk  # noqa: E402


def failure(dg) -> tuple[int | None, str] | None:
    """The first check the translation ``dg`` fails, as its witness
    vertex (``None`` where the check names none) and a message; ``None``
    if it passes them all."""
    g, words = dg.graph, dg.prefixes
    if g.variant != SignatureVariant(1, 2):
        return None, f"the variant is {g.variant}, not (1,2)"
    report = validate_prefix_fo(g, words)
    if not report.passed:
        return report.violations[0].witnesses[0], report.violation_text(g)
    if infer_prefix(g)[0] != words:
        return None, "the words differ from the inferred ones"
    if not is_eager_scope(dg):
        w = _non_eager_vertex(dg)
        return w, "not eager-scope: " + _non_eager_reason(g.names, dg._inner, w)
    if not is_fully_back_linked(dg):
        return None, "not fully back-linked"
    return None


def difference(dg, want) -> str | None:
    """The first field in which the translation ``dg`` differs from the
    reference translation ``want``; ``None`` if they are equal."""
    g, h = dg.graph, want.graph
    for field in ("variant", "labels", "args", "root", "names"):
        if getattr(g, field) != getattr(h, field):
            return field
    return None if dg.prefixes == want.prefixes else "words"


def route_difference(t) -> str | None:
    """The first field in which the table the parser's scan leaves on
    ``t``'s printed form differs from the one the walker makes of ``t``,
    or in which the two routes' graphs differ; ``None`` if they agree."""
    parsed, walked = parse_term(format_term(t)), dataclasses.replace(t)
    tab, walk = parsed._table, _walk(walked)
    for field in _Table.__slots__:
        if getattr(tab, field) != getattr(walk, field):
            return f"table's {field}"
    field = difference(term_to_graph(parsed), term_to_graph(walked))
    return None if field is None else f"graph's {field}"


def readback_difference(t) -> str | None:
    """How the term read back from the scan's table of ``t``'s printed
    form differs from ``t``, each check the first read of a root just
    parsed; ``None`` if it does not."""
    text = format_term(t)
    parsed = parse_term(text)
    if set(vars(parsed)) != {"_table"}:
        return f"the parsed root holds {sorted(vars(parsed))} before any read"
    if parsed != t:
        return "term is not the term (==)"
    if hash(parse_term(text)) != hash(t):
        return "term's hash is not the term's"
    return None


def terms(seed: int, count: int):
    """``count`` random terms from ``seed`` on, ``count`` more with
    letrecs in binding position, then the fixture terms, each with the
    label a failure report names it by."""
    for splice in (False, True):
        for s in range(seed, seed + count):
            rng = random.Random(s)
            yield f"{'spliced ' * splice}seed {s}", random_term(rng, depth=rng.randint(1, 5), splice=splice)
    for text in FIXTURE_TERMS + COLLIDING_TERMS + SCOPING_TERMS:
        yield f"fixture term {text!r}", parse_term(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--terms", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=2200)
    args = parser.parse_args(argv)
    checked = vertices = delimiters = 0
    for label, t in terms(args.seed, args.terms):
        try:
            dg = term_to_graph(t)
        except Exception as exc:  # any raise on a closed term is a fault
            print(f"{label}: term_to_graph raised {exc!r} on {t!r}")
            return 1
        bad = failure(dg)
        if bad is not None:
            w, message = bad
            where = "" if w is None else f" at vertex {w} ({dg.graph.names[w]})"
            print(f"{label}: the translation fails{where}: {message}")
            return 1
        field = difference(dg, name_keyed_term_to_graph(t))
        if field is not None:
            print(f"{label}: the translation's {field} differ from the name-keyed reference's")
            return 1
        field = readback_difference(t)
        if field is not None:
            print(f"{label}: the read-back {field}")
            return 1
        field = route_difference(t)
        if field is not None:
            print(f"{label}: the parsed and the walked route differ in the {field}")
            return 1
        checked += 1
        vertices += dg.graph.vertex_count
        delimiters += len(dg.graph.vertices_labeled(Label.DEL))
    last = args.seed + args.terms - 1
    print(
        f"{checked} terms (seeds {args.seed}-{last}, plain and spliced; fixtures): all eager "
        f"(1,2), fully back-linked, valid, equal to the name-keyed reference and the same on "
        f"the parsed and the walked route, each read back from its table as itself; "
        f"{vertices} vertices, {delimiters} delimiters"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
