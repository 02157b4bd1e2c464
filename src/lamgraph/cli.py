"""Command-line interface.

Subcommands: validate, translate, collapse, maxshare, equiv, render.
Files are graph documents or term files depending on the subcommand;
``-`` reads stdin, at most once per run.  Exit codes: 0 success or
equivalent, 1 invalid or not equivalent, 2 usage or parse errors.  No
stage takes a Python frame per level of its input, so input of any
depth is taken at Python's default recursion limit (see the README).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial

from .core import GraphError, Label, SignatureVariant, VariantMismatch
from .delimited import DelimitedGraph, _infer_inner
from .dot import to_dot
from .scoped import (
    PrefixedGraph,
    ScopedGraph,
    ValidationReport,
    validate_prefix_ho,
    validate_scope,
)
from .sharing import are_bisimilar, collapse, max_share
from .terms import DuplicateBinding, TermSyntaxError, UnboundVariable, parse_term
from .textfmt import FormatError, GraphDocument, parse_graph, serialize_graph
from .transforms import (
    forget,
    insert_delimiters,
    prefix_to_scope,
    scope_to_prefix,
    strip_delimiters,
)
from .translate import DegenerateBinding, term_to_graph


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        self.code = code
        super().__init__(message)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_doc(path: str) -> GraphDocument:
    try:
        return parse_graph(_read(path))
    except (FormatError, GraphError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_term(path: str):
    try:
        return parse_term(_read(path))
    except (TermSyntaxError, UnboundVariable, DuplicateBinding) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _parse_variant(text: str) -> SignatureVariant:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return SignatureVariant(int(parts[0]))
        if len(parts) == 2:
            j = None if parts[1] in ("none", "") else int(parts[1])
            return SignatureVariant(int(parts[0]), j)
    except ValueError as exc:
        raise CliError(f"bad variant {text!r}: {exc}") from exc
    raise CliError(f"bad variant {text!r}")


def cmd_validate(args) -> int:
    doc = _load_doc(args.file)
    g = doc.graph
    if args.variant is not None and _parse_variant(args.variant) != g.variant:
        raise CliError(f"document has variant {g.variant}, expected {args.variant}", 1)
    # tg: parsing already established term graph validity.
    report = ValidationReport()
    if args.cls == "hotg":
        report = validate_scope(g, _scopes(doc, args.file, "validation"))
    elif args.cls == "aphotg":
        if doc.prefixes is None:
            raise CliError(f"{args.file}: aphotg validation needs prefix lines")
        report = validate_prefix_ho(g, doc.prefixes)
    elif args.cls == "ltg":
        try:
            report = _infer_inner(g)[1] or ValidationReport()
        except VariantMismatch as exc:
            raise CliError(f"{args.file}: {exc}", 1) from exc
    if args.json:
        payload = {
            "class": args.cls,
            "variant": str(g.variant),
            "verdict": "pass" if report.passed else "fail",
            "violations": [
                {
                    "condition": v.condition,
                    "witnesses": [g.names[w] for w in v.witnesses],
                }
                for v in report.violations
            ],
        }
        print(json.dumps(payload))
    else:
        print(report.describe(g))
    return 0 if report.passed else 1


_GRAPH_CLASSES = ("hotg", "aphotg", "ltg", "tg")


def _scopes(doc: GraphDocument, path: str, use: str) -> dict:
    """The document's scope function.  A graph without abstractions has
    the empty one, which ``serialize_graph`` writes as no scope lines,
    so such a document may have none."""
    if doc.scopes is not None:
        return doc.scopes
    if Label.ABS in doc.graph.labels:
        raise CliError(f"{path}: hotg {use} needs scope lines")
    return {}


def _doc_as(doc: GraphDocument, cls: str, path: str):
    # parse_graph has resolved the annotations to ids.
    g = doc.graph
    try:
        if cls == "hotg":
            return ScopedGraph(g, _scopes(doc, path, "input"))
        if cls == "aphotg":
            if doc.prefixes is None:
                raise CliError(f"{path}: aphotg input needs prefix lines")
            return PrefixedGraph(g, doc.prefixes)
        if cls == "ltg":
            return DelimitedGraph.from_graph(g)
    except (GraphError, ValueError) as exc:
        raise CliError(f"{path}: {exc}", 1) from exc
    return g


def cmd_translate(args) -> int:
    src, dst = args.source, args.target
    if src == "term":
        value = term_to_graph(_load_term(args.file))
    else:
        value = _doc_as(_load_doc(args.file), src, args.file)
    # Normalize to the requested representation, possibly through the
    # neighbouring ones: hotg <-> aphotg <-> ltg, and tg forgets.
    if src == "term":
        src = "ltg"
    to_ltg = partial(insert_delimiters, j=args.j)
    route = {
        ("hotg", "aphotg"): [scope_to_prefix],
        ("aphotg", "hotg"): [prefix_to_scope],
        ("aphotg", "ltg"): [to_ltg],
        ("ltg", "aphotg"): [strip_delimiters],
        ("hotg", "ltg"): [scope_to_prefix, to_ltg],
        ("ltg", "hotg"): [strip_delimiters, prefix_to_scope],
        ("hotg", "tg"): [forget],
        ("aphotg", "tg"): [forget],
        ("ltg", "tg"): [forget],
    }
    steps = [] if src == dst else route.get((src, dst))
    if src == dst == "ltg" and value.graph.variant.del_arity != args.j:
        steps = [strip_delimiters, to_ltg]
    if steps is None:
        raise CliError(f"no translation from {src} to {dst}")
    result = value
    for step in steps:
        result = step(result)
    print(_to_document_text(result), end="")
    return 0


def _to_document_text(x) -> str:
    if isinstance(x, ScopedGraph):
        return serialize_graph(GraphDocument(x.graph, scopes=x.scopes))
    if isinstance(x, (PrefixedGraph, DelimitedGraph)):
        return serialize_graph(GraphDocument(x.graph, prefixes=x.prefixes))
    return serialize_graph(x)


def cmd_collapse(args) -> int:
    doc = _load_doc(args.file)
    quotient, _ = collapse(doc.graph)
    print(serialize_graph(quotient), end="")
    return 0


def cmd_maxshare(args) -> int:
    shared = max_share(term_to_graph(_load_term(args.file)))
    print(_to_document_text(shared), end="")
    return 0


def cmd_equiv(args) -> int:
    if args.file1 == args.file2 == "-":
        raise CliError("stdin can be read only once: give at most one term as -")
    g1 = term_to_graph(_load_term(args.file1))
    g2 = term_to_graph(_load_term(args.file2))
    if are_bisimilar(g1.graph, g2.graph):
        print("equivalent")
        return 0
    print("not equivalent")
    return 1


def cmd_render(args) -> int:
    doc = _load_doc(args.file)
    print(to_dot(doc.graph, prefixes=doc.prefixes, scopes=doc.scopes), end="")
    return 0


@cache
def make_parser() -> argparse.ArgumentParser:
    # Built once per process: main reuses it on every call.
    parser = argparse.ArgumentParser(
        prog="lamgraph",
        description="term graph representations of cyclic lambda-terms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph document against a class")
    p.add_argument("--class", dest="cls", choices=_GRAPH_CLASSES, required=True)
    p.add_argument("--variant", help="expected signature variant i[,j]")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("translate", help="convert between representations")
    p.add_argument("--from", dest="source", choices=("term",) + _GRAPH_CLASSES, required=True)
    p.add_argument("--to", dest="target", choices=_GRAPH_CLASSES, required=True)
    p.add_argument("--j", type=int, default=2, choices=(1, 2), help="delimiter arity for ltg targets")
    p.add_argument("file")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("collapse", help="bisimulation collapse of a graph document")
    p.add_argument("file")
    p.set_defaults(fn=cmd_collapse)

    p = sub.add_parser("maxshare", help="maximally shared graph of a term")
    p.add_argument("file")
    p.set_defaults(fn=cmd_maxshare)

    p = sub.add_parser("equiv", help="are two terms' graphs bisimilar?")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("render", help="DOT rendering of a graph document")
    p.add_argument("--dot", action="store_true", default=True, help="emit DOT (default)")
    p.add_argument("file")
    p.set_defaults(fn=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (GraphError, DegenerateBinding, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
