"""Line-based text format for graphs and their annotations.

    # comment
    sig 1 2
    root a
    a @ b c
    b lam s
    s S v b
    v 0 b
    prefix v = b
    scope b = { b v }

The ``sig`` line gives the variable arity and, when present, the
delimiter arity.  Vertex lines are ``name label successors...``; the
optional ``prefix`` and ``scope`` lines annotate higher-order documents.
Parsing a serialized document reproduces it exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import GraphError, Label, SignatureVariant, TermGraph, build
from .scoped import normalize_prefix_fn, normalize_scope_fn

# A label's token is its ``str``.
_LABELS = {str(label): label for label in Label}

# Words that open directive lines cannot name vertices, and names must
# survive whitespace tokenization (``\s`` is ``str.isspace``), comments
# and scope braces.
RESERVED_NAMES = frozenset({"sig", "root", "prefix", "scope"})
_NAME = re.compile(r"[^\s#{}]+")


def _writable(name: str) -> bool:
    return name not in RESERVED_NAMES and _NAME.fullmatch(name) is not None


class FormatError(GraphError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass(frozen=True)
class GraphDocument:
    graph: TermGraph
    prefixes: dict[int, tuple[int, ...]] | None = None
    scopes: dict[int, frozenset[int]] | None = None


def parse_graph(text: str) -> GraphDocument:
    """Parse a graph document; construction errors carry the line number."""
    sig: SignatureVariant | None = None
    root: str | None = None
    labels: dict[str, Label] = {}
    succ: dict[str, list[str]] = {}
    prefix_lines: list[tuple[int, str, list[str]]] = []
    scope_lines: list[tuple[int, str, list[str]]] = []
    declared_at: dict[str, int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # Braces need not be whitespace-separated: "{b v}" parses too.
        fields = line.replace("{", " { ").replace("}", " } ").split()
        head = fields[0]
        if head == "sig":
            if sig is not None:
                raise FormatError(line_no, "duplicate sig line")
            if len(fields) not in (2, 3) or not all(f.isdigit() for f in fields[1:]):
                raise FormatError(line_no, "expected 'sig i' or 'sig i j'")
            try:
                sig = SignatureVariant(
                    int(fields[1]), int(fields[2]) if len(fields) == 3 else None
                )
            except ValueError as exc:
                raise FormatError(line_no, str(exc)) from None
        elif head == "root":
            if root is not None:
                raise FormatError(line_no, "duplicate root line")
            if len(fields) != 2:
                raise FormatError(line_no, "expected 'root name'")
            root = fields[1]
        elif head == "prefix":
            if len(fields) < 3 or fields[2] != "=":
                raise FormatError(line_no, "expected 'prefix v = entries...'")
            prefix_lines.append((line_no, fields[1], fields[3:]))
        elif head == "scope":
            if len(fields) < 5 or fields[2] != "=" or fields[3] != "{" or fields[-1] != "}":
                raise FormatError(line_no, "expected 'scope v = { members... }'")
            scope_lines.append((line_no, fields[1], fields[4:-1]))
        else:
            if len(fields) < 2:
                raise FormatError(line_no, "expected 'name label successors...'")
            name, label_token, *successors = fields
            if label_token not in _LABELS:
                raise FormatError(line_no, f"unknown label {label_token!r}")
            if name in labels:
                raise FormatError(line_no, f"duplicate vertex {name!r}")
            labels[name] = _LABELS[label_token]
            succ[name] = successors
            declared_at[name] = line_no

    if sig is None:
        raise FormatError(1, "missing sig line")
    if root is None:
        raise FormatError(1, "missing root line")
    if root not in labels:
        raise FormatError(1, f"root {root!r} is not declared")
    try:
        graph = build(sig, labels, succ, root)
    except GraphError as exc:
        vertex = getattr(exc, "vertex", None)
        line_no = declared_at.get(vertex, 1)
        raise FormatError(line_no, str(exc)) from exc

    prefixes = None
    if prefix_lines:
        raw_p: dict[str, tuple[str, ...]] = {}
        for line_no, name, entries in prefix_lines:
            if name not in labels or any(e not in labels for e in entries):
                raise FormatError(line_no, "prefix line mentions unknown vertex")
            if name in raw_p:
                raise FormatError(line_no, f"duplicate prefix line for {name!r}")
            raw_p[name] = tuple(entries)
        for name in labels:  # omitted lines mean the empty word
            raw_p.setdefault(name, ())
        prefixes = normalize_prefix_fn(graph, raw_p)
    scopes = None
    if scope_lines:
        raw_s: dict[str, frozenset[str]] = {}
        for line_no, name, members in scope_lines:
            if name not in labels or any(m not in labels for m in members):
                raise FormatError(line_no, "scope line mentions unknown vertex")
            if name in raw_s:
                raise FormatError(line_no, f"duplicate scope line for {name!r}")
            raw_s[name] = frozenset(members)
        try:
            scopes = normalize_scope_fn(graph, raw_s)
        except GraphError as exc:
            raise FormatError(scope_lines[0][0], str(exc)) from exc
    return GraphDocument(graph, prefixes, scopes)


def serialize_graph(doc: GraphDocument | TermGraph) -> str:
    """Canonical text for a document: sig, root, vertices, annotations."""
    if isinstance(doc, TermGraph):
        doc = GraphDocument(doc)
    g = doc.graph
    for name in g.names:
        if not _writable(name):
            raise FormatError(0, f"vertex name {name!r} cannot be written to a document")
    v = g.variant
    lines = []
    lines.append(f"sig {v.var_arity}" + (f" {v.del_arity}" if v.del_arity else ""))
    lines.append(f"root {g.names[g.root]}")
    for u in g.vertices():
        fields = [g.names[u], str(g.labels[u])]
        fields.extend(g.names[w] for w in g.args[u])
        lines.append(" ".join(fields))
    if doc.prefixes is not None:
        for u in g.vertices():
            word = " ".join(g.names[x] for x in doc.prefixes[u])
            # Empty words are written too, so presence of the annotation
            # survives the round trip.
            lines.append(f"prefix {g.names[u]} = {word}".rstrip())
    if doc.scopes is not None:
        for u in g.vertices():
            if u in doc.scopes:
                members = " ".join(g.names[m] for m in sorted(doc.scopes[u]))
                lines.append(f"scope {g.names[u]} = {{ {members} }}")
    return "\n".join(lines) + "\n"
