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

The parser reads the document in one pass and gives each vertex its id
as its line is read, so ids follow declaration order.  Successors, the
root and the annotation lines resolve through that one name-to-id map,
and the graph is checked and built on ids by ``core._build_ids``, the
constructor that ``build`` shares.  Every annotation entry is then an
id, so of the scope lines the parser checks only that they name exactly
the abstractions.  Whether the scopes are valid is left to their
reader: ``ScopedGraph`` scans the members and inverts the scopes once.
"""

from __future__ import annotations

import re

from .core import RESERVED_NAMES, GraphError, Label, SignatureVariant, TermGraph, UnreachableVertex
from .core import _build_ids, _Record
from .scoped import _check_scope_keys

# A label's token is its ``str``.
_LABELS = {str(label): label for label in Label}

# Words that open directive lines, ``RESERVED_NAMES``, cannot name
# vertices, and names must survive whitespace tokenization (``\s`` is
# ``str.isspace``), comments and scope braces.
_NAME = re.compile(r"[^\s#{}]+")
# A graph's names joined by newlines match this where each is writable,
# the reserved words aside; a name that holds a newline would pass as
# two, which the count of newlines rules out.
_NAMES = re.compile(rf"{_NAME.pattern}(?:\n{_NAME.pattern})*")


def _writable(name: str) -> bool:
    return name not in RESERVED_NAMES and _NAME.fullmatch(name) is not None


class FormatError(GraphError):
    """A document that cannot be read, at its line ``line_no``, or a graph
    that cannot be written, with ``line_no`` None."""

    def __init__(self, line_no: int | None, message: str):
        self.line_no = line_no
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


class GraphDocument(_Record):
    """A document's graph, with its prefix or scope function keyed by
    vertex id where it declares one, else None."""

    def __init__(
        self,
        graph: TermGraph,
        prefixes: dict[int, tuple[int, ...]] | None = None,
        scopes: dict[int, frozenset[int]] | None = None,
    ):
        self.__dict__.update(graph=graph, prefixes=prefixes, scopes=scopes)


def parse_graph(text: str) -> GraphDocument:
    """Parse a graph document; construction errors carry the line number."""
    sig: SignatureVariant | None = None
    root: str | None = None
    index: dict[str, int] = {}  # name -> id, given as the vertex line is read
    labels: list[Label] = []
    succ: list[list[str]] = []
    declared_at: list[int] = []  # id -> line number
    prefix_lines: list[tuple[int, str, list[str]]] = []
    scope_lines: list[tuple[int, str, list[str]]] = []

    for line_no, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        if "{" in line or "}" in line:
            # Braces need not be whitespace-separated: "{b v}" parses too.
            line = line.replace("{", " { ").replace("}", " } ")
        fields = line.split()
        if not fields:
            continue
        head = fields[0]
        if head not in RESERVED_NAMES:
            if len(fields) < 2:
                raise FormatError(line_no, "expected 'name label successors...'")
            if fields[1] not in _LABELS:
                raise FormatError(line_no, f"unknown label {fields[1]!r}")
            if head in index:
                raise FormatError(line_no, f"duplicate vertex {head!r}")
            index[head] = len(labels)
            labels.append(_LABELS[fields[1]])
            succ.append(fields[2:])
            declared_at.append(line_no)
        elif head == "sig":
            if sig is not None:
                raise FormatError(line_no, "duplicate sig line")
            if len(fields) not in (2, 3) or not all(f.isdigit() for f in fields[1:]):
                raise FormatError(line_no, "expected 'sig i' or 'sig i j'")
            try:
                sig = SignatureVariant(*map(int, fields[1:]))
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
        else:
            if len(fields) < 5 or fields[2] != "=" or fields[3] != "{" or fields[-1] != "}":
                raise FormatError(line_no, "expected 'scope v = { members... }'")
            scope_lines.append((line_no, fields[1], fields[4:-1]))

    if sig is None:
        raise FormatError(1, "missing sig line")
    if root is None:
        raise FormatError(1, "missing root line")
    if root not in index:
        raise FormatError(1, f"root {root!r} is not declared")
    try:
        graph, pruned = _build_ids(sig, list(index), labels, succ, index, index[root])
        if pruned:
            raise UnreachableVertex(pruned)
    except GraphError as exc:
        line_no = declared_at[index[exc.vertex]] if hasattr(exc, "vertex") else 1
        raise FormatError(line_no, str(exc)) from exc

    prefixes = scopes = None
    if prefix_lines:
        prefixes = _annotation("prefix", prefix_lines, index, tuple)
        # Omitted lines mean the empty word.  Every entry resolved to an id
        # and every vertex has a word, so the domain needs no check.
        prefixes.update((v, ()) for v in range(len(labels)) if v not in prefixes)
    if scope_lines:
        scopes = _annotation("scope", scope_lines, index, frozenset)
        # Members resolved through the index, so only the keys can be off.
        try:
            _check_scope_keys(graph, scopes)
        except GraphError as exc:
            raise FormatError(scope_lines[0][0], str(exc)) from exc
    return GraphDocument(graph, prefixes, scopes)


def _annotation(kind: str, lines: list, index: dict[str, int], freeze: type) -> dict:
    """The ``prefix`` or ``scope`` lines as a map on ids, in line order."""
    find, out = index.get, {}
    for line_no, name, entries in lines:
        v, xs = find(name), freeze(map(find, entries))
        if v is None or None in xs:
            raise FormatError(line_no, f"{kind} line mentions unknown vertex")
        if v in out:
            raise FormatError(line_no, f"duplicate {kind} line for {name!r}")
        out[v] = xs
    return out


def serialize_graph(doc: GraphDocument | TermGraph) -> str:
    """Canonical text for a document: sig, root, vertices, annotations."""
    if isinstance(doc, TermGraph):
        doc = GraphDocument(doc)
    g = doc.graph
    names = g.names
    joined = "\n".join(names)
    if not (
        RESERVED_NAMES.isdisjoint(names)
        and _NAMES.fullmatch(joined)
        and joined.count("\n") == len(names) - 1
    ):
        bad = next(name for name in names if not _writable(name))
        raise FormatError(None, f"vertex name {bad!r} cannot be written to a document")
    v = g.variant
    lines = [f"sig {v.var_arity}" + (f" {v.del_arity}" if v.del_arity else ""), f"root {names[g.root]}"]
    lines += [
        " ".join([name, label._value_, *[names[w] for w in out]])
        for name, label, out in zip(names, g.labels, g.args)
    ]
    if doc.prefixes is not None:
        # Empty words are written too, so presence of the annotation
        # survives the round trip.
        p = doc.prefixes
        lines += [
            f"prefix {name} = {' '.join([names[x] for x in p[u]])}".rstrip()
            for u, name in enumerate(names)
        ]
    if doc.scopes is not None:
        sc = doc.scopes
        lines += [
            f"scope {name} = {{ {' '.join([names[m] for m in sorted(sc[u])])} }}"
            for u, name in enumerate(names)
            if u in sc
        ]
    return "\n".join(lines) + "\n"
