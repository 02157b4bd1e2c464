"""GraphViz DOT rendering.

Back-link edges (from variable and delimiter vertices to abstractions)
come out dashed, delimiter vertices boxed, and abstraction-prefix words
appear as a second label line when supplied.
"""

from __future__ import annotations

from .core import Label, TermGraph


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(
    g: TermGraph,
    prefixes: dict[int, tuple[int, ...]] | None = None,
    scopes: dict[int, frozenset[int]] | None = None,
) -> str:
    """Render a graph (optionally with scoping annotations) as DOT text."""
    lines = ['digraph "termgraph" {']
    lines.append("  node [fontname=monospace];")
    for v in g.vertices():
        label = str(g.labels[v])
        if g.labels[v] is Label.ABS:
            label = "λ" + g.names[v]
        if prefixes is not None and prefixes.get(v):
            word = " ".join(g.names[x] for x in prefixes[v])
            label += f"\\n[{word}]"
        attrs = [f"label={_quote(label)}"]
        if g.labels[v] is Label.DEL:
            attrs.append("shape=box")
        elif g.labels[v] is Label.VAR:
            attrs.append("shape=circle")
        if v == g.root:
            attrs.append("penwidth=2")
        lines.append(f"  {_quote(g.names[v])} [{', '.join(attrs)}];")
    for v, k, w in g.edges():
        attrs = [f"label={_quote(str(k))}"] if len(g.args[v]) > 1 else []
        is_backlink = (
            g.labels[v] is Label.VAR
            or (g.labels[v] is Label.DEL and k == 1)
        )
        if is_backlink:
            attrs.append("style=dashed")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_quote(g.names[v])} -> {_quote(g.names[w])}{suffix};")
    if scopes:
        # Scope membership as dotted gray hints rather than clusters:
        # scopes may share vertices with their nested scopes.
        for v in sorted(scopes):
            for m in sorted(scopes[v]):
                if m != v:
                    lines.append(
                        f"  {_quote(g.names[v])} -> {_quote(g.names[m])}"
                        " [style=dotted, color=gray, arrowhead=none];"
                    )
    lines.append("}")
    return "\n".join(lines) + "\n"
