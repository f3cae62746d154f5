"""Graphviz DOT export of a vector's range with a partition overlay.

Output artifact only: each partition segment gets its own color, range
nodes outside the support are dashed, and edges inside a segment are
drawn bold in the segment's color.
"""

from __future__ import annotations

from .norm import Partition
from .tree import Node, canonical_order, parent_child_pairs
from .vector import TreeVector, format_rational

_PALETTE = [
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e",
    "#e6ab02", "#a6761d", "#386cb0", "#f0027f", "#bf5b17",
]


def _color(segment: int) -> str:
    return _PALETTE[segment % len(_PALETTE)]


def _label(node: Node, x: TreeVector) -> str:
    name = node.path or "e"
    value = x.value(node)
    if value != 0:
        return f"{name}\\n{format_rational(value)}"
    return name


def render_dot(x: TreeVector, partition: Partition | None = None) -> str:
    """DOT text for ran(x); segments of the partition are colored."""
    ran = canonical_order(x.range())
    supp = x.support()
    segment_of: dict[Node, int] = {}
    segments = partition.sorted_segments() if partition is not None else []
    for i, seg in enumerate(segments):
        for member in seg.members():
            segment_of[member] = i

    lines = ["digraph ran {", '  node [fontname="Helvetica"];']
    for n in ran:
        attrs = [f'label="{_label(n, x)}"']
        if n in segment_of:
            attrs.append(f'color="{_color(segment_of[n])}"')
            attrs.append("penwidth=2")
        if n not in supp:
            attrs.append("style=dashed")
        lines.append(f'  "{n.path or "e"}" [{", ".join(attrs)}];')
    for n, c in parent_child_pairs(ran):
        attrs = []
        i = segment_of.get(n)
        if i is not None and i == segment_of.get(c):
            attrs = [f'color="{_color(i)}"', "penwidth=2"]
        suffix = f' [{", ".join(attrs)}]' if attrs else ""
        lines.append(f'  "{n.path or "e"}" -> "{c.path or "e"}"{suffix};')
    lines.append("}")
    return "\n".join(lines) + "\n"
