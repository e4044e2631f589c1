"""Graphviz export of covering instances.

Vertices are named "(pi|rho)", each coordinate in one-line notation (or
as a reduced word); edges are labelled by the 1-based generator index and
colored by the coordinate that moves: blue for the right coordinate, red
for the left one.
"""

from __future__ import annotations

from .covering import CoveringInstance

_SIDE_COLORS = {"right": "blue", "left": "red"}


def covering_dot(instance: CoveringInstance) -> str:
    sys = instance.system

    def vertex_name(vid: int) -> str:
        p, r = instance.vertices[vid]
        return f"({sys.format_index(p)}|{sys.format_index(r)})"

    lines = ["graph covering {"]
    for vid in range(len(instance.vertices)):
        lines.append(f'  "{vertex_name(vid)}";')
    for u, v, side, s in instance.edges:
        color = _SIDE_COLORS[side]
        lines.append(
            f'  "{vertex_name(u)}" -- "{vertex_name(v)}" '
            f'[color={color}, label="{s + 1}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
