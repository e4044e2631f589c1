"""Graphviz export of covering instances.

Vertices are named "(pi|rho)", each coordinate in one-line notation (or
as a reduced word).  Edges are labelled by the 1-based generator index and
colored by the coordinate that moves, both read off the two endpoints: blue
when rho moved (pi is unchanged), red when pi moved.
"""

from __future__ import annotations

from .covering import CoveringInstance


def covering_dot(instance: CoveringInstance) -> str:
    sys = instance.system
    vertices, right = instance.vertices, sys.right_cayley
    names = [f'"({sys.format_index(p)}|{sys.format_index(r)})"' for p, r in vertices]
    lines = ["graph covering {"] + [f"  {name};" for name in names]
    for u, v in instance.edges:
        (p, r), (p2, r2) = vertices[u], vertices[v]
        if p == p2:
            color, s = "blue", right[r].index(r2)
        else:
            color, s = "red", right[p].index(p2)
        lines.append(f'  {names[u]} -- {names[v]} [color={color}, label="{s + 1}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
