"""Static SVG snapshots: tree cells, detected organizations, bodies.

Leaf cells are filled with a gray ramp that brightens with depth, linear
from 30% lightness at the root to 90% at the tree's max depth, so crowded
regions read as bright fine-grained patches.  Cells belonging to detected
organizations are overpainted in pure red at 60% opacity with class "org",
one rect per cell.  Bodies are dots colored by species.
"""

from __future__ import annotations

from typing import Iterable

from .detect import Organization
from .geometry import cell_box
from .ntree import NTree

SPECIES_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
                   "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

RAMP_LO = 0.30
RAMP_HI = 0.90
SIZE = 800.0  # the longer side of the picture, in SVG units


def _gray(depth: int, max_depth: int) -> str:
    t = min(depth, max_depth) / max_depth if max_depth > 0 else 1.0
    v = round(255 * (RAMP_LO + (RAMP_HI - RAMP_LO) * t))
    return f"#{v:02x}{v:02x}{v:02x}"


def render_svg(tree: NTree, organizations: Iterable[Organization]) -> str:
    """Render one frame as a standalone SVG document string."""
    box = tree.root_box
    scale = SIZE / max(box.width, box.height)
    width = box.width * scale
    height = box.height * scale

    def fx(x: float) -> float:
        return (x - box.lo.x) * scale

    def fy(y: float) -> float:
        # World y grows upward, SVG y grows downward.
        return height - (y - box.lo.y) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
        f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">',
    ]
    for node in tree.leaves():
        b = node.box
        parts.append(
            f'<rect class="cell" x="{fx(b.lo.x):.2f}" y="{fy(b.hi.y):.2f}" '
            f'width="{(b.width * scale):.2f}" height="{(b.height * scale):.2f}" '
            f'fill="{_gray(node.coord.depth, tree.max_depth)}" '
            f'stroke="#222222" stroke-width="0.5"/>')
    for org in sorted(organizations, key=lambda o: o.id):
        for coord in sorted(org.cells):
            b = cell_box(box, coord)
            parts.append(
                f'<rect class="org" x="{fx(b.lo.x):.2f}" y="{fy(b.hi.y):.2f}" '
                f'width="{(b.width * scale):.2f}" height="{(b.height * scale):.2f}" '
                f'fill="#ff0000" fill-opacity="0.6"/>')
    b = tree.bodies
    for x, y, s in zip(b.x.tolist(), b.y.tolist(), b.species.tolist()):
        parts.append(f'<circle class="body" cx="{fx(x):.2f}" cy="{fy(y):.2f}" r="2.5" '
                     f'fill="{SPECIES_PALETTE[s % len(SPECIES_PALETTE)]}"/>')
    parts.append("</svg>")
    return "\n".join(parts)
