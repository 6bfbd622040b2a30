"""Exact 2D primitives: vectors, closed axis-aligned boxes, integer cell coordinates.

Cell adjacency is decided in integer arithmetic only, so results never depend on
floating-point rounding of box edges.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from dataclasses import dataclass
from itertools import repeat


@dataclass(frozen=True, slots=True)
class Vec2:
    """Immutable 2D vector in world units."""

    x: float
    y: float

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


@dataclass(frozen=True, slots=True)
class AABB:
    """Closed axis-aligned box; lo is the min corner, hi the max corner."""

    lo: Vec2
    hi: Vec2

    def __post_init__(self) -> None:
        if not (self.lo.x <= self.hi.x and self.lo.y <= self.hi.y):
            raise ValueError(f"box has lo above hi: lo={self.lo}, hi={self.hi}")

    @property
    def width(self) -> float:
        return self.hi.x - self.lo.x

    @property
    def height(self) -> float:
        return self.hi.y - self.lo.y

    def contains(self, p: Vec2) -> bool:
        """Closed membership test, boundary points included."""
        return self.lo.x <= p.x <= self.hi.x and self.lo.y <= p.y <= self.hi.y


class CellCoord(namedtuple("CellCoord", "depth ix iy")):
    """Identity of a quadtree cell: subdivision depth plus column/row index.

    Index ranges are 0 <= ix, iy < 2**depth.  A CellCoord is the tuple
    (depth, ix, iy): it equals and hashes as that triple, and orders
    lexicographically on it, which gives every deterministic sort in the
    package a single well-defined key.
    """

    __slots__ = ()

    def __new__(cls, depth: int, ix: int, iy: int) -> CellCoord:
        if depth < 0:
            raise ValueError(f"negative depth: {depth}")
        side = 1 << depth
        if not (0 <= ix < side and 0 <= iy < side):
            raise ValueError(f"cell index out of range at depth {depth}: ({ix}, {iy})")
        return tuple.__new__(cls, (depth, ix, iy))


def from_slots(cls, *columns) -> list:
    """One object of the slots class cls per index of the equal-length
    columns, the k-th column filling the k-th slot: what cls(*row) holds for
    each row, built without running __init__, and so without its checks.
    """
    made = list(map(object.__new__, repeat(cls, len(columns[0]))))
    for name, column in zip(cls.__slots__, columns):
        deque(map(getattr(cls, name).__set__, made, column), 0)
    return made


def child_coords(c: CellCoord) -> tuple[CellCoord, CellCoord, CellCoord, CellCoord]:
    """The four children in fixed offset order (0,0), (1,0), (0,1), (1,1)."""
    d = c.depth + 1
    x = c.ix * 2
    y = c.iy * 2
    return (CellCoord(d, x, y), CellCoord(d, x + 1, y),
            CellCoord(d, x, y + 1), CellCoord(d, x + 1, y + 1))


def cell_box(root: AABB, c: CellCoord) -> AABB:
    """Sub-box reached from the root by `depth` rounds of 4-way bisection.

    Computed as root.lo + index * (side / 2**depth).  Because halving a float
    is exact, sibling boxes meet bitwise at their shared edges and the four
    children of any cell tile their parent exactly.  An edge on the root's
    border is the root's own: root.lo + side may round off root.hi, and
    0 * side is NaN for an infinite side.
    """
    n = 1 << c.depth
    w = root.width / n
    h = root.height / n
    lo, hi = root.lo, root.hi
    return AABB(Vec2(lo.x + c.ix * w if c.ix else lo.x, lo.y + c.iy * h if c.iy else lo.y),
                Vec2(lo.x + (c.ix + 1) * w if c.ix + 1 < n else hi.x,
                     lo.y + (c.iy + 1) * h if c.iy + 1 < n else hi.y))


def cells_touch(a: CellCoord, b: CellCoord) -> bool:
    """Closed-box contact decided in exact integer arithmetic.

    Both cells are rescaled to the finer of the two depths; a cell then spans
    the closed index interval [ix << s, (ix + 1) << s] per axis.  Contact
    requires overlap on both axes, and corner contact counts.  Nested cells
    also report True since their boxes genuinely intersect.
    """
    d = a.depth if a.depth > b.depth else b.depth
    sa = d - a.depth
    sb = d - b.depth
    alo = a.ix << sa
    blo = b.ix << sb
    if alo > ((b.ix + 1) << sb) or blo > ((a.ix + 1) << sa):
        return False
    alo = a.iy << sa
    blo = b.iy << sb
    return alo <= ((b.iy + 1) << sb) and blo <= ((a.iy + 1) << sa)
