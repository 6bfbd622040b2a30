"""Independent reference implementations used to derive expected test values.

Everything in this module is deliberately naive and, where possible, exact:
rational box arithmetic instead of floats, union-find over all-pairs contact
instead of tree traversal, linear scans instead of pruned queries.  None of
it imports the grouping, query, or field code under test beyond the plain
data types.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from orgtree.errors import SingularPairError
from orgtree.geometry import AABB, CellCoord, Vec2
from orgtree.ntree import Body


@lru_cache(maxsize=None)
def rational_cell_interval(root_lo: float, root_hi: float, depth: int,
                           index: int) -> tuple[Fraction, Fraction]:
    """Closed interval of one axis of a cell, in exact rational arithmetic."""
    lo = Fraction(root_lo)
    width = Fraction(root_hi) - lo
    n = 2 ** depth
    return (lo + Fraction(index, n) * width,
            lo + Fraction(index + 1, n) * width)


def rational_cells_touch(a: CellCoord, b: CellCoord) -> bool:
    """Contact test on exact rational closed boxes over a unit root."""
    ax0, ax1 = rational_cell_interval(0.0, 1.0, a.depth, a.ix)
    bx0, bx1 = rational_cell_interval(0.0, 1.0, b.depth, b.ix)
    if ax0 > bx1 or bx0 > ax1:
        return False
    ay0, ay1 = rational_cell_interval(0.0, 1.0, a.depth, a.iy)
    by0, by1 = rational_cell_interval(0.0, 1.0, b.depth, b.iy)
    return ay0 <= by1 and by0 <= ay1


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def components(self) -> set[frozenset]:
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), set()).add(x)
        return {frozenset(v) for v in out.values()}


def brute_force_groups(coords) -> set[frozenset[CellCoord]]:
    """Connected components under closed-box contact, via all-pairs union-find.

    Contact is decided by the exact rational oracle, so this shares no code
    with the integer test used in production.
    """
    coords = list(coords)
    uf = UnionFind(coords)
    for i, a in enumerate(coords):
        for b in coords[i + 1:]:
            if rational_cells_touch(a, b):
                uf.union(a, b)
    return uf.components()


def linear_radius(bodies, center: Vec2, radius: float) -> set[int]:
    """Ids within the closed disk, by scanning every body."""
    r2 = radius * radius
    out = set()
    for b in bodies:
        dx = b.position.x - center.x
        dy = b.position.y - center.y
        if dx * dx + dy * dy <= r2:
            out.add(b.id)
    return out


def rational_aggregates(bodies) -> tuple[int, Fraction, tuple[Fraction, Fraction] | None]:
    """Count, total charge, and center of charge in exact arithmetic."""
    count = len(bodies)
    q = sum(Fraction(b.charge) for b in bodies)
    if q == 0:
        return count, q, None
    wx = sum(Fraction(b.charge) * Fraction(b.position.x) for b in bodies)
    wy = sum(Fraction(b.charge) * Fraction(b.position.y) for b in bodies)
    return count, q, (wx / q, wy / q)


def bisect_cell_box(root: AABB, coord: CellCoord) -> AABB:
    """Cell box by repeated midpoint bisection instead of the closed formula.

    Exactly matches the closed formula when the root box has power-of-two
    extent, which is the regime the cross-check tests restrict themselves to.
    """
    lo_x, hi_x = root.lo.x, root.hi.x
    lo_y, hi_y = root.lo.y, root.hi.y
    for level in range(coord.depth - 1, -1, -1):
        mid_x = (lo_x + hi_x) / 2.0
        mid_y = (lo_y + hi_y) / 2.0
        if (coord.ix >> level) & 1:
            lo_x = mid_x
        else:
            hi_x = mid_x
        if (coord.iy >> level) & 1:
            lo_y = mid_y
        else:
            hi_y = mid_y
    return AABB(Vec2(lo_x, lo_y), Vec2(hi_x, hi_y))


def modularity_literal(weights, partition) -> float:
    """Textbook double-sum modularity: (1/2m) sum_ij (A_ij - k_i k_j / 2m) d_ij."""
    n = len(weights)
    label = {}
    for g, members in enumerate(partition):
        for i in members:
            label[i] = g
    two_m = float(sum(weights[i][j] for i in range(n) for j in range(n)))
    degree = [float(sum(weights[i][j] for j in range(n))) for i in range(n)]
    q = 0.0
    for i in range(n):
        for j in range(n):
            if label[i] == label[j]:
                q += weights[i][j] - degree[i] * degree[j] / two_m
    return q / two_m


def collect_bodies(node) -> list[Body]:
    """Every body under a node, by explicit traversal."""
    if node.children is None:
        return list(node.bodies)
    out: list[Body] = []
    for child in node.children:
        out.extend(collect_bodies(child))
    return out


def tree_field_walk(tree, target: Vec2, target_id: int, params) -> Vec2:
    """Barnes-Hut field at a point by a scalar depth-first walk of the tree.

    The reference for the batched tree_field(s): the same opening test, the
    same term arithmetic, one target at a time.  Descends from the root in
    the fixed child order.  Any node whose side-to-distance ratio beats theta
    is collapsed to a pseudo-body at its center of charge, unless its charges
    cancel or its box holds the target; other internal nodes recurse, and
    surviving leaves are summed body by body, skipping target_id.
    """
    tx = target.x
    ty = target.y
    const = params.constant
    eps2 = params.softening * params.softening
    th2 = params.theta * params.theta
    xs: list[float] = []
    ys: list[float] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.count == 0:
            continue
        com = node.center_of_charge
        if (com is not None
                and not (node.lo_x <= tx <= node.hi_x
                         and node.lo_y <= ty <= node.hi_y)):
            dx = com.x - tx
            dy = com.y - ty
            d2 = dx * dx + dy * dy
            side = node.hi_x - node.lo_x
            h = node.hi_y - node.lo_y
            if h > side:
                side = h
            # s/d < theta without the square root: s^2 < theta^2 * d^2.
            if d2 > 0.0 and side * side < th2 * d2:
                w = const * node.total_charge / ((d2 + eps2) * math.sqrt(d2 + eps2))
                xs.append(w * dx)
                ys.append(w * dy)
                continue
        if node.children is None:
            for b in node.bodies:
                if b.id == target_id:
                    continue
                dx = b.position.x - tx
                dy = b.position.y - ty
                r2 = dx * dx + dy * dy + eps2
                if r2 == 0.0:
                    raise SingularPairError(
                        f"body {b.id} coincides with the target and softening is 0",
                        pair=(b.id, target_id))
                w = const * b.charge / (r2 * math.sqrt(r2))
                xs.append(w * dx)
                ys.append(w * dy)
        else:
            stack.extend(reversed(node.children))
    return Vec2(math.fsum(xs), math.fsum(ys))
