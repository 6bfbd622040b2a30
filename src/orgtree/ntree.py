"""Adaptive quadtree over point bodies with per-node charge aggregates.

The tree is rebuilt from scratch whenever bodies move and is treated as
immutable afterwards.  A cell splits only while it holds more than
`capacity` bodies and is above `max_depth`, so every internal node's subtree
holds more than `capacity` bodies and a leaf shallower than `max_depth` never
exceeds it.  Bodies that coincide or nearly coincide pile up in a leaf at
`max_depth`, which is allowed to exceed capacity.

Child order everywhere is the fixed offset order (0,0), (1,0), (0,1), (1,1),
which makes traversals, queries, and aggregate sums reproducible bit for bit.

`flatten` gives the batched consumers (Barnes-Hut fields and boids
neighbourhoods) one shared numpy view of a built tree; `radius_hits` is the
batched form of `query_radius_bodies` over that view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .geometry import AABB, CellCoord, Vec2, cell_box, child_coords

# Scratch memory of radius_hits is bounded per block of targets and per chunk
# of a block.  Their widths are powers of two because numpy keeps freed arrays
# under 1 KiB for reuse, one pool per byte size, so small arrays of ever new
# sizes would pile up there.
_BLOCK_PAIRS = 8192  # (target, node) pairs one block's tree walk aims to hold
_CHUNK_TERMS = 4096  # candidate (target, body) pairs one chunk aims to hold


@dataclass(frozen=True, slots=True)
class Body:
    """Point body carried by the simulation.

    `charge` doubles as mass for gravity-style kernels and stays at 1.0 for
    plain boids runs.
    """

    id: int
    species: int
    position: Vec2
    velocity: Vec2
    charge: float = 1.0

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"negative body id: {self.id}")
        if self.species < 0:
            raise ValueError(f"negative species index: {self.species}")
        if not (self.position.is_finite() and self.velocity.is_finite()
                and math.isfinite(self.charge)):
            raise ValueError(f"body {self.id} has a non-finite component")


@dataclass(slots=True)
class Node:
    """One tree cell.  Internal nodes have exactly four children; leaves hold bodies.

    The box bounds are duplicated as flat floats; query and field traversals
    visit hundreds of thousands of nodes per run and the flattened reads keep
    those loops cheap.
    """

    coord: CellCoord
    box: AABB
    children: tuple[Node, Node, Node, Node] | None
    bodies: tuple[Body, ...]
    count: int
    total_charge: float
    center_of_charge: Vec2 | None
    lo_x: float
    lo_y: float
    hi_x: float
    hi_y: float

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def aggregates(self) -> tuple[int, float, Vec2 | None]:
        """(count, total charge, charge-weighted centroid; None when undefined).

        The centroid is undefined for empty nodes and for nodes whose signed
        charges cancel exactly.
        """
        return self.count, self.total_charge, self.center_of_charge


@dataclass(slots=True)
class NTree:
    bodies: tuple[Body, ...]
    root_box: AABB
    capacity: int
    max_depth: int
    root: Node = field(repr=False)

    def leaves(self) -> list[Node]:
        """All leaf nodes, empty ones included, in traversal order."""
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.children is None:
                out.append(node)
            else:
                stack.extend(reversed(node.children))
        return out

    def leaf_cells(self, min_depth: int = 0) -> dict[CellCoord, tuple[int, ...]]:
        """Non-empty leaf cells at depth >= min_depth, mapped to their body ids.

        The depth cut is inclusive, so deeper leaves always survive a cut that
        their shallower siblings pass.
        """
        if min_depth < 0:
            raise ValueError(f"negative depth threshold: {min_depth}")
        out: dict[CellCoord, tuple[int, ...]] = {}
        for node in self.leaves():
            if node.count > 0 and node.coord.depth >= min_depth:
                out[node.coord] = tuple(b.id for b in node.bodies)
        return out

    def query_radius(self, center: Vec2, radius: float) -> list[int]:
        """Ids of the bodies query_radius_bodies returns, in the same order."""
        return [b.id for b in self.query_radius_bodies(center, radius)]

    def query_radius_bodies(self, center: Vec2, radius: float) -> list[Body]:
        """Bodies with distance <= radius from center, boundary inclusive.

        Only nodes whose box touches the disk's bounding square are descended,
        in the fixed child order, so hits come leaf by leaf depth-first and in
        leaf order within a leaf.  Bodies are then filtered by exact squared
        distance: no square root is taken and a body exactly on the radius is
        always included.
        """
        if radius < 0:
            raise ValueError(f"negative query radius: {radius}")
        cx = center.x
        cy = center.y
        qlo_x = cx - radius
        qhi_x = cx + radius
        qlo_y = cy - radius
        qhi_y = cy + radius
        r2 = radius * radius
        out: list[Body] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.count == 0:
                continue
            if (node.lo_x > qhi_x or qlo_x > node.hi_x
                    or node.lo_y > qhi_y or qlo_y > node.hi_y):
                continue
            if node.children is None:
                for b in node.bodies:
                    p = b.position
                    dx = p.x - cx
                    dy = p.y - cy
                    if dx * dx + dy * dy <= r2:
                        out.append(b)
            else:
                stack.extend(reversed(node.children))
        return out

    def leaf_at(self, coord: CellCoord) -> Node | None:
        """The leaf with exactly this coordinate, or None when no such leaf exists."""
        node = self.root
        while node.coord != coord:
            if node.children is None:
                return None
            if coord.depth <= node.coord.depth:
                return None
            shift = coord.depth - node.coord.depth - 1
            cx = (coord.ix >> shift) & 1
            cy = (coord.iy >> shift) & 1
            node = node.children[cx + 2 * cy]
        return node if node.children is None else None

    def dump_leaves(self) -> str:
        """Debug dump, one sorted line per leaf: `depth ix iy count`."""
        rows = sorted((n.coord, n.count) for n in self.leaves())
        return "\n".join(f"{c.depth} {c.ix} {c.iy} {k}" for c, k in rows)


def build_tree(bodies, root_box: AABB, capacity: int, max_depth: int = 24) -> NTree:
    """Build the quadtree for a snapshot of bodies.

    Splitting is triggered by count > capacity, so a cell holding exactly
    `capacity` bodies stays a leaf.  Bodies sitting exactly on a split line go
    to the child with the larger index; a body on the root's upper boundary
    therefore still lands in a valid leaf.  All four children are materialized
    on a split, empty ones as empty leaves.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be at least 1, got {capacity}")
    if max_depth < 0:
        raise ValueError(f"negative max_depth: {max_depth}")
    bodies = tuple(bodies)
    seen: set[int] = set()
    for b in bodies:
        if b.id in seen:
            raise ValueError(f"duplicate body id: {b.id}")
        seen.add(b.id)
        if not root_box.contains(b.position):
            raise ValueError(
                f"body {b.id} at ({b.position.x}, {b.position.y}) lies outside the root box")
    root, _, _, _ = _build(list(bodies), CellCoord(0, 0, 0), root_box,
                           root_box, capacity, max_depth)
    return NTree(bodies=bodies, root_box=root_box, capacity=capacity,
                 max_depth=max_depth, root=root)


def _build(items: list[Body], coord: CellCoord, box: AABB, root_box: AABB,
           capacity: int, max_depth: int) -> tuple[Node, float, float, float]:
    # Returns the node plus raw (charge, charge*x, charge*y) sums.  Raw sums
    # propagate bottom-up so a parent centroid stays exact even when a child's
    # signed charges cancel and its own centroid is undefined.
    if len(items) <= capacity or coord.depth >= max_depth:
        q = 0.0
        wx = 0.0
        wy = 0.0
        for b in items:
            q += b.charge
            wx += b.charge * b.position.x
            wy += b.charge * b.position.y
        com = Vec2(wx / q, wy / q) if q != 0.0 else None
        node = Node(coord, box, None, tuple(items), len(items), q, com,
                    box.lo.x, box.lo.y, box.hi.x, box.hi.y)
        return node, q, wx, wy

    kid_coords = child_coords(coord)
    kid_boxes = tuple(cell_box(root_box, k) for k in kid_coords)
    split_x = kid_boxes[1].lo.x
    split_y = kid_boxes[2].lo.y
    buckets: tuple[list[Body], ...] = ([], [], [], [])
    for b in items:
        i = (1 if b.position.x >= split_x else 0) + (2 if b.position.y >= split_y else 0)
        buckets[i].append(b)

    kids = []
    count = 0
    q = 0.0
    wx = 0.0
    wy = 0.0
    for kc, kb, bucket in zip(kid_coords, kid_boxes, buckets):
        child, cq, cwx, cwy = _build(bucket, kc, kb, root_box, capacity, max_depth)
        kids.append(child)
        count += child.count
        q += cq
        wx += cwx
        wy += cwy
    com = Vec2(wx / q, wy / q) if q != 0.0 else None
    node = Node(coord, box, (kids[0], kids[1], kids[2], kids[3]), (), count, q, com,
                box.lo.x, box.lo.y, box.hi.x, box.hi.y)
    return node, q, wx, wy


class FlatTree(NamedTuple):
    """A built tree as numpy columns plus its bodies in depth-first order.

    Rows 0 .. n-1 are the non-empty nodes breadth-first, so the children of
    node k are the rows first[k] .. first[k] + count[k] - 1.  `bodies` lists
    the bodies leaf by leaf depth-first, so each leaf's bodies are contiguous:
    a leaf's first is n plus the index of its first body and its count is its
    body count, which makes body i row n + i of any column a caller extends
    with per-body values.  box stacks lo_x, lo_y, hi_x, hi_y and side^2; a
    cancelled node's center (cx, cy) is NaN.  Row n of every column is a
    sentinel: an empty box (lo +inf, hi -inf) with side^2 = -1, which a
    clipped read of a body row lands on.
    """

    box: np.ndarray
    first: np.ndarray
    count: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    charge: np.ndarray
    bodies: list[Body]


def flatten(tree: NTree) -> FlatTree:
    """The flat view of a tree that the batched field and boids code share."""
    order = [(tree.root, 0)] if tree.root.count else []
    bodies = list(tree.bodies)

    def rows():
        for node, start in order:
            first = len(order)
            for kid in node.children or ():
                if kid.count:
                    order.append((kid, start))
                start += kid.count
            if node.children is None:
                bodies[start:start + node.count] = node.bodies
                first = ~start
            com = node.center_of_charge or Vec2(math.nan, math.nan)
            side = max(node.hi_x - node.lo_x, node.hi_y - node.lo_y)
            yield (node.lo_x, node.lo_y, node.hi_x, node.hi_y, side * side, first,
                   len(order) - first if first >= 0 else node.count,
                   com.x, com.y, node.total_charge)
        yield (math.inf, math.inf, -math.inf, -math.inf, -1.0, 0, 0, 0.0, 0.0, 0.0)

    table = np.fromiter(rows(), "f8,f8,f8,f8,f8,i8,i8,f8,f8,f8")
    *box, first, count, cx, cy, charge = (table[f] for f in table.dtype.names)
    first[first < 0] = len(order) + ~first[first < 0]
    return FlatTree(np.stack(box), first, count, cx, cy, charge, bodies)


def columns(bodies, keys: str, dtype=float) -> list[np.ndarray]:
    """One numpy column per space-separated attribute path, e.g. "position.x id"."""
    return [np.fromiter(map(attrgetter(k), bodies), dtype, len(bodies)) for k in keys.split()]


def _pow2(x: float) -> int:
    """The power of two nearest to x, and at least 1."""
    return 1 << max(round(math.log2(x)), 0) if x > 1 else 1


def _near_leaves(flat: FlatTree, query, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(target, leaf row) for every leaf whose box meets the query box of a
    target in lo .. hi-1, sorted by target, then depth-first.

    A level-synchronous frontier that makes query_radius_bodies' box test on
    every node it visits.  Each pair is replaced by its children in order and
    a leaf by itself, so the frontier stays in depth-first order and ends as
    the leaves met.
    """
    box, first, count = flat.box, flat.first, flat.count
    n = len(first) - 1
    inner = first < n
    fan = np.where(inner, count, 1)
    base = np.where(inner, first, np.arange(n + 1))
    qhi_x, qlo_x, qhi_y, qlo_y = query  # per target
    t = np.arange(lo, hi)
    row = np.zeros(len(t), dtype=np.intp)
    while True:
        # The node is near unless it lies beyond a side of the query box (no
        # NaN can occur: positions are finite and radii positive).
        near = box[0][row] <= qhi_x[t]
        near &= qlo_x[t] <= box[2][row]
        near &= box[1][row] <= qhi_y[t]
        near &= qlo_y[t] <= box[3][row]
        t, row = t[near], row[near]
        if not len(row) or first[row].min() >= n:  # leaves only
            return t, row
        k = fan[row]
        t = np.repeat(t, k)
        row = np.arange(len(t)) + np.repeat(base[row] - np.cumsum(k) + k, k)


def radius_hits(flat: FlatTree, x: np.ndarray, y: np.ndarray, radius: np.ndarray):
    """query_radius_bodies for many centers at once, over a flattened tree.

    Yields (a, b, target, body, d2) chunk by chunk for consecutive targets
    a .. b-1: the target indexes x, y and radius, body is the index into the
    flat tree's depth-first body list and d2 the squared distance.  Each
    target's hits come as query_radius_bodies returns them, leaf by leaf
    depth-first and in leaf order, with its inclusive dx*dx + dy*dy <= r*r
    test, so every target gets the same bodies in the same order.
    """
    first, count = flat.first, flat.count
    n = len(first) - 1
    bx, by = columns(flat.bodies, "position.x position.y")
    query = (x + radius, x - radius, y + radius, y - radius)
    r2 = radius * radius
    lo, size = 0, _pow2(_BLOCK_PAIRS / 32)  # a first guess of 32 leaves per query
    while lo < len(x):
        hi = min(lo + size, len(x))
        leaf_t, leaf = _near_leaves(flat, query, lo, hi)
        size = _pow2(_BLOCK_PAIRS * (hi - lo) / max(len(leaf_t), 1))
        leaf_start, leaf_k = first[leaf] - n, count[leaf]
        del leaf
        step = _pow2(_CHUNK_TERMS * (hi - lo) / max(int(leaf_k.sum()), 1))
        cuts = list(range(lo, hi, step)) + [hi]
        ends = np.cumsum(np.bincount(leaf_t - lo, minlength=hi - lo))
        ends = [0, *ends[[c - lo - 1 for c in cuts[1:]]].tolist()]
        for a, b, p, q in zip(cuts, cuts[1:], ends, ends[1:]):
            k = leaf_k[p:q]
            t = np.repeat(leaf_t[p:q], k)
            body = np.arange(len(t)) + np.repeat(leaf_start[p:q] - np.cumsum(k) + k, k)
            dx, dy = bx[body] - x[t], by[body] - y[t]
            d2 = dx * dx + dy * dy
            hit = d2 <= r2[t]
            t, body, d2 = t[hit], body[hit], d2[hit]
            del dx, dy, hit  # the candidates' scratch is not kept while the caller works
            yield a, b, t, body, d2
        lo = hi
