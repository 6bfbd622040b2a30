"""Adaptive quadtree over point bodies with per-node charge aggregates.

The tree is rebuilt from scratch whenever bodies move and is treated as
immutable afterwards.  A cell splits only while it holds more than
`capacity` bodies and is above `max_depth`, so every internal node's subtree
holds more than `capacity` bodies and a leaf shallower than `max_depth` never
exceeds it.  Bodies that coincide or nearly coincide pile up in a leaf at
`max_depth`, which is allowed to exceed capacity.

Child order everywhere is the fixed offset order (0,0), (1,0), (0,1), (1,1),
which makes traversals, queries, and aggregate sums reproducible bit for bit.

The tree is stored once, as numpy rows (see `NTree`): the non-empty nodes
breadth-first, then the bodies depth-first (Z/Morton order; Warren & Salmon
1993).  Barnes-Hut fields, boids neighbourhoods and detection all read these
rows.  `radius_hits` is the one radius query over them, for many centers at
once; `NTree.query_radius_bodies` is its one-center call.  `NTree.root`
builds a read-only `Node` view of the rows on demand, for the SVG renderer
and the callers that walk the tree as objects.  A node's children and a
leaf's bodies are spans of rows, and `_spans` is the one step every build
pass and walk expands them by.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import attrgetter

import numpy as np

from .geometry import AABB, CellCoord, Vec2, cell_box, child_coords, from_slots

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
    plain boids runs.  It is checked when it joins a `Bodies` (as_bodies).
    """

    id: int
    species: int
    position: Vec2
    velocity: Vec2
    charge: float = 1.0


class Bodies(Sequence):
    """The bodies of a snapshot as read-only columns, an immutable Sequence[Body]
    equal to another by its columns: int64 id and species, float x, y, vx, vy
    and charge.  Body objects are made when it is first iterated or indexed by
    a position, and kept (objects); a slice or an index array gives a Bodies.
    The first body with a negative id or species or a non-finite value, checked
    in that order, raises ValueError; an id from 2**63 on, OverflowError.
    """

    COLUMNS = ("id", "species", "x", "y", "vx", "vy", "charge")

    def __init__(self, id, species, x, y, vx, vy, charge) -> None:
        cols = [np.asarray(c) for c in (id, species, x, y, vx, vy, charge)]
        bad = (cols[0] < 0) | (cols[1] < 0) | ~np.isfinite(cols[2:]).all(axis=0)
        for k in np.flatnonzero(bad)[:1].tolist():
            i, s = list(id)[k], list(species)[k]
            raise ValueError(f"negative body id: {i}" if i < 0 else f"negative species index: {s}"
                             if s < 0 else f"body {i} has a non-finite component")
        self._fill(np.array(c if c.dtype == np.int64 else c.tolist(), dtype=np.int64) if j < 2
                   else np.array(c, dtype=float) for j, c in enumerate(cols))  # uint64 casts wrap

    def _fill(self, cols) -> Bodies:
        for name, c in zip(self.COLUMNS, cols):
            c.flags.writeable = False
            object.__setattr__(self, name, c)
        return self

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"Bodies is immutable: cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.id)

    def __getitem__(self, k):
        if isinstance(k, (slice, np.ndarray)):  # rows of checked columns: no checks again
            return object.__new__(Bodies)._fill(getattr(self, name)[k] for name in self.COLUMNS)
        return self.objects[k]

    def __eq__(self, other):  # column by column, as their Body objects would compare
        return isinstance(other, Bodies) and all(
            np.array_equal(getattr(self, k), getattr(other, k)) for k in self.COLUMNS)

    def __iter__(self):
        return iter(self.objects)

    @cached_property  # kept in the instance __dict__, past __setattr__
    def objects(self) -> tuple[Body, ...]:
        """The bodies as Body objects, made (from_slots) on first use."""
        i, s, x, y, vx, vy, q = (getattr(self, name).tolist() for name in self.COLUMNS)
        return tuple(from_slots(Body, i, s, from_slots(Vec2, x, y), from_slots(Vec2, vx, vy), q))


def as_bodies(bodies) -> Bodies:
    """bodies as a Bodies, read once from Body objects; every function taking bodies calls it."""
    if isinstance(bodies, Bodies):
        return bodies
    row = attrgetter(*"id species position.x position.y velocity.x velocity.y charge".split())
    return Bodies(*(list(zip(*map(row, bodies))) or [()] * 7))


@dataclass(frozen=True, slots=True)
class Node:
    """One tree cell, as `NTree.root` views it.  Internal nodes have exactly
    four children; leaves hold bodies.  lo_x .. hi_y repeat the box bounds.
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


@dataclass(frozen=True, slots=True, eq=False)
class NTree:
    """A built tree: its bodies and settings, and the tree as numpy rows.

    Rows 0 .. n-1 are the non-empty nodes breadth-first: coords stacks their
    depth, ix and iy, and box their lo_x, lo_y, hi_x, hi_y and side^2.  An
    internal node's children are rows first .. first + count - 1.  Row n + i
    of cx, cy, charge and id is body i of the depth-first order,
    bodies[order[i]], and a leaf's first is n + its first body; node rows
    hold the center of charge (NaN when the charges cancel), the total charge
    and id -2.  Column n of box, first and count is a sentinel: an empty box
    (lo +inf, hi -inf) with side^2 = -1, which a clipped read of a body row
    lands on.
    """

    bodies: Bodies
    root_box: AABB
    capacity: int
    max_depth: int
    box: np.ndarray = field(repr=False)
    first: np.ndarray = field(repr=False)
    count: np.ndarray = field(repr=False)
    coords: np.ndarray = field(repr=False)
    cx: np.ndarray = field(repr=False)
    cy: np.ndarray = field(repr=False)
    charge: np.ndarray = field(repr=False)
    id: np.ndarray = field(repr=False)
    order: np.ndarray = field(repr=False)

    @property
    def root(self) -> Node:
        """The tree as read-only Node objects, built from the rows on each access."""
        return self._view()[0]

    def leaves(self) -> list[Node]:
        """All leaf nodes, empty ones included, in traversal order."""
        return self._view()[1]

    def _view(self) -> tuple[Node, list[Node]]:
        """The root Node and the leaves in traversal order.  Empty children,
        which have no row, are made from their cell_box.
        """
        n = len(self.first) - 1
        first, count, q, cx, cy = (a.tolist() for a in (
            self.first, self.count, self.charge[:n], self.cx[:n], self.cy[:n]))
        row = {c: k for k, c in enumerate(zip(*self.coords.tolist()))}
        bodies = list(map(self.bodies.objects.__getitem__, self.order.tolist()))
        leaves: list[Node] = []

        def view(coord: CellCoord, box: AABB) -> Node:
            k = row.get(coord)
            kids, held, total, com = None, (), 0.0, None
            if k is not None:
                total = q[k]
                com = Vec2(cx[k], cy[k]) if total != 0.0 else None
                if first[k] >= n:
                    held = tuple(bodies[first[k] - n:first[k] - n + count[k]])
                else:
                    kids = tuple(view(c, cell_box(self.root_box, c)) for c in child_coords(coord))
            size = len(held) if kids is None else sum(kid.count for kid in kids)
            node = Node(coord, box, kids, held, size, total, com,
                        box.lo.x, box.lo.y, box.hi.x, box.hi.y)
            if kids is None:
                leaves.append(node)
            return node

        return view(CellCoord(0, 0, 0), self.root_box), leaves

    def leaf_rows(self, min_depth: int = 0) -> np.ndarray:
        """Rows of the non-empty leaf cells at depth >= min_depth, depth-first.

        The depth cut is inclusive, so deeper leaves always survive a cut that
        their shallower siblings pass.
        """
        if min_depth < 0:
            raise ValueError(f"negative depth threshold: {min_depth}")
        n = len(self.first) - 1
        rows = np.flatnonzero((self.first[:n] >= n) & (self.coords[0] >= min_depth))
        return rows[np.argsort(self.first[rows])]

    def cell_coords(self, rows: np.ndarray) -> list[CellCoord]:
        """The cells of node rows.  Rows hold valid coordinates by
        construction, so CellCoord's checks are skipped."""
        return list(map(tuple.__new__, repeat(CellCoord), self.coords[:, rows].T.tolist()))

    def cell_bodies(self, rows: np.ndarray) -> dict[CellCoord, tuple[int, ...]]:
        """The cells of leaf rows, in their order, mapped to their body ids."""
        ids = self.id.tolist()
        return {c: tuple(ids[f:f + k]) for c, f, k in zip(
            self.cell_coords(rows), self.first[rows].tolist(), self.count[rows].tolist())}

    def leaf_cells(self, min_depth: int = 0) -> dict[CellCoord, tuple[int, ...]]:
        """The cells of leaf_rows(min_depth), mapped to their body ids."""
        return self.cell_bodies(self.leaf_rows(min_depth))

    def query_radius(self, center: Vec2, radius: float) -> list[int]:
        """Ids of the bodies query_radius_bodies returns, in the same order."""
        return self.bodies.id[self._hits(center, radius)].tolist()

    def query_radius_bodies(self, center: Vec2, radius: float) -> list[Body]:
        """Bodies with distance <= radius from center, boundary inclusive.

        A one-target call of radius_hits: only nodes whose box touches the
        disk's bounding square are descended, in the fixed child order, so
        hits come leaf by leaf depth-first and in leaf order within a leaf.
        Bodies are filtered by exact squared distance: no square root is
        taken and a body exactly on the radius is always included.
        """
        return list(map(self.bodies.objects.__getitem__, self._hits(center, radius).tolist()))

    @np.errstate(all="ignore")  # like Python floats: a huge radius overflows to inf silently
    def _hits(self, center: Vec2, radius: float) -> np.ndarray:
        if radius < 0:
            raise ValueError(f"negative query radius: {radius}")
        hits = [body for *_, body, _ in radius_hits(
            self, np.array([center.x]), np.array([center.y]), np.array([radius], dtype=float))]
        return self.order[np.concatenate(hits)]


@np.errstate(all="ignore")  # like Python floats: overflow and NaN in a huge box pass silently
def build_tree(bodies, root_box: AABB, capacity: int, max_depth: int = 24) -> NTree:
    """Build the quadtree for a snapshot of bodies.

    Splitting is triggered by count > capacity, so a cell holding exactly
    `capacity` bodies stays a leaf.  Bodies sitting exactly on a split line go
    to the child with the larger index; a body on the root's upper boundary
    therefore still lands in a valid leaf.  A split has all four children;
    the empty ones get no row.

    Cells split level by level: a stable partition on x >= split_x and
    y >= split_y, the split lines taken as cell_box takes them, keeps each
    cell's bodies in input order.  Leaf sums run over a leaf's bodies in that
    order and parent sums over the four children in child order, each from
    0.0, so every aggregate is the float a recursive build would compute.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be at least 1, got {capacity}")
    if max_depth < 0:
        raise ValueError(f"negative max_depth: {max_depth}")
    if max_depth > 53:  # past it ix * w in cell_box is inexact, and int64 ix overflows past 62
        raise ValueError(f"max_depth must be at most 53, got {max_depth}")
    bodies = as_bodies(bodies)
    x, y, charge, ids = bodies.x, bodies.y, bodies.charge, bodies.id
    dup = np.ones(len(ids), dtype=bool)
    dup[np.unique(ids, return_index=True)[1]] = False
    lo, hi = root_box.lo, root_box.hi
    outside = ~((lo.x <= x) & (x <= hi.x) & (lo.y <= y) & (y <= hi.y))
    for k in np.flatnonzero(dup | outside)[:1].tolist():  # the first bad body, as a loop meets it
        if dup[k]:
            raise ValueError(f"duplicate body id: {ids[k]}")
        raise ValueError(
            f"body {ids[k]} at ({x[k].item()}, {y[k].item()}) lies outside the root box")

    perm = np.arange(len(bodies))  # becomes the depth-first order
    ix = iy = start = np.zeros(1 if bodies else 0, dtype=np.int64)
    size = np.full(len(ix), len(bodies))
    # Per depth its rows; per split row, breadth-first, its non-empty children.
    levels, fans = [], [np.zeros(0, np.int64)]
    while True:
        split = (size > capacity) & (len(levels) < max_depth)
        levels.append((ix, iy, start, size, split, np.full(len(size), len(levels))))
        ix, iy, start, size = ix[split], iy[split], start[split], size[split]
        if not len(size):
            break
        owner, at = _spans(np.arange(len(size)), start, size)
        inside = perm[at]
        w, h = root_box.width / (1 << len(levels)), root_box.height / (1 << len(levels))
        right = x[inside] >= (lo.x + (2 * ix + 1) * w)[owner]
        up = y[inside] >= (lo.y + (2 * iy + 1) * h)[owner]
        cell = owner * 4 + right + 2 * up  # (split cell, child) in child order
        perm[at] = inside[np.argsort(cell, kind="stable")]
        kids = np.bincount(cell, minlength=4 * len(size))
        fans.append(np.count_nonzero(kids.reshape(-1, 4), axis=1))
        ix = (2 * ix[:, None] + [0, 1, 0, 1]).reshape(-1)[kids > 0]
        iy = (2 * iy[:, None] + [0, 0, 1, 1]).reshape(-1)[kids > 0]
        start, size = at[(np.cumsum(kids) - kids)[kids > 0]], kids[kids > 0]

    ix, iy, start, size, split, depth = (np.concatenate(c) for c in zip(*levels))
    n, fan = len(ix), np.concatenate(fans)
    first, count = np.append(n + start, 0), np.append(size, 0)
    first[:n][split] = 1 + np.cumsum(fan) - fan  # children follow breadth-first
    count[:n][split] = fan

    box = np.empty((5, n + 1))
    box[:, n] = (math.inf, math.inf, -math.inf, -math.inf, -1.0)
    w, h, last = root_box.width / (1 << depth), root_box.height / (1 << depth), (1 << depth) - 1
    box[:4, :n] = (np.where(ix > 0, lo.x + ix * w, lo.x), np.where(iy > 0, lo.y + iy * h, lo.y),
                   np.where(ix < last, lo.x + (ix + 1) * w, hi.x),
                   np.where(iy < last, lo.y + (iy + 1) * h, hi.y))  # as cell_box takes them
    side = np.maximum(box[2, :n] - box[0, :n], box[3, :n] - box[1, :n])
    box[4, :n] = side * side

    bx, by, bq = x[perm], y[perm], charge[perm]
    sums = np.zeros((3, n))  # charge, charge * x, charge * y
    sums[:, ~split] = _ordered_sums(np.stack([bq, bq * bx, bq * by]), start[~split],
                                    size[~split])
    for d in range(len(levels) - 2, -1, -1):  # parents after their children
        parents = np.flatnonzero(split & (depth == d))
        sums[:, parents] = _ordered_sums(sums, first[parents], count[parents])
    q, wx, wy = sums
    cx = np.where(q != 0.0, wx / q, math.nan)  # a cancelled node's center is NaN
    cy = np.where(q != 0.0, wy / q, math.nan)
    return NTree(bodies=bodies, root_box=root_box, capacity=capacity, max_depth=max_depth,
                 box=box, first=first, count=count, coords=np.stack([depth, ix, iy]),
                 cx=np.concatenate([cx, bx]), cy=np.concatenate([cy, by]),
                 charge=np.concatenate([q, bq]),
                 id=np.concatenate([np.full(n, -2), ids[perm]]), order=perm)


def _ordered_sums(values: np.ndarray, start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Each row of values summed over every span start .. start + size - 1.

    np.bincount adds each weight to its bin in index order from 0.0, so a
    span's sum adds its values one at a time in order, as a Python loop does.
    A sum begun at 0.0 is never -0.0, so leaving an empty child's 0.0 out of
    a parent's span changes nothing.
    """
    owner, at = _spans(np.arange(len(size)), start, size)
    return np.array([np.bincount(owner, row[at], len(size)) for row in values], dtype=float)


def _spans(owner: np.ndarray, start: np.ndarray, size: np.ndarray):
    """(owner, index) for each index start .. start + size - 1 of each span,
    span by span: the one expansion of ragged spans into flat indices.  No
    owner (None) gives None for the owners."""
    at = np.arange(size.sum()) + np.repeat(start - np.cumsum(size) + size, size)
    return None if owner is None else np.repeat(owner, size), at


def _pow2(x: float) -> int:
    """The power of two nearest to x, and at least 1."""
    return 1 << max(round(math.log2(x)), 0) if x > 1 else 1


def _near_leaves(tree: NTree, query, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(target, leaf row) for every leaf whose box meets the query box of a
    target in lo .. hi-1, sorted by target, then depth-first.

    A level-synchronous frontier that tests every node it visits against
    the query box.  Each pair is replaced by its children in order and
    a leaf by itself, so the frontier stays in depth-first order and ends as
    the leaves met.
    """
    box, first, count = tree.box, tree.first, tree.count
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
        t, row = _spans(t, base[row], fan[row])


def radius_hits(tree: NTree, x: np.ndarray, y: np.ndarray, radius: np.ndarray):
    """Bodies within radius of many centers at once, over the tree's rows.

    Yields (a, b, target, body, d2) chunk by chunk for consecutive targets
    a .. b-1: the target indexes x, y and radius, body is the index in the
    depth-first body order (row n + body) and d2 the squared distance.  A
    target's hits are the bodies of the leaves whose box meets its query
    box, leaf by leaf depth-first and in leaf order, that pass the inclusive
    dx*dx + dy*dy <= r*r test: the order of a scalar depth-first walk that
    descends only nodes meeting the query box (tests/oracles.py,
    query_radius_walk).
    """
    first, count = tree.first, tree.count
    n = len(first) - 1
    bx, by = tree.cx[n:], tree.cy[n:]
    query = (x + radius, x - radius, y + radius, y - radius)
    r2 = radius * radius
    lo, size = 0, _pow2(_BLOCK_PAIRS / 32)  # a first guess of 32 leaves per query
    while lo < len(x):
        hi = min(lo + size, len(x))
        leaf_t, leaf = _near_leaves(tree, query, lo, hi)
        size = _pow2(_BLOCK_PAIRS * (hi - lo) / max(len(leaf_t), 1))
        leaf_start, leaf_k = first[leaf] - n, count[leaf]
        del leaf
        step = _pow2(_CHUNK_TERMS * (hi - lo) / max(int(leaf_k.sum()), 1))
        cuts = list(range(lo, hi, step)) + [hi]
        ends = np.cumsum(np.bincount(leaf_t - lo, minlength=hi - lo))
        ends = [0, *ends[[c - lo - 1 for c in cuts[1:]]].tolist()]
        for a, b, p, q in zip(cuts, cuts[1:], ends, ends[1:]):
            t, body = _spans(leaf_t[p:q], leaf_start[p:q], leaf_k[p:q])
            dx, dy = bx[body] - x[t], by[body] - y[t]
            d2 = dx * dx + dy * dy
            hit = d2 <= r2[t]
            t, body, d2 = t[hit], body[hit], d2[hit]
            del dx, dy, hit  # the candidates' scratch is not kept while the caller works
            yield a, b, t, body, d2
        lo = hi
