"""Dense-group detection over deep leaf cells.

A depth cut keeps every non-empty leaf at or below a threshold depth in the
tree; only regions dense enough to force subdivision reach such depths, so
the surviving cells mark crowded areas.  Grouping then partitions those cells
into connected components under closed-box adjacency, where sharing an edge
or a single corner point counts as contact.

A cut (`CellSet`) holds the tree's leaf rows, depth-first, as `from_tree`
builds them.  Two grouping routines are provided.  `group_cells` is the
quadratic reference sweep, and groups any pool of cells.  `group_cells2`
groups a cut over arrays: each cell is an interval of Z-order codes (Warren
& Salmon 1993) at the cut's deepest depth, one binary search per same-depth
neighbour finds the cut leaf that contains it, and pointer jumping
(Shiloach & Vishkin 1982) labels the components.  On a cut both return the
same partition for any seed, which the test suite checks against an
independent union-find oracle.  `organizations_from` finds each group's
leaf rows by the same intervals and reduces their body spans with numpy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import fsum, ldexp, nan
from typing import Iterable

import numpy as np

from .geometry import AABB, CellCoord, Vec2, cells_touch
from .kernels import _fsums
from .ntree import NTree, _spans


@dataclass(frozen=True, eq=False)
class CellSet:
    """Cut result: the kept leaves as rows of their tree, depth-first, as
    `from_tree` builds them.  `cells` maps their coordinates to body ids; it
    is built when first read.  Any other rows raise ValueError."""

    tree: NTree
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows, first, n = self.rows, self.tree.first, len(self.tree.first) - 1
        if not (isinstance(rows, np.ndarray) and rows.ndim == 1 and rows.dtype.kind in "iu"
                and ((0 <= rows) & (rows < n)).all()
                and (np.diff(first[rows], prepend=n - 1) > 0).all()):  # leaves, first increasing
            raise ValueError("CellSet rows must be leaf rows of its tree in from_tree's order")

    @classmethod
    def from_tree(cls, tree: NTree, min_depth: int) -> CellSet:
        """Non-empty leaf cells with depth >= min_depth (inclusive cut)."""
        return cls(tree, tree.leaf_rows(min_depth))

    @cached_property
    def cells(self) -> dict[CellCoord, tuple[int, ...]]:
        return self.tree.cell_bodies(self.rows)

    def coords(self) -> set[CellCoord]:
        return set(self.cells)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, coord: CellCoord) -> bool:
        return coord in self.cells


@dataclass(frozen=True, slots=True)
class Organization:
    """A detected group: its cells, member body ids, and position summary."""

    id: int
    cells: frozenset[CellCoord]
    members: tuple[int, ...]
    centroid: Vec2
    bounding_box: AABB


def _columns(coords: list) -> np.ndarray:
    """The depth, ix and iy columns of the cells: int64, or Python ints in
    object arrays when a cell lies past depth 62."""
    try:
        flat = np.fromiter(chain.from_iterable(coords), np.int64, 3 * len(coords))
    except OverflowError:
        flat = np.array(list(chain.from_iterable(coords)), dtype=object)
    return flat.reshape(-1, 3).T


def _spread(v: np.ndarray, width: int) -> np.ndarray:
    """Bit b of each v < 2**width moved to bit 2b; width is a power of two."""
    shift = width // 2
    while shift:
        mask = sum(((1 << shift) - 1) << (2 * shift * k) for k in range(width // shift))
        v = (v | (v << shift)) & mask
        shift //= 2
    return v


def _codes(d: np.ndarray, ix: np.ndarray, iy: np.ndarray, depth: int):
    """The x and the y bits of each cell's Z-order code at its own depth,
    x at the even bits and y at the odd ones, and the shift that takes a
    code to `depth`, no less than any d.  The codes at `depth` take 2 *
    depth bits: int64 up to depth 31, Python ints in object arrays past it.
    """
    kind = np.int64 if depth <= 31 else object
    width = 1 << max(depth - 1, 0).bit_length()
    zx, zy = _spread(ix.astype(kind), width), _spread(iy.astype(kind), width) << 1
    return zx, zy, 2 * (depth - d.astype(kind))


def _intervals(d: np.ndarray, ix: np.ndarray, iy: np.ndarray, depth: int):
    """(lo, hi): each cell's interval of Z-order codes at `depth` (_codes).
    Cells nest exactly when their intervals do, and are otherwise disjoint.
    """
    zx, zy, shift = _codes(d, ix, iy, depth)
    return (zx | zy) << shift, ((zx | zy) + 1) << shift


def _components(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each node's smallest fellow in the graph on 0 .. size-1 with edges
    (a, b).  Each round hooks every root onto the smallest root that an edge
    still joins it to, and pointer jumping then makes every node point at
    its root again.
    """
    label = np.arange(size)
    while len(a):
        la, lb = label[a], label[b]
        apart = la != lb  # an edge inside one tree stays inside it
        a, b, la, lb = a[apart], b[apart], la[apart], lb[apart]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while (label != (jumped := label[label])).any():
            label = jumped
    return label


def group_cells(cells: CellSet | Iterable[CellCoord],
                seed: int = 0) -> list[frozenset[CellCoord]]:
    """Reference grouping: seed a group on a random cell, sweep for contacts.

    Each sweep scans the remaining cells in sorted order and absorbs any cell
    touching the group built so far; sweeps repeat until one adds nothing, so
    the group closes into a full connected component no matter where the seed
    fell.  A later sweep only needs to test against cells absorbed by the
    previous one: anything touching an older member was already absorbed in
    the sweep after that member joined.
    """
    rng = random.Random(seed)
    remaining = set(cells.cells if isinstance(cells, CellSet) else cells)
    groups: list[frozenset[CellCoord]] = []
    while remaining:
        pool = sorted(remaining)
        c = pool[rng.randrange(len(pool))]
        remaining.remove(c)
        group = {c}
        frontier = [c]
        while frontier:
            absorbed = [cand for cand in sorted(remaining)
                        if any(cells_touch(cand, m) for m in frontier)]
            if not absorbed:
                break
            remaining.difference_update(absorbed)
            group.update(absorbed)
            frontier = absorbed
        groups.append(frozenset(group))
    return groups


def group_cells2(cells: CellSet, tree: NTree, seed: int = 0) -> list[frozenset[CellCoord]]:
    """Grouping over arrays: join each cut leaf to the cut leaves around it.

    A cell c = (d, ix, iy) is joined with the cut leaf that contains each
    same-depth neighbour (nx, ny), where one outside [0, 2**d) matches
    nothing.  A cut leaf no smaller than c touching c contains c or one of
    those neighbours, and a smaller one finds c from its own side: the
    components are those of `cells_touch`.

    The cut's leaves come depth-first and never nest, so their intervals
    (`_intervals`) are sorted and disjoint: the last one starting at or
    before a neighbour's first code is its only candidate.  Plain pools go
    to `group_cells`.  `tree` and `seed` are not read; they stay for callers.
    """
    if not isinstance(cells, CellSet):
        raise TypeError(f"group_cells2 takes a CellSet, not {type(cells).__name__}; "
                        "group plain pools with group_cells")
    coords = cells.tree.cell_coords(cells.rows)
    if not coords:
        return []
    d, ix, iy = cells.tree.coords[:, cells.rows]
    depth, m = int(d.max()), len(coords)
    zx, zy, shift = _codes(d, ix, iy, depth)
    lo = (zx | zy) << shift
    # hi and d end in a sentinel that contains nothing, for the index -1.
    hi, d = np.append(((zx | zy) + 1) << shift, 0), np.append(d, -1)

    # The same-depth neighbours, x - 1, x and x + 1 by y - 1, y and y + 1 but
    # the cell itself, by arithmetic on the interleaved bits of their codes.
    even = sum(1 << 2 * k for k in range(depth))
    odd, last = even << 1, (1 << d[:m]) - 1
    xs = (((zx - 1) & even, ix > 0), (zx, True), (((zx | odd) + 1) & even, ix < last))
    ys = (((zy - 1) & odd, iy > 0), (zy, True), (((zy | even) + 1) & odd, iy < last))
    near = [(x | y, fx & fy) for j, (x, fx) in enumerate(xs) for k, (y, fy) in enumerate(ys)
            if j != 1 or k != 1]
    keep = np.concatenate([np.broadcast_to(f, m) for _, f in near])
    who = np.tile(np.arange(m), len(near))[keep]
    start = np.concatenate([z for z, _ in near])[keep] << shift[who]
    # The last cell starting at or before each neighbour's start, if it
    # contains the neighbour and is no deeper; a same-depth pair finds itself
    # from both sides, and one edge is enough.
    at = np.searchsorted(lo, start, "right") - 1
    found = (hi[at] > start) & (d[at] <= d[who]) & ((d[at] < d[who]) | (at < who))
    label = _components(m, who[found], at[found])
    by = np.argsort(label, kind="stable")
    cuts = (np.flatnonzero(np.diff(label[by])) + 1).tolist()
    ordered = [coords[k] for k in by.tolist()]
    return [frozenset(ordered[a:b]) for a, b in zip([0, *cuts], [*cuts, m])]


def _mean(values: list[float]) -> float:
    """The mean of finite floats, fsum over the count.  When the sum
    overflows, the values are scaled by 2^-k, with 2^k above their count, so
    their sum cannot; the mean of those is scaled back, which is finite.
    """
    try:
        return fsum(values) / len(values)
    except OverflowError:
        k = len(values).bit_length()
        return ldexp(fsum(ldexp(v, -k) for v in values) / len(values), k)


def _means(v: np.ndarray, size: np.ndarray) -> np.ndarray:
    """_mean of each segment of v, the k-th its next size[k] > 0 values, bit
    for bit: fsum by _fsums, and _mean itself where the values' magnitudes
    pass 2^900, where the sum may overflow."""
    sums = _fsums(v, size, huge=lambda values: nan)
    out = sums / size
    start = np.cumsum(size) - size
    for k in np.flatnonzero(np.isnan(sums)).tolist():
        out[k] = _mean(v[start[k]:start[k] + size[k]].tolist())
    return out


def _extremes(reduce, v: np.ndarray, start: np.ndarray) -> np.ndarray:
    """reduce (np.minimum or np.maximum) over each segment from start to the
    next.  min and max keep the first of equal values, so a zero result is
    the segment's first zero: 0.0 and -0.0 compare equal.
    """
    out = reduce.reduceat(v, start)
    end = np.append(start[1:], len(v))
    for k in np.flatnonzero(out == 0.0).tolist():
        segment = v[start[k]:end[k]]
        out[k] = segment[np.argmax(segment == 0.0)]
    return out


def organizations_from(groups: Iterable[Iterable[CellCoord]],
                       tree: NTree) -> list[Organization]:
    """Materialize organizations from cell groups.

    Members are the union of the body ids in each group's leaves, sorted and
    duplicate-free; a group with no members is dropped.  The centroid is the
    unweighted mean of member positions and the bounding box covers member
    positions, not cell extents.  Ids are assigned by descending member
    count, ties broken by the smallest cell coordinate, so output order is
    deterministic.

    Each cell is found among the tree's leaves by its interval
    (`_intervals`).  A cell that is neither a non-empty leaf nor an empty
    one, the rowless child of an internal row, raises ValueError, the first
    in group order and then in cell order.  The members come from the
    leaves' body spans, ordered by (group, id) in one lexsort.
    """
    cell_groups = [frozenset(g) for g in groups]
    cells = list(chain.from_iterable(cell_groups))
    if not cells:
        return []
    owner = np.repeat(np.arange(len(cell_groups)), [len(g) for g in cell_groups])
    n = len(tree.first) - 1
    leaf = tree.leaf_rows()  # in Z order, as the tree's bodies
    d, ix, iy = _columns(cells)
    ld, lx, ly = tree.coords[:, leaf]
    depth = int(max(d.max(), ld.max(initial=0)))
    llo, lhi = _intervals(ld, lx, ly, depth)
    lhi, ld = np.append(lhi, 0), np.append(ld, -1)  # k = -1 lands on a leaf holding nothing
    lo, hi = _intervals(d, ix, iy, depth)
    k = np.searchsorted(llo, lo, "right") - 1
    exact = (lhi[k] > lo) & (ld[k] == d)  # leaf k holds the cell's first point and is the cell
    # A cell with no row is an empty leaf when no leaf meets it and one lies
    # in its parent, which is then an internal row.  (The root, taken as its
    # own parent here, has no row only in a tree without leaves.)
    rest = np.flatnonzero(~exact)
    p_lo, p_hi = _intervals(np.maximum(d[rest] - 1, 0), ix[rest] >> 1, iy[rest] >> 1, depth)
    empty = ((lhi[k[rest]] <= lo[rest]) & (np.searchsorted(llo, hi[rest]) == k[rest] + 1)
             & (np.searchsorted(llo, p_hi) > np.searchsorted(llo, p_lo)))
    if not empty.all():
        _, c = min((owner[j], cells[j]) for j in rest[~empty].tolist())
        raise ValueError(f"cell ({c[0]}, {c[1]}, {c[2]}) is not a leaf of the tree")

    rows = leaf[k[exact]]
    group, at = _spans(owner[exact], tree.first[rows] - n, tree.count[rows])
    ids = tree.id[n:][at]
    by = np.lexsort((ids, group))
    at, ids = at[by], ids[by].tolist()
    size = np.bincount(group, minlength=len(cell_groups))
    kept = np.flatnonzero(size)
    size = size[kept]
    start = np.cumsum(size) - size
    x, y = tree.cx[n:][at], tree.cy[n:][at]
    summary = zip(kept.tolist(), start.tolist(), (start + size).tolist(),
                  *(a.tolist() for a in (_means(x, size), _means(y, size),
                                         _extremes(np.minimum, x, start),
                                         _extremes(np.minimum, y, start),
                                         _extremes(np.maximum, x, start),
                                         _extremes(np.maximum, y, start))))
    protos = [(cell_groups[g], tuple(ids[a:b]), Vec2(mx, my), AABB(Vec2(x0, y0), Vec2(x1, y1)))
              for g, a, b, mx, my, x0, y0, x1, y1 in summary]
    protos.sort(key=lambda t: (-len(t[1]), min(t[0])))
    return [Organization(i, cells, members, centroid, bbox)
            for i, (cells, members, centroid, bbox) in enumerate(protos)]
