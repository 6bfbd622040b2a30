"""Dense-group detection over deep leaf cells.

A depth cut keeps every non-empty leaf at or below a threshold depth in the
tree; only regions dense enough to force subdivision reach such depths, so
the surviving cells mark crowded areas.  Grouping then partitions those cells
into connected components under closed-box adjacency, where sharing an edge
or a single corner point counts as contact.

Two interchangeable grouping routines are provided.  `group_cells` is the
quadratic reference sweep; `group_cells2` is union-find (Tarjan 1975) over
same-depth neighbour and ancestor lookups (Samet 1982).  Both return the
same partition for any input and any seed, which the test suite checks
against an independent union-find oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import fsum, ldexp
from typing import Iterable

from .geometry import AABB, CellCoord, Vec2, cells_touch
from .ntree import NTree


@dataclass(frozen=True, slots=True)
class CellSet:
    """Cut result: coordinates of the kept leaves, each with its body ids."""

    cells: dict[CellCoord, tuple[int, ...]]

    @classmethod
    def from_tree(cls, tree: NTree, min_depth: int) -> CellSet:
        """Non-empty leaf cells with depth >= min_depth (inclusive cut)."""
        return cls(tree.leaf_cells(min_depth))

    def coords(self) -> set[CellCoord]:
        return set(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

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


def _coord_pool(cells: CellSet | Iterable[CellCoord]):
    if isinstance(cells, CellSet):
        return cells.cells
    return cells


def group_cells(cells: CellSet, seed: int = 0) -> list[frozenset[CellCoord]]:
    """Reference grouping: seed a group on a random cell, sweep for contacts.

    Each sweep scans the remaining cells in sorted order and absorbs any cell
    touching the group built so far; sweeps repeat until one adds nothing, so
    the group closes into a full connected component no matter where the seed
    fell.  A later sweep only needs to test against cells absorbed by the
    previous one: anything touching an older member was already absorbed in
    the sweep after that member joined.
    """
    rng = random.Random(seed)
    remaining = set(_coord_pool(cells))
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


def group_cells2(cells: CellSet | Iterable[CellCoord], tree: NTree,
                 seed: int = 0) -> list[frozenset[CellCoord]]:
    """Union-find grouping: join each cell to the pooled cells around it.

    A cell c = (d, ix, iy) is joined with the first pooled cell on the
    ancestor chain (d - s, nx >> s, ny >> s) of each same-depth neighbour
    (nx, ny), where one outside [0, 2**d) matches nothing, and with its own
    first pooled proper ancestor.  A pooled cell no smaller than c touching c
    contains c or one of those neighbours, and a smaller one finds c from its
    own side: the components are those of `cells_touch`, nested pools too.
    Neither `tree` nor `seed` is read; both stay for callers that pass them.
    """
    coords = list(dict.fromkeys(_coord_pool(cells)))
    index = {c: i for i, c in enumerate(coords)}
    depths = sorted({c.depth for c in coords}, reverse=True)
    # Shifts up to the shallower depths present: for c itself, for a neighbour.
    walks = {d: (up := tuple(d - e for e in depths if e < d), (0, *up)) for d in depths}
    parent = list(range(len(coords)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, c in enumerate(coords):
        d, ix, iy = c
        own, other = walks[d]
        for nx in (ix - 1, ix, ix + 1):
            for ny in (iy - 1, iy, iy + 1):
                for s in (own if nx == ix and ny == iy else other):
                    j = index.get((d - s, nx >> s, ny >> s))
                    if j is not None:
                        parent[find(j)] = find(i)
                        break

    groups: dict[int, list[CellCoord]] = {}
    for i, c in enumerate(coords):
        groups.setdefault(find(i), []).append(c)
    return [frozenset(g) for g in groups.values()]


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


def organizations_from(groups: Iterable[Iterable[CellCoord]],
                       tree: NTree) -> list[Organization]:
    """Materialize organizations from cell groups.

    Members are the union of the body ids in each group's leaves, sorted and
    duplicate-free; a group with no members is dropped.  The centroid is the
    unweighted mean of member positions and the bounding box covers member
    positions, not cell extents.  Ids are assigned by descending member
    count, ties broken by the smallest cell coordinate, so output order is
    deterministic.
    """
    n = len(tree.first) - 1
    first, count, ids = tree.first.tolist(), tree.count.tolist(), tree.id.tolist()
    px, py = tree.cx.tolist(), tree.cy.tolist()
    row = {c: k for k, c in enumerate(zip(*tree.coords.tolist()))}  # node rows by coordinate
    protos = []
    for raw in groups:
        cell_group = frozenset(raw)
        rows: list[int] = []
        for c in sorted(cell_group):
            d, ix, iy = c
            k, parent = row.get(c), row.get((d - 1, ix >> 1, iy >> 1))
            if k is not None and first[k] >= n:  # a leaf row
                rows.extend(range(first[k], first[k] + count[k]))
            elif k is not None or parent is None or first[parent] >= n:
                # not an empty leaf either, the rowless child of an internal row
                raise ValueError(f"cell ({d}, {ix}, {iy}) is not a leaf of the tree")
        if not rows:  # no cells, or only empty leaves
            continue
        rows.sort(key=ids.__getitem__)  # by member id
        members = tuple(ids[k] for k in rows)
        xs, ys = [px[k] for k in rows], [py[k] for k in rows]
        centroid = Vec2(_mean(xs), _mean(ys))
        bbox = AABB(Vec2(min(xs), min(ys)), Vec2(max(xs), max(ys)))
        protos.append((cell_group, members, centroid, bbox))

    protos.sort(key=lambda t: (-len(t[1]), min(t[0])))
    return [Organization(i, cells, members, centroid, bbox)
            for i, (cells, members, centroid, bbox) in enumerate(protos)]
