"""Interaction graphs over body positions and weighted modularity.

The graph is complete: every body pair gets a weight derived from their
distance.  Modularity rewards partitions whose intra-group weight beats the
degree-based expectation, so weights must mean similarity, not distance.
Raw distances invert that meaning and reward spread-out groups; the raw
transform is kept for experiments but the inverse transform is the default.

A graph from `interaction_graph` holds only the N x 2 positions.  Weights
are symmetric bit for bit, so only the strict upper triangle is computed,
_BLOCK_ROWS rows at a time, and `modularity` reduces each block to per-node
row and column sums: memory is O(N * _BLOCK_ROWS).  The dense N x N matrix
is built, by mirroring the same blocks, only when a caller reads `.weights`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .ntree import columns

TRANSFORM_INVERSE = "inverse"
TRANSFORM_GAUSSIAN = "gaussian"
TRANSFORM_RAW = "raw"
TRANSFORMS = (TRANSFORM_INVERSE, TRANSFORM_GAUSSIAN, TRANSFORM_RAW)

INVERSE_EPSILON = 1e-9
_BLOCK_ROWS = 64  # weight rows filled per block


class WeightedGraph:
    """Complete undirected graph with zero diagonal.

    `WeightedGraph(n, weights)` wraps a dense symmetric matrix, which is
    read by its strict upper triangle: the diagonal is taken to be zero and
    the lower triangle to be the upper one's mirror.  A graph made by
    `interaction_graph` keeps the positions, transform and sigma instead and
    computes weight rows on demand.
    """

    def __init__(self, n: int, weights: np.ndarray | None = None, *,
                 positions: np.ndarray | None = None,
                 transform: str = TRANSFORM_INVERSE, sigma: float = 1.0) -> None:
        self.n = n
        if positions is not None:
            self.positions, self.transform, self.sigma = positions, transform, sigma
        elif weights.shape != (n, n):
            raise ValueError(f"weight matrix shape {weights.shape} does not match n={n}")
        else:
            self.weights = weights

    @cached_property
    def weights(self) -> np.ndarray:
        """The dense matrix: the upper blocks of `_row_blocks`, mirrored."""
        w = np.empty((self.n, self.n))
        for lo, rows in self._row_blocks(np.arange(self.n)):
            hi = lo + len(rows)
            w[lo:hi, lo:] = rows
            w[hi:, lo:hi] = rows[:, hi - lo:].T
            w[lo:hi, lo:hi] += rows[:, :hi - lo].T  # one of each pair is 0.0
        return w

    def _row_blocks(self, order: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """(lo, rows) per block of _BLOCK_ROWS upper-triangle weight rows.

        Nodes are taken in `order`: the rows of block [lo, hi) hold the
        weights between nodes order[lo:hi] and order[lo:], with every entry
        on or below the diagonal set to 0.0.  Blocks are gathered from the
        dense matrix when the graph holds one, and otherwise computed into a
        buffer that the next block overwrites.
        """
        n, dense = self.n, vars(self).get("weights")
        low = np.tri(min(n, _BLOCK_ROWS), dtype=bool)  # on or below the diagonal
        if dense is None:
            x, y = (np.ascontiguousarray(self.positions[order, k]) for k in (0, 1))
            buf = np.empty((2, min(n, _BLOCK_ROWS) * n))
        for lo in range(0, n, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n)
            if dense is not None:
                rows = dense[np.ix_(order[lo:hi], order[lo:])]
            else:
                # dx*dx + dy*dy is bit for bit the sum over the last axis of an
                # N x N x 2 difference tensor, never built, and symmetric in i, j.
                # dx = x_j - x_i is -(x_i - x_j) exactly, so its square is the same.
                rows, dy = buf[:, :(hi - lo) * (n - lo)].reshape(2, hi - lo, n - lo)
                rows[:] = x[lo:]
                rows -= x[lo:hi, None]
                rows *= rows
                dy[:] = y[lo:]
                dy -= y[lo:hi, None]
                dy *= dy
                rows += dy
                np.sqrt(rows, out=rows)
                # The transforms run in place, in the float operations of
                # 1 / (d + eps) and exp(-(d * d) / (2 sigma^2)).
                if self.transform == TRANSFORM_INVERSE:
                    rows += INVERSE_EPSILON
                    np.divide(1.0, rows, out=rows)
                elif self.transform == TRANSFORM_GAUSSIAN:
                    rows *= rows
                    np.negative(rows, out=rows)
                    rows /= 2.0 * self.sigma * self.sigma
                    np.exp(rows, out=rows)
            rows[:, :hi - lo][low[:hi - lo, :hi - lo]] = 0.0
            yield lo, rows


def interaction_graph(bodies, transform: str = TRANSFORM_INVERSE, *,
                      sigma: float = 1.0) -> WeightedGraph:
    """Interaction graph of body positions; weights are computed on demand.

    Transforms: inverse gives 1 / (d + 1e-9), gaussian gives
    exp(-d^2 / (2 sigma^2)), raw keeps the distance itself.
    """
    bodies = list(bodies)
    if len(bodies) < 2:
        raise ValueError(f"need at least 2 bodies, got {len(bodies)}")
    if transform not in TRANSFORMS:
        raise ValueError(f"unknown transform: {transform!r}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    pos = np.column_stack(columns(bodies, "position.x position.y"))
    return WeightedGraph(len(bodies), positions=pos, transform=transform, sigma=sigma)


def modularity(graph: WeightedGraph, partition: Sequence[Iterable[int]]) -> float:
    """Newman weighted modularity of a node partition.

    Q = sum over groups of (intra weight / W - (incident weight / W)^2) with
    W the total weight counting each undirected edge once.  Q is invariant
    under uniform scaling of all weights.  Raises on an empty graph (W = 0)
    and on a partition that is not a disjoint cover of all nodes.

    One pass over the upper-triangle row blocks, nodes sorted by group, so
    each weight is computed once.  Every row p of group [s, e) keeps two row
    sums (one reduceat per block): uo over its own group's later members and
    ul over the later groups.  Its column sums are carried row by row in
    order: ce over the earlier groups, saved and restarted at the group's
    first row, and co over its own group's earlier members.  A node's
    own-group sum is uo + co and its degree (uo + ul) + (ce + co); W and the
    group sums are math.fsum over those.  No sum depends on _BLOCK_ROWS, and
    a single group covering every node has intra = incident = W bit for bit,
    so it scores exactly 0.0.
    """
    n = graph.n
    groups = [np.fromiter(map(int, g), dtype=int) for g in partition]
    nodes = np.concatenate([np.zeros(0, dtype=int), *groups])
    outside = (nodes < 0) | (nodes >= n)
    seen = np.ones(len(nodes), dtype=bool)  # seen before, walking the partition in order
    seen[np.unique(nodes, return_index=True)[1]] = False
    for k in np.flatnonzero(outside | seen)[:1].tolist():
        if outside[k]:
            raise ValueError(f"node {nodes[k]} out of range for graph of {n}")
        raise ValueError(f"node {nodes[k]} appears in more than one group")
    if len(nodes) != n:
        raise ValueError(f"partition covers {len(nodes)} of {n} nodes")

    label = np.empty(n, dtype=np.intp)
    label[nodes] = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order], prepend=-1)).tolist()
    group_end = dict(zip(starts, starts[1:] + [n]))
    end = np.repeat(list(group_end.values()), np.diff(starts + [n]))  # each row's e
    uo, ul, ce, co = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    for lo, rows in graph._row_blocks(order):
        hi, m = lo + len(rows), n - lo
        p = np.arange(lo, hi)
        # Row p's segments, at base + column: lo..p (0.0s, thrown away, so no
        # segment spills into the next row), p+1..e-1 and e..n-1.  Indices at
        # the block's end would start empty segments and are left out.
        base = (p - lo) * m - lo
        at = np.stack([base + lo, base + p + 1, base + end[lo:hi]], axis=1).ravel()
        keep, sums = at < rows.size, np.zeros(len(at))
        sums[keep] = np.add.reduceat(rows.ravel(), at[keep])
        # reduceat gives an empty segment's first element, not 0.0.
        uo[lo:hi] = np.where(p + 1 < end[lo:hi], sums[1::3], 0.0)
        ul[lo:hi] = np.where(end[lo:hi] < n, sums[2::3], 0.0)
        # co carries every column's sum over the rows so far, added in row
        # order by one reduce per stretch of rows between group starts.
        cuts = [lo, *starts[bisect_right(starts, lo):bisect_left(starts, hi)], hi]
        for a, b in zip(cuts, cuts[1:]):
            if a in group_end:  # the carry of the group's columns is ce
                e = group_end[a]
                ce[a:e], co[a:e] = co[a:e], 0.0
            rows[a - lo] += co[lo:]
            np.add.reduce(rows[a - lo:b - lo], axis=0, out=co[lo:])
    own, degree = uo + co, (uo + ul) + (ce + co)
    two_w = math.fsum(degree)
    if two_w == 0.0:
        raise ValueError("graph has zero total weight; modularity is undefined")
    q = 0.0
    for s, e in group_end.items():
        intra = math.fsum(own[s:e]) / two_w
        incident = math.fsum(degree[s:e]) / two_w
        q += intra - incident * incident
    return q


def organization_partition(organizations, n_bodies: int) -> list[list[int]]:
    """Partition of all body ids 0..n-1: one group per organization plus the rest.

    Bodies not covered by any organization form one explicit trailing group.
    Assumes organizations are disjoint, which holds for groups cut from one
    tree.
    """
    groups = [list(org.members) for org in organizations]
    members = np.fromiter(chain.from_iterable(groups), dtype=int)
    covered = np.zeros(n_bodies, dtype=bool)
    covered[members[(0 <= members) & (members < n_bodies)]] = True
    rest = np.flatnonzero(~covered).tolist()
    return groups + [rest] if rest else groups
