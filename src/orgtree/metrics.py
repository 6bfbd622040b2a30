"""Interaction graphs over body positions and weighted modularity.

The graph is complete: every body pair gets a weight derived from their
distance.  Modularity rewards partitions whose intra-group weight beats the
degree-based expectation, so weights must mean similarity, not distance.
Raw distances invert that meaning and reward spread-out groups; the raw
transform is kept for experiments but the inverse transform is the default.

A graph from `interaction_graph` holds only the N x 2 positions.  Weight rows
are filled _BLOCK_ROWS at a time, and `modularity` reduces each block to
per-group row sums and discards it, so memory is O(N * _BLOCK_ROWS).  The
dense N x N matrix is built only when a caller reads `.weights`.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

TRANSFORM_INVERSE = "inverse"
TRANSFORM_GAUSSIAN = "gaussian"
TRANSFORM_RAW = "raw"
TRANSFORMS = (TRANSFORM_INVERSE, TRANSFORM_GAUSSIAN, TRANSFORM_RAW)

INVERSE_EPSILON = 1e-9
_BLOCK_ROWS = 64  # weight rows filled per block


class WeightedGraph:
    """Complete undirected graph with zero diagonal.

    `WeightedGraph(n, weights)` wraps a dense symmetric matrix.  A graph made
    by `interaction_graph` keeps the positions, transform and sigma instead
    and computes weight rows on demand.
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
        """The dense matrix, built from `_row_blocks` on first use."""
        w = np.empty((self.n, self.n))
        for lo, rows in self._row_blocks(np.arange(self.n)):
            w[lo:lo + len(rows)] = rows
        return w

    def _row_blocks(self, order: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """(first row, rows) per block of _BLOCK_ROWS weight rows, columns in `order`.

        Blocks are copied from the dense matrix when the graph holds one, and
        otherwise computed into a buffer that the next block overwrites.
        """
        n, dense = self.n, vars(self).get("weights")
        if dense is not None:
            for lo in range(0, n, _BLOCK_ROWS):
                yield lo, dense[lo:lo + _BLOCK_ROWS][:, order]
            return
        buf = np.empty((2, min(n, _BLOCK_ROWS), n))
        pos, cols, diag = self.positions, self.positions[order], np.argsort(order)
        for lo in range(0, n, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n)
            # dx*dx + dy*dy is bit for bit the sum over the last axis of an
            # N x N x 2 difference tensor, never built.
            rows = np.subtract(pos[lo:hi, None, 0], cols[:, 0], out=buf[0, :hi - lo])
            rows *= rows
            dy = np.subtract(pos[lo:hi, None, 1], cols[:, 1], out=buf[1, :hi - lo])
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
            rows[np.arange(hi - lo), diag[lo:hi]] = 0.0
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
    pos = np.array([[b.position.x, b.position.y] for b in bodies], dtype=float)
    return WeightedGraph(len(bodies), positions=pos, transform=transform, sigma=sigma)


def modularity(graph: WeightedGraph, partition: Sequence[Iterable[int]]) -> float:
    """Newman weighted modularity of a node partition.

    Q = sum over groups of (intra weight / W - (incident weight / W)^2) with
    W the total weight counting each undirected edge once.  Q is invariant
    under uniform scaling of all weights.  Raises on an empty graph (W = 0)
    and on a partition that is not a disjoint cover of all nodes.

    One pass over the weight row blocks: the columns of a block are sorted
    by group, and one reduceat gives every row's per-group sums.  Each row
    keeps its total and its own-group sum, and W and the group sums are
    math.fsum over those.  A single group covering every node therefore has
    intra = incident = W bit for bit and scores exactly 0.0.
    """
    groups = [np.fromiter((int(i) for i in g), dtype=int) for g in partition]
    seen: set[int] = set()
    for g in groups:
        for i in g.tolist():
            if i < 0 or i >= graph.n:
                raise ValueError(f"node {i} out of range for graph of {graph.n}")
            if i in seen:
                raise ValueError(f"node {i} appears in more than one group")
            seen.add(i)
    if len(seen) != graph.n:
        raise ValueError(f"partition covers {len(seen)} of {graph.n} nodes")

    groups = [g for g in groups if len(g)]
    label = np.empty(graph.n, dtype=np.intp)  # each node's group, its column in a block's sums
    for k, g in enumerate(groups):
        label[g] = k
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    degree, own = np.empty(graph.n), np.empty(graph.n)
    for lo, rows in graph._row_blocks(order):
        sums = np.add.reduceat(rows, starts, axis=1)
        degree[lo:lo + len(rows)] = sums.sum(axis=1)
        own[lo:lo + len(rows)] = sums[np.arange(len(sums)), label[lo:lo + len(rows)]]
    two_w = math.fsum(degree)
    if two_w == 0.0:
        raise ValueError("graph has zero total weight; modularity is undefined")
    q = 0.0
    for g in groups:
        intra = math.fsum(own[g]) / two_w
        incident = math.fsum(degree[g]) / two_w
        q += intra - incident * incident
    return q


def organization_partition(organizations, n_bodies: int) -> list[list[int]]:
    """Partition of all body ids 0..n-1: one group per organization plus the rest.

    Bodies not covered by any organization form one explicit trailing group.
    Assumes organizations are disjoint, which holds for groups cut from one
    tree.
    """
    groups = [list(org.members) for org in organizations]
    covered = {i for g in groups for i in g}
    rest = [i for i in range(n_bodies) if i not in covered]
    return groups + [rest] if rest else groups
