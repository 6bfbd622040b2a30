"""Interaction graphs over body positions and weighted modularity.

The graph is complete: every body pair gets a weight derived from their
distance.  Modularity rewards partitions whose intra-group weight beats the
degree-based expectation, so weights must mean similarity, not distance.
Raw distances invert that meaning and reward spread-out groups; the raw
transform is kept for experiments but the inverse transform is the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

TRANSFORM_INVERSE = "inverse"
TRANSFORM_GAUSSIAN = "gaussian"
TRANSFORM_RAW = "raw"
TRANSFORMS = (TRANSFORM_INVERSE, TRANSFORM_GAUSSIAN, TRANSFORM_RAW)

INVERSE_EPSILON = 1e-9
_BLOCK_ROWS = 64  # weight-matrix rows filled per block


@dataclass(frozen=True)
class WeightedGraph:
    """Complete undirected graph as a dense symmetric matrix, zero diagonal."""

    n: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.weights.shape != (self.n, self.n):
            raise ValueError(
                f"weight matrix shape {self.weights.shape} does not match n={self.n}")


def interaction_graph(bodies, transform: str = TRANSFORM_INVERSE, *,
                      sigma: float = 1.0) -> WeightedGraph:
    """Pairwise weight matrix from body positions.

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
    n = len(bodies)
    pos = np.array([[b.position.x, b.position.y] for b in bodies], dtype=float)
    w = np.empty((n, n))
    scratch = np.empty((min(n, _BLOCK_ROWS), n))
    # Rows are filled in cache-sized blocks.  dx*dx + dy*dy is bit for bit the
    # sum over the last axis of an N x N x 2 difference tensor, never built.
    for lo in range(0, n, _BLOCK_ROWS):
        rows = w[lo:lo + _BLOCK_ROWS]
        np.subtract(pos[lo:lo + _BLOCK_ROWS, None, 0], pos[:, 0], out=rows)
        rows *= rows
        dy = np.subtract(pos[lo:lo + _BLOCK_ROWS, None, 1], pos[:, 1], out=scratch[:len(rows)])
        dy *= dy
        rows += dy
        np.sqrt(rows, out=rows)
        if transform == TRANSFORM_INVERSE:
            np.divide(1.0, rows + INVERSE_EPSILON, out=rows)
        elif transform == TRANSFORM_GAUSSIAN:
            np.exp(-(rows * rows) / (2.0 * sigma * sigma), out=rows)
    np.fill_diagonal(w, 0.0)
    return WeightedGraph(n, w)


def modularity(graph: WeightedGraph, partition: Sequence[Iterable[int]]) -> float:
    """Newman weighted modularity of a node partition.

    Q = sum over groups of (intra weight / W - (incident weight / W)^2) with
    W the total weight counting each undirected edge once.  Q is invariant
    under uniform scaling of all weights.  Raises on an empty graph (W = 0)
    and on a partition that is not a disjoint cover of all nodes.

    Group sums are taken straight over matrix rows rather than via cached
    degrees, so a single group covering every node reproduces the total
    weight bit for bit and scores exactly 0.0.
    """
    groups = [np.fromiter((int(i) for i in g), dtype=int) for g in partition]
    seen: set[int] = set()
    total = 0
    for g in groups:
        for i in g.tolist():
            if i < 0 or i >= graph.n:
                raise ValueError(f"node {i} out of range for graph of {graph.n}")
            if i in seen:
                raise ValueError(f"node {i} appears in more than one group")
            seen.add(i)
        total += len(g)
    if total != graph.n:
        raise ValueError(f"partition covers {total} of {graph.n} nodes")

    a = graph.weights
    two_w = float(a.sum())
    if two_w == 0.0:
        raise ValueError("graph has zero total weight; modularity is undefined")
    q = 0.0
    for g in groups:
        if len(g) == 0:
            continue
        intra = float(a[np.ix_(g, g)].sum()) / two_w
        incident = float(a[g].sum()) / two_w
        q += intra - incident * incident
    return q


def organization_partition(organizations, n_bodies: int) -> list[list[int]]:
    """Partition of all body ids 0..n-1: one group per organization plus the rest.

    Bodies not covered by any organization form one explicit trailing group.
    Assumes organizations are disjoint, which holds for groups cut from one
    tree.
    """
    groups = [list(org.members) for org in organizations]
    covered = set()
    for g in groups:
        covered.update(g)
    rest = [i for i in range(n_bodies) if i not in covered]
    if rest:
        groups.append(rest)
    return groups
