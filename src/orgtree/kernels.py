"""Pairwise 1/r^2 field kernels with optional tree acceleration.

A source body contributes

    constant * charge * (x_src - x_tgt) / (|x_src - x_tgt|^2 + softening^2)^(3/2)

to the field at a target point.  With zero softening this is the plain
inverse-square law; gravity mode keeps the sign as written (the field points
toward the source), coulomb mode is the same expression over signed charges.

Both the direct sum and the tree-accelerated sum accumulate their per-source
terms with exactly rounded summation (math.fsum).  The result is therefore
independent of the order in which terms are produced, and at theta = 0, where
the tree visits every body individually, the tree result equals the direct
result bit for bit.

tree_fields runs block-batched: blocks of targets walk a flattened copy of the
tree as one level-synchronous numpy frontier.  Every target keeps exactly the
terms of its own depth-first walk, so the result equals that walk bit for bit
at every theta, and scratch memory is bounded per block of ~_BLOCK_TERMS terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import SingularPairError
from .geometry import Vec2
from .ntree import Body, NTree

MODE_GRAVITY = "gravity"
MODE_COULOMB = "coulomb"
MODES = (MODE_GRAVITY, MODE_COULOMB)
_BLOCK_TERMS = 8192  # terms one block of targets aims to hold


@dataclass(frozen=True, slots=True)
class KernelParams:
    """Field kernel settings.

    theta is the tree opening parameter: a cell of side s at distance d from
    the target collapses to one pseudo-body when s / d < theta.  theta = 0
    therefore forces full recursion and reproduces the direct sum exactly.
    """

    constant: float = 1.0
    softening: float = 0.0
    theta: float = 0.5
    mode: str = MODE_GRAVITY

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown kernel mode: {self.mode!r}")
        if self.theta < 0:
            raise ValueError(f"negative theta: {self.theta}")
        if self.softening < 0:
            raise ValueError(f"negative softening: {self.softening}")
        if not all(map(math.isfinite, (self.constant, self.theta, self.softening))):
            raise ValueError("kernel constant, theta and softening must be finite")


def pair_field(source: Body, target: Vec2, params: KernelParams,
               target_id: int | None = None) -> Vec2:
    """Field contribution of one source body at a target point."""
    dx = source.position.x - target.x
    dy = source.position.y - target.y
    r2 = dx * dx + dy * dy
    eps2 = params.softening * params.softening
    if r2 + eps2 == 0.0:
        raise SingularPairError(
            f"source body {source.id} coincides with the target and softening is 0",
            pair=(source.id, target_id if target_id is not None else -1))
    w = params.constant * source.charge / ((r2 + eps2) * math.sqrt(r2 + eps2))
    return Vec2(w * dx, w * dy)


def direct_field(bodies, target_index: int, params: KernelParams) -> Vec2:
    """Exact field at bodies[target_index] summed over every other body."""
    bodies = list(bodies)
    if not 0 <= target_index < len(bodies):
        raise IndexError(f"target index {target_index} out of range")
    return _direct(bodies, (target_index,), params)[0]


def direct_fields(bodies, params: KernelParams) -> list[Vec2]:
    """Direct field at every body; one quadratic sweep over a plain float table."""
    bodies = list(bodies)
    return _direct(bodies, range(len(bodies)), params)


def _direct(bodies: list[Body], targets, params: KernelParams) -> list[Vec2]:
    px = [b.position.x for b in bodies]
    py = [b.position.y for b in bodies]
    qs = [b.charge for b in bodies]
    ids = [b.id for b in bodies]
    const = params.constant
    eps2 = params.softening * params.softening
    n = len(bodies)
    out: list[Vec2] = []
    for j in targets:
        tx = px[j]
        ty = py[j]
        xs: list[float] = []
        ys: list[float] = []
        for i in range(n):
            if i == j:
                continue
            dx = px[i] - tx
            dy = py[i] - ty
            r2 = dx * dx + dy * dy + eps2
            if r2 == 0.0:
                raise SingularPairError(
                    f"bodies {ids[i]} and {ids[j]} coincide and softening is 0",
                    pair=(ids[i], ids[j]))
            w = const * qs[i] / (r2 * math.sqrt(r2))
            xs.append(w * dx)
            ys.append(w * dy)
        out.append(Vec2(math.fsum(xs), math.fsum(ys)))
    return out


def _flatten(tree: NTree) -> tuple[np.ndarray, ...]:
    """The tree as columns: non-empty nodes breadth-first, then bodies depth-first.

    Node k's children are rows first .. first + count - 1; body i is row n + i,
    n being the node count.  Box columns are read with clipping: their row n,
    an empty box with side2 = -1, stands for every body, so the opening test
    accepts a body at once.  Node ids are -2; a cancelled node's center is NaN.
    """
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
                   com.x, com.y, node.total_charge, -2)
        yield (math.inf, math.inf, -math.inf, -math.inf, -1.0, 0, 0, 0.0, 0.0, 0.0, -2)

    table = np.fromiter(rows(), "f8,f8,f8,f8,f8,i8,i8,f8,f8,f8,i8")
    *box, first, count, cx, cy, charge, ids = (table[f] for f in table.dtype.names)
    first[first < 0] = len(order) + ~first[first < 0]
    own = (np.fromiter(map(attrgetter(key), bodies), col.dtype, len(bodies))
           for col, key in zip((cx, cy, charge, ids), ("position.x", "position.y", "charge", "id")))
    return (np.stack(box), first, count,
            *(np.concatenate((c[:len(order)], o)) for c, o in zip((cx, cy, charge, ids), own)))


def _fields(tree: NTree, targets: list[Vec2], target_ids: list[int],
            params: KernelParams) -> list[Vec2]:
    """Fields at targets, in blocks sized from the terms per target of the last block.

    Each (target, row) pair decides and builds its term as its target's
    depth-first walk does, with the same operations in the same order; numpy
    rounds them like Python and fuses none, and fsum ignores term order.
    """
    box, first, count, cx, cy, charge, ids = _flatten(tree)
    tx, ty = (np.fromiter(map(attrgetter(a), targets), float, len(targets)) for a in "xy")
    tid = np.maximum(np.array(target_ids, dtype=np.int64), -1)  # no target owns a node row
    eps2, th2 = params.softening * params.softening, params.theta * params.theta
    out: list[Vec2] = []
    size = 1
    while len(out) < len(tx):
        lo, hi = len(out), min(len(out) + size, len(tx))
        t = np.arange(lo, hi if len(ids) else lo)
        row = np.zeros(len(t), dtype=np.intp)
        terms, singular = [(t[:0], np.zeros(0), np.zeros(0))], []
        while len(t):
            x, y = tx[t], ty[t]
            lo_x, lo_y, hi_x, hi_y, side2 = box.take(row, axis=1, mode="clip")
            inside = (lo_x <= x) & (x <= hi_x) & (lo_y <= y) & (y <= hi_y)
            dx, dy = cx[row] - x, cy[row] - y
            d2 = dx * dx + dy * dy
            # s/d < theta without the square root: s^2 < theta^2 * d^2.  It
            # fails for d = 0 and for the NaN center of a cancelled node.
            far = ~inside & (side2 < th2 * d2)
            emit = far & (ids[row] != tid[t])
            r2 = d2[emit] + eps2
            den = r2 * np.sqrt(r2)  # 0 when r2 is 0 or so small that r2^1.5 underflows
            zero = den == 0.0
            if zero.any():
                singular.extend(zip(t[emit][zero].tolist(), row[emit][zero].tolist()))
                den[zero] = 1.0  # any nonzero value: the block raises before summing
            w = params.constant * charge[row[emit]] / den
            terms.append((t[emit], w * dx[emit], w * dy[emit]))
            row = row[~far]
            n = count[row]
            t = np.repeat(t[~far], n)
            row = np.arange(len(t)) + np.repeat(first[row] - np.cumsum(n) + n, n)
        if singular:
            k, i = min(singular)  # the lowest target, then its first body depth-first
            raise SingularPairError(f"body {ids[i]} coincides with the target and softening "
                                    "is 0", pair=(int(ids[i]), int(tid[k])))
        owner, xs, ys = (np.concatenate(c) for c in zip(*terms))
        order = np.argsort(owner, kind="stable")
        xs, ys = memoryview(xs[order]), memoryview(ys[order])  # fsum reads floats
        ends = np.cumsum(np.bincount(owner - lo, minlength=hi - lo)).tolist()
        out.extend(Vec2(math.fsum(xs[a:b]), math.fsum(ys[a:b]))
                   for a, b in zip([0] + ends, ends))
        size = max(1, _BLOCK_TERMS * size // max(len(xs), 1))
        del owner, order, xs, ys  # free the block's sums before the next block's walk
    return out


def tree_field(tree: NTree, target: Vec2, target_id: int,
               params: KernelParams) -> Vec2:
    """Tree-accelerated field at a point; pass target_id -1 for a non-body point.

    A node whose side-to-distance ratio beats theta collapses to a pseudo-body
    at its center of charge; other nodes open, and open leaves are summed body
    by body, skipping target_id.  A node whose charges cancel has no center
    and always opens, as does one whose box holds the target: with signed
    charges its far-off center could pass the test and fold in the target.
    """
    return _fields(tree, [target], [target_id], params)[0]


def tree_fields(tree: NTree, params: KernelParams) -> list[Vec2]:
    """Tree-accelerated field at every tree body, in tree.bodies order."""
    return _fields(tree, [b.position for b in tree.bodies], [b.id for b in tree.bodies], params)
