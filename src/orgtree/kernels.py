"""Pairwise 1/r^2 field kernels with optional tree acceleration.

A source body contributes

    constant * charge * (x_src - x_tgt) / (|x_src - x_tgt|^2 + softening^2)^(3/2)

to the field at a target point.  With zero softening this is the plain
inverse-square law; gravity mode keeps the sign as written (the field points
toward the source), coulomb mode is the same expression over signed charges.

Both the direct sum and the tree-accelerated sum accumulate their per-source
terms exactly rounded: by math.fsum, or by a numpy sum certified against an
error bound with math.fsum as its fallback.  The result is therefore
independent of the order in which terms are produced, and at theta = 0, where
the tree visits every body individually, the tree result equals the direct
result bit for bit.  Non-finite terms and sums raise, naming the pair or target.

tree_fields runs block-batched: blocks of targets walk the tree's rows
(ntree.NTree) as one level-synchronous numpy frontier.  Every target keeps
exactly the terms of its own depth-first walk, so the result equals that walk
bit for bit at every theta, and scratch memory is bounded per block of
~_BLOCK_TERMS terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DynamicsError, SingularPairError
from .geometry import Vec2
from .ntree import Body, NTree, _pow2

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
            r3 = r2 * math.sqrt(r2)
            if r3 == 0.0:  # coincident, or so close that r^3 underflows
                raise SingularPairError(
                    f"bodies {ids[i]} and {ids[j]} coincide and softening is 0" if r2 == 0.0
                    else f"bodies {ids[i]} and {ids[j]} are too close: r^3 underflows to 0"
                    f" at softening {params.softening}", pair=(ids[i], ids[j]))
            w = const * qs[i] / r3
            xs.append(w * dx)
            ys.append(w * dy)
        out.append(_summed(xs, ys, ids[j], ids, j))  # xs skips ids[j]
    return out


def _summed(xs, ys, target: int, sources: list, skip: int) -> Vec2:
    """math.fsum of a target's terms.  A field that is not finite raises for its
    first term k that is not, whose source (a body id or a cell's [depth, ix,
    iy]) is sources[k], or sources[k + 1] from k = skip on; with every term
    finite, the sum overflowed.
    """
    try:
        f = Vec2(math.fsum(xs), math.fsum(ys))
    except (ValueError, OverflowError):  # inf - inf, or a sum past the float range
        f = Vec2(math.nan, math.nan)
    if math.isfinite(f.x) and math.isfinite(f.y):
        return f
    k = next((k for k, v in enumerate(zip(xs, ys)) if not all(map(math.isfinite, v))), None)
    if k is None:
        raise DynamicsError(f"the field at target {target} overflows")
    src = sources[k + (k >= skip)]
    body = isinstance(src, int)
    raise SingularPairError(f"the field term of {'body' if body else 'cell'} {src} at target "
                            f"{target} is not finite: a pair too close or too large a constant"
                            " or charge", pair=(src, target) if body else None)


@np.errstate(all="ignore")  # non-finite sums go to math.fsum
def _fsums(owner: np.ndarray, v: np.ndarray, m: int, huge=math.fsum) -> np.ndarray:
    """math.fsum(v[owner == k]) for each k < m, bit for bit, with no sort.

    Each term splits exactly into q + r (Rump, Ogita & Oishi 2008): q on the
    grid 2^-53 sigma, sigma a power of two above twice the sum's |v| total,
    so q sums exactly in any order, and r, whose sum errs by less than b.
    The rounded total stands if its TwoSum error plus b is strictly below
    half the gap to the next double toward zero (the nearer one); math.fsum
    redoes the rest, zero totals and |v| totals outside [2^-900, 2^900],
    except that huge sums a total above 2^900: fsum meets the terms in v's
    order, and whether an intermediate sum overflows depends on it.
    """
    n = np.bincount(owner, minlength=m)
    s = np.abs(v)
    a = np.bincount(owner, s, m)
    np.take(np.ldexp(1.0, np.frexp(a)[1] + 1), owner, out=s)  # sigma per term
    q = s + v
    q -= s
    r = np.subtract(v, q, out=s)
    tau, c = np.bincount(owner, q, m), np.bincount(owner, r, m)
    b = (2.0 * n + 4.0) * np.bincount(owner, np.abs(r, out=r), m) * 2.0 ** -53
    res = np.add(tau, c, dtype=float)  # bincount gives ints when owner is empty
    z = res - tau
    err, mag = np.abs((tau - (res - z)) + (c - z)), np.abs(res)
    good = (err + b < (mag - np.nextafter(mag, 0.0)) / 2) & (a >= 2.0 ** -900) & (a <= 2.0 ** 900)
    if not good.all():
        redo = np.flatnonzero(~good[owner])
        redo = np.split(v[redo[np.argsort(owner[redo], kind="stable")]], np.cumsum(n[~good])[:-1])
        res[~good] = [(huge if big else math.fsum)(terms.tolist())
                      for terms, big in zip(redo, (a[~good] > 2.0 ** 900).tolist())]
    return res


@np.errstate(all="ignore")  # a zero denominator gives a non-finite term, raised below
def _fields(tree: NTree, tx: np.ndarray, ty: np.ndarray, tid: np.ndarray,
            params: KernelParams) -> list[Vec2]:
    """Fields at targets (tx, ty) with ids tid (-1 for none), in blocks sized
    from the terms per target of the last block.

    Each (target, row) pair decides and builds its term as its target's
    depth-first walk does, with the same operations in the same order; numpy
    rounds them like Python and fuses none.  _fsums sums them exactly rounded,
    certified against an error bound with math.fsum as the fallback, so their
    order does not matter.
    """
    box, first, count = tree.box, tree.first, tree.count
    cx, cy, charge, ids = tree.cx, tree.cy, tree.charge, tree.id  # node rows have id -2
    eps2, th2 = params.softening * params.softening, params.theta * params.theta
    out: list[Vec2] = []
    size = 1
    while len(out) < len(tx):
        lo, hi = len(out), min(len(out) + size, len(tx))
        t = np.arange(lo, hi if len(ids) else lo)
        row = np.zeros(len(t), dtype=np.intp)
        terms = [(t[:0], row[:0], np.zeros(0), np.zeros(0))]
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
            src = row[emit]
            r2 = d2[emit] + eps2
            w = params.constant * charge[src] / (r2 * np.sqrt(r2))
            terms.append((t[emit], src, w * dx[emit], w * dy[emit]))
            row = row[~far]
            n = count[row]
            t = np.repeat(t[~far], n)
            row = np.arange(len(t)) + np.repeat(first[row] - np.cumsum(n) + n, n)
        ts, rows, xs, ys = zip(*terms)
        owner, m = np.concatenate(ts) - lo, hi - lo
        try:  # a huge total's fsum depends on the term order: left to the depth-first sums
            f = _fsums(np.concatenate((owner, owner + m)), np.concatenate(xs + ys), 2 * m,
                       huge=lambda terms: math.nan)
        except (ValueError, OverflowError):
            f = np.full(2 * m, np.nan)
        if np.isfinite(f).all():
            out.extend(map(Vec2, f[:m].tolist(), f[m:].tolist()))
        else:  # as the walk does: raise for the lowest failing target, or sum depth-first
            out.extend(_depth_first(tree, tid, lo, m, owner, *map(np.concatenate, (rows, xs, ys))))
        size = _pow2(_BLOCK_TERMS * size / max(len(owner), 1))  # few sizes, as in radius_hits
        del terms, ts, rows, xs, ys, owner, f  # free the block before the next block's walk
    return out


def _depth_first(tree: NTree, tid: np.ndarray, lo: int, m: int, owner: np.ndarray,
                 row: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> list[Vec2]:
    """_summed for targets lo .. lo + m - 1 in turn, over their terms in
    depth-first order, as the walk sums them.
    """
    key, nodes = row.copy(), len(tree.first) - 1
    while (inner := key < nodes).any():
        key[inner] = tree.first[key[inner]]  # a row's first body row: its place depth-first
    out = []
    for k in range(m):
        e = np.flatnonzero(owner == k)
        e = e[np.argsort(key[e])].tolist()
        sources = [int(tree.id[r]) if r >= nodes else tree.coords[:, r].tolist() for r in row[e]]
        out.append(_summed(xs[e].tolist(), ys[e].tolist(), int(tid[lo + k]), sources, len(e)))
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
    return _fields(tree, np.array([target.x]), np.array([target.y]),
                   np.array([max(target_id, -1)]), params)[0]


def tree_fields(tree: NTree, params: KernelParams) -> list[Vec2]:
    """Tree-accelerated field at every tree body, in tree.bodies order."""
    rows = np.empty_like(tree.order)  # the body rows in input order
    rows[tree.order] = np.arange(len(tree.first) - 1, len(tree.id))
    return _fields(tree, tree.cx[rows], tree.cy[rows], tree.id[rows], params)
