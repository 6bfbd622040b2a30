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

The tree sums walk the tree's rows (ntree.NTree).  One level-synchronous
frontier loop (_walk) does every walk, with the opening test passed in.
tree_field walks its one point with the per-target test (_far).  tree_fields
sweeps groups of targets (_group_fields; Barnes 1990), each leaf's bodies
one group: a (group, row) pair whose test (_settled) comes out the same for
every target of the group is settled once, and only the other pairs continue
target by target (_far).  The group tests bound each target's squared
distance d2 by the same float operations applied to the edges of the
bounding box of the group's targets.  Rounding is monotone, so the bounds
hold for every target bit for bit, with no margin:
side^2 < theta^2 * (least d2) means every target takes the row as one term,
and not side^2 < theta^2 * (greatest d2) means none does.  Every target
therefore keeps exactly the terms of its own depth-first walk, and the
result equals that walk bit for bit at every theta.  Scratch memory is
bounded per chunk of groups and per block of about _BLOCK_TERMS terms.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DynamicsError, SingularPairError
from .geometry import Vec2
from .ntree import Body, NTree, _pow2, _spans

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


def _walk(tree: NTree, settle, owner: np.ndarray, row: np.ndarray):
    """The far and the unsettled pairs of the walks from pairs (owner, row)
    down, each as (owners, rows): the one frontier loop, level-synchronous.

    settle(owner, row) gives the pairs far for every target of their owner,
    and those open for every one.  A far pair ends; an open pair becomes its
    row's children, for a leaf its body rows; any other comes back unsettled.
    """
    far, unsettled = [(owner[:0], row[:0])], [(owner[:0], row[:0])]
    while len(owner):
        far_all, far_none = settle(owner, row)
        rest = ~(far_all | far_none)
        far.append((owner[far_all], row[far_all]))
        unsettled.append((owner[rest], row[rest]))
        row = row[far_none]
        owner, row = _spans(owner[far_none], tree.first[row], tree.count[row])
    return [tuple(map(np.concatenate, zip(*pairs))) for pairs in (far, unsettled)]


@np.errstate(all="ignore")  # NaN centers and zero distances fail the side test, as in the walk
def _far(tree: NTree, x: np.ndarray, y: np.ndarray, row: np.ndarray, th2: float):
    """Whether the depth-first walk of a target at (x, y) takes row as one
    term, and whether it opens row: the walk's test and operations.  A body
    row has the sentinel box, so it is never inside and passes the side
    test, as the walk sums a leaf's bodies one by one.
    """
    lo_x, lo_y, hi_x, hi_y, side2 = tree.box  # taken a column at a time: less scratch
    inside = lo_x.take(row, mode="clip") <= x
    inside &= x <= hi_x.take(row, mode="clip")
    inside &= lo_y.take(row, mode="clip") <= y
    inside &= y <= hi_y.take(row, mode="clip")
    d2 = np.square(tree.cx[row] - x)  # dx * dx + dy * dy
    d2 += np.square(tree.cy[row] - y)
    # s/d < theta without the square root: s^2 < theta^2 * d^2.  It fails for
    # d = 0 and for the NaN center of a cancelled node; fmax turns the NaN of
    # 0 * inf into 0, which a body row's side^2 of -1 still passes.
    far = ~inside & (side2.take(row, mode="clip") < np.fmax(th2 * d2, 0.0))
    return far, ~far


@np.errstate(all="ignore")  # a zero denominator gives a non-finite term, raised by the caller
def _terms(tree: NTree, tx: np.ndarray, ty: np.ndarray, t: np.ndarray, row: np.ndarray,
           params: KernelParams) -> np.ndarray:
    """The x terms, then the y terms, of far pairs (t, row), with the walk's
    operations in the walk's order; numpy rounds them like Python and fuses
    none."""
    d = np.empty((2, len(t)))
    np.subtract(tree.cx[row], tx[t], out=d[0])
    np.subtract(tree.cy[row], ty[t], out=d[1])
    r2 = d[0] * d[0] + d[1] * d[1] + params.softening * params.softening
    d *= params.constant * tree.charge[row] / (r2 * np.sqrt(r2))
    return d.reshape(-1)


def _block_sums(owner: np.ndarray, v: np.ndarray, m: int) -> np.ndarray:
    """_fsums of the x, then y, terms v of owners 0 .. m - 1: the m x sums,
    then the m y sums.  A sum that is not finite, or whose |terms| total is
    huge, is NaN: fsum's overflow would depend on the order of the terms.
    """
    try:
        return _fsums(np.concatenate((owner, owner + m)), v, 2 * m, huge=lambda terms: math.nan)
    except (ValueError, OverflowError):
        return np.full(2 * m, np.nan)


@np.errstate(all="ignore")  # a NaN bound settles nothing it should not
def _settled(tree: NTree, bbox: np.ndarray, row: np.ndarray, th2: float):
    """Whether _far holds for every target in the box bbox (lo_x, lo_y, hi_x,
    hi_y per pair), and whether it holds for none.

    Rounding is monotone, so a target's dx = cx - x lies between the dx of
    the box's two x edges, and its dx * dx between the squares of the least
    and the greatest |dx| there; the sum with dy * dy and the product with
    th2 keep that order.  The bounds are therefore exact for every target,
    with no margin.  A NaN center makes both bounds NaN, and fmax 0: open.
    """
    box = tree.box.take(row, axis=1, mode="clip")
    lo, hi, side2 = box[:2], box[2:4], box[4]
    b_lo, b_hi = bbox[:2], bbox[2:]
    c = np.stack((tree.cx[row], tree.cy[row]))
    near, away = c - b_hi, c - b_lo  # dx, dy of targets on the upper and on the lower edges
    least = np.square(np.maximum(near, 0.0) + np.minimum(away, 0.0))
    most = np.square(np.fmax(b_hi - c, away))  # b_hi - c is -near, exactly
    out = (b_hi < lo) | (hi < b_lo)
    far_all = out[0] | out[1]  # no target inside
    far_all &= side2 < np.fmax(th2 * (least[0] + least[1]), 0.0)
    within = (lo <= b_lo) & (b_hi <= hi)
    far_none = within[0] & within[1]  # every target inside
    far_none |= ~(side2 < np.fmax(th2 * (most[0] + most[1]), 0.0))
    return far_all, far_none


def _spread(g: np.ndarray, row: np.ndarray, start: np.ndarray, end: np.ndarray,
            a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """(target, row) for each target in a .. b-1 of each group pair (g, row);
    group k's targets are start[k] .. end[k] - 1."""
    ga, gb = bisect_right(start, a) - 1, bisect_right(start, b - 1) - 1  # the groups of a, b - 1
    meets = (ga <= g) & (g <= gb)
    g, row = g[meets], row[meets]
    lo = np.maximum(start[g], a)
    row, t = _spans(row, lo, np.minimum(end[g], b) - lo)
    return t, row


def _group_fields(tree: NTree, start: np.ndarray, params: KernelParams) -> np.ndarray:
    """The x fields, then the y fields, at the tree's bodies in depth-first
    order, NaN where _block_sums gives NaN: the group sweep.

    Group k is bodies start[k] .. start[k + 1] - 1, the last group running
    to the end.  Chunks of consecutive groups walk as groups (_walk with
    _settled); a chunk's unsettled pairs continue target by target (_walk
    with _far), and its far pairs are summed in blocks of targets sized from
    the terms per target of the last block, each target skipping its own
    body there.  A chunk aims to keep _BLOCK_TERMS settled-far pairs.
    """
    n = len(tree.first) - 1
    tx, ty, tid = tree.cx[n:], tree.cy[n:], tree.id[n:]
    end = np.append(start[1:], len(tx))
    bbox = np.stack([np.minimum.reduceat(tx, start), np.minimum.reduceat(ty, start),
                     np.maximum.reduceat(tx, start), np.maximum.reduceat(ty, start)])
    th2 = params.theta * params.theta
    groups = lambda g, row: _settled(tree, bbox.take(g, axis=1), row, th2)
    targets = lambda t, row: _far(tree, tx[t], ty[t], row, th2)
    out = np.empty((2, len(tx)))
    g0, chunk, size = 0, 1, 1
    while g0 < len(start):
        g1 = min(g0 + chunk, len(start))
        a, stop = start[g0], end[g1 - 1]
        g = np.arange(g0, g1)
        far, unsettled = _walk(tree, groups, g, np.zeros_like(g))
        (wt, wrow), _ = _walk(tree, targets, *_spread(*unsettled, start, end, a, stop))
        chunk = _pow2(_BLOCK_TERMS * (g1 - g0) / max(len(far[0]), 1))
        while a < stop:
            b = min(a + size, stop)
            t, row = _spread(*far, start, end, a, b)
            walked = (a <= wt) & (wt < b)
            t, row = np.concatenate((t, wt[walked])), np.concatenate((row, wrow[walked]))
            keep = tree.id[row] != tid[t]  # each target skips its own body
            t, row = t[keep], row[keep]
            m, terms = b - a, len(t)
            v = _terms(tree, tx, ty, t, row, params)
            del row  # the sums are the sweep's peak: hold nothing they do not need
            t -= a
            out[:, a:b] = _block_sums(t, v, m).reshape(2, m)
            del t, v
            size = _pow2(_BLOCK_TERMS * m / max(terms, 1))  # few sizes, as in radius_hits
            a = b
        g0 = g1
    return out


def _depth_first(tree: NTree, target_id: int, row: np.ndarray, xs: np.ndarray,
                 ys: np.ndarray) -> Vec2:
    """_summed over one target's terms, of far rows row, in depth-first
    order, as the walk sums them.
    """
    key, nodes = row.copy(), len(tree.first) - 1
    while (inner := key < nodes).any():
        key[inner] = tree.first[key[inner]]  # a row's first body row: its place depth-first
    e = np.argsort(key)
    sources = [int(tree.id[r]) if r >= nodes else tree.coords[:, r].tolist() for r in row[e]]
    return _summed(xs[e].tolist(), ys[e].tolist(), target_id, sources, len(e))


def tree_field(tree: NTree, target: Vec2, target_id: int,
               params: KernelParams) -> Vec2:
    """Tree-accelerated field at a point; pass target_id -1 for a non-body point.

    A node whose side-to-distance ratio beats theta collapses to a pseudo-body
    at its center of charge; other nodes open, and open leaves are summed body
    by body, skipping target_id.  A node whose charges cancel has no center
    and always opens, as does one whose box holds the target: with signed
    charges its far-off center could pass the test and fold in the target.
    The point walks alone (_walk with _far).  A sum that is not finite
    raises as the depth-first walk does, or is summed in the walk's order.
    """
    tx, ty, tid = np.array([target.x]), np.array([target.y]), max(target_id, -1)
    th2 = params.theta * params.theta
    root = np.zeros(min(len(tree.id), 1), dtype=np.intp)  # the target and the root row, if any
    (_, row), _ = _walk(tree, lambda t, row: _far(tree, tx[t], ty[t], row, th2), root, root)
    row = row[tree.id[row] != tid]  # the target skips its own body
    t = np.zeros_like(row)  # every term is the one target's
    v = _terms(tree, tx, ty, t, row, params)
    f = _block_sums(t, v, 1)
    if np.isnan(f).any():
        return _depth_first(tree, tid, row, v[:len(row)], v[len(row):])
    return Vec2(*f.tolist())


def tree_fields(tree: NTree, params: KernelParams) -> list[Vec2]:
    """Tree-accelerated field at every tree body, in tree.bodies order.

    Equal bit for bit to tree_field at each body, and so to the depth-first
    walk, at every theta.  The bodies go depth-first, each leaf's bodies one
    group of targets, so only the rows a leaf cannot settle are walked target
    by target.  A target whose sum comes back NaN is redone by tree_field,
    lowest input index first, which raises as a loop over tree_field would.
    """
    first, n = tree.first, len(tree.first) - 1
    start = np.zeros(len(tree.bodies), dtype=bool)  # a mask, not np.sort: no sort code paged in
    start[first[np.flatnonzero(first[:n] >= n)] - n] = True  # each leaf's first body
    f = np.empty((2, len(tree.bodies)))  # in input order
    f[:, tree.order] = _group_fields(tree, np.flatnonzero(start), params)
    # Made in input order, the list's Vec2s lie in memory in list order; made
    # depth-first, they lie scattered, and a full garbage collection over
    # them took about 15% longer.
    out = list(map(Vec2, f[0].tolist(), f[1].tolist()))
    for k in np.flatnonzero(np.isnan(f).any(axis=0)).tolist():
        out[k] = tree_field(tree, tree.bodies[k].position, tree.bodies[k].id, params)
    return out
