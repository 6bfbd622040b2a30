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

The tree sums walk the tree's rows (ntree.NTree) with one level-synchronous
frontier loop over (owner, row) pairs (_walk), the opening test passed in.
tree_field's point owns its pairs alone (_far).  tree_fields walks (node,
row) pairs from the top of the tree (_sweep; Dehnen 2002, Gray & Moore
2001): a node owns a pair for all the targets below it, and a pair whose
test (_settled) differs between them splits the node, down to single
targets.  _settled applies the walk's float operations to the edges of the
box of the node's targets; rounding is monotone, so its bounds hold for every
target bit for bit, and each target keeps exactly the terms of its own
depth-first walk at every theta, summed as one contiguous segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DynamicsError, SingularPairError
from .geometry import Vec2, from_slots
from .ntree import Body, NTree, _pow2, _spans

MODE_GRAVITY = "gravity"
MODE_COULOMB = "coulomb"
MODES = (MODE_GRAVITY, MODE_COULOMB)
_BLOCK_TERMS = 16384  # terms one block of targets aims to hold


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
def _fsums(v: np.ndarray, size: np.ndarray, huge=math.fsum) -> np.ndarray:
    """math.fsum of each segment of v, the k-th its next size[k] terms, bit
    for bit, in any order of the terms within a segment.

    Each term splits exactly into q + r (Rump, Ogita & Oishi 2008): q on the
    grid 2^-53 sigma, sigma a power of two above twice the sum's |v| total,
    so q sums exactly in any order, and |r| <= 2^-53 sigma, so the sum of a
    segment's k r's errs by less than b = (2k + 4) k 2^-106 sigma.
    The rounded total stands if its TwoSum error plus b is strictly below
    half the gap to the next double toward zero (the nearer one); math.fsum
    redoes the rest, zero totals and |v| totals outside [2^-900, 2^900],
    except that huge sums a total above 2^900: fsum meets the terms in v's
    order, and whether an intermediate sum overflows depends on it.
    """
    start, full = np.cumsum(size) - size, size > 0

    def sums(x):  # np.add.reduceat sums only segments of one term or more
        out = np.zeros(len(size))
        out[full] = np.add.reduceat(x, start[full]) if len(x) else 0.0
        return out

    a = sums(np.abs(v))
    sigma = np.ldexp(1.0, np.frexp(a)[1] + 1)
    s = np.repeat(sigma, size)
    q = s + v
    q -= s
    tau, c = sums(q), sums(np.subtract(v, q, out=s))
    b = (2.0 * size + 4.0) * size * sigma * 2.0 ** -106
    res = tau + c
    z = res - tau
    err, mag = np.abs((tau - (res - z)) + (c - z)), np.abs(res)
    good = (err + b < (mag - np.nextafter(mag, 0.0)) / 2) & (a >= 2.0 ** -900) & (a <= 2.0 ** 900)
    for k in np.flatnonzero(~good).tolist():
        res[k] = (huge if a[k] > 2.0 ** 900 else math.fsum)(v[start[k]:start[k] + size[k]].tolist())
    return res


def _walk(tree: NTree, settle, owner: np.ndarray, row: np.ndarray):
    """The far rows, as spans (owners, first rows, row counts), and the
    unsettled pairs (owners, rows) of the walks from pairs (owner, row) down:
    the one frontier loop, level-synchronous.  settle(owner, row) gives the
    pairs far for every target of their owner, and those open for every one.
    A far pair ends as its row; an open pair becomes its row's children, an
    open leaf its body rows, far for every target untested.  Any other pair
    becomes its owner's children with the same row; a leaf owner's comes back
    unsettled."""
    n, first, count = len(tree.first) - 1, tree.first, tree.count
    far, unsettled = [(owner[:0],) * 3], [(owner[:0],) * 2]
    while len(owner):
        far_all, far_none = settle(owner, row)
        far.append((owner[far_all], row[far_all], np.ones(np.count_nonzero(far_all), np.intp)))
        split = ~(far_all | far_none)
        split, split_row = owner[split], row[split]
        leaf = first[split] >= n
        unsettled.append((split[leaf], split_row[leaf]))
        split_row, split = _spans(split_row[~leaf], first[split[~leaf]], count[split[~leaf]])
        owner, row = owner[far_none], row[far_none]
        leaf = first[row] >= n
        far.append((owner[leaf], first[row[leaf]], count[row[leaf]]))
        owner, row = _spans(owner[~leaf], first[row[~leaf]], count[row[~leaf]])
        owner, row = np.concatenate((owner, split)), np.concatenate((row, split_row))
    return [tuple(map(np.concatenate, zip(*parts))) for parts in (far, unsettled)]


@np.errstate(all="ignore")  # NaN centers and zero distances fail the side test, as in the walk
def _far(tree: NTree, x: np.ndarray, y: np.ndarray, row: np.ndarray, th2: float):
    """Whether the depth-first walk of a target at (x, y) takes node row as
    one term, and whether it opens row: the walk's test and operations.
    """
    lo_x, lo_y, hi_x, hi_y, side2 = tree.box  # taken a column at a time: less scratch
    inside = lo_x[row] <= x
    inside &= x <= hi_x[row]
    inside &= lo_y[row] <= y
    inside &= y <= hi_y[row]
    d2 = np.square(tree.cx[row] - x)  # dx * dx + dy * dy
    d2 += np.square(tree.cy[row] - y)
    # s/d < theta without the square root: s^2 < theta^2 * d^2.  It fails for
    # d = 0 and for the NaN center of a cancelled node; fmax turns the NaN of
    # 0 * inf into 0, which no side^2 passes.
    far = ~inside & (side2[row] < np.fmax(th2 * d2, 0.0))
    return far, ~far


@np.errstate(all="ignore")  # a zero denominator gives a non-finite term, raised by the caller
def _terms(tree: NTree, x, y, row: np.ndarray, params: KernelParams) -> np.ndarray:
    """The x terms, then the y terms, of rows row at targets (x, y), in the
    walk's operations and order: numpy rounds them like Python, fusing none."""
    d = np.empty((2, len(row)))
    np.subtract(tree.cx[row], x, out=d[0])
    np.subtract(tree.cy[row], y, out=d[1])
    r2 = d[0] * d[0]
    r2 += d[1] * d[1]
    if params.softening:  # r2 + 0.0 is r2
        r2 += params.softening * params.softening
    r3 = np.sqrt(r2)
    r3 *= r2
    d *= np.divide(params.constant * tree.charge[row], r3, out=r3)
    return d.reshape(-1)


def _block_sums(v: np.ndarray, size: np.ndarray) -> np.ndarray:
    """_fsums of the x, then the y, terms v of targets of size[k] terms each,
    NaN where not finite or of a huge |terms| total, where fsum depends on order."""
    try:
        return _fsums(v, np.concatenate((size, size)), huge=lambda terms: math.nan)
    except (ValueError, OverflowError):
        return np.full(2 * len(size), np.nan)


@np.errstate(all="ignore")  # a NaN bound settles nothing it should not
def _settled(tree: NTree, bbox: np.ndarray, row: np.ndarray, th2: float):
    """Whether _far holds for every target in the box bbox (lo_x, lo_y, hi_x,
    hi_y per pair), and whether it holds for none; a leaf whose box meets bbox
    never opens for all, so each target opens it alone, skipping its own body.

    Rounding is monotone, so a target's dx = cx - x lies between the dx of
    the box's two x edges, and its dx * dx between the squares of the least
    and the greatest |dx| there; the sum with dy * dy and the product with
    th2 keep that order.  The bounds are therefore exact for every target,
    with no margin.  A NaN center makes both bounds NaN, and fmax 0: open.
    """
    box = tree.box.take(row, axis=1)
    lo, hi, side2 = box[:2], box[2:4], box[4]
    b_lo, b_hi = bbox[:2], bbox[2:]
    c = np.stack((tree.cx[row], tree.cy[row]))
    near, away = c - b_hi, c - b_lo  # dx, dy of targets on the upper and on the lower edges
    least = np.square(np.maximum(near, 0.0) + np.minimum(away, 0.0))
    most = np.square(np.fmax(b_hi - c, away))  # b_hi - c is -near, exactly
    out = (b_hi < lo) | (hi < b_lo)
    out = out[0] | out[1]  # no target inside
    far_all = out & (side2 < np.fmax(th2 * (least[0] + least[1]), 0.0))
    within = (lo <= b_lo) & (b_hi <= hi)
    far_none = within[0] & within[1]  # every target inside
    far_none |= ~(side2 < np.fmax(th2 * (most[0] + most[1]), 0.0))
    far_none &= out | (tree.first[row] < len(tree.first) - 1)
    return far_all, far_none


def _targets(tree: NTree):
    """Per node row its targets, the bodies lo .. hi - 1 depth-first, the
    bounding box (lo_x, lo_y, hi_x, hi_y) of their coordinates (per leaf by
    reduceat, then over each node's children) and its parent (-1 at the
    root); per leaf depth-first, its chain of rows up to the root, then -1."""
    n, first, count, depth = len(tree.first) - 1, tree.first[:-1], tree.count[:-1], tree.coords[0]
    x, y, inner = tree.cx[n:], tree.cy[n:], first < n
    leaf = np.flatnonzero(~inner)[np.argsort(first[~inner])]
    at = first[leaf] - n
    t, parent = np.empty((6, n)), np.full(n, -1)  # t: lo_x, lo_y, -hi_x, -hi_y, lo, -hi
    t[:, leaf] = (np.minimum.reduceat(x, at), np.minimum.reduceat(y, at),
                  -np.maximum.reduceat(x, at), -np.maximum.reduceat(y, at),
                  at, -(at + count[leaf]))
    for d in range(int(depth.max()) - 1, -1, -1):
        p = np.flatnonzero(inner & (depth == d))  # their children: consecutive rows, in order
        if len(p):
            kids = slice(first[p[0]], first[p[-1]] + count[p[-1]])
            t[:, p] = np.minimum.reduceat(t[:, kids], first[p] - first[p[0]], axis=1)
            parent[kids] = np.repeat(p, count[p])
    chain = [leaf]
    while (chain[-1] >= 0).any():
        chain.append(np.where(chain[-1] >= 0, parent[chain[-1]], -1))
    return (t[4].astype(np.intp), (-t[5]).astype(np.intp), t[:4] * [[1.0], [1.0], [-1.0], [-1.0]],
            parent, np.stack(chain[:-1]))


def _sweep(tree: NTree, params: KernelParams) -> np.ndarray:
    """The x fields, then the y fields, at the bodies depth-first, NaN where
    _block_sums gives NaN.  Chunks of consecutive targets (aiming at 2 *
    _BLOCK_TERMS far spans, at most _BLOCK_TERMS / 8 targets) walk from a cut
    of nodes paired with the root row: nodes own the pairs of all their
    targets (_walk with _settled), then a leaf's unsettled rows go on target
    by target (_walk with _far).  Each target's far spans, its leaf chain's and
    its own less its own body, are summed in blocks of ~_BLOCK_TERMS terms."""
    n, first = len(tree.first) - 1, tree.first
    lo, hi, bbox, parent, chain = _targets(tree)
    tx, ty, th2 = tree.cx[n:], tree.cy[n:], params.theta * params.theta
    groups = lambda g, row: _settled(tree, bbox.take(g, axis=1), row, th2)
    targets = lambda t, row: _far(tree, tx[t], ty[t], row, th2)
    size = _pow2(_BLOCK_TERMS / 128)
    big = (hi - lo > size) & (first[:n] < n)  # the cut: the nodes of at most size targets
    cut = np.flatnonzero(~big & np.append(True, big[parent[1:]]))  # and larger leaves
    cut, out, i = cut[np.argsort(lo[cut])], np.empty((2, len(tx))), 0
    while i < len(cut):
        j = max(i + 1, np.searchsorted(hi[cut], lo[cut[i]] + size, side="right"))
        a, b = lo[cut[i]], hi[cut[j - 1]]
        (g, g_at, g_size), (leaf, row) = _walk(tree, groups, cut[i:j], 0 * cut[i:j])
        links = chain[:, np.searchsorted(lo[chain[0]], np.arange(a, b), side="right") - 1].T
        leaf, row = leaf[k := np.argsort(leaf)], row[k]
        at = np.searchsorted(leaf, links[:, 0])
        t, k = _spans(np.arange(a, b), at, np.searchsorted(leaf, links[:, 0], side="right") - at)
        (t, t_at, t_size), _ = _walk(tree, targets, t, row[k])
        body = n + t  # each target's own body lies in one span of its walk, which splits in two
        own = np.flatnonzero((t_at <= body) & (body < t_at + t_size))
        t, t_at, t_size = (np.append(t, t[own]), np.append(t_at, body[own] + 1),
                           np.append(t_size, t_at[own] + t_size[own] - body[own] - 1))
        t_size[own] = body[own] - t_at[own]
        size = _pow2(min(2 * _BLOCK_TERMS * (b - a) / max(len(g) + len(t), 1), _BLOCK_TERMS / 8))
        k = np.argsort(g)
        g, start, span = g[k], np.append(g_at[k], t_at), np.append(g_size[k], t_size)
        runs = np.split(t - a, np.flatnonzero(t[1:] < t[:-1]) + 1)  # the walk's spans come in
        walked = np.stack([np.bincount(r, minlength=b - a) for r in runs], axis=1)  # runs by target
        at = np.column_stack((np.searchsorted(g, links), len(g) + np.cumsum(walked, axis=0) - walked
                              + np.cumsum([0] + [len(r) for r in runs[:-1]])))
        spans = np.column_stack((np.searchsorted(g, links, side="right"),
                                 at[:, -len(runs):] + walked)) - at
        del leaf, row, k, g, g_at, g_size, t, t_at, t_size, body, own, runs, walked, links
        ends = np.append(0, np.cumsum(span))
        terms = (ends[at + spans] - ends[at]).sum(axis=1)
        ends, c = np.cumsum(terms), 0
        while c < b - a:
            d = max(c + 1, np.searchsorted(ends, ends[c] - terms[c] + _BLOCK_TERMS, side="right"))
            k = _spans(None, at[c:d].reshape(-1), spans[c:d].reshape(-1))[1]
            m = terms[c:d]
            v = _terms(tree, np.repeat(tx[a + c:a + d], m), np.repeat(ty[a + c:a + d], m),
                       _spans(None, start[k], span[k])[1], params)
            del k  # the sums are the sweep's peak: hold nothing they do not need
            out[:, a + c:a + d] = _block_sums(v, m).reshape(2, d - c)
            del v
            c = d
        i = j
    return out


def tree_field(tree: NTree, target: Vec2, target_id: int,
               params: KernelParams) -> Vec2:
    """Tree-accelerated field at a point; pass target_id -1 for a non-body point.

    A node whose side-to-distance ratio beats theta collapses to a pseudo-body
    at its center of charge; other nodes open, and open leaves are summed body
    by body, skipping target_id.  A node whose charges cancel has no center
    and always opens, as does one whose box holds the target: with signed
    charges its far-off center could pass the test and fold in the target.
    The terms are summed as one segment; a sum that is not finite raises as
    the depth-first walk does, or is summed in the walk's order.
    """
    th2, tid = params.theta * params.theta, max(target_id, -1)
    root = np.zeros(min(len(tree.id), 1), dtype=np.intp)  # the point and the root row, if any
    (_, start, size), _ = _walk(tree, lambda t, row: _far(tree, target.x, target.y, row, th2),
                                root, root)
    row = _spans(None, start, size)[1]
    row = row[tree.id[row] != tid]  # the target skips its own body
    v = _terms(tree, target.x, target.y, row, params)
    f = _block_sums(v, np.array([len(row)]))
    if not np.isnan(f).any():
        return Vec2(*f.tolist())
    key, nodes = row.copy(), len(tree.first) - 1  # _summed in depth-first order, as the walk sums
    while (inner := key < nodes).any():
        key[inner] = tree.first[key[inner]]  # a row's first body row: its place depth-first
    e = np.argsort(key)
    sources = [int(tree.id[r]) if r >= nodes else tree.coords[:, r].tolist() for r in row[e]]
    return _summed(v[:len(row)][e].tolist(), v[len(row):][e].tolist(), tid, sources, len(e))


def tree_fields(tree: NTree, params: KernelParams) -> list[Vec2]:
    """Tree-accelerated field at every tree body, in tree.bodies order.

    Equal bit for bit to tree_field at each body, and so to the depth-first
    walk, at every theta (_sweep).  A target whose sum comes back NaN is
    redone by tree_field, lowest input index first, which raises as a loop
    over tree_field would.
    """
    f = _sweep(tree, params) if tree.bodies else np.empty((2, 0))
    f[:, tree.order] = f.copy()  # into input order
    # Made in input order, the list's Vec2s lie in memory in list order; made
    # depth-first, they lie scattered, and a full garbage collection over
    # them took about 15% longer.
    out = from_slots(Vec2, f[0].tolist(), f[1].tolist())
    for k in np.flatnonzero(np.isnan(f).any(axis=0)).tolist():
        out[k] = tree_field(tree, tree.bodies[k].position, tree.bodies[k].id, params)
    return out
