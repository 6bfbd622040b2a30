"""Flocking dynamics over the quadtree neighborhood structure.

Steering terms follow the weighted forms below, where eta(j) is the set of
neighbors of boid j within its species' neighbor radius and d_i is the
distance |x_i - x_j|:

    cohesion (normalized): sum(w_i * x_i) / sum(w_i) - x_j   with w_i = 1 / d_i^2
    cohesion (literal):    sum(x_i / d_i^2) - x_j
    separation:            coefficient * sum((x_j - x_i) / d_i^3)
    alignment:             sum(v_i / (|eta(j)| * d_i^2))

The literal cohesion variant keeps the raw un-normalized sum; its magnitude
depends on absolute coordinates, which makes it scale-sensitive, so the
normalized variant is the default.  Both are selectable per run.

The velocity update for a boid of species s is

    v' = alpha * v + beta * c + gamma * s_intra + delta * a + isg * s_inter

with s_inter the separation sum over neighbors of other species and isg that
species' inter-species separation coefficient.  The speed |v'| is clamped to
max_speed.  All boids read the pre-step state only, then positions advance by
dt * v' and the tree is rebuilt, so the update is synchronous and independent
of processing order.

step_world is the one update, batched over every boid and the tree's rows:
one tree-pruned radius query (ntree.radius_hits) finds every boid's
neighbours leaf by leaf depth-first, every term is computed with the same
float operations as a one-boid-at-a-time loop, and each sum is one
np.bincount over (boid, same or other species) bins.  bincount adds each
term to its bin in index order from 0.0, which is neighbour order, as the
loop does; sum and reduce would add pairwise.  The result therefore equals
that scalar loop bit for bit; the loop itself is kept as the test reference
(tests/oracles.py), and the tests read one boid's velocity from a batched
call.  A pair whose d^3 is 0 (coincident, or so close that it underflows)
raises ZeroDistanceError for the pair the scalar loop meets first: the
lowest boid id, its same-species neighbours before the others.

The move reads and writes the state's columns (ntree.Bodies); no Body is
made.  Reflection folds with a scalar fold's operations per bounce, up to
64 bounces, and a jump of many box widths in closed form; wrap is a floored
remainder.  A non-finite displacement is a DynamicsError naming the boid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DynamicsError, ZeroDistanceError
from .geometry import AABB
from .ntree import Bodies, NTree, as_bodies, build_tree, radius_hits

COHESION_NORMALIZED = "normalized"
COHESION_LITERAL = "literal"
COHESION_MODES = (COHESION_NORMALIZED, COHESION_LITERAL)

BOUNDARY_REFLECT = "reflect"
BOUNDARY_WRAP = "wrap"
BOUNDARY_POLICIES = (BOUNDARY_REFLECT, BOUNDARY_WRAP)

_MAX_FOLDS = 64  # reflections folded one by one before the closed form takes over


@dataclass(frozen=True, slots=True)
class SpeciesParams:
    """Steering coefficients and limits for one species."""

    alpha: float = 1.0
    beta: float = 0.3
    gamma: float = 0.5
    delta: float = 0.3
    inter_species_gamma: float = 2.0
    neighbor_radius: float = 10.0
    max_speed: float = 2.0

    def __post_init__(self) -> None:
        if self.neighbor_radius <= 0:
            raise ValueError(f"neighbor_radius must be positive, got {self.neighbor_radius}")
        if self.max_speed <= 0:
            raise ValueError(f"max_speed must be positive, got {self.max_speed}")


@dataclass(frozen=True, slots=True)
class SimParams:
    """World-level settings shared by every step."""

    box: AABB
    species: tuple[SpeciesParams, ...]
    capacity: int = 10
    max_depth: int = 24
    dt: float = 0.1
    boundary: str = BOUNDARY_REFLECT
    cohesion_mode: str = COHESION_NORMALIZED

    def __post_init__(self) -> None:
        if not self.species:
            raise ValueError("at least one species is required")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.boundary not in BOUNDARY_POLICIES:
            raise ValueError(f"unknown boundary policy: {self.boundary!r}")
        if self.cohesion_mode not in COHESION_MODES:
            raise ValueError(f"unknown cohesion mode: {self.cohesion_mode!r}")
        if self.box.width <= 0 or self.box.height <= 0:
            raise ValueError("world box must have positive extent")


@dataclass(frozen=True, slots=True)
class WorldState:
    """One synchronous snapshot: bodies sorted by id plus their tree."""

    bodies: Bodies
    tree: NTree
    step: int
    params: SimParams


def make_world(bodies, params: SimParams, seed: int = 0) -> WorldState:
    """Initial state from a body list, sorted by id and validated.  `seed` is
    not read, as no step draws a random number; it stays for its callers."""
    bodies = as_bodies(bodies)
    ordered = bodies[np.argsort(bodies.id, kind="stable")]
    for k in np.flatnonzero(ordered.species >= len(params.species))[:1].tolist():
        raise ValueError(f"body {ordered.id[k]} references unknown species {ordered.species[k]}")
    tree = build_tree(ordered, params.box, params.capacity, params.max_depth)
    return WorldState(bodies=ordered, tree=tree, step=0, params=params)


@np.errstate(all="ignore")  # like the scalar loop: inf and NaN pass silently
def _velocities(state: WorldState) -> tuple[np.ndarray, np.ndarray]:
    """Post-update velocities of every body, in id order: the scalar loop's
    bits, from its neighbour lists in its order (module docstring)."""
    params, tree = state.params, state.tree
    n = len(tree.first) - 1
    # Every body is a target, depth-first as the tree's body rows, so the
    # neighbourhoods of a chunk are alike.
    bx, by, bid = tree.cx[n:], tree.cy[n:], tree.id[n:]
    bvx, bvy, bsp = (getattr(state.bodies, k)[tree.order] for k in ("vx", "vy", "species"))

    def coef(name: str) -> np.ndarray:  # a species setting per target
        return np.array([getattr(sp, name) for sp in params.species])[bsp.astype(np.intp)]

    # Per term, its sums over the same species (half 0) and over the others
    # (half 1): w, w * x, w * y, sep_x, sep_y, aw * vx, aw * vy, then the count.
    sums = np.zeros((8, 2, len(bx)))
    singular: list[tuple] = []
    for a, b, t, nb, d2 in radius_hits(tree, bx, by, coef("neighbor_radius")):
        mine = bid[nb] != bid[t]
        t, nb, d2 = t[mine], nb[mine], d2[mine]
        other = bsp[nb] - bsp[t]  # nonzero for a neighbour of another species
        d3 = d2 * np.sqrt(d2)
        zero = np.flatnonzero(d3 <= 0.0)  # d2 is 0, or so small that d2^1.5 underflows
        if len(zero):
            singular.extend(zip(bid[t[zero]].tolist(), (other[zero] != 0).tolist(),
                                zero.tolist(), bid[nb[zero]].tolist(), d2[zero].tolist()))
        m = b - a
        key = t - a + m * (other != 0)  # the target's bin in the term's half
        sums[7, :, a:b] = np.bincount(key, minlength=2 * m).reshape(2, m)
        w = 1.0 / d2
        aw = 1.0 / (sums[7, 0, t] * d2)
        sep_x, sep_y = (bx[t] - bx[nb]) / d3, (by[t] - by[nb]) / d3
        for i, term in enumerate((w, w * bx[nb], w * by[nb], sep_x, sep_y,
                                  aw * bvx[nb], aw * bvy[nb])):
            sums[i, :, a:b] = np.bincount(key, term, 2 * m).reshape(2, m)
    if singular:
        boid, _, _, near, dist2 = min(singular)  # lowest id, then its same-species list
        raise ZeroDistanceError(
            f"boids {boid} and {near} occupy the same position" if dist2 == 0.0 else
            f"boids {boid} and {near} are too close: distance^3 underflows to 0",
            pair=(boid, near))

    (sw, _), (csx, _), (csy, _), (ssx, osx), (ssy, osy), (asx, _), (asy, _), (card, _) = sums
    if params.cohesion_mode == COHESION_LITERAL:
        cx, cy = csx - bx, csy - by
    else:
        cx, cy = csx / sw - bx, csy / sw - by
    cx, cy = np.where(card > 0, cx, 0.0), np.where(card > 0, cy, 0.0)
    alpha, beta, gamma, delta, isg = map(coef, (
        "alpha", "beta", "gamma", "delta", "inter_species_gamma"))
    vx = alpha * bvx + beta * cx + gamma * ssx + delta * asx + isg * osx
    vy = alpha * bvy + beta * cy + gamma * ssy + delta * asy + isg * osy
    v2 = vx * vx + vy * vy
    limit = coef("max_speed")
    fast = v2 > limit * limit
    scale = limit / np.sqrt(v2)
    vx, vy = np.where(fast, vx * scale, vx), np.where(fast, vy * scale, vy)
    # Rounding can leave the rescaled speed an ulp over the cap; nudge
    # toward zero until the invariant holds exactly.
    over = np.flatnonzero(vx * vx + vy * vy > limit * limit)
    while len(over):
        vx[over] = np.nextafter(vx[over], 0.0)
        vy[over] = np.nextafter(vy[over], 0.0)
        over = over[vx[over] * vx[over] + vy[over] * vy[over] > limit[over] * limit[over]]
    vx[tree.order], vy[tree.order] = vx.copy(), vy.copy()  # depth-first to id order
    return vx, vy


def _reflect(x: np.ndarray, v: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Fold positions back into [lo, hi], negating the velocity per bounce.

    Up to _MAX_FOLDS single folds of what is still outside, then a closed
    form for jumps across many box widths: reflection is periodic with
    period 2 * (hi - lo), and the velocity sign flips in the period's second
    half.
    """
    x, v = x.copy(), v.copy()
    out = np.flatnonzero((x < lo) | (x > hi))
    for _ in range(_MAX_FOLDS):
        if not len(out):
            return x, v
        xo = x[out]
        x[out] = np.where(xo < lo, 2.0 * lo - xo, 2.0 * hi - xo)
        v[out] = -v[out]
        out = out[(x[out] < lo) | (x[out] > hi)]
    span = 2.0 * (hi - lo)
    u = np.fmod(x[out] - lo, span)
    u = np.where(u < 0.0, u + span, u)
    back = u <= hi - lo
    x[out] = np.where(back, lo + u, lo + (span - u))
    v[out] = np.where(back, v[out], -v[out])
    return x, v


def _wrap(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Positions outside [lo, hi] translated periodically into it."""
    return np.where((lo <= x) & (x <= hi), x, lo + np.remainder(x - lo, hi - lo))


@np.errstate(all="ignore")  # like Python floats: a fold past the float range passes silently
def step_world(state: WorldState) -> WorldState:
    """Advance every boid by one synchronous step and rebuild the tree.

    Velocities are all computed against the current state before any position
    moves, then positions advance by dt and the boundary policy is applied:
    reflect folds the position back inside and negates the offending velocity
    component, wrap translates it periodically.
    """
    params, bodies = state.params, state.bodies
    vx, vy = _velocities(state)
    px, py = bodies.x + params.dt * vx, bodies.y + params.dt * vy
    for k in np.flatnonzero(~(np.isfinite(px) & np.isfinite(py)))[:1].tolist():
        raise DynamicsError(f"boid {bodies.id[k]} moves by a non-finite displacement:"
                            f" dt {params.dt} times velocity ({vx[k]}, {vy[k]})")
    box = params.box
    if params.boundary == BOUNDARY_REFLECT:
        px, vx = _reflect(px, vx, box.lo.x, box.hi.x)
        py, vy = _reflect(py, vy, box.lo.y, box.hi.y)
    else:
        px, py = _wrap(px, box.lo.x, box.hi.x), _wrap(py, box.lo.y, box.hi.y)
    moved = Bodies(bodies.id, bodies.species, px, py, vx, vy, bodies.charge)
    tree = build_tree(moved, box, params.capacity, params.max_depth)
    return WorldState(bodies=moved, tree=tree, step=state.step + 1, params=params)
