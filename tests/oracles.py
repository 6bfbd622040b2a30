"""Independent reference implementations used to derive expected test values.

Everything in this module is deliberately naive and, where possible, exact:
rational box arithmetic instead of floats, union-find over all-pairs contact
instead of tree traversal, linear scans instead of pruned queries, one boid and
one neighbour at a time instead of numpy batches, and a dense weight matrix
instead of row blocks, and a trace reader that decodes every line.  None of it imports the grouping, field, query or
steering code under test beyond the plain data types and the integer
cell-contact test; the test entry points at the end, which ask the code
under test about one body or one cell, are the exception.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Any

import numpy as np

from orgtree.boids import (BOUNDARY_REFLECT, COHESION_LITERAL, COHESION_MODES,
                           COHESION_NORMALIZED, WorldState, _velocities)
from orgtree.detect import CellSet, Organization
from orgtree.errors import ConfigError, DynamicsError, SingularPairError, ZeroDistanceError
from orgtree.geometry import AABB, CellCoord, Vec2, cell_box, cells_touch, child_coords
from orgtree.kernels import KernelParams
from orgtree.metrics import (INVERSE_EPSILON, TRANSFORM_GAUSSIAN,
                             TRANSFORM_INVERSE)
from orgtree.ntree import Body, Node, build_tree
from orgtree.trace import TRACE_VERSION


def boxes_overlap_or_touch(a: AABB, b: AABB) -> bool:
    """Closed-box intersection: shared edges and shared corners count as contact."""
    return (a.lo.x <= b.hi.x and b.lo.x <= a.hi.x
            and a.lo.y <= b.hi.y and b.lo.y <= a.hi.y)


def cells_adjacent(a: CellCoord, b: CellCoord) -> bool:
    """True when two distinct cells share an edge or a corner point.

    Intended for non-nested cells, such as two leaves of the same tree.
    Raises ValueError when called with a cell and itself; a cell is not its
    own neighbor.
    """
    if a == b:
        raise ValueError(f"adjacency is defined between distinct cells, got {a} twice")
    return cells_touch(a, b)


@lru_cache(maxsize=None)
def rational_cell_interval(root_lo: float, root_hi: float, depth: int,
                           index: int) -> tuple[Fraction, Fraction]:
    """Closed interval of one axis of a cell, in exact rational arithmetic."""
    lo = Fraction(root_lo)
    width = Fraction(root_hi) - lo
    n = 2 ** depth
    return (lo + Fraction(index, n) * width,
            lo + Fraction(index + 1, n) * width)


def rational_cells_touch(a: CellCoord, b: CellCoord) -> bool:
    """Contact test on exact rational closed boxes over a unit root."""
    ax0, ax1 = rational_cell_interval(0.0, 1.0, a.depth, a.ix)
    bx0, bx1 = rational_cell_interval(0.0, 1.0, b.depth, b.ix)
    if ax0 > bx1 or bx0 > ax1:
        return False
    ay0, ay1 = rational_cell_interval(0.0, 1.0, a.depth, a.iy)
    by0, by1 = rational_cell_interval(0.0, 1.0, b.depth, b.iy)
    return ay0 <= by1 and by0 <= ay1


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def components(self) -> set[frozenset]:
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), set()).add(x)
        return {frozenset(v) for v in out.values()}


def brute_force_groups(coords) -> set[frozenset[CellCoord]]:
    """Connected components under closed-box contact, via all-pairs union-find.

    Contact is decided by the exact rational oracle, so this shares no code
    with the integer test used in production.
    """
    coords = list(coords)
    uf = UnionFind(coords)
    for i, a in enumerate(coords):
        for b in coords[i + 1:]:
            if rational_cells_touch(a, b):
                uf.union(a, b)
    return uf.components()


def _mean(values: list[float]) -> float:
    """The mean of finite floats, fsum over the count; when the sum
    overflows, the mean of the values scaled by 2^-k, 2^k above their
    count, scaled back."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        k = len(values).bit_length()
        return math.ldexp(math.fsum(math.ldexp(v, -k) for v in values) / len(values), k)


def organizations_reference(groups, tree) -> list[Organization]:
    """organizations_from one member at a time: a dict from each node row's
    coordinate to the row, Python lists per group, min and max over them.

    A cell with a leaf row gives its bodies; one with no row whose parent
    row is internal is an empty leaf and gives none; any other cell raises
    ValueError.  A group without members is dropped, and the others are
    ordered by descending member count, then by their smallest cell.
    """
    n = len(tree.first) - 1
    first, count, ids = tree.first.tolist(), tree.count.tolist(), tree.id.tolist()
    px, py = tree.cx.tolist(), tree.cy.tolist()
    row = {c: k for k, c in enumerate(zip(*tree.coords.tolist()))}
    protos = []
    for raw in groups:
        cell_group = frozenset(raw)
        rows: list[int] = []
        for c in sorted(cell_group):
            d, ix, iy = c
            k, parent = row.get(c), row.get((d - 1, ix >> 1, iy >> 1))
            if k is not None and first[k] >= n:
                rows.extend(range(first[k], first[k] + count[k]))
            elif k is not None or parent is None or first[parent] >= n:
                raise ValueError(f"cell ({d}, {ix}, {iy}) is not a leaf of the tree")
        if not rows:
            continue
        rows.sort(key=ids.__getitem__)
        members = tuple(ids[k] for k in rows)
        xs, ys = [px[k] for k in rows], [py[k] for k in rows]
        centroid = Vec2(_mean(xs), _mean(ys))
        bbox = AABB(Vec2(min(xs), min(ys)), Vec2(max(xs), max(ys)))
        protos.append((cell_group, members, centroid, bbox))
    protos.sort(key=lambda t: (-len(t[1]), min(t[0])))
    return [Organization(i, cells, members, centroid, bbox)
            for i, (cells, members, centroid, bbox) in enumerate(protos)]


def neighbors_of(node, c: CellCoord, cells) -> list[CellCoord]:
    """Leaf cells from `cells` whose closed box touches cell c's box.

    Descends from `node`, recursing only into children whose box touches c's,
    so subtrees that cannot contain a contact are never inspected.  Contact is
    decided by the exact integer test, corner contact included.  The returned
    list is sorted; it contains c itself when c is present in `cells`.
    """
    pool = cells.cells if isinstance(cells, CellSet) else cells
    out: list[CellCoord] = []
    stack = [node]
    while stack:
        n = stack.pop()
        if n.children is None:
            if n.coord in pool and cells_touch(n.coord, c):
                out.append(n.coord)
        else:
            for child in n.children:
                if cells_touch(child.coord, c):
                    stack.append(child)
    out.sort()
    return out


@lru_cache(maxsize=16)  # keyed by the tree's identity: an NTree has no __eq__
def _walk_table(tree) -> list[tuple]:
    """Per tree row, as Python tuples: its box, whether it is a leaf, and its
    bodies or its child rows in reverse."""
    n = len(tree.first) - 1
    bodies = [tree.bodies[i] for i in tree.order.tolist()]
    return [(*box, True, tuple(bodies[f - n:f - n + k])) if f >= n
            else (*box, False, range(f + k - 1, f - 1, -1))
            for *box, f, k in zip(*tree.box[:4].tolist(), tree.first.tolist(),
                                  tree.count.tolist())]


def query_radius_walk(tree, center: Vec2, radius: float) -> list[Body]:
    """Bodies within the closed disk, by a scalar depth-first walk of the rows.

    The reference for ntree.radius_hits and NTree.query_radius_bodies.  Only
    nodes whose box touches the disk's bounding square are descended, in the
    fixed child order, so hits come leaf by leaf depth-first and in leaf order
    within a leaf, filtered by exact squared distance.
    """
    rows = _walk_table(tree)
    cx = center.x
    cy = center.y
    qlo_x = cx - radius
    qhi_x = cx + radius
    qlo_y = cy - radius
    qhi_y = cy + radius
    r2 = radius * radius
    out: list[Body] = []
    stack = [0]  # the root, or in an empty tree the sentinel and its empty box
    while stack:
        lo_x, lo_y, hi_x, hi_y, leaf, items = rows[stack.pop()]
        if lo_x > qhi_x or qlo_x > hi_x or lo_y > qhi_y or qlo_y > hi_y:
            continue
        if leaf:
            for b in items:
                p = b.position
                dx = p.x - cx
                dy = p.y - cy
                if dx * dx + dy * dy <= r2:
                    out.append(b)
        else:
            stack.extend(items)
    return out


def linear_radius(bodies, center: Vec2, radius: float) -> set[int]:
    """Ids within the closed disk, by scanning every body."""
    r2 = radius * radius
    out = set()
    for b in bodies:
        dx = b.position.x - center.x
        dy = b.position.y - center.y
        if dx * dx + dy * dy <= r2:
            out.add(b.id)
    return out


def rational_aggregates(bodies) -> tuple[int, Fraction, tuple[Fraction, Fraction] | None]:
    """Count, total charge, and center of charge in exact arithmetic."""
    count = len(bodies)
    q = sum(Fraction(b.charge) for b in bodies)
    if q == 0:
        return count, q, None
    wx = sum(Fraction(b.charge) * Fraction(b.position.x) for b in bodies)
    wy = sum(Fraction(b.charge) * Fraction(b.position.y) for b in bodies)
    return count, q, (wx / q, wy / q)


def bisect_cell_box(root: AABB, coord: CellCoord) -> AABB:
    """Cell box by repeated midpoint bisection instead of the closed formula.

    Exactly matches the closed formula when the root box has power-of-two
    extent, which is the regime the cross-check tests restrict themselves to.
    """
    lo_x, hi_x = root.lo.x, root.hi.x
    lo_y, hi_y = root.lo.y, root.hi.y
    for level in range(coord.depth - 1, -1, -1):
        mid_x = (lo_x + hi_x) / 2.0
        mid_y = (lo_y + hi_y) / 2.0
        if (coord.ix >> level) & 1:
            lo_x = mid_x
        else:
            hi_x = mid_x
        if (coord.iy >> level) & 1:
            lo_y = mid_y
        else:
            hi_y = mid_y
    return AABB(Vec2(lo_x, lo_y), Vec2(hi_x, hi_y))


def modularity_literal(weights, partition) -> float:
    """Textbook double-sum modularity: (1/2m) sum_ij (A_ij - k_i k_j / 2m) d_ij."""
    n = len(weights)
    label = {}
    for g, members in enumerate(partition):
        for i in members:
            label[i] = g
    two_m = float(sum(weights[i][j] for i in range(n) for j in range(n)))
    degree = [float(sum(weights[i][j] for j in range(n))) for i in range(n)]
    q = 0.0
    for i in range(n):
        for j in range(n):
            if label[i] == label[j]:
                q += weights[i][j] - degree[i] * degree[j] / two_m
    return q / two_m


def modularity_reference(weights: np.ndarray, partition) -> float:
    """Newman weighted modularity straight from a dense weight matrix.

    The reference for the blockwise metrics.modularity: each group's intra
    and incident weights are numpy sums over copies of its submatrix and its
    rows.  The partition is assumed to be a disjoint cover.
    """
    two_w = float(weights.sum())
    q = 0.0
    for g in partition:
        g = np.fromiter((int(i) for i in g), dtype=int)
        if len(g) == 0:
            continue
        intra = float(weights[np.ix_(g, g)].sum()) / two_w
        incident = float(weights[g].sum()) / two_w
        q += intra - incident * incident
    return q


def interaction_weights_reference(bodies, transform: str = TRANSFORM_INVERSE,
                                  sigma: float = 1.0) -> np.ndarray:
    """Interaction weights through the full N x N x 2 difference tensor.

    Distances are the square root of the sum over the coordinate axis; the
    production graph must equal this matrix byte for byte.
    """
    pos = np.array([[b.position.x, b.position.y] for b in bodies], dtype=float)
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    if transform == TRANSFORM_INVERSE:
        w = 1.0 / (dist + INVERSE_EPSILON)
    elif transform == TRANSFORM_GAUSSIAN:
        w = np.exp(-(dist * dist) / (2.0 * sigma * sigma))
    else:
        w = dist.copy()
    np.fill_diagonal(w, 0.0)
    return w


def build_reference(bodies, root_box: AABB, capacity: int, max_depth: int) -> Node:
    """The tree of build_tree as Node objects, by recursive splitting.

    The reference for the level-by-level build_tree.  Inputs are not
    validated.
    """
    return _build(list(bodies), CellCoord(0, 0, 0), root_box, root_box, capacity, max_depth)[0]


def _build(items: list[Body], coord: CellCoord, box: AABB, root_box: AABB,
           capacity: int, max_depth: int) -> tuple[Node, float, float, float]:
    # Returns the node plus raw (charge, charge*x, charge*y) sums.  Raw sums
    # propagate bottom-up so a parent centroid stays exact even when a child's
    # signed charges cancel and its own centroid is undefined.
    if len(items) <= capacity or coord.depth >= max_depth:
        q = 0.0
        wx = 0.0
        wy = 0.0
        for b in items:
            q += b.charge
            wx += b.charge * b.position.x
            wy += b.charge * b.position.y
        com = Vec2(wx / q, wy / q) if q != 0.0 else None
        node = Node(coord, box, None, tuple(items), len(items), q, com,
                    box.lo.x, box.lo.y, box.hi.x, box.hi.y)
        return node, q, wx, wy

    kid_coords = child_coords(coord)
    kid_boxes = tuple(cell_box(root_box, k) for k in kid_coords)
    split_x = kid_boxes[1].lo.x
    split_y = kid_boxes[2].lo.y
    buckets: tuple[list[Body], ...] = ([], [], [], [])
    for b in items:
        i = (1 if b.position.x >= split_x else 0) + (2 if b.position.y >= split_y else 0)
        buckets[i].append(b)

    kids = []
    count = 0
    q = 0.0
    wx = 0.0
    wy = 0.0
    for kc, kb, bucket in zip(kid_coords, kid_boxes, buckets):
        child, cq, cwx, cwy = _build(bucket, kc, kb, root_box, capacity, max_depth)
        kids.append(child)
        count += child.count
        q += cq
        wx += cwx
        wy += cwy
    com = Vec2(wx / q, wy / q) if q != 0.0 else None
    node = Node(coord, box, (kids[0], kids[1], kids[2], kids[3]), (), count, q, com,
                box.lo.x, box.lo.y, box.hi.x, box.hi.y)
    return node, q, wx, wy


def flatten_reference(root: Node, bodies) -> dict:
    """The rows of a reference tree, as NTree lays them out, row by row.

    Returns box, first, count, coords, cx, cy, charge and id as numpy arrays,
    and the bodies in depth-first order.
    """
    order = [(root, 0)] if root.count else []
    bodies = list(bodies)

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
            c = node.coord
            yield (node.lo_x, node.lo_y, node.hi_x, node.hi_y, side * side, first,
                   len(order) - first if first >= 0 else node.count,
                   com.x, com.y, node.total_charge, c.depth, c.ix, c.iy)
        yield (math.inf, math.inf, -math.inf, -math.inf, -1.0, 0, 0, 0.0, 0.0, 0.0, 0, 0, 0)

    table = np.fromiter(rows(), "f8,f8,f8,f8,f8,i8,i8,f8,f8,f8,i8,i8,i8")
    *box, first, count, cx, cy, charge, depth, ix, iy = (table[f] for f in table.dtype.names)
    n = len(order)
    first[first < 0] = n + ~first[first < 0]
    return {
        "box": np.stack(box), "first": first, "count": count,
        "coords": np.stack([depth[:n], ix[:n], iy[:n]]),
        "cx": np.concatenate([cx[:n], [b.position.x for b in bodies]]),
        "cy": np.concatenate([cy[:n], [b.position.y for b in bodies]]),
        "charge": np.concatenate([charge[:n], [b.charge for b in bodies]]),
        "id": np.concatenate([np.full(n, -2), np.array([b.id for b in bodies], dtype=np.int64)]),
        "bodies": bodies,
    }


def dump_leaves(tree) -> str:
    """Debug dump, one sorted line per leaf: `depth ix iy count`."""
    rows = sorted((n.coord, n.count) for n in tree.leaves())
    return "\n".join(f"{c.depth} {c.ix} {c.iy} {k}" for c, k in rows)


def aggregates(node: Node) -> tuple[int, float, Vec2 | None]:
    """(count, total charge, charge-weighted centroid; None when undefined).

    The centroid is undefined for empty nodes and for nodes whose signed
    charges cancel exactly.
    """
    return node.count, node.total_charge, node.center_of_charge


def collect_bodies(node) -> list[Body]:
    """Every body under a node, by explicit traversal."""
    if node.children is None:
        return list(node.bodies)
    out: list[Body] = []
    for child in node.children:
        out.extend(collect_bodies(child))
    return out


def pair_field(source: Body, target: Vec2, params: KernelParams,
               target_id: int | None = None) -> Vec2:
    """Field contribution of one source body at a target point."""
    dx = source.position.x - target.x
    dy = source.position.y - target.y
    r2 = dx * dx + dy * dy
    eps2 = params.softening * params.softening
    r3 = (r2 + eps2) * math.sqrt(r2 + eps2)
    if r3 == 0.0:  # coincident, or so close that r^3 underflows
        raise SingularPairError(
            f"source body {source.id} coincides with the target and softening is 0"
            if r2 + eps2 == 0.0 else f"source body {source.id} is too close to the "
            f"target: r^3 underflows to 0 at softening {params.softening}",
            pair=(source.id, target_id if target_id is not None else -1))
    w = params.constant * source.charge / r3
    return Vec2(w * dx, w * dy)


def tree_field_walk(tree, target: Vec2, target_id: int, params) -> Vec2:
    """Barnes-Hut field at a point by a scalar depth-first walk of the tree.

    The reference for the batched tree_field(s): the same opening test, the
    same term arithmetic, one target at a time.  Descends from the root in
    the fixed child order.  Any node whose side-to-distance ratio beats theta
    is collapsed to a pseudo-body at its center of charge, unless its charges
    cancel or its box holds the target; other internal nodes recurse, and
    surviving leaves are summed body by body, skipping target_id.  The first
    term that is not finite raises SingularPairError, naming its body pair
    (or no pair, for a cell); a sum that overflows raises DynamicsError.
    """
    tx = target.x
    ty = target.y
    const = params.constant
    eps2 = params.softening * params.softening
    th2 = params.theta * params.theta
    xs: list[float] = []
    ys: list[float] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.count == 0:
            continue
        com = node.center_of_charge
        if (com is not None
                and not (node.lo_x <= tx <= node.hi_x
                         and node.lo_y <= ty <= node.hi_y)):
            dx = com.x - tx
            dy = com.y - ty
            d2 = dx * dx + dy * dy
            side = node.hi_x - node.lo_x
            h = node.hi_y - node.lo_y
            if h > side:
                side = h
            # s/d < theta without the square root: s^2 < theta^2 * d^2.
            if d2 > 0.0 and side * side < th2 * d2:
                r3 = (d2 + eps2) * math.sqrt(d2 + eps2)
                w = const * node.total_charge / r3 if r3 else math.inf
                if not (math.isfinite(w * dx) and math.isfinite(w * dy)):
                    c = node.coord
                    raise SingularPairError(f"the field term of cell {[c.depth, c.ix, c.iy]} at "
                                            f"target {target_id} is not finite")
                xs.append(w * dx)
                ys.append(w * dy)
                continue
        if node.children is None:
            for b in node.bodies:
                if b.id == target_id:
                    continue
                dx = b.position.x - tx
                dy = b.position.y - ty
                r2 = dx * dx + dy * dy + eps2
                r3 = r2 * math.sqrt(r2)
                w = const * b.charge / r3 if r3 else math.inf
                if not (math.isfinite(w * dx) and math.isfinite(w * dy)):
                    raise SingularPairError(
                        f"the field term of body {b.id} at target {target_id} is not finite",
                        pair=(b.id, target_id))
                xs.append(w * dx)
                ys.append(w * dy)
        else:
            stack.extend(reversed(node.children))
    try:
        return Vec2(math.fsum(xs), math.fsum(ys))
    except OverflowError:
        raise DynamicsError(f"the field at target {target_id} overflows") from None


def neighborhood(state: WorldState, j: int, same_species: bool) -> list[int]:
    """Neighbor ids of body j within its species' radius, j itself excluded.

    The radius test is inclusive.  same_species=True keeps neighbors of j's
    species, False keeps every other species.
    """
    body = by_id(state)[j]
    radius = state.params.species[body.species].neighbor_radius
    out = []
    for nb in query_radius_walk(state.tree, body.position, radius):
        if nb.id == j:
            continue
        if (nb.species == body.species) == same_species:
            out.append(nb.id)
    return out


def _pair_d2(j: Body, other: Body) -> float:
    dx = other.position.x - j.position.x
    dy = other.position.y - j.position.y
    d2 = dx * dx + dy * dy
    if d2 == 0.0:
        raise ZeroDistanceError(
            f"boids {j.id} and {other.id} occupy the same position",
            pair=(j.id, other.id))
    return d2


def _pair_d3(j: Body, other: Body, d2: float) -> float:
    d3 = d2 * math.sqrt(d2)
    if d3 == 0.0:
        raise ZeroDistanceError(
            f"boids {j.id} and {other.id} are too close: distance^3 underflows to 0",
            pair=(j.id, other.id))
    return d3


def cohesion(j: Body, neighbors: list[Body], mode: str = COHESION_NORMALIZED) -> Vec2:
    """Pull toward the inverse-square-weighted neighbor centroid.

    Normalized mode returns that centroid minus x_j.  Literal mode skips the
    normalization and returns sum(x_i / d_i^2) - x_j, as the boids module
    docstring writes it.
    """
    if mode not in COHESION_MODES:
        raise ValueError(f"unknown cohesion mode: {mode!r}")
    if not neighbors:
        return Vec2(0.0, 0.0)
    sw = 0.0
    sx = 0.0
    sy = 0.0
    for nb in neighbors:
        w = 1.0 / _pair_d2(j, nb)
        sw += w
        sx += w * nb.position.x
        sy += w * nb.position.y
    if mode == COHESION_LITERAL:
        return Vec2(sx - j.position.x, sy - j.position.y)
    return Vec2(sx / sw - j.position.x, sy / sw - j.position.y)


def separation(j: Body, neighbors: list[Body], coefficient: float) -> Vec2:
    """Scaled push away from close neighbors, with inverse-cube weights."""
    sx = 0.0
    sy = 0.0
    for nb in neighbors:
        d3 = _pair_d3(j, nb, _pair_d2(j, nb))
        sx += (j.position.x - nb.position.x) / d3
        sy += (j.position.y - nb.position.y) / d3
    return Vec2(coefficient * sx, coefficient * sy)


def alignment(j: Body, neighbors: list[Body]) -> Vec2:
    """Average of neighbor velocities, weighted by inverse squared distance."""
    if not neighbors:
        return Vec2(0.0, 0.0)
    card = float(len(neighbors))
    sx = 0.0
    sy = 0.0
    for nb in neighbors:
        w = 1.0 / (card * _pair_d2(j, nb))
        sx += w * nb.velocity.x
        sy += w * nb.velocity.y
    return Vec2(sx, sy)


def step_velocity_loop(state: WorldState, j: int) -> Vec2:
    """Post-update velocity of body j by a scalar loop over its neighbours.

    The reference for the batched step_world, one boid of which
    step_velocity below reads.
    Equivalent, float for float, to combining the cohesion, separation, and
    alignment functions above; the loop just shares one distance computation
    per neighbor instead of recomputing it per term.  A pair whose distance
    cubed underflows to 0 raises like a coincident pair, at the first such
    neighbour met: same-species neighbours first, in query order.
    """
    body = by_id(state)[j]
    sp = state.params.species[body.species]
    species = body.species
    same: list[Body] = []
    other: list[Body] = []
    for nb in query_radius_walk(state.tree, body.position, sp.neighbor_radius):
        if nb.id == j:
            continue
        (same if nb.species == species else other).append(nb)

    px = body.position.x
    py = body.position.y
    sw = csx = csy = 0.0
    ssx = ssy = 0.0
    asx = asy = 0.0
    card = float(len(same))
    for nb in same:
        dx = nb.position.x - px
        dy = nb.position.y - py
        d2 = dx * dx + dy * dy
        if d2 == 0.0:
            raise ZeroDistanceError(
                f"boids {body.id} and {nb.id} occupy the same position",
                pair=(body.id, nb.id))
        w = 1.0 / d2
        sw += w
        csx += w * nb.position.x
        csy += w * nb.position.y
        d3 = _pair_d3(body, nb, d2)
        ssx += (px - nb.position.x) / d3
        ssy += (py - nb.position.y) / d3
        aw = 1.0 / (card * d2)
        asx += aw * nb.velocity.x
        asy += aw * nb.velocity.y
    if not same:
        cx = cy = 0.0
    elif state.params.cohesion_mode == COHESION_LITERAL:
        cx = csx - px
        cy = csy - py
    else:
        cx = csx / sw - px
        cy = csy / sw - py

    osx = osy = 0.0
    for nb in other:
        dx = nb.position.x - px
        dy = nb.position.y - py
        d2 = dx * dx + dy * dy
        if d2 == 0.0:
            raise ZeroDistanceError(
                f"boids {body.id} and {nb.id} occupy the same position",
                pair=(body.id, nb.id))
        d3 = _pair_d3(body, nb, d2)
        osx += (px - nb.position.x) / d3
        osy += (py - nb.position.y) / d3

    vx = (sp.alpha * body.velocity.x + sp.beta * cx + sp.gamma * ssx
          + sp.delta * asx + sp.inter_species_gamma * osx)
    vy = (sp.alpha * body.velocity.y + sp.beta * cy + sp.gamma * ssy
          + sp.delta * asy + sp.inter_species_gamma * osy)
    v2 = vx * vx + vy * vy
    limit = sp.max_speed
    if v2 > limit * limit:
        scale = limit / math.sqrt(v2)
        vx *= scale
        vy *= scale
        # Rounding can leave the rescaled speed an ulp over the cap; nudge
        # toward zero until the invariant holds exactly.
        while vx * vx + vy * vy > limit * limit:
            vx = math.nextafter(vx, 0.0)
            vy = math.nextafter(vy, 0.0)
    return Vec2(vx, vy)


def _reflect_loop(x: float, v: float, lo: float, hi: float) -> tuple[float, float]:
    # Fold back into [lo, hi], negating the velocity component per bounce.
    while x < lo or x > hi:
        if x < lo:
            x = 2.0 * lo - x
        else:
            x = 2.0 * hi - x
        v = -v
    return x, v


def reflect_fold(x: float, v: float, lo: float, hi: float) -> tuple[float, float]:
    """_reflect_loop for at most 64 folds, then a closed form.

    The bit reference for the numpy boids._reflect.  Reflection is periodic
    with period 2 * (hi - lo), and the velocity sign flips in the period's
    second half; past 64 folds this gives other bits than _reflect_loop.
    """
    for _ in range(64):
        if lo <= x <= hi:
            return x, v
        x = 2.0 * lo - x if x < lo else 2.0 * hi - x
        v = -v
    if lo <= x <= hi:
        return x, v
    u = math.fmod(x - lo, 2.0 * (hi - lo))
    if u < 0.0:
        u += 2.0 * (hi - lo)
    if u <= hi - lo:
        return lo + u, v
    return lo + (2.0 * (hi - lo) - u), -v


def wrap_mod(x: float, lo: float, hi: float) -> float:
    """Periodic wrap into [lo, hi]; the reference for the numpy boids._wrap."""
    if lo <= x <= hi:
        return x
    return lo + ((x - lo) % (hi - lo))


def step_world_loop(state: WorldState) -> WorldState:
    """One synchronous step of every boid by the scalar loops above.

    The reference for the batched step_world; reflect folds one bounce at a
    time, so keep it to scenes that need few folds.
    """
    params = state.params
    new_v = [step_velocity_loop(state, b.id) for b in state.bodies]
    box = params.box
    dt = params.dt
    reflect = params.boundary == BOUNDARY_REFLECT
    moved: list[Body] = []
    for b, v in zip(state.bodies, new_v):
        x = b.position.x + dt * v.x
        y = b.position.y + dt * v.y
        vx = v.x
        vy = v.y
        if reflect:
            x, vx = _reflect_loop(x, vx, box.lo.x, box.hi.x)
            y, vy = _reflect_loop(y, vy, box.lo.y, box.hi.y)
        else:
            x = wrap_mod(x, box.lo.x, box.hi.x)
            y = wrap_mod(y, box.lo.y, box.hi.y)
        moved.append(Body(b.id, b.species, Vec2(x, y), Vec2(vx, vy), b.charge))
    tree = build_tree(moved, box, params.capacity, params.max_depth)
    return WorldState(bodies=tree.bodies, tree=tree, step=state.step + 1, params=params)


def read_trace_reference(path) -> tuple[dict[str, Any], list[Any]]:
    """The eager trace reader: (header, frames), decoding every line up front.

    The reference for read_trace, which decodes only the header and the
    frames asked for; both raise the same ConfigError texts.
    """
    path = Path(path)
    parsed = []
    for lineno, line in enumerate(path.read_bytes().splitlines(), start=1):
        if not line:
            continue
        try:
            parsed.append(json.loads(line))
        except ValueError as exc:
            why = getattr(exc, "msg", exc)
            raise ConfigError(f"{path}:{lineno}: malformed trace line: {why}") from exc
        if parsed[1:] and not isinstance(parsed[-1], dict):
            raise ConfigError(f"{path}:{lineno}: frame line is not an object")
    if not parsed:
        raise ConfigError(f"{path}: empty trace")
    header = parsed[0]
    if not isinstance(header, dict) or "config" not in header or "version" not in header:
        raise ConfigError(f"{path}: first line is not a trace header")
    if header["version"] != TRACE_VERSION:
        raise ConfigError(f"{path}: unsupported trace version {header['version']!r}")
    return header, parsed[1:]


def frame_at_reference(frames, step: int) -> dict[str, Any]:
    """The first frame whose "step" equals `step`, by a linear scan."""
    for frame in frames:
        if frame.get("step") == step:
            return frame
    raise ConfigError(f"trace has no frame for step {step}")


# Test entry points: one-target views of the batched code under test, not
# references.  src/ keeps one path per job; the tests ask it one body or one
# cell at a time through these.

def by_id(state: WorldState) -> dict[int, Body]:
    """The state's bodies keyed by id."""
    return {b.id: b for b in state.bodies}


def step_velocity(state: WorldState, j: int) -> Vec2:
    """Post-update velocity of body j: its entry of one batched update of
    every boid, as step_world computes it.  A coincident pair anywhere in
    the state raises the batch's ZeroDistanceError."""
    vx, vy = _velocities(state)
    k = [b.id for b in state.bodies].index(j)
    return Vec2(float(vx[k]), float(vy[k]))


def leaf_at(tree, coord: CellCoord) -> Node | None:
    """The leaf of tree.leaves() with exactly this coordinate, or None when
    no such leaf exists."""
    return next((leaf for leaf in tree.leaves() if leaf.coord == coord), None)
