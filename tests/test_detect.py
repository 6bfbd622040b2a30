import math
import random

import numpy as np
import pytest

from orgtree.detect import (CellSet, group_cells, group_cells2,
                            organizations_from)
from orgtree.geometry import AABB, CellCoord, Vec2, cells_touch, child_coords
from orgtree.ntree import Body, build_tree
from conftest import BOX_100, UNIT_BOX, uniform_bodies, uniform_tree
from oracles import (brute_force_groups, leaf_at, neighbors_of, organizations_reference,
                     rational_cells_touch)


def random_cut(seed, n_max=400):
    rng = random.Random(seed)
    tree, _ = uniform_tree(rng.randrange(5, n_max), seed=seed,
                           capacity=rng.choice([1, 3, 10]))
    depth = rng.randrange(2, 6)
    return tree, CellSet.from_tree(tree, depth)


def as_partition(groups):
    return {frozenset(g) for g in groups}


def z_interval(c, depth):
    """The cell's interval of Z-order codes at `depth`, built bit by bit: bit
    b of ix goes to bit 2b of the code, bit b of iy to bit 2b + 1."""
    z = 0
    for b in range(c.depth):
        z |= ((c.ix >> b) & 1) << 2 * b | ((c.iy >> b) & 1) << 2 * b + 1
    shift = 2 * (depth - c.depth)
    return z << shift, (z + 1) << shift


def one_sweep_groups(cells, seed):
    """group_cells with a single sweep per group instead of sweeps to a fixpoint."""
    rng = random.Random(seed)
    remaining = set(cells)
    groups = []
    while remaining:
        pool = sorted(remaining)
        group = {pool[rng.randrange(len(pool))]}
        remaining -= group
        for cand in sorted(remaining):
            if any(cells_touch(cand, m) for m in group):
                remaining.remove(cand)
                group.add(cand)
        groups.append(frozenset(group))
    return groups


class TestCellSet:
    def test_cut_keeps_only_deep_nonempty_leaves(self):
        tree, _ = uniform_tree(200, seed=2, capacity=3)
        cut = CellSet.from_tree(tree, 3)
        expected = {c for c, ids in tree.leaf_cells().items()
                    if c.depth >= 3 and ids}
        assert cut.coords() == expected
        assert all(cut.cells[c] for c in cut.coords())

    def test_deeper_cut_is_subset_of_shallower(self):
        for seed in range(6):
            tree, _ = uniform_tree(300, seed=seed, capacity=2)
            shallow = CellSet.from_tree(tree, 2).coords()
            deep = CellSet.from_tree(tree, 4).coords()
            assert deep <= shallow

    def test_depth_zero_cut_is_every_occupied_leaf(self):
        tree, bodies = uniform_tree(60, seed=7, capacity=4)
        cut = CellSet.from_tree(tree, 0)
        assert sorted(i for ids in cut.cells.values() for i in ids) == \
            [b.id for b in bodies]

    def test_rows_are_leaves_in_z_order(self):
        # group_cells2 reads a cut's rows, in their own order, as sorted and
        # disjoint Z intervals.  Scenes: the grouping gate's kind, piles down
        # to depth 53, and bodies on the root's edges; each cut at 0 too.
        rng = random.Random(20260822)
        boxes = (UNIT_BOX, BOX_100, AABB(Vec2(-8.0, 2.0), Vec2(24.0, 18.0)))
        scenes = []
        for i in range(60):
            n = round(10.0 ** rng.uniform(math.log10(2), math.log10(1000)))
            box = boxes[i % len(boxes)]
            tree = build_tree(uniform_bodies(n, seed=5000 + i, box=box), box,
                              rng.choice([1, 3, 10]))
            scenes.append((tree, rng.randint(2, 6)))
        scenes += [scene(rng) for scene in (pile_scene, edge_scene, deep_scene) for _ in range(8)]
        depths = set()
        for tree, min_depth in scenes + [(tree, 0) for tree, _ in scenes]:
            rows = CellSet.from_tree(tree, min_depth).rows
            n = len(tree.first) - 1
            assert (tree.first[rows] >= n).all() and (tree.count[rows] > 0).all()
            assert (np.diff(tree.first[rows]) > 0).all()
            cells = tree.cell_coords(rows)
            assert all(c.depth >= min_depth for c in cells)
            depths |= {c.depth for c in cells}
            deepest = max((c.depth for c in cells), default=0)
            spans = [z_interval(c, deepest) for c in cells]
            assert all(lo < hi for lo, hi in spans)
            assert all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
        assert 53 in depths and len(depths) > 10

    def test_membership_protocol(self):
        tree, _ = uniform_tree(50, seed=3, capacity=2)
        cut = CellSet.from_tree(tree, 0)
        some = next(iter(cut.coords()))
        assert some in cut
        assert CellCoord(24, 0, 0) not in cut
        assert len(cut) == len(cut.coords())


class TestGroupCells:
    def test_single_cell(self):
        chain = [CellCoord(3, 0, 0)]
        assert group_cells(chain) == [frozenset(chain)]

    def test_empty_input(self):
        assert group_cells([]) == []

    def test_two_separate_pairs(self):
        cells = [CellCoord(3, 0, 0), CellCoord(3, 1, 0),
                 CellCoord(3, 5, 5), CellCoord(3, 5, 6)]
        got = as_partition(group_cells(cells))
        assert got == {frozenset(cells[:2]), frozenset(cells[2:])}

    def test_corner_contact_joins(self):
        cells = [CellCoord(2, 0, 0), CellCoord(2, 1, 1)]
        assert as_partition(group_cells(cells)) == {frozenset(cells)}

    def test_mixed_depth_chain_joins(self):
        # A coarse cell and a fine cell sharing only part of an edge still
        # belong to one component.
        cells = [CellCoord(1, 0, 0), CellCoord(3, 4, 1)]
        assert as_partition(group_cells(cells)) == {frozenset(cells)}

    def test_matches_union_find_oracle(self):
        for seed in range(30):
            tree, cut = random_cut(seed)
            want = brute_force_groups(cut.coords())
            assert as_partition(group_cells(cut)) == want

    def test_partition_is_seed_independent(self):
        tree, cut = random_cut(1234)
        baseline = as_partition(group_cells(cut, seed=0))
        for seed in range(1, 8):
            assert as_partition(group_cells(cut, seed=seed)) == baseline

    def test_single_pass_can_split_a_chain(self):
        # Starting mid-chain, one sweep in ascending order tests the low end
        # before its bridge to the seed has joined, so the low end is lost.
        # The fixpoint sweep closes the component from any starting cell.
        chain = [CellCoord(3, k, 0) for k in range(5)]
        split_seen = False
        for seed in range(100):
            full = as_partition(group_cells(chain, seed=seed))
            assert full == {frozenset(chain)}
            if len(one_sweep_groups(chain, seed=seed)) > 1:
                split_seen = True
        assert split_seen


class TestNeighborsOf:
    def test_matches_rational_contact_filter(self):
        tree, cut = random_cut(77)
        pool = cut.coords()
        for c in sorted(pool):
            got = neighbors_of(tree.root, c, cut)
            want = sorted(m for m in pool if rational_cells_touch(m, c))
            assert got == want

    def test_restricted_pool_is_respected(self):
        tree, cut = random_cut(78)
        coords = sorted(cut.coords())
        c = coords[0]
        thin = [m for m in coords if m != c]
        got = neighbors_of(tree.root, c, thin)
        assert c not in got
        assert all(m in thin for m in got)


class TestGroupCells2:
    def test_matches_reference_grouping(self):
        for seed in range(30, 60):
            tree, cut = random_cut(seed)
            want = as_partition(group_cells(cut))
            assert as_partition(group_cells2(cut, tree)) == want

    def test_partition_is_seed_independent(self):
        tree, cut = random_cut(4321)
        baseline = as_partition(group_cells2(cut, tree, seed=0))
        for seed in range(1, 8):
            assert as_partition(group_cells2(cut, tree, seed=seed)) == baseline

    def test_only_a_cut_is_grouped(self):
        tree, cut = random_cut(4321)
        for pool in (list(cut.coords()), cut.coords(), iter(cut.coords())):
            with pytest.raises(TypeError, match="group_cells"):
                group_cells2(pool, tree)

    def test_empty_cut(self):
        tree, _ = uniform_tree(3, seed=1, capacity=10)
        cut = CellSet.from_tree(tree, 8)
        assert len(cut) == 0
        assert group_cells2(cut, tree) == []


class TestOrganizationsFrom:
    @staticmethod
    def two_cluster_tree():
        pts_a = [(0.10, 0.10), (0.12, 0.11), (0.11, 0.14), (0.15, 0.12), (0.13, 0.09)]
        pts_b = [(0.80, 0.80), (0.82, 0.83), (0.84, 0.80)]
        bodies = [Body(i, 0, Vec2(x, y), Vec2(0.0, 0.0), 1.0)
                  for i, (x, y) in enumerate(pts_a + pts_b)]
        return build_tree(bodies, UNIT_BOX, 1), bodies

    def test_sizes_members_and_ids(self):
        tree, bodies = self.two_cluster_tree()
        cut = CellSet.from_tree(tree, 2)
        orgs = organizations_from(group_cells2(cut, tree), tree)
        assert len(orgs) == 2
        assert orgs[0].id == 0 and orgs[1].id == 1
        assert orgs[0].members == (0, 1, 2, 3, 4)
        assert orgs[1].members == (5, 6, 7)

    def test_centroid_and_bbox_cover_member_positions(self):
        tree, bodies = self.two_cluster_tree()
        cut = CellSet.from_tree(tree, 2)
        orgs = organizations_from(group_cells2(cut, tree), tree)
        big = orgs[0]
        xs = [bodies[i].position.x for i in big.members]
        ys = [bodies[i].position.y for i in big.members]
        assert big.centroid.x == pytest.approx(sum(xs) / len(xs), rel=1e-12)
        assert big.centroid.y == pytest.approx(sum(ys) / len(ys), rel=1e-12)
        assert big.bounding_box.lo == Vec2(min(xs), min(ys))
        assert big.bounding_box.hi == Vec2(max(xs), max(ys))

    def test_equal_sizes_tie_break_on_smallest_cell(self):
        pts = [(0.10, 0.10), (0.13, 0.12), (0.80, 0.80), (0.83, 0.82)]
        bodies = [Body(i, 0, Vec2(x, y), Vec2(0.0, 0.0), 1.0)
                  for i, (x, y) in enumerate(pts)]
        tree = build_tree(bodies, UNIT_BOX, 1)
        cut = CellSet.from_tree(tree, 2)
        orgs = organizations_from(group_cells2(cut, tree), tree)
        assert len(orgs) == 2
        assert len(orgs[0].members) == len(orgs[1].members) == 2
        assert orgs[0].members == (0, 1)  # lower-left cluster owns smaller cells

    def test_non_leaf_cell_rejected(self):
        tree, _ = self.two_cluster_tree()
        with pytest.raises(ValueError):
            organizations_from([[CellCoord(24, 0, 0)]], tree)

    def test_empty_groups_are_dropped(self):
        tree, _ = self.two_cluster_tree()
        assert organizations_from([[]], tree) == []

    def test_group_of_empty_leaves_is_dropped(self):
        # Both bodies sit in the lower-left quadrant, so (1, 1, 1) is an empty leaf.
        bodies = [Body(0, 0, Vec2(0.1, 0.1), Vec2(0.0, 0.0)),
                  Body(1, 0, Vec2(0.2, 0.2), Vec2(0.0, 0.0))]
        tree = build_tree(bodies, UNIT_BOX, 1)
        assert leaf_at(tree, CellCoord(1, 1, 1)).count == 0
        assert organizations_from([[CellCoord(1, 1, 1)]], tree) == []
        orgs = organizations_from([[CellCoord(1, 1, 1)], tree.leaf_cells()], tree)
        assert [o.members for o in orgs] == [(0, 1)]


class TestEndToEndPartition:
    def test_groups_partition_the_cut(self):
        for seed in (5, 25, 125):
            tree, cut = random_cut(seed)
            groups = group_cells2(cut, tree)
            flat = [c for g in groups for c in g]
            assert len(flat) == len(set(flat)) == len(cut)
            assert set(flat) == cut.coords()


class TestUnionFindGrouping:
    """group_cells2 against the rational all-pairs oracle on adversarial pools."""

    @staticmethod
    def pile(x, y, k, start):
        return [Body(start + i, 0, Vec2(x, y), Vec2(0.0, 0.0), 1.0) for i in range(k)]

    def check(self, tree, cut):
        want = brute_force_groups(cut.coords())
        assert as_partition(group_cells2(cut, tree)) == want
        assert as_partition(group_cells(cut)) == want
        return want

    def test_cut_depth_leaf_beside_a_max_depth_pile(self):
        # The pile sits just left of x = 0.375, so its depth-20 leaf touches
        # the lone depth-3 leaf of the body at x = 0.45 along an edge.
        for dy, joined in ((0.0, True), (0.1, False)):
            bodies = self.pile(0.375 - 2.0 ** -30, 0.3, 3, 0)
            bodies.append(Body(3, 0, Vec2(0.45, 0.3 + dy), Vec2(0.0, 0.0), 1.0))
            tree = build_tree(bodies, UNIT_BOX, 1, 20)
            cut = CellSet.from_tree(tree, 3)
            depths = sorted(c.depth for c in cut.coords())
            assert depths[0] == 3 and depths[-1] - depths[0] >= 15
            assert len(self.check(tree, cut)) == (1 if joined else 2)

    def test_corner_only_contact(self):
        # A deep pile in the upper-right corner of cell (3, 2, 2) meets the
        # leaf (3, 3, 3) in one point, and two same-depth cells meet diagonally.
        bodies = self.pile(0.375 - 2.0 ** -30, 0.375 - 2.0 ** -30, 2, 0)
        bodies.append(Body(2, 0, Vec2(0.45, 0.45), Vec2(0.0, 0.0), 1.0))
        tree = build_tree(bodies, UNIT_BOX, 1, 20)
        cut = CellSet.from_tree(tree, 3)
        assert CellCoord(3, 3, 3) in cut and len(cut) == 2
        assert len(self.check(tree, cut)) == 1
        diagonal = [CellCoord(2, 0, 0), CellCoord(2, 1, 1), CellCoord(2, 3, 0)]
        assert as_partition(group_cells(diagonal)) == brute_force_groups(diagonal)

    def test_cells_on_all_four_root_edges(self):
        rng = random.Random(11)
        points = []
        for _ in range(60):
            t = rng.random()
            points += [(0.0, t), (1.0, t), (t, 0.0), (t, 1.0)]
        bodies = [Body(i, 0, Vec2(x, y), Vec2(0.0, 0.0), 1.0)
                  for i, (x, y) in enumerate(points)]
        tree = build_tree(bodies, UNIT_BOX, 1)
        for depth in (2, 4):
            cut = CellSet.from_tree(tree, depth)
            coords = cut.coords()
            last = [(1 << c.depth) - 1 for c in coords]
            assert any(c.ix == 0 for c in coords) and any(c.iy == 0 for c in coords)
            assert any(c.ix == m for c, m in zip(coords, last))
            assert any(c.iy == m for c, m in zip(coords, last))
            self.check(tree, cut)

    def test_cells_at_max_depth_53(self):
        # At 0.5 the float spacing is 2**-53, exactly the width of a
        # depth-53 cell of the unit box: piles one step apart share an edge,
        # piles two steps apart do not touch.
        ulp = 2.0 ** -53
        bodies = (self.pile(0.5, 0.25, 2, 0) + self.pile(0.5 + ulp, 0.25, 2, 2)
                  + self.pile(0.5 + 3 * ulp, 0.25, 2, 4)
                  + self.pile(0.5 + 3 * ulp, 0.25 + ulp, 2, 6))
        tree = build_tree(bodies, UNIT_BOX, 1, 53)
        cut = CellSet.from_tree(tree, 40)
        assert {c.depth for c in cut.coords()} == {53}
        assert len(cut) == 4
        assert len(self.check(tree, cut)) == 2

    def test_single_cell(self):
        bodies = self.pile(0.3, 0.7, 1, 0)
        tree = build_tree(bodies, UNIT_BOX, 1)
        cut = CellSet.from_tree(tree, 0)
        assert group_cells2(cut, tree) == [frozenset({CellCoord(0, 0, 0)})]

    def test_nested_pools_match_the_oracle(self):
        # Cells that contain one another touch; a pool need not be a tree cut.
        rng = random.Random(2024)
        tree, _ = uniform_tree(5, seed=1)
        for _ in range(200):
            pool = set()
            for _ in range(rng.randrange(1, 25)):
                d = rng.randrange(0, 5)
                pool.add(CellCoord(d, rng.randrange(1 << d), rng.randrange(1 << d)))
            want = brute_force_groups(pool)
            assert as_partition(group_cells(pool)) == want

    def test_partition_ignores_seed_and_input_order(self):
        for seed in (7, 8, 9):
            tree, cut = random_cut(seed)
            coords = sorted(cut.coords())
            baseline = as_partition(group_cells2(cut, tree))
            for k in range(6):
                assert as_partition(group_cells2(cut, tree, seed=k)) == baseline
            assert baseline == brute_force_groups(coords)


def org_fields(orgs):
    """Every field of each organization, the floats by their bits."""
    return [(o.id, o.cells, o.members, *(v.hex() for v in (
        o.centroid.x, o.centroid.y, o.bounding_box.lo.x, o.bounding_box.lo.y,
        o.bounding_box.hi.x, o.bounding_box.hi.y))) for o in orgs]


def outcome(groups, tree):
    """organizations_from's fields, or the text of its ValueError."""
    try:
        return org_fields(organizations_from(groups, tree))
    except ValueError as exc:
        return str(exc)


def reference_outcome(groups, tree):
    try:
        return org_fields(organizations_reference(groups, tree))
    except ValueError as exc:
        return str(exc)


def row_cells(tree):
    """(internal rows, empty leaves, non-empty leaves) of a tree, as cells."""
    n = len(tree.first) - 1
    coords = [CellCoord(*c) for c in tree.coords.T.tolist()]
    inner = [c for c, f in zip(coords, tree.first[:n].tolist()) if f < n]
    rows, split = set(coords), set(inner)
    empty = [k for c in inner for k in child_coords(c) if k not in rows]
    return inner, empty, [c for c in coords if c not in split]


def random_groups(rng, cells):
    """The cells dealt into a few groups, some cells twice, maybe an empty group."""
    groups = [[] for _ in range(rng.randrange(1, 5))]
    for c in cells:
        rng.choice(groups).append(c)
        if rng.random() < 0.1:
            rng.choice(groups).append(c)
    if rng.random() < 0.3:
        groups.append([])
    return groups


def pile_scene(rng):
    """Piles of coincident and near-coincident bodies, which bottom out at
    max_depth, among a few lone bodies."""
    max_depth = rng.choice([6, 12, 20, 53])
    bodies = []
    for _ in range(rng.randrange(1, 5)):
        x, y = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        for _ in range(rng.randrange(2, 7)):
            bodies.append(Body(len(bodies), 0, Vec2(x + rng.choice([0.0, 2.0 ** -40, -1e-13]),
                                                    y + rng.choice([0.0, 1e-13])), Vec2(0.0, 0.0)))
    for _ in range(rng.randrange(0, 30)):
        bodies.append(Body(len(bodies), 0, Vec2(rng.random(), rng.random()), Vec2(0.0, 0.0)))
    return build_tree(bodies, UNIT_BOX, 1, max_depth), rng.randrange(1, 8)


def edge_scene(rng):
    """Bodies on the four root edges, -0.0 among them, so min and max meet
    ties of 0.0 and -0.0."""
    bodies = []
    for _ in range(rng.randrange(5, 40)):
        t = rng.random()
        zero = rng.choice([0.0, -0.0])
        x, y = rng.choice([(zero, t), (1.0, t), (t, zero), (t, 1.0), (zero, zero)])
        bodies.append(Body(len(bodies), 0, Vec2(x, y), Vec2(0.0, 0.0)))
    return build_tree(bodies, UNIT_BOX, rng.choice([1, 2])), rng.randrange(1, 5)


def deep_scene(rng):
    """Piles one float step apart at 0.5, where a depth-53 cell of the unit box
    is one step wide, so the cut at depth 40 keeps cells of depth 40 to 53."""
    ulp = 2.0 ** -53
    bodies = []
    for _ in range(rng.randrange(2, 8)):
        x = 0.5 + rng.randrange(-4, 5) * ulp
        y = 0.25 + rng.randrange(-4, 5) * ulp
        bodies += [Body(len(bodies) + k, 0, Vec2(x, y), Vec2(0.0, 0.0)) for k in range(2)]
    for k in rng.sample(range(39, 52), 3):  # lone bodies whose leaves lie between
        bodies.append(Body(len(bodies), 0, Vec2(0.5 - 2.0 ** -k, 0.25), Vec2(0.0, 0.0)))
    bodies.append(Body(len(bodies), 0, Vec2(0.9, 0.9), Vec2(0.0, 0.0)))
    return build_tree(bodies, UNIT_BOX, 1, 53), 40


def uniform_scene(rng):
    tree, _ = uniform_tree(rng.randrange(5, 150), seed=rng.randrange(10 ** 6),
                           capacity=rng.choice([1, 3, 10]))
    return tree, rng.randrange(1, 6)


class TestArrayDetectionMatchesTheReferences:
    """group_cells2 against the all-pairs oracle, and organizations_from against
    the per-member reference, field by field and bit for bit."""

    @pytest.mark.parametrize("scene", [uniform_scene, pile_scene, edge_scene, deep_scene])
    def test_tree_cuts_and_regroupings(self, scene):
        rng = random.Random(scene.__name__)
        depths = set()
        for _ in range(12):
            tree, depth = scene(rng)
            cut = CellSet.from_tree(tree, depth)
            depths |= {c.depth for c in cut.coords()}
            groups = group_cells2(cut, tree)
            assert as_partition(groups) == brute_force_groups(cut.coords())
            assert outcome(groups, tree) == reference_outcome(groups, tree)
            inner, empty, leaves = row_cells(tree)
            pool = list(cut.coords()) + rng.sample(empty, min(len(empty), 3))
            regrouped = random_groups(rng, pool)
            assert outcome(regrouped, tree) == reference_outcome(regrouped, tree)
            # A cell that is no leaf: an internal row, or one inside a leaf or an empty leaf.
            bad = inner + [k for c in leaves + empty if c.depth < 53 for k in child_coords(c)]
            if bad:
                regrouped[rng.randrange(len(regrouped))].append(rng.choice(bad))
                got = outcome(regrouped, tree)
                assert isinstance(got, str) and got == reference_outcome(regrouped, tree)
        if scene is deep_scene:
            assert min(depths) <= 42 and max(depths) == 53

    def test_nested_and_deep_pools(self):
        rng = random.Random(53)
        tree, _ = uniform_tree(40, seed=4, capacity=2)
        for _ in range(150):
            # Shallow cells anywhere; deep ones around one point, so they touch.
            # Past depth 62 the coordinates leave int64.
            ax, ay = rng.randrange(1 << 64), rng.randrange(1 << 64)
            pool = []
            for _ in range(rng.randrange(1, 20)):
                d = rng.choice([0, 1, 2, 3, 4, 5, 40, 47, 53, 64])
                if d <= 5:
                    pool.append(CellCoord(d, rng.randrange(1 << d), rng.randrange(1 << d)))
                else:
                    ix, iy = ((a >> (64 - d)) + rng.randrange(-1, 2) for a in (ax, ay))
                    pool.append(CellCoord(d, min(max(ix, 0), (1 << d) - 1),
                                          min(max(iy, 0), (1 << d) - 1)))
            assert as_partition(group_cells(pool)) == brute_force_groups(pool)
            groups = random_groups(rng, pool)
            assert outcome(groups, tree) == reference_outcome(groups, tree)

    def test_centroids_of_members_near_the_float_limit(self):
        # Five members near +-1.6e308: each coordinate sum overflows, the mean
        # does not, and it keeps the reference's bits.
        for sign in (1.0, -1.0):
            corner = Vec2(sign * 1.7e308, sign * 1.7e308)
            box = AABB(Vec2(0.0, 0.0), corner) if sign > 0 else AABB(corner, Vec2(0.0, 0.0))
            rng = random.Random(7)
            bodies = [Body(i, 0, Vec2(sign * rng.uniform(1.59e308, 1.61e308),
                                      sign * rng.uniform(1.59e308, 1.61e308)), Vec2(0.0, 0.0))
                      for i in range(5)]
            bodies.append(Body(5, 0, Vec2(sign * 1e300, sign * 1e300), Vec2(0.0, 0.0)))
            tree = build_tree(bodies, box, 1)
            cut = CellSet.from_tree(tree, 1)
            for groups in (group_cells2(cut, tree), [cut.coords()]):
                want = org_fields(organizations_reference(groups, tree))
                assert org_fields(organizations_from(groups, tree)) == want
            whole, = organizations_from([cut.coords()], tree)
            assert whole.members == tuple(range(6))
            with pytest.raises(OverflowError):
                math.fsum(b.position.x for b in bodies)
            for c, lo, hi in ((whole.centroid.x, whole.bounding_box.lo.x, whole.bounding_box.hi.x),
                              (whole.centroid.y, whole.bounding_box.lo.y, whole.bounding_box.hi.y)):
                assert math.isfinite(c) and lo <= c <= hi


def test_no_cell_of_a_tree_without_bodies_is_a_leaf():
    tree = build_tree([], UNIT_BOX, 1)
    for groups in ([[CellCoord(0, 0, 0)]], [[CellCoord(1, 0, 0)]]):
        with pytest.raises(ValueError, match="is not a leaf of the tree"):
            organizations_from(groups, tree)
        assert outcome(groups, tree) == reference_outcome(groups, tree)
    assert organizations_from([[]], tree) == []
    assert group_cells2(CellSet.from_tree(tree, 0), tree) == []
