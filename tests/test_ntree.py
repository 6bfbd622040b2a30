import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from orgtree import ntree
from orgtree.geometry import AABB, CellCoord, Vec2, cell_box
from orgtree.ntree import Bodies, Body, NTree, as_bodies, build_tree, radius_hits
from conftest import BOX_100, UNIT_BOX, uniform_bodies, uniform_tree
from oracles import (aggregates, build_reference, collect_bodies, dump_leaves,
                     flatten_reference, linear_radius, query_radius_walk,
                     leaf_at, rational_aggregates)


def b(i, x, y, charge=1.0, species=0):
    return Body(i, species, Vec2(float(x), float(y)), Vec2(0.0, 0.0), charge)


# lo + (hi - lo) != hi on both axes: the last cells' upper edges, computed as
# lo + 2**depth * (hi - lo) / 2**depth, would round off the root's hi.
ODD_BOX = AABB(Vec2(-8.3, -0.7), Vec2(24.1, 0.1))


def scene(seed: int, n: int, box: AABB) -> list[Body]:
    """Bodies anywhere, on split lines, on the upper edges and in one pile.

    Charges are +-1, +-0.5 and 2.5, so subtrees often cancel exactly.
    """
    rng = random.Random(seed)
    pile = (box.lo.x + rng.random() * box.width, box.lo.y + rng.random() * box.height)
    bodies = []
    for i in range(n):
        x = box.lo.x + rng.random() * box.width
        y = box.lo.y + rng.random() * box.height
        kind = rng.randrange(4)
        if kind == 1:  # on the split lines of a cell at depth 1 .. 6
            split = cell_box(box, CellCoord(rng.randint(1, 6), 1, 1)).lo
            x, y = rng.choice([(split.x, y), (x, split.y), (split.x, split.y)])
        elif kind == 2:
            x, y = rng.choice([(box.hi.x, y), (x, box.hi.y), (box.hi.x, box.hi.y)])
        elif kind == 3:
            x, y = pile
        bodies.append(Body(i * 7 + rng.randrange(7), 0, Vec2(x, y), Vec2(0.0, 0.0),
                           rng.choice([1.0, -1.0, 0.5, -0.5, 2.5])))
    rng.shuffle(bodies)
    return bodies


def same_floats(a, b) -> bool:
    """Bit for bit, with NaN compared as NaN."""
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def hexes(v: Vec2 | None):
    return None if v is None else (v.x.hex(), v.y.hex())


def assert_same_node(got, want):
    """The view node equals the reference node field by field, floats bit for bit."""
    assert got.coord == want.coord
    assert got.bodies == want.bodies
    (count, charge, com), (k, q, c) = aggregates(got), aggregates(want)
    assert (count, charge.hex(), hexes(com)) == (k, q.hex(), hexes(c))
    floats = ("lo_x", "lo_y", "hi_x", "hi_y")
    assert [getattr(got, k).hex() for k in floats] == [getattr(want, k).hex() for k in floats]
    assert (got.box.lo, got.box.hi) == (want.box.lo, want.box.hi)
    assert (got.children is None) == (want.children is None)
    for g, w in zip(got.children or (), want.children or ()):
        assert_same_node(g, w)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([0, 1, 2, 9, 60, 250]),
       st.sampled_from([1, 3, 10]), st.sampled_from([0, 1, 24, 53]),
       st.sampled_from([UNIT_BOX, BOX_100, ODD_BOX]))
def test_build_equals_the_recursive_reference(seed, n, capacity, max_depth, box):
    bodies = scene(seed, n, box)
    tree = build_tree(bodies, box, capacity, max_depth)
    root = build_reference(bodies, box, capacity, max_depth)
    want = flatten_reference(root, bodies)
    for key in ("box", "cx", "cy", "charge"):
        assert same_floats(getattr(tree, key), want[key]), key
    for key in ("first", "count", "coords", "id"):
        assert np.array_equal(getattr(tree, key), want[key]), key
    assert [tree.bodies[i] for i in tree.order.tolist()] == want["bodies"]
    assert_same_node(tree.root, root)


def test_a_level_of_more_than_2_16_keys_equals_the_recursive_reference():
    # Two bodies in each of 129 x 128 unit cells (depth 8 of a 256-wide box)
    # at capacity 1: the depth-8 level splits 16,512 cells, so its partition
    # keys run past 16 bits.
    box = AABB(Vec2(0.0, 0.0), Vec2(256.0, 256.0))
    spots = [(ix + f, iy + f) for ix in range(129) for iy in range(128) for f in (0.25, 0.75)]
    random.Random(8).shuffle(spots)
    bodies = [b(i, x, y, (1.0, -0.5, 2.5)[i % 3]) for i, (x, y) in enumerate(spots)]
    tree = build_tree(bodies, box, 1)
    n = len(tree.first) - 1
    assert 4 * np.count_nonzero((tree.first[:n] < n) & (tree.coords[0] == 8)) > 1 << 16
    want = flatten_reference(build_reference(bodies, box, 1, 24), bodies)
    for key in ("box", "cx", "cy", "charge"):
        assert same_floats(getattr(tree, key), want[key]), key
    for key in ("first", "count", "coords", "id"):
        assert np.array_equal(getattr(tree, key), want[key]), key
    assert [tree.bodies[i] for i in tree.order.tolist()] == want["bodies"]


def test_a_pile_at_max_depth_sums_like_the_recursive_reference():
    # 3,000 coincident bodies with signed charges fill one leaf at max_depth,
    # beside 300 spread ones: the leaf sums run over the whole pile in order.
    rng = random.Random(4)
    bodies = [b(i, 37.3, 61.9, rng.uniform(-1.0, 1.0)) for i in range(3000)]
    bodies += [b(3000 + i, rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0),
                 rng.choice([1.0, -1.0, 0.5, 2.5])) for i in range(300)]
    rng.shuffle(bodies)
    tree = build_tree(bodies, BOX_100, 3, 4)
    want = flatten_reference(build_reference(bodies, BOX_100, 3, 4), bodies)
    pile = int(np.argmax(tree.count[:len(tree.first) - 1]))
    assert tree.count[pile] >= 3000 and tree.coords[0, pile] == 4
    for key in ("cx", "cy", "charge"):
        assert same_floats(getattr(tree, key), want[key]), key


def test_every_row_is_its_cell_box_and_last_edges_are_the_roots():
    tree = build_tree(scene(5, 40, ODD_BOX), ODD_BOX, 1)
    assert ODD_BOX.lo.x + ODD_BOX.width != ODD_BOX.hi.x
    assert ODD_BOX.lo.y + ODD_BOX.height != ODD_BOX.hi.y
    last = []
    for (depth, ix, iy), row in zip(tree.coords.T.tolist(), tree.box[:4].T.tolist()):
        c = cell_box(ODD_BOX, CellCoord(depth, ix, iy))
        assert row == [c.lo.x, c.lo.y, c.hi.x, c.hi.y]
        if ix == (1 << depth) - 1:
            last.append(depth)
            assert c.hi.x == ODD_BOX.hi.x
        if iy == (1 << depth) - 1:
            last.append(depth)
            assert c.hi.y == ODD_BOX.hi.y
    assert cell_box(ODD_BOX, CellCoord(0, 0, 0)) == ODD_BOX
    assert max(last) >= 2


def test_a_root_box_of_infinite_width_keeps_its_edges():
    # lo + 0 * w is NaN for w = inf: edges on the border are the root's own.
    box = AABB(Vec2(-1e308, -1e308), Vec2(1e308, 1e308))
    tree = build_tree([b(i, i, 0) for i in range(3)], box, 4)
    assert cell_box(box, CellCoord(0, 0, 0)) == box
    assert tree.box[:4, 0].tolist() == [-1e308, -1e308, 1e308, 1e308]
    assert tree.query_radius(Vec2(0.0, 0.0), 5.0) == [0, 1, 2]


def test_a_body_on_the_upper_edge_of_an_odd_box_is_found_at_radius_0():
    box = AABB(Vec2(0.2, -0.3), Vec2(0.9, 0.4))  # cells' upper edges rounded to 0.8999999999999999
    spots = [(0.9, 0.1), (0.56, 0.39), (0.25, -0.25), (0.3, -0.2), (0.21, -0.29)]
    for capacity in (1, 3):
        tree = build_tree([b(i, x, y) for i, (x, y) in enumerate(spots)], box, capacity)
        for radius in (0.0, 1e-17):
            assert tree.query_radius(Vec2(0.9, 0.1), radius) == [0]


def test_every_tree_field_is_set_by_the_build():
    # No field is filled in later, so a built tree never changes.
    assert all(f.init for f in dataclasses.fields(NTree))
    tree, _ = uniform_tree(50, seed=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.capacity = 2


class TestBuildValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate body id"):
            build_tree([b(1, 10, 10), b(1, 20, 20)], BOX_100, 4)

    def test_body_outside_box_rejected(self):
        with pytest.raises(ValueError, match="outside the root box"):
            build_tree([b(0, 100.5, 10)], BOX_100, 4)

    def test_max_depth_above_53_rejected(self):
        with pytest.raises(ValueError, match="max_depth must be at most 53, got 54"):
            build_tree([b(0, 10, 10)], BOX_100, 4, max_depth=54)

    def test_capacity_zero_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            build_tree([b(0, 10, 10)], BOX_100, 0)

    def test_empty_scene_is_single_empty_leaf(self):
        tree = build_tree([], BOX_100, 4)
        assert tree.root.is_leaf
        assert tree.root.count == 0
        assert tree.root.center_of_charge is None
        assert tree.query_radius(Vec2(50.0, 50.0), 1000.0) == []

    def test_body_on_upper_boundary_is_kept(self):
        tree = build_tree([b(0, 100, 100)], BOX_100, 1)
        assert tree.root.count == 1


class TestSplitting:
    def test_exactly_capacity_stays_leaf(self):
        tree = build_tree([b(0, 10, 10), b(1, 20, 15), b(2, 15, 80)], BOX_100, 3)
        assert tree.root.is_leaf
        assert dump_leaves(tree) == "0 0 0 3"

    def test_capacity_plus_one_splits_into_four(self):
        tree = build_tree([b(0, 10, 10), b(1, 20, 15), b(2, 15, 80), b(3, 80, 85)],
                          BOX_100, 3)
        assert not tree.root.is_leaf
        assert len(tree.root.children) == 4
        assert dump_leaves(tree) == "\n".join(
            ["1 0 0 2", "1 0 1 1", "1 1 0 0", "1 1 1 1"])

    def test_empty_children_are_materialized_leaves(self):
        tree = build_tree([b(0, 10, 10), b(1, 60, 70)], BOX_100, 1)
        empty = [c for c in tree.root.children if c.count == 0]
        assert len(empty) == 2
        assert all(c.is_leaf for c in empty)

    def test_child_order_matches_coords(self):
        tree = build_tree([b(i, 10 + i, 10) for i in range(5)], BOX_100, 1)
        kids = tree.root.children
        assert [ (k.coord.ix, k.coord.iy) for k in kids ] == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_body_on_split_line_goes_to_upper_child(self):
        tree = build_tree([b(0, 50, 50), b(1, 10, 10)], BOX_100, 1)
        kids = tree.root.children
        assert [k.count for k in kids] == [1, 0, 0, 1]
        assert kids[3].bodies[0].id == 0

    def test_body_on_vertical_split_only(self):
        tree = build_tree([b(0, 50, 10), b(1, 10, 10)], BOX_100, 1)
        kids = tree.root.children
        # x on the line goes right, y below the line stays down.
        assert kids[1].count == 1
        assert kids[1].bodies[0].id == 0


class TestMaxDepth:
    def test_coincident_bodies_stop_at_max_depth(self):
        tree = build_tree([b(0, 0.3, 0.3), b(1, 0.3, 0.3)], UNIT_BOX, 1, max_depth=24)
        leaves = [n for n in tree.leaves() if n.count > 0]
        assert len(leaves) == 1
        assert leaves[0].coord.depth == 24
        assert leaves[0].count == 2

    def test_near_coincident_split_when_separable(self):
        # 2^-20 apart separates well before the depth cap in a unit box.
        tree = build_tree([b(0, 0.25, 0.25), b(1, 0.25 + 2.0 ** -20, 0.25)],
                          UNIT_BOX, 1, max_depth=24)
        occupied = [n for n in tree.leaves() if n.count > 0]
        assert len(occupied) == 2
        assert all(n.count == 1 for n in occupied)

    def test_max_depth_zero_keeps_everything_in_root(self):
        bodies = uniform_bodies(50, seed=5)
        tree = build_tree(bodies, UNIT_BOX, 4, max_depth=0)
        assert tree.root.is_leaf
        assert tree.root.count == 50


class TestAggregates:
    def test_root_aggregates_match_exact_arithmetic(self):
        rng = random.Random(77)
        bodies = [b(i, rng.uniform(0, 100), rng.uniform(0, 100),
                    charge=rng.uniform(0.5, 2.0)) for i in range(200)]
        tree = build_tree(bodies, BOX_100, 5)
        count, q, com = rational_aggregates(bodies)
        assert tree.root.count == count
        assert tree.root.total_charge == pytest.approx(float(q), rel=1e-12)
        assert tree.root.center_of_charge.x == pytest.approx(float(com[0]), rel=1e-12)
        assert tree.root.center_of_charge.y == pytest.approx(float(com[1]), rel=1e-12)

    def test_every_node_consistent_with_its_subtree(self):
        tree, _ = uniform_tree(300, seed=8, capacity=4)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            under = collect_bodies(node)
            count, q, com = rational_aggregates(under)
            assert node.count == count
            assert node.total_charge == pytest.approx(float(q), rel=1e-10, abs=1e-12)
            if node.children is not None:
                stack.extend(node.children)

    def test_cancelling_charges_leave_com_undefined(self):
        tree = build_tree([b(0, 10, 10, charge=1.0), b(1, 20, 20, charge=-1.0)],
                          BOX_100, 4)
        assert tree.root.total_charge == 0.0
        assert tree.root.center_of_charge is None

    def test_parent_com_exact_over_cancelling_child(self):
        # Child (0,0) holds +1 and -1; the parent's centroid still reflects
        # the raw sums over all three bodies, not a propagated child centroid.
        bodies = [b(0, 10, 10, charge=1.0), b(1, 20, 20, charge=-1.0),
                  b(2, 80, 80, charge=1.0)]
        tree = build_tree(bodies, BOX_100, 2)
        _, q, com = rational_aggregates(bodies)
        assert tree.root.total_charge == float(q)
        assert tree.root.center_of_charge.x == pytest.approx(float(com[0]), rel=1e-12)
        assert tree.root.center_of_charge.y == pytest.approx(float(com[1]), rel=1e-12)
        sub = tree.root.children[0]
        assert sub.total_charge == 0.0
        assert sub.center_of_charge is None


class TestLeafCells:
    def test_leaf_cells_match_traversal(self):
        tree, _ = uniform_tree(150, seed=3, capacity=3)
        cells = tree.leaf_cells()
        expected = {n.coord: tuple(x.id for x in n.bodies)
                    for n in tree.leaves() if n.count > 0}
        assert cells == expected
        rows = tree.rows_by_cell()
        assert len(rows) == len(tree.first) - 1
        assert all(rows[c] == k for k, c in enumerate(tree.cell_coords(np.arange(len(rows)))))

    def test_min_depth_cut_is_inclusive(self):
        tree, _ = uniform_tree(150, seed=3, capacity=3)
        all_cells = tree.leaf_cells()
        deep = tree.leaf_cells(min_depth=3)
        assert set(deep) == {c for c in all_cells if c.depth >= 3}

    def test_negative_cut_rejected(self):
        tree, _ = uniform_tree(10, seed=1)
        with pytest.raises(ValueError):
            tree.leaf_cells(-1)

    def test_leaf_boxes_contain_their_bodies(self):
        tree, _ = uniform_tree(200, seed=9, capacity=2, box=BOX_100)
        for node in tree.leaves():
            for body in node.bodies:
                assert node.box.contains(body.position)

    def test_partition_covers_all_ids_once(self):
        tree, bodies = uniform_tree(250, seed=11, capacity=3)
        seen = [i for ids in tree.leaf_cells().values() for i in ids]
        assert sorted(seen) == [x.id for x in bodies]


class TestLeafAt:
    def test_finds_every_leaf(self):
        tree, _ = uniform_tree(120, seed=21, capacity=2)
        for coord, ids in tree.leaf_cells().items():
            node = leaf_at(tree, coord)
            assert node is not None
            assert node.coord == coord
            assert tuple(x.id for x in node.bodies) == ids

    def test_internal_or_missing_coord_gives_none(self):
        tree, _ = uniform_tree(120, seed=21, capacity=2)
        assert leaf_at(tree, CellCoord(0, 0, 0)) is None  # root split at n=120
        assert leaf_at(tree, CellCoord(20, 0, 0)) is None


class TestQueryRadius:
    def test_matches_linear_scan(self):
        rng = random.Random(40)
        for trial in range(25):
            tree, bodies = uniform_tree(rng.randrange(1, 300), seed=trial,
                                        capacity=rng.choice([1, 3, 10]))
            center = Vec2(rng.random(), rng.random())
            radius = rng.random() * 0.5
            got = set(tree.query_radius(center, radius))
            assert got == linear_radius(bodies, center, radius)

    def test_boundary_distance_included(self):
        bodies = [b(0, 3, 4), b(1, 9, 9)]
        tree = build_tree(bodies, BOX_100, 4)
        assert set(tree.query_radius(Vec2(0.0, 0.0), 5.0)) == {0}

    def test_zero_radius_hits_exact_position(self):
        bodies = [b(0, 3, 4), b(1, 9, 9)]
        tree = build_tree(bodies, BOX_100, 1)
        assert tree.query_radius(Vec2(3.0, 4.0), 0.0) == [0]

    def test_negative_radius_rejected(self):
        tree, _ = uniform_tree(10, seed=1)
        with pytest.raises(ValueError):
            tree.query_radius(Vec2(0.5, 0.5), -1.0)

    def test_bodies_variant_returns_same_set(self):
        tree, bodies = uniform_tree(80, seed=13, capacity=3)
        center = Vec2(0.4, 0.6)
        ids = set(tree.query_radius(center, 0.3))
        via_bodies = {x.id for x in tree.query_radius_bodies(center, 0.3)}
        assert ids == via_bodies

    def test_queries_index_one_set_of_body_objects_per_tree(self):
        # The Body objects are made once, on the first query, and every later
        # query, the root view and iteration return the same objects.
        tree, bodies = uniform_tree(120, seed=14, capacity=3)
        hits = [tree.query_radius_bodies(Vec2(x / 4, 0.5), 0.2) for x in range(5)]
        made = tree.bodies.objects
        assert made == tuple(bodies) and tuple(tree.bodies) == made
        position = {id(o): k for k, o in enumerate(made)}
        for x, got in enumerate(hits):
            assert [b.id for b in got] == tree.query_radius(Vec2(x / 4, 0.5), 0.2)
            assert all(tree.bodies[position[id(b)]] is b for b in got)
        assert tree.bodies.objects is made
        assert all(id(b) in position for leaf in tree.leaves() for b in leaf.bodies)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([1, 3, 10]),
       st.sampled_from([(1, 1), (3, 5), (64, 64), (8192, 4096)]))
def test_radius_hits_equal_query_radius_bodies_in_order(seed, capacity, sizes):
    rng = random.Random(seed)
    tree, bodies = uniform_tree(rng.randrange(1, 200), seed=seed, capacity=capacity)
    # Centers on bodies, anywhere, and off the box.
    centers = [rng.choice(bodies).position for _ in range(20)]
    centers += [Vec2(rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5)) for _ in range(20)]
    radii = [rng.choice([0.0, 0.01, 0.1, 0.3, 2.0]) for _ in centers]
    x, y, r = (np.array(v) for v in ([c.x for c in centers], [c.y for c in centers], radii))
    got = [[] for _ in centers]
    ends = [0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ntree, "_BLOCK_PAIRS", sizes[0])
        mp.setattr(ntree, "_CHUNK_TERMS", sizes[1])
        for a, b_, t, body, d2 in radius_hits(tree, x, y, r):
            assert a == ends[-1] and all(a <= k < b_ for k in t.tolist())
            ends.append(b_)
            for k, i, d in zip(t.tolist(), body.tolist(), d2.tolist()):
                p = tree.bodies[tree.order[i]].position
                dx, dy = p.x - x[k], p.y - y[k]
                assert d == dx * dx + dy * dy
                got[k].append(tree.bodies[tree.order[i]].id)
    assert ends[-1] == len(centers)
    walked = [query_radius_walk(tree, c, rad) for c, rad in zip(centers, radii)]
    assert got == [[x.id for x in hits] for hits in walked]
    assert [tree.query_radius_bodies(c, rad) for c, rad in zip(centers, radii)] == walked


@pytest.mark.parametrize("n", [0, 1, 40, 300])
def test_query_radius_bodies_equal_the_scalar_walk_at_the_edges(n):
    # The empty tree, radius 0 on bodies and on split lines, centres off the
    # box, and radii that cover the box.
    tree, bodies = uniform_tree(n, seed=n, capacity=3)
    centers = [x.position for x in bodies[:10]]
    centers += [Vec2(0.5, 0.5), Vec2(0.25, 0.75), Vec2(-0.5, 0.5), Vec2(1.5, -2.0),
                Vec2(1e300, 0.5), Vec2(0.5, -1e300)]
    for c in centers:
        for radius in (0.0, 1e-9, 0.125, 0.5, 2.0, 1e300, math.inf):
            got = tree.query_radius_bodies(c, radius)
            assert got == query_radius_walk(tree, c, radius)
            assert tree.query_radius(c, radius) == [x.id for x in got]


class TestDeterminism:
    def test_structure_independent_of_input_order(self):
        bodies = uniform_bodies(180, seed=31)
        tree_a = build_tree(bodies, UNIT_BOX, 3)
        shuffled = list(bodies)
        random.Random(99).shuffle(shuffled)
        tree_b = build_tree(shuffled, UNIT_BOX, 3)
        assert dump_leaves(tree_a) == dump_leaves(tree_b)
        cells_a = {c: frozenset(ids) for c, ids in tree_a.leaf_cells().items()}
        cells_b = {c: frozenset(ids) for c, ids in tree_b.leaf_cells().items()}
        assert cells_a == cells_b

    def test_dump_format(self):
        tree = build_tree([b(0, 10, 10), b(1, 60, 70)], BOX_100, 1)
        lines = dump_leaves(tree).splitlines()
        assert lines == sorted(lines, key=lambda s: [int(t) for t in s.split()])
        for line in lines:
            parts = line.split()
            assert len(parts) == 4
            depth, ix, iy, count = map(int, parts)
            assert 0 <= ix < 2 ** depth and 0 <= iy < 2 ** depth

    @given(st.integers(0, 2 ** 30), st.integers(1, 60))
    @settings(max_examples=20, deadline=None)
    def test_rebuild_is_identical(self, seed, n):
        bodies = uniform_bodies(n, seed=seed)
        t1 = build_tree(bodies, UNIT_BOX, 3)
        t2 = build_tree(bodies, UNIT_BOX, 3)
        assert dump_leaves(t1) == dump_leaves(t2)


class TestLeafBoxGeometry:
    def test_leaf_boxes_come_from_their_coords(self):
        tree, _ = uniform_tree(100, seed=17, capacity=2, box=BOX_100)
        for node in tree.leaves():
            box = cell_box(BOX_100, node.coord)
            assert node.box.lo == box.lo
            assert node.box.hi == box.hi
            assert (node.lo_x, node.lo_y, node.hi_x, node.hi_y) == (
                box.lo.x, box.lo.y, box.hi.x, box.hi.y)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 5)), max_size=12))
@example([])  # no spans
@example([(4, 0), (-2, 0)])  # every span empty
def test_spans_expand_span_by_span_as_a_loop_does(spans):
    """ntree._spans against a Python loop over the spans: empty spans, all
    spans empty and no spans at all, each owner carried to its indices."""
    start = np.array([s for s, _ in spans], dtype=np.int64)
    size = np.array([k for _, k in spans], dtype=np.int64)
    owner = np.arange(len(spans)) * 7 + 3
    got_owner, got = ntree._spans(owner, start, size)
    want = [(o, i) for o, (s, k) in zip(owner.tolist(), spans) for i in range(s, s + k)]
    assert list(zip(got_owner.tolist(), got.tolist())) == want


class TestBodies:
    @staticmethod
    def columns(n, seed):
        rng = random.Random(seed)
        return [list(range(3, 3 + n)), [rng.randrange(3) for _ in range(n)],
                *([rng.uniform(-5.0, 5.0) for _ in range(n)] for _ in range(4)),
                [rng.choice([1.0, -2.5, 0.0]) for _ in range(n)]]

    @staticmethod
    def one_by_one(cols):
        return [Body(i, s, Vec2(x, y), Vec2(u, v), q) for i, s, x, y, u, v, q in zip(*cols)]

    def test_bodies_equal_hash_and_freeze_like_the_constructor(self):
        cols = self.columns(50, seed=1)
        want = self.one_by_one(cols)
        for given in (cols, [np.array(c) for c in cols]):
            view = Bodies(*given)
            made = list(view)
            assert made == want
            assert [hash(b) for b in made] == [hash(b) for b in want]
            assert all(type(b) is Body and type(b.position) is Vec2 and type(b.velocity) is Vec2
                       and type(b.id) is int and type(b.position.x) is float for b in made)
            assert [view[k] for k in (0, 7, 49, -1, -50)] == [want[k] for k in (0, 7, 49, -1, -50)]
            assert list(view[3:9]) == want[3:9] and list(view[np.array([4, 2])]) == want[4:1:-2]
            assert list(as_bodies(want)) == want and as_bodies(view) is view and len(view) == 50
        with pytest.raises(IndexError):
            view[50]
        with pytest.raises(dataclasses.FrozenInstanceError):
            made[0].id = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            made[0].position.x = 1.0
        with pytest.raises(AttributeError):
            view.x = view.y
        with pytest.raises(ValueError):
            view.x[0] = 1.0
        assert list(Bodies([], [], [], [], [], [], [])) == [] == list(as_bodies([]))

    @pytest.mark.parametrize("column, value", [
        (0, -1), (1, -2), (2, math.nan), (3, math.inf), (4, -math.inf), (5, math.nan),
        (6, math.inf)])
    def test_a_bad_column_raises_the_same_error_for_the_first_bad_body(self, column, value):
        cols = self.columns(20, seed=2)
        cols[column][7] = value
        # A later body that fails every check does not come first.
        cols[0][12], cols[1][12], cols[2][12] = -5, -5, math.nan
        # Body objects pass as_bodies to the same constructor as the columns,
        # so got and want share one check: the pinned message is what tests it.
        with pytest.raises(ValueError) as want:
            as_bodies(self.one_by_one(cols))
        with pytest.raises(ValueError) as got:
            Bodies(*cols)
        assert str(got.value) == str(want.value)
        assert str(got.value) == {0: "negative body id: -1", 1: "negative species index: -2"}.get(
            column, "body 10 has a non-finite component")

    def test_an_id_from_2_to_the_63_overflows_and_a_huge_negative_one_is_negative(self):
        cols = self.columns(3, seed=3)
        for ids in ([0, 1, 2 ** 63], np.array([0, 1, 2 ** 63], dtype=np.uint64), [0, 2 ** 70, 1]):
            with pytest.raises(OverflowError):
                Bodies(ids, *cols[1:])
        with pytest.raises(ValueError, match=r"^negative body id: -1180591620717411303424$"):
            Bodies([0, -2 ** 70, 2 ** 70], *cols[1:])
