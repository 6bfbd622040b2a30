import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orgtree.geometry import AABB, CellCoord, Vec2, cell_box, cells_touch, child_coords
from oracles import (bisect_cell_box, boxes_overlap_or_touch, cells_adjacent,
                     rational_cells_touch)


def coords(max_depth=8):
    return st.integers(0, max_depth).flatmap(
        lambda d: st.tuples(st.just(d),
                            st.integers(0, 2 ** d - 1),
                            st.integers(0, 2 ** d - 1))
    ).map(lambda t: CellCoord(*t))


class TestVec2:
    def test_finiteness(self):
        assert Vec2(0.0, 1.0).is_finite()
        assert not Vec2(float("nan"), 0.0).is_finite()
        assert not Vec2(0.0, float("inf")).is_finite()


class TestAABB:
    def test_contains_is_closed(self):
        box = AABB(Vec2(0.0, 0.0), Vec2(1.0, 2.0))
        assert box.contains(Vec2(0.0, 0.0))
        assert box.contains(Vec2(1.0, 2.0))
        assert box.contains(Vec2(1.0, 0.5))
        assert not box.contains(Vec2(1.0000001, 0.5))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            AABB(Vec2(1.0, 0.0), Vec2(0.0, 1.0))

    def test_overlap_touching_edges_count(self):
        a = AABB(Vec2(0.0, 0.0), Vec2(1.0, 1.0))
        b = AABB(Vec2(1.0, 0.0), Vec2(2.0, 1.0))
        c = AABB(Vec2(1.5, 1.5), Vec2(2.0, 2.0))
        assert boxes_overlap_or_touch(a, b)
        assert not boxes_overlap_or_touch(a, c)


class TestCellCoord:
    def test_validation(self):
        with pytest.raises(ValueError, match="^negative depth: -1$"):
            CellCoord(-1, 0, 0)
        with pytest.raises(ValueError, match=r"^cell index out of range at depth 2: \(4, 0\)$"):
            CellCoord(depth=2, ix=4, iy=0)
        with pytest.raises(ValueError):
            CellCoord(2, 0, -1)

    def test_lexicographic_order(self):
        assert CellCoord(1, 1, 1) < CellCoord(2, 0, 0)
        assert CellCoord(2, 0, 3) < CellCoord(2, 1, 0)

    def test_is_the_plain_triple(self):
        c = CellCoord(3, 5, 1)
        assert (c.depth, c.ix, c.iy) == tuple(c) == (3, 5, 1)
        assert c == (3, 5, 1) and hash(c) == hash((3, 5, 1))
        assert {(3, 5, 1): "row"}[c] == "row"
        assert repr(c) == "CellCoord(depth=3, ix=5, iy=1)"
        assert sorted([(3, 5, 2), c, (2, 0, 0)]) == [(2, 0, 0), c, (3, 5, 2)]
        with pytest.raises(AttributeError):
            c.depth = 4

    def test_child_order_is_fixed(self):
        kids = child_coords(CellCoord(0, 0, 0))
        assert kids == (CellCoord(1, 0, 0), CellCoord(1, 1, 0),
                        CellCoord(1, 0, 1), CellCoord(1, 1, 1))

    def test_child_of_offset_cell(self):
        kids = child_coords(CellCoord(1, 1, 0))
        assert kids == (CellCoord(2, 2, 0), CellCoord(2, 3, 0),
                        CellCoord(2, 2, 1), CellCoord(2, 3, 1))


class TestCellBox:
    def test_box_100_example(self):
        root = AABB(Vec2(0.0, 0.0), Vec2(100.0, 100.0))
        box = cell_box(root, CellCoord(2, 1, 3))
        assert box.lo == Vec2(25.0, 75.0)
        assert box.hi == Vec2(50.0, 100.0)

    def test_children_tile_parent_exactly(self):
        # Shared edges must be bitwise equal even for awkward roots, because
        # the closed formula evaluates the same product for both siblings.
        root = AABB(Vec2(0.1, 0.2), Vec2(97.3, 55.7))
        for parent in (CellCoord(0, 0, 0), CellCoord(3, 5, 1), CellCoord(7, 100, 13)):
            pbox = cell_box(root, parent)
            k0, k1, k2, k3 = (cell_box(root, c) for c in child_coords(parent))
            assert k0.lo == pbox.lo
            assert k3.hi == pbox.hi
            assert k0.hi.x == k1.lo.x
            assert k0.hi.y == k2.lo.y
            assert k1.hi.y == k3.lo.y
            assert k2.hi.x == k3.lo.x

    @given(coords(max_depth=10))
    def test_matches_bisection_on_power_of_two_root(self, c):
        root = AABB(Vec2(0.0, 0.0), Vec2(64.0, 64.0))
        got = cell_box(root, c)
        want = bisect_cell_box(root, c)
        assert got.lo == want.lo
        assert got.hi == want.hi


class TestCellsTouch:
    def test_edge_and_corner_neighbors(self):
        assert cells_touch(CellCoord(2, 0, 0), CellCoord(2, 1, 0))
        assert cells_touch(CellCoord(2, 0, 0), CellCoord(2, 1, 1))
        assert not cells_touch(CellCoord(2, 0, 0), CellCoord(2, 2, 0))
        assert not cells_touch(CellCoord(2, 0, 0), CellCoord(2, 2, 2))

    def test_nested_cells_touch(self):
        assert cells_touch(CellCoord(1, 0, 0), CellCoord(3, 2, 3))
        assert cells_touch(CellCoord(0, 0, 0), CellCoord(5, 17, 30))

    def test_mixed_depth_contact(self):
        # A depth-1 cell spans [0, 4] at depth 3 scale; index 4 starts there.
        assert cells_touch(CellCoord(1, 0, 0), CellCoord(3, 4, 0))
        assert not cells_touch(CellCoord(1, 0, 0), CellCoord(3, 5, 0))

    @given(coords(), coords())
    def test_symmetric(self, a, b):
        assert cells_touch(a, b) == cells_touch(b, a)

    @given(coords(max_depth=6), coords(max_depth=6))
    @settings(max_examples=300)
    def test_matches_rational_oracle(self, a, b):
        assert cells_touch(a, b) == rational_cells_touch(a, b)

    def test_adjacent_rejects_self(self):
        c = CellCoord(2, 1, 1)
        with pytest.raises(ValueError):
            cells_adjacent(c, c)
        assert cells_adjacent(c, CellCoord(2, 2, 2))
        assert not cells_adjacent(c, CellCoord(2, 3, 3))
