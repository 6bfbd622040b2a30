"""oracles.leaf_at: every leaf and empty child is found, any other coordinate is not."""

import pytest

from conftest import UNIT_BOX, uniform_bodies
from oracles import leaf_at
from orgtree.geometry import CellCoord, child_coords
from orgtree.ntree import build_tree


@pytest.mark.parametrize("n, capacity, max_depth", [
    (0, 1, 24), (1, 1, 24), (40, 1, 24), (120, 2, 24), (150, 3, 24), (200, 4, 2), (60, 10, 0)])
def test_leaf_at_finds_exactly_the_leaves(n, capacity, max_depth):
    tree = build_tree(uniform_bodies(n, seed=n + capacity), UNIT_BOX, capacity, max_depth)
    leaves = tree.leaves()
    if n == 120:
        assert sum(leaf.count == 0 for leaf in leaves) > 0
    deepest = max(leaf.coord.depth for leaf in leaves)
    others = set()
    for leaf in leaves:  # every leaf, empty children included
        assert leaf_at(tree, leaf.coord) == leaf
        others.update(child_coords(leaf.coord))  # below a leaf: absent
    others.update(CellCoord(d, 0, 0) for d in range(deepest + 3))  # internal, or deeper
    others.update(CellCoord(d, (1 << d) - 1, 0) for d in range(deepest + 3))
    for coord in others - {leaf.coord for leaf in leaves}:
        assert leaf_at(tree, coord) is None
