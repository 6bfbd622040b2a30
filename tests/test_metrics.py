import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orgtree import metrics
from orgtree.detect import CellSet, group_cells2, organizations_from
from orgtree.geometry import Vec2
from orgtree.metrics import (TRANSFORM_GAUSSIAN, TRANSFORM_INVERSE, TRANSFORM_RAW, WeightedGraph,
                             interaction_graph, modularity,
                             organization_partition)
from orgtree.ntree import Body, build_tree
from conftest import BOX_100, UNIT_BOX, clustered_bodies, uniform_bodies
from oracles import (interaction_weights_reference, modularity_literal,
                     modularity_reference)


def graph_from(weights):
    w = np.asarray(weights, dtype=float)
    return WeightedGraph(n=w.shape[0], weights=w)


class TestInteractionGraph:
    def test_inverse_transform_values(self):
        bodies = [Body(0, 0, Vec2(0.0, 0.0), Vec2(0.0, 0.0), 1.0),
                  Body(1, 0, Vec2(3.0, 4.0), Vec2(0.0, 0.0), 1.0)]
        g = interaction_graph(bodies)
        assert g.n == 2
        assert g.weights[0, 1] == pytest.approx(1.0 / (5.0 + 1e-9), rel=1e-15)
        assert g.weights[1, 0] == g.weights[0, 1]
        assert g.weights[0, 0] == 0.0

    def test_gaussian_transform_values(self):
        bodies = [Body(0, 0, Vec2(0.0, 0.0), Vec2(0.0, 0.0), 1.0),
                  Body(1, 0, Vec2(2.0, 0.0), Vec2(0.0, 0.0), 1.0)]
        g = interaction_graph(bodies, TRANSFORM_GAUSSIAN, sigma=2.0)
        assert g.weights[0, 1] == pytest.approx(math.exp(-4.0 / 8.0), rel=1e-12)

    def test_raw_transform_is_distance(self):
        bodies = [Body(0, 0, Vec2(0.0, 0.0), Vec2(0.0, 0.0), 1.0),
                  Body(1, 0, Vec2(3.0, 4.0), Vec2(0.0, 0.0), 1.0)]
        g = interaction_graph(bodies, TRANSFORM_RAW)
        assert g.weights[0, 1] == 5.0

    def test_matrix_is_symmetric_with_zero_diagonal(self):
        bodies = uniform_bodies(40, seed=3, box=BOX_100)
        g = interaction_graph(bodies)
        assert np.allclose(g.weights, g.weights.T)
        assert np.all(np.diag(g.weights) == 0.0)

    def test_unknown_transform_rejected(self):
        bodies = uniform_bodies(3, seed=1)
        with pytest.raises(ValueError):
            interaction_graph(bodies, "sigmoid")


TRANSFORM_CASES = [("inverse", 1.0), ("gaussian", 0.5), ("gaussian", 2.0), ("raw", 1.0)]


class TestInteractionWeightsEqualTheReference:
    """The blocked weight fill equals the N x N x 2 tensor formula byte for byte."""

    @staticmethod
    def assert_same(bodies, transform, sigma):
        got = interaction_graph(bodies, transform, sigma=sigma).weights
        want = interaction_weights_reference(bodies, transform, sigma)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("transform, sigma", TRANSFORM_CASES)
    def test_two_bodies(self, transform, sigma):
        bodies = uniform_bodies(2, seed=4, box=BOX_100)
        self.assert_same(bodies, transform, sigma)

    @pytest.mark.parametrize("transform, sigma", TRANSFORM_CASES)
    def test_coincident_bodies(self, transform, sigma):
        bodies = uniform_bodies(30, seed=5, box=BOX_100)
        bodies.append(Body(30, 0, bodies[7].position, Vec2(0.0, 0.0), 1.0))
        self.assert_same(bodies, transform, sigma)
        if transform == "inverse":
            assert interaction_graph(bodies).weights[7, 30] == 1.0 / metrics.INVERSE_EPSILON

    @pytest.mark.parametrize("transform, sigma", TRANSFORM_CASES)
    def test_blob_scene_of_2400_bodies(self, transform, sigma):
        bodies = clustered_bodies([(30.0, 30.0), (70.0, 40.0), (45.0, 75.0)],
                                  800, 7.0, seed=12)
        self.assert_same(bodies, transform, sigma)

    @pytest.mark.parametrize("rows", [1, 3, 64, 1000])
    def test_block_size_does_not_change_the_bits(self, monkeypatch, rows):
        monkeypatch.setattr(metrics, "_BLOCK_ROWS", rows)
        bodies = uniform_bodies(130, seed=6, box=BOX_100)
        for transform, sigma in TRANSFORM_CASES:
            self.assert_same(bodies, transform, sigma)


class TestModularity:
    def test_everything_in_one_group_is_exactly_zero(self):
        g = graph_from([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        assert modularity(g, [[0, 1, 2]]) == 0.0

    def test_two_disjoint_pairs_score_half(self):
        g = graph_from([[0, 1, 0, 0],
                        [1, 0, 0, 0],
                        [0, 0, 0, 1],
                        [0, 0, 1, 0]])
        assert modularity(g, [[0, 1], [2, 3]]) == pytest.approx(0.5, abs=1e-12)

    def test_single_edge_split_into_singletons(self):
        g = graph_from([[0, 1], [1, 0]])
        assert modularity(g, [[0], [1]]) == pytest.approx(-0.5, abs=1e-12)

    def test_matches_literal_double_sum(self):
        rng = random.Random(19)
        for _ in range(10):
            n = rng.randrange(4, 12)
            w = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    w[i][j] = w[j][i] = rng.random()
            cut = rng.randrange(1, n)
            partition = [list(range(cut)), list(range(cut, n))]
            got = modularity(graph_from(w), partition)
            assert got == pytest.approx(modularity_literal(w, partition), abs=1e-12)

    def test_scale_invariance(self):
        rng = random.Random(23)
        n = 10
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                w[i, j] = w[j, i] = rng.random()
        partition = [list(range(5)), list(range(5, 10))]
        q1 = modularity(graph_from(w), partition)
        q2 = modularity(graph_from(w * 37.5), partition)
        assert q1 == pytest.approx(q2, abs=1e-12)

    def test_zero_weight_graph_rejected(self):
        g = graph_from([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            modularity(g, [[0], [1]])

    def test_partition_must_cover_every_node(self):
        g = graph_from([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            modularity(g, [[0]])

    def test_partition_must_not_overlap(self):
        g = graph_from([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            modularity(g, [[0, 1], [1]])

    @pytest.mark.parametrize("partition, message", [
        ([[0, 1], [1, 5]], "node 1 appears in more than one group"),
        ([[0, 5], [1, 1]], "node 5 out of range for graph of 3"),
        ([[2, -1], [2]], "node -1 out of range for graph of 3"),
        ([(i for i in (0, 2)), {2}], "node 2 appears in more than one group"),
        ([[0], [], [2]], "partition covers 2 of 3 nodes"),
    ])
    def test_the_first_bad_node_in_partition_order_is_named(self, partition, message):
        g = graph_from([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        with pytest.raises(ValueError, match=f"^{message}$"):
            modularity(g, partition)


def detected_partition(bodies, capacity, depth, seed=0):
    tree = build_tree(bodies, BOX_100, capacity)
    orgs = organizations_from(group_cells2(CellSet.from_tree(tree, depth), tree, seed=seed), tree)
    return organization_partition(orgs, len(bodies))


def shuffled_like(partition, seed):
    ids = [i for g in partition for i in g]
    random.Random(seed).shuffle(ids)
    out, at = [], 0
    for g in partition:
        out.append(ids[at:at + len(g)])
        at += len(g)
    return out


def both_graphs(bodies, transform="inverse", sigma=1.0):
    """The position-backed graph, and the reference weights as a dense graph."""
    dense = interaction_weights_reference(bodies, transform, sigma)
    return interaction_graph(bodies, transform, sigma=sigma), WeightedGraph(len(bodies), dense)


class TestBlockwiseModularity:
    """The row-block reduction against the dense-matrix reference."""

    @staticmethod
    def assert_matches_reference(bodies, partitions, transform="inverse", sigma=1.0):
        graphs = both_graphs(bodies, transform, sigma)
        for partition in partitions:
            want = modularity_reference(graphs[1].weights, partition)
            for graph in graphs:
                assert abs(modularity(graph, partition) - want) <= 1e-12
        assert "weights" not in vars(graphs[0])

    def test_acceptance_two_blob_scenes(self):
        for seed in range(20):
            bodies = clustered_bodies([(30.0, 30.0), (70.0, 70.0)], 25, 5.0, seed=100 + seed)
            detected = detected_partition(bodies, 3, 4, seed)
            self.assert_matches_reference(
                bodies, [detected, shuffled_like(detected, 900 + seed)])

    @pytest.mark.parametrize("transform, sigma", TRANSFORM_CASES)
    def test_three_blob_scene_of_2400_bodies(self, transform, sigma):
        bodies = clustered_bodies([(30.0, 30.0), (70.0, 40.0), (45.0, 75.0)], 800, 7.0, seed=12)
        detected = detected_partition(bodies, 10, 5)
        labels = random.Random(7).choices(range(6), k=len(bodies))
        random_groups = [[i for i, k in enumerate(labels) if k == g] for g in range(6)]
        blobs = [range(0, 800), range(800, 1600), range(1600, 2400)]
        assert len(detected) > 3
        self.assert_matches_reference(
            bodies, [detected, random_groups + [[]], blobs], transform, sigma)

    @pytest.mark.parametrize("transform, sigma", TRANSFORM_CASES)
    def test_all_covering_group_is_exactly_zero_off_the_block_grid(self, transform, sigma):
        bodies = uniform_bodies(131, seed=8, box=BOX_100)  # two full blocks and 3 rows
        for graph in both_graphs(bodies, transform, sigma):
            assert modularity(graph, [range(131)]) == 0.0
            assert modularity(graph, [[], list(reversed(range(131)))]) == 0.0

    def test_block_size_does_not_change_the_bits(self, monkeypatch):
        bodies = uniform_bodies(130, seed=6, box=BOX_100)
        detected = detected_partition(bodies, 2, 4)
        partitions = [detected, shuffled_like(detected, 3), [range(130)],
                      [[i] for i in range(130)]]
        cases = [(graph, p) for transform, sigma in TRANSFORM_CASES
                 for graph in both_graphs(bodies, transform, sigma) for p in partitions]
        want = [modularity(graph, p).hex() for graph, p in cases]
        for rows in (1, 3, 64, 1000):
            monkeypatch.setattr(metrics, "_BLOCK_ROWS", rows)
            assert [modularity(graph, p).hex() for graph, p in cases] == want

    def test_memory_stays_far_below_the_matrix(self):
        n = 2000
        bodies = uniform_bodies(n, seed=9, box=BOX_100)
        partition = [range(0, n, 2), range(1, n, 2)]
        tracemalloc.start()
        try:
            graph = interaction_graph(bodies)
            modularity(graph, partition)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4

    def test_memory_of_singletons_stays_far_below_the_matrix(self):
        n = 2000
        bodies = uniform_bodies(n, seed=9, box=BOX_100)
        tracemalloc.start()
        try:
            graph = interaction_graph(bodies)
            modularity(graph, [[i] for i in range(n)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4

    @pytest.mark.parametrize("rows", [1, 5, 64, 200])
    def test_each_pair_weight_is_computed_once(self, monkeypatch, rows):
        monkeypatch.setattr(metrics, "_BLOCK_ROWS", rows)
        blocks = WeightedGraph._row_blocks
        entries = []

        def counted(graph, order):
            for lo, block in blocks(graph, order):
                entries.append(block.size)
                yield lo, block

        monkeypatch.setattr(WeightedGraph, "_row_blocks", counted)
        n = 131
        bodies = uniform_bodies(n, seed=8, box=BOX_100)
        detected = detected_partition(bodies, 2, 4)
        for graph in both_graphs(bodies):
            for partition in (detected, [range(n)], [[i] for i in range(n)]):
                entries.clear()
                modularity(graph, partition)
                assert sum(entries) <= n * (n - 1) // 2 + n * rows


@st.composite
def scenes(draw):
    """(bodies, partition): random labels over up to 12 groups, some empty."""
    n = draw(st.integers(2, 140))
    k = draw(st.integers(1, 12))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    partition = [[i for i, g in enumerate(labels) if g == x] for x in range(k)]
    return uniform_bodies(n, draw(st.integers(0, 10 ** 6)), UNIT_BOX), partition


@settings(max_examples=60, deadline=None)
@given(scenes(), st.sampled_from(TRANSFORM_CASES))
@example(([Body(i, 0, Vec2(0.1 * i, 0.0), Vec2(0.0, 0.0), 1.0) for i in range(7)],
          [[i] for i in range(7)]), ("inverse", 1.0))
@example(([Body(i, 0, Vec2(0.1 * i, 0.3), Vec2(0.0, 0.0), 1.0) for i in range(9)],
          [[], [8], [0, 2, 4, 6], [], [1, 3, 5, 7]]), ("gaussian", 0.5))
def test_upper_triangle_modularity_on_random_partitions(scene, case):
    """Empty groups, singletons, and groups shorter or longer than a block,
    the last sorted node closing its group, against the dense reference and
    for every block size."""
    bodies, partition = scene
    n = len(bodies)
    graphs = both_graphs(bodies, *case)
    want = modularity_reference(graphs[1].weights, partition)
    hexes = set()
    for rows in (1, 2, 5, 64, n + 1):
        with mock.patch.object(metrics, "_BLOCK_ROWS", rows):
            for graph in graphs:
                q = modularity(graph, partition)
                assert abs(q - want) <= 1e-12
                hexes.add(q.hex())
                assert modularity(graph, [range(n)]) == 0.0
    assert len(hexes) == 1  # the same bits from either graph and any block size


class TestOrganizationPartition:
    def test_unassigned_bodies_form_a_tail_group(self):
        bodies = clustered_bodies([(20.0, 20.0)], 12, 3.0, seed=2)
        lone = Body(12, 0, Vec2(90.0, 90.0), Vec2(0.0, 0.0), 1.0)
        tree = build_tree(bodies + [lone], BOX_100, 2)
        cut = CellSet.from_tree(tree, 3)
        orgs = organizations_from(group_cells2(cut, tree), tree)
        partition = organization_partition(orgs, 13)
        flat = sorted(i for g in partition for i in g)
        assert flat == list(range(13))
        assert 12 in partition[-1]

    def test_fully_assigned_scene_has_no_tail(self):
        bodies = clustered_bodies([(20.0, 20.0)], 10, 2.0, seed=5)
        tree = build_tree(bodies, BOX_100, 1)
        cut = CellSet.from_tree(tree, 2)
        orgs = organizations_from(group_cells2(cut, tree), tree)
        assigned = {i for o in orgs for i in o.members}
        partition = organization_partition(orgs, 10)
        assert sorted(i for g in partition for i in g) == list(range(10))
        if assigned == set(range(10)):
            assert len(partition) == len(orgs)


class TestDetectedBeatsRandom:
    def test_two_blob_partition_beats_shuffled_labels(self):
        for seed in (1, 2, 3):
            bodies = clustered_bodies([(20.0, 20.0), (80.0, 80.0)], 25, 5.0,
                                      seed=seed)
            tree = build_tree(bodies, BOX_100, 3)
            cut = CellSet.from_tree(tree, 3)
            orgs = organizations_from(group_cells2(cut, tree), tree)
            graph = interaction_graph(bodies)
            partition = organization_partition(orgs, len(bodies))
            q_detected = modularity(graph, partition)

            rng = random.Random(1000 + seed)
            ids = list(range(len(bodies)))
            rng.shuffle(ids)
            sizes = [len(g) for g in partition]
            shuffled, at = [], 0
            for s in sizes:
                shuffled.append(ids[at:at + s])
                at += s
            q_random = modularity(graph, shuffled)
            assert q_detected > q_random


@pytest.mark.parametrize("transform, kwargs, bits", [
    (TRANSFORM_INVERSE, {}, "0x1.fa26a924e46a6p-2"),
    (TRANSFORM_GAUSSIAN, {"sigma": 3.0}, "0x1.498deac8620adp-1"),
    (TRANSFORM_RAW, {}, "-0x1.060b5849777b5p-2"),
])
def test_detected_modularity_keeps_its_bits(transform, kwargs, bits):
    # Q of a 600-body three-blob scene, pinned from the row blocks that formed
    # dx as x_i - x_j: x_j - x_i is its exact negation, with the same square.
    bodies = clustered_bodies([(20.0, 30.0), (70.0, 25.0), (45.0, 75.0)], 200, 8.0, seed=19)
    orgs = detected_partition(bodies, 2, 5)
    assert modularity(interaction_graph(bodies, transform, **kwargs), orgs).hex() == bits
