import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orgtree import kernels
from orgtree.errors import SingularPairError
from orgtree.geometry import Vec2
from orgtree.kernels import (MODE_COULOMB, MODE_GRAVITY, KernelParams,
                             direct_field, direct_fields, pair_field,
                             tree_field, tree_fields)
from orgtree.ntree import Body, build_tree
from conftest import UNIT_BOX, uniform_bodies, uniform_tree
from oracles import tree_field_walk


def b(i, x, y, charge=1.0):
    return Body(i, 0, Vec2(float(x), float(y)), Vec2(0.0, 0.0), charge)


def rms(fields):
    return math.sqrt(math.fsum(f.x * f.x + f.y * f.y for f in fields) / len(fields))


class TestParams:
    def test_defaults(self):
        p = KernelParams()
        assert p.mode == MODE_GRAVITY
        assert p.theta == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelParams(mode="magnetism")
        with pytest.raises(ValueError):
            KernelParams(theta=-0.1)
        with pytest.raises(ValueError):
            KernelParams(softening=-1.0)

    @pytest.mark.parametrize("name", ["theta", "softening", "constant"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_rejected(self, name, value):
        with pytest.raises(ValueError):
            KernelParams(**{name: value})


class TestPairField:
    def test_unit_vertical_example(self):
        # Mass 3 one unit above the target with constant 2: the denominator
        # is exactly 1, so the pull is (0, 6) with no rounding anywhere.
        f = pair_field(b(0, 0, 1, charge=3.0), Vec2(0.0, 0.0),
                       KernelParams(constant=2.0))
        assert f == Vec2(0.0, 6.0)

    def test_two_masses_on_a_line(self):
        bodies = [b(0, 0, 0), b(1, 1, 0), b(2, 2, 0)]
        f = direct_field(bodies, 0, KernelParams())
        assert f == Vec2(1.25, 0.0)

    def test_softening_shifts_denominator(self):
        # r^2 = 9 and eps^2 = 16 give (25 * 5) = 125 exactly.
        f = pair_field(b(0, 0, 3), Vec2(0.0, 0.0), KernelParams(softening=4.0))
        assert f == Vec2(0.0, 3.0 / 125.0)

    def test_softened_coincidence_is_finite_zero(self):
        f = pair_field(b(0, 5, 5), Vec2(5.0, 5.0), KernelParams(softening=1.0))
        assert f == Vec2(0.0, 0.0)

    def test_unsoftened_coincidence_raises(self):
        with pytest.raises(SingularPairError) as err:
            pair_field(b(7, 5, 5), Vec2(5.0, 5.0), KernelParams(), target_id=3)
        assert err.value.pair == (7, 3)

    def test_coulomb_same_formula(self):
        g = pair_field(b(0, 0, 1), Vec2(0.0, 0.0), KernelParams(mode=MODE_GRAVITY))
        c = pair_field(b(0, 0, 1), Vec2(0.0, 0.0), KernelParams(mode=MODE_COULOMB))
        assert g == c

    def test_negative_charge_flips_direction(self):
        f = pair_field(b(0, 0, 1, charge=-3.0), Vec2(0.0, 0.0),
                       KernelParams(constant=2.0))
        assert f == Vec2(0.0, -6.0)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    def test_pairwise_momentum_antisymmetry(self, xi, yi, xj, yj, mi, mj):
        d2 = (xi - xj) ** 2 + (yi - yj) ** 2
        assume(d2 > 1e-6)
        params = KernelParams()
        fi = pair_field(b(1, xj, yj, charge=mj), Vec2(xi, yi), params)
        fj = pair_field(b(0, xi, yi, charge=mi), Vec2(xj, yj), params)
        assert mi * fi.x == pytest.approx(-mj * fj.x, rel=1e-12, abs=1e-12)
        assert mi * fi.y == pytest.approx(-mj * fj.y, rel=1e-12, abs=1e-12)


class TestDirectField:
    def test_skips_the_target_itself(self):
        bodies = [b(0, 0, 0), b(1, 0, 1)]
        f = direct_field(bodies, 1, KernelParams())
        assert f == Vec2(0.0, -1.0)

    def test_coincident_pair_raises_with_ids(self):
        bodies = [b(4, 1, 1), b(9, 1, 1)]
        with pytest.raises(SingularPairError) as err:
            direct_field(bodies, 0, KernelParams())
        assert set(err.value.pair) == {4, 9}

    def test_batch_matches_single_target_calls(self):
        bodies = uniform_bodies(40, seed=6)
        params = KernelParams()
        batch = direct_fields(bodies, params)
        for j in range(len(bodies)):
            assert batch[j] == direct_field(bodies, j, params)

    def test_translation_equivariance(self):
        bodies = uniform_bodies(30, seed=14)
        params = KernelParams()
        base = direct_fields(bodies, params)
        shifted = [Body(x.id, 0, Vec2(x.position.x + 7.5, x.position.y - 3.25),
                        x.velocity, x.charge) for x in bodies]
        moved = direct_fields(shifted, params)
        scale = rms(base)
        for f, g in zip(base, moved):
            assert abs(f.x - g.x) <= 1e-9 * scale
            assert abs(f.y - g.y) <= 1e-9 * scale


class TestTreeField:
    def test_theta_zero_is_bitwise_exact(self):
        for seed in (1, 2, 3, 4, 5):
            tree, bodies = uniform_tree(120, seed=seed, capacity=3)
            params = KernelParams(theta=0.0)
            exact = direct_fields(bodies, params)
            fast = tree_fields(tree, params)
            assert all(f == g for f, g in zip(exact, fast))

    def test_probe_point_outside_the_tree(self):
        # target_id -1 means no body is excluded from the sum.
        bodies = [b(0, 0.2, 0.2), b(1, 0.8, 0.7)]
        tree = build_tree(bodies, UNIT_BOX, 4)
        params = KernelParams(theta=0.0)
        probe = Vec2(0.5, 0.1)
        want_x = math.fsum(pair_field(x, probe, params).x for x in bodies)
        want_y = math.fsum(pair_field(x, probe, params).y for x in bodies)
        got = tree_field(tree, probe, -1, params)
        assert got == Vec2(want_x, want_y)

    def test_far_leaf_collapses_to_monopole(self):
        rng = random.Random(50)
        cluster = [b(i, 0.9 + 0.05 * rng.random(), 0.9 + 0.05 * rng.random())
                   for i in range(12)]
        target = b(99, 0.05, 0.05)
        tree = build_tree(cluster + [target], UNIT_BOX, capacity=12)
        leaf = tree.root.children[3]
        assert leaf.is_leaf and leaf.count == 12
        params = KernelParams(theta=0.5)
        mono = pair_field(Body(500, 0, leaf.center_of_charge, Vec2(0.0, 0.0),
                               leaf.total_charge),
                          target.position, params)
        got = tree_field(tree, target.position, 99, params)
        assert got == mono

    def test_cancelling_node_is_never_collapsed(self):
        # The far pair's charges sum to zero, so its ancestors have no center
        # of charge.  Collapsing any of them would replace a genuine dipole
        # field with nothing; descending to the single-body leaves instead
        # reproduces direct summation bit for bit.
        bodies = [b(0, 0.05, 0.05),
                  b(1, 0.9, 0.9, charge=1.0),
                  b(2, 0.90000001, 0.9, charge=-1.0)]
        tree = build_tree(bodies, UNIT_BOX, capacity=1)
        params = KernelParams(theta=0.9)
        exact = direct_fields(bodies, params)
        for body, want in zip(bodies, exact):
            assert tree_field(tree, body.position, body.id, params) == want

    def test_monotone_accuracy_as_theta_tightens(self):
        tree, bodies = uniform_tree(600, seed=2026, capacity=10)
        exact = direct_fields(bodies, KernelParams(theta=0.0))
        scale = rms(exact)
        prev = math.inf
        for theta in (1.0, 0.7, 0.5, 0.3, 0.1):
            approx = tree_fields(tree, KernelParams(theta=theta))
            worst = max(math.hypot(f.x - g.x, f.y - g.y)
                        for f, g in zip(exact, approx)) / scale
            assert worst <= prev
            prev = worst

    def test_relative_l2_error_within_tolerance(self):
        # 1000 uniform unit masses at theta 0.5; the bound is set by the
        # committed oracle run, which lands two orders of magnitude below it.
        tree, bodies = uniform_tree(1000, seed=4100, capacity=10)
        exact = direct_fields(bodies, KernelParams(theta=0.0))
        approx = tree_fields(tree, KernelParams(theta=0.5))
        num = math.fsum((f.x - g.x) ** 2 + (f.y - g.y) ** 2
                        for f, g in zip(exact, approx))
        den = math.fsum(f.x * f.x + f.y * f.y for f in exact)
        assert math.sqrt(num / den) <= 2e-2

    def test_coincident_bodies_raise_through_the_tree(self):
        bodies = [b(0, 0.5, 0.5), b(1, 0.5, 0.5)]
        tree = build_tree(bodies, UNIT_BOX, 4)
        with pytest.raises(SingularPairError):
            tree_field(tree, bodies[0].position, 0, KernelParams())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_theta_zero_bitwise_on_random_scenes(seed):
    rng = random.Random(seed)
    tree, bodies = uniform_tree(rng.randrange(2, 80), seed=seed,
                                capacity=rng.choice([1, 3, 10]))
    params = KernelParams(theta=0.0)
    exact = direct_fields(bodies, params)
    fast = tree_fields(tree, params)
    assert all(f == g for f, g in zip(exact, fast))


def outcome(fn):
    """A field's exact bits, or the pair a SingularPairError names."""
    try:
        v = fn()
    except SingularPairError as err:
        return ("singular", err.pair)
    return (v.x.hex(), v.y.hex())


def oracle_scene(rng, mode, softening, capacity):
    """Random bodies plus an exactly cancelling +-q pair and, when softened,
    a pile of coincident bodies that bottoms out at the depth cap."""
    n = rng.randrange(2, 90)
    signed = mode == MODE_COULOMB
    bodies = [b(i, rng.random(), rng.random(),
                rng.choice([1.0, -1.0, 2.0, -0.5]) if signed else rng.choice([1.0, 2.0]))
              for i in range(n)]
    x, y = rng.random(), rng.random()
    bodies += [b(n, x, y, 3.0), b(n + 1, min(x + 1e-7, 1.0), y, -3.0 if signed else 3.0)]
    if softening > 0.0:
        x, y = rng.random(), rng.random()
        bodies += [b(n + 2 + k, x, y, rng.choice([1.0, 2.0])) for k in range(capacity + 2)]
    return bodies


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([0.3, 0.5, 0.9, 1.0]),
       st.sampled_from([MODE_GRAVITY, MODE_COULOMB]), st.sampled_from([0.0, 1e-3]),
       st.sampled_from([1, 3, 10]))
def test_batched_fields_equal_the_scalar_walk_bitwise(seed, theta, mode, softening,
                                                      capacity):
    rng = random.Random(seed)
    bodies = oracle_scene(rng, mode, softening, capacity)
    tree = build_tree(bodies, UNIT_BOX, capacity)
    params = KernelParams(softening=softening, theta=theta, mode=mode)
    walked = [outcome(lambda: tree_field_walk(tree, x.position, x.id, params))
              for x in tree.bodies]
    assert [outcome(lambda: tree_field(tree, x.position, x.id, params))
            for x in tree.bodies] == walked
    singular = [w for w in walked if w[0] == "singular"]
    assert outcome(lambda: tree_fields(tree, params)[0]) == (
        singular[0] if singular else walked[0])
    if not singular:
        assert [(v.x.hex(), v.y.hex()) for v in tree_fields(tree, params)] == walked
    probes = [Vec2(rng.random(), rng.random()), bodies[-1].position,
              Vec2(1.0, rng.random()), Vec2(1.5, -0.25), Vec2(-3.0, 0.5)]
    for p in probes:
        assert outcome(lambda: tree_field(tree, p, -1, params)) == outcome(
            lambda: tree_field_walk(tree, p, -1, params))


def test_block_size_does_not_change_the_bits(monkeypatch):
    tree, bodies = uniform_tree(300, seed=77, capacity=3)
    params = KernelParams(theta=0.6)
    want = [tree_field_walk(tree, x.position, x.id, params) for x in bodies]
    for terms in (1, 50, 10 ** 9):
        monkeypatch.setattr(kernels, "_BLOCK_TERMS", terms)
        got = tree_fields(tree, params)
        assert [(v.x.hex(), v.y.hex()) for v in got] == [
            (v.x.hex(), v.y.hex()) for v in want]


def test_empty_tree_gives_zero_field():
    tree = build_tree([], UNIT_BOX, 4)
    assert tree_fields(tree, KernelParams()) == []
    assert tree_field(tree, Vec2(0.5, 0.5), -1, KernelParams()) == Vec2(0.0, 0.0)


def test_coincident_pair_raises_through_the_batched_sweep():
    # Ids differ from list positions so the error has to name ids.  Bodies 40
    # and 150 coincide; the lowest target index is 40, whose walk meets body
    # 150, so the pair is (id of 150, id of 40) whatever the block layout.
    rng = random.Random(91)
    bodies = [b(7 + 3 * i, rng.random(), rng.random()) for i in range(200)]
    bodies[150] = b(bodies[150].id, bodies[40].position.x, bodies[40].position.y)
    tree = build_tree(bodies, UNIT_BOX, capacity=4)
    for theta in (0.0, 0.5, 1.0):
        with pytest.raises(SingularPairError) as err:
            tree_fields(tree, KernelParams(theta=theta))
        assert err.value.pair == (bodies[150].id, bodies[40].id)


def test_pair_too_close_for_a_finite_term_is_singular():
    # r^2 = 1e-220 is positive but r^3 underflows to zero, so the term has no
    # finite value; the pair is reported instead of an infinite field.
    bodies = [b(0, 0.0, 0.5), b(1, 1e-110, 0.5)]
    tree = build_tree(bodies, UNIT_BOX, 4)
    with pytest.raises(SingularPairError) as err:
        tree_fields(tree, KernelParams())
    assert err.value.pair == (1, 0)
    assert tree_fields(tree, KernelParams(softening=1e-3))[0].x > 0.0
