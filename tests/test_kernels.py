import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orgtree import kernels
from orgtree.errors import DynamicsError, SingularPairError
from orgtree.geometry import AABB, Vec2
from orgtree.kernels import (MODE_COULOMB, MODE_GRAVITY, KernelParams,
                             direct_field, direct_fields, tree_field, tree_fields)
from orgtree.ntree import Body, build_tree
from conftest import UNIT_BOX, uniform_bodies, uniform_tree
from oracles import pair_field, tree_field_walk


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


def test_a_target_with_inf_nan_and_minus_inf_terms_raises_the_walks_pair():
    # Body 0's y terms are +inf (body 1: r^3 underflows), NaN (body 2
    # coincides) and -inf (body 3); math.fsum raises ValueError on them, which
    # the sweep must turn into the walk's SingularPairError.
    bodies = [b(0, 0.0, 0.0), b(1, 0.0, 1e-110), b(2, 0.0, 0.0), b(3, 0.0, -1e-110),
              b(4, 0.9, 0.9)]
    tree = build_tree(bodies, AABB(Vec2(-1.0, -1.0), Vec2(1.0, 1.0)), 4)
    for theta in (0.0, 0.5):
        params = KernelParams(theta=theta)
        walked = [outcome(lambda: tree_field_walk(tree, x.position, x.id, params))
                  for x in bodies]
        assert walked[0] == ("singular", (3, 0))
        assert outcome(lambda: tree_fields(tree, params)[0]) == walked[0]
        assert [outcome(lambda: tree_field(tree, x.position, x.id, params))
                for x in bodies] == walked
        assert outcome(lambda: tree_field(tree, Vec2(0.0, 0.0), -1, params)) == outcome(
            lambda: tree_field_walk(tree, Vec2(0.0, 0.0), -1, params))


def test_direct_paths_report_a_pair_too_close_for_a_finite_term():
    # The direct sum, one direct target and one pair all meet the same pair
    # as tree_fields: r^2 = 1e-220 is positive but r^3 underflows to zero.
    bodies = [b(0, 0.0, 0.5), b(1, 1e-110, 0.5), b(2, 0.9, 0.9)]
    params = KernelParams()
    for fn in (lambda: direct_fields(bodies, params), lambda: direct_field(bodies, 0, params)):
        with pytest.raises(SingularPairError) as err:
            fn()
        assert err.value.pair == (1, 0)
    with pytest.raises(SingularPairError) as err:
        pair_field(bodies[1], bodies[0].position, params, target_id=0)
    assert err.value.pair == (1, 0)
    assert direct_field(bodies, 2, params).x < 0.0  # a far target is unaffected


def fsum_hex(terms):
    try:
        return math.fsum(terms).hex()
    except (ValueError, OverflowError) as err:
        return type(err).__name__


def summed_hex(segments, seed=0):
    """kernels._fsums over the segments, their terms shuffled and then grouped
    by segment, stably, and math.fsum over each segment's terms in that order."""
    pairs = [(k, x) for k, seg in enumerate(segments) for x in seg]
    random.Random(seed).shuffle(pairs)
    pairs.sort(key=lambda pair: pair[0])  # stable: a segment keeps its shuffled order
    size = np.array([len(seg) for seg in segments], dtype=np.intp)
    v = np.array([x for _, x in pairs], dtype=float)
    want = [fsum_hex([x for j, x in pairs if j == k]) for k in range(len(segments))]
    errors = [w for w in want if w.endswith("Error")]
    try:
        got = [x.hex() for x in kernels._fsums(v, size).tolist()]
    except (ValueError, OverflowError) as err:
        got = type(err).__name__
    return got, errors[0] if errors else want


def sign(x, negative):
    return -x if negative else x


mantissas = st.sampled_from([0.5, 0.75]) | st.floats(0.5, 1.0, exclude_max=True)
magnitudes = st.builds(math.ldexp, mantissas, st.integers(-1074, 1000))
signed = st.builds(sign, magnitudes, st.booleans())


def near_tie(f, e, d, k, negative, tiny):
    """x = f 2^e, a term k ulps off half the gap from x to its neighbour above
    (d = 0) or below (d = 1), and terms far below both."""
    return ([math.ldexp(f, e), sign(math.ldexp(1.0 + k * 2.0 ** -52, e - 54 - d), negative)]
            + [sign(math.ldexp(1.0, e - 107 - d - t), n) for t, n in tiny])


near_ties = st.builds(near_tie, mantissas, st.integers(-900, 900), st.integers(0, 1),
                      st.integers(-2, 2), st.booleans(),
                      st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=12))
cancelling = st.lists(signed, max_size=10).map(lambda xs: xs + [-x for x in xs])
segments = st.one_of(st.lists(signed, max_size=30), near_ties, cancelling,
                     st.lists(st.just(-0.0), max_size=3), st.lists(signed, max_size=1),
                     st.lists(st.builds(sign, st.floats(0.0, 2.0 ** -1000), st.booleans()),
                              max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.lists(segments, min_size=1, max_size=8), st.integers(0, 2 ** 32))
@example([[1.0, -(2.0 ** -54), -(2.0 ** -110)]], 0)  # lands on a power of two from below
@example([[1.5, 2.0 ** -53 - 2.0 ** -106] + [2.0 ** -108] * 8], 0)  # r's sum rounds down
@example([[1.0, 2.0 ** -53, 2.0 ** -106], [], [-0.0], [-0.0, 0.0], [5e-324, -5e-324]], 3)
def test_exact_segment_sums_equal_fsum_bitwise(segs, seed):
    got, want = summed_hex(segs, seed)
    assert got == want == [fsum_hex(s) for s in segs]  # exact sums ignore term order


@pytest.mark.parametrize("segs", [
    [[1.0], [math.inf, 1.0], [math.nan]],
    [[math.inf, -math.inf], [2.0]],
    [[1.5e308, 1.5e308], [1.0]],
    [[1e308, 1e308, -1e308], [2.0 ** 901, 2.0 ** 901]],
])
def test_exact_segment_sums_outside_the_range_are_fsums(segs):
    # The first failing fsum raises; an intermediate overflow depends on the
    # order of the terms, which is theirs in v.
    for seed in range(4):
        got, want = summed_hex(segs, seed)
        assert got == want


def dyadic_scene(kind, charges):
    """Bodies at multiples of 1/16 or 1/128, where terms cancel exactly: a 15 x
    15 lattice, whose middle row and column have zero fields at theta 0, or
    64 bodies on the line y = 1/2, whose y sums are all +0 or -0."""
    if kind == "lattice":
        spots = [(i / 16, j / 16) for i in range(1, 16) for j in range(1, 16)]
    else:
        spots = [((2 * i + 1) / 128, 0.5) for i in range(64)]
    return [b(i, x, y, charges[i % len(charges)]) for i, (x, y) in enumerate(spots)]


@pytest.mark.parametrize("kind, theta, charges", [
    ("lattice", 0.0, [1.0]), ("lattice", 0.0, [2.0, -1.0]), ("line", 0.0, [1.0]),
    ("line", 0.5, [1.0, 2.0]), ("line", 1.0, [1.0, -1.0]), ("line", 0.5, [-1.0])])
def test_sums_that_cancel_to_zero_take_the_fsum_fallback(kind, theta, charges):
    bodies = dyadic_scene(kind, charges)
    tree = build_tree(bodies, UNIT_BOX, capacity=4)
    params = KernelParams(theta=theta, mode=MODE_COULOMB)
    got = [(v.x.hex(), v.y.hex()) for v in tree_fields(tree, params)]
    assert got == [outcome(lambda: tree_field_walk(tree, x.position, x.id, params))
                   for x in bodies]
    zeros = [h for pair in got for h in pair if h in ("0x0.0p+0", "-0x0.0p+0")]
    assert len(zeros) >= (30 if kind == "lattice" else 64)
    if charges == [-1.0]:  # every y term is -0.0; the sum's sign is fsum's
        assert [y for _, y in got] == [math.fsum([-0.0] * 63).hex()] * len(bodies)


def test_fallback_for_every_sum_gives_the_certified_bits(monkeypatch):
    tree, bodies = uniform_tree(2000, seed=8, capacity=10)
    params = KernelParams(theta=0.5)
    fsum, calls = math.fsum, []
    monkeypatch.setattr(kernels.math, "fsum", lambda xs: calls.append(1) or fsum(xs))
    certified = [(v.x.hex(), v.y.hex()) for v in tree_fields(tree, params)]
    assert len(calls) < 40
    calls.clear()
    # No gap to the neighbouring double: the certificate rejects every sum.
    monkeypatch.setattr(kernels.np, "nextafter", lambda x, toward: x)
    assert [(v.x.hex(), v.y.hex()) for v in tree_fields(tree, params)] == certified
    assert len(calls) == 2 * len(bodies)
    # Blocks whose sums are not all finite are summed again target by target.
    monkeypatch.setattr(kernels, "_fsums", lambda v, size, **kw: np.full(len(size), np.nan))
    assert [(v.x.hex(), v.y.hex()) for v in tree_fields(tree, params)] == certified


def test_only_the_targets_whose_sums_come_back_nan_are_redone(monkeypatch):
    tree, bodies = uniform_tree(300, seed=8, capacity=4)
    params = KernelParams(theta=0.5)
    certified = [(v.x.hex(), v.y.hex()) for v in tree_fields(tree, params)]
    fsums, field, redone = kernels._fsums, kernels.tree_field, []

    def negative_x_sums_are_nan(v, size, **kw):  # the x sums come first
        res, m = fsums(v, size, **kw), len(size)
        res[:m // 2][res[:m // 2] < 0.0] = np.nan
        return res

    monkeypatch.setattr(kernels, "_fsums", negative_x_sums_are_nan)
    monkeypatch.setattr(kernels, "tree_field", lambda tree, target, target_id, params: (
        redone.append(target_id) or field(tree, target, target_id, params)))
    assert [(v.x.hex(), v.y.hex()) for v in tree_fields(tree, params)] == certified
    want = [x.id for x, (fx, _) in zip(bodies, certified) if float.fromhex(fx) < 0.0]
    assert redone == want
    assert 0 < len(want) < len(bodies)


def error_outcome(fn):
    """A field's exact bits, or the error's type, pair and what it names."""
    try:
        v = fn()
    except DynamicsError as err:
        return (type(err).__name__, err.pair, str(err).split(":")[0])
    return (v.x.hex(), v.y.hex())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([0.0, 0.5, 1.0]),
       st.sampled_from([1e300, 1e305, 1e307]), st.sampled_from([1, 4]))
def test_non_finite_terms_raise_for_the_first_pair_depth_first(seed, theta, constant,
                                                               capacity):
    # Heavy bodies make const * charge overflow, in body terms and in the
    # terms of every cell that holds one.
    rng = random.Random(seed)
    bodies = [b(i, rng.random(), rng.random(), rng.choice([1.0, 1.0, 1.0, 1e4]))
              for i in range(rng.randrange(2, 60))]
    tree = build_tree(bodies, UNIT_BOX, capacity)
    params = KernelParams(theta=theta, constant=constant)
    walked = [error_outcome(lambda: tree_field_walk(tree, x.position, x.id, params))
              for x in bodies]
    assert [error_outcome(lambda: tree_field(tree, x.position, x.id, params))
            for x in bodies] == walked
    first = next((w for w in walked if w[0] in ("SingularPairError", "DynamicsError")), None)
    assert error_outcome(lambda: tree_fields(tree, params)[0]) == (first or walked[0])


def test_direct_sum_raises_for_its_first_non_finite_term():
    rng = random.Random(5)
    bodies = [b(10 + i, rng.random(), rng.random()) for i in range(50)]
    params = KernelParams(constant=1e305)
    finite = lambda f: math.isfinite(f.x) and math.isfinite(f.y)
    first = next((x.id, t.id) for t in bodies for x in bodies
                 if x is not t and not finite(pair_field(x, t.position, params)))
    with pytest.raises(SingularPairError, match="is not finite") as err:
        direct_fields(bodies, params)
    assert err.value.pair == first


def test_sums_of_finite_terms_that_overflow_name_their_target():
    # An equilateral triangle of side 1: every term is at most 1.5e308, but
    # each x sum is +-2.25e308.
    bodies = [b(7, 0.0, 0.0), b(8, 1.0, 0.0), b(9, 0.5, math.sqrt(3.0) / 2)]
    tree = build_tree(bodies, AABB(Vec2(-1.0, -1.0), Vec2(2.0, 2.0)), 4)
    params = KernelParams(constant=1.5e308)
    for fn in (lambda: direct_fields(bodies, params), lambda: tree_fields(tree, params),
               lambda: tree_field_walk(tree, bodies[0].position, 7, params)):
        with pytest.raises(DynamicsError, match="the field at target 7 overflows") as err:
            fn()
        assert type(err.value) is DynamicsError


def test_sums_that_overflow_only_in_depth_first_order_overflow_as_in_the_walk():
    # Coulomb charges and a huge constant, at a probe in cell (1, 0, 0).  Its
    # two near bodies give +1.2e308 each and come first depth-first, but at
    # level 2 of the batched walk; the far cell (1, 1, 0) gives -1e308 and
    # comes last depth-first, but at level 1.  In level order the x terms sum
    # to a finite field; in the walk's order their fsum overflows.
    bodies = [b(0, 0.85, 0.5, 0.768e8), b(1, 0.85, 0.5, 0.768e8), b(2, 1.1, 0.5, -1.1e8)]
    tree = build_tree(bodies, AABB(Vec2(0.0, 0.0), Vec2(2.0, 2.0)), 2)
    params = KernelParams(constant=1e300, theta=1.0, mode=MODE_COULOMB)
    probe = Vec2(0.05, 0.5)
    for fn in (lambda: tree_field_walk(tree, probe, -1, params),
               lambda: tree_field(tree, probe, -1, params)):
        with pytest.raises(DynamicsError, match="the field at target -1 overflows") as err:
            fn()
        assert type(err.value) is DynamicsError


def test_a_body_on_the_upper_edge_of_an_odd_box_keeps_its_charge_out_of_its_field():
    # The cells' upper edges used to round to 0.8999999999999999, so body 0
    # lay outside its own cell, which theta 2 then took as one far term.
    box = AABB(Vec2(0.2, -0.3), Vec2(0.9, 0.4))
    spots = [(0.9, 0.1), (0.56, 0.39), (0.25, -0.25), (0.3, -0.2), (0.21, -0.29)]
    bodies = [b(i, x, y) for i, (x, y) in enumerate(spots)]
    params = KernelParams(theta=2.0)
    got = tree_fields(build_tree(bodies, box, capacity=3), params)[0]
    want = direct_field(bodies, 0, params)
    assert math.hypot(got.x - want.x, got.y - want.y) < 0.05 * math.hypot(want.x, want.y)


def group_scene(rng, kind, capacity):
    """Bodies, root box, max_depth, softening and mode of a scene whose bodies
    sit where the group tests of tree_fields are tight."""
    box, max_depth, softening, mode = UNIT_BOX, 24, 0.0, MODE_GRAVITY
    charges = [1.0, 2.0]
    if kind == "dyadic":  # on split lines and leaf edges, the box's edges included
        spots = sorted({(rng.randrange(17) / 16, rng.randrange(17) / 16)
                        for _ in range(rng.randrange(2, 90))})
    elif kind == "lattice":  # centers of charge at dyadic points: s^2 == th2 * d^2 ties
        k = rng.choice([4, 8, 16])
        spots = [(i / k, j / k) for i in range(k + 1) for j in range(k + 1)]
    elif kind == "edges":  # bodies on upper edges that lo + 2**d * w would round below
        box = AABB(Vec2(0.2, -0.3), Vec2(0.9, 0.4))
        spots = [(rng.choice([0.9, 0.2 + 0.7 * rng.random()]),
                  rng.choice([0.4, -0.3 + 0.7 * rng.random()]))
                 for _ in range(rng.randrange(2, 90))]
    elif kind == "overfull":  # leaves at max_depth hold more than capacity, piles coincide
        max_depth, softening = rng.randrange(0, 4), 1e-3
        x, y = rng.random(), rng.random()
        spots = [(rng.random(), rng.random()) for _ in range(rng.randrange(2, 60))]
        spots += [(x, y)] * (capacity + 2)
    elif kind == "cancel":  # +-q pairs: cells whose charges cancel have NaN centers
        mode = MODE_COULOMB
        spots = [(x + 1e-7 * k, y) for x, y in ((rng.random(), rng.random())
                                                 for _ in range(rng.randrange(1, 40)))
                 for k in (0, 1)]
    else:  # "line": signed charges on y = 1/2, softened: every y term is a zero
        mode, softening, charges = MODE_COULOMB, 1e-3, [-1.0, -2.0]
        spots = [((i + rng.random()) / 64, 0.5) for i in range(rng.randrange(2, 64))]
    qs = [rng.choice(charges) for _ in spots]
    if kind == "cancel":
        qs = [q * sign for q in qs[::2] for sign in (1.0, -1.0)]
    elif kind == "line":
        qs[rng.randrange(len(qs))] = 1.0
    bodies = [b(i, x, y, q) for i, ((x, y), q) in enumerate(zip(spots, qs))]
    rng.shuffle(bodies)
    return bodies, box, max_depth, softening, mode


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.sampled_from(["dyadic", "lattice", "edges", "overfull", "cancel", "line"]),
       st.sampled_from([0.0, 0.3, 0.5, 1.0, 2.0]), st.sampled_from([1, 3, 10]))
@example(0, "lattice", 0.5, 1)  # s^2 == th2 * d^2 for single-body leaves
@example(28, "edges", 2.0, 3)  # a body on the box's upper edge at theta 2
def test_group_walk_equals_the_scalar_walk_bitwise(seed, kind, theta, capacity):
    bodies, box, max_depth, softening, mode = group_scene(random.Random(seed), kind, capacity)
    tree = build_tree(bodies, box, capacity, max_depth)
    params = KernelParams(softening=softening, theta=theta, mode=mode)
    walked = [outcome(lambda: tree_field_walk(tree, x.position, x.id, params))
              for x in tree.bodies]
    singular = [w for w in walked if w[0] == "singular"]
    got = outcome(lambda: tree_fields(tree, params)[0])
    assert got == (singular[0] if singular else walked[0])
    if not singular:
        assert [(v.x.hex(), v.y.hex()) for v in tree_fields(tree, params)] == walked
        swept = kernels._sweep(tree, params)  # depth-first, with no per-target fallback
        assert [(x.hex(), y.hex()) for x, y in swept.T[np.argsort(tree.order)].tolist()] == walked


def test_the_lowest_input_index_raises_when_depth_first_order_is_reversed():
    # Two coincident pairs: one in the upper-right quadrant, listed first, and
    # one in the lower-left quadrant, which comes first depth-first.
    rng = random.Random(12)
    bodies = [b(10, 0.8, 0.8), b(11, 0.8, 0.8)]
    bodies += [b(20 + i, rng.random(), rng.random()) for i in range(60)]
    bodies += [b(90, 0.1, 0.1), b(91, 0.1, 0.1)]
    tree = build_tree(bodies, UNIT_BOX, capacity=3)
    n = len(tree.first) - 1
    depth_first = tree.id[n:].tolist()
    assert depth_first.index(90) < depth_first.index(10)
    for theta in (0.0, 0.5, 1.0):
        params = KernelParams(theta=theta)
        with pytest.raises(SingularPairError) as err:
            tree_fields(tree, params)
        with pytest.raises(SingularPairError) as first:
            tree_field(tree, bodies[0].position, bodies[0].id, params)
        assert err.value.pair == first.value.pair == (11, 10)
        assert str(err.value) == str(first.value)


def test_bodies_too_far_apart_for_a_finite_distance_sum_as_the_walk_does():
    # dx * dx overflows to inf, so th2 * d2 is 0 * inf = NaN at theta 0; a body
    # row still takes its term, which is 0: q / inf.
    bodies = [b(0, 0.0, 0.0), b(1, 1e200, 1e200), b(2, 3e199, 1e200)]
    tree = build_tree(bodies, AABB(Vec2(0.0, 0.0), Vec2(1e200, 1e200)), 1)
    for theta in (0.0, 0.5):
        params = KernelParams(theta=theta)
        want = [outcome(lambda: tree_field_walk(tree, x.position, x.id, params)) for x in bodies]
        assert [(v.x.hex(), v.y.hex()) for v in tree_fields(tree, params)] == want
        assert [outcome(lambda: tree_field(tree, x.position, x.id, params))
                for x in bodies] == want


def test_scratch_memory_stays_a_fraction_of_the_sweeps_terms():
    # About 182 terms per target at theta 0.5: 1.46M terms, 32 bytes each with their
    # target and source, for the whole sweep.
    tree, _ = uniform_tree(8000, seed=3)
    params = KernelParams(theta=0.5)
    tracemalloc.start()
    try:
        tree_fields(tree, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 182 * 8000 * 32 / 8


@pytest.mark.parametrize("theta", [0.5, 2.0])
def test_scratch_memory_at_32k_bodies_stays_within_the_same_bound(theta):
    # Chunks of consecutive targets and blocks of terms bound the sweep's scratch,
    # so four times the bodies stay under the 8k bound; the 32,768 Vec2s of the
    # result alone take about 4.3 MiB of it.  At theta 2 a target has few far
    # spans, so a chunk's target count must be bounded on its own.
    tree, _ = uniform_tree(32768, seed=3)
    params = KernelParams(theta=theta)
    tracemalloc.start()
    try:
        tree_fields(tree, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 182 * 8000 * 32 / 8


@pytest.mark.parametrize("theta", [0.0, 0.5, 2.0])
def test_piles_whose_leaf_a_node_could_open_for_all_its_targets_skip_only_their_own_body(
        monkeypatch, theta):
    # Two piles of capacity + 2 coincident bodies bottom out at max_depth 3.  The
    # nodes above a pile hold it alone, so their targets' box is a point inside
    # the pile's leaf, which the whole node could open.  Each target must still
    # skip its own body, and only it: at theta 0 the sweep evaluates exactly
    # n - 1 terms per target.
    capacity, piles = 3, [(0.3, 0.3), (0.71, 0.62)]
    bodies = [b(i, *piles[i % 2], 1.0 + i % 3) for i in range(2 * (capacity + 2))]
    tree = build_tree(bodies, UNIT_BOX, capacity, max_depth=3)
    assert max(leaf.count for leaf in tree.leaves()) == capacity + 2
    params = KernelParams(softening=1e-3, theta=theta)
    terms, evaluated = kernels._terms, []
    monkeypatch.setattr(kernels, "_terms", lambda tree, x, y, row, params: (
        evaluated.append(len(row)) or terms(tree, x, y, row, params)))
    got = [(v.x.hex(), v.y.hex()) for v in tree_fields(tree, params)]
    assert got == [outcome(lambda: tree_field_walk(tree, x.position, x.id, params))
                   for x in tree.bodies]
    if theta == 0.0:
        assert sum(evaluated) == len(bodies) * (len(bodies) - 1)
