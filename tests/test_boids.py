import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orgtree import boids, ntree
from orgtree.boids import (BOUNDARY_POLICIES, BOUNDARY_WRAP, COHESION_LITERAL,
                           COHESION_MODES, SimParams, SpeciesParams, WorldState,
                           make_world, step_world)
from orgtree.cli import main
from orgtree.config import config_from_dict, load_config
from orgtree.errors import DynamicsError, ZeroDistanceError
from orgtree.geometry import AABB, Vec2
from orgtree.ntree import Body
from orgtree.run import place_bodies
from conftest import BOX_100, CONFIG_DIR, clustered_bodies
from oracles import (alignment, by_id, cohesion, neighborhood, reflect_fold, separation,
                     step_velocity, step_velocity_loop, step_world_loop, wrap_mod)

WIDE_BOX = AABB(Vec2(-10.0, -10.0), Vec2(10.0, 10.0))


def boid(i, x, y, vx=0.0, vy=0.0, species=0):
    return Body(i, species, Vec2(float(x), float(y)), Vec2(float(vx), float(vy)))


def world(bodies, *species_params, box=WIDE_BOX, **sim_kw):
    if not species_params:
        species_params = (SpeciesParams(),)
    return make_world(bodies, SimParams(box=box, species=species_params, **sim_kw))


# A three-boid scene small enough to work through by hand: the focal boid
# sits at the origin with neighbors three units right and four units up.
# With every coefficient at 1 the update is
#   v' = (1,0) + cohesion + separation + alignment
#      = (1,0) + (48/25, 36/25) + (-1/9, -1/16) + (1/32, 25/288)
#      = (20449/7200, 10543/7200).
HAND_SCENE = [boid(0, 0, 0, vx=1.0),
              boid(1, 3, 0, vy=1.0),
              boid(2, 0, 4, vx=1.0, vy=1.0)]
UNIT_COEFFS = SpeciesParams(alpha=1.0, beta=1.0, gamma=1.0, delta=1.0,
                            neighbor_radius=10.0, max_speed=100.0)


class TestSteeringFunctions:
    def test_cohesion_normalized_hand_values(self):
        j = HAND_SCENE[0]
        c = cohesion(j, HAND_SCENE[1:])
        assert c.x == pytest.approx(48.0 / 25.0, rel=1e-14)
        assert c.y == pytest.approx(36.0 / 25.0, rel=1e-14)

    def test_cohesion_literal_hand_values(self):
        j = HAND_SCENE[0]
        c = cohesion(j, HAND_SCENE[1:], mode=COHESION_LITERAL)
        assert c.x == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert c.y == pytest.approx(1.0 / 4.0, rel=1e-14)

    def test_cohesion_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            cohesion(HAND_SCENE[0], HAND_SCENE[1:], mode="weird")

    def test_separation_hand_values(self):
        s = separation(HAND_SCENE[0], HAND_SCENE[1:], 1.0)
        assert s.x == pytest.approx(-1.0 / 9.0, rel=1e-14)
        assert s.y == pytest.approx(-1.0 / 16.0, rel=1e-14)

    def test_separation_scales_by_coefficient(self):
        s1 = separation(HAND_SCENE[0], HAND_SCENE[1:], 1.0)
        s3 = separation(HAND_SCENE[0], HAND_SCENE[1:], 3.0)
        assert s3.x == pytest.approx(3.0 * s1.x, rel=1e-14)
        assert s3.y == pytest.approx(3.0 * s1.y, rel=1e-14)

    def test_alignment_equal_neighbors(self):
        j = boid(0, 0, 0)
        nbs = [boid(1, 1, 0, vx=2.0), boid(2, -1, 0, vx=2.0)]
        assert alignment(j, nbs) == Vec2(2.0, 0.0)

    def test_alignment_hand_values(self):
        a = alignment(HAND_SCENE[0], HAND_SCENE[1:])
        assert a.x == pytest.approx(1.0 / 32.0, rel=1e-14)
        assert a.y == pytest.approx(25.0 / 288.0, rel=1e-14)

    def test_empty_neighborhood_returns_zero(self):
        j = HAND_SCENE[0]
        assert cohesion(j, []) == Vec2(0.0, 0.0)
        assert separation(j, [], 2.0) == Vec2(0.0, 0.0)
        assert alignment(j, []) == Vec2(0.0, 0.0)


class TestNeighborhood:
    def test_excludes_self_and_respects_species(self):
        bodies = [boid(0, 0, 0), boid(1, 1, 0), boid(2, 2, 0, species=1)]
        state = world(bodies, SpeciesParams(), SpeciesParams())
        assert neighborhood(state, 0, same_species=True) == [1]
        assert neighborhood(state, 0, same_species=False) == [2]

    def test_radius_boundary_is_inclusive(self):
        bodies = [boid(0, 0, 0), boid(1, 10, 0), boid(2, 10.001, 0)]
        box = AABB(Vec2(-20.0, -20.0), Vec2(20.0, 20.0))
        state = world(bodies, SpeciesParams(neighbor_radius=10.0), box=box)
        assert neighborhood(state, 0, same_species=True) == [1]

    def test_radius_comes_from_the_boid_species(self):
        bodies = [boid(0, 0, 0), boid(1, 5, 0, species=1)]
        near = SpeciesParams(neighbor_radius=2.0)
        far = SpeciesParams(neighbor_radius=10.0)
        state = world(bodies, near, far)
        assert neighborhood(state, 0, same_species=False) == []
        assert neighborhood(state, 1, same_species=False) == [0]


class TestStepVelocity:
    def test_hand_scene_update(self):
        state = world(HAND_SCENE, UNIT_COEFFS)
        v = step_velocity(state, 0)
        assert v.x == pytest.approx(20449.0 / 7200.0, rel=1e-13)
        assert v.y == pytest.approx(10543.0 / 7200.0, rel=1e-13)

    def test_matches_composition_of_contract_functions(self):
        # The fused loop documents itself as float-for-float equal to mixing
        # the three steering functions; hold it to that, bit for bit.
        species_a = SpeciesParams(alpha=0.9, beta=0.4, gamma=0.7, delta=0.2,
                                  inter_species_gamma=1.5, neighbor_radius=8.0,
                                  max_speed=1e9)
        species_b = SpeciesParams(alpha=1.1, beta=0.2, gamma=0.3, delta=0.6,
                                  inter_species_gamma=0.5, neighbor_radius=6.0,
                                  max_speed=1e9)
        bodies = clustered_bodies([(40.0, 40.0)], 14, 6.0, seed=5, box=BOX_100)
        bodies = [Body(b.id, b.id % 2, b.position,
                       Vec2(0.1 * b.id, -0.05 * b.id), 1.0) for b in bodies]
        state = make_world(bodies, SimParams(box=BOX_100,
                                             species=(species_a, species_b)))
        for j in sorted(by_id(state)):
            body = by_id(state)[j]
            sp = state.params.species[body.species]
            same = [by_id(state)[i] for i in neighborhood(state, j, True)]
            other = [by_id(state)[i] for i in neighborhood(state, j, False)]
            c = cohesion(body, same, state.params.cohesion_mode)
            s = separation(body, same, 1.0)
            a = alignment(body, same)
            o = separation(body, other, 1.0)
            want = Vec2(sp.alpha * body.velocity.x + sp.beta * c.x
                        + sp.gamma * s.x + sp.delta * a.x
                        + sp.inter_species_gamma * o.x,
                        sp.alpha * body.velocity.y + sp.beta * c.y
                        + sp.gamma * s.y + sp.delta * a.y
                        + sp.inter_species_gamma * o.y)
            assert step_velocity(state, j) == want

    def test_lone_boid_keeps_alpha_scaled_velocity(self):
        state = world([boid(0, 1, 1, vx=0.5, vy=-0.25)],
                      SpeciesParams(alpha=0.8, max_speed=10.0))
        assert step_velocity(state, 0) == Vec2(0.8 * 0.5, 0.8 * -0.25)

    def test_speed_clamp_holds_exactly(self):
        crowd = clustered_bodies([(50.0, 50.0)], 40, 3.0, seed=8, box=BOX_100)
        sp = SpeciesParams(beta=5.0, gamma=4.0, max_speed=0.75)
        state = make_world(crowd, SimParams(box=BOX_100, species=(sp,)))
        limit2 = sp.max_speed * sp.max_speed
        clamped = 0
        for j in sorted(by_id(state)):
            v = step_velocity(state, j)
            assert v.x * v.x + v.y * v.y <= limit2
            if v.x * v.x + v.y * v.y >= limit2 * 0.999:
                clamped += 1
        assert clamped > 0  # the scene actually exercises the clamp

    def test_clamp_preserves_direction(self):
        free_sp = SpeciesParams(beta=5.0, gamma=4.0, max_speed=1e12)
        tight_sp = SpeciesParams(beta=5.0, gamma=4.0, max_speed=0.75)
        crowd = clustered_bodies([(50.0, 50.0)], 30, 3.0, seed=9, box=BOX_100)
        free = make_world(crowd, SimParams(box=BOX_100, species=(free_sp,)))
        tight = make_world(crowd, SimParams(box=BOX_100, species=(tight_sp,)))
        for j in sorted(by_id(free)):
            a = step_velocity(free, j)
            c = step_velocity(tight, j)
            na = math.hypot(a.x, a.y)
            nc = math.hypot(c.x, c.y)
            if na == 0.0 or nc == 0.0:
                continue
            cosine = (a.x * c.x + a.y * c.y) / (na * nc)
            assert cosine >= 1.0 - 1e-10

    def test_coincident_boids_raise_with_pair(self):
        state = world([boid(0, 1, 1), boid(1, 1, 1)])
        with pytest.raises(ZeroDistanceError) as err:
            step_velocity(state, 0)
        assert set(err.value.pair) == {0, 1}


class TestStepWorld:
    def test_update_is_synchronous(self):
        # B's alignment must see A's old velocity, not the one A just got.
        sp = SpeciesParams(alpha=1.0, beta=0.0, gamma=0.0, delta=1.0,
                           neighbor_radius=10.0, max_speed=50.0)
        state = world([boid(0, 0, 0), boid(1, 2, 0, vx=6.0)], sp)
        after = step_world(state)
        assert by_id(after)[0].velocity == Vec2(1.5, 0.0)
        assert by_id(after)[1].velocity == Vec2(6.0, 0.0)

    def test_positions_move_by_dt_times_new_velocity(self):
        sp = SpeciesParams(alpha=1.0, beta=0.0, gamma=0.0, delta=0.0,
                           max_speed=50.0)
        state = world([boid(0, 1, 1, vx=4.0, vy=-2.0)], sp, dt=0.25)
        after = step_world(state)
        assert by_id(after)[0].position == Vec2(2.0, 0.5)
        assert after.step == 1

    def test_reflect_folds_and_negates(self):
        sp = SpeciesParams(alpha=1.0, beta=0.0, gamma=0.0, delta=0.0,
                           max_speed=50.0)
        state = world([boid(0, 99, 50, vx=40.0)], sp, box=BOX_100, dt=0.1)
        after = step_world(state)
        assert by_id(after)[0].position == Vec2(97.0, 50.0)
        assert by_id(after)[0].velocity == Vec2(-40.0, 0.0)

    def test_reflect_corner_hits_both_axes(self):
        sp = SpeciesParams(alpha=1.0, beta=0.0, gamma=0.0, delta=0.0,
                           max_speed=80.0)
        state = world([boid(0, 99, 99, vx=40.0, vy=40.0)], sp, box=BOX_100, dt=0.1)
        after = step_world(state)
        assert by_id(after)[0].position == Vec2(97.0, 97.0)
        assert by_id(after)[0].velocity == Vec2(-40.0, -40.0)

    def test_reflect_survives_multiple_folds(self):
        sp = SpeciesParams(alpha=1.0, beta=0.0, gamma=0.0, delta=0.0,
                           max_speed=6000.0)
        state = world([boid(0, 50, 50, vx=5000.0)], sp, box=BOX_100, dt=0.1)
        after = step_world(state)
        assert by_id(after)[0].position == Vec2(50.0, 50.0)
        assert by_id(after)[0].velocity == Vec2(-5000.0, 0.0)

    def test_wrap_translates_periodically(self):
        sp = SpeciesParams(alpha=1.0, beta=0.0, gamma=0.0, delta=0.0,
                           max_speed=50.0)
        state = world([boid(0, 99, 50, vx=40.0)], sp, box=BOX_100, dt=0.1,
                      boundary=BOUNDARY_WRAP)
        after = step_world(state)
        assert by_id(after)[0].position == Vec2(3.0, 50.0)
        assert by_id(after)[0].velocity == Vec2(40.0, 0.0)

    def test_positions_stay_inside_reflecting_box(self):
        bodies = clustered_bodies([(20.0, 20.0), (80.0, 80.0)], 25, 8.0, seed=4)
        state = make_world(bodies, SimParams(box=BOX_100,
                                             species=(SpeciesParams(),)))
        for _ in range(40):
            state = step_world(state)
        for b in state.bodies:
            assert BOX_100.contains(b.position)

    def test_tree_tracks_moved_bodies(self):
        bodies = clustered_bodies([(30.0, 30.0)], 12, 5.0, seed=6)
        state = make_world(bodies, SimParams(box=BOX_100,
                                             species=(SpeciesParams(),)))
        after = step_world(state)
        assert after.tree.bodies == after.bodies
        assert after.tree.root.count == len(bodies)

    def test_collision_mid_run_raises(self):
        state = world([boid(0, 1, 1), boid(1, 1, 1)])
        with pytest.raises(ZeroDistanceError):
            step_world(state)


class TestFlockStability:
    def test_two_flocks_neither_merge_nor_scatter(self):
        bodies = clustered_bodies([(25.0, 25.0), (75.0, 75.0)], 30, 6.0, seed=12)
        sp = SpeciesParams(max_speed=1.0)
        state = make_world(bodies, SimParams(box=BOX_100, species=(sp,)))
        for _ in range(100):
            state = step_world(state)
        first = [by_id(state)[i].position for i in range(30)]
        second = [by_id(state)[i].position for i in range(30, 60)]

        def centroid(points):
            return Vec2(sum(p.x for p in points) / len(points),
                        sum(p.y for p in points) / len(points))

        ca = centroid(first)
        cb = centroid(second)
        assert math.hypot(ca.x - cb.x, ca.y - cb.y) > 30.0
        for p in first:
            assert math.hypot(p.x - ca.x, p.y - ca.y) < 25.0
        for p in second:
            assert math.hypot(p.x - cb.x, p.y - cb.y) < 25.0


class TestValidation:
    def test_species_params_reject_bad_limits(self):
        with pytest.raises(ValueError):
            SpeciesParams(neighbor_radius=0.0)
        with pytest.raises(ValueError):
            SpeciesParams(max_speed=0.0)

    def test_sim_params_reject_bad_settings(self):
        with pytest.raises(ValueError):
            SimParams(box=BOX_100, species=())
        with pytest.raises(ValueError):
            SimParams(box=BOX_100, species=(SpeciesParams(),), dt=0.0)
        with pytest.raises(ValueError):
            SimParams(box=BOX_100, species=(SpeciesParams(),), boundary="stick")
        with pytest.raises(ValueError):
            SimParams(box=BOX_100, species=(SpeciesParams(),), cohesion_mode="odd")

    def test_unknown_species_index_rejected(self):
        with pytest.raises(ValueError):
            world([boid(0, 0, 0, species=3)])


def bits(state):
    """Every body's exact state, -0.0 told apart from 0.0."""
    return [(b.id, b.species, b.position.x.hex(), b.position.y.hex(),
             b.velocity.x.hex(), b.velocity.y.hex()) for b in state.bodies]


def outcome(fn):
    """A step's exact bits, or the pair a ZeroDistanceError names."""
    try:
        return bits(fn())
    except ZeroDistanceError as err:
        return ("zero distance", err.pair)


def config_world(config):
    return make_world(place_bodies(config), config.sim_params(), config.seed)


def assert_steps_match_the_scalar_loop(state, steps):
    for _ in range(steps):
        want = step_world_loop(state)
        state = step_world(state)
        assert bits(state) == bits(want)
    return state


# The flock benchmark's scene: configs/three_species.json scaled to 3 x 400
# boids in disks of radius 20, the shipped density.
FLOCK_SCENE = {
    "seed": 11,
    "world": {"box": [[0.0, 0.0], [100.0, 100.0]], "capacity": 10, "dt": 0.1},
    "species": [{"name": name, "count": 400, "center": center, "radius": 20.0, "seed": seed}
                for name, center, seed in (("amber", [30.0, 30.0], 1),
                                           ("teal", [70.0, 30.0], 2),
                                           ("plum", [50.0, 72.0], 3))],
    "detection": {"depth": 5},
}


class TestBatchedStepEqualsScalarLoop:
    @pytest.mark.parametrize("name", ["three_species", "two_flocks"])
    def test_committed_configs_for_200_steps(self, name):
        state = config_world(load_config(CONFIG_DIR / f"{name}.json"))
        assert_steps_match_the_scalar_loop(state, 200)

    def test_flock_benchmark_scene(self):
        assert_steps_match_the_scalar_loop(config_world(config_from_dict(FLOCK_SCENE)), 20)

    def test_block_and_chunk_sizes_do_not_change_the_bits(self, monkeypatch):
        state = config_world(load_config(CONFIG_DIR / "three_species.json"))
        for _ in range(5):
            state = step_world(state)
        want = bits(step_world_loop(state))
        for pairs, terms in ((1, 1), (7, 3), (64, 50), (512, 10 ** 9), (10 ** 9, 64)):
            monkeypatch.setattr(ntree, "_BLOCK_PAIRS", pairs)
            monkeypatch.setattr(ntree, "_CHUNK_TERMS", terms)
            assert bits(step_world(state)) == want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 3), st.sampled_from(COHESION_MODES),
           st.sampled_from(BOUNDARY_POLICIES), st.sampled_from([1, 3, 10]),
           st.sampled_from([(1, 1), (5, 7), (64, 200), (8192, 4096)]))
    def test_random_scenes(self, seed, n_species, mode, boundary, capacity, sizes):
        rng = random.Random(seed)
        species = tuple(SpeciesParams(
            alpha=rng.uniform(0.5, 1.2), beta=rng.uniform(0.0, 2.0),
            gamma=rng.uniform(0.0, 2.0), delta=rng.uniform(0.0, 1.0),
            inter_species_gamma=rng.uniform(0.0, 3.0),
            neighbor_radius=rng.choice([0.5, 4.0, 15.0, 60.0]),
            max_speed=rng.choice([0.05, 1.0, 1e9])) for _ in range(n_species))
        bodies = [boid(i, rng.uniform(35.0, 65.0), rng.uniform(35.0, 65.0),
                       rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                       species=rng.randrange(n_species))
                  for i in range(rng.randrange(1, 120))]
        bodies.append(boid(len(bodies), 0.5, 99.5, species=rng.randrange(n_species)))  # isolated
        if rng.random() < 0.2:  # a coincident pair, or one whose distance^3 underflows
            a = rng.choice(bodies[:-1])
            bodies.append(boid(len(bodies), a.position.x + rng.choice([0.0, 1e-110]),
                               a.position.y, species=rng.randrange(n_species)))
        state = make_world(bodies, SimParams(box=BOX_100, species=species, capacity=capacity,
                                             boundary=boundary, cohesion_mode=mode))
        pairs, terms = sizes
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ntree, "_BLOCK_PAIRS", pairs)
            mp.setattr(ntree, "_CHUNK_TERMS", terms)
            for _ in range(3):
                want = outcome(lambda: step_world_loop(state))
                assert outcome(lambda: step_world(state)) == want
                if want[0] == "zero distance":
                    break
                state = step_world(state)

    def test_active_clamp_and_lone_boids_are_covered(self):
        # A tight cap on a crowd makes the clamp and its ulp nudges run; two
        # far-apart boids have no neighbours at all.
        crowd = clustered_bodies([(50.0, 50.0)], 60, 3.0, seed=8, box=BOX_100)
        crowd += [boid(60, 2.0, 2.0, vx=0.3), boid(61, 97.0, 97.0, vy=-0.2)]
        sp = SpeciesParams(beta=5.0, gamma=4.0, max_speed=0.75)
        state = make_world(crowd, SimParams(box=BOX_100, species=(sp,)))
        after = assert_steps_match_the_scalar_loop(state, 3)
        speeds = [b.velocity.x ** 2 + b.velocity.y ** 2 for b in after.bodies]
        assert max(speeds) <= 0.75 ** 2
        assert sum(s >= 0.75 ** 2 * 0.999 for s in speeds) > 10


class TestUnresolvablePairs:
    def test_underflowing_pair_raises_with_the_pair(self):
        # d^2 = 1e-220 is positive but d^3 underflows to 0.
        state = world([boid(0, 0, 0), boid(1, 1e-110, 0)])
        for step in (step_world, step_world_loop):
            with pytest.raises(ZeroDistanceError) as err:
                step(state)
            assert err.value.pair == (0, 1)

    def test_the_first_pair_of_the_scalar_loop_is_reported(self):
        # Boid 3 meets an underflowing other-species pair (7) and an
        # underflowing same-species pair (8); boids 5 and 9 coincide.  The
        # scalar loop meets boid 3 first, and its same-species list first.
        bodies = [boid(i, 3.0 * (i % 4) - 5.0, 3.0 * (i // 4) - 5.0) for i in range(12)]
        bodies[3] = boid(3, 1.0, 1.0)
        bodies[7] = boid(7, 1.0 + 1e-110, 1.0, species=1)
        bodies[8] = boid(8, 1.0, 1.0 + 1e-110)
        bodies[9] = boid(9, bodies[5].position.x, bodies[5].position.y)
        state = world(bodies, SpeciesParams(), SpeciesParams())
        for step in (step_world, step_world_loop):
            with pytest.raises(ZeroDistanceError) as err:
                step(state)
            assert err.value.pair == (3, 8)

    def test_cli_reports_an_underflowing_pair_with_exit_2(self, tmp_path, capsys):
        # A disk of radius 1e-110 around the origin: boids are distinct but
        # their distance cubed is 0.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seed": 1, "world": {"box": [[-1.0, -1.0], [1.0, 1.0]]},
            "species": [{"name": "dust", "count": 2, "center": [0.0, 0.0],
                         "radius": 1e-110, "seed": 5}]}), encoding="utf-8")
        code = main(["simulate", "--config", str(cfg), "--steps", "2",
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "at step 1" in err and "underflows" in err
        assert "Traceback" not in err


def boundary_inputs(rng, lo, hi):
    """Positions inside [lo, hi], on its walls, 1 fold, 2-64 folds, more than
    64 folds and up to 1e300 box widths outside, with signed-zero velocities."""
    w = hi - lo
    xs = [lo, hi, lo + rng.random() * w, 0.0 if lo <= 0.0 <= hi else lo,
          -0.0 if lo <= 0.0 <= hi else hi]
    for widths in (rng.random(), rng.uniform(1.0, 63.0), rng.uniform(64.0, 1e4),
                   10.0 ** rng.uniform(4.0, 300.0)):
        xs += [hi + widths * w, lo - widths * w]
    vs = [rng.choice([0.0, -0.0, 1.5, -2.25, rng.uniform(-5.0, 5.0)]) for _ in xs]
    rng.shuffle(xs)
    return np.array(xs), np.array(vs)


def hexes(*columns):
    return [tuple(v.hex() for v in row) for row in zip(*(c.tolist() for c in columns))]


@pytest.mark.parametrize("lo, hi", [(0.0, 100.0), (-10.0, 10.0), (-0.0, 1.0), (0.1, 97.3),
                                    (-8.3, 24.1), (-1e-300, 3e-300)])
def test_numpy_boundaries_equal_the_scalar_folds_bit_for_bit(lo, hi):
    rng = random.Random(f"{lo} {hi}")
    for _ in range(200):
        xs, vs = boundary_inputs(rng, lo, hi)
        want = [reflect_fold(x, v, lo, hi) for x, v in zip(xs.tolist(), vs.tolist())]
        assert hexes(*boids._reflect(xs, vs, lo, hi)) == hexes(*map(np.array, zip(*want)))
        want = [wrap_mod(x, lo, hi) for x in xs.tolist()]
        assert hexes(boids._wrap(xs, lo, hi)) == hexes(np.array(want))


class TestFarJumps:
    def test_reflect_folds_a_huge_jump_in_closed_form(self):
        # x = 50 + 1e300 * 5 would take ~1e298 single folds.  Reflection in
        # [0, 100] has period 200, and here the fold is exact in floats.
        sp = SpeciesParams(alpha=1.0, beta=0.0, gamma=0.0, delta=0.0, max_speed=10.0)
        state = world([boid(0, 50, 50, vx=5.0)], sp, box=BOX_100, dt=1e300)
        after = by_id(step_world(state))[0]
        x = 50.0 + 1e300 * 5.0
        u = Fraction(x) % 200
        want = (u, 5.0) if u <= 100 else (200 - u, -5.0)
        assert (Fraction(after.position.x), after.velocity.x) == want
        assert after.position.y == 50.0 and after.velocity.y == 0.0

    def test_non_finite_displacement_names_the_body(self):
        sp = SpeciesParams(alpha=1.0, beta=0.0, gamma=0.0, delta=0.0, max_speed=1e12)
        state = world([boid(0, 50, 50), boid(4, 20, 20, vy=1e10)], sp, box=BOX_100, dt=1e300)
        with pytest.raises(DynamicsError, match="boid 4 moves by a non-finite displacement"):
            step_world(state)

    def test_cli_folds_huge_jumps_with_dt_1e300(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seed": 3, "world": {"box": [[0.0, 0.0], [100.0, 100.0]], "dt": 1e300},
            "species": [{"name": "a", "count": 30, "center": [50.0, 50.0],
                         "radius": 10.0, "seed": 7}]}), encoding="utf-8")
        assert main(["simulate", "--config", str(cfg), "--steps", "1",
                     "--out", str(tmp_path / "out")]) == 0
        last = json.loads((tmp_path / "out" / "trace.jsonl").read_text().splitlines()[-1])
        assert last["step"] == 1
        assert all(0.0 <= b[k] <= 100.0 for b in last["bodies"] for k in "xy")
