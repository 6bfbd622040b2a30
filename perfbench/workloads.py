"""The three workloads: input generation, set-up, the op, its probes and checks.

Every workload runs in rounds.  A round calls `setup` (timed as set-up),
then `op` for i = 0 .. ops_per_round - 1, then `close`.  After each op,
`setups_per_op` spare set-ups are timed and closed at once, so set-up is
sampled all through the run and not only at round starts.  Rounds of one
run are identical, so per-op figures do not depend on how many rounds fit
into the run.  The constructor generates the inputs from the seed; it is not
timed.  The program only ever receives what the constructor generated.

Calls into orgtree go through module attributes (`ntree.build_tree`, not a
name imported from it), so the wrappers of a traced op see them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import statistics
import time
from pathlib import Path

from orgtree import boids, detect, kernels, metrics, ntree, run, trace
from orgtree.config import config_from_dict


def tree_shape(tree) -> dict[str, int]:
    """Node, leaf, depth and over-capacity counts through the public `leaves()`.

    Every internal node has exactly four children, so a tree with L leaves
    has (4L - 1) / 3 nodes.
    """
    leaves = tree.leaves()
    return {
        "ntree.nodes": (4 * len(leaves) - 1) // 3,
        "ntree.leaves": len(leaves),
        "ntree.depth_max": max(leaf.coord.depth for leaf in leaves),
        "ntree.overfull_leaves": sum(1 for leaf in leaves if leaf.count > tree.capacity),
    }


def count_tree(tracer, tree) -> None:
    for name, value in tree_shape(tree).items():
        tracer.count(name, value)


def _seed_from(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


class Workload:
    """Defaults for the hooks a workload may leave out."""

    setups_per_op = 1  # spare set-ups timed after each op

    def probe(self, ctx, i: int, out, tracer) -> None:
        """Traced ops only: extra counts and probe spans, outside the op span."""

    def close(self, ctx) -> None:
        pass

    def check_run(self) -> list[str]:
        """Whole-run output checks; returns one message per failed check."""
        return []

    def layer_probes(self) -> dict[str, float]:
        """Traced runs only: per-layer figures measured apart from the ops."""
        return {}


class Flock(Workload):
    """`simulate` on three_species.json scaled to 3 x 400 boids at radius 20.

    The shipped scene places 100 boids per species in a disk of radius 10;
    400 in radius 20 keeps that density.  One op is one frame: step the world,
    detect organizations, serialise the frame and write the line.  A round
    is one episode of FRAMES frames from the initial state, so the run length
    per episode is fixed even though steps get dearer as flocks contract.
    """

    name = "flock"
    FRAMES = 40
    CHECKED_STEPS = 3
    SPECIES = (("amber", (30.0, 30.0)), ("teal", (70.0, 30.0)), ("plum", (50.0, 72.0)))

    def __init__(self, seed: int, work_dir: Path) -> None:
        rng = random.Random(seed)
        self.config_dict = {
            "seed": _seed_from(rng),
            "world": {"box": [[0.0, 0.0], [100.0, 100.0]], "capacity": 10,
                      "max_depth": 24, "dt": 0.1},
            "species": [{"name": name, "count": 400, "center": list(center),
                         "radius": 20.0, "seed": _seed_from(rng)}
                        for name, center in self.SPECIES],
            "detection": {"depth": 5, "min_org_size": 1},
            "output": {"frame_every": 1, "svg_every": 0, "metrics": False},
        }
        self.ops_per_round = self.FRAMES
        self.work_dir = work_dir
        self.setups = 0
        self.reference_dir = work_dir / "reference"
        self.reference: list[str] | None = None
        self.first_episode: dict[int, str] = {}

    @staticmethod
    def _frame_line(config, state) -> str:
        orgs = run.detect_organizations(state.tree, config.detection.depth,
                                        config.detection.min_org_size,
                                        seed=config.seed + state.step)
        return trace.dumps_canonical(trace.frame_to_dict(
            trace.Frame(step=state.step, bodies=state.bodies,
                        organizations=tuple(orgs))))

    def setup(self):
        config = config_from_dict(self.config_dict)
        state = boids.make_world(run.place_bodies(config), config.sim_params(), config.seed)
        head = [trace.dumps_canonical(trace.header_dict(config.to_dict())),
                self._frame_line(config, state)]
        self.setups += 1  # a spare set-up must not clobber the round's file
        path = self.work_dir / f"flock-{self.setups}.jsonl"
        fh = open(path, "w", encoding="utf-8")
        fh.write("".join(line + "\n" for line in head))
        return {"config": config, "state": state, "fh": fh, "head": head, "path": path}

    def op(self, ctx, i: int) -> str:
        ctx["state"] = boids.step_world(ctx["state"])
        line = self._frame_line(ctx["config"], ctx["state"])
        ctx["fh"].write(line + "\n")
        return line

    def check_op(self, ctx, i: int, line: str) -> bool:
        if self.reference is None:
            # The expected first frames come from the program's `simulate` path.
            path = run.run_simulation(config_from_dict(self.config_dict),
                                      self.reference_dir, self.CHECKED_STEPS)
            self.reference = path.read_text(encoding="utf-8").splitlines()
        # Header and frame 0 are checked with the first op of each episode.
        if i == 0 and ctx["head"] != self.reference[:2]:
            return False
        if i + 2 < len(self.reference):
            return line == self.reference[i + 2]
        return self.first_episode.setdefault(i, line) == line

    def probe(self, ctx, i: int, line: str, tracer) -> None:
        """Radius queries for every boid at its species radius, on the op's state."""
        state = ctx["state"]
        species = state.params.species
        with tracer.span("probe.ntree.query_radius_bodies"):
            hits = [len(state.tree.query_radius_bodies(b.position,
                                                       species[b.species].neighbor_radius))
                    for b in state.bodies]
        tracer.count("ntree.queries", len(hits))
        tracer.count("ntree.query_hits", sum(hits))
        tracer.count("boids.pairs", sum(hits) - len(hits))  # each boid finds itself
        count_tree(tracer, state.tree)

    def close(self, ctx) -> None:
        ctx["fh"].close()
        ctx["path"].unlink()


def field_config(n: int, seed: int) -> dict:
    """configs/field_1000.json with n bodies: a uniform disk filling the unit box."""
    return {
        "seed": seed,
        "world": {"box": [[0.0, 0.0], [1.0, 1.0]], "capacity": 10},
        "species": [{"name": "mass", "count": n, "center": [0.5, 0.5],
                     "radius": 0.5, "seed": seed, "charge": 1.0}],
        "kernels": {"mode": "gravity", "constant": 1.0, "theta": 0.5, "softening": 0.0},
    }


def _place(config_dict):
    config = config_from_dict(config_dict)
    return config, run.place_bodies(config)


def _build(config, bodies):
    return ntree.build_tree(bodies, config.world_box(), config.world.capacity,
                            config.world.max_depth)


class Field(Workload):
    """Barnes-Hut fields of 8,000 bodies at theta 0.5.  One op is build + tree_fields."""

    name = "field"
    setups_per_op = 3
    BODIES = 8000
    EXACT_BODIES = 400     # sub-scene for the theta = 0 bitwise check
    ERROR_SAMPLE = 100     # targets checked against the direct sum
    ERROR_LIMIT = 2e-2
    GROWTH_SIZES = (2000, 4000, 8000)
    GROWTH_REPEATS = 3
    DIRECT_BODIES = 2000

    def __init__(self, seed: int, work_dir: Path) -> None:
        rng = random.Random(seed)
        self.scene_seed = _seed_from(rng)
        self.config_dict = field_config(self.BODIES, self.scene_seed)
        self.sample = sorted(rng.sample(range(self.BODIES), self.ERROR_SAMPLE))
        self.ops_per_round = 1
        self.first: list | None = None
        self.max_rel_error: float | None = None

    def setup(self):
        config, bodies = _place(self.config_dict)
        _build(config, bodies)
        return {"config": config, "bodies": bodies, "params": config.kernel_params()}

    def op(self, ctx, i: int):
        tree = _build(ctx["config"], ctx["bodies"])
        return tree, kernels.tree_fields(tree, ctx["params"])

    def check_op(self, ctx, i: int, out) -> bool:
        if self.first is None:
            self.first = out[1]
        return out[1] == self.first

    def probe(self, ctx, i: int, out, tracer) -> None:
        count_tree(tracer, out[0])

    def check_run(self) -> list[str]:
        if self.first is None:
            return ["field: no op completed"]
        failures = []
        config, bodies = _place(self.config_dict)
        params = config.kernel_params()
        sub = bodies[:self.EXACT_BODIES]
        exact = dataclasses.replace(params, theta=0.0)
        hexed = [(v.x.hex(), v.y.hex()) for v in kernels.tree_fields(_build(config, sub), exact)]
        if hexed != [(v.x.hex(), v.y.hex()) for v in kernels.direct_fields(sub, exact)]:
            failures.append("field: theta = 0 differs from direct_fields")
        direct = [kernels.direct_field(bodies, i, params) for i in self.sample]
        scale = math.sqrt(math.fsum(d.x * d.x + d.y * d.y for d in direct) / len(direct))
        self.max_rel_error = max(
            math.hypot(self.first[i].x - d.x, self.first[i].y - d.y)
            for i, d in zip(self.sample, direct)) / scale
        if not self.max_rel_error <= self.ERROR_LIMIT:
            failures.append(f"field: max relative error {self.max_rel_error} "
                            f"exceeds {self.ERROR_LIMIT}")
        return failures

    def layer_probes(self) -> dict[str, float]:
        """Scaling margin of tree_fields and the cost of the direct reference."""
        ratios = []
        for _ in range(self.GROWTH_REPEATS):
            times = []
            for n in self.GROWTH_SIZES:
                config, bodies = _place(field_config(n, self.scene_seed))
                params = config.kernel_params()
                t0 = time.perf_counter()
                kernels.tree_fields(_build(config, bodies), params)
                times.append(time.perf_counter() - t0)
            ratios.append(max(b / a for a, b in zip(times, times[1:])))
        config, bodies = _place(field_config(self.DIRECT_BODIES, self.scene_seed))
        t0 = time.perf_counter()
        kernels.direct_fields(bodies, config.kernel_params())
        direct_s = time.perf_counter() - t0
        return {
            "kernels.growth_per_doubling": statistics.median(ratios),
            "kernels.growth_spread": max(ratios) - min(ratios),
            "kernels.direct_ms": direct_s * 1000.0,
            "kernels.field_max_rel_error": self.max_rel_error,
        }


class Organize(Workload):
    """Offline analysis of a generated trace: one op analyses one frame.

    Each frame holds 2,400 bodies in 3 seeded blobs of radius 5-9, with leaf
    capacity 2 and cut depth 5.  A round visits every frame once.
    """

    name = "organize"
    setups_per_op = 2
    FRAMES = 4
    BLOBS = 3
    PER_BLOB = 800

    def __init__(self, seed: int, work_dir: Path) -> None:
        rng = random.Random(seed)
        frames = [self._blobs(rng) for _ in range(self.FRAMES)]
        header = {"version": 1, "config": {
            "seed": _seed_from(rng),
            "world": {"box": [[0.0, 0.0], [100.0, 100.0]], "capacity": 2},
            "species": [{"name": f"blob{k}", "count": self.PER_BLOB,
                         "center": [cx, cy], "radius": r, "seed": _seed_from(rng)}
                        for k, (cx, cy, r, _) in enumerate(frames[0])],
            "detection": {"depth": 5, "min_org_size": 1},
        }}
        self.trace_path = work_dir / "organize.jsonl"
        with open(self.trace_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for step, blobs in enumerate(frames):
                points = [(k, x, y) for k, (_, _, _, pts) in enumerate(blobs) for x, y in pts]
                bodies = [{"id": i, "species": k, "x": x, "y": y, "vx": 0.0, "vy": 0.0}
                          for i, (k, x, y) in enumerate(points)]
                fh.write(json.dumps({"step": step, "bodies": bodies, "organizations": []},
                                    sort_keys=True) + "\n")
        self.ops_per_round = self.FRAMES
        self.first: dict[int, tuple] = {}

    def _blobs(self, rng: random.Random):
        blobs = []
        # One radius from each third of 5-9, so every frame mixes small and large blobs.
        for k in range(self.BLOBS):
            r = 5.0 + 4.0 * (k + rng.random()) / self.BLOBS
            cx = rng.uniform(r + 5.0, 95.0 - r)
            cy = rng.uniform(r + 5.0, 95.0 - r)
            pts = []
            for _ in range(self.PER_BLOB):
                d = r * math.sqrt(rng.random())
                a = 2.0 * math.pi * rng.random()
                pts.append((cx + d * math.cos(a), cy + d * math.sin(a)))
            blobs.append((cx, cy, r, pts))
        return blobs

    def setup(self):
        data = trace.read_trace(self.trace_path)
        config = config_from_dict(data.header["config"])
        _build(config, trace.bodies_from_frame_dict(data.frame_at(0)))
        return {"config": config}

    def op(self, ctx, i: int):
        config = ctx["config"]
        data = trace.read_trace(self.trace_path)
        bodies = trace.bodies_from_frame_dict(data.frame_at(i))
        tree = _build(config, bodies)
        cut = detect.CellSet.from_tree(tree, config.detection.depth)
        groups = detect.group_cells2(cut, tree, seed=config.seed + i)
        orgs = detect.organizations_from(groups, tree)
        graph = metrics.interaction_graph(bodies)
        q = metrics.modularity(graph, metrics.organization_partition(orgs, len(bodies)))
        return tree, orgs, q

    def check_op(self, ctx, i: int, out) -> bool:
        return self.first.setdefault(i, out[1:]) == out[1:]

    def probe(self, ctx, i: int, out, tracer) -> None:
        count_tree(tracer, out[0])

    def check_run(self) -> list[str]:
        failures = []
        data = trace.read_trace(self.trace_path)
        config = config_from_dict(data.header["config"])
        bodies = trace.bodies_from_frame_dict(data.frame_at(0))
        tree = _build(config, bodies)
        cut = detect.CellSet.from_tree(tree, config.detection.depth)
        if set(detect.group_cells(cut)) != set(detect.group_cells2(cut, tree)):
            failures.append("organize: group_cells2 partition differs from group_cells")
        q = metrics.modularity(metrics.interaction_graph(bodies), [list(range(len(bodies)))])
        if q != 0.0:
            failures.append(f"organize: all-covering partition scores {q!r}, not 0.0")
        return failures


WORKLOADS = {w.name: w for w in (Flock, Field, Organize)}
