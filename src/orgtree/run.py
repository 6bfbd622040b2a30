"""Run orchestration: placement, the simulate loop, offline detection, field runs."""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any

import numpy as np

from .boids import WorldState, make_world, step_world
from .config import Config, config_from_dict
from .detect import CellSet, Organization, group_cells2, organizations_from
from .errors import ConfigError, DynamicsError
from .geometry import Vec2
from .kernels import MODE_GRAVITY, direct_fields, tree_fields
from .metrics import interaction_graph, modularity, organization_partition
from .ntree import Bodies, NTree, build_tree
from .svg import render_svg
from .trace import (Frame, bodies_from_frame_dict, dumps_canonical,
                    frame_to_dict, header_dict, organization_from_dict,
                    organization_to_dict, read_trace)

TRACE_NAME = "trace.jsonl"
FIELD_NAME = "field.jsonl"
# field_run's direct sum is O(N^2) Python: 1.1-1.5 s at 2,048 bodies and 6.3 s
# at 4,096 on one core of a 2-vCPU Xeon host, so about 4.5-7 minutes at 2^15.
FIELD_MAX_BODIES = 2 ** 15


def place_bodies(config: Config) -> Bodies:
    """Per-species uniform disk placement, driven by each species' own seed.

    Each body takes two `random.Random(sp.seed).random()` draws, radius
    first, made as whole columns: one getrandbits call gives the generator's
    32-bit words in order, and each pair (a, b) is CPython's draw
    ((a >> 5) * 2**26 + (b >> 6)) / 2**53, exact in float64.  cos and sin stay
    on math's libm functions, which numpy's need not equal.  Bodies get
    sequential ids across species in declaration order and start at rest.
    """
    x, y = [], []
    for sp in config.species:
        n = 2 * sp.count  # uniforms
        words = random.Random(sp.seed).getrandbits(64 * n).to_bytes(8 * n, "little")
        a, b = np.frombuffer(words, "<u4").reshape(-1, 2).T
        u = ((a >> 5) * 67108864.0 + (b >> 6)) / 9007199254740992.0
        r, angle = sp.radius * np.sqrt(u[0::2]), ((2.0 * math.pi) * u[1::2]).tolist()
        x.append(sp.center[0] + r * np.fromiter(map(math.cos, angle), float, sp.count))
        y.append(sp.center[1] + r * np.fromiter(map(math.sin, angle), float, sp.count))
    counts = [sp.count for sp in config.species]
    at_rest = np.zeros(sum(counts))
    return Bodies(np.arange(len(at_rest)), np.repeat(np.arange(len(counts)), counts),
                  np.concatenate(x), np.concatenate(y), at_rest, at_rest,
                  np.repeat([sp.charge for sp in config.species], counts))


def detect_organizations(tree: NTree, depth: int, min_org_size: int = 1,
                         seed: int = 0) -> list[Organization]:
    """Depth cut, grouping (group_cells2), then materialization and size filtering.

    min_org_size drops groups with fewer cells, a noise filter that applies
    uniformly to traces, offline detection, and SVGs so the three always
    agree.  `seed` is not read; it stays for callers that still pass it.
    """
    cells = CellSet.from_tree(tree, depth)
    groups = group_cells2(cells, tree)
    kept = [g for g in groups if len(g) >= min_org_size]
    return organizations_from(kept, tree)


def _emit_frame(state: WorldState, config: Config, out_dir: Path, fh) -> None:
    orgs = detect_organizations(state.tree, config.detection.depth,
                                config.detection.min_org_size)
    q: float | None = None
    if config.output.metrics and len(state.bodies) >= 2:
        graph = interaction_graph(state.bodies)
        q = modularity(graph, organization_partition(orgs, len(state.bodies)))
    frame = Frame(step=state.step, bodies=state.bodies,
                  organizations=tuple(orgs), modularity=q)
    fh.write(dumps_canonical(frame_to_dict(frame), f"the frame of step {state.step}") + "\n")
    svg_every = config.output.svg_every
    if svg_every > 0 and state.step % svg_every == 0:
        svg_path = out_dir / f"frame_{state.step:06d}.svg"
        svg_path.write_text(render_svg(state.tree, orgs), encoding="utf-8")


def run_simulation(config: Config, out_dir: str | Path, steps: int) -> Path:
    """Simulate, writing the JSONL trace and any SVG frames into out_dir.

    Frames are emitted at step 0 and every frame_every steps after it, so
    steps=0 still records the initial state.  Returns the trace path.
    """
    if steps < 0:
        raise ConfigError(f"steps must be non-negative, got {steps}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    state = make_world(place_bodies(config), config.sim_params())
    trace_path = out_dir / TRACE_NAME
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(header_dict(config.to_dict()), "the trace header") + "\n")
        _emit_frame(state, config, out_dir, fh)
        for t in range(1, steps + 1):
            try:
                state = step_world(state)
            except DynamicsError as exc:
                exc.step = t
                raise
            if t % config.output.frame_every == 0:
                _emit_frame(state, config, out_dir, fh)
    return trace_path


@contextmanager
def _frame_errors(trace_path: str | Path, step: int):
    try:
        yield
    except (IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:  # e.g. repeated ids
        raise ConfigError(f"{trace_path}: step {step}: malformed frame: {exc!r}") from exc


def _recorded_tree(trace_path: str | Path, step: int):
    """The recorded config and frame of a step, and the tree of its bodies."""
    trace = read_trace(trace_path)
    try:
        config = config_from_dict(trace.header["config"])
    except ConfigError as exc:
        raise ConfigError(f"{trace_path}: header: {exc}") from exc
    frame = trace.frame_at(step)
    q = {i: sp.charge for i, sp in enumerate(config.species)}  # frames carry no charge
    with _frame_errors(trace_path, step):
        b = bodies_from_frame_dict(frame)  # a species the header lacks: KeyError below
        bodies = Bodies(b.id, b.species, b.x, b.y, b.vx, b.vy, [q[s] for s in b.species.tolist()])
        tree = build_tree(bodies, config.world_box(), config.world.capacity,
                          config.world.max_depth)
    return config, frame, tree


def detect_offline(trace_path: str | Path, step: int, depth: int) -> dict[str, Any]:
    """Re-run detection on one recorded frame at a chosen depth threshold.

    The tree is rebuilt from the frame's body positions with the recorded
    world settings, so running at the recorded depth reproduces the recorded
    organizations exactly.
    """
    if depth < 0:
        raise ConfigError(f"depth must be non-negative, got {depth}")
    config, _, tree = _recorded_tree(trace_path, step)
    orgs = detect_organizations(tree, depth, config.detection.min_org_size)
    return {
        "step": step,
        "depth": depth,
        "organizations": [organization_to_dict(o) for o in orgs],
    }


def render_offline(trace_path: str | Path, step: int) -> str:
    """Re-render one recorded frame as SVG, using its recorded organizations."""
    _, frame, tree = _recorded_tree(trace_path, step)
    with _frame_errors(trace_path, step):
        orgs = [organization_from_dict(d) for d in frame.get("organizations", [])]
        return render_svg(tree, orgs)


def _rms(fields: list[Vec2]) -> float:
    """Root-mean-square magnitude of the fields.  When the sum of squares
    overflows, or is so small that subnormal squares may have lost bits, the
    fields are first scaled by an exact power of two, 2^-k for the largest
    binary exponent k among their components.  Above 2^-960 a square lost to
    underflow is below 2^-114 of the sum, so the plain formula stands there.
    """
    k = 0
    total = math.fsum(f.x * f.x + f.y * f.y for f in fields)
    if total < 2.0 ** -960 or math.isinf(total):
        k = max(math.frexp(c)[1] for f in fields for c in (f.x, f.y))
        scaled = [(math.ldexp(f.x, -k), math.ldexp(f.y, -k)) for f in fields]
        total = math.fsum(x * x + y * y for x, y in scaled)
    return math.ldexp(math.sqrt(total / len(fields)), k)


def field_run(config: Config, out_dir: str | Path) -> dict[str, Any]:
    """Evaluate direct and tree fields for a placed scene and write field.jsonl.

    Each body line records both values and the relative error of the tree
    result; the final line carries the run summary, which is also returned.

    A body's relative error is its deviation |tree - direct| divided by the
    root-mean-square direct magnitude over the whole scene.  Normalizing by
    the scene scale instead of the body's own magnitude keeps the metric
    meaningful at bodies whose net field happens to cancel toward zero; the
    per-body quotient against such a vanishing denominator says nothing about
    the quality of the approximation.  At theta 0 the tree result is bitwise
    equal to the direct result, so every relative error is exactly 0.
    More than FIELD_MAX_BODIES bodies is a ConfigError, raised before any is
    placed.
    """
    total = sum(sp.count for sp in config.species)
    if total > FIELD_MAX_BODIES:
        raise ConfigError(f"field runs an O(N^2) direct sum and takes at most {FIELD_MAX_BODIES}"
                          f" bodies, got {total}")
    if config.kernels.mode == MODE_GRAVITY:
        for i, sp in enumerate(config.species):
            if sp.charge <= 0:
                raise ConfigError(
                    f"species[{i}].charge must be positive in gravity mode, got {sp.charge}")
    else:
        for i, sp in enumerate(config.species):
            if sp.charge == 0:
                raise ConfigError(f"species[{i}].charge must be non-zero in coulomb mode")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bodies = place_bodies(config)
    if len(bodies) < 2:
        raise ConfigError("field run needs at least 2 bodies")
    params = config.kernel_params()
    tree = build_tree(bodies, config.world_box(), config.world.capacity,
                      config.world.max_depth)

    t0 = time.perf_counter()
    direct = direct_fields(bodies, params)
    t1 = time.perf_counter()
    accel = tree_fields(tree, params)
    t2 = time.perf_counter()

    scale = _rms(direct)
    if scale == 0.0:
        raise ConfigError("direct field vanished everywhere; cannot scale errors")
    errors = []
    path = out_dir / FIELD_NAME
    with open(path, "w", encoding="utf-8") as fh:
        for i, d, a in zip(bodies.id.tolist(), direct, accel):
            diff = math.hypot(a.x - d.x, a.y - d.y)
            rel = diff / scale
            errors.append(rel)
            fh.write(dumps_canonical({
                "id": i, "direct": [d.x, d.y], "tree": [a.x, a.y],
                "rel_error": rel}, f"the field line of body {i}") + "\n")
        summary = {
            "summary": {
                "n": len(bodies),
                "theta": params.theta,
                "max_rel_error": max(errors),
                "mean_rel_error": sum(errors) / len(errors),
                "l2_rel_error": math.sqrt(
                    math.fsum(e * e for e in errors) / len(errors)),
                "time_direct": t1 - t0,
                "time_tree": t2 - t1,
            }
        }
        fh.write(dumps_canonical(summary, "the field summary") + "\n")
    return summary["summary"]
