import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR
from oracles import interaction_weights_reference, modularity_reference, place_bodies_loop
from orgtree import run
from orgtree.cli import main
from orgtree.config import config_from_dict, load_config, override
from orgtree.detect import CellSet, group_cells2, organizations_from
from orgtree.errors import ConfigError
from orgtree.geometry import Vec2
from orgtree.ntree import build_tree
from orgtree.run import (detect_offline, field_run, place_bodies,
                         render_offline, run_simulation)
from orgtree.svg import render_svg
from orgtree.metrics import organization_partition
from orgtree.trace import bodies_from_frame_dict, organization_from_dict, read_trace

SMALL_CONFIG = {
    "seed": 9,
    "world": {"box": [[0.0, 0.0], [100.0, 100.0]], "capacity": 5, "dt": 0.1},
    "species": [
        {"name": "left", "count": 15, "center": [30.0, 30.0], "radius": 6.0, "seed": 31},
        {"name": "right", "count": 15, "center": [70.0, 70.0], "radius": 6.0, "seed": 32},
    ],
    "detection": {"depth": 3},
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestConfigParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = config_from_dict({"species": [{"name": "only"}]})
        assert cfg.seed == 0
        assert cfg.world.capacity == 10
        assert cfg.world.box == ((0.0, 0.0), (100.0, 100.0))
        assert cfg.detection.depth == 5
        assert cfg.kernels.theta == 0.5
        assert cfg.species[0].count == 100
        assert cfg.species[0].center == (50.0, 50.0)
        assert cfg.species[0].seed == 1  # defaults to index + 1

    def test_unknown_key_is_named_in_the_error(self):
        with pytest.raises(ConfigError, match="capcity"):
            config_from_dict({"species": [{"name": "a"}],
                              "world": {"capcity": 4}})

    def test_unknown_species_key_includes_index(self):
        with pytest.raises(ConfigError, match=r"species\[0\]"):
            config_from_dict({"species": [{"name": "a", "radius_": 1}]})

    def test_species_must_be_non_empty(self):
        with pytest.raises(ConfigError, match="non-empty"):
            config_from_dict({"species": []})

    def test_placement_disk_must_fit_in_box(self):
        with pytest.raises(ConfigError, match="placement disk"):
            config_from_dict({"species": [
                {"name": "a", "center": [95.0, 50.0], "radius": 10.0}]})

    def test_json_error_carries_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "seed": 1,\n  oops\n}', encoding="utf-8")
        with pytest.raises(ConfigError, match=r"broken\.json:3:3"):
            load_config(path)

    def test_bad_values_rejected(self):
        base = {"species": [{"name": "a"}]}
        with pytest.raises(ConfigError):
            config_from_dict({**base, "world": {"capacity": 0}})
        with pytest.raises(ConfigError):
            config_from_dict({**base, "world": {"dt": 0}})
        with pytest.raises(ConfigError):
            config_from_dict({**base, "detection": {"min_org_size": 0}})
        with pytest.raises(ConfigError):
            config_from_dict({**base, "kernels": {"mode": "psychic"}})
        with pytest.raises(ConfigError):
            config_from_dict({**base, "output": {"frame_every": 0}})

    def test_to_dict_round_trips(self):
        cfg = config_from_dict(SMALL_CONFIG)
        again = config_from_dict(cfg.to_dict())
        assert again == cfg

    def test_override_replaces_only_given_fields(self):
        cfg = config_from_dict(SMALL_CONFIG)
        out = override(cfg, seed=77, svg_every=4, metrics=True)
        assert out.seed == 77
        assert out.output.svg_every == 4
        assert out.output.metrics is True
        assert out.world == cfg.world
        same = override(cfg)
        assert same == cfg


class TestPlacement:
    def test_counts_ids_and_charges(self):
        cfg = config_from_dict(SMALL_CONFIG)
        bodies = place_bodies(cfg)
        assert [b.id for b in bodies] == list(range(30))
        assert {b.species for b in bodies} == {0, 1}
        assert all(b.velocity.x == 0.0 and b.velocity.y == 0.0 for b in bodies)

    def test_bodies_land_inside_their_disks(self):
        cfg = config_from_dict(SMALL_CONFIG)
        for b in place_bodies(cfg):
            sp = cfg.species[b.species]
            dx = b.position.x - sp.center[0]
            dy = b.position.y - sp.center[1]
            assert dx * dx + dy * dy <= sp.radius * sp.radius + 1e-12

    def test_placement_is_deterministic(self):
        cfg = config_from_dict(SMALL_CONFIG)
        a = place_bodies(cfg)
        b = place_bodies(cfg)
        assert a == b


SEEDS = [0, 1, -7, 2 ** 31 - 1, 2 ** 32, 2 ** 64 + 3, 10 ** 30]
# Centres and radii in tenths and hundredths, so almost none is a binary fraction.
SPECIES_ENTRY = st.fixed_dictionaries({
    "count": st.sampled_from([0, 1, 3, 7, 33, 101]),
    "seed": st.sampled_from(SEEDS),
    "center": st.tuples(st.integers(-400, 400), st.integers(-400, 400)).map(
        lambda c: [c[0] / 10, c[1] / 10]),
    "radius": st.integers(0, 5000).map(lambda r: r / 100),
    "charge": st.integers(-2000, 2000).map(lambda q: q / 300),
})


@settings(max_examples=60, deadline=None)
@given(st.lists(SPECIES_ENTRY, min_size=1, max_size=4))
def test_placement_equals_the_loop_column_by_column(species):
    cfg = config_from_dict({"world": {"box": [[-100.0, -100.0], [100.0, 100.0]]},
                            "species": species, "kernels": {"mode": "coulomb"}})
    got, want = place_bodies(cfg), place_bodies_loop(cfg)
    for name in ("id", "species"):
        assert getattr(got, name).dtype == np.int64
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("x", "y", "vx", "vy", "charge"):
        bits = [getattr(side, name).view(np.int64) for side in (got, want)]
        assert np.array_equal(*bits), name


def test_the_commands_never_import_numpy_random(tmp_path):
    # Importing numpy.random adds about 5 MiB to a process's peak RSS, over a
    # tenth of the 43 MiB a field benchmark run peaks at.
    config = write_config(tmp_path, SMALL_CONFIG)
    script = ("import sys\n"
              "from orgtree.cli import main\n"
              "config, out = sys.argv[1:]\n"
              "assert main(['simulate', '--config', config, '--steps', '2', '--metrics',"
              " '--out', out]) == 0\n"
              "assert main(['field', '--config', config, '--out', out]) == 0\n"
              "assert main(['detect', '--trace', out + '/trace.jsonl', '--step', '2',"
              " '--depth', '3']) == 0\n"
              "print('numpy.random' in sys.modules)\n")
    src = str(Path(run.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", script, str(config), str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


class TestTraceOutput:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = config_from_dict(SMALL_CONFIG)
        p1 = run_simulation(cfg, tmp_path / "a", steps=15)
        p2 = run_simulation(cfg, tmp_path / "b", steps=15)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_then_line_parseable_frames(self, tmp_path):
        cfg = config_from_dict(SMALL_CONFIG)
        path = run_simulation(cfg, tmp_path, steps=4)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["version"] == 1
        assert header["config"]["seed"] == 9
        for line in lines[1:]:
            frame = json.loads(line)
            assert set(frame) >= {"step", "bodies", "organizations"}
        assert [json.loads(l)["step"] for l in lines[1:]] == [0, 1, 2, 3, 4]

    def test_zero_steps_still_records_initial_frame(self, tmp_path):
        cfg = config_from_dict(SMALL_CONFIG)
        path = run_simulation(cfg, tmp_path, steps=0)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["step"] == 0

    def test_frame_every_thins_the_trace(self, tmp_path):
        cfg = config_from_dict({**SMALL_CONFIG, "output": {"frame_every": 5}})
        path = run_simulation(cfg, tmp_path, steps=10)
        steps = [json.loads(l)["step"]
                 for l in path.read_text(encoding="utf-8").splitlines()[1:]]
        assert steps == [0, 5, 10]

    def test_metrics_flag_adds_modularity(self, tmp_path):
        cfg = config_from_dict({**SMALL_CONFIG,
                                "output": {"metrics": True}})
        path = run_simulation(cfg, tmp_path, steps=1)
        frames = [json.loads(l)
                  for l in path.read_text(encoding="utf-8").splitlines()[1:]]
        assert all(isinstance(f.get("modularity"), float) for f in frames)

    def test_malformed_trace_lines_are_located(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"config": {}, "version": 1}\nnot json\n',
                        encoding="utf-8")
        with pytest.raises(ConfigError, match=r"trace\.jsonl:2"):
            read_trace(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"config": {}, "version": 99}\n', encoding="utf-8")
        with pytest.raises(ConfigError, match="version"):
            read_trace(path)


class TestOfflineDetection:
    def test_reproduces_recorded_organizations(self, tmp_path):
        cfg = config_from_dict(SMALL_CONFIG)
        path = run_simulation(cfg, tmp_path, steps=6)
        recorded = read_trace(path).frame_at(6)["organizations"]
        result = detect_offline(path, step=6, depth=cfg.detection.depth)
        assert result["organizations"] == recorded

    def test_rebuilt_tree_keeps_the_species_charges(self, tmp_path):
        species = [{**SMALL_CONFIG["species"][0], "charge": 2.5},
                   {**SMALL_CONFIG["species"][1], "charge": -1.0}]
        cfg = config_from_dict({**SMALL_CONFIG, "species": species})
        path = run_simulation(cfg, tmp_path, steps=3)
        _, frame, tree = run._recorded_tree(path, 3)
        charge = {0: 2.5, 1: -1.0}
        assert tree.root.total_charge == math.fsum(charge[b["species"]] for b in frame["bodies"])
        assert sorted(b.charge for b in tree.bodies) == [-1.0] * 15 + [2.5] * 15
        result = detect_offline(path, step=3, depth=cfg.detection.depth)
        assert result["organizations"] == frame["organizations"]

    def test_missing_step_is_a_config_error(self, tmp_path):
        cfg = config_from_dict(SMALL_CONFIG)
        path = run_simulation(cfg, tmp_path, steps=2)
        with pytest.raises(ConfigError, match="no frame for step 40"):
            detect_offline(path, step=40, depth=3)

    def test_alternate_depth_changes_the_cut(self, tmp_path):
        cfg = config_from_dict(SMALL_CONFIG)
        path = run_simulation(cfg, tmp_path, steps=2)
        shallow = detect_offline(path, step=2, depth=1)
        assert shallow["depth"] == 1
        cells = {tuple(c) for o in shallow["organizations"] for c in o["cells"]}
        assert all(c[0] >= 1 for c in cells)


class TestSvg:
    @staticmethod
    def rendered(tmp_path):
        cfg = config_from_dict(SMALL_CONFIG)
        bodies = place_bodies(cfg)
        tree = build_tree(bodies, cfg.world_box(), cfg.world.capacity)
        cut = CellSet.from_tree(tree, cfg.detection.depth)
        orgs = organizations_from(group_cells2(cut, tree), tree)
        return tree, orgs, render_svg(tree, orgs)

    def test_is_well_formed_xml(self, tmp_path):
        _, _, svg = self.rendered(tmp_path)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_element_counts_match_scene(self, tmp_path):
        tree, orgs, svg = self.rendered(tmp_path)
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        rects = root.findall(f"{ns}rect")
        circles = root.findall(f"{ns}circle")
        cells = [r for r in rects if r.get("class") == "cell"]
        org_rects = [r for r in rects if r.get("class") == "org"]
        assert len(cells) == len(tree.leaves())
        assert len(org_rects) == sum(len(o.cells) for o in orgs)
        assert len(circles) == len(tree.bodies)
        assert all(r.get("fill") == "#ff0000" for r in org_rects)

    def test_y_axis_is_flipped(self, tmp_path):
        tree, orgs, svg = self.rendered(tmp_path)
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        by_cy = {float(c.get("cy")): float(c.get("cx"))
                 for c in root.findall(f"{ns}circle")}
        # The bodies around world y=70 must sit above (smaller SVG y) those
        # around world y=30.
        highest = min(by_cy)
        lowest = max(by_cy)
        assert highest < 800.0 / 2 < lowest

    def test_render_offline_uses_recorded_organizations(self, tmp_path):
        cfg = config_from_dict(SMALL_CONFIG)
        path = run_simulation(cfg, tmp_path, steps=3)
        svg = render_offline(path, step=3)
        recorded = read_trace(path).frame_at(3)["organizations"]
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        org_rects = [r for r in root.findall(f"{ns}rect")
                     if r.get("class") == "org"]
        assert len(org_rects) == sum(len(o["cells"]) for o in recorded)

    def test_svg_every_writes_frames(self, tmp_path):
        cfg = config_from_dict({**SMALL_CONFIG, "output": {"svg_every": 2}})
        run_simulation(cfg, tmp_path, steps=4)
        names = sorted(p.name for p in tmp_path.glob("*.svg"))
        assert names == ["frame_000000.svg", "frame_000002.svg", "frame_000004.svg"]


class TestFieldRun:
    def test_theta_zero_means_zero_error_everywhere(self, tmp_path):
        cfg = config_from_dict({
            "species": [{"name": "m", "count": 60, "center": [50.0, 50.0],
                         "radius": 20.0, "seed": 3}],
            "kernels": {"theta": 0.0},
        })
        summary = field_run(cfg, tmp_path)
        assert summary["max_rel_error"] == 0.0
        lines = [json.loads(l) for l in
                 (tmp_path / "field.jsonl").read_text(encoding="utf-8").splitlines()]
        assert len(lines) == 61
        assert all(l["rel_error"] == 0.0 for l in lines[:-1])

    def test_summary_line_matches_return_value(self, tmp_path):
        small = config_from_dict({**json.loads(
            (CONFIG_DIR / "field_1000.json").read_text(encoding="utf-8")),
            "species": [{"name": "mass", "count": 200, "center": [0.5, 0.5],
                         "radius": 0.5, "seed": 4100, "charge": 1.0}]})
        summary = field_run(small, tmp_path)
        last = json.loads((tmp_path / "field.jsonl")
                          .read_text(encoding="utf-8").splitlines()[-1])
        assert last["summary"]["max_rel_error"] == summary["max_rel_error"]
        assert last["summary"]["n"] == 200

    def test_gravity_rejects_non_positive_charge(self, tmp_path):
        cfg = config_from_dict({
            "species": [{"name": "m", "count": 5, "charge": -1.0,
                         "center": [50.0, 50.0], "radius": 5.0}],
        })
        with pytest.raises(ConfigError, match="positive"):
            field_run(cfg, tmp_path)

    def test_coulomb_allows_signed_charges(self, tmp_path):
        cfg = config_from_dict({
            "kernels": {"mode": "coulomb", "theta": 0.0},
            "species": [
                {"name": "plus", "count": 10, "charge": 1.0,
                 "center": [30.0, 30.0], "radius": 5.0, "seed": 1},
                {"name": "minus", "count": 10, "charge": -1.0,
                 "center": [70.0, 70.0], "radius": 5.0, "seed": 2},
            ],
        })
        summary = field_run(cfg, tmp_path)
        assert summary["max_rel_error"] == 0.0


class TestCli:
    def test_simulate_detect_render_round_trip(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--steps", "5",
                     "--out", str(out)]) == 0
        trace = out / "trace.jsonl"
        assert trace.exists()

        assert main(["detect", "--trace", str(trace), "--step", "5",
                     "--depth", "3"]) == 0
        captured = capsys.readouterr().out.splitlines()
        payload = json.loads(captured[-1])
        assert payload["step"] == 5

        svg_path = tmp_path / "frame.svg"
        assert main(["render", "--trace", str(trace), "--step", "5",
                     "--out", str(svg_path)]) == 0
        assert svg_path.read_text(encoding="utf-8").startswith("<svg")

    def test_centroid_near_the_float_limit_is_finite(self, tmp_path, capsys):
        # Two members near 1.6e308: their coordinate sums overflow, their
        # means do not.
        cfg_path = write_config(tmp_path, {
            "seed": 1, "world": {"box": [[0.0, 0.0], [1.7e308, 1.7e308]], "capacity": 1},
            "species": [{"name": "huge", "count": 2, "center": [1.6e308, 1.6e308],
                         "radius": 1e306, "seed": 5}],
            "detection": {"depth": 1},
        })
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--steps", "0",
                     "--out", str(out)]) == 0
        frame = json.loads((out / "trace.jsonl").read_text(encoding="utf-8").splitlines()[1])
        assert main(["detect", "--trace", str(out / "trace.jsonl"), "--step", "0",
                     "--depth", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        detected = json.loads(captured.out.splitlines()[-1])
        for org in frame["organizations"] + detected["organizations"]:
            (lx, ly), (hx, hy) = org["bbox"]
            cx, cy = org["centroid"]
            assert math.isfinite(cx) and math.isfinite(cy)
            assert lx <= cx <= hx and ly <= cy <= hy
        assert [o["members"] for o in detected["organizations"]] == [[0, 1]]

    def test_field_command_prints_summary(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {
            "species": [{"name": "m", "count": 40, "center": [50.0, 50.0],
                         "radius": 10.0, "seed": 6}],
        })
        assert main(["field", "--config", str(cfg_path),
                     "--out", str(tmp_path / "f")]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["summary"]["n"] == 40

    def test_field_refuses_more_bodies_than_its_direct_sum_takes(self, tmp_path, capsys,
                                                                  monkeypatch):
        # Checked before a body is placed: placing them would be the first cost.
        monkeypatch.setattr(run, "place_bodies", lambda config: pytest.fail("placed bodies"))
        half = run.FIELD_MAX_BODIES // 2
        cfg_path = write_config(tmp_path, {"species": [{"name": "a", "count": half},
                                                       {"name": "b", "count": half + 1}]})
        assert main(["field", "--config", str(cfg_path), "--out", str(tmp_path / "f")]) == 1
        err = capsys.readouterr().err
        assert err == (f"config error: field runs an O(N^2) direct sum and takes at most "
                       f"{run.FIELD_MAX_BODIES} bodies, got {2 * half + 1}\n")
        assert not (tmp_path / "f").exists()

    def test_field_errors_keep_their_bits_for_huge_and_tiny_constants(self, tmp_path):
        # At 2**530 the squared fields overflow, at 2**-550 they are subnormal
        # and at 2**-560 they underflow, which once made every error 0, off by
        # a factor, or failed the command.  Power-of-two constants scale every
        # field exactly, so every error is unchanged.
        data = json.loads((CONFIG_DIR / "field_1000.json").read_text(encoding="utf-8"))
        data["species"][0]["count"] = 60
        errors = {}
        for constant in (1.0, 2.0 ** 530, 2.0 ** -550, 2.0 ** -560):
            data["kernels"]["constant"] = constant
            out = tmp_path / str(constant)
            assert main(["field", "--config", str(write_config(tmp_path, data)),
                         "--out", str(out)]) == 0
            lines = (out / "field.jsonl").read_text(encoding="utf-8").splitlines()
            errors[constant] = [json.loads(line)["rel_error"] for line in lines[:-1]]
        assert len(errors[1.0]) == 60 and max(errors[1.0]) > 0.0
        assert errors[2.0 ** 530] == errors[1.0] == errors[2.0 ** -550] == errors[2.0 ** -560]

    def test_seed_override_lands_in_the_header(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg_path), "--steps", "0",
                     "--seed", "123", "--out", str(out)]) == 0
        header = json.loads((out / "trace.jsonl")
                            .read_text(encoding="utf-8").splitlines()[0])
        assert header["config"]["seed"] == 123

    def test_config_error_exits_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"species": [], "seed": 1})
        code = main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exits_1(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("command", ["detect", "render"])
    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_trace_exits_1(self, tmp_path, capsys, command, where):
        path = tmp_path / "nope" / "trace.jsonl"
        if where == "directory":
            path.mkdir(parents=True)
        extra = ["--depth", "3"] if command == "detect" else ["--out", str(tmp_path / "f.svg")]
        assert main([command, "--trace", str(path), "--step", "0", *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read trace {path}: ")
        assert err.count("\n") == 1

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as err:
            main(["simulate"])  # --config is required
        assert err.value.code == 1

    def test_dynamics_error_exits_2(self, tmp_path, capsys):
        # Radius zero piles every boid of the species onto one point, which
        # the first velocity update reports as a coincident pair.
        cfg_path = write_config(tmp_path, {
            "seed": 1,
            "species": [{"name": "stack", "count": 2, "center": [50.0, 50.0],
                         "radius": 0.0, "seed": 5}],
        })
        code = main(["simulate", "--config", str(cfg_path), "--steps", "3",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "at step 1" in capsys.readouterr().err

    def test_io_error_exits_3(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL_CONFIG)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        code = main(["simulate", "--config", str(cfg_path), "--steps", "1",
                     "--out", str(blocker)])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    # Pairs close enough that constant / r^3 overflows: inf - inf in a sum.
    ({"world": {"box": [[0.0, 0.0], [1.0, 1.0]]}, "kernels": {"constant": 1e305},
      "species": [{"name": "m", "count": 50, "center": [0.5, 0.5], "radius": 0.5,
                   "seed": 4100}]},
     "field term of body 6 at target 0 is not finite"),
    # Distinct bodies whose r^3 is subnormal, so 1 / r^3 overflows.
    ({"kernels": {"softening": 0.0},
      "species": [{"name": "m", "count": 40, "center": [1e-100, 1e-100], "radius": 1e-104,
                   "seed": 6}]},
     "field term of body 1 at target 0 is not finite"),
    # A unit equilateral triangle: every term is finite, every x sum is 2.25e308.
    ({"world": {"box": [[-1.0, -1.0], [2.0, 2.0]]}, "kernels": {"constant": 1.5e308},
      "species": [{"name": n, "count": 1, "center": c, "radius": 0.0} for n, c in
                  (("a", [0.0, 0.0]), ("b", [1.0, 0.0]), ("c", [0.5, math.sqrt(3.0) / 2]))]},
     "the field at target 0 overflows"),
])
def test_non_finite_field_exits_2_with_one_line(tmp_path, capsys, data, message):
    cfg_path = write_config(tmp_path, data)
    assert main(["field", "--config", str(cfg_path), "--out", str(tmp_path / "f")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dynamics error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, what", [
    ("simulate", "the frame of step 0"),
    ("detect", "the detect output"),
    ("field", "the field line of body 5"),
])
def test_non_finite_output_exits_2_with_one_line_and_is_not_written(tmp_path, capsys,
                                                                    monkeypatch, command, what):
    """No input path is known to reach the writers with a NaN, so one is put
    into an organization's centroid or into one tree field."""
    config = str(write_config(tmp_path, SMALL_CONFIG))
    trace_path = run_simulation(config_from_dict(SMALL_CONFIG), tmp_path / "run", steps=0)
    organizations = run.detect_organizations
    fields = run.tree_fields
    monkeypatch.setattr(run, "detect_organizations", lambda *a, **k: [
        dataclasses.replace(o, centroid=Vec2(math.nan, 0.0)) for o in organizations(*a, **k)])
    monkeypatch.setattr(run, "tree_fields", lambda *a: [
        Vec2(math.inf, 0.0) if i == 5 else f for i, f in enumerate(fields(*a))])
    out = tmp_path / "out"
    argv = {"simulate": ["simulate", "--config", config, "--steps", "0", "--out", str(out)],
            "detect": ["detect", "--trace", str(trace_path), "--step", "0", "--depth", "3"],
            "field": ["field", "--config", config, "--out", str(out)]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"dynamics error: {what} holds a non-finite number")
    assert captured.err.count("\n") == 1 and captured.out == ""
    written = "".join(p.read_text(encoding="utf-8") for p in out.glob("*.jsonl"))
    assert written.count("\n") == {"simulate": 1, "detect": 0, "field": 5}[command]
    assert "NaN" not in written and "Infinity" not in written


@pytest.mark.parametrize("command, where, key, value", [
    ("field", "kernels", "theta", float("nan")),
    ("field", "kernels", "softening", float("inf")),
    ("simulate", "species[0]", "alpha", float("nan")),
    ("simulate", "species[0]", "max_speed", float("inf")),
])
def test_non_finite_config_number_exits_1_naming_its_key(tmp_path, capsys, command,
                                                         where, key, value):
    # json.loads accepts the NaN and Infinity tokens that json.dumps writes here.
    data = json.loads(json.dumps(SMALL_CONFIG))
    if where == "kernels":
        data["kernels"] = {key: value}
    else:
        data["species"][0][key] = value
    cfg_path = write_config(tmp_path, data)
    assert ("NaN" if value != value else "Infinity") in cfg_path.read_text(encoding="utf-8")
    code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"{where}.{key} must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_box_and_center_are_config_errors():
    with pytest.raises(ConfigError, match=r"species\[0\]\.center"):
        config_from_dict({"species": [{"center": [float("nan"), 50.0]}]})
    with pytest.raises(ConfigError, match=r"world\.box"):
        config_from_dict({"world": {"box": [[0.0, 0.0], [float("inf"), 1.0]]}})
    with pytest.raises(ConfigError, match=r"world\.dt"):
        config_from_dict({"world": {"dt": 10 ** 400}})


def test_oversized_integer_in_config_exits_1_naming_the_file(tmp_path, capsys):
    # json.loads raises a plain ValueError for an integer literal longer than
    # Python's 4,300-digit limit.
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"seed": ' + "9" * 5000 + "}", encoding="utf-8")
    code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ") and str(cfg_path) in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


# sha256 of trace.jsonl after 60 steps, recorded with the scalar steering
# loop that the batched step replaced.
GOLDEN_TRACES = {
    "three_species": "3773e866246b0b6428b45f8e1646151252f01e7a3a9c6a96541aee519be4f88f",
    "two_flocks": "2caa0dac01364a2ffe24ef10232ac19cba9b799f65ceaff8e4e8b8ad2823382f",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_committed_config_traces_are_pinned(tmp_path, name):
    path = run_simulation(load_config(CONFIG_DIR / f"{name}.json"), tmp_path, 60)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_TRACES[name]


# sha256 of the SVG frames `simulate --steps 20 --svg-every 10` writes.  The
# leaf order and the leaf box floats of the tree feed these bytes.
GOLDEN_SVGS = {
    "three_species": ("5b378d1aa7038cd89af85e0df259d41d947c7e9710d2c4923a7a5b86fdca1d18",
                      "36840ac4dd117848baf0c946cc9a4a51622b3a4beff09ffdfab07f29c08a037b",
                      "9c9bed0a0ee732ac5050b8477618e2cc17d3f60cd9466019c15419f5e0b2413b"),
    "two_flocks": ("c92346225b7db430c2ba0846930a1799e28232a600328f532d94cd523b25902a",
                   "6782bd80b6614de03d3f8356913f8c87de25eb8d66aaf431d209fa5d4623512c",
                   "4dbe61002e50bf6cbf0f170a65e1e896bae6df26c93704c6765e236b93466d93"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SVGS))
def test_committed_config_svg_frames_are_pinned(tmp_path, name):
    code = main(["simulate", "--config", str(CONFIG_DIR / f"{name}.json"), "--steps", "20",
                 "--svg-every", "10", "--out", str(tmp_path)])
    assert code == 0
    frames = sorted(tmp_path.glob("frame_*.svg"))
    assert [p.name for p in frames] == ["frame_000000.svg", "frame_000010.svg",
                                        "frame_000020.svg"]
    assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in frames) == GOLDEN_SVGS[name]


def test_simulate_metrics_frames_equal_the_matrix_modularity(tmp_path):
    code = main(["simulate", "--config", str(CONFIG_DIR / "three_species.json"), "--steps", "5",
                 "--metrics", "--out", str(tmp_path)])
    assert code == 0
    frames = read_trace(tmp_path / "trace.jsonl").frames
    assert [f["step"] for f in frames] == [0, 1, 2, 3, 4, 5]
    for frame in frames:
        bodies = bodies_from_frame_dict(frame)
        orgs = [organization_from_dict(o) for o in frame["organizations"]]
        partition = organization_partition(orgs, len(bodies))
        want = modularity_reference(interaction_weights_reference(bodies), partition)
        assert abs(frame["modularity"] - want) <= 1e-12


@pytest.mark.parametrize("fault, expected", [
    ("no bodies", "step 2: malformed frame: KeyError('bodies')"),
    ("x is abc", "step 2: malformed frame: ValueError(\"could not convert string to float: 'abc'\")"),
    ("header is 5", "first line is not a trace header"),
    ("body outside the box", "step 2: malformed frame: ValueError('body 16 at (500.0, "),
    ("duplicate id", "step 2: malformed frame: ValueError('duplicate body id: 0')"),
    ("species not in the header", "step 2: malformed frame: KeyError(9)"),
    ("id is 2**70", "step 2: malformed frame: OverflowError("),
    ("frame is 5", ":3: frame line is not an object"),
    ("huge integer", ":3: malformed trace line: Exceeds the limit (4300 digits)"),
    ("not utf-8", ":4: malformed trace line: 'utf-8' codec can't decode byte 0xff"),
])
@pytest.mark.parametrize("command", ["detect", "render"])
def test_malformed_trace_exits_1_naming_trace_and_step(tmp_path, capsys, command, fault,
                                                       expected):
    path = run_simulation(config_from_dict(SMALL_CONFIG), tmp_path, steps=2)
    lines = path.read_text(encoding="utf-8").splitlines()
    frame = json.loads(lines[3])
    if fault == "no bodies":
        del frame["bodies"]
    elif fault == "x is abc":
        frame["bodies"][0]["x"] = "abc"
    elif fault == "body outside the box":
        frame["bodies"][16]["x"] = 500.0
    elif fault == "duplicate id":
        frame["bodies"][1]["id"] = 0
    elif fault == "species not in the header":
        frame["bodies"][4]["species"] = 9
    elif fault == "id is 2**70":
        frame["bodies"][4]["id"] = 2 ** 70
    lines[3] = json.dumps(frame)
    if fault == "header is 5":
        lines[0] = "5"
    elif fault == "frame is 5":
        lines[2] = "5"
    elif fault == "huge integer":
        lines[2] = '{"step": ' + "9" * 5000 + "}"
    data = "\n".join(lines).encode() + (b"\xff\n" if fault == "not utf-8" else b"\n")
    path.write_bytes(data)
    out = ["--depth", "3"] if command == "detect" else ["--out", str(tmp_path / "f.svg")]
    code = main([command, "--trace", str(path), "--step", "2", *out])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: {path}") and expected in err, err
    assert err.count("\n") == 1


ORG = {"id": 1, "cells": [[0, 0, 0]], "members": [], "centroid": [0, 0], "bbox": [[0, 0], [1, 1]]}


@pytest.mark.parametrize("organizations", [
    5, [{"id": 1}], [{**ORG, "cells": [[-1, 0, 0]]}],
    [{**ORG, "centroid": [1.0]}], [{**ORG, "bbox": [[0, 0], [1]]}]])
def test_render_of_malformed_organizations_exits_1(tmp_path, capsys, organizations):
    path = run_simulation(config_from_dict(SMALL_CONFIG), tmp_path, steps=0)
    header, frame = path.read_text(encoding="utf-8").splitlines()
    frame = {**json.loads(frame), "organizations": organizations}
    path.write_text(header + "\n" + json.dumps(frame) + "\n", encoding="utf-8")
    code = main(["render", "--trace", str(path), "--step", "0", "--out", str(tmp_path / "f.svg")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: {path}: step 0: malformed frame: ") and err.count("\n") == 1


@pytest.mark.parametrize("config, message", [
    (5, "top-level config must be an object"),
    ({"species": []}, "species must be a non-empty list"),
])
@pytest.mark.parametrize("command", ["detect", "render"])
def test_invalid_header_config_exits_1_naming_the_trace(tmp_path, capsys, command, config,
                                                        message):
    path = run_simulation(config_from_dict(SMALL_CONFIG), tmp_path, steps=0)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0] = json.dumps({"config": config, "version": 1})
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = ["--depth", "3"] if command == "detect" else ["--out", str(tmp_path / "f.svg")]
    code = main([command, "--trace", str(path), "--step", "0", *out])
    assert code == 1
    assert capsys.readouterr().err == f"config error: {path}: header: {message}\n"
