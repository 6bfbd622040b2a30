import json
import xml.etree.ElementTree as ET

import pytest

from conftest import CONFIG_DIR
from orgtree.cli import main
from orgtree.config import config_from_dict, load_config, override
from orgtree.detect import CellSet, group_cells2, organizations_from
from orgtree.errors import ConfigError
from orgtree.ntree import build_tree
from orgtree.run import (detect_offline, field_run, place_bodies,
                         render_offline, run_simulation)
from orgtree.svg import render_svg
from orgtree.trace import read_trace

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

    def test_field_command_prints_summary(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {
            "species": [{"name": "m", "count": 40, "center": [50.0, 50.0],
                         "radius": 10.0, "seed": 6}],
        })
        assert main(["field", "--config", str(cfg_path),
                     "--out", str(tmp_path / "f")]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["summary"]["n"] == 40

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
