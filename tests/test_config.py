"""Config grammar: every ConfigError message, pinned byte for byte."""

import copy
import json
import random
import re
import signal

import pytest

from conftest import CONFIG_DIR
from orgtree.cli import main
from orgtree.config import config_from_dict, load_config, override
from orgtree.errors import ConfigError

NAN, INF = float("nan"), float("inf")


def doc(section=None, patch=None, species=None):
    """A valid minimal config with one section (or one species entry) patched."""
    data = {"species": species if species is not None else [{"name": "a"}]}
    if section is not None:
        data[section] = patch
    return data


def sp(**keys):
    return doc(species=[{"name": "a", **keys}])


# One single-fault document per check, in the order config.py makes them.
MESSAGES = [
    ("top-not-object", [], "top-level config must be an object"),
    ("top-unknown", {**doc(), "seedd": 1}, "unknown key 'seedd' in config"),
    ("seed-str", {**doc(), "seed": "x"}, "config.seed must be an integer, got 'x'"),
    ("seed-bool", {**doc(), "seed": True}, "config.seed must be an integer, got True"),
    ("seed-float", {**doc(), "seed": 1.5}, "config.seed must be an integer, got 1.5"),
    ("world-not-object", doc("world", []), "world must be an object"),
    ("world-unknown", doc("world", {"capcity": 4}), "unknown key 'capcity' in world"),
    ("box-short", doc("world", {"box": [[0, 0]]}),
     "world.box must be [[lox, loy], [hix, hiy]], got [[0, 0]]"),
    ("box-str", doc("world", {"box": "x"}), "world.box must be [[lox, loy], [hix, hiy]], got 'x'"),
    ("box-corner", doc("world", {"box": [[0, 0], [1, 2, 3]]}),
     "world.box must be [[lox, loy], [hix, hiy]], got [[0, 0], [1, 2, 3]]"),
    ("box-nan", doc("world", {"box": [[0, 0], [NAN, 1]]}),
     "world.box must be [[lox, loy], [hix, hiy]], got [[0, 0], [nan, 1]]"),
    ("box-bool", doc("world", {"box": [[0, 0], [True, 1]]}),
     "world.box must be [[lox, loy], [hix, hiy]], got [[0, 0], [True, 1]]"),
    ("capacity-str", doc("world", {"capacity": "x"}), "world.capacity must be an integer, got 'x'"),
    ("capacity-null", doc("world", {"capacity": None}),
     "world.capacity must be an integer, got None"),
    ("capacity-zero", doc("world", {"capacity": 0}), "world.capacity must be at least 1, got 0"),
    ("max_depth-float", doc("world", {"max_depth": 1.0}),
     "world.max_depth must be an integer, got 1.0"),
    ("max_depth-zero", doc("world", {"max_depth": 0}), "world.max_depth must be at least 1, got 0"),
    ("dt-str", doc("world", {"dt": "x"}), "world.dt must be a finite number, got 'x'"),
    ("dt-bool", doc("world", {"dt": True}), "world.dt must be a finite number, got True"),
    ("dt-nan", doc("world", {"dt": NAN}), "world.dt must be a finite number, got nan"),
    ("dt-inf", doc("world", {"dt": -INF}), "world.dt must be a finite number, got -inf"),
    ("dt-huge-int", doc("world", {"dt": 2 ** 1024}),
     f"world.dt must be a finite number, got {2 ** 1024}"),
    ("dt-zero", doc("world", {"dt": 0}), "world.dt must be positive, got 0.0"),
    ("dt-negative", doc("world", {"dt": -1}), "world.dt must be positive, got -1.0"),
    ("boundary", doc("world", {"boundary": "bounce"}),
     "world.boundary must be one of reflect, wrap, got 'bounce'"),
    ("boundary-list", doc("world", {"boundary": []}),
     "world.boundary must be one of reflect, wrap, got []"),
    ("box-extent", doc("world", {"box": [[0, 0], [0, 100]]}),
     "world.box must have positive extent, got ((0.0, 0.0), (0.0, 100.0))"),
    ("box-inverted", doc("world", {"box": [[0, 100], [100, 0]]}),
     "world.box must have positive extent, got ((0.0, 100.0), (100.0, 0.0))"),
    ("box-infinite-width", doc("world", {"box": [[-1.7e308, 0], [1.7e308, 100]]}),
     "world.box must have a finite width and height, got ((-1.7e+308, 0.0), (1.7e+308, 100.0))"),
    ("box-infinite-height", doc("world", {"box": [[0, -1.7e308], [100, 1.7e308]]}),
     "world.box must have a finite width and height, got ((0.0, -1.7e+308), (100.0, 1.7e+308))"),
    ("species-empty", doc(species=[]), "species must be a non-empty list"),
    ("species-object", doc(species={"name": "a"}), "species must be a non-empty list"),
    ("species-entry", doc(species=[{"name": "a"}, 5]), "species[1] must be an object"),
    ("species-unknown", doc(species=[{"name": "a"}, {"radius_": 1}]),
     "unknown key 'radius_' in species[1]"),
    ("name", sp(name=5), "species[0].name must be a string, got 5"),
    ("count-str", sp(count="x"), "species[0].count must be an integer, got 'x'"),
    ("count-negative", sp(count=-1), "species[0].count must be non-negative, got -1"),
    ("center-short", sp(center=[1]), "species[0].center must be a pair of finite numbers, got [1]"),
    ("center-inf", sp(center=[INF, 50]),
     "species[0].center must be a pair of finite numbers, got [inf, 50]"),
    ("center-str", sp(center="x"), "species[0].center must be a pair of finite numbers, got 'x'"),
    ("radius-str", sp(radius="x"), "species[0].radius must be a finite number, got 'x'"),
    ("radius-negative", sp(radius=-1), "species[0].radius must be non-negative, got -1.0"),
    ("disk", sp(center=[95.0, 50.0]), "species[0]: placement disk leaves the world box"),
    ("disk-default-center", doc("world", {"box": [[0, 0], [15, 15]]}),
     "species[0]: placement disk leaves the world box"),
    ("species-seed", sp(seed=1.0), "species[0].seed must be an integer, got 1.0"),
    ("neighbor_radius-str", sp(neighbor_radius="x"),
     "species[0].neighbor_radius must be a finite number, got 'x'"),
    ("neighbor_radius-zero", sp(neighbor_radius=0), "species[0].neighbor_radius must be positive"),
    ("max_speed-nan", sp(max_speed=NAN), "species[0].max_speed must be a finite number, got nan"),
    ("max_speed-negative", sp(max_speed=-2), "species[0].max_speed must be positive"),
    ("alpha", sp(alpha=NAN), "species[0].alpha must be a finite number, got nan"),
    ("beta", sp(beta="x"), "species[0].beta must be a finite number, got 'x'"),
    ("gamma", sp(gamma=None), "species[0].gamma must be a finite number, got None"),
    ("delta", sp(delta=[]), "species[0].delta must be a finite number, got []"),
    ("inter_species_gamma", sp(inter_species_gamma=INF),
     "species[0].inter_species_gamma must be a finite number, got inf"),
    ("charge", sp(charge={}), "species[0].charge must be a finite number, got {}"),
    ("count-total", doc(species=[{"count": 2 ** 19}, {"count": 2 ** 19 + 1}]),
     "species counts must total at most 1048576, got 1048577"),
    ("count-huge", sp(count=2 ** 70),
     "species counts must total at most 1048576, got 1180591620717411303424"),
    ("detection-not-object", doc("detection", 3), "detection must be an object"),
    ("detection-unknown", doc("detection", {"dept": 3}), "unknown key 'dept' in detection"),
    ("depth-str", doc("detection", {"depth": "x"}), "detection.depth must be an integer, got 'x'"),
    ("depth-negative", doc("detection", {"depth": -1}),
     "detection.depth must be non-negative, got -1"),
    ("min_org_size-bool", doc("detection", {"min_org_size": False}),
     "detection.min_org_size must be an integer, got False"),
    ("min_org_size-zero", doc("detection", {"min_org_size": 0}),
     "detection.min_org_size must be at least 1, got 0"),
    ("cohesion_mode", doc("detection", {"cohesion_mode": "x"}),
     "detection.cohesion_mode must be one of normalized, literal, got 'x'"),
    ("kernels-not-object", doc("kernels", None), "kernels must be an object"),
    ("kernels-unknown", doc("kernels", {"eta": 1}), "unknown key 'eta' in kernels"),
    ("mode", doc("kernels", {"mode": "psychic"}),
     "kernels.mode must be one of gravity, coulomb, got 'psychic'"),
    ("theta-str", doc("kernels", {"theta": "x"}), "kernels.theta must be a finite number, got 'x'"),
    ("theta-negative", doc("kernels", {"theta": -1}),
     "kernels.theta must be non-negative, got -1.0"),
    ("softening-nan", doc("kernels", {"softening": NAN}),
     "kernels.softening must be a finite number, got nan"),
    ("softening-negative", doc("kernels", {"softening": -0.5}),
     "kernels.softening must be non-negative, got -0.5"),
    ("constant", doc("kernels", {"constant": INF}),
     "kernels.constant must be a finite number, got inf"),
    ("output-not-object", doc("output", "x"), "output must be an object"),
    ("output-unknown", doc("output", {"svg": 1}), "unknown key 'svg' in output"),
    ("frame_every-str", doc("output", {"frame_every": "1"}),
     "output.frame_every must be an integer, got '1'"),
    ("frame_every-zero", doc("output", {"frame_every": 0}),
     "output.frame_every must be at least 1, got 0"),
    ("svg_every-float", doc("output", {"svg_every": 0.5}),
     "output.svg_every must be an integer, got 0.5"),
    ("svg_every-negative", doc("output", {"svg_every": -1}),
     "output.svg_every must be non-negative, got -1"),
    ("metrics", doc("output", {"metrics": 1}), "output.metrics must be true or false, got 1"),
    ("metrics-null", doc("output", {"metrics": None}),
     "output.metrics must be true or false, got None"),
]


@pytest.mark.parametrize("data, message", [case[1:] for case in MESSAGES],
                         ids=[case[0] for case in MESSAGES])
def test_config_error_message_is_pinned(data, message):
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    assert str(err.value) == message


def test_file_and_override_messages_are_pinned(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError) as err:
        load_config(missing)
    assert str(err.value) == (f"cannot read config {missing}: [Errno 2] No such file or "
                              f"directory: '{missing}'")
    broken = tmp_path / "broken.json"
    broken.write_text('{\n  "seed": 1,\n  oops\n}', encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(broken)
    assert str(err.value) == f"{broken}:3:3: Expecting property name enclosed in double quotes"
    broken.write_text('{"seed": ' + "9" * 5000 + "}", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(broken)
    assert str(err.value).startswith(f"{broken}: Exceeds the limit (4300 digits)")
    with pytest.raises(ConfigError) as err:
        override(config_from_dict(doc()), svg_every=-1)
    assert str(err.value) == "svg_every must be non-negative, got -1"


@pytest.mark.parametrize("data", [
    doc("world", {"box": None}), sp(center=None), doc("world", {}), doc("output", {}),
    {**doc(), "world": {"box": [[0, 0], [20, 20]]}, "kernels": {"mode": "coulomb"}},
], ids=["null-box", "null-center", "empty-world", "empty-output", "small-box"])
def test_null_box_and_center_mean_their_defaults(data):
    cfg = config_from_dict(json.loads(json.dumps(data)))
    assert config_from_dict(cfg.to_dict()) == cfg
    (lox, loy), (hix, hiy) = cfg.world.box
    assert cfg.species[0].center == ((lox + hix) / 2, (loy + hiy) / 2)


def test_readme_grammar_lists_every_key_with_its_default():
    readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Configuration", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    grammar = json.loads(re.sub(r"//.*", "", block))
    assert grammar == config_from_dict({"species": [{"name": "a"}]}).to_dict()


def test_max_depth_is_capped_before_the_tree_recurses(tmp_path, capsys):
    # Capacity 1 and three coincident bodies would split down to max_depth.
    data = {"world": {"max_depth": 2000, "capacity": 1},
            "species": [{"count": 3, "radius": 0.0}]}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["simulate", "--config", str(cfg_path), "--steps", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: world.max_depth must be at most 53, got 2000\n")
    data["world"]["max_depth"] = 53  # the deepest allowed tree builds
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg_path), "--steps", "0",
                 "--out", str(tmp_path / "out")]) == 0


def test_non_utf8_config_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(b'{"seed": "\xff"}')
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg_path}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


# Config fuzz: every committed config with each key deleted and each leaf set
# to each of these values, then with two such mutations at once.
FUZZ_VALUES = [None, "x", [], {}, True, -1, 0, NAN, INF, -INF, 1e300, 2 ** 70, 2000]
FUZZ_SECONDS = 10  # per run; the slowest single mutation takes under 1 s


def _mutations(node, at=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        path = at + (key,)
        if isinstance(key, str):
            yield path, "delete"
        if isinstance(value, (dict, list)):
            yield from _mutations(value, path)
        else:
            yield from ((path, v) for v in FUZZ_VALUES)


def _mutated(data, *mutations):
    data = copy.deepcopy(data)
    for path, value in mutations:
        node = data
        try:
            for key in path[:-1]:
                node = node[key]
            if value == "delete":
                del node[path[-1]]
            else:
                node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced this path
    return data


def _alarm(signum, frame):
    raise TimeoutError(f"a fuzz case ran over {FUZZ_SECONDS} s")


@pytest.mark.parametrize("name", ["three_species", "two_flocks", "field_1000"])
def test_mutated_committed_configs_exit_with_a_documented_code(tmp_path, capsys, name):
    base = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
    singles = list(_mutations(base))
    rng = random.Random(2009)
    cases = [(m,) for m in singles] + [tuple(rng.sample(singles, 2)) for _ in range(40)]
    cfg_path = tmp_path / "config.json"
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for mutations in cases:
            cfg_path.write_text(json.dumps(_mutated(base, *mutations)), encoding="utf-8")
            signal.alarm(FUZZ_SECONDS)
            code = main(["simulate", "--config", str(cfg_path), "--steps", "1",
                         "--out", str(tmp_path / "out")])
            signal.alarm(0)
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), mutations
            assert (err == "") if code == 0 else (err.count("\n") == 1), (mutations, err)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_mutated_field_kernels_and_charge_exit_with_a_documented_code(tmp_path, capsys):
    base = json.loads((CONFIG_DIR / "field_1000.json").read_text(encoding="utf-8"))
    base["species"][0]["count"] = 60
    singles = [(path, v) for path, v in _mutations(base)
               if path[0] == "kernels" or path == ("species", 0, "charge")]
    rng = random.Random(2010)
    cases = [(m,) for m in singles] + [tuple(rng.sample(singles, 2)) for _ in range(20)]
    cfg_path = tmp_path / "config.json"
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for mutations in cases:
            cfg_path.write_text(json.dumps(_mutated(base, *mutations)), encoding="utf-8")
            signal.alarm(FUZZ_SECONDS)
            code = main(["field", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
            signal.alarm(0)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), mutations
            assert (err == "") if code == 0 else (err.count("\n") == 1), (mutations, err)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
