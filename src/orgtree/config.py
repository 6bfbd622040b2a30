"""Run configuration: a strict JSON document with defaults for every field.

Unknown keys are rejected so typos fail loudly instead of silently falling
back to defaults.  The reference grammar lives in the README.  Every key is
declared once, in the section tables below, as key: (default, kind, *bounds).
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, make_dataclass, replace
from pathlib import Path
from typing import Any

from .boids import (BOUNDARY_POLICIES, BOUNDARY_REFLECT, COHESION_MODES,
                    COHESION_NORMALIZED, SimParams, SpeciesParams)
from .errors import ConfigError
from .geometry import AABB, Vec2
from .kernels import KernelParams, MODE_GRAVITY, MODES


def _finite(value) -> bool:
    # json.loads also yields NaN, +-Infinity and integers beyond float range.
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _pair(value, item_ok) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(item_ok, value))


def _one_of(*choices: str):
    return lambda v: v in choices, f"one of {', '.join(choices)}", None


# A kind is (test of the raw value, what it must be, conversion or None); a
# bound is (test of the converted value, what it must be).  A failed test
# reads "<section>.<key> must be <what>, got <value>".
INTEGER = (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer", None)
NUMBER = (_finite, "a finite number", float)
FLAG = (lambda v: isinstance(v, bool), "true or false", None)
TEXT = (lambda v: isinstance(v, str), "a string", None)
POINT = (lambda v: _pair(v, _finite), "a pair of finite numbers", lambda v: tuple(map(float, v)))
BOX = (lambda v: _pair(v, POINT[0]), "[[lox, loy], [hix, hiy]]", lambda v: tuple(map(POINT[2], v)))
NULL_IS_DEFAULT = (POINT, BOX)  # a null box or center keeps its default
POSITIVE = (lambda v: v > 0, "positive")
NON_NEGATIVE = (lambda v: v >= 0, "non-negative")
AT_LEAST_1 = (lambda v: v >= 1, "at least 1")
# Past depth 53 cell indices exceed 2**53, where geometry.cell_box's ix * w
# stops being exact; build_tree also recurses once per level.
AT_MOST_53 = (lambda v: v <= 53, "at most 53")

WORLD = {
    "box": (((0.0, 0.0), (100.0, 100.0)), BOX),
    "capacity": (10, INTEGER, AT_LEAST_1),
    "max_depth": (24, INTEGER, AT_LEAST_1, AT_MOST_53),
    "dt": (0.1, NUMBER, POSITIVE),
    "boundary": (BOUNDARY_REFLECT, _one_of(*BOUNDARY_POLICIES)),
}
SPECIES = {  # _species sets the defaults of name, center and seed per entry
    "name": (None, TEXT),
    "count": (100, INTEGER, NON_NEGATIVE),
    "center": (None, POINT),
    "radius": (10.0, NUMBER, NON_NEGATIVE),
    "seed": (None, INTEGER),
    "alpha": (1.0, NUMBER),
    "beta": (0.3, NUMBER),
    "gamma": (0.5, NUMBER),
    "delta": (0.3, NUMBER),
    "inter_species_gamma": (2.0, NUMBER),
    "neighbor_radius": (10.0, NUMBER),
    "max_speed": (2.0, NUMBER),
    "charge": (1.0, NUMBER),
}
DETECTION = {
    "depth": (5, INTEGER, NON_NEGATIVE),
    "min_org_size": (1, INTEGER, AT_LEAST_1),
    "cohesion_mode": (COHESION_NORMALIZED, _one_of(*COHESION_MODES)),
}
KERNELS = {  # the fields of KernelParams
    "mode": (MODE_GRAVITY, _one_of(*MODES)),
    "constant": (1.0, NUMBER),
    "theta": (0.5, NUMBER, NON_NEGATIVE),
    "softening": (0.0, NUMBER, NON_NEGATIVE),
}
OUTPUT = {
    "frame_every": (1, INTEGER, AT_LEAST_1),
    "svg_every": (0, INTEGER, NON_NEGATIVE),
    "metrics": (False, FLAG),
}


WorldConfig, SpeciesConfig, DetectionConfig, OutputConfig = (
    make_dataclass(name, list(table), frozen=True, namespace={"__module__": __name__})
    for name, table in [("WorldConfig", WORLD), ("SpeciesConfig", SPECIES),
                        ("DetectionConfig", DETECTION), ("OutputConfig", OUTPUT)])
STEERING = tuple(SpeciesParams.__dataclass_fields__)  # the species keys boids.SpeciesParams takes
SECTIONS = {"detection": (DetectionConfig, DETECTION), "kernels": (KernelParams, KERNELS),
            "output": (OutputConfig, OUTPUT)}  # parsed in this order after world and species


@dataclass(frozen=True)
class Config:
    seed: int
    world: WorldConfig
    species: tuple[SpeciesConfig, ...]
    detection: DetectionConfig
    kernels: KernelParams
    output: OutputConfig

    def to_dict(self) -> dict[str, Any]:
        """Canonical dict with every default materialized; drives the trace header."""
        return json.loads(json.dumps(asdict(self)))  # tuples become lists

    def world_box(self) -> AABB:
        (lox, loy), (hix, hiy) = self.world.box
        return AABB(Vec2(lox, loy), Vec2(hix, hiy))

    def sim_params(self) -> SimParams:
        species = tuple(SpeciesParams(**{key: getattr(sp, key) for key in STEERING})
                        for sp in self.species)
        world = {k: getattr(self.world, k) for k in ("capacity", "max_depth", "dt", "boundary")}
        return SimParams(box=self.world_box(), species=species, **world,
                         cohesion_mode=self.detection.cohesion_mode)

    def kernel_params(self) -> KernelParams:
        return self.kernels


def _parse(value, path: str, kind, *bounds):
    """Check a raw value against its kind, convert it, then check its bounds."""
    ok, what, convert = kind
    if not ok(value):
        raise ConfigError(f"{path} must be {what}, got {value!r}")
    value = convert(value) if convert else value
    for ok, what in bounds:
        if not ok(value):
            raise ConfigError(f"{path} must be {what}, got {value!r}")
    return value


def _require_keys(section: dict, allowed, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _section(cls: type, table: dict, section: Any, where: str, **defaults):
    """Parse one section in table order; keyword defaults replace the table's."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    _require_keys(section, table, where)
    values = {}
    for key, (default, kind, *bounds) in table.items():
        default = defaults.get(key, default)
        value = section.get(key, default)
        value = default if value is None and kind in NULL_IS_DEFAULT else value
        values[key] = _parse(value, f"{where}.{key}", kind, *bounds)
    return cls(**values)


def _species(entry: Any, index: int, world: WorldConfig) -> SpeciesConfig:
    where = f"species[{index}]"
    (lox, loy), (hix, hiy) = world.box
    sp = _section(SpeciesConfig, SPECIES, entry, where, name=f"species{index}",
                  center=((lox + hix) / 2.0, (loy + hiy) / 2.0), seed=index + 1)
    (cx, cy), r = sp.center, sp.radius
    if cx - r < lox or cx + r > hix or cy - r < loy or cy + r > hiy:
        raise ConfigError(f"{where}: placement disk leaves the world box")
    for key in ("neighbor_radius", "max_speed"):
        if getattr(sp, key) <= 0:
            raise ConfigError(f"{where}.{key} must be positive")
    return sp


def config_from_dict(data: Any) -> Config:
    """Validate a parsed JSON document and fill defaults."""
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    _require_keys(data, {"seed", "world", "species", *SECTIONS}, "config")
    seed = _parse(data.get("seed", 0), "config.seed", INTEGER)
    world = _section(WorldConfig, WORLD, data.get("world", {}), "world")
    (lox, loy), (hix, hiy) = world.box
    if not (lox < hix and loy < hiy):
        raise ConfigError(f"world.box must have positive extent, got {world.box}")
    if not (_finite(hix - lox) and _finite(hiy - loy)):
        raise ConfigError(f"world.box must have a finite width and height, got {world.box}")
    species_raw = data.get("species", [{}])
    if not isinstance(species_raw, list) or not species_raw:
        raise ConfigError("species must be a non-empty list")
    species = tuple(_species(entry, i, world) for i, entry in enumerate(species_raw))
    # `simulate --steps 0` with 2**20 bodies peaks at 739 MiB resident and
    # takes 7.8 s (one core of a 2-vCPU x86-64 host).
    total = sum(sp.count for sp in species)
    if total > 2 ** 20:
        raise ConfigError(f"species counts must total at most {2 ** 20}, got {total}")
    return Config(seed=seed, world=world, species=species,
                  **{name: _section(cls, table, data.get(name, {}), name)
                     for name, (cls, table) in SECTIONS.items()})


def load_config(path: str | Path) -> Config:
    """Load and validate a config file; parse errors carry line and column."""
    path = Path(path)
    try:
        data = json.loads(path.read_bytes())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not JSON or not UTF-8, or an integer over the digit limit
        at = f":{exc.lineno}:{exc.colno}" if isinstance(exc, json.JSONDecodeError) else ""
        raise ConfigError(f"{path}{at}: {getattr(exc, 'msg', exc)}") from exc
    return config_from_dict(data)


def override(config: Config, *, seed: int | None = None,
             svg_every: int | None = None, metrics: bool | None = None) -> Config:
    """Apply command-line overrides on top of a loaded config."""
    if svg_every is not None and svg_every < 0:
        raise ConfigError(f"svg_every must be non-negative, got {svg_every}")
    given = {"svg_every": svg_every, "metrics": metrics}
    output = replace(config.output, **{k: v for k, v in given.items() if v is not None})
    return replace(config, seed=config.seed if seed is None else seed, output=output)
