"""Run configuration: a strict JSON document with defaults for every field.

Unknown keys are rejected so typos fail loudly instead of silently falling
back to defaults.  The reference grammar lives in the README.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from .boids import (BOUNDARY_POLICIES, BOUNDARY_REFLECT, COHESION_MODES,
                    COHESION_NORMALIZED, SimParams, SpeciesParams)
from .errors import ConfigError
from .geometry import AABB, Vec2
from .kernels import KernelParams, MODE_GRAVITY, MODES


@dataclass(frozen=True)
class WorldConfig:
    box: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 0.0), (100.0, 100.0))
    capacity: int = 10
    max_depth: int = 24
    dt: float = 0.1
    boundary: str = BOUNDARY_REFLECT


@dataclass(frozen=True)
class SpeciesConfig:
    name: str = ""
    count: int = 100
    center: tuple[float, float] = (50.0, 50.0)
    radius: float = 10.0
    seed: int = 1
    alpha: float = 1.0
    beta: float = 0.3
    gamma: float = 0.5
    delta: float = 0.3
    inter_species_gamma: float = 2.0
    neighbor_radius: float = 10.0
    max_speed: float = 2.0
    charge: float = 1.0


@dataclass(frozen=True)
class DetectionConfig:
    depth: int = 5
    min_org_size: int = 1
    cohesion_mode: str = COHESION_NORMALIZED


@dataclass(frozen=True)
class KernelConfig:
    mode: str = MODE_GRAVITY
    constant: float = 1.0
    theta: float = 0.5
    softening: float = 0.0


@dataclass(frozen=True)
class OutputConfig:
    frame_every: int = 1
    svg_every: int = 0
    metrics: bool = False


@dataclass(frozen=True)
class Config:
    seed: int = 0
    world: WorldConfig = WorldConfig()
    species: tuple[SpeciesConfig, ...] = (SpeciesConfig(),)
    detection: DetectionConfig = DetectionConfig()
    kernels: KernelConfig = KernelConfig()
    output: OutputConfig = OutputConfig()

    def to_dict(self) -> dict[str, Any]:
        """Canonical dict with every default materialized; drives the trace header."""
        return {
            "seed": self.seed,
            "world": {
                "box": [list(self.world.box[0]), list(self.world.box[1])],
                "capacity": self.world.capacity,
                "max_depth": self.world.max_depth,
                "dt": self.world.dt,
                "boundary": self.world.boundary,
            },
            "species": [
                {
                    "name": sp.name,
                    "count": sp.count,
                    "center": list(sp.center),
                    "radius": sp.radius,
                    "seed": sp.seed,
                    "alpha": sp.alpha,
                    "beta": sp.beta,
                    "gamma": sp.gamma,
                    "delta": sp.delta,
                    "inter_species_gamma": sp.inter_species_gamma,
                    "neighbor_radius": sp.neighbor_radius,
                    "max_speed": sp.max_speed,
                    "charge": sp.charge,
                }
                for sp in self.species
            ],
            "detection": {
                "depth": self.detection.depth,
                "min_org_size": self.detection.min_org_size,
                "cohesion_mode": self.detection.cohesion_mode,
            },
            "kernels": {
                "mode": self.kernels.mode,
                "constant": self.kernels.constant,
                "theta": self.kernels.theta,
                "softening": self.kernels.softening,
            },
            "output": {
                "frame_every": self.output.frame_every,
                "svg_every": self.output.svg_every,
                "metrics": self.output.metrics,
            },
        }

    def world_box(self) -> AABB:
        (lox, loy), (hix, hiy) = self.world.box
        return AABB(Vec2(lox, loy), Vec2(hix, hiy))

    def sim_params(self) -> SimParams:
        species = tuple(
            SpeciesParams(alpha=sp.alpha, beta=sp.beta, gamma=sp.gamma,
                          delta=sp.delta,
                          inter_species_gamma=sp.inter_species_gamma,
                          neighbor_radius=sp.neighbor_radius,
                          max_speed=sp.max_speed)
            for sp in self.species)
        return SimParams(box=self.world_box(), species=species,
                         capacity=self.world.capacity,
                         max_depth=self.world.max_depth, dt=self.world.dt,
                         boundary=self.world.boundary,
                         cohesion_mode=self.detection.cohesion_mode)

    def kernel_params(self) -> KernelParams:
        return KernelParams(constant=self.kernels.constant,
                            softening=self.kernels.softening,
                            theta=self.kernels.theta, mode=self.kernels.mode)


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _finite(value) -> bool:
    # json.loads also yields NaN, +-Infinity and integers beyond float range.
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _get_number(section: dict, key: str, default, where: str) -> float:
    value = section.get(key, default)
    if not _finite(value):
        raise ConfigError(f"{where}.{key} must be a finite number, got {value!r}")
    return float(value)


def _get_int(section: dict, key: str, default, where: str) -> int:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def _get_str(section: dict, key: str, default: str, allowed: tuple[str, ...],
             where: str) -> str:
    value = section.get(key, default)
    if value not in allowed:
        raise ConfigError(
            f"{where}.{key} must be one of {', '.join(allowed)}, got {value!r}")
    return value


def _get_point(section: dict, key: str, default, where: str) -> tuple[float, float]:
    value = section.get(key, None)
    if value is None:
        return default
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(_finite(v) for v in value)):
        raise ConfigError(f"{where}.{key} must be a pair of finite numbers, got {value!r}")
    return float(value[0]), float(value[1])


def _parse_world(section: Any) -> WorldConfig:
    if not isinstance(section, dict):
        raise ConfigError("world must be an object")
    _require_keys(section, {"box", "capacity", "max_depth", "dt", "boundary"}, "world")
    default = WorldConfig()
    box = section.get("box", None)
    if box is None:
        box_t = default.box
    else:
        if (not isinstance(box, (list, tuple)) or len(box) != 2
                or any(not isinstance(corner, (list, tuple)) or len(corner) != 2
                       or not all(_finite(v) for v in corner)
                       for corner in box)):
            raise ConfigError(f"world.box must be [[lox, loy], [hix, hiy]], got {box!r}")
        box_t = ((float(box[0][0]), float(box[0][1])),
                 (float(box[1][0]), float(box[1][1])))
    capacity = _get_int(section, "capacity", default.capacity, "world")
    if capacity < 1:
        raise ConfigError(f"world.capacity must be at least 1, got {capacity}")
    max_depth = _get_int(section, "max_depth", default.max_depth, "world")
    if max_depth < 1:
        raise ConfigError(f"world.max_depth must be at least 1, got {max_depth}")
    dt = _get_number(section, "dt", default.dt, "world")
    if dt <= 0:
        raise ConfigError(f"world.dt must be positive, got {dt}")
    boundary = _get_str(section, "boundary", default.boundary, BOUNDARY_POLICIES, "world")
    (lox, loy), (hix, hiy) = box_t
    if not (lox < hix and loy < hiy):
        raise ConfigError(f"world.box must have positive extent, got {box_t}")
    return WorldConfig(box=box_t, capacity=capacity, max_depth=max_depth,
                       dt=dt, boundary=boundary)


_SPECIES_KEYS = {"name", "count", "center", "radius", "seed", "alpha", "beta",
                 "gamma", "delta", "inter_species_gamma", "neighbor_radius",
                 "max_speed", "charge"}


def _parse_species(entry: Any, index: int, world: WorldConfig) -> SpeciesConfig:
    where = f"species[{index}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be an object")
    _require_keys(entry, _SPECIES_KEYS, where)
    default = SpeciesConfig()
    (lox, loy), (hix, hiy) = world.box
    center_default = ((lox + hix) / 2.0, (loy + hiy) / 2.0)

    name = entry.get("name", f"species{index}")
    if not isinstance(name, str):
        raise ConfigError(f"{where}.name must be a string, got {name!r}")
    count = _get_int(entry, "count", default.count, where)
    if count < 0:
        raise ConfigError(f"{where}.count must be non-negative, got {count}")
    center = _get_point(entry, "center", center_default, where)
    radius = _get_number(entry, "radius", default.radius, where)
    if radius < 0:
        raise ConfigError(f"{where}.radius must be non-negative, got {radius}")
    if (center[0] - radius < lox or center[0] + radius > hix
            or center[1] - radius < loy or center[1] + radius > hiy):
        raise ConfigError(f"{where}: placement disk leaves the world box")
    seed = _get_int(entry, "seed", index + 1, where)
    neighbor_radius = _get_number(entry, "neighbor_radius", default.neighbor_radius, where)
    if neighbor_radius <= 0:
        raise ConfigError(f"{where}.neighbor_radius must be positive")
    max_speed = _get_number(entry, "max_speed", default.max_speed, where)
    if max_speed <= 0:
        raise ConfigError(f"{where}.max_speed must be positive")
    return SpeciesConfig(
        name=name, count=count, center=center, radius=radius, seed=seed,
        alpha=_get_number(entry, "alpha", default.alpha, where),
        beta=_get_number(entry, "beta", default.beta, where),
        gamma=_get_number(entry, "gamma", default.gamma, where),
        delta=_get_number(entry, "delta", default.delta, where),
        inter_species_gamma=_get_number(entry, "inter_species_gamma",
                                        default.inter_species_gamma, where),
        neighbor_radius=neighbor_radius, max_speed=max_speed,
        charge=_get_number(entry, "charge", default.charge, where))


def _parse_detection(section: Any) -> DetectionConfig:
    if not isinstance(section, dict):
        raise ConfigError("detection must be an object")
    _require_keys(section, {"depth", "min_org_size", "cohesion_mode"}, "detection")
    default = DetectionConfig()
    depth = _get_int(section, "depth", default.depth, "detection")
    if depth < 0:
        raise ConfigError(f"detection.depth must be non-negative, got {depth}")
    min_org_size = _get_int(section, "min_org_size", default.min_org_size, "detection")
    if min_org_size < 1:
        raise ConfigError(f"detection.min_org_size must be at least 1, got {min_org_size}")
    mode = _get_str(section, "cohesion_mode", default.cohesion_mode,
                    COHESION_MODES, "detection")
    return DetectionConfig(depth=depth, min_org_size=min_org_size, cohesion_mode=mode)


def _parse_kernels(section: Any) -> KernelConfig:
    if not isinstance(section, dict):
        raise ConfigError("kernels must be an object")
    _require_keys(section, {"mode", "constant", "theta", "softening"}, "kernels")
    default = KernelConfig()
    mode = _get_str(section, "mode", default.mode, MODES, "kernels")
    theta = _get_number(section, "theta", default.theta, "kernels")
    if theta < 0:
        raise ConfigError(f"kernels.theta must be non-negative, got {theta}")
    softening = _get_number(section, "softening", default.softening, "kernels")
    if softening < 0:
        raise ConfigError(f"kernels.softening must be non-negative, got {softening}")
    return KernelConfig(mode=mode,
                        constant=_get_number(section, "constant", default.constant, "kernels"),
                        theta=theta, softening=softening)


def _parse_output(section: Any) -> OutputConfig:
    if not isinstance(section, dict):
        raise ConfigError("output must be an object")
    _require_keys(section, {"frame_every", "svg_every", "metrics"}, "output")
    default = OutputConfig()
    frame_every = _get_int(section, "frame_every", default.frame_every, "output")
    if frame_every < 1:
        raise ConfigError(f"output.frame_every must be at least 1, got {frame_every}")
    svg_every = _get_int(section, "svg_every", default.svg_every, "output")
    if svg_every < 0:
        raise ConfigError(f"output.svg_every must be non-negative, got {svg_every}")
    metrics = section.get("metrics", default.metrics)
    if not isinstance(metrics, bool):
        raise ConfigError(f"output.metrics must be true or false, got {metrics!r}")
    return OutputConfig(frame_every=frame_every, svg_every=svg_every, metrics=metrics)


def config_from_dict(data: Any) -> Config:
    """Validate a parsed JSON document and fill defaults."""
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    _require_keys(data, {"seed", "world", "species", "detection", "kernels", "output"},
                  "config")
    seed = _get_int(data, "seed", 0, "config")
    world = _parse_world(data.get("world", {}))
    species_raw = data.get("species", [{}])
    if not isinstance(species_raw, list) or not species_raw:
        raise ConfigError("species must be a non-empty list")
    species = tuple(_parse_species(entry, i, world)
                    for i, entry in enumerate(species_raw))
    return Config(seed=seed, world=world, species=species,
                  detection=_parse_detection(data.get("detection", {})),
                  kernels=_parse_kernels(data.get("kernels", {})),
                  output=_parse_output(data.get("output", {})))


def load_config(path: str | Path) -> Config:
    """Load and validate a config file; parse errors carry line and column."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # e.g. an integer literal beyond int's digit limit
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(data)


def override(config: Config, *, seed: int | None = None,
             svg_every: int | None = None, metrics: bool | None = None,
             frame_every: int | None = None) -> Config:
    """Apply command-line overrides on top of a loaded config."""
    if seed is not None:
        config = replace(config, seed=seed)
    out = config.output
    if svg_every is not None:
        if svg_every < 0:
            raise ConfigError(f"svg_every must be non-negative, got {svg_every}")
        out = replace(out, svg_every=svg_every)
    if frame_every is not None:
        if frame_every < 1:
            raise ConfigError(f"frame_every must be at least 1, got {frame_every}")
        out = replace(out, frame_every=frame_every)
    if metrics is not None:
        out = replace(out, metrics=metrics)
    return replace(config, output=out)
