"""JSONL trace: one header line, then one self-contained frame per line.

Serialization is canonical (sorted keys, compact separators, repr floats),
so identical runs produce byte-identical traces and every line parses on its
own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .detect import Organization
from .errors import ConfigError
from .geometry import AABB, CellCoord, Vec2
from .ntree import Body

TRACE_VERSION = 1


@dataclass(frozen=True)
class Frame:
    step: int
    bodies: tuple[Body, ...]
    organizations: tuple[Organization, ...]
    modularity: float | None = None


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def header_dict(config_dict: dict[str, Any]) -> dict[str, Any]:
    return {"config": config_dict, "version": TRACE_VERSION}


def organization_to_dict(org: Organization) -> dict[str, Any]:
    return {
        "id": org.id,
        "cells": [list(c) for c in sorted(org.cells)],
        "members": list(org.members),
        "centroid": [org.centroid.x, org.centroid.y],
        "bbox": [[org.bounding_box.lo.x, org.bounding_box.lo.y],
                 [org.bounding_box.hi.x, org.bounding_box.hi.y]],
    }


def organization_from_dict(data: dict[str, Any]) -> Organization:
    return Organization(
        id=int(data["id"]),
        cells=frozenset(CellCoord(d, ix, iy) for d, ix, iy in data["cells"]),
        members=tuple(int(i) for i in data["members"]),
        centroid=Vec2(float(data["centroid"][0]), float(data["centroid"][1])),
        bounding_box=AABB(Vec2(float(data["bbox"][0][0]), float(data["bbox"][0][1])),
                          Vec2(float(data["bbox"][1][0]), float(data["bbox"][1][1]))))


def frame_to_dict(frame: Frame) -> dict[str, Any]:
    out: dict[str, Any] = {
        "step": frame.step,
        "bodies": [
            {"id": b.id, "species": b.species, "x": b.position.x,
             "y": b.position.y, "vx": b.velocity.x, "vy": b.velocity.y}
            for b in frame.bodies
        ],
        "organizations": [organization_to_dict(o) for o in frame.organizations],
    }
    if frame.modularity is not None:
        out["modularity"] = frame.modularity
    return out


def bodies_from_frame_dict(data: dict[str, Any], charge: float = 1.0) -> list[Body]:
    """Rebuild body objects from a frame line; charge is not recorded."""
    return [Body(int(b["id"]), int(b["species"]),
                 Vec2(float(b["x"]), float(b["y"])),
                 Vec2(float(b["vx"]), float(b["vy"])), charge)
            for b in data["bodies"]]


@dataclass(frozen=True)
class TraceData:
    header: dict[str, Any]
    frames: list[dict[str, Any]]

    def frame_at(self, step: int) -> dict[str, Any]:
        for frame in self.frames:
            if frame.get("step") == step:
                return frame
        raise ConfigError(f"trace has no frame for step {step}")


def read_trace(path: str | Path) -> TraceData:
    path = Path(path)
    parsed = []
    for lineno, line in enumerate(path.read_bytes().splitlines(), start=1):
        if not line:
            continue
        try:
            parsed.append(json.loads(line))
        except ValueError as exc:  # not JSON or not UTF-8, or an integer over the digit limit
            why = getattr(exc, "msg", exc)  # a JSONDecodeError's message without its position
            raise ConfigError(f"{path}:{lineno}: malformed trace line: {why}") from exc
        if parsed[1:] and not isinstance(parsed[-1], dict):
            raise ConfigError(f"{path}:{lineno}: frame line is not an object")
    if not parsed:
        raise ConfigError(f"{path}: empty trace")
    header = parsed[0]
    if not isinstance(header, dict) or "config" not in header or "version" not in header:
        raise ConfigError(f"{path}: first line is not a trace header")
    if header["version"] != TRACE_VERSION:
        raise ConfigError(f"{path}: unsupported trace version {header['version']!r}")
    return TraceData(header=header, frames=parsed[1:])
