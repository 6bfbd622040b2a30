"""JSONL trace: one header line, then one self-contained frame per line.

Serialization is canonical (sorted keys, compact separators, repr floats),
so identical runs produce byte-identical traces and every line parses on its
own.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .detect import Organization
from .errors import ConfigError, DynamicsError
from .geometry import AABB, CellCoord, Vec2
from .ntree import Body, bodies_from_columns

TRACE_VERSION = 1
_TAIL_BYTES = 64
# A frame line ending in its step: a last key "step" with an integer of at most
# 18 digits, in compact or spaced separators.
_STEP_TAIL = re.compile(rb'[{,][ \t]*"step"[ \t]*:[ \t]*(0|[1-9]\d{0,17})[ \t]*}[ \t]*\Z')


@dataclass(frozen=True)
class Frame:
    step: int
    bodies: tuple[Body, ...]
    organizations: tuple[Organization, ...]
    modularity: float | None = None


def dumps_canonical(obj: Any, what: str = "output") -> str:
    """Canonical JSON; a NaN or infinity in `obj` raises DynamicsError naming `what`."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise DynamicsError(f"{what} holds a non-finite number: {exc}") from exc


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


def bodies_from_frame_dict(data: dict[str, Any]) -> list[Body]:
    """Rebuild body objects from a frame line; charge is not recorded: 1.0.

    Each body's values are converted in the order id, species, x, y, vx,
    vy, body by body, and bodies_from_columns then checks them as Body does.
    """
    rows = [(int(b["id"]), int(b["species"]), float(b["x"]), float(b["y"]),
             float(b["vx"]), float(b["vy"])) for b in data["bodies"]]
    ids, species, x, y, vx, vy = zip(*rows) if rows else [()] * 6
    return bodies_from_columns(ids, species, x, y, vx, vy, [1.0] * len(rows))


def _decode(path: Path, lineno: int, line: bytes) -> Any:
    try:
        return json.loads(line)
    except ValueError as exc:  # not JSON or not UTF-8, or an integer over the digit limit
        why = getattr(exc, "msg", exc)  # a JSONDecodeError's message without its position
        raise ConfigError(f"{path}:{lineno}: malformed trace line: {why}") from exc


def _decode_frame(path: Path, lineno: int, line: bytes) -> dict[str, Any]:
    frame = _decode(path, lineno, line)
    if not isinstance(frame, dict):
        raise ConfigError(f"{path}:{lineno}: frame line is not an object")
    return frame


def _tail_step(line: bytes) -> int | None:
    """The step of a frame line whose last key is "step" with a plain integer,
    read from its last _TAIL_BYTES bytes without decoding it; else None."""
    match = _STEP_TAIL.search(line, max(0, len(line) - _TAIL_BYTES))
    return None if match is None else int(match[1])


@dataclass(frozen=True)
class TraceData:
    """A trace's decoded header and its frame lines, as (line number, step, line).

    A line whose tail gives its step (`_tail_step`) is kept as its byte span
    in the file, (offset, length), and read and decoded each time its frame
    is asked for; any other line was decoded by `read_trace` and has step
    None.
    """
    path: Path
    header: dict[str, Any]
    lines: tuple[tuple[int, int | None, Any], ...]

    def _frame(self, lineno: int, step: int | None, line: Any) -> dict[str, Any]:
        if step is None:
            return line
        offset, length = line
        try:
            with self.path.open("rb") as fh:
                fh.seek(offset)
                line = fh.read(length)
        except OSError as exc:
            raise ConfigError(f"cannot read trace {self.path}: {exc}") from exc
        frame = _decode_frame(self.path, lineno, line)
        if frame.get("step") != step:
            raise ConfigError(f"{self.path}:{lineno}: frame step {frame.get('step')!r} "
                              f"differs from its line's tail, {step}")
        return frame

    @property
    def frames(self) -> list[dict[str, Any]]:
        """Every frame in file order; reads and decodes every line kept as a span."""
        return [self._frame(*entry) for entry in self.lines]

    def frame_at(self, step: int) -> dict[str, Any]:
        """The first frame whose step equals `step`, reading no other line."""
        for lineno, line_step, line in self.lines:
            if (line.get("step") if line_step is None else line_step) == step:
                return self._frame(lineno, line_step, line)
        raise ConfigError(f"trace has no frame for step {step}")


def read_trace(path: str | Path) -> TraceData:
    """Decode a trace's header and every frame line whose step its tail does not give.

    A frame line whose tail gives its step is kept as its byte span, so the
    read holds one line at a time.  A malformed line whose tail gives a step
    is reported only when its frame is asked for, or when `frames` is read.
    """
    path = Path(path)
    numbered, offset = [], 0  # (line number, step, span or bytes) of the non-blank lines
    try:  # line by line; lines end as in splitlines, each line's end one of \r\n, \r, \n
        with path.open("rb", buffering=1 << 16) as fh:  # frame lines run to 100s of KiB
            parts = (part for raw in fh for part in raw.splitlines(keepends=True))
            for lineno, part in enumerate(parts, start=1):
                line = part.rstrip(b"\r\n")
                step = _tail_step(line) if numbered else None  # the header is decoded
                if line:
                    numbered.append((lineno, step, line if step is None else (offset, len(line))))
                offset += len(part)
                del part, line  # hold no line's bytes while the next is read
    except OSError as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from exc
    if not numbered:
        raise ConfigError(f"{path}: empty trace")
    (lineno, _, line), *frames = numbered
    header = _decode(path, lineno, line)
    lines = tuple((n, step, line if step is not None else _decode_frame(path, n, line))
                  for n, step, line in frames)
    if not isinstance(header, dict) or "config" not in header or "version" not in header:
        raise ConfigError(f"{path}: first line is not a trace header")
    if header["version"] != TRACE_VERSION:
        raise ConfigError(f"{path}: unsupported trace version {header['version']!r}")
    return TraceData(path=path, header=header, lines=lines)
