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
from typing import Any, Iterator

from .detect import Organization
from .errors import ConfigError, DynamicsError
from .geometry import AABB, CellCoord, Vec2
from .ntree import Bodies, as_bodies

TRACE_VERSION = 1
_TAIL_BYTES = 64
# A frame line ending in its step: a last key "step" with an integer of at most
# 18 digits, in compact or spaced separators.
_STEP_TAIL = re.compile(rb'[{,][ \t]*"step"[ \t]*:[ \t]*(0|[1-9]\d{0,17})[ \t]*}[ \t]*\Z')
_BODY = '{"id":%d,"species":%d,"vx":%r,"vy":%r,"x":%r,"y":%r}'  # keys sorted, floats as json
_CHUNK_ROWS = 4096  # body rows per piece of iter_canonical


@dataclass(frozen=True)
class Frame:
    step: int
    bodies: Bodies
    organizations: tuple[Organization, ...]
    modularity: float | None = None


def iter_canonical(obj: Any, what: str = "output") -> Iterator[str]:
    """The pieces of `dumps_canonical(obj, what)`, in order.

    A Bodies under a dict's key "bodies", as frame_to_dict puts it, is written
    from its columns by _BODY, whose %r is json's float.__repr__: the same
    bytes, as the columns are finite, _CHUNK_ROWS rows to a piece.  The keys
    sorting before and after it are encoded first, so their errors come before
    any piece; a Bodies anywhere else is json's TypeError.
    """
    b = obj.get("bodies") if isinstance(obj, dict) else None
    if not isinstance(b, Bodies):
        try:
            text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
        except ValueError as exc:
            raise DynamicsError(f"{what} holds a non-finite number: {exc}") from exc
        yield text
        return
    head = dumps_canonical({k: obj[k] for k in obj if k < "bodies"}, what)[1:-1]
    tail = dumps_canonical({k: obj[k] for k in obj if k > "bodies"}, what)[1:-1]
    yield "{" + head + ("," if head else "") + '"bodies":['
    columns = (b.id, b.species, b.vx, b.vy, b.x, b.y)
    for a in range(0, len(b), _CHUNK_ROWS):
        rows = zip(*(c[a:a + _CHUNK_ROWS].tolist() for c in columns))
        yield ("," if a else "") + ",".join(map(_BODY.__mod__, rows))
    yield "]" + ("," if tail else "") + tail + "}"


def dumps_canonical(obj: Any, what: str = "output") -> str:
    """Canonical JSON; a NaN or infinity in `obj` raises DynamicsError naming `what`."""
    return "".join(iter_canonical(obj, what))


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
        "bodies": as_bodies(frame.bodies),  # written from its columns by dumps_canonical
        "organizations": [organization_to_dict(o) for o in frame.organizations],
    }
    if frame.modularity is not None:
        out["modularity"] = frame.modularity
    return out


def bodies_from_frame_dict(data: dict[str, Any]) -> Bodies:
    """The bodies of a frame line as columns; charge is not recorded: 1.0.

    Each body's values are converted in the order id, species, x, y, vx,
    vy, body by body, and Bodies then checks them.
    """
    rows = [(int(b["id"]), int(b["species"]), float(b["x"]), float(b["y"]),
             float(b["vx"]), float(b["vy"])) for b in data["bodies"]]
    return Bodies(*(zip(*rows) if rows else [()] * 6), [1.0] * len(rows))


def _decode(path: Path, lineno: int, fh, span: tuple[int, int]) -> Any:
    """The line at span (offset, length) of the open trace `fh`, decoded."""
    fh.seek(span[0])
    try:
        return json.loads(fh.read(span[1]))
    except ValueError as exc:  # not JSON or not UTF-8, or an integer over the digit limit
        why = getattr(exc, "msg", exc)  # a JSONDecodeError's message without its position
        raise ConfigError(f"{path}:{lineno}: malformed trace line: {why}") from exc


def _decode_frame(path: Path, lineno: int, fh, span: tuple[int, int]) -> dict[str, Any]:
    frame = _decode(path, lineno, fh, span)
    if not isinstance(frame, dict):
        raise ConfigError(f"{path}:{lineno}: frame line is not an object")
    return frame


def _tail_step(line: bytes) -> int | None:
    """The step of a frame line whose last key is "step" with a plain integer,
    read from its last _TAIL_BYTES bytes without decoding it; else None."""
    match = _STEP_TAIL.search(line, max(0, len(line) - _TAIL_BYTES))
    return None if match is None else int(match[1])


def _line_spans(fh) -> Iterator[tuple[int, int, bytes]]:
    r"""(offset, length, last _TAIL_BYTES bytes) of each line, read a block at a time: no
    line is held whole.  Lines end as in bytes.splitlines (\r\n, \r or \n); a length omits it."""
    start, length, tail, held = 0, 0, b"", b""  # the open line, and a \r held back
    while True:
        data = fh.read(1 << 16)
        block, held = held + (data or b"\n"), b""  # at the end, a \n closes the last line
        if block.endswith(b"\r"):  # it may start a \r\n
            block, held = block[:-1], b"\r"
        for part in block.splitlines(keepends=True):
            text = part.rstrip(b"\r\n")
            length, tail = length + len(text), (tail + text)[-_TAIL_BYTES:]
            if len(text) < len(part):
                yield start, length, tail
                start, length, tail = start + length + len(part) - len(text), 0, b""
        if not data:
            return


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
        try:
            with self.path.open("rb") as fh:
                frame = _decode_frame(self.path, lineno, fh, line)
        except OSError as exc:
            raise ConfigError(f"cannot read trace {self.path}: {exc}") from exc
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

    Only the lines decoded here are read whole, one at a time; any other frame
    line is kept as its byte span.  A malformed line whose tail gives a step
    is reported only when its frame is asked for, or when `frames` is read.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            numbered = [(n, _tail_step(tail), (offset, length))  # the non-blank lines
                        for n, (offset, length, tail) in enumerate(_line_spans(fh), start=1)
                        if length]
            if not numbered:
                raise ConfigError(f"{path}: empty trace")
            (lineno, _, span), *frames = numbered
            header = _decode(path, lineno, fh, span)
            lines = tuple((n, step, span if step is not None else _decode_frame(path, n, fh, span))
                          for n, step, span in frames)
    except OSError as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from exc
    if not isinstance(header, dict) or "config" not in header or "version" not in header:
        raise ConfigError(f"{path}: first line is not a trace header")
    if header["version"] != TRACE_VERSION:
        raise ConfigError(f"{path}: unsupported trace version {header['version']!r}")
    return TraceData(path=path, header=header, lines=lines)
