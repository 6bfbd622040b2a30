"""In-memory spans and counters recorded from outside the program.

A traced op runs with thin wrappers around the public orgtree functions the
workloads reach (see `CALL_SITES`), each wrapper recording one span.
Nothing in the package itself is edited: the wrappers replace module and
class attributes while the op runs and the originals are put back
afterwards, so untraced ops call the plain functions.

A span is (id, parent id, op id, name, start, end) with perf_counter times.
A span's self time is its duration minus the durations of its direct
children.  Counters are attached to the op that produced them; the values
are computed from a wrapped call's result only in `flush`, after the op has
finished, so counting never lands inside a timed span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from orgtree import boids, detect, kernels, metrics, ntree, run, trace


def _graph_bytes(graph) -> int:
    # Bytes of every numpy array the returned graph object holds.
    return sum(getattr(v, "nbytes", 0) for v in vars(graph).values())


def _line_bytes(line: str) -> int:
    return len(line.encode("utf-8")) + 1  # the written line plus its newline


# (owner, attribute, span name, counter).  An owner is the namespace the
# caller looks the function up in: `boids.build_tree` is the rebuild inside
# `step_world`, `run.group_cells2` the grouping inside `detect_organizations`.
# A counter maps the call's result to {counter name: value}.
CALL_SITES = (
    (ntree, "build_tree", "ntree.build_tree", None),
    (boids, "build_tree", "ntree.build_tree", None),
    (boids, "step_world", "boids.step_world", None),
    (kernels, "tree_fields", "kernels.tree_fields", None),
    (detect.CellSet, "from_tree", "detect.cut",
     lambda r: {"detect.cells": len(r)}),
    (detect, "group_cells2", "detect.group_cells2",
     lambda r: {"detect.groups": len(r)}),
    (run, "group_cells2", "detect.group_cells2",
     lambda r: {"detect.groups": len(r)}),
    (detect, "organizations_from", "detect.organizations_from", None),
    (run, "organizations_from", "detect.organizations_from", None),
    (run, "detect_organizations", "run.detect_organizations", None),
    (metrics, "interaction_graph", "metrics.interaction_graph",
     lambda r: {"metrics.graph_bytes_computed": _graph_bytes(r)}),
    (metrics, "organization_partition", "metrics.organization_partition", None),
    (metrics, "modularity", "metrics.modularity", None),
    (trace, "read_trace", "trace.read_trace", None),
    (trace, "bodies_from_frame_dict", "trace.bodies_from_frame_dict", None),
    (trace, "frame_to_dict", "trace.frame_to_dict", None),
    (trace, "dumps_canonical", "trace.dumps_canonical",
     lambda r: {"trace.bytes_per_frame": _line_bytes(r)}),
)


class Tracer:
    """Spans and counters of one run, kept in memory until `write`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: int | None = None
        self._pending: list[tuple[int | None, object, object]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, parent, self.op_id, name, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; later spans and counts belong to it too."""
        self.op_id = op_id
        with self.span("bench.op"):
            yield

    def flush(self) -> None:
        """Evaluate the counters of wrapped calls; call outside timed spans."""
        for op_id, counter, result in self._pending:
            for name, value in counter(result).items():
                self.counts[op_id][name] += value
        self._pending.clear()

    def count(self, name: str, value: float) -> None:
        self.counts[self.op_id][name] += value

    def wrap(self, fn, name: str, counter=None):
        def wrapped(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self._pending.append((self.op_id, counter, result))
            return result
        return wrapped

    @contextmanager
    def installed(self):
        """Route every call site in CALL_SITES through a span wrapper."""
        saved = []
        try:
            for owner, attr, name, counter in CALL_SITES:
                raw = vars(owner)[attr]
                wrapped = self.wrap(getattr(owner, attr), name, counter)
                if isinstance(owner, type):
                    wrapped = staticmethod(wrapped)
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op: span name -> summed self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, _, op_id, name, start, end in self.spans:
            out[op_id][name] += (end - start) - child_time[sid]
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op_id,
                                     "name": name, "start": start, "end": end}) + "\n")
