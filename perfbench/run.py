"""orgtree benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload flock --seed 1 --seconds 35 --trace 0

Run from the repository root.  The package is imported from `src/` beside
this directory, never from an installed copy.  The timed phase repeats
whole rounds (see workloads.py) until `--seconds` have passed and at least
MIN_OPS ops have run.  Outputs are checked outside the timed ops.

Set-up and op times are reported as the 90th percentile of their samples.
On a shared host a process can run up to twice as slow while its
neighbours are busy, in phases of seconds to minutes.  A median or a mean
then follows the share of the run spent in fast phases, which varies from
run to run; the 90th percentile stays in the slow phase that every run
meets.  ops_per_s, the median and the tail (the 11th slowest op) are
printed beside the metrics.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates traced and
untraced rounds, starting traced, and prints the per-layer metrics: span
self times per op (medians over traced ops), counts per op (means over the
first round, so they repeat exactly for a seed), the workload's layer
probes, and the tracing overhead.  Human-readable lines come first; the
last line of standard output is the JSON result.  A run record and, for a
traced run, every span are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 21  # with ten samples beyond it, the tail is at least the median


def p90(samples: list[float]) -> float:
    """The 90th percentile, as statistics.quantiles(samples, n=10) gives it."""
    return statistics.quantiles(samples, n=10)[-1]

# Per-layer times: metric name -> span names whose self times are summed per op.
SPAN_METRICS = (
    ("ntree.build_ms", ("ntree.build_tree",)),
    ("ntree.query_ms", ("probe.ntree.query_radius_bodies",)),
    ("boids.step_ms", ("boids.step_world",)),
    ("kernels.tree_fields_ms", ("kernels.tree_fields",)),
    ("detect.cut_ms", ("detect.cut",)),
    ("detect.group_ms", ("detect.group_cells2",)),
    ("detect.materialise_ms", ("detect.organizations_from",)),
    ("metrics.graph_ms", ("metrics.interaction_graph",)),
    ("metrics.modularity_ms", ("metrics.modularity",)),
    ("trace.serialise_ms", ("trace.frame_to_dict", "trace.dumps_canonical")),
    ("trace.read_ms", ("trace.read_trace", "trace.bodies_from_frame_dict")),
)
# Counts per op, as means over the first round.  Units for the JSON result.
COUNT_METRICS = (
    ("ntree.nodes", "count"),
    ("ntree.leaves", "count"),
    ("ntree.depth_max", "count"),
    ("ntree.overfull_leaves", "count"),
    ("boids.pairs", "count"),
    ("detect.cells", "count"),
    ("detect.groups", "count"),
    ("metrics.graph_bytes_computed", "bytes"),
    ("trace.bytes_per_frame", "bytes"),
)
PROBE_METRICS = (
    ("kernels.growth_per_doubling", "ratio"),
    ("kernels.growth_spread", "ratio"),
    ("kernels.direct_ms", "ms"),
    ("kernels.field_max_rel_error", "ratio"),
)
# Metrics that must repeat exactly between runs with the same seed.
EXACT_METRICS = ({name for name, _ in COUNT_METRICS}
                 | {"ntree.query_hits_mean", "kernels.field_max_rel_error"})


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric and its unit, in report order."""
    units = {name: "ms" for name, _ in SPAN_METRICS}
    units.update(COUNT_METRICS)
    units["ntree.query_hits_mean"] = "count"
    units.update(PROBE_METRICS)
    units["tracing.overhead_ops_per_s"] = "1/s"
    return units


END_TO_END_UNITS = {"setup_s": "s", "op_ms_p90": "ms", "peak_rss_mib": "MiB"}


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "min_ops": MIN_OPS}


def tail(durations: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it: the 11th slowest."""
    ordered = sorted(durations)
    n = len(ordered)
    beyond = min(10, n - 1)
    return {"value_ms": ordered[n - 1 - beyond] * 1000.0,
            "percentile": 100.0 * (n - beyond) / n, "samples": n, "beyond": beyond}


def measure(workload, seconds: float, traced: bool):
    """The timed phase.  Returns (samples, attempted, failed, errors, tracer)."""
    from tracing import Tracer

    tracer = Tracer() if traced else None
    setup_s: list[float] = []
    op_s: dict[bool, list[float]] = {False: [], True: []}
    first_round: list[int] = []
    attempted = failed = 0
    errors: list[str] = []
    start = time.perf_counter()
    rnd = 0
    while (rnd == 0 or (traced and rnd < 2) or attempted < MIN_OPS
           or time.perf_counter() - start < seconds):
        traced_round = traced and rnd % 2 == 0
        t0 = time.perf_counter()
        ctx = workload.setup()
        setup_s.append(time.perf_counter() - t0)
        try:
            for i in range(workload.ops_per_round):
                op_id = attempted
                attempted += 1
                try:
                    if traced_round:
                        with tracer.installed():
                            t0 = time.perf_counter()
                            with tracer.op(op_id):
                                out = workload.op(ctx, i)
                            dt = time.perf_counter() - t0
                        tracer.flush()
                        workload.probe(ctx, i, out, tracer)
                        if rnd == 0:
                            first_round.append(op_id)
                    else:
                        t0 = time.perf_counter()
                        out = workload.op(ctx, i)
                        dt = time.perf_counter() - t0
                    op_s[traced_round].append(dt)
                    ok = workload.check_op(ctx, i, out)
                except Exception:  # an op that raises counts as failed; the round ends
                    failed += 1
                    errors.append(traceback.format_exc(limit=3))
                    break
                if not ok:
                    failed += 1
                    errors.append(f"op {op_id} (round {rnd}, index {i}) failed its check")
                # Spare set-ups between ops sample set-up all through the run.
                for _ in range(workload.setups_per_op):
                    t0 = time.perf_counter()
                    spare = workload.setup()
                    setup_s.append(time.perf_counter() - t0)
                    workload.close(spare)
        finally:
            workload.close(ctx)
        rnd += 1
    return {"setup_s": setup_s, "op_s": op_s, "first_round": first_round}, \
        attempted, failed, errors, tracer


def end_to_end(samples) -> tuple[dict, dict]:
    durations = samples["op_s"][False]
    values = {
        "setup_s": p90(samples["setup_s"]),
        "op_ms_p90": p90(durations) * 1000.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Printed and stored beside the metrics, not metrics themselves.
    extra = {"op_ms_tail": tail(durations),
             "ops_per_s": len(durations) / sum(durations),
             "op_ms_p50": statistics.median(durations) * 1000.0,
             "setup_s_p50": statistics.median(samples["setup_s"]),
             "setup_samples": len(samples["setup_s"])}
    return values, extra


def per_layer(samples, tracer, probes: dict) -> tuple[dict, dict]:
    traced_ops = [op for _, _, op, name, _, _ in tracer.spans if name == "bench.op"]
    self_times = tracer.self_times()
    values: dict[str, float] = {}
    for name, spans in SPAN_METRICS:
        values[name] = statistics.median(
            sum(self_times[op].get(s, 0.0) for s in spans) for op in traced_ops) * 1000.0
    first = samples["first_round"]
    for name, _ in COUNT_METRICS:
        values[name] = sum(tracer.counts[op].get(name, 0) for op in first) / max(len(first), 1)
    queries = sum(tracer.counts[op].get("ntree.queries", 0) for op in first)
    hits = sum(tracer.counts[op].get("ntree.query_hits", 0) for op in first)
    values["ntree.query_hits_mean"] = hits / queries if queries else 0.0
    for name, _ in PROBE_METRICS:
        values[name] = probes.get(name, 0.0)
    rates = {k: len(v) / sum(v) for k, v in samples["op_s"].items()}
    values["tracing.overhead_ops_per_s"] = rates[True] - rates[False]
    # Self time per traced op for every layer, probes excluded.
    layers: dict[str, float] = {}
    for op in traced_ops:
        for span, secs in self_times[op].items():
            if not span.startswith("probe."):
                layer = span.split(".", 1)[0]
                layers[layer] = layers.get(layer, 0.0) + secs * 1000.0 / len(traced_ops)
    return {name: values[name] for name in per_layer_units()}, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("flock", "field", "organize"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orgtree" / "__init__.py").is_file():
        print(f"perfbench: no orgtree package under {SRC}", file=sys.stderr)
        return 2
    # One client, one thread: keep numpy's BLAS pool from adding threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import orgtree
    if Path(orgtree.__file__).resolve().parent != SRC / "orgtree":
        print(f"perfbench: imported orgtree from {orgtree.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    traced = args.trace == 1
    record = run_record(args.workload, args.seed, args.seconds, args.trace)
    tag = f"{args.workload}-seed{args.seed}"
    work_dir = OUT / f"work-{tag}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        samples, attempted, failed, errors, tracer = measure(workload, args.seconds, traced)
        try:
            failures = workload.check_run()
            probes = workload.layer_probes() if traced else {}
        except Exception:
            failures = [traceback.format_exc(limit=3)]
            probes = {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if failures:
        failed = attempted
        errors.extend(failures)
    if not samples["op_s"][False] or (traced and not samples["op_s"][True]):
        print("perfbench: no op completed; errors follow", file=sys.stderr)
        for message in errors:
            print(message.rstrip(), file=sys.stderr)
        return 1

    if traced:
        metrics, layers = per_layer(samples, tracer, probes)
        units = per_layer_units()
        tracer.write(OUT / f"{tag}-spans.jsonl")
        extra = {"layer_self_ms_per_op": layers}
    else:
        metrics, extra = end_to_end(samples)
        units = END_TO_END_UNITS
    error_rate = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(
        {"record": record, "error_rate": error_rate, "errors": errors,
         **extra, **result}, indent=1) + "\n", encoding="utf-8")

    for message in errors:
        print(f"error: {message.rstrip()}", file=sys.stderr)
    print(f"# {json.dumps(record)}")
    print(f"# {args.workload}: attempted {attempted}, failed {failed}, "
          f"error_rate {error_rate:g} ratio")
    for name, value in metrics.items():
        print(f"# {args.workload}: {name} {value:.6g} {units[name]}")
    if traced:
        print("# self ms per traced op: " + ", ".join(
            f"{layer} {ms:.3f}" for layer, ms in sorted(layers.items())))
    else:
        t = extra["op_ms_tail"]
        print(f"# {args.workload}: ops_per_s {extra['ops_per_s']:.6g} 1/s, "
              f"op median {extra['op_ms_p50']:.6g} ms, set-up median "
              f"{extra['setup_s_p50']:.6g} s of {extra['setup_samples']} set-ups")
        print(f"# {args.workload}: op_ms_tail {t['value_ms']:.6g} ms, "
              f"p{t['percentile']:.1f} of {t['samples']} ops ({t['beyond']} beyond)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
