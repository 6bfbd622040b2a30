"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads flock field organize --seeds 1-10
    python3 perfbench/spread.py --workloads field --seeds 1-5 --trace 1 --out f.json
    python3 perfbench/spread.py --workloads flock --seeds 11-20 --against first.json

Runs are made one at a time, from the repository root, with the run length
from BENCHMARK.json unless --seconds is given.  For every metric it prints
the median, the quartiles (statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median.  Every end-to-end
metric, setup_s included, is compared with its bound from BENCHMARK.json; a
spread above the bound fails.  With --against, a median that is worse than
the earlier set's by more than the bound fails too.  --out writes every
run's record and result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path,
                        help="an earlier --out file; a median worse by more than its bound fails")
    parser.add_argument("--label", default="", help="stored in the --out file, e.g. a commit")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    against = (json.loads(args.against.read_text(encoding="utf-8"))
               if args.against else None)
    report = {"label": args.label, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record = json.loads(lines[0].removeprefix("# "))  # run.py prints it first
            runs.append({"record": record, **result})
            ok = ok and result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            summary[name] = summarise([r["metrics"][name]["value"] for r in runs])
            s = summary[name]
            bound = bounds.get(name) if args.trace == 0 else None
            verdict = ""
            if bound is not None:
                verdict = "ok" if s["spread"] <= bound else "OVER BOUND"
                ok = ok and s["spread"] <= bound
                if against is not None:
                    before = against["workloads"][workload]["summary"][name]["median"]
                    change = (s["median"] - before) / before
                    worse = -change if better[name] == "higher" else change
                    verdict += f", median {change:+.1%} against the earlier set"
                    if worse > bound:
                        verdict += " WORSE THAN BOUND"
                        ok = False
            print(f"  {workload} {name}: median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}"
                  + (f" (bound {bound}, {verdict})" if verdict else ""), flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
