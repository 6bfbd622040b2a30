"""Command-line entry point with simulate, detect, field, and render commands."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config, override
from .errors import ConfigError, DynamicsError
from .run import detect_offline, field_run, render_offline, run_simulation
from .trace import dumps_canonical

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DYNAMICS = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the dynamics
    # error code; usage problems are config problems here.
    def error(self, message: str) -> None:  # noqa: A003
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orgtree",
                     description="Quadtree-backed multi-agent simulation and "
                                 "dense-group detection.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[], help="run the boids loop and write a trace")
    sim.add_argument("--config", type=Path, required=True, help="config JSON path")
    sim.add_argument("--steps", type=int, default=100, help="number of steps (default 100)")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    sim.add_argument("--svg-every", type=int, default=None,
                     help="write an SVG frame every K steps (0 disables)")
    sim.add_argument("--metrics", action="store_true", default=None,
                     help="record modularity per frame")
    sim.set_defaults(func=_cmd_simulate)

    det = sub.add_parser("detect", help="re-run detection on a recorded frame")
    det.add_argument("--trace", type=Path, required=True, help="trace.jsonl path")
    det.add_argument("--step", type=int, required=True, help="frame step to analyze")
    det.add_argument("--depth", type=int, required=True, help="depth threshold for the cut")
    det.set_defaults(func=_cmd_detect)

    fld = sub.add_parser("field", help="compare direct and tree field evaluation")
    fld.add_argument("--config", type=Path, required=True, help="config JSON path")
    fld.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    fld.set_defaults(func=_cmd_field)

    ren = sub.add_parser("render", help="render a recorded frame to SVG")
    ren.add_argument("--trace", type=Path, required=True, help="trace.jsonl path")
    ren.add_argument("--step", type=int, required=True, help="frame step to render")
    ren.add_argument("--out", type=Path, required=True, help="output SVG file")
    ren.set_defaults(func=_cmd_render)
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    config = override(config, seed=args.seed, svg_every=args.svg_every,
                      metrics=args.metrics)
    trace_path = run_simulation(config, args.out, args.steps)
    print(trace_path)
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace) -> int:
    fragment = detect_offline(args.trace, args.step, args.depth)
    print(dumps_canonical(fragment, "the detect output"))
    return EXIT_OK


def _cmd_field(args: argparse.Namespace) -> int:
    summary = field_run(load_config(args.config), args.out)
    print(dumps_canonical({"summary": summary}))
    return EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(render_offline(args.trace, args.step), encoding="utf-8")
    print(args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DynamicsError as exc:
        where = f" at step {exc.step}" if exc.step is not None else ""
        print(f"dynamics error{where}: {exc}", file=sys.stderr)
        return EXIT_DYNAMICS
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
