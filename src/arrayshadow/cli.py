"""Command-line front end: simulate, validate, presets, oracle.

Exit codes: 0 on success, 1 on a scenario validation error, 2 on a
runtime or numerical error.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .geometry import folded_nodes
from .presets import PRESET_NAMES, load_preset
from .runner import (
    MAX_EXPORTED_VALUES,
    ScenarioError,
    SimulationError,
    export,
    exported_bound,
    load_scenario,
    run,
    start_orders,
)


def _resolve_config(spec: str):
    """Accept either a config file path or a shipped preset name."""
    if Path(spec).exists():
        return load_scenario(spec)
    if spec in PRESET_NAMES:
        return load_preset(spec)
    raise ScenarioError(
        f"'{spec}' is neither an existing file nor a preset "
        f"(presets: {', '.join(PRESET_NAMES)})"
    )


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The top-level parser and its ``oracle knife-edge`` subparser."""
    parser = argparse.ArgumentParser(
        prog="arrayshadow",
        description="Body-shadowing simulator for RF links with a ULA receiver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and export results")
    sim.add_argument("config", help="scenario JSON file or preset name")
    sim.add_argument("--out", default="results", help="output directory (default: results)")
    sim.add_argument("--format", choices=("csv", "jsonl", "gnuplot"), default="csv")

    val = sub.add_parser("validate", help="check a scenario file")
    val.add_argument("config", help="scenario JSON file or preset name")

    pre = sub.add_parser("presets", help="inspect shipped presets")
    pre_sub = pre.add_subparsers(dest="presets_command", required=True)
    pre_sub.add_parser("list", help="list preset names")

    orc = sub.add_parser("oracle", help="reference curves for manual inspection")
    orc_sub = orc.add_subparsers(dest="oracle_command", required=True)
    knife = orc_sub.add_parser("knife-edge", help="half-plane attenuation vs nu")
    knife.add_argument("--nu-min", type=float, default=-3.0)
    knife.add_argument("--nu-max", type=float, default=3.0)
    knife.add_argument("--step", type=float, default=0.1)

    return parser, knife


_MAX_ORACLE_POINTS = 1_000_000


def _check_oracle_args(knife: argparse.ArgumentParser, args) -> None:
    """Exit 2 through ``knife.error`` unless the knife-edge range is printable."""
    if not (math.isfinite(args.step) and args.step > 0.0):
        knife.error(f"--step must be positive and finite, got {args.step}")
    for flag, value in (("--nu-min", args.nu_min), ("--nu-max", args.nu_max)):
        if not math.isfinite(value):
            knife.error(f"{flag} must be finite, got {value}")
    if args.nu_max < args.nu_min:
        knife.error(f"--nu-max {args.nu_max} is below --nu-min {args.nu_min}")
    points = (args.nu_max + args.step / 2.0 - args.nu_min) / args.step  # may overflow to inf
    if points > _MAX_ORACLE_POINTS:
        knife.error(f"--nu-min, --nu-max and --step give more than {_MAX_ORACLE_POINTS:,} points")


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a library warning as one ``warning:`` line on stderr, without its source line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser, knife = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "oracle":
        _check_oracle_args(knife, args)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            if args.command == "simulate":
                table = run(_resolve_config(args.config))
                for path in export(table, args.format, args.out):
                    print(path)
                return 0
            if args.command == "validate":
                config = _resolve_config(args.config)
                print(f"OK: {len(config.positions)} position(s), "
                      f"outputs: {', '.join(config.outputs)}")
                print(f"at most {exported_bound(config):,} exported values, against a budget of "
                      f"{MAX_EXPORTED_VALUES:,}")
                if any(k != "array_factor" for k in config.outputs):
                    # within parse's bound
                    orders = start_orders(config, config.scene(), config.positions)
                    for (x, y), (across, up) in zip(config.positions, orders.astype(int).tolist()):
                        print(f"position ({x:g}, {y:g}): start orders {across} x {up}, "
                              f"{folded_nodes(across, up):,} folded nodes")
                return 0
            if args.command == "presets":
                for name in PRESET_NAMES:
                    print(name)
                return 0
            if args.command == "oracle":
                try:
                    from .oracles import knife_edge_attenuation  # loads scipy
                except ModuleNotFoundError as e:
                    if (e.name or "").partition(".")[0] != "scipy":
                        raise
                    print(
                        "error: oracle knife-edge needs scipy; install the extra: "
                        "pip install 'arrayshadow[oracle]'",
                        file=sys.stderr,
                    )
                    return 2

                nus = np.arange(args.nu_min, args.nu_max + args.step / 2.0, args.step)
                print("nu,knife_edge_attenuation_db")
                for nu in nus:
                    print(f"{nu:.6g},{knife_edge_attenuation(float(nu)):.9g}")
                return 0
            return 2
        except ScenarioError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        except (SimulationError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2


def process_main() -> int:
    """``main()`` as a whole process: ``python -m arrayshadow.cli`` and the console script.

    Freezes the heap once ``main`` is done, so that the interpreter's exit
    skips the collections that would walk and free numpy's object graph one
    object at a time; the OS reclaims that memory anyway. ``atexit``
    handlers and the flush of stdout and stderr still run. ``main`` itself
    does not freeze, so an in-process caller keeps a normal collector.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(process_main())
