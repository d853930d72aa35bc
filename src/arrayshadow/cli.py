"""Command-line front end: simulate, validate, presets, oracle.

Exit codes: 0 on success, 1 on a scenario validation error, 2 on a
runtime or numerical error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .oracles import knife_edge_attenuation
from .presets import PRESET_NAMES, load_preset
from .runner import (
    ScenarioError,
    SimulationError,
    export,
    load_scenario,
    run,
    with_seed,
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrayshadow",
        description="Body-shadowing simulator for RF links with a ULA receiver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and export results")
    sim.add_argument("config", help="scenario JSON file or preset name")
    sim.add_argument("--out", default="results", help="output directory (default: results)")
    sim.add_argument("--format", choices=("csv", "jsonl", "gnuplot"), default="csv")
    sim.add_argument("--jobs", type=int, default=1, help="concurrent positions")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")

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

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            config = with_seed(_resolve_config(args.config), args.seed)
            table = run(config, jobs=args.jobs)
            for path in export(table, args.format, args.out):
                print(path)
            return 0
        if args.command == "validate":
            config = _resolve_config(args.config)
            print(f"OK: {len(config.positions)} position(s), outputs: {', '.join(config.outputs)}")
            return 0
        if args.command == "presets":
            for name in PRESET_NAMES:
                print(name)
            return 0
        if args.command == "oracle":
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


if __name__ == "__main__":
    sys.exit(main())
