"""arrayshadow benchmark: one workload, one seed, one measured run.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_presets, desk_sweep, converged_desk (see README.md here).
With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run. The line before it records the environment and details.
The program is imported from the checkout's src/; nothing is installed.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads; every child inherits them
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_out"

SETUP_RUNS = 5
IMPORT_RUNS = 5
IMPORT_METRICS = {
    "arrayshadow.cli": "import.arrayshadow_cli_s",
    "numpy": "import.numpy_s",
    "scipy.special": "import.scipy_special_s",
    "arrayshadow.oracles": "import.arrayshadow_oracles_s",
}
OPERATIONS = {  # workload -> (name of its operation timings, operation)
    "cli_presets": ("cli_call_s", "CLI call"),
    "desk_sweep": ("sweep_scenario_s", "scenario parse -> run -> export"),
    "converged_desk": ("tol_solve_s", "one-position scenario at rel_tol 1e-4: parse -> run -> export"),
}


def median_of(values):
    return statistics.median(values) if values else 0.0


def p90_of(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def cache_sizes() -> dict:
    """Data and unified cache sizes of CPU 0 as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            sizes[f"l{level}_cache"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def environment(seed: int) -> dict:
    cpu_model = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        **cache_sizes(),
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def import_profile(workloads, stderr_path: Path) -> dict:
    """Cumulative import time per module (median of fresh interpreters)."""
    samples = {name: [] for name in IMPORT_METRICS}
    cmd = [sys.executable, "-X", "importtime", "-c", "import arrayshadow.cli"]
    for _ in range(IMPORT_RUNS):
        _, code, _, _ = workloads.spawn(cmd, workloads.child_env(SRC), ROOT, stderr_path)
        if code != 0:
            raise RuntimeError(f"import profile exited {code}")
        seen = set()
        for line in stderr_path.read_text().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, module = (part.strip() for part in line[len("import time:"):].split("|"))
            if module in samples and module not in seen and cumulative.isdigit():
                seen.add(module)
                samples[module].append(int(cumulative) * 1e-6)
    return {metric: median_of(samples[module]) for module, metric in IMPORT_METRICS.items()}


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer, summarize

    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, WORK)
    env = environment(args.seed)

    setup = workloads.set_up(workload, SETUP_RUNS)
    for r in setup:
        if not r.ok:
            print(f"error: {r.error}", file=sys.stderr)
            return 2
    workload.prepare()

    if args.trace:
        half = args.seconds / 2.0
        untraced = workloads.measure(workload, half, workload.op_count(half))
        tracer = Tracer()
        tracer.install()
        try:
            traced = workloads.measure(workload, None, len(untraced), tracer)
        finally:
            tracer.restore()
        results = untraced + traced
        TRACE_OUT.mkdir(exist_ok=True)
        tracer.dump(TRACE_OUT / f"spans_{args.workload}_seed{args.seed}.json")
        untraced_s = sum(r.elapsed for r in untraced)
        traced_s = sum(r.elapsed for r in traced)
        metrics = {
            **import_profile(workloads, WORK / "importtime.txt"),
            **summarize(tracer.spans),
            "trace.untraced_s": untraced_s,
            "trace.traced_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
        }
        attributed = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        details = {"accounting": {
            "ops_per_pass": len(untraced),
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "overhead_s": traced_s - untraced_s,
            "self_time_sum_s": attributed,
            "untraced_minus_self_time_sum_s": untraced_s - attributed,
        }}
        units = {k: unit_of(k) for k in metrics}
    else:
        results = workloads.measure(workload, args.seconds, workload.op_count(args.seconds))
        ok = [r for r in results if r.ok]
        check = workloads.ref.Check()
        for r in results:
            check.merge(r.check)

        def timings(seconds_of):
            times = [seconds_of(r) for r in ok]
            return {
                "setup_s": median_of([seconds_of(r) for r in setup]),
                "op_s.p50": median_of(times),
                "op_s.p90": p90_of(times),
                "positions_per_s": sum(r.positions for r in ok) / sum(times) if times else 0.0,
            }

        metrics = {
            **timings(lambda r: r.scaled),
            "attenuation_err_db.p99": check.err_db_percentile(99.0),
            "field_ratio_err.max": check.max_field_err,
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        units = {"setup_s": "s", "op_s.p50": "s", "op_s.p90": "s", "positions_per_s": "1/s",
                 "attenuation_err_db.p99": "dB", "field_ratio_err.max": "1", "peak_rss_mb": "MB"}
        alias, op_kind = OPERATIONS[args.workload]
        details = {
            "operation": op_kind,
            "samples": {"op_s": len(ok), "setup_s": len(setup)},
            "values_checked": check.checked,
            "timings": {f"{alias}.p50": metrics["op_s.p50"], f"{alias}.p90": metrics["op_s.p90"]},
            "unscaled": timings(lambda r: r.elapsed),
            "calibration_scale.p50": median_of([r.scale for r in results]),
        }
        if args.workload == "converged_desk":
            sets = len(results) / len(workload.raws)
            details["timings"]["tol_solve_total_s"] = sum(r.scaled for r in ok) / sets

    failed = [r for r in results if not r.ok]
    for r in failed[:5]:
        print(f"failed: {r.error}", file=sys.stderr)
    details.update({
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "fail_ratio": len(failed) / len(results), "environment": env,
    })
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes") or metric.endswith("bytes_computed"):
        return "B"
    if metric.endswith("ns_per_node_antenna"):
        return "ns"
    if metric.endswith("_ratio"):
        return "1"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli_presets", "desk_sweep", "converged_desk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "arrayshadow" / "__init__.py").is_file():
        print(f"error: no arrayshadow sources under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        return run(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
