"""The benchmark's workloads: seeded inputs, one timed operation, its check.

Every workload runs in a closed loop with one client: the next operation
starts when the previous one has finished and been checked. Only the
operation itself is timed; building references, checking outputs and
clearing the output directory are not.

The speed of a shared host drifts by tens of percent within minutes, and
every process on it drifts together. So a fixed calibration kernel, which
shares no code with arrayshadow, runs between consecutive operations, and
each operation's time is also given rescaled to the speed at which that
kernel takes CALIBRATION_REFERENCE_S (the mean of the kernel runs on
either side of the operation sets the scale).
"""

from __future__ import annotations

import functools
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
from arrayshadow import array_model, runner

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120.0
# A malformed or missing export, or a failed reference self-check, fails
# the operation instead of the run.
CHECK_ERRORS = (RuntimeError, OSError, ValueError, IndexError, KeyError)

SETUP_FROM_FILES = (
    "import sys\n"
    "import arrayshadow.cli\n"
    "from arrayshadow.runner import load_scenario\n"
    "for path in sys.argv[1:]:\n"
    "    load_scenario(path)\n"
)
SETUP_FROM_PRESETS = (
    "import sys\n"
    "import arrayshadow.cli\n"
    "from arrayshadow.presets import load_preset\n"
    "for name in sys.argv[1:]:\n"
    "    load_preset(name)\n"
)


CALIBRATION_LINK = ref.Link(2486800000.0, 4.0, 4, 0.06, 0.275, 0.9, 0.1, 257)
CALIBRATION_REFERENCE_S = 0.004  # typical on the 2-vCPU Xeon host that set it


@dataclass
class OpResult:
    elapsed: float
    ok: bool
    positions: int
    check: ref.Check = field(default_factory=ref.Check)
    error: str = ""
    scale: float = 1.0  # CALIBRATION_REFERENCE_S / calibration time around the operation

    @property
    def scaled(self) -> float:
        return self.elapsed * self.scale


def calibration_s() -> float:
    """Time of a fixed numpy and pure-Python computation, in seconds.

    The fastest of three runs: right after an operation that freed a large
    heap, the first run also pays for page faults.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        ref.field_ratios(CALIBRATION_LINK, 1.0, 0.1, (48, 96))
        total = 0
        for j in range(10_000):
            total += j * j
        times.append(time.perf_counter() - start)
    return min(times)


def calibrated(operations) -> list[OpResult]:
    """Run each zero-argument callable in turn with the kernel around it."""
    results = []
    before = calibration_s()
    for operation in operations:
        result = operation()
        after = calibration_s()
        result.scale = 2.0 * CALIBRATION_REFERENCE_S / (before + after)
        results.append(result)
        before = after
    return results


def measure(workload, seconds: float | None, count: int | None, tracer=None) -> list[OpResult]:
    """Closed loop: ``count`` operations, or as many as ``seconds`` allow."""
    start = time.perf_counter()

    def operations():
        i = 0
        while (i < count) if count is not None else (i == 0 or time.perf_counter() - start < seconds):
            yield functools.partial(workload.op, i, tracer)
            i += 1

    return calibrated(operations())


def set_up(workload, runs: int) -> list[OpResult]:
    """Fresh interpreters doing the workload's set-up, one after another."""
    stderr_path = workload.work / "setup_stderr.txt"

    def one():
        cmd = [sys.executable, *workload.setup_command()]
        elapsed, code, _, _ = spawn(cmd, workload.env, workload.root, stderr_path)
        if code != 0:
            tail = stderr_path.read_text(errors="replace")[-2000:]
            return OpResult(elapsed, False, 0, error=f"set-up interpreter exited {code}:\n{tail}")
        return OpResult(elapsed, True, 0)

    return calibrated(one for _ in range(runs))


def child_env(src: Path) -> dict:
    """Environment for children: the checkout's package first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list, env: dict, cwd: Path, stderr_path: Path) -> tuple[float, int, int, float]:
    """Run one child to completion: (wall s, exit code, peak RSS KiB, start).

    The child is killed after CHILD_TIMEOUT_S; it is always reaped.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=cwd)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss, start


def _seeded(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _preset(root: Path, name: str) -> dict:
    return json.loads((root / "src" / "arrayshadow" / "presets" / f"{name}.json").read_text())


def _self_checked(link: ref.Link, x: float, y: float) -> None:
    error = ref.order_doubling_error(link, x, y)
    if not error <= ref.SELF_CHECK_TOL:
        raise RuntimeError(f"reference self-check at ({x}, {y}): order doubling changed it by {error:.3g}")


def _positions_reference(raw: dict, abs_error: float = 0.0, rel_error: float = 0.0) -> dict:
    """Expected outputs per position key; the first position is self-checked."""
    link = ref.Link.from_scenario(raw)
    positions = raw["target"]["positions_m"]
    _self_checked(link, *positions[0])
    return {
        ref.position_key(x, y): ref.expected_position(link, x, y, abs_error, rel_error)
        for x, y in positions
    }


def _checked(elapsed: float, positions: int, check: ref.Check, what: str) -> OpResult:
    ok = check.misses == 0
    return OpResult(elapsed, ok, positions, check, "" if ok else f"{what}: {'; '.join(check.notes)}")


class Workload:
    """One workload; ``op(i)`` runs and checks the i-th operation."""

    def __init__(self, root: Path, seed: int, work: Path):
        self.root, self.seed, self.work = root, seed, work
        self.env = child_env(root / "src")
        self.out = work / "out"

    def op_count(self, seconds: float) -> int | None:
        """Operations per run; None means: until ``seconds`` are spent."""
        return None

    def setup_command(self) -> list[str]:
        """Arguments after the interpreter for one fresh-interpreter set-up."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Build references; not timed."""

    def op(self, i: int, tracer=None) -> OpResult:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _clear_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


class CliPresets(Workload):
    """`arrayshadow simulate` subprocesses over the shipped figure presets.

    Users run the tool this way, and a call is mostly interpreter start and
    imports, then the array-factor loop (paper_fig3) or three desk
    positions, then export. Each block of 12 calls covers every preset in
    every format once, in a seeded order.
    """

    name = "cli_presets"
    PRESETS = ("paper_fig3", "paper_fig4", "paper_fig5", "paper_fig6")
    FORMATS = ("csv", "jsonl", "gnuplot")

    def __init__(self, root, seed, work):
        super().__init__(root, seed, work)
        self.pairs = [(p, f) for p in self.PRESETS for f in self.FORMATS]
        self.max_rss_kib = 0

    def setup_command(self):
        return ["-c", SETUP_FROM_PRESETS, *self.PRESETS]

    def call(self, i: int) -> tuple[str, str]:
        block = _seeded(self.seed, i // len(self.pairs)).permutation(len(self.pairs))
        return self.pairs[block[i % len(self.pairs)]]

    def prepare(self):
        self.checks = {}  # preset -> (check of its parsed export, positions computed)
        for name in self.PRESETS:
            raw = _preset(self.root, name)
            if "array_factor" in raw["outputs"]:
                curves = ref.expected_array_factor(raw, array_model.array_factor_closed_form)
                self.checks[name] = (functools.partial(ref.check_array_factor, curves=curves), 0)
            else:
                expected = _positions_reference(raw, abs_error=ref.DEFAULT_GRID_RATIO_ERROR)
                self.checks[name] = (functools.partial(ref.check_positions, expected=expected), len(expected))

    def op(self, i, tracer=None):
        preset, fmt = self.call(i)
        self._clear_out()
        cli_args = ["simulate", preset, "--out", str(self.out), "--format", fmt]
        spans_path = self.work / "spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "arrayshadow.cli", *cli_args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans_path), *cli_args]
        stderr_path = self.work / "child_stderr.txt"
        elapsed, code, rss_kib, start = spawn(cmd, self.env, self.root, stderr_path)
        self.max_rss_kib = max(self.max_rss_kib, rss_kib)
        if code != 0:
            tail = stderr_path.read_text(errors="replace")[-500:]
            return OpResult(elapsed, False, 0, error=f"{preset} {fmt}: exit {code}: {tail}")
        if tracer is not None:
            tracer.absorb("cli.process", start, start + elapsed, json.loads(spans_path.read_text())["spans"])

        check_export, positions = self.checks[preset]
        try:
            check = check_export(ref.read_export(self.out, fmt))
        except CHECK_ERRORS as e:
            return OpResult(elapsed, False, 0, error=f"{preset} {fmt}: unreadable export: {e!r}")
        return _checked(elapsed, positions, check, f"{preset} {fmt}")

    def peak_rss_mb(self):
        return self.max_rss_kib / 1024.0


class ScenarioWorkload(Workload):
    """Scenario files run in process: parse_scenario -> run -> csv export."""

    def __init__(self, root, seed, work):
        super().__init__(root, seed, work)
        base = _preset(root, "paper_fig4")
        self.raws = self.scenarios(base)
        self.paths = [work / f"{self.name}_{k:03d}.json" for k in range(len(self.raws))]
        for raw, path in zip(self.raws, self.paths):
            path.write_text(json.dumps(raw, indent=2))
        self.texts = [path.read_text() for path in self.paths]
        self.expected: dict[int, dict] = {}

    def scenarios(self, base: dict) -> list[dict]:
        raise NotImplementedError

    def reference(self, raw: dict) -> dict:
        """Expected outputs of one scenario; may be slow, never timed."""
        raise NotImplementedError

    def setup_command(self):
        return ["-c", SETUP_FROM_FILES, *map(str, self.paths)]

    def op(self, i, tracer=None):
        k = i % len(self.texts)
        name = self.paths[k].name
        self._clear_out()
        start = time.perf_counter()
        try:
            config = runner.parse_scenario(self.texts[k], source=name)
            table = runner.run(config)
            runner.export(table, "csv", self.out)
        except Exception as e:  # a failed operation is counted, the run goes on
            return OpResult(time.perf_counter() - start, False, 0, error=f"{name}: {e!r}")
        elapsed = time.perf_counter() - start

        try:
            if k not in self.expected:
                self.expected[k] = self.reference(self.raws[k])
            check = ref.check_positions(ref.read_export(self.out, "csv"), self.expected[k])
        except CHECK_ERRORS as e:
            return OpResult(elapsed, False, 0, error=f"{name}: check failed: {e!r}")
        return _checked(elapsed, len(self.expected[k]), check, name)


class DeskSweep(ScenarioWorkload):
    """Desk position sweeps at the default lambda/10 grid.

    Position sweeps are the paper's use case. Scenarios use paper_fig4's
    scene and sheet with all three position outputs; each holds POSITIONS
    distinct millimetre-grid positions with x in [0.5, 3.5] m and y in
    [-1.2, 1.2] m, a sheet rotation in [-30, 30] degrees, and half_count
    cycling over {2, 4, 8} so every run sees the same mix of array sizes.
    noise_std and seed stay unset: the runner ignores both.
    """

    name = "desk_sweep"
    POOL = 128
    POSITIONS = 16
    HALF_COUNTS = (2, 4, 8)
    X_MM = (500, 3500)
    Y_MM = (-1200, 1200)

    def scenarios(self, base):
        nx = self.X_MM[1] - self.X_MM[0] + 1
        ny = self.Y_MM[1] - self.Y_MM[0] + 1
        out = []
        for k in range(self.POOL):
            rng = _seeded(self.seed, k)
            cells = rng.choice(nx * ny, size=self.POSITIONS, replace=False)
            out.append({
                "scene": {**base["scene"], "half_count": self.HALF_COUNTS[k % len(self.HALF_COUNTS)]},
                "target": {
                    "half_width_m": base["target"]["half_width_m"],
                    "half_height_m": base["target"]["half_height_m"],
                    "rotation_deg": round(float(rng.uniform(-30.0, 30.0)), 3),
                    "positions_m": [
                        [(self.X_MM[0] + int(c) // ny) / 1000.0, (self.Y_MM[0] + int(c) % ny) / 1000.0]
                        for c in cells
                    ],
                },
                "processing": {"n_fft": 257, "quadrature_step_wavelengths": 0.1},
                "outputs": ["doa_spectrum", "per_antenna_attenuation", "mean_attenuation"],
            })
        return out

    def reference(self, raw):
        return _positions_reference(raw, abs_error=ref.DEFAULT_GRID_RATIO_ERROR)


class ConvergedDesk(ScenarioWorkload):
    """One desk position per scenario at quadrature_rel_tol = 1e-4.

    The HPC question: time to a solution of stated accuracy. The positions
    are paper_fig4's and paper_fig5's, (1, y) for y in {0, +-0.05, +-0.25};
    the seed sets their order. The three near the line of sight refine to
    lambda/320 (about 7M nodes, 900 MB); the two at +-0.25 m stop at
    lambda/80. A few huge grids use em_model the opposite way from
    desk_sweep's many small ones. The set is fixed because the error of
    five positions is an extreme of few samples: drawn per seed it moved
    by about 25%, fixed it is the same on every run.

    Nearby points such as (1.045, +-0.042) refine once more, to about 28M
    nodes and 3.4 GB, because refinement is bounded by halvings rather than
    by nodes; the workload stays off them so that a run cannot exhaust a
    shared machine's memory.
    """

    name = "converged_desk"
    REL_TOL = 1e-4
    Y = (-0.25, -0.05, 0.0, 0.05, 0.25)
    SET_SECONDS = 30.0  # one set of positions fits in this budget

    def scenarios(self, base):
        return [
            {
                "scene": base["scene"],
                "target": {**base["target"], "positions_m": [[1.0, self.Y[j]]]},
                "processing": {"n_fft": 257, "quadrature_step_wavelengths": 0.1,
                               "quadrature_rel_tol": self.REL_TOL},
                "outputs": ["doa_spectrum", "per_antenna_attenuation", "mean_attenuation"],
            }
            for j in _seeded(self.seed).permutation(len(self.Y))
        ]

    def op_count(self, seconds):
        return len(self.raws) * max(1, int(seconds // self.SET_SECONDS))

    def reference(self, raw):
        return _positions_reference(raw, rel_error=self.REL_TOL)


WORKLOADS = {w.name: w for w in (CliPresets, DeskSweep, ConvergedDesk)}
