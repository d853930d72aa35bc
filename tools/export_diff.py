"""Export the same scenarios from two source trees and print what moved.

    python3 tools/export_diff.py OLD_SRC NEW_SRC [--scenarios K]

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts. Each
tree's ``arrayshadow`` runs in its own interpreter and exports every
shipped preset in csv, jsonl and gnuplot, and the csv of the first K
(default: all) ``desk_sweep`` scenarios of seeds 1-3. Those scenarios are
built by ``benchmarks/workloads.py`` of this checkout from each tree's own
paper_fig4 preset, as the benchmark builds them. Every file whose bytes
differ is printed with each moved line, old above new, then a count of the
moved files and lines. Exit status 0 means that no byte moved, 1 that some
did.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
FORMATS = ("csv", "jsonl", "gnuplot")
SEEDS = (1, 2, 3)
# the benchmark's pins, so that both trees see the same single-threaded BLAS
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def write_exports(out: Path, scenarios: int | None) -> None:
    """Export the presets and desk scenarios with the ``arrayshadow`` on the path, under ``out``."""
    import arrayshadow
    from arrayshadow.presets import PRESET_NAMES, load_preset
    from arrayshadow.runner import export, parse_scenario, run
    from workloads import DeskSweep

    for name in PRESET_NAMES:
        table = run(load_preset(name))
        for fmt in FORMATS:
            export(table, fmt, out / "presets" / name / fmt)
    root = Path(arrayshadow.__file__).resolve().parents[2]  # the checkout holding src/
    with tempfile.TemporaryDirectory() as work:
        for seed in SEEDS:
            sweep = DeskSweep(root, seed, Path(work))
            for path, text in zip(sweep.paths, sweep.texts[:scenarios]):
                table = run(parse_scenario(text, source=path.name))
                export(table, "csv", out / "desk_sweep" / f"seed{seed}" / path.stem)


def export_tree(src: Path, out: Path, scenarios: int | None) -> None:
    """Run ``write_exports`` in a fresh interpreter that imports ``arrayshadow`` from ``src``."""
    env = dict(os.environ, **dict.fromkeys(THREAD_VARIABLES, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), str(BENCHMARKS),
                                                      os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, __file__, "--write", str(out)]
    if scenarios is not None:
        cmd += ["--scenarios", str(scenarios)]
    subprocess.run(cmd, env=env, check=True)


def moved_lines(old: bytes, new: bytes) -> tuple[list[str], int]:
    """The differing lines, each numbered, old ones as ``-`` and new ones as ``+``; and how
    many new lines differ."""
    a, b = old.decode().splitlines(), new.decode().splitlines()
    lines, count = [], 0
    matcher = difflib.SequenceMatcher(None, a, b, autojunk=False)
    for tag, i0, i1, j0, j1 in matcher.get_opcodes():
        if tag != "equal":
            lines += [f"  {i + 1:>5} - {a[i]}" for i in range(i0, i1)]
            lines += [f"  {j + 1:>5} + {b[j]}" for j in range(j0, j1)]
            count += j1 - j0
    return lines, count


def compare(old: Path, new: Path) -> tuple[int, int, int]:
    """Print each file that differs between the trees; (files, files moved, lines moved)."""
    names = sorted({p.relative_to(tree) for tree in (old, new) for p in tree.rglob("*")
                    if p.is_file()})
    moved_files = moved = 0
    for name in names:
        a, b = old / name, new / name
        if not (a.exists() and b.exists()):
            print(f"{name}: only in {'old' if a.exists() else 'new'}")
            moved_files += 1
            continue
        old_bytes, new_bytes = a.read_bytes(), b.read_bytes()
        if old_bytes == new_bytes:
            continue
        lines, count = moved_lines(old_bytes, new_bytes)
        print(f"{name}: {count} line{'s' * (count != 1)} moved", *lines, sep="\n")
        moved_files += 1
        moved += count
    return len(names), moved_files, moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", nargs="?", type=Path, help="src directory of the old tree")
    parser.add_argument("new_src", nargs="?", type=Path, help="src directory of the new tree")
    parser.add_argument("--scenarios", type=int, default=None,
                        help="desk_sweep scenarios per seed (default: all)")
    parser.add_argument("--write", type=Path, help=argparse.SUPPRESS)  # the per-tree child
    args = parser.parse_args(argv)
    if args.write is not None:
        write_exports(args.write, args.scenarios)
        return 0
    if args.old_src is None or args.new_src is None:
        parser.error("OLD_SRC and NEW_SRC are required")
    with tempfile.TemporaryDirectory() as tmp:
        old, new = Path(tmp) / "old", Path(tmp) / "new"
        export_tree(args.old_src.resolve(), old, args.scenarios)
        export_tree(args.new_src.resolve(), new, args.scenarios)
        files, moved_files, moved = compare(old, new)
    print(f"{moved_files} of {files} files moved, {moved} line{'s' * (moved != 1)} in all")
    return 1 if moved_files else 0


if __name__ == "__main__":
    sys.exit(main())
