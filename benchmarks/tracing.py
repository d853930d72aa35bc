"""Spans around calls into arrayshadow's public functions, from outside.

Each traced function is rebound at every arrayshadow module that holds
it, so calls between modules (``converged_field_ratio_vector`` calling
``field_ratio_vector``, ``runner`` calling ``discretize_sheet``) are
seen too. Spans stay in memory with their parent ids; ``summarize``
derives self times and counts after the run. Imports stdlib only, so a
CLI child can load it before arrayshadow.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


def _nodes(args, kwargs, result):
    return {"nodes": int(result.points.shape[0])}


def _node_antennas(args, kwargs, result):
    grid = args[2] if len(args) > 2 else kwargs.get("grid")
    if grid is None:
        return {}
    return {"nodes": int(grid.points.shape[0]), "antennas": int(result.size)}


def _rows(args, kwargs, result):
    return {"rows": len(result.rows)}


def _files(args, kwargs, result):
    return {"files": len(result), "bytes": sum(Path(p).stat().st_size for p in result)}


# (module, function, counter) for every public function the benchmark times.
TRACED = (
    ("cli", "main", None),
    ("presets", "load_preset", None),
    ("runner", "parse_scenario", None),
    ("runner", "run", _rows),
    ("runner", "export", _files),
    ("geometry", "discretize_sheet", _nodes),
    ("em_model", "field_ratio_vector", _node_antennas),
    ("em_model", "converged_field_ratio_vector", None),
    ("sensing", "attenuation_spectrum_from_snapshots", None),
    ("array_model", "planar_steering", None),
    ("array_model", "array_factor", None),
)


class Tracer:
    """Collects spans for the calls it wraps; ``restore`` undoes ``install``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._rebound: list[tuple] = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.update(counter(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded arrayshadow module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "arrayshadow" or n.startswith("arrayshadow.")]
        for module_name, func_name, counter in TRACED:
            original = getattr(sys.modules.get(f"arrayshadow.{module_name}"), func_name, None)
            if original is None:
                continue
            traced = self.wrap(f"{module_name}.{func_name}", original, counter)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, traced)
                        self._rebound.append((holder, attr, original))

    def restore(self) -> None:
        for holder, attr, original in reversed(self._rebound):
            setattr(holder, attr, original)
        self._rebound.clear()

    def absorb(self, name: str, start: float, end: float, child_spans: list[dict]) -> None:
        """Add a span for a child process and nest the child's spans in it."""
        root = len(self.spans)
        self.spans.append({"id": root, "parent": None, "name": name, "start": start, "end": end})
        offset = root + 1
        for s in child_spans:
            parent = root if s["parent"] is None else s["parent"] + offset
            self.spans.append({**s, "id": s["id"] + offset, "parent": parent})

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}))


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    A span's id is its position in the list.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def summarize(spans: list[dict]) -> dict:
    """Per-layer metrics (totals over the spans given)."""
    metrics: dict[str, float] = {}
    names = ["cli.process"] + [f"{m}.{f}" for m, f, _ in TRACED]
    for name in names:
        metrics[f"{name}.self_s"] = 0.0
        metrics[f"{name}.calls"] = 0
    for span, own in zip(spans, self_times(spans)):
        metrics[f"{span['name']}.self_s"] += own
        metrics[f"{span['name']}.calls"] += 1

    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def total(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    metrics["runner.run.rows"] = total("runner.run", "rows")
    metrics["runner.export.bytes"] = total("runner.export", "bytes")
    metrics["runner.export.files"] = total("runner.export", "files")
    metrics["geometry.discretize_sheet.nodes"] = total("geometry.discretize_sheet", "nodes")

    # Temporaries the field-ratio kernel writes, computed from array sizes:
    # the transmitter-side offsets and distances once (4 doubles per node),
    # then per antenna the receiver offsets and distances (4 doubles),
    # r1 + r2, its difference with d_m and r1 r2 (3 doubles) and four
    # complex intermediates (phase, exponential, quotient, weighted term).
    node_antennas = 0
    bytes_computed = 0
    for s in spans:
        if s["name"] != "em_model.field_ratio_vector" or "antennas" not in s:
            continue
        nodes, antennas = s["nodes"], s["antennas"]
        node_antennas += nodes * antennas
        bytes_computed += nodes * 32 + nodes * antennas * (56 + 64)
    self_s = metrics["em_model.field_ratio_vector.self_s"]
    metrics["em_model.field_ratio_vector.node_antennas"] = node_antennas
    metrics["em_model.ns_per_node_antenna"] = 1e9 * self_s / node_antennas if node_antennas else 0.0
    metrics["em_model.bytes_computed"] = bytes_computed

    refinements = nodes_all = nodes_accepted = 0
    for s in spans:
        if s["name"] != "em_model.converged_field_ratio_vector":
            continue
        grids = [c["nodes"] for c in children.get(s["id"], [])
                 if c["name"] == "geometry.discretize_sheet"]
        if grids:
            refinements += len(grids) - 1
            nodes_all += sum(grids)
            nodes_accepted += grids[-1]
    metrics["em_model.converged_field_ratio_vector.refinements"] = refinements
    metrics["em_model.converged_field_ratio_vector.nodes_to_tol"] = nodes_all
    metrics["em_model.useful_node_ratio"] = nodes_accepted / nodes_all if nodes_all else 0.0
    return metrics
