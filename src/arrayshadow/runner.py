"""Scenario ingestion, sweep orchestration and plot-ready exports.

A run is fully determined by one JSON config file. Angles cross the file
and export boundary in degrees and are radians internally; spacings and
quadrature steps may be given in meters or in wavelengths. Exports are
byte-stable: fixed ordering, fixed float formatting, and a header that
carries the config hash and the package version.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .array_model import (
    array_factor,
    planar_steering,
    uniform_weights,
)
from .em_model import (
    converged_field_ratio_vector,
    excess_attenuation_db,
    field_ratio_vector,
)
from .geometry import SPEED_OF_LIGHT, ArraySpec, Scene, TargetSheet, discretize_sheet
from .sensing import (
    attenuation_spectrum_from_snapshots,
    boresight_steering,
    mean_attenuation_from_snapshots,
)

OUTPUT_KINDS = ("per_antenna_attenuation", "mean_attenuation", "doa_spectrum", "array_factor")

_FLOAT_FMT = ".9g"  # significant digits pinned for byte-stable exports

# Every key a scenario section may hold; any other key is a ScenarioError.
_KNOWN_KEYS = {
    "": ("scene", "target", "processing", "outputs", "array_factor"),
    "scene": (
        "carrier_frequency_hz", "central_distance_m", "half_count",
        "spacing_m", "spacing_wavelengths", "link_height_m",
    ),
    "target": ("half_width_m", "half_height_m", "rotation_deg", "positions_m"),
    "processing": (
        "n_fft", "quadrature_step_m", "quadrature_step_wavelengths",
        "quadrature_rel_tol", "noise_std", "seed",
    ),
    "array_factor": ("spacings_wavelengths", "gamma_points"),
}


class ScenarioError(Exception):
    """Config file failed to parse or validate; message lists every problem."""


class SimulationError(RuntimeError):
    """A run failed after validation, e.g. a numerical or I/O problem."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved run description, all lengths in meters, angles in rad."""

    carrier_frequency: float
    central_distance: float
    half_count: int
    spacing: float
    link_height: float
    target_half_width: float | None
    target_half_height: float | None
    target_rotation: float
    positions: tuple[tuple[float, float], ...]
    n_fft: int
    quadrature_step: float
    quadrature_rel_tol: float | None
    noise_std: float
    seed: int | None
    outputs: tuple[str, ...]
    array_factor_spacings: tuple[float, ...]
    array_factor_points: int

    def scene(self) -> Scene:
        return Scene(
            carrier_frequency=self.carrier_frequency,
            array=ArraySpec(
                half_count=self.half_count,
                spacing=self.spacing,
                central_distance=self.central_distance,
            ),
            link_height=self.link_height,
        )

    def target_at(self, x: float, y: float) -> TargetSheet:
        return TargetSheet(
            barycenter=(x, y),
            half_width=self.target_half_width,
            half_height=self.target_half_height,
            rotation=self.target_rotation,
        )

    def config_hash(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


class Row(NamedTuple):
    """One exported value in dB; ``index`` is an antenna index or a DoA in degrees."""

    x: float | None
    y: float | None
    index: float | int | None
    quantity: str
    value: float
    stem: str  # csv/gnuplot file name, without suffix


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[Row, ...]
    config_hash: str
    version: str


_REQUIRED = object()


def _number(value, label: str, errors: list, default=_REQUIRED, integer: bool = False):
    """``value`` as a finite float, or as an int when ``integer``.

    None (an absent key or JSON null) reads as ``default``, or is an error
    when no default is given. Bools, strings, NaN and infinities are recorded
    in ``errors`` and read as NaN, which fails no later range check, so each
    bad value is reported once.
    """
    if value is None and default is not _REQUIRED:
        return default
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if integer and isinstance(value, int):
            return value
        if not integer and abs(value) <= sys.float_info.max:
            return float(value)
    errors.append(f"{label} must be {'an integer' if integer else 'a finite number'}")
    return math.nan


def _typed(value, kind: type, label: str, errors: list, default):
    """``value`` when it is a ``kind`` (dict or list); None reads as ``default``."""
    if value is None:
        return default
    if not isinstance(value, kind):
        errors.append(f"{label} must be {'an object' if kind is dict else 'a list'}")
        return kind()
    return value


def _quoted(text: str) -> str:
    """``text`` in quotes, cut to 40 characters, for echoing input in a message."""
    return f"'{text}'" if len(text) <= 40 else f"'{text[:40]}...'"


def _check_keys(section: dict, name: str, errors: list) -> None:
    """Record every key of ``section`` that ``_KNOWN_KEYS[name]`` does not list."""
    for key in section:
        if key not in _KNOWN_KEYS[name]:
            errors.append(f"{name or 'top level'}: unknown key {_quoted(key)}")


def _length(raw: dict, key: str, wavelength: float, errors: list, context: str) -> float | None:
    """Resolve a '<key>_m' or '<key>_wavelengths' pair to meters."""
    meters = _number(raw.get(f"{key}_m"), f"{context}.{key}_m", errors, None)
    in_lam = _number(raw.get(f"{key}_wavelengths"), f"{context}.{key}_wavelengths", errors, None)
    if meters is not None and in_lam is not None:
        errors.append(f"{context}: give {key}_m or {key}_wavelengths, not both")
        return None
    if meters is not None:
        return meters
    if in_lam is not None:
        return in_lam * wavelength
    return None


def _position_tag(x: float, y: float) -> str:
    """Position part of export file names; positions closer than 1 mm share it."""
    return f"x{x:.3f}_y{y:.3f}"


def _spacing_tag(spacing: float, wavelength: float) -> str:
    """Spacing in wavelengths for array-factor file names; spacings equal to 6 digits share it."""
    return f"{spacing / wavelength:g}"


def parse_scenario(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse and validate a JSON scenario; collects every validation error."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{source}:{e.lineno}:{e.colno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:  # oversized integer, nesting too deep
        raise ScenarioError(f"{source}: {e}") from e
    if not isinstance(raw, dict):
        raise ScenarioError(f"{source}: top level must be a JSON object")

    errors: list[str] = []
    _check_keys(raw, "", errors)

    scene_raw = raw.get("scene")
    if not isinstance(scene_raw, dict):
        errors.append("missing required 'scene' section")
        raise ScenarioError(f"{source}: invalid scenario\n  - " + "\n  - ".join(errors))
    _check_keys(scene_raw, "scene", errors)

    fc = _number(scene_raw.get("carrier_frequency_hz"), "scene.carrier_frequency_hz", errors, 0.0)
    if fc <= 0.0:
        errors.append("scene.carrier_frequency_hz must be positive")
    wavelength = SPEED_OF_LIGHT / fc if fc > 0.0 else math.nan

    d0 = _number(scene_raw.get("central_distance_m"), "scene.central_distance_m", errors, 0.0)
    if d0 <= 0.0:
        errors.append("scene.central_distance_m must be positive")

    half_count = _number(scene_raw.get("half_count"), "scene.half_count", errors, -1, integer=True)
    if half_count < 0:
        errors.append("scene.half_count must be a non-negative integer")

    spacing = _length(scene_raw, "spacing", wavelength, errors, "scene")
    if spacing is None:
        errors.append("scene: spacing_m or spacing_wavelengths is required")
    elif spacing <= 0.0:
        errors.append("scene.spacing must be positive")

    link_height = _number(scene_raw.get("link_height_m"), "scene.link_height_m", errors, 0.0)

    target_raw = _typed(raw.get("target"), dict, "target", errors, {})
    _check_keys(target_raw, "target", errors)
    half_width = _number(target_raw.get("half_width_m"), "target.half_width_m", errors, None)
    half_height = _number(target_raw.get("half_height_m"), "target.half_height_m", errors, None)
    if half_width is not None and half_width <= 0.0:
        errors.append("target.half_width_m must be positive")
    if half_height is not None and half_height <= 0.0:
        errors.append("target.half_height_m must be positive")
    rotation = _number(target_raw.get("rotation_deg"), "target.rotation_deg", errors, 0.0)
    positions: list[tuple[float, float]] = []
    first_with_tag: dict[str, int] = {}
    label = "target.positions_m"
    for i, p in enumerate(_typed(target_raw.get("positions_m"), list, label, errors, [])):
        if not isinstance(p, list) or len(p) != 2:
            errors.append(f"{label}[{i}] must be an [x, y] pair")
            continue
        positions.append(tuple(_number(v, f"{label}[{i}]", errors) for v in p))
        j = first_with_tag.setdefault(_position_tag(*positions[-1]), i)
        if j != i:
            errors.append(f"{label}[{j}] and [{i}] are within 1 mm and would share export files")

    proc = _typed(raw.get("processing"), dict, "processing", errors, {})
    _check_keys(proc, "processing", errors)
    n_fft = _number(proc.get("n_fft"), "processing.n_fft", errors, 257, integer=True)
    if n_fft < 2 * half_count + 1:
        errors.append("processing.n_fft must be an integer >= the array size")
    step = _length(proc, "quadrature_step", wavelength, errors, "processing")
    if step is None:
        step = wavelength / 10.0
    elif step <= 0.0:
        errors.append("processing.quadrature_step must be positive")
    elif step > wavelength / 10.0 * (1.0 + 1e-9):  # slack: 0.1 * lam may exceed lam / 10
        errors.append("processing.quadrature_step must not exceed lambda/10, the grid's cap")
    rel_tol = _number(proc.get("quadrature_rel_tol"), "processing.quadrature_rel_tol", errors, None)
    if rel_tol is not None and rel_tol <= 0.0:
        errors.append("processing.quadrature_rel_tol must be positive when given")
    noise_std = _number(proc.get("noise_std"), "processing.noise_std", errors, 0.0)
    if noise_std < 0.0:
        errors.append("processing.noise_std must be non-negative")
    seed = _number(proc.get("seed"), "processing.seed", errors, None, integer=True)

    outputs = tuple(_typed(raw.get("outputs"), list, "outputs", errors, []))
    if not outputs:
        errors.append("outputs: at least one output kind is required")
    for i, kind in enumerate(outputs):
        if not isinstance(kind, str):
            errors.append(f"outputs[{i}] must be a string")
        elif kind not in OUTPUT_KINDS:
            errors.append(
                f"outputs: unknown kind {_quoted(kind)} (choose from {', '.join(OUTPUT_KINDS)})"
            )

    if any(k != "array_factor" for k in outputs):
        if half_width is None or half_height is None:
            errors.append("target: half_width_m and half_height_m are required for attenuation outputs")
        if not positions:
            errors.append("target.positions_m must be non-empty for attenuation outputs")

    af_raw = _typed(raw.get("array_factor"), dict, "array_factor", errors, {})
    _check_keys(af_raw, "array_factor", errors)
    label = "array_factor.spacings_wavelengths"
    af_spacings = tuple(
        _number(s, label, errors) * wavelength
        for s in _typed(af_raw.get("spacings_wavelengths"), list, label, errors, [0.5])
    )
    if any(s <= 0.0 for s in af_spacings):
        errors.append(f"{label} must be positive")
    first_with_tag = {}
    for i, s in enumerate(af_spacings):
        j = first_with_tag.setdefault(_spacing_tag(s, wavelength), i)
        if j != i and not math.isnan(s):
            errors.append(f"{label}[{j}] and [{i}] would share export files")
    af_points = _number(
        af_raw.get("gamma_points"), "array_factor.gamma_points", errors, 721, integer=True
    )
    if af_points < 3:
        errors.append("array_factor.gamma_points must be an integer >= 3")

    if errors:
        raise ScenarioError(f"{source}: invalid scenario\n  - " + "\n  - ".join(errors))

    config = ScenarioConfig(
        carrier_frequency=fc,
        central_distance=d0,
        half_count=half_count,
        spacing=spacing,
        link_height=link_height,
        target_half_width=half_width,
        target_half_height=half_height,
        target_rotation=math.radians(rotation),
        positions=tuple(positions),
        n_fft=n_fft,
        quadrature_step=step,
        quadrature_rel_tol=rel_tol,
        noise_std=noise_std,
        seed=seed,
        outputs=outputs,
        array_factor_spacings=af_spacings,
        array_factor_points=af_points,
    )
    config.scene()  # surfaces the spacing <= lambda/4 coupling warning
    return config


def load_scenario(path) -> ScenarioConfig:
    """Load a scenario from a JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ScenarioError(f"{path}: {e.strerror or e}") from e
    return parse_scenario(text, source=str(path))


def with_seed(config: ScenarioConfig, seed: int | None) -> ScenarioConfig:
    return config if seed is None else replace(config, seed=seed)


def _position_rows(config: ScenarioConfig, scene: Scene, xy: tuple[float, float]) -> list[Row]:
    x, y = xy
    tag = _position_tag(x, y)
    try:
        target = config.target_at(x, y)
        if config.quadrature_rel_tol is not None:
            ratios, _ = converged_field_ratio_vector(
                scene, target, rel_tol=config.quadrature_rel_tol,
                initial_step=config.quadrature_step,
            )
        else:
            grid = discretize_sheet(target, scene, config.quadrature_step)
            ratios = field_ratio_vector(scene, target, grid)
        r_empty = boresight_steering(scene)
        r_occupied = r_empty * ratios

        # quantities in name order, each by ascending index: the export order
        rows: list[Row] = []
        if "doa_spectrum" in config.outputs:
            spectrum = attenuation_spectrum_from_snapshots(
                r_empty, r_occupied, scene.array.spacing, scene.wavelength, config.n_fft
            )
            stem = f"doa_spectrum_{tag}"
            gammas = np.degrees(spectrum.gamma_grid).tolist()
            for gamma, value in zip(gammas, spectrum.excess_attenuation_db.tolist()):
                rows.append(Row(x, y, gamma, "doa_excess_attenuation_db", value, stem))
        if "per_antenna_attenuation" in config.outputs:
            stem = f"per_antenna_{tag}"
            values = excess_attenuation_db(ratios).tolist()
            for m, value in zip(scene.array.indices.tolist(), values):
                rows.append(Row(x, y, m, "excess_attenuation_antenna_db", value, stem))
        if "mean_attenuation" in config.outputs:
            value = mean_attenuation_from_snapshots(
                uniform_weights(scene.array.half_count), r_empty, r_occupied
            )
            rows.append(Row(x, y, None, "mean_excess_attenuation_db", value, "mean_attenuation"))
        return rows
    except ValueError as e:
        raise SimulationError(f"position ({x:g}, {y:g}): {e}") from e


def _array_factor_rows(config: ScenarioConfig, scene: Scene) -> list[Row]:
    rows: list[Row] = []
    w = uniform_weights(config.half_count)
    gammas_deg = np.linspace(0.0, 180.0, config.array_factor_points)[1:-1]
    for spacing in config.array_factor_spacings:
        tag = _spacing_tag(spacing, scene.wavelength)
        quantity = f"array_factor_db[da={tag}lam]"
        stem = f"array_factor_da{tag}lam"
        for gamma_deg in gammas_deg:
            a = planar_steering(config.half_count, spacing, scene.wavelength, math.radians(gamma_deg))
            magnitude = abs(array_factor(w, a))
            value = float("-inf") if magnitude == 0.0 else float(20.0 * np.log10(magnitude))
            rows.append(Row(None, None, float(gamma_deg), quantity, value, stem))
    return rows


def run(config: ScenarioConfig, jobs: int = 1) -> ResultTable:
    """Evaluate every requested quantity at every position.

    Positions are independent and run on up to ``jobs`` threads. Rows come
    in export order whatever ``jobs`` is: array-factor curves in
    ``array_factor_spacings`` order, then positions sorted by (x, y).
    """
    scene = config.scene()
    rows: list[Row] = []
    if "array_factor" in config.outputs:
        rows.extend(_array_factor_rows(config, scene))

    if any(k != "array_factor" for k in config.outputs) and config.positions:
        with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
            chunks = pool.map(lambda p: _position_rows(config, scene, p), sorted(config.positions))
            rows.extend(row for chunk in chunks for row in chunk)
    return ResultTable(rows=tuple(rows), config_hash=config.config_hash(), version=__version__)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format(value, _FLOAT_FMT)


# Column headers per quantity; every array_factor_db[da=...] quantity shares one.
_COLUMNS = {
    "doa_excess_attenuation_db": ("gamma_deg", "excess_attenuation_db"),
    "excess_attenuation_antenna_db": ("antenna_index", "excess_attenuation_db"),
    "mean_excess_attenuation_db": ("x_m", "y_m", "mean_excess_attenuation_db"),
}
_ARRAY_FACTOR_COLUMNS = ("gamma_deg", "array_factor_db")


def export(table: ResultTable, fmt: str, out_dir) -> list[Path]:
    """Write the table as plot-ready files; returns the written paths.

    ``csv`` and ``gnuplot`` split the table into one two-column (or
    three-column) file per quantity group; ``jsonl`` writes a single
    results.jsonl with one object per row. Output is byte-identical for
    identical tables.
    """
    if fmt not in ("csv", "jsonl", "gnuplot"):
        raise ValueError(f"unknown export format '{fmt}'")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if fmt == "jsonl":
            return [_export_jsonl(table, out_dir)]
        return _export_columns(table, fmt, out_dir)
    except OSError as e:
        raise SimulationError(f"{out_dir}: {e.strerror or e}") from e


def _export_jsonl(table: ResultTable, out_dir: Path) -> Path:
    path = out_dir / "results.jsonl"
    lines = []
    for row in table.rows:
        record = {
            "config_hash": table.config_hash,
            "version": table.version,
            "x_m": None if row.x is None else float(_fmt(row.x)),
            "y_m": None if row.y is None else float(_fmt(row.y)),
            "index": row.index if isinstance(row.index, (int, type(None))) else float(_fmt(row.index)),
            "quantity": row.quantity,
            "value": float(_fmt(row.value)) if math.isfinite(row.value) else row.value,
            "units": "dB",
        }
        lines.append(json.dumps(record, allow_nan=True))
    path.write_text("\n".join(lines) + "\n")
    return path


def _export_columns(table: ResultTable, fmt: str, out_dir: Path) -> list[Path]:
    groups: dict[str, list[Row]] = {}
    for row in table.rows:
        groups.setdefault(row.stem, []).append(row)

    sep = "," if fmt == "csv" else " "
    suffix = ".csv" if fmt == "csv" else ".dat"
    header_meta = f"# config_hash={table.config_hash} version={table.version}"
    written = []
    for stem in sorted(groups):
        rows = groups[stem]
        path = out_dir / (stem + suffix)
        columns = sep.join(_COLUMNS.get(rows[0].quantity, _ARRAY_FACTOR_COLUMNS))
        if fmt == "gnuplot":
            columns = "# " + columns
        body = [
            sep.join(_fmt(v) for v in (
                (row.x, row.y, row.value) if row.index is None else (row.index, row.value)
            ))
            for row in rows
        ]
        path.write_text("\n".join([header_meta, columns, *body]) + "\n")
        written.append(path)
    return written
