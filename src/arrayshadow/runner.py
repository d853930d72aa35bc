"""Scenario ingestion, sweep orchestration and plot-ready exports.

A run is fully determined by one JSON config file. Room lengths are in
meters and electrical lengths (the antenna spacing, the quadrature step)
in wavelengths; angles cross the file and export boundary in degrees and
are radians internally. Exports are
byte-stable: fixed ordering, fixed float formatting, and a header that
carries the config hash and the package version.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .array_model import (
    array_factor,
    planar_steering,
    uniform_weights,
)
from .em_model import excess_attenuation_db
from .geometry import (
    BASE_CELLS_PER_WAVELENGTH, SPEED_OF_LIGHT, ArraySpec, Scene, TargetSheet, grid_cells,
)
from .sensing import (
    attenuation_spectrum_from_snapshots,
    mean_attenuation_from_snapshots,
    observe,
)

OUTPUT_KINDS = ("per_antenna_attenuation", "mean_attenuation", "doa_spectrum", "array_factor")

_FLOAT_FMT = ".9g"  # significant digits pinned for byte-stable exports

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
    target_half_width: float | None
    target_half_height: float | None
    target_rotation: float
    positions: tuple[tuple[float, float], ...]
    n_fft: int
    quadrature_halvings: int
    quadrature_rel_tol: float | None
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
_STEP_CAP = 1 / BASE_CELLS_PER_WAVELENGTH  # wavelengths: the level-0 grid's largest cell side

# Every numeric key of the format, once: key -> (ScenarioConfig field,
# default, integer, lower bound, upper bound). The default is _REQUIRED, None
# (optional) or a value. A float lower bound is exclusive (all are 0:
# "positive"), an upper bound and integer bounds inclusive, None none. The
# quadrature step's bound is the grid's lambda/10 cap; the others keep a run
# within a few hundred MB.
_NUMBERS = {
    "scene.carrier_frequency_hz": ("carrier_frequency", _REQUIRED, False, 0.0, None),
    "scene.central_distance_m": ("central_distance", _REQUIRED, False, 0.0, None),
    "scene.half_count": ("half_count", _REQUIRED, True, 0, 100),
    "scene.spacing_wavelengths": ("spacing", _REQUIRED, False, 0.0, None),  # meters once read
    "target.half_width_m": ("target_half_width", None, False, 0.0, None),
    "target.half_height_m": ("target_half_height", None, False, 0.0, None),
    "target.rotation_deg": ("target_rotation", 0.0, False, None, None),  # radians once read
    "processing.n_fft": ("n_fft", 257, True, None, 2**20),  # >= the array size, checked below
    "processing.quadrature_step_wavelengths":  # a grid level once read
        ("quadrature_halvings", _STEP_CAP, False, 0.0, _STEP_CAP),
    "processing.quadrature_rel_tol": ("quadrature_rel_tol", None, False, 0.0, None),
    "array_factor.gamma_points": ("array_factor_points", 721, True, 3, 100_001),
}
# The format's list-valued keys, each read by hand in parse_scenario.
_OTHER_KEYS = ("target.positions_m", "outputs", "array_factor.spacings_wavelengths")


def _keys_by_section() -> dict[str, set[str]]:
    """The format's keys by section; "" holds the top-level keys."""
    keys: dict[str, set[str]] = {"": set()}
    for name in (*_NUMBERS, *_OTHER_KEYS):
        section, _, key = name.rpartition(".")
        keys[""].add(section or key)
        keys.setdefault(section, set()).add(key)
    return keys


_KEYS = _keys_by_section()


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
    kind = "an integer" if integer else "a finite number"
    errors.append(f"{label} is required" if value is None else f"{label} must be {kind}")
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
    sections = {"": raw}
    sections.update((name, _typed(raw.get(name), dict, name, errors, {})) for name in _KEYS if name)
    for name, section in sections.items():
        errors += [
            f"{name or 'top level'}: unknown key {_quoted(key)}"
            for key in section if key not in _KEYS[name]
        ]
    fields = {}
    for name, (field, default, integer, low, high) in _NUMBERS.items():
        section, _, key = name.partition(".")
        value = fields[field] = _number(sections[section].get(key), name, errors, default, integer)
        if low is not None and value is not None and (value < low if integer else value <= low):
            errors.append(f"{name} must be {f'an integer >= {low}' if integer else 'positive'}")
        if high is not None and value is not None and value > high:
            errors.append(f"{name} must be {'an integer' if integer else 'a number'} <= {high}")
    fc, d0 = fields["carrier_frequency"], fields["central_distance"]
    wavelength = SPEED_OF_LIGHT / fc if fc > 0.0 else math.nan
    if wavelength == math.inf:  # read on as NaN, which fails no later check
        errors.append("scene.carrier_frequency_hz is too small: the wavelength overflows")
        wavelength = math.nan
    fields["target_rotation"] = math.radians(fields["target_rotation"])
    fields["spacing"] *= wavelength
    if fields["spacing"] == math.inf:
        errors.append("scene.spacing_wavelengths is too large: the spacing overflows")
    # the coarsest grid level k whose cells, lambda/10 * 2**-k, are no larger than the
    # step; the slack keeps a log2 that lands just above a whole level on that level
    step = fields["quadrature_halvings"]
    level = math.log2(_STEP_CAP) - math.log2(step) if step > 0.0 else 0.0
    fields["quadrature_halvings"] = math.ceil(level - 1e-9)

    # the sheet's rotated extent along the line of sight; NaN fails no check below
    reach = (fields["target_half_width"] or 0.0) * abs(math.sin(fields["target_rotation"]))
    positions: list[tuple[float, float]] = []
    first_with_tag: dict[str, int] = {}
    label = "target.positions_m"
    for i, p in enumerate(_typed(sections["target"].get("positions_m"), list, label, errors, [])):
        if not isinstance(p, list) or len(p) != 2:
            errors.append(f"{label}[{i}] must be an [x, y] pair")
            continue
        positions.append(tuple(_number(v, f"{label}[{i}]", errors) for v in p))
        x = positions[-1][0]
        if x - reach <= 0.0 or x + reach >= d0:
            errors.append(
                f"{label}[{i}]: the sheet spans x = {x - reach:g} to {x + reach:g} m, not "
                f"strictly between the transmitter (x = 0) and the array (x = {d0:g} m)"
            )
        j = first_with_tag.setdefault(_position_tag(*positions[-1]), i)
        if j != i:
            errors.append(f"{label}[{j}] and [{i}] are within 1 mm and would share export files")

    if fields["n_fft"] < 2 * fields["half_count"] + 1:
        errors.append("processing.n_fft must be an integer >= the array size")

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
        if fields["target_half_width"] is None or fields["target_half_height"] is None:
            errors.append("target: half_width_m and half_height_m are required for attenuation outputs")
        if not positions:
            errors.append(f"{label} must be non-empty for attenuation outputs")

    label = "array_factor.spacings_wavelengths"
    af_spacings = tuple(
        _number(s, label, errors) * wavelength
        for s in _typed(sections["array_factor"].get("spacings_wavelengths"), list, label, errors, [0.5])
    )
    if any(s <= 0.0 or s == math.inf for s in af_spacings):
        errors.append(f"{label} must be positive and finite")
    first_with_tag = {}
    for i, s in enumerate(af_spacings):
        j = first_with_tag.setdefault(_spacing_tag(s, wavelength), i)
        if j != i and not math.isnan(s):
            errors.append(f"{label}[{j}] and [{i}] would share export files")

    if errors:
        raise ScenarioError(f"{source}: invalid scenario\n  - " + "\n  - ".join(errors))

    config = ScenarioConfig(
        **fields, positions=tuple(positions), outputs=outputs, array_factor_spacings=af_spacings
    )
    scene = config.scene()  # surfaces the spacing <= lambda/4 coupling warning
    if any(k != "array_factor" for k in outputs):  # then a sheet and positions are set
        try:  # every position has the same sheet, so one check covers the start level
            grid_cells(config.target_at(*positions[0]), scene, config.quadrature_halvings)
        except ValueError as e:
            raise ScenarioError(f"{source}: invalid scenario\n  - processing: {e}") from e
    return config


def load_scenario(path) -> ScenarioConfig:
    """Load a scenario from a JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ScenarioError(f"{path}: {e.strerror or e}") from e
    return parse_scenario(text, source=str(path))


def _position_rows(config: ScenarioConfig, scene: Scene, xy: tuple[float, float]) -> list[Row]:
    x, y = xy
    tag = _position_tag(x, y)
    try:
        obs = observe(
            scene, config.target_at(x, y), config.quadrature_halvings, config.quadrature_rel_tol
        )

        # quantities in name order, each by ascending index: the export order
        rows: list[Row] = []
        if "doa_spectrum" in config.outputs:
            spectrum = attenuation_spectrum_from_snapshots(
                obs.empty, obs.occupied, scene.array.spacing, scene.wavelength, config.n_fft
            )
            stem = f"doa_spectrum_{tag}"
            gammas = np.degrees(spectrum.gamma_grid).tolist()
            for gamma, value in zip(gammas, spectrum.excess_attenuation_db.tolist()):
                rows.append(Row(x, y, gamma, "doa_excess_attenuation_db", value, stem))
        if "per_antenna_attenuation" in config.outputs:
            stem = f"per_antenna_{tag}"
            values = excess_attenuation_db(obs.ratios).tolist()
            for m, value in zip(scene.array.indices.tolist(), values):
                rows.append(Row(x, y, m, "excess_attenuation_antenna_db", value, stem))
        if "mean_attenuation" in config.outputs:
            value = mean_attenuation_from_snapshots(
                uniform_weights(scene.array.half_count), obs.empty, obs.occupied
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
        a = planar_steering(config.half_count, spacing, scene.wavelength, np.radians(gammas_deg))
        with np.errstate(divide="ignore"):  # a null gives -inf dB
            values = 20.0 * np.log10(np.abs(array_factor(w, a)))
        for gamma_deg, value in zip(gammas_deg.tolist(), values.tolist()):
            rows.append(Row(None, None, gamma_deg, quantity, value, stem))
    return rows


def run(config: ScenarioConfig) -> ResultTable:
    """Evaluate every requested quantity at every position.

    Rows come in export order: array-factor curves in
    ``array_factor_spacings`` order, then positions sorted by (x, y).
    """
    scene = config.scene()
    rows: list[Row] = []
    if "array_factor" in config.outputs:
        rows.extend(_array_factor_rows(config, scene))
    if any(k != "array_factor" for k in config.outputs):
        for xy in sorted(config.positions):
            rows.extend(_position_rows(config, scene, xy))
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
