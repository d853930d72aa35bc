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
import os
import sys
import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .array_model import array_factor, planar_steering, uniform_weights
from .em_model import (DEFAULT_REL_TOL, SolveError, converged_field_ratio_vectors,
                       excess_attenuation_db)
from .geometry import (
    MAX_STEP, SPEED_OF_LIGHT, ArraySpec, Scene, TargetSheet, check_orders, rule_orders,
    sheet_orders, sheet_span_error,
)
from .sensing import (attenuation_spectra, boresight_steering, doa_grid,
                      mean_attenuation_from_snapshots)

OUTPUT_KINDS = ("per_antenna_attenuation", "mean_attenuation", "doa_spectrum", "array_factor")

_FLOAT_FMT = ".9g"  # significant digits pinned for byte-stable exports
_VALUE = f"%{_FLOAT_FMT}"  # spells a value as format(value, _FLOAT_FMT) does
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json.dumps writes them
# The most values one run may export. It admits nine positions at n_fft = 2**20,
# which peak at about 245 MB.
MAX_EXPORTED_VALUES = 10_000_000
# The most lines one % call of the csv and gnuplot writer formats. Pieces of a few
# KB fragmented the heap of a long desk sweep loop that keeps a little of each
# operation: over 640 operations, whole 257-line blocks peaked 5 % higher, 64 lines not.
_LINES_PER_CALL = 64
# The bytes the export writer holds before a write: a desk csv file is one write.
_WRITE_BYTES = 1 << 16
# The most positions one run may hold. A mean-only desk run holds about 630 B per
# position under tracemalloc from 200 to 2,000 positions and 980 B from 1,000 to
# 10,000, its blocks included; at the cap it raised a fresh process's peak RSS by
# 77 MB over that of its parse, to 183 MB.
MAX_POSITIONS = 100_000
# The longest link, in wavelengths. Much longer links lose the digits of the path
# difference r1 + r2 - d0: at 1e15 m an absorbing sheet reads as a 17 dB gain.
_MAX_LINK_WAVELENGTHS = 1e6


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
    quadrature_step: float  # wavelengths; the rule's orders are scaled by MAX_STEP / step
    quadrature_rel_tol: float
    outputs: tuple[str, ...]
    array_factor_spacings: tuple[float, ...]
    array_factor_points: int

    def scene(self) -> Scene:
        """The run's scene, built on the first call and kept: its spacing
        <= lambda/4 warning fires once per config, at parse."""
        if "_scene" not in self.__dict__:
            object.__setattr__(self, "_scene", Scene(
                carrier_frequency=self.carrier_frequency,
                array=ArraySpec(
                    half_count=self.half_count,
                    spacing=self.spacing,
                    central_distance=self.central_distance,
                ),
            ))
        return self._scene

    def target_at(self, x: float, y: float) -> TargetSheet:
        return TargetSheet(
            barycenter=(x, y),
            half_width=self.target_half_width,
            half_height=self.target_half_height,
            rotation=self.target_rotation,
        )

    def config_hash(self) -> str:
        # the fields as they are: json.dumps spells a tuple as asdict's copy of it
        canonical = json.dumps({f.name: getattr(self, f.name) for f in dataclasses.fields(self)},
                               sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Block:
    """One exported curve in dB: a quantity at one position, or one array-factor spacing.

    ``index`` pairs with ``values``: antenna indices (integers) or DoAs in degrees,
    or None for the mean, whose one value is exported beside ``x`` and ``y``.
    """

    stem: str  # csv/gnuplot file name, without suffix
    columns: tuple[str, ...]  # csv/gnuplot column headers
    quantity: str
    x: float | None
    y: float | None
    index: np.ndarray | None
    values: np.ndarray


@dataclass(frozen=True)
class ResultTable:
    blocks: tuple[Block, ...]  # in export order
    config_hash: str
    version: str

    @property
    def rows(self) -> np.ndarray:
        """Every exported value, in results.jsonl order."""
        return np.concatenate([np.empty(0), *(b.values for b in self.blocks)])


_REQUIRED = object()

# Every numeric key of the format, once: key -> (ScenarioConfig field,
# default, integer, lower bound, upper bound). The default is _REQUIRED, None
# (optional) or a value. A float lower bound is exclusive (all are 0:
# "positive"), an upper bound and integer bounds inclusive, None none. The
# quadrature step's bound is the rule's own node density; the others keep a run
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
    "processing.quadrature_step_wavelengths": ("quadrature_step", MAX_STEP, False, 0.0, MAX_STEP),
    "processing.quadrature_rel_tol": ("quadrature_rel_tol", DEFAULT_REL_TOL, False, 0.0, None),
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
# Problems listed per list-valued key; the rest are counted, so a message stays small.
_LISTED_PER_KEY = 5


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
    """``value`` when it is a ``kind`` (dict or list); None reads as ``default``.

    Any other value is recorded in ``errors`` and reads as None, which no
    emptiness check takes for empty, so it gets that one message.
    """
    if value is None:
        return default
    if not isinstance(value, kind):
        errors.append(f"{label} must be {'an object' if kind is dict else 'a list'}")
        return None
    return value


def _capped(problems: list[str], label: str) -> list[str]:
    """The first ``_LISTED_PER_KEY`` of one key's problems, then a count of the rest."""
    if len(problems) <= _LISTED_PER_KEY:
        return problems
    rest = len(problems) - _LISTED_PER_KEY
    return [*problems[:_LISTED_PER_KEY],
            f"{label}: {rest:,} more problems, {len(problems):,} in all"]


def _quoted(text: str) -> str:
    """``text`` in quotes, cut to 40 characters, for echoing input in a message."""
    return f"'{text}'" if len(text) <= 40 else f"'{text[:40]}...'"


def _position_tag(x: float, y: float) -> str:
    """Position part of export file names: the coordinates rounded to the mm, -0.000 as 0.000."""
    x, y = (round(v, 3) + 0.0 for v in (x, y))  # -0.0 + 0.0 is 0.0
    return f"x{x:.3f}_y{y:.3f}"


def _spacing_tag(spacing: float, wavelength: float) -> str:
    """Spacing in wavelengths for array-factor file names; spacings equal to 6 digits share it."""
    return f"{spacing / wavelength:g}"


def exported_bound(config: ScenarioConfig) -> int:
    """The most values ``config``'s run exports, as ``MAX_EXPORTED_VALUES`` counts them.

    Per position: at most n_fft DoA bins, one value per antenna and the
    mean; per array-factor spacing, its gamma points. NaN when a count is,
    as parse may ask before it validates.
    """
    per_position = zip(("doa_spectrum", "per_antenna_attenuation", "mean_attenuation"),
                       (config.n_fft, 2 * config.half_count + 1, 1))
    exported = len(config.positions) * sum(n for kind, n in per_position if kind in config.outputs)
    if "array_factor" in config.outputs:
        exported += len(config.array_factor_spacings) * config.array_factor_points
    return exported


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
    # a section of the wrong type gets that one message: its keys read as NaN or None,
    # which no check that a key is given or non-empty reports
    malformed = {name for name, section in sections.items() if section is None}
    sections.update(dict.fromkeys(malformed, {}))
    for name, section in sections.items():
        errors += [
            f"{name or 'top level'}: unknown key {_quoted(key)}"
            for key in section if key not in _KEYS[name]
        ]
    fields = {}
    for name, (field, default, integer, low, high) in _NUMBERS.items():
        section, _, key = name.partition(".")
        if section in malformed:
            default = math.nan
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
    if d0 > _MAX_LINK_WAVELENGTHS * wavelength:
        errors.append(f"scene.central_distance_m must be <= {_MAX_LINK_WAVELENGTHS:g} wavelengths "
                      f"({_MAX_LINK_WAVELENGTHS * wavelength:g} m)")
    fields["target_rotation"] = math.radians(fields["target_rotation"])
    fields["spacing"] *= wavelength
    if fields["spacing"] == math.inf:
        errors.append("scene.spacing_wavelengths is too large: the spacing overflows")

    positions: list[tuple[float, float]] = []
    first_with_tag: dict[str, int] = {}
    label = "target.positions_m"
    bad: list[str] = []
    listed = _typed(sections["target"].get("positions_m"), list, label, errors,
                    None if "target" in malformed else [])
    too_many = len(listed or ()) > MAX_POSITIONS
    if too_many:  # refused before each position is checked, at about 5 us a position
        errors.append(f"{label}: {len(listed):,} positions exceed the cap of {MAX_POSITIONS:,}")
    for i, p in enumerate(() if too_many else listed or ()):
        if not isinstance(p, list) or len(p) != 2:
            bad.append(f"{label}[{i}] must be an [x, y] pair")
            continue
        positions.append(tuple(_number(v, f"{label}[{i}]", bad) for v in p))
        outside = sheet_span_error(positions[-1][0], fields["target_half_width"] or 0.0,
                                   fields["target_rotation"], d0)
        if outside is not None:
            bad.append(f"{label}[{i}]: {outside}")
        j = first_with_tag.setdefault(_position_tag(*positions[-1]), i)
        if j != i:
            bad.append(f"{label}[{j}] and [{i}] match to the mm and would share export files")
    errors += _capped(bad, label)

    if fields["n_fft"] < 2 * fields["half_count"] + 1:
        errors.append("processing.n_fft must be an integer >= the array size")

    outputs = _typed(raw.get("outputs"), list, "outputs", errors, [])
    if outputs == []:
        errors.append("outputs: at least one output kind is required")
    outputs = tuple(outputs or ())
    first_with_kind: dict[str, int] = {}
    bad = []
    for i, kind in enumerate(outputs):
        if not isinstance(kind, str):
            bad.append(f"outputs[{i}] must be a string")
        elif kind not in OUTPUT_KINDS:
            bad.append(
                f"outputs: unknown kind {_quoted(kind)} (choose from {', '.join(OUTPUT_KINDS)})"
            )
        elif (j := first_with_kind.setdefault(kind, i)) != i:
            bad.append(f"outputs[{j}] and [{i}] repeat one kind")
    errors += _capped(bad, "outputs")

    if any(k != "array_factor" for k in outputs):
        if fields["target_half_width"] is None or fields["target_half_height"] is None:
            errors.append("target: half_width_m and half_height_m are required for attenuation outputs")
        if listed == []:  # a list of malformed entries has its own messages
            errors.append(f"{label} must be non-empty for attenuation outputs")

    label = "array_factor.spacings_wavelengths"
    bad = []
    listed = _typed(sections["array_factor"].get("spacings_wavelengths"), list, label, errors, [0.5])
    if listed == [] and "array_factor" in outputs:
        errors.append(f"{label} must be non-empty for the array_factor output")
    af_spacings = tuple(_number(s, label, bad) * wavelength for s in listed or ())
    if any(s <= 0.0 or s == math.inf for s in af_spacings):
        bad.append(f"{label} must be positive and finite")
    first_with_tag = {}
    for i, s in enumerate(af_spacings):
        j = first_with_tag.setdefault(_spacing_tag(s, wavelength), i)
        if j != i and not math.isnan(s):
            bad.append(f"{label}[{j}] and [{i}] would share export files")
    errors += _capped(bad, label)

    config = ScenarioConfig(
        **fields, positions=tuple(positions), outputs=outputs, array_factor_spacings=af_spacings
    )
    exported = exported_bound(config)
    if exported > MAX_EXPORTED_VALUES:  # NaN fails this check
        errors.append(f"outputs: {exported:,} exported values exceed the budget of "
                      f"{MAX_EXPORTED_VALUES:,}")

    if errors:
        raise ScenarioError(f"{source}: invalid scenario\n  - " + "\n  - ".join(errors))

    config.scene()  # surfaces the spacing <= lambda/4 coupling warning
    if any(k != "array_factor" for k in outputs):  # then a sheet is set
        # Each half-axis moves r1 + r2 by at most 2a, so no position's path sweep
        # exceeds 4a: a bound on every start grid that costs the same for any run.
        step = config.quadrature_step
        sweeps = 4.0 * np.array([config.target_half_width, config.target_half_height]) / wavelength
        try:
            check_orders(*rule_orders(sweeps, MAX_STEP / step))
        except ValueError as e:
            raise ScenarioError(
                f"{source}: invalid scenario\n  - processing: the start grids' bound at "
                f"quadrature step {step:g} wavelengths: {e}"
            ) from e
    return config


def load_scenario(path) -> ScenarioConfig:
    """Load a scenario from a JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ScenarioError(f"{path}: {e.strerror or e}") from e
    return parse_scenario(text, source=str(path))


def start_orders(config: ScenarioConfig, scene: Scene, centers) -> np.ndarray:
    """Start orders of the run's sheet at ``centers``: ``sheet_orders`` at MAX_STEP / step."""
    sheet = config.target_at(0.0, 0.0)  # only its shape is read
    return sheet_orders(scene, sheet, centers, MAX_STEP / config.quadrature_step)


def _sweep_blocks(
    config: ScenarioConfig, scene: Scene, gamma_deg: np.ndarray | None, positions: list
) -> list[Block]:
    """The blocks of every position, in ``positions`` order; one solve of them all.

    ``gamma_deg`` is the run's DoA grid, shared read-only, as is the antenna
    index column. Every value comes from the solve's ratios, one row per
    position, and from the empty vector and the occupied rows they give.
    """
    sheet, centers = config.target_at(0.0, 0.0), np.array(positions)
    try:
        ratios = converged_field_ratio_vectors(scene, sheet, centers, config.quadrature_rel_tol,
                                               start_orders(config, scene, centers))[0]
    except SolveError as e:
        x, y = positions[e.index]
        raise SimulationError(f"position ({x:g}, {y:g}): {e}") from e
    empty = boresight_steering(scene)
    occupied = empty * ratios
    if "doa_spectrum" in config.outputs:
        spectra = attenuation_spectra(empty, occupied, scene.array.spacing, scene.wavelength,
                                      config.n_fft)
    per_antenna = excess_attenuation_db(ratios)
    indices = scene.array.indices
    indices.flags.writeable = False  # shared by every per-antenna block
    weights = uniform_weights(scene.array.half_count)

    # per position, quantities in name order, each by ascending index: the export order
    blocks: list[Block] = []
    for p, (x, y) in enumerate(positions):
        tag = _position_tag(x, y)
        if "doa_spectrum" in config.outputs:
            blocks.append(Block(f"doa_spectrum_{tag}", ("gamma_deg", "excess_attenuation_db"),
                                "doa_excess_attenuation_db", x, y, gamma_deg, spectra[p]))
        if "per_antenna_attenuation" in config.outputs:
            blocks.append(Block(f"per_antenna_{tag}", ("antenna_index", "excess_attenuation_db"),
                                "excess_attenuation_antenna_db", x, y, indices, per_antenna[p]))
        if "mean_attenuation" in config.outputs:
            value = mean_attenuation_from_snapshots(weights, empty, occupied[p])
            blocks.append(Block("mean_attenuation", ("x_m", "y_m", "mean_excess_attenuation_db"),
                                "mean_excess_attenuation_db", x, y, None, np.array([value])))
    return blocks


def _array_factor_block(config: ScenarioConfig, scene: Scene, spacing: float) -> Block:
    tag = _spacing_tag(spacing, scene.wavelength)
    gammas_deg = np.linspace(0.0, 180.0, config.array_factor_points)[1:-1]
    a = planar_steering(config.half_count, spacing, scene.wavelength, np.radians(gammas_deg))
    with np.errstate(divide="ignore"):  # a null gives -inf dB
        values = 20.0 * np.log10(np.abs(array_factor(uniform_weights(config.half_count), a)))
    return Block(f"array_factor_da{tag}lam", ("gamma_deg", "array_factor_db"),
                 f"array_factor_db[da={tag}lam]", None, None, gammas_deg, values)


def run(config: ScenarioConfig) -> ResultTable:
    """Evaluate every requested quantity at every position.

    Blocks come in export order: array-factor curves in
    ``array_factor_spacings`` order, then positions sorted by (x, y). Every
    DoA block indexes one read-only array of the run's gamma grid, in degrees.
    All positions are solved together (``_sweep_blocks``).
    """
    scene = config.scene()
    blocks: list[Block] = []
    if "array_factor" in config.outputs:
        blocks.extend(_array_factor_block(config, scene, s) for s in config.array_factor_spacings)
    gamma_deg = None
    if "doa_spectrum" in config.outputs:
        gamma_deg = np.degrees(doa_grid(scene.array.spacing, scene.wavelength, config.n_fft)[1])
        gamma_deg.flags.writeable = False
    if any(k != "array_factor" for k in config.outputs):
        blocks.extend(_sweep_blocks(config, scene, gamma_deg, sorted(config.positions)))
    return ResultTable(blocks=tuple(blocks), config_hash=config.config_hash(), version=__version__)


def export(table: ResultTable, fmt: str, out_dir) -> list[Path]:
    """Write the table as plot-ready files; returns the written paths.

    ``csv`` and ``gnuplot`` split the table into one two-column (or
    three-column) file per quantity group; ``jsonl`` writes a single
    results.jsonl with one object per exported value. Each file is written
    block by block, and is byte-identical for identical tables.
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


def _json_number(value) -> str:
    """``value`` to 9 significant digits, spelt as ``json.dumps`` spells the float.

    That is the ``"%.9g"`` string, with ``.0`` after an integer, but for two
    ranges of exponents where ``repr`` spells the float otherwise: 9 to 15,
    which it writes in full, and -308 and below, where a subnormal keeps
    fewer than 9 digits.
    """
    text = _VALUE % value
    _, e, exponent = text.partition("e")
    if e:
        return repr(float(text)) if 9 <= int(exponent) <= 15 or int(exponent) <= -308 else text
    if "." in text:
        return text
    return _JSON_NONFINITE.get(text) or text + ".0"


def _export_jsonl(table: ResultTable, out_dir: Path) -> Path:
    path = out_dir / "results.jsonl"
    meta = f'"config_hash": {json.dumps(table.config_hash)}, "version": {json.dumps(table.version)}'

    def pieces():
        for block in table.blocks:
            x, y = ("null" if v is None else _json_number(v) for v in (block.x, block.y))
            if block.index is None:
                indices = ["null"]
            elif block.index.dtype.kind == "i":  # antenna indices stay JSON integers
                indices = map(str, block.index.tolist())
            else:
                indices = map(_json_number, block.index.tolist())
            head = f'{{{meta}, "x_m": {x}, "y_m": {y}, "index": '
            tail = f', "quantity": {json.dumps(block.quantity)}, "value": '
            for index, value in zip(indices, block.values.tolist()):
                yield f'{head}{index}{tail}{_json_number(value)}, "units": "dB"}}\n'.encode()

    _write_file(path, pieces())
    return path


def _export_columns(table: ResultTable, fmt: str, out_dir: Path) -> list[Path]:
    groups: dict[str, list[Block]] = {}  # only mean_attenuation spans several blocks
    for block in table.blocks:
        groups.setdefault(block.stem, []).append(block)

    sep = "," if fmt == "csv" else " "
    suffix = ".csv" if fmt == "csv" else ".dat"
    header_meta = f"# config_hash={table.config_hash} version={table.version}"
    # lines are formatted as bytes, which "%.9g" spells as it spells a str
    mean_line = (sep.join([_VALUE] * 3) + "\n").encode()  # x, y and the value
    # An index column's templates, built once per call for the blocks that share it:
    # every DoA block shares the run's gamma grid, every per-antenna block its antenna
    # indices. Keyed by id, as the table keeps each column alive.
    templates: dict[int, list[bytes]] = {}

    def pieces(head: bytes, blocks: list[Block]):
        yield head
        for block in blocks:
            if block.index is None:
                yield mean_line % (block.x, block.y, *block.values.tolist())
                continue
            if (chunks := templates.get(id(block.index))) is None:
                chunks = templates[id(block.index)] = _line_templates(block.index, sep)
            for start, template in zip(range(0, len(block.values), _LINES_PER_CALL), chunks):
                yield template % tuple(block.values[start:start + _LINES_PER_CALL].tolist())

    written = []
    for stem in sorted(groups):
        blocks = groups[stem]
        path = out_dir / (stem + suffix)
        columns = sep.join(blocks[0].columns)
        head = f"{header_meta}\n{'# ' if fmt == 'gnuplot' else ''}{columns}\n".encode()
        _write_file(path, pieces(head, blocks))
        written.append(path)
    return written


def _line_templates(index: np.ndarray, sep: str) -> list[bytes]:
    """``index`` as ``%`` templates of up to ``_LINES_PER_CALL`` lines each.

    A line is its entry spelt as ``"%.9g"`` spells it, then ``sep`` (``%``
    escaped in both), then ``"%.9g\n"`` for the value.
    """
    line_end = sep.replace("%", "%%") + _VALUE + "\n"
    return [(line_end.join([(_VALUE % i).replace("%", "%%")
                            for i in index[start:start + _LINES_PER_CALL].tolist()])
             + line_end).encode()
            for start in range(0, len(index), _LINES_PER_CALL)]


def _write_file(path: Path, pieces) -> None:
    """Write the byte ``pieces`` to ``path`` through one descriptor.

    Pieces are joined into writes of at least ``_WRITE_BYTES``, the last
    excepted, so a desk file is one write.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        held: list[bytes] = []
        size = 0
        for piece in pieces:
            held.append(piece)
            size += len(piece)
            if size >= _WRITE_BYTES:
                _write_all(fd, b"".join(held))
                held, size = [], 0
        _write_all(fd, b"".join(held))
    finally:
        os.close(fd)


def _write_all(fd: int, data: bytes) -> None:
    """Write all of ``data``, resuming after a short write."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
