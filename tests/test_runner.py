import argparse
import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from arrayshadow import (
    QuadratureReport,
    attenuation_spectrum_from_snapshots,
    boresight_steering,
    converged_field_ratio_vector,
    excess_attenuation_db,
    geometry,
    mean_attenuation_from_snapshots,
    uniform_weights,
)
from arrayshadow import runner, sensing
from arrayshadow.em_model import converged_field_ratio_vectors
from arrayshadow.cli import _build_parser
from arrayshadow.cli import main as cli_main
from arrayshadow.presets import PRESET_NAMES, load_preset, preset_text
from arrayshadow.runner import (
    ScenarioError,
    SimulationError,
    export,
    load_scenario,
    parse_scenario,
    run,
)
from conftest import WAVELENGTH

README = Path(__file__).parents[1] / "README.md"
FORMAT_KEYS = (*runner._NUMBERS, *runner._OTHER_KEYS)  # "section.key", or a top-level key

# any JSON value, nested a little
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


# a valid value for every numeric key, in ranges around minimal_config that keep each
# run cheap: at most nine antennas, and fixed grids of at most 15,251 nodes (step lambda/20)
VALID_NUMBERS = {
    "scene.carrier_frequency_hz": st.floats(1e9, 2.5e9),
    "scene.central_distance_m": st.floats(2.0, 8.0),
    "scene.half_count": st.integers(0, 4),
    "scene.spacing_wavelengths": st.floats(0.3, 1.0),  # above the lambda/4 coupling warning
    "target.half_width_m": st.floats(0.05, 0.3),
    "target.half_height_m": st.floats(0.1, 0.9),
    "target.rotation_deg": st.floats(-180.0, 180.0),
    "processing.n_fft": st.integers(9, 2048),
    "processing.quadrature_step_wavelengths": st.floats(0.05, 0.1),
    "processing.quadrature_rel_tol": st.none() | st.floats(1e-2, 0.1),
    "array_factor.gamma_points": st.integers(3, 2000),
}


def minimal_config(**overrides):
    cfg = {
        "scene": {
            "carrier_frequency_hz": 2.4868e9,
            "central_distance_m": 4.0,
            "half_count": 2,
            "spacing_wavelengths": 0.5,
        },
        "target": {
            "half_width_m": 0.275,
            "half_height_m": 0.9,
            "positions_m": [[1.0, 0.0]],
        },
        "outputs": ["per_antenna_attenuation", "mean_attenuation"],
    }
    cfg.update(overrides)
    return cfg


def records(table):
    """(x, y, index, quantity, value) per exported value, in export order; the mean's index is None."""
    out = []
    for b in table.blocks:
        indices = [None] if b.index is None else b.index.tolist()
        out += [(b.x, b.y, i, b.quantity, v) for i, v in zip(indices, b.values.tolist())]
    return out


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# any float, with the ones whose spelling a writer may get wrong drawn often
EXPORT_FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300, 1e16, 1e9])


@st.composite
def column_tables(draw):
    """Tables shaped as runs export them: per position a DoA block on one shared index
    array, a per-antenna block on shared integer indices, and a mean block in one file."""
    def values(n):
        return np.array(draw(st.lists(EXPORT_FLOATS, min_size=n, max_size=n)))

    # one-line blocks, and blocks that end at, before and after a template's last line
    lines = runner._LINES_PER_CALL
    gamma = values(draw(st.sampled_from([1, lines - 1, lines, lines + 1, 2 * lines + 1])
                        | st.integers(1, 3 * lines)))
    half_count = draw(st.integers(0, 8))
    antennas = np.arange(-half_count, half_count + 1)

    blocks = []
    for p in range(draw(st.integers(1, 3))):
        x, y = draw(EXPORT_FLOATS), draw(EXPORT_FLOATS)
        blocks += [
            runner.Block(f"doa_spectrum_{p}", ("gamma_deg", "excess_attenuation_db"), "d", x, y,
                         gamma, values(len(gamma))),
            runner.Block(f"per_antenna_{p}", ("antenna_index", "excess_attenuation_db"), "a", x, y,
                         antennas, values(len(antennas))),
            runner.Block("mean_attenuation", ("x_m", "y_m", "mean_excess_attenuation_db"), "m", x, y,
                         None, values(1)),
        ]
    return runner.ResultTable(tuple(blocks), "0123456789ab", "0.1.0")


def reference_columns(table, fmt, out_dir):
    """The per-line csv and gnuplot writer the block writer replaced, kept as its reference.

    Each file goes through a text stream, one ``%`` call and one concatenation a line.
    """
    groups = {}
    for block in table.blocks:
        groups.setdefault(block.stem, []).append(block)
    sep = "," if fmt == "csv" else " "
    suffix = ".csv" if fmt == "csv" else ".dat"
    header_meta = f"# config_hash={table.config_hash} version={table.version}"
    value = "%.9g"
    mean_line = sep.join([value] * 3) + "\n"
    spelt = {}  # an index column's entries, each with its separator, keyed by id
    written = []
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem in sorted(groups):
        blocks = groups[stem]
        path = out_dir / (stem + suffix)
        with path.open("w") as f:
            f.write(f"{header_meta}\n{'# ' if fmt == 'gnuplot' else ''}{sep.join(blocks[0].columns)}\n")
            for block in blocks:
                if block.index is None:
                    f.write(mean_line % (block.x, block.y, *block.values.tolist()))
                    continue
                if (prefixes := spelt.get(id(block.index))) is None:
                    prefixes = spelt[id(block.index)] = [value % i + sep for i in block.index.tolist()]
                f.writelines(map(str.__add__, prefixes,
                                 map((value + "\n").__mod__, block.values.tolist())))
        written.append(path)
    return written


def open_descriptors():
    return len(os.listdir("/proc/self/fd"))


class TestLoadScenario:
    def test_shipped_fig4_preset(self):
        cfg = load_preset("paper_fig4")
        assert cfg.half_count == 2
        assert cfg.spacing == pytest.approx(WAVELENGTH / 2, rel=1e-12)
        assert cfg.central_distance == 4.0
        assert cfg.carrier_frequency == 2.4868e9
        assert cfg.target_half_width == 0.275
        assert cfg.target_half_height == 0.9
        assert cfg.positions == ((1.0, -0.25), (1.0, 0.0), (1.0, 0.25))
        assert cfg.n_fft == 257

    def test_all_presets_parse(self):
        for name in PRESET_NAMES:
            cfg = load_preset(name)
            assert cfg.outputs

    def test_defaults_applied(self, tmp_path):
        cfg = load_scenario(write_config(tmp_path, minimal_config()))
        assert cfg.n_fft == 257
        assert cfg.target_rotation == 0.0
        assert cfg.quadrature_step == 0.1

    def test_coupling_warning_at_fifth_wavelength(self, tmp_path):
        raw = minimal_config()
        raw["scene"]["spacing_wavelengths"] = 0.2
        with pytest.warns(UserWarning, match="lambda/4"):
            load_scenario(write_config(tmp_path, raw))

    def test_no_coupling_warning_at_half_wavelength(self, tmp_path, recwarn):
        load_scenario(write_config(tmp_path, minimal_config()))
        assert not [w for w in recwarn if "lambda/4" in str(w.message)]

    def test_validation_errors_reported_exhaustively(self, tmp_path):
        raw = minimal_config()
        raw["scene"]["spacing_wavelengths"] = -0.5
        raw["scene"]["central_distance_m"] = 0.0
        raw["target"]["half_width_m"] = -1.0
        raw["outputs"] = ["per_antenna_attenuation", "bogus"]
        with pytest.raises(ScenarioError) as err:
            load_scenario(write_config(tmp_path, raw))
        message = str(err.value)
        assert "spacing" in message
        assert "central_distance_m" in message
        assert "half_width_m" in message
        assert "bogus" in message

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "scene": [,]\n}')
        with pytest.raises(ScenarioError, match=r"broken\.json:2"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "absent.json")

    def test_positions_required_for_attenuation_outputs(self, tmp_path):
        raw = minimal_config()
        raw["target"]["positions_m"] = []
        with pytest.raises(ScenarioError, match="positions"):
            load_scenario(write_config(tmp_path, raw))

    @pytest.mark.parametrize("section, key, value, message", [
        ("target", "positions_m", [5], "target.positions_m[0] must be an [x, y] pair"),
        ("target", "positions_m", 5, "target.positions_m must be a list"),
        (None, "outputs", 5, "outputs must be a list"),
        (None, "outputs", {}, "outputs must be a list"),
        ("array_factor", "spacings_wavelengths", 5,
         "array_factor.spacings_wavelengths must be a list"),
        # a section of the wrong type: none of its keys also reads as missing or empty
        (None, "target", [1], "target must be an object"),
        (None, "scene", 5, "scene must be an object"),
        (None, "processing", [1], "processing must be an object"),
        (None, "array_factor", "0.5", "array_factor must be an object"),
    ], ids=["position-not-a-pair", "positions-a-number", "outputs-a-number", "outputs-an-object",
            "spacings-a-number", "target-a-list", "scene-a-number", "processing-a-list",
            "array-factor-a-string"])
    def test_malformed_positions_are_not_also_called_empty(self, section, key, value, message):
        raw = minimal_config(outputs=["per_antenna_attenuation", "array_factor"])
        (raw if section is None else raw.setdefault(section, {}))[key] = value
        with pytest.raises(ScenarioError) as e:
            parse_scenario(json.dumps(raw), source="s.json")
        assert str(e.value).splitlines() == ["s.json: invalid scenario", f"  - {message}"]

    def test_array_factor_output_needs_a_spacing(self, tmp_path, capsys):
        raw = minimal_config(outputs=["array_factor"], array_factor={"spacings_wavelengths": []})
        with pytest.raises(ScenarioError) as e:
            parse_scenario(json.dumps(raw), source="s.json")
        assert str(e.value).splitlines() == [
            "s.json: invalid scenario",
            "  - array_factor.spacings_wavelengths must be non-empty for the array_factor output",
        ]
        assert cli_main(["validate", str(write_config(tmp_path, raw))]) == 1
        assert "non-empty" in capsys.readouterr().err
        # other outputs read no spacing
        raw["outputs"] = ["mean_attenuation"]
        assert parse_scenario(json.dumps(raw)).array_factor_spacings == ()

    @pytest.mark.parametrize("section, key, value", [
        ("scene", "carrier_frequency_hz", "abc"),
        ("scene", "carrier_frequency_hz", float("nan")),
        ("scene", "half_count", True),
        (None, "target", [1, 2]),
        (None, "processing", [1]),
        ("target", "positions_m", 5),
        ("target", "positions_m", [["a", 1]]),
        ("target", "positions_m", [[1.0, float("inf")]]),
        ("target", "half_height_m", "tall"),
        ("processing", "quadrature_rel_tol", "x"),
        ("array_factor", "spacings_wavelengths", "0.5"),
        ("scene", "carrier_frequency_hz", 1e-300),  # the wavelength overflows
        # integers large enough to exhaust memory in a run
        ("scene", "half_count", 101),
        ("processing", "n_fft", 10**18),
        ("array_factor", "gamma_points", 10**18),
    ])
    def test_malformed_values_rejected_cleanly(self, tmp_path, capsys, section, key, value):
        raw = minimal_config()
        (raw if section is None else raw.setdefault(section, {}))[key] = value
        with pytest.raises(ScenarioError, match=key):
            parse_scenario(json.dumps(raw))
        assert cli_main(["validate", str(write_config(tmp_path, raw))]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, typo", [
        ("quadrature_rel_tol", "quadrature_rel_tl"),
        ("n_fft", "nfft"),
        ("outputs", "outptus"),
        ("scene", "scnee"),
    ])
    def test_unknown_keys_rejected(self, tmp_path, capsys, key, typo):
        raw = minimal_config(processing={"quadrature_rel_tol": 1e-4, "n_fft": 257})
        text = json.dumps(raw).replace(f'"{key}"', f'"{typo}"')
        with pytest.raises(ScenarioError, match=f"unknown key '{typo}'"):
            parse_scenario(text)
        path = tmp_path / "scenario.json"
        path.write_text(text)
        assert cli_main(["validate", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [
        ("processing", "noise_std"),
        ("processing", "seed"),
        # lengths in meters beside the wavelength keys, and a height that moved no output
        ("scene", "spacing_m"),
        ("processing", "quadrature_step_m"),
        ("scene", "link_height_m"),
    ])
    def test_deleted_keys_rejected(self, tmp_path, capsys, section, key):
        raw = minimal_config()
        raw.setdefault(section, {})[key] = 1
        with pytest.raises(ScenarioError, match=f"{section}: unknown key '{key}'"):
            parse_scenario(json.dumps(raw))
        assert cli_main(["validate", str(write_config(tmp_path, raw))]) == 1
        assert "error" in capsys.readouterr().err

    def test_misspelt_keys_each_reported(self):
        raw = {}
        for name in FORMAT_KEYS:
            section, _, key = name.rpartition(".")
            (raw.setdefault(section, {}) if section else raw)[key + "_x"] = 1
        with pytest.raises(ScenarioError) as err:
            parse_scenario(json.dumps(raw))
        unknown = re.findall(r"unknown key '(\w+)'", str(err.value))
        assert sorted(unknown) == sorted(name.rpartition(".")[2] + "_x" for name in FORMAT_KEYS)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(path=st.sampled_from(["scene", "target", *FORMAT_KEYS]), value=JSON_VALUES)
    def test_any_value_at_any_key_parses_finite_or_fails_cleanly(self, path, value):
        raw = minimal_config()
        section, _, key = path.rpartition(".")
        (raw.setdefault(section, {}) if section else raw)[key] = value

        def numbers(v):
            if isinstance(v, (tuple, list)):
                return [n for item in v for n in numbers(item)]
            return [v] if isinstance(v, (int, float)) else []

        # a small budget, set before the parse, keeps every accepted grid cheap to run
        with mock.patch.object(geometry, "MAX_GRID_NODES", 60_000):
            try:
                config = parse_scenario(json.dumps(raw))
            except ScenarioError:
                return
            assert all(math.isfinite(n) for n in numbers(list(asdict(config).values())))
            try:
                table = run(config)
            except SimulationError:
                return
        assert table.rows.size > 0
        with tempfile.TemporaryDirectory() as out:
            for fmt in ("csv", "jsonl", "gnuplot"):
                assert export(table, fmt, Path(out) / fmt)

    def test_valid_value_draws_cover_every_numeric_key(self):
        assert VALID_NUMBERS.keys() == runner._NUMBERS.keys()

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        numbers=st.fixed_dictionaries(VALID_NUMBERS),
        xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2),
        ys=st.lists(st.integers(-20, 20), min_size=2, max_size=2, unique=True),
        outputs=st.lists(st.sampled_from(runner.OUTPUT_KINDS), min_size=1, unique=True),
        spacings=st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3, unique_by=lambda s: f"{s:g}"),
    )
    def test_valid_values_run_and_export(self, numbers, xs, ys, outputs, spacings):
        raw = {"outputs": outputs, "array_factor": {"spacings_wavelengths": spacings}}
        for name, value in numbers.items():
            section, _, key = name.partition(".")
            raw.setdefault(section, {})[key] = value
        # the sheet reaches at most 0.3 m along the link, which is at least 2 m long
        d0 = numbers["scene.central_distance_m"]
        raw["target"]["positions_m"] = [[0.6 + x * (d0 - 1.2), 0.05 * y] for x, y in zip(xs, ys)]

        # small budgets, set before the parse, keep every accepted run cheap
        with mock.patch.object(geometry, "MAX_GRID_NODES", 60_000), \
                mock.patch.object(runner, "MAX_EXPORTED_VALUES", 5_000):
            try:
                table = run(parse_scenario(json.dumps(raw)))
            except (ScenarioError, SimulationError) as e:  # only a budget may refuse a valid file
                assert "budget" in str(e)
                event(f"refused: {type(e).__name__}")
                return
        event("ran and exported")
        with tempfile.TemporaryDirectory() as out:
            for fmt in ("csv", "jsonl", "gnuplot"):
                assert export(table, fmt, Path(out) / fmt)
            lines = (Path(out) / "jsonl" / "results.jsonl").read_text().splitlines()
        assert len(lines) == len(table.rows) > 0

    @pytest.mark.parametrize("x, rotation_deg, half_width", [
        (-1.0, 0.0, 0.275),
        (0.0, 0.0, 0.5),
        (4.0, 0.0, 0.275),
        (6.0, 0.0, 0.275),
        (0.1, 90.0, 0.275),
    ], ids=["behind_tx", "on_tx", "array_plane", "beyond_array", "rotated_across_tx"])
    def test_sheet_outside_the_link_rejected(
        self, tmp_path, capsys, x, rotation_deg, half_width
    ):
        raw = minimal_config()
        raw["target"].update(
            positions_m=[[1.0, 0.0], [x, 0.0]], rotation_deg=rotation_deg, half_width_m=half_width
        )
        with pytest.raises(ScenarioError, match=r"positions_m\[1\]: the sheet spans") as err:
            parse_scenario(json.dumps(raw))
        assert "positions_m[0]" not in str(err.value)
        assert cli_main(["validate", str(write_config(tmp_path, raw))]) == 1
        assert "error" in capsys.readouterr().err

    def test_readme_scenario_and_synopsis_are_current(self):
        text = README.read_text()
        example = text.split("## Scenario files", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        parse_scenario(example, source="README.md")
        synopsis = re.search(r"arrayshadow simulate .*?\n(?!\s+\[)", text, re.S).group(0)
        parser, _ = _build_parser()
        subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        simulate = subcommands.choices["simulate"]
        flags = {f for a in simulate._actions for f in a.option_strings if f.startswith("--")}
        assert set(re.findall(r"--[a-z-]+", synopsis)) == flags - {"--help"}

    @pytest.mark.parametrize("entry, expected", [
        ('"' + "k" * 100_000 + '"', "unknown kind 'kkkk"),
        ("[" * 980 + "]" * 980, r"outputs\[0\] must be a string"),
    ], ids=["long_kind", "nested_list"])
    def test_echoed_input_kept_short(self, entry, expected):
        text = json.dumps(minimal_config(outputs=["?"])).replace('"?"', entry)
        # a new thread starts with the whole recursion limit, as the CLI does
        with ThreadPoolExecutor(max_workers=1) as pool:
            parsed = pool.submit(parse_scenario, text)
        with pytest.raises(ScenarioError, match=expected) as err:
            parsed.result()
        assert len(str(err.value)) < 300

    @pytest.mark.parametrize("second", [[1.0004, 0.0], [1.0, 0.0], [1.0, -0.0], [1.0, -0.0004]])
    def test_positions_sharing_a_file_name_rejected(self, tmp_path, second):
        raw = minimal_config()
        raw["target"]["positions_m"] = [[1.0, 0.0], [1.0, 0.5], second]
        with pytest.raises(ScenarioError, match=r"positions_m\[0\] and \[2\]"):
            load_scenario(write_config(tmp_path, raw))

    def test_coordinate_rounding_to_zero_from_below_is_spelt_unsigned(self, tmp_path):
        raw = minimal_config(outputs=["per_antenna_attenuation"])
        raw["target"]["positions_m"] = [[1.0, -0.0004]]
        paths = export(run(parse_scenario(json.dumps(raw))), "csv", tmp_path)
        assert [p.name for p in paths] == ["per_antenna_x1.000_y0.000.csv"]

    def test_repeated_output_kind_rejected(self):
        raw = minimal_config(
            outputs=["doa_spectrum", "per_antenna_attenuation", "mean_attenuation", "doa_spectrum"]
        )
        with pytest.raises(ScenarioError, match=r"outputs\[0\] and \[3\]"):
            parse_scenario(json.dumps(raw))

    @pytest.mark.parametrize("second", [0.5000001, 0.5])
    def test_spacings_sharing_a_file_name_rejected(self, tmp_path, second):
        raw = minimal_config(
            outputs=["array_factor"], array_factor={"spacings_wavelengths": [0.5, second]}
        )
        with pytest.raises(ScenarioError, match=r"spacings_wavelengths\[0\] and \[1\]"):
            load_scenario(write_config(tmp_path, raw))

    @pytest.mark.parametrize("text", [
        '{"scene": ' + "1" * 5000 + "}",
        "[" * 100_000 + "]" * 100_000,
    ], ids=["oversized_integer", "nested_too_deep"])
    def test_unreadable_json_rejected_cleanly(self, tmp_path, capsys, text):
        with pytest.raises(ScenarioError):
            parse_scenario(text)
        path = tmp_path / "scenario.json"
        path.write_text(text)
        assert cli_main(["validate", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_quadrature_step_capped_at_a_tenth_wavelength(self, tmp_path, capsys):
        # the cap is in wavelengths, so 0.1 is accepted at every carrier
        for fc in (2.4868e9, 3e9, 5.8e9):
            raw = minimal_config(processing={"quadrature_step_wavelengths": 0.1})
            raw["scene"]["carrier_frequency_hz"] = fc
            assert parse_scenario(json.dumps(raw)).quadrature_step == 0.1
        for step in (0.5, 0.41, 0.1000001):  # 0.41 wavelengths is about 0.05 m
            raw = minimal_config(processing={"quadrature_step_wavelengths": step})
            message = "quadrature_step_wavelengths must be a number <= 0.1"
            with pytest.raises(ScenarioError, match=message):
                parse_scenario(json.dumps(raw))
            assert cli_main(["validate", str(write_config(tmp_path, raw))]) == 1
            assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("processing, step", [
        ({}, 0.1),
        ({"quadrature_step_wavelengths": 0.05}, 0.05),
        ({"quadrature_step_wavelengths": 0.04}, 0.04),
        ({"quadrature_step_wavelengths": 0.1 / 32}, 0.1 / 32),
    ])
    def test_quadrature_step_is_kept_as_parsed(self, processing, step):
        raw = minimal_config(processing=processing)
        assert parse_scenario(json.dumps(raw)).quadrature_step == step

    @pytest.mark.parametrize("step, refused", [  # in wavelengths: 1e-4 m and 1e-320 m
        # the desk sheet's position-free bound, 44 x 108 at step 0.1, at 120 times the density
        (8.3e-4, "step 0.00083 wavelengths: quadrature grid of 33,737,472 nodes (5,184 x 13,016)"),
        # read as a subnormal: the density overflows
        (8.3e-320, "step 8.29981e-320 wavelengths: quadrature grid of inf nodes (inf x inf)"),
    ])
    def test_fixed_grid_over_the_node_budget_is_a_validation_error(
        self, tmp_path, capsys, step, refused
    ):
        raw = minimal_config(processing={"quadrature_step_wavelengths": step})
        message = re.escape(f"{refused} exceeds the budget of 10,000,000")
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(json.dumps(raw))
        assert cli_main(["validate", str(write_config(tmp_path, raw))]) == 1
        assert refused in capsys.readouterr().err

    def test_start_grid_bound_refuses_no_sheet_the_step_grid_admitted(self, tmp_path):
        # Before the path-sweep rule, each axis of length 2a got ceil(2a / (0.1 lambda)) nodes
        # at the default step, under the same two budgets. The rule's position-free bound,
        # ceil(pi 4a / lambda + 14) rounded up to a multiple of 4, admits every such sheet.
        sizes = np.geomspace(1e-3, 600.0, 120)  # half-widths in wavelengths
        for ay in sizes:
            for az in sizes:
                ny, nz = math.ceil(20.0 * ay), math.ceil(20.0 * az)
                if ny * math.ceil(nz / 2) > geometry.MAX_GRID_NODES or max(ny, nz) > 10_000:
                    continue
                geometry.check_orders(*geometry.rule_orders(4.0 * np.array([ay, az])))
        # the extremes, parsed: the square at the old node budget, the ribbons at the old cap
        for ay, az in ((223.6, 223.6), (500.0, 1e-3), (500.0, 100.0), (1e-3, 500.0)):
            raw = minimal_config()
            raw["target"].update(half_width_m=ay * WAVELENGTH, half_height_m=az * WAVELENGTH)
            parse_scenario(json.dumps(raw))

    @pytest.mark.parametrize("section, key, values, listed, count", [
        ("", "outputs", ["x"] * 100_000, "unknown kind 'x'", 100_000),
        ("", "outputs", ["mean_attenuation"] * 100_000,
         r"outputs\[0\] and \[5\] repeat one kind", 99_999),
        ("target", "positions_m", [[1.0, 0.0]] * 50_000,
         r"positions_m\[0\] and \[5\] match to the mm", 49_999),
        ("array_factor", "spacings_wavelengths", ["?"] * 50_000,
         "spacings_wavelengths must be a finite number", 50_000),
    ], ids=["unknown_kinds", "repeated_kinds", "repeated_positions", "bad_spacings"])
    def test_many_bad_entries_give_a_short_message(
        self, tmp_path, capsys, section, key, values, listed, count
    ):
        raw = minimal_config()
        (raw.setdefault(section, {}) if section else raw)[key] = values
        with pytest.raises(ScenarioError, match=listed) as err:
            parse_scenario(json.dumps(raw))
        message = str(err.value)
        assert len(message.encode()) < 10_000
        assert f"{count - 5:,} more problems, {count:,} in all" in message
        assert "[6]" not in message  # the first five are listed, the rest counted
        assert cli_main(["validate", str(write_config(tmp_path, raw))]) == 1
        assert len(capsys.readouterr().err.encode()) < 10_000

    @pytest.mark.parametrize("half_width, step, order", [  # 1 mm tall sheets, within the budget
        (500.0, 0.1, "52,136"),  # 1 km wide: a bound of 52,136 x 16 nodes
        (50.0, 0.01, "52,260"),  # 100 m wide: 52,260 x 152 nodes, folded to 4.0M
    ])
    def test_axis_order_over_the_cap_is_a_validation_error(
        self, tmp_path, capsys, monkeypatch, half_width, step, order
    ):
        def no_rule(n):
            raise AssertionError(f"a {n}-point rule built for a refused scenario")

        monkeypatch.setattr(geometry, "gauss_legendre", no_rule)
        raw = minimal_config(processing={"quadrature_step_wavelengths": step})
        raw["target"].update(half_width_m=half_width, half_height_m=0.0005)
        message = f"quadrature order {order} along the sheet exceeds the cap of 10,000"
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(json.dumps(raw))
        path = write_config(tmp_path, raw)
        assert cli_main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 1
        assert f"quadrature order {order}" in capsys.readouterr().err

    @pytest.mark.parametrize("d0", [1e15, 1e6 * WAVELENGTH * (1 + 1e-9)])
    def test_link_longer_than_a_million_wavelengths_rejected(self, tmp_path, capsys, d0):
        raw = minimal_config()
        raw["scene"]["central_distance_m"] = d0
        message = r"central_distance_m must be <= 1e\+06 wavelengths \(120554 m\)"
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(json.dumps(raw))
        assert cli_main(["validate", str(write_config(tmp_path, raw))]) == 1
        assert "central_distance_m" in capsys.readouterr().err
        raw["scene"]["central_distance_m"] = 1e6 * WAVELENGTH
        assert parse_scenario(json.dumps(raw)).central_distance == 1e6 * WAVELENGTH

    @pytest.mark.parametrize("accepted, refused, raw", [
        # positions x (2**20 DoA bins + 5 antennas + the mean); 9 positions are 9,437,238
        (9, "10,485,820", minimal_config(
            outputs=["doa_spectrum", "per_antenna_attenuation", "mean_attenuation"],
            processing={"n_fft": 2**20},
        )),
        # spacings x gamma points; 99 spacings are 9,900,099
        (99, "10,000,100", minimal_config(
            outputs=["array_factor"], array_factor={"gamma_points": 100_001},
        )),
    ], ids=["positions", "array_factor"])
    def test_exported_values_over_the_budget_rejected(
        self, tmp_path, capsys, accepted, refused, raw
    ):
        def with_count(n):  # parse only: the accepted config is never run
            if raw["outputs"] == ["array_factor"]:
                raw["array_factor"]["spacings_wavelengths"] = [0.01 * (k + 1) for k in range(n)]
            else:
                raw["target"]["positions_m"] = [[1.0, 0.1 * k] for k in range(n)]
            return json.dumps(raw)

        parse_scenario(with_count(accepted))
        message = f"outputs: {refused} exported values exceed the budget of 10,000,000"
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(with_count(accepted + 1))
        path = tmp_path / "scenario.json"
        path.write_text(with_count(accepted + 1))
        assert cli_main(["validate", str(path)]) == 1
        assert refused in capsys.readouterr().err

    def test_positions_over_the_cap_rejected(self, tmp_path, capsys):
        raw = minimal_config(outputs=["mean_attenuation"])
        raw["target"]["positions_m"] = [[1.0, 0.01 * k] for k in range(1_000)]
        with mock.patch.object(runner, "MAX_POSITIONS", 1_000):
            assert len(parse_scenario(json.dumps(raw)).positions) == 1_000
            # over the cap no position is checked, so the bad one goes unreported
            raw["target"]["positions_m"].append(["bad"])
            message = "target.positions_m: 1,001 positions exceed the cap of 1,000"
            with pytest.raises(ScenarioError) as err:
                parse_scenario(json.dumps(raw))
            assert str(err.value) == f"<config>: invalid scenario\n  - {message}"
            assert cli_main(["validate", str(write_config(tmp_path, raw))]) == 1
        assert message in capsys.readouterr().err

    def test_array_factor_only_needs_no_target(self):
        cfg = load_preset("paper_fig3")
        assert cfg.positions == ()
        assert cfg.outputs == ("array_factor",)
        assert len(cfg.array_factor_spacings) == 5


class TestRun:
    def test_fig4_rows(self):
        table = run(load_preset("paper_fig4"))
        counts: dict[str, int] = {}
        for block in table.blocks:
            counts[block.quantity] = counts.get(block.quantity, 0) + block.values.size
        # at half-wavelength spacing every one of the 257 bins maps inside (0, pi)
        assert counts == {
            "doa_excess_attenuation_db": 3 * 257,
            "excess_attenuation_antenna_db": 3 * 5,
            "mean_excess_attenuation_db": 3,
        }
        assert len(table.rows) == sum(counts.values())

    def test_on_los_jsonl_value(self, tmp_path):
        table = run(load_preset("paper_fig4"))
        path = export(table, "jsonl", tmp_path)[0]
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        central = [
            r for r in rows
            if r["quantity"] == "excess_attenuation_antenna_db"
            and r["x_m"] == 1.0 and r["y_m"] == 0.0 and r["index"] == 0
        ]
        assert len(central) == 1
        assert 13.0 <= central[0]["value"] <= 17.0
        assert central[0]["config_hash"] == table.config_hash
        assert central[0]["units"] == "dB"

    def test_sweep_equals_concatenated_single_runs(self, tmp_path):
        both = minimal_config()
        both["target"]["positions_m"] = [[1.0, -0.3], [1.0, 0.4]]
        table_both = run(load_scenario(write_config(tmp_path, both, "both.json")))

        rows_single = []
        for i, position in enumerate([[1.0, -0.3], [1.0, 0.4]]):
            single = minimal_config()
            single["target"]["positions_m"] = [position]
            cfg = load_scenario(write_config(tmp_path, single, f"single{i}.json"))
            rows_single.extend(records(run(cfg)))

        strip = lambda rows: sorted(
            (x, y, float("-inf") if index is None else index, quantity, value)
            for x, y, index, quantity, value in rows
        )
        assert strip(records(table_both)) == strip(rows_single)

    def test_rows_come_in_export_order(self):
        rows = records(run(load_preset("paper_fig4")))
        assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[3], r[2] is not None, r[2] or 0))
        raw = minimal_config(
            outputs=["array_factor"], array_factor={"spacings_wavelengths": [0.5, 0.1]}
        )
        quantities = dict.fromkeys(r[3] for r in records(run(parse_scenario(json.dumps(raw)))))
        assert list(quantities) == ["array_factor_db[da=0.5lam]", "array_factor_db[da=0.1lam]"]

    @pytest.mark.parametrize("processing, budget, message, cli_exit", [
        # the CLI parses under the same budget, whose bound (44 x 108, 2,376 nodes) it
        # refuses: exit 1
        ({}, 100, r"relative change inf against rel_tol 1e-09: .* exceeds the budget", 1),
        # four pairs fit and agree to about 1e-15, short of rel_tol; the fifth does not
        ({"quadrature_rel_tol": 1e-16}, 30_000,
         r"relative change \d[\d.e+-]* against rel_tol 1e-16", 2),
    ], ids=["start_grid", "doubling"])
    def test_node_budget_fails_cleanly(
        self, tmp_path, capsys, monkeypatch, processing, budget, message, cli_exit
    ):
        # folded desk grids at (1, 0): 20 x 40: 400 nodes; 40 x 80: 1,600; 80 x 160: 6,400;
        # 160 x 320: 25,600; 320 x 640: 102,400
        path = write_config(tmp_path, minimal_config(processing=processing))
        config = load_scenario(path)
        monkeypatch.setattr(geometry, "MAX_GRID_NODES", budget)  # after the parse-time check
        with pytest.raises(SimulationError, match=rf"position \(1, 0\): .*{message}"):
            run(config)
        assert cli_main(["simulate", str(path), "--out", str(tmp_path / "o")]) == cli_exit
        assert "budget" in capsys.readouterr().err

    def test_rows_are_derived_from_one_observation(self):
        cfg = load_preset("paper_fig4")
        scene = cfg.scene()
        empty = boresight_steering(scene)
        expected = []
        for x, y in sorted(cfg.positions):
            ratios = converged_field_ratio_vector(scene, cfg.target_at(x, y), cfg.quadrature_rel_tol)[0]
            occupied = empty * ratios
            spectrum = attenuation_spectrum_from_snapshots(
                empty, occupied, scene.array.spacing, scene.wavelength, cfg.n_fft
            )
            expected += spectrum.excess_attenuation_db.tolist()
            expected += excess_attenuation_db(ratios).tolist()
            expected.append(mean_attenuation_from_snapshots(
                uniform_weights(cfg.half_count), empty, occupied
            ))
        assert run(cfg).rows.tolist() == expected

    def test_the_quadrature_report_reaches_no_data_file(self, tmp_path, monkeypatch):
        cfg = load_preset("paper_fig5")
        table = run(cfg)

        garbled_runs = []

        def garbled(*args, **kwargs):  # the batched solve that run calls
            garbled_runs.append(True)
            ratios, reports = converged_field_ratio_vectors(*args, **kwargs)
            return ratios, [QuadratureReport((1, 1), -1, math.nan)] * len(reports)

        monkeypatch.setattr(runner, "converged_field_ratio_vectors", garbled)
        for fmt in ("csv", "jsonl", "gnuplot"):
            plain = export(table, fmt, tmp_path / "plain" / fmt)
            other = export(run(cfg), fmt, tmp_path / "other" / fmt)
            assert [p.read_bytes() for p in plain] == [p.read_bytes() for p in other]
        assert len(garbled_runs) == 3

    def test_a_run_builds_a_handful_of_rules(self):
        # an uncached order-150 rule costs about 0.3 ms, half a warm desk solve; the start
        # orders are multiples of 4, and each check is 4 below its solve
        raw = minimal_config(outputs=["per_antenna_attenuation"])
        raw["scene"]["half_count"] = 4
        raw["target"].update(rotation_deg=20.0, positions_m=[
            [0.5 + 0.2 * i, 0.15 * (i % 9) - 0.6] for i in range(16)
        ])
        config = parse_scenario(json.dumps(raw))
        geometry.gauss_legendre.cache_clear()
        run(config)
        info = geometry.gauss_legendre.cache_info()
        assert info.currsize == info.misses <= 10
        # two lookups per run of grids of equal orders within one chunk, not per grid: the
        # 32 grids, two per position, are built in 9 chunks holding 19 such runs
        assert info.hits + info.misses == 2 * 19

    def test_doa_blocks_share_one_read_only_gamma_grid(self):
        cfg = load_preset("paper_fig5")  # three positions
        blocks = [b for b in run(cfg).blocks if b.quantity == "doa_excess_attenuation_db"]
        assert len(blocks) == len(cfg.positions) == 3
        assert all(b.index is blocks[0].index for b in blocks)
        assert not blocks[0].index.flags.writeable
        scene = cfg.scene()
        ratios = converged_field_ratio_vector(scene, cfg.target_at(*cfg.positions[0]),
                                              cfg.quadrature_rel_tol)[0]
        empty = boresight_steering(scene)
        spectrum = attenuation_spectrum_from_snapshots(
            empty, empty * ratios, cfg.spacing, scene.wavelength, cfg.n_fft
        )
        assert np.array_equal(blocks[0].index, np.degrees(spectrum.gamma_grid))

    def test_one_run_builds_the_doa_grid_once(self):
        cfg = load_preset("paper_fig5")  # three positions
        sensing.doa_grid.cache_clear()
        run(cfg)
        info = sensing.doa_grid.cache_info()
        # run's grid, then one per FFT call: the three positions' spectra come from one
        assert (info.misses, info.hits) == (1, 1)
        bins, gamma = sensing.doa_grid(cfg.spacing, cfg.scene().wavelength, cfg.n_fft)
        assert not bins.flags.writeable and not gamma.flags.writeable

    def test_array_factor_output(self):
        table = run(load_preset("paper_fig3"))
        half_lam = [b for b in table.blocks if b.quantity == "array_factor_db[da=0.5lam]"]
        assert len(half_lam) == 1
        assert half_lam[0].values.size == 719
        broadside = half_lam[0].values[np.argmin(np.abs(half_lam[0].index - 90.0))]
        assert broadside == pytest.approx(0.0, abs=1e-9)


class TestExport:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = load_preset("paper_fig4")
        for fmt in ("csv", "jsonl", "gnuplot"):
            a = export(run(cfg), fmt, tmp_path / f"a_{fmt}")
            b = export(run(cfg), fmt, tmp_path / f"b_{fmt}")
            assert [p.name for p in a] == [p.name for p in b]
            for pa, pb in zip(a, b):
                assert pa.read_bytes() == pb.read_bytes()

    def test_preset_exports_match_pinned_digests(self, tmp_path):
        # lines "<preset> <format> <file> <sha256>"; replace the file when bytes move on purpose
        pinned = (Path(__file__).parent / "export_digests.txt").read_text().splitlines()
        got = []
        presets = dict.fromkeys(("paper_fig3", "paper_fig4", "paper_fig5", "paper_fig6"),
                                ("csv", "jsonl", "gnuplot"))
        presets["knife_edge_validation"] = ("jsonl",)  # fig3-fig6 cover the other writers
        for preset, formats in presets.items():
            table = run(load_preset(preset))
            for fmt in formats:
                for path in export(table, fmt, tmp_path / preset / fmt):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    got.append(f"{preset} {fmt} {path.name} {digest}")
        changed = sorted(set(got) ^ set(pinned))
        assert got == pinned, "differing lines:\n" + "\n".join(changed)

    def test_rotated_wide_array_exports_match_pinned_digests(self, tmp_path):
        # a desk sweep off the presets' rotation 0 and M <= 2: the sheet turned,
        # 17 antennas, and positions at the desk's corners and on the line of sight
        raw = json.loads(preset_text("paper_fig4"))
        raw["scene"]["half_count"] = 8
        raw["target"]["rotation_deg"] = -23.5
        raw["target"]["positions_m"] = [[0.5, 1.2], [3.5, -1.2], [1.0, 0.0]]
        pinned = {
            ("csv", "doa_spectrum_x0.500_y1.200.csv"): "9bd431be79f4d24b28bcdad75933cdd22187cff0dd9265280a6ff2b08033c0b3",
            ("csv", "doa_spectrum_x1.000_y0.000.csv"): "4c72f5c5ebdadef3d54be6a5998229d808849d075761dbb706c28bb52f947563",
            ("csv", "doa_spectrum_x3.500_y-1.200.csv"): "83a1ef3c7a553c1019da6592bf82c9971f4894aad9f26b2cb13d7bf3d4ec0d8f",
            ("csv", "mean_attenuation.csv"): "9c7739e717cc21a4e219f89d4db5c75543045d0644bdc32a0d65b597001ff346",
            ("csv", "per_antenna_x0.500_y1.200.csv"): "340fa9514cd6f1bdd2e809b3dbd221168d9b8f298b305740318114166eb38b76",
            ("csv", "per_antenna_x1.000_y0.000.csv"): "33e9788998c203b8eb0bd7523e0c4a630c6729f1f5b6f37a2e7ac2f4618d59cf",
            ("csv", "per_antenna_x3.500_y-1.200.csv"): "1a63e197d17827afe0b1ef6332dcb2aab614a253023501253b51d5b03108ab9c",
            ("gnuplot", "doa_spectrum_x0.500_y1.200.dat"): "ff24be09dc8218cb1380b3cbc4a9e2c3c6b1d293c5fc618d5ea37c03448cc0c3",
            ("gnuplot", "doa_spectrum_x1.000_y0.000.dat"): "76d96c97f2b4ec665b7f1e91d7ffe57ab316e13120b7123518e1de8d8949342c",
            ("gnuplot", "doa_spectrum_x3.500_y-1.200.dat"): "4b04afef02515fa3a365a42011367e66af1620d9d5b1c939b03c64dc0e8bc91f",
            ("gnuplot", "mean_attenuation.dat"): "f6d0bc687dc850a3bbd30ca7ece9279a29548455cb02f75ca4e0ad31542e16c0",
            ("gnuplot", "per_antenna_x0.500_y1.200.dat"): "25b854f12112cd16c8d04809d4a06f99c837d97850ee83cc602f65a772329499",
            ("gnuplot", "per_antenna_x1.000_y0.000.dat"): "88b1c80950f2a94be7182a5444ed59d4bf09e9bb82d9fae76c0a15e7b55334ad",
            ("gnuplot", "per_antenna_x3.500_y-1.200.dat"): "4203e2287f8687396acdf317fdc1e6368bd4e0f583f446a90aaaeee0272f53af",
            ("jsonl", "results.jsonl"): "34f251828d8d62762ae4902e6c8dbaee964d64056470839cb45b9200d398e496",
        }
        table = run(parse_scenario(json.dumps(raw)))
        got = {
            (fmt, path.name): hashlib.sha256(path.read_bytes()).hexdigest()
            for fmt in ("csv", "gnuplot", "jsonl")
            for path in export(table, fmt, tmp_path / fmt)
        }
        assert got == pinned

    @pytest.mark.parametrize("fmt, sep", [("csv", ","), ("gnuplot", " ")])
    def test_each_line_spells_its_values_as_format_does(self, tmp_path, fmt, sep):
        special = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, 0.1, -2.5e-7]
        blocks = (
            runner.Block("curve", ("gamma_deg", "value_db"), "q", None, None,
                         np.array(special), np.array(special[::-1])),
            runner.Block("antennas", ("antenna_index", "value_db"), "q", 1.0, -0.0,
                         np.arange(-8, 0), np.array(special)),
            *(runner.Block("mean", ("x_m", "y_m", "value_db"), "q", x, y, None, np.array([v]))
              for x, y, v in [(0.5, -1.2, math.inf), (-0.0, 1e16, math.nan), (5e-324, 0.1, -0.0)]),
        )
        table = runner.ResultTable(blocks, "0123456789ab", "0.0")
        assert isinstance(blocks[1].index.tolist()[0], int)  # antenna indices stay Python ints
        for path in export(table, fmt, tmp_path):
            expected = []
            for b in blocks:
                if b.stem == path.stem:
                    lines = ([(b.x, b.y, *b.values.tolist())] if b.index is None
                             else zip(b.index.tolist(), b.values.tolist()))
                    expected += [sep.join(format(v, ".9g") for v in line) for line in lines]
            assert path.read_text().splitlines()[2:] == expected

    def test_csv_spectrum_header(self, tmp_path):
        paths = export(run(load_preset("paper_fig4")), "csv", tmp_path)
        spectrum = next(p for p in paths if p.name == "doa_spectrum_x1.000_y0.000.csv")
        lines = spectrum.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert "version=" in lines[0]
        assert lines[1] == "gamma_deg,excess_attenuation_db"
        assert len(lines) == 2 + 257

    def test_gnuplot_two_columns(self, tmp_path):
        paths = export(run(load_preset("paper_fig4")), "gnuplot", tmp_path)
        spectrum = next(p for p in paths if p.name == "doa_spectrum_x1.000_y0.000.dat")
        data_line = spectrum.read_text().splitlines()[2]
        assert len(data_line.split()) == 2

    @pytest.mark.parametrize("preset", ["paper_fig3", "paper_fig4"])
    def test_column_files_carry_the_jsonl_values(self, tmp_path, preset):
        table = run(load_preset(preset))
        expected: dict[str, list] = {}
        for line in export(table, "jsonl", tmp_path / "jsonl")[0].read_text().splitlines():
            r = json.loads(line)
            quantity = r["quantity"]
            position = f"x{r['x_m']:.3f}_y{r['y_m']:.3f}" if r["x_m"] is not None else ""
            if quantity == "mean_excess_attenuation_db":
                name, record = "mean_attenuation", (r["x_m"], r["y_m"], r["value"])
            elif quantity == "doa_excess_attenuation_db":
                name, record = f"doa_spectrum_{position}", (r["index"], r["value"])
            elif quantity == "excess_attenuation_antenna_db":
                name, record = f"per_antenna_{position}", (r["index"], r["value"])
            else:
                spacing = quantity.removeprefix("array_factor_db[da=").removesuffix("]")
                name, record = f"array_factor_da{spacing}", (r["index"], r["value"])
            expected.setdefault(name, []).append(tuple(float(v) for v in record))
        assert expected

        for fmt, sep in (("csv", ","), ("gnuplot", None)):
            paths = export(table, fmt, tmp_path / fmt)
            got = {
                p.stem: [
                    tuple(float(v) for v in line.split(sep))
                    for line in p.read_text().splitlines()[2:]
                ]
                for p in paths
            }
            assert got == expected

    def test_table_and_jsonl_export_stay_small(self, tmp_path):
        # two positions at n_fft = 2**16 export 131,084 values: a table of numpy
        # columns holds about 2 MB, and a writer that streams block by block adds
        # less than one block's strings
        raw = minimal_config(
            outputs=["doa_spectrum", "per_antenna_attenuation", "mean_attenuation"],
            processing={"n_fft": 2**16},
        )
        raw["target"]["positions_m"] = [[1.0, 0.0], [1.0, 0.25]]
        config = parse_scenario(json.dumps(raw))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = run(config)
            held = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            export(table, "jsonl", tmp_path)
            export_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(table.rows) == 2 * (2**16 - 1 + 5 + 1)  # bins inside (0, 180) deg
        assert held < 4e6
        assert export_peak < 16e6

    def test_jsonl_lines_spell_values_as_json_dumps(self, tmp_path):
        # the writer assembles each line by hand; json.dumps of the record is the reference
        # with the switch points of "%.9g" against repr: exponents 9, 16, -4, -5 and -308
        values = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 123456789012.0, 100.0, 0.1 + 0.2,
                  1e9, 999999999.5, 1e15, 1e16, 1e-4, 1e-5, 5e-324, 2.5e-308]
        table = runner.ResultTable(
            blocks=(
                runner.Block("s", ("gamma_deg", "v"), "q", None, None, np.array(values), np.array(values)),
                runner.Block("m", ("m",), "r", 1.0, -0.25, None, np.array([2.0])),
                runner.Block("a", ("i",), "p", 1.0, 0.1, np.arange(-1, 2), np.array(values[:3])),
            ),
            config_hash="abc",
            version="0.1.0",
        )
        nine = lambda v: float(format(v, ".9g"))
        expected = [
            json.dumps({
                "config_hash": "abc", "version": "0.1.0", "x_m": x, "y_m": y,
                "index": index if isinstance(index, (int, type(None))) else nine(index),
                "quantity": quantity, "value": nine(value), "units": "dB",
            })
            for x, y, index, quantity, value in records(table)
        ]
        assert export(table, "jsonl", tmp_path)[0].read_text().splitlines() == expected

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(value=EXPORT_FLOATS)
    def test_json_numbers_spell_any_float_as_json_dumps(self, value):
        assert runner._json_number(value) == json.dumps(float(format(value, ".9g")))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(table=column_tables(), write_bytes=st.sampled_from([1, 1000, runner._WRITE_BYTES]))
    def test_block_writer_matches_the_per_line_reference(self, table, write_bytes):
        with tempfile.TemporaryDirectory() as out, \
                mock.patch.object(runner, "_WRITE_BYTES", write_bytes):
            for fmt in ("csv", "gnuplot"):
                got = export(table, fmt, Path(out) / fmt)
                expected = reference_columns(table, fmt, Path(out) / f"reference_{fmt}")
                assert [p.name for p in got] == [p.name for p in expected]
                for path, reference in zip(got, expected):
                    assert path.read_bytes() == reference.read_bytes()

    @staticmethod
    def _long_table():
        # a DoA file of 4,095 lines writes in several calls, the mean file holds two blocks
        raw = minimal_config(
            outputs=["doa_spectrum", "per_antenna_attenuation", "mean_attenuation"],
            processing={"n_fft": 4096},
        )
        raw["target"]["positions_m"] = [[1.0, 0.0], [1.0, 0.25]]
        return run(parse_scenario(json.dumps(raw)))

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_short_writes_still_complete_every_file(self, tmp_path, monkeypatch, fmt):
        table = self._long_table()
        expected = export(table, fmt, tmp_path / "whole")
        write, sizes = os.write, []

        def seven_bytes(fd, data):
            sizes.append(write(fd, data[:7]))
            return sizes[-1]

        before = open_descriptors()
        monkeypatch.setattr(os, "write", seven_bytes)
        got = export(table, fmt, tmp_path / "short")
        monkeypatch.undo()
        assert open_descriptors() == before
        assert max(sizes) == 7 and sum(sizes) == sum(p.stat().st_size for p in expected)
        for path, reference in zip(got, expected):
            assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("fmt, files", [("csv", 3), ("jsonl", 1)])
    def test_a_full_disk_fails_the_export_and_leaks_no_descriptor(self, tmp_path, monkeypatch,
                                                                  fmt, files):
        table = self._long_table()
        open_file, write, opened = os.open, os.write, []

        def counted_open(*args, **kwargs):
            opened.append(open_file(*args, **kwargs))
            return opened[-1]

        def full_from_the_last_file(fd, data):
            if len(opened) >= files:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(fd, data)

        before = open_descriptors()
        monkeypatch.setattr(os, "open", counted_open)
        monkeypatch.setattr(os, "write", full_from_the_last_file)
        with pytest.raises(SimulationError, match="No space left on device"):
            export(table, fmt, tmp_path)
        monkeypatch.undo()
        assert len(opened) == files
        assert open_descriptors() == before

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            export(run(load_preset("paper_fig6")), "xml", tmp_path)


class TestCli:
    def test_simulate_preset(self, tmp_path, capsys):
        code = cli_main(["simulate", "paper_fig6", "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "mean_attenuation.csv").exists()
        assert capsys.readouterr().out.strip()

    def test_simulate_config_file(self, tmp_path):
        path = write_config(tmp_path, minimal_config())
        assert cli_main(["simulate", str(path), "--out", str(tmp_path / "o"), "--format", "jsonl"]) == 0
        assert (tmp_path / "o" / "results.jsonl").exists()

    def test_validate_ok(self, capsys):
        assert cli_main(["validate", "paper_fig4"]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_a_library_warning_prints_as_one_line(self, tmp_path, capsys, command):
        raw = minimal_config()
        raw["scene"]["spacing_wavelengths"] = 0.2
        args = [command, str(write_config(tmp_path, raw))]
        assert cli_main(args + (["--out", str(tmp_path / "o")] if command == "simulate" else [])) == 0
        assert capsys.readouterr().err == (
            f"warning: antenna spacing {0.2 * WAVELENGTH:.4g} m is <= lambda/4 "
            f"({WAVELENGTH / 4:.4g} m); the no-mutual-coupling assumption is violated\n"
        )

    def test_validate_prints_each_positions_start_grid(self, tmp_path, capsys):
        assert cli_main(["validate", "paper_fig6"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "OK: 3 position(s), outputs: doa_spectrum, per_antenna_attenuation, mean_attenuation",
            "at most 789 exported values, against a budget of 10,000,000",
            "position (1, -1): start orders 32 x 40, 640 folded nodes",
            "position (1, 0): start orders 20 x 40, 400 folded nodes",
            "position (1, 1): start orders 32 x 40, 640 folded nodes",
        ]
        # in the file's order; step lambda/20 doubles the rule's nodes before the rounding
        raw = minimal_config(processing={"quadrature_step_wavelengths": 0.05})
        raw["target"]["positions_m"] = [[1.0, 1.0], [1.0, 0.0]]
        assert cli_main(["validate", str(write_config(tmp_path, raw))]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            "position (1, 1): start orders 60 x 76, 2,280 folded nodes",
            "position (1, 0): start orders 36 x 80, 1,440 folded nodes",
        ]
        assert cli_main(["validate", "paper_fig3"]) == 0  # no sheet, no grids
        assert capsys.readouterr().out.splitlines() == [
            "OK: 0 position(s), outputs: array_factor",
            "at most 3,605 exported values, against a budget of 10,000,000",
        ]

    def test_validate_prints_the_exported_value_bound(self, tmp_path, capsys):
        # at half-wavelength spacing every bin is a DoA, so paper_fig4 exports its bound
        assert cli_main(["validate", "paper_fig4"]) == 0
        line = "at most 789 exported values, against a budget of 10,000,000"
        assert capsys.readouterr().out.splitlines()[1] == line
        assert len(run(load_preset("paper_fig4")).rows) == 789
        # the largest accepted run: nine positions x (2**20 bins + 5 antennas + the mean)
        raw = minimal_config(outputs=["doa_spectrum", "per_antenna_attenuation", "mean_attenuation"],
                             processing={"n_fft": 2**20})
        raw["target"]["positions_m"] = [[1.0, 0.1 * k] for k in range(9)]
        assert cli_main(["validate", str(write_config(tmp_path, raw))]) == 0
        line = "at most 9,437,238 exported values, against a budget of 10,000,000"
        assert capsys.readouterr().out.splitlines()[1] == line

    def test_validate_bad_config_exits_one(self, tmp_path, capsys):
        raw = minimal_config()
        raw["scene"]["spacing_wavelengths"] = -1.0
        path = write_config(tmp_path, raw)
        assert cli_main(["validate", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_config_exits_one(self, capsys):
        assert cli_main(["simulate", "no_such_preset"]) == 1
        assert "neither" in capsys.readouterr().err

    def test_presets_list(self, capsys):
        assert cli_main(["presets", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert list(PRESET_NAMES) == out

    def test_oracle_knife_edge(self, capsys):
        assert cli_main(["oracle", "knife-edge", "--nu-min", "0", "--nu-max", "1", "--step", "0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "nu,knife_edge_attenuation_db"
        assert len(lines) == 4
        assert float(lines[1].split(",")[1]) == pytest.approx(6.0206, abs=1e-3)

    @pytest.mark.parametrize("flags, named", [
        (["--step", "0"], "--step"),
        (["--step", "-0.1"], "--step"),
        (["--step", "nan"], "--step"),
        (["--step", "1e-300"], "points"),
        (["--nu-max", "inf"], "--nu-max"),
        (["--nu-min", "nan"], "--nu-min"),
        (["--nu-min=-1e308", "--nu-max=1e308"], "points"),
        (["--nu-min", "0", "--nu-max", "100000.1", "--step", "0.1"], "points"),
        (["--nu-min", "5", "--nu-max", "0"], "--nu-max"),
    ])
    def test_oracle_rejects_unprintable_ranges(self, capsys, monkeypatch, flags, named):
        def no_arange(*args, **kwargs):
            raise AssertionError("arange called on a rejected range")

        monkeypatch.setattr(np, "arange", no_arange)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["oracle", "knife-edge", *flags])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: arrayshadow oracle knife-edge [-h]")
        assert named in err

    def test_oracle_equal_bounds_print_one_row(self, capsys):
        assert cli_main(["oracle", "knife-edge", "--nu-min", "0", "--nu-max", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["0,6.02059991"]

    def test_cli_import_leaves_scipy_unloaded(self):
        # nor does parsing build a quadrature rule: the first solve fills the cache
        absent = "{'scipy', 'arrayshadow.oracles', 'concurrent.futures', 'numpy.polynomial'}"
        code = (
            "import sys, arrayshadow.cli\n"
            f"print(sorted({absent} & set(sys.modules)))\n"
            "from arrayshadow.geometry import gauss_legendre\n"
            "from arrayshadow.presets import PRESET_NAMES, load_preset\n"
            "for name in PRESET_NAMES:\n"
            "    load_preset(name)\n"
            f"print(sorted({absent} & set(sys.modules)), gauss_legendre.cache_info().currsize)\n"
        )
        src = str(Path(geometry.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.splitlines() == ["[]", "[] 0"]

    def test_simulate_leaves_scipy_unloaded(self, tmp_path):
        # scipy.special alone takes about 0.27 s to import; the Gauss-Legendre rule is in-house
        absent = "{'scipy', 'arrayshadow.oracles', 'numpy.polynomial'}"
        code = (
            "import sys, arrayshadow.cli\n"
            f"code = arrayshadow.cli.main(['simulate', 'paper_fig4', '--out', {str(tmp_path)!r}])\n"
            f"print(code, sorted({absent} & set(sys.modules)))\n"
        )
        src = str(Path(geometry.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.splitlines()[-1] == "0 []"
        assert len(list(tmp_path.glob("*.csv"))) == 7  # two per position and the means

    def test_oracle_without_scipy_names_the_extra(self):
        code = (
            "import sys; sys.modules['scipy'] = None; from arrayshadow.cli import main; "
            "sys.exit(main(['oracle', 'knife-edge']))"
        )
        src = str(Path(geometry.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert "arrayshadow[oracle]" in done.stderr

    def test_preset_text_round_trip(self):
        parsed = json.loads(preset_text("paper_fig5"))
        assert parsed["target"]["positions_m"] == [[1.0, -0.05], [1.0, 0.0], [1.0, 0.05]]
