import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from arrayshadow import geometry
from arrayshadow.cli import main as cli_main
from arrayshadow.presets import PRESET_NAMES, load_preset, preset_text
from arrayshadow.runner import (
    ScenarioError,
    SimulationError,
    export,
    load_scenario,
    parse_scenario,
    run,
    with_seed,
)
from conftest import WAVELENGTH


def minimal_config(**overrides):
    cfg = {
        "scene": {
            "carrier_frequency_hz": 2.4868e9,
            "central_distance_m": 4.0,
            "half_count": 2,
            "spacing_wavelengths": 0.5,
            "link_height_m": 0.9,
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


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


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
        assert cfg.noise_std == 0.0
        assert cfg.seed is None
        assert cfg.target_rotation == 0.0
        assert cfg.quadrature_step == pytest.approx(WAVELENGTH / 10, rel=1e-12)

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

    def test_both_spacing_keys_rejected(self, tmp_path):
        raw = minimal_config()
        raw["scene"]["spacing_m"] = 0.06
        with pytest.raises(ScenarioError, match="not both"):
            load_scenario(write_config(tmp_path, raw))

    def test_positions_required_for_attenuation_outputs(self, tmp_path):
        raw = minimal_config()
        raw["target"]["positions_m"] = []
        with pytest.raises(ScenarioError, match="positions"):
            load_scenario(write_config(tmp_path, raw))

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
        ("noise_std", "noise"),
        ("outputs", "outptus"),
        ("scene", "scnee"),
    ])
    def test_unknown_keys_rejected(self, tmp_path, capsys, key, typo):
        raw = minimal_config(processing={"quadrature_rel_tol": 1e-4, "noise_std": 0.0})
        text = json.dumps(raw).replace(f'"{key}"', f'"{typo}"')
        with pytest.raises(ScenarioError, match=f"unknown key '{typo}'"):
            parse_scenario(text)
        path = tmp_path / "scenario.json"
        path.write_text(text)
        assert cli_main(["validate", str(path)]) == 1
        assert "error" in capsys.readouterr().err

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

    @pytest.mark.parametrize("second", [[1.0004, 0.0], [1.0, 0.0]])
    def test_positions_sharing_a_file_name_rejected(self, tmp_path, second):
        raw = minimal_config()
        raw["target"]["positions_m"] = [[1.0, 0.0], [1.0, 0.5], second]
        with pytest.raises(ScenarioError, match=r"positions_m\[0\] and \[2\]"):
            load_scenario(write_config(tmp_path, raw))

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
        # 0.1 * lambda is one ulp above lambda / 10 at 3 and 5.8 GHz
        for fc in (2.4868e9, 3e9, 5.8e9):
            raw = minimal_config(processing={"quadrature_step_wavelengths": 0.1})
            raw["scene"]["carrier_frequency_hz"] = fc
            parse_scenario(json.dumps(raw))
        for processing in ({"quadrature_step_wavelengths": 0.5}, {"quadrature_step_m": 0.05}):
            raw = minimal_config(processing=processing)
            with pytest.raises(ScenarioError, match="quadrature_step must not exceed"):
                parse_scenario(json.dumps(raw))
            assert cli_main(["validate", str(write_config(tmp_path, raw))]) == 1
            assert "error" in capsys.readouterr().err

    def test_array_factor_only_needs_no_target(self):
        cfg = load_preset("paper_fig3")
        assert cfg.positions == ()
        assert cfg.outputs == ("array_factor",)
        assert len(cfg.array_factor_spacings) == 5


class TestRun:
    def test_fig4_rows(self):
        table = run(load_preset("paper_fig4"))
        quantities = {row.quantity for row in table.rows}
        assert "excess_attenuation_antenna_db" in quantities
        assert "mean_excess_attenuation_db" in quantities
        assert "doa_excess_attenuation_db" in quantities
        per_antenna = [r for r in table.rows if r.quantity == "excess_attenuation_antenna_db"]
        assert len(per_antenna) == 3 * 5
        spectra = [r for r in table.rows if r.quantity == "doa_excess_attenuation_db"]
        # at half-wavelength spacing every one of the 257 bins maps inside (0, pi)
        assert len(spectra) == 3 * 257

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
            rows_single.extend(run(cfg).rows)

        strip = lambda rows: sorted(
            (r.x, r.y, float("-inf") if r.index is None else r.index,
             r.quantity, r.value)
            for r in rows
        )
        assert strip(table_both.rows) == strip(rows_single)

    def test_rows_come_in_export_order(self):
        rows = run(load_preset("paper_fig4")).rows
        assert list(rows) == sorted(rows, key=lambda r: (
            r.x, r.y, r.quantity, r.index is not None, r.index or 0,
        ))
        raw = minimal_config(
            outputs=["array_factor"], array_factor={"spacings_wavelengths": [0.5, 0.1]}
        )
        quantities = dict.fromkeys(r.quantity for r in run(parse_scenario(json.dumps(raw))).rows)
        assert list(quantities) == ["array_factor_db[da=0.5lam]", "array_factor_db[da=0.1lam]"]

    @pytest.mark.parametrize("processing, budget, message", [
        ({}, 1_000, "exceeds the budget"),
        ({"quadrature_rel_tol": 1e-4}, 30_000, "relative change .* against rel_tol 0.0001"),
    ], ids=["fixed_grid", "converged"])
    def test_node_budget_fails_cleanly(
        self, tmp_path, capsys, monkeypatch, processing, budget, message
    ):
        # lambda/10 desk grid: 6,900 nodes; lambda/20: 27,600; lambda/40: 110,400
        monkeypatch.setattr(geometry, "MAX_GRID_NODES", budget)
        path = write_config(tmp_path, minimal_config(processing=processing))
        with pytest.raises(SimulationError, match=rf"position \(1, 0\): .*{message}"):
            run(load_scenario(path))
        assert cli_main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "budget" in capsys.readouterr().err

    def test_jobs_do_not_change_rows(self):
        cfg = load_preset("paper_fig6")
        assert run(cfg, jobs=3).rows == run(cfg, jobs=1).rows

    def test_position_context_on_failure(self, tmp_path):
        raw = minimal_config()
        # odd cell counts put a grid node exactly on the transmitter
        raw["target"]["positions_m"] = [[0.0, 0.0]]
        raw["target"]["half_width_m"] = 0.5
        raw["target"]["half_height_m"] = 0.5
        cfg = load_scenario(write_config(tmp_path, raw))
        with pytest.raises(Exception, match=r"position \(0, 0\)"):
            run(cfg)

    def test_array_factor_output(self):
        table = run(load_preset("paper_fig3"))
        half_lam = [r for r in table.rows if r.quantity == "array_factor_db[da=0.5lam]"]
        assert len(half_lam) == 719
        broadside = min(half_lam, key=lambda r: abs(r.index - 90.0))
        assert broadside.value == pytest.approx(0.0, abs=1e-9)


class TestExport:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = load_preset("paper_fig4")
        for fmt in ("csv", "jsonl", "gnuplot"):
            a = export(run(cfg), fmt, tmp_path / f"a_{fmt}")
            b = export(run(cfg), fmt, tmp_path / f"b_{fmt}")
            assert [p.name for p in a] == [p.name for p in b]
            for pa, pb in zip(a, b):
                assert pa.read_bytes() == pb.read_bytes()

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

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            export(run(load_preset("paper_fig6")), "xml", tmp_path)

    def test_seed_override_changes_hash_only(self):
        cfg = load_preset("paper_fig4")
        reseeded = with_seed(cfg, 7)
        assert reseeded.seed == 7
        assert reseeded.config_hash() != cfg.config_hash()


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

    def test_preset_text_round_trip(self):
        parsed = json.loads(preset_text("paper_fig5"))
        assert parsed["target"]["positions_m"] == [[1.0, -0.05], [1.0, 0.0], [1.0, 0.05]]
