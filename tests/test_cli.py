import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from plasmonq import cli
from plasmonq.cli import _ROWS, _emit, main
from plasmonq.fresnel import FresnelSingularityError
from plasmonq.fock_oracle import oracle_measurement
from plasmonq.metrology import (STATE_NAMES, ChannelEfficiencies, DegenerateOperatingPointError,
                                DivergenceError, MetrologyDomainError, ratio, signal_mean,
                                signal_std)
from plasmonq.quantum_states import (coherent_product, noon, squeezed_product, statistics, tmsv,
                                     twin_fock)

FAST_REFLECTANCE = ["reflectance", "--theta-min", "70", "--theta-max", "80",
                    "--theta-steps", "21"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_reflectance_schema_and_resonance_shift(capsys):
    code, out, _ = run_cli(capsys, "reflectance", "--theta-steps", "181")
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["n_analyte", "theta_deg", "reflectance"]
    assert len(rows) == 2 * 181
    dips = {}
    for n_label in ("1.39", "1.395"):
        curve = [(float(r["theta_deg"]), float(r["reflectance"]))
                 for r in rows if r["n_analyte"] == n_label]
        theta_min, r_min = min(curve, key=lambda tr: tr[1])
        interior = [tr for tr in curve[1:-1]]
        assert (theta_min, r_min) in interior, "dip must be interior"
        dips[n_label] = theta_min
    assert dips["1.39"] < dips["1.395"]


def test_reflectance_respects_explicit_curves(capsys):
    code, out, _ = run_cli(capsys, *FAST_REFLECTANCE, "--n-analyte", "1.36",
                           "--n-analyte", "1.40")
    assert code == 0
    labels = {row["n_analyte"] for row in parse_csv(out)}
    assert labels == {"1.36", "1.4"}


def test_index_sweep_minimum_has_flat_sensitivity(capsys):
    code, out, _ = run_cli(capsys, "index-sweep")
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["n_analyte", "reflectance", "sensitivity"]
    assert len(rows) == 1093
    reflectances = [float(r["reflectance"]) for r in rows]
    slopes = [abs(float(r["sensitivity"])) for r in rows]
    dip = reflectances.index(min(reflectances))
    assert min(reflectances) < 0.01
    assert 1.373 < float(rows[dip]["n_analyte"]) < 1.393
    assert slopes[dip] < 0.05 * max(slopes)


def test_index_sweep_single_point(capsys):
    code, out, _ = run_cli(capsys, "index-sweep", "--n-min", "1.39",
                           "--n-max", "1.39", "--n-steps", "1")
    assert code == 0
    assert len(parse_csv(out)) == 1


def test_inflection_rows_increase_with_angle(capsys):
    code, out, _ = run_cli(capsys, "inflection", "--theta-steps", "5")
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["theta_deg", "n_inf"]
    assert len(rows) == 5
    values = [float(r["n_inf"]) for r in rows]
    assert values == sorted(values)


def test_the_fd_step_does_not_move_the_operating_points(capsys):
    # the search solves for the root of the closed-form d2R/dn2; a central
    # difference over n +- h moved n_inf by up to 5.1e-3 at h = 1e-2
    outputs = []
    for step in ("1e-6", "4e-4", "2e-3", "1e-2"):
        code, out, err = run_cli(capsys, "inflection", "--fd-step", step)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert len(parse_csv(outputs[0])) == 361
    assert outputs[1:] == outputs[:1] * 3


def test_ratio_schema(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--n-steps", "7", "--state", "tmsv",
                           "--photons", "2")
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["n_analyte", "R"]
    assert len(rows) == 7


def test_per_arm_efficiencies_are_not_settings(tmp_path, capsys):
    # detection is balanced: --eta is the one efficiency setting
    with pytest.raises(SystemExit) as exit_info:
        main(["ratio", "--eta-a", "0.9"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --eta-a 0.9" in capsys.readouterr().err
    config = write_config(tmp_path, {"eta_a": 0.9})
    code, out, err = run_cli(capsys, "ratio", "--config", config)
    assert code == 2
    assert out == ""
    assert "unknown config key 'eta_a'" in err


def test_precision_default_state_trio(capsys):
    code, out, _ = run_cli(capsys, "precision", "--theta-min", "71",
                           "--theta-max", "75", "--theta-steps", "3")
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["theta_deg", "n_inf", "state", "N", "eta",
                             "delta_n", "slope", "noise"]
    assert len(rows) == 3 * 3
    assert {r["state"] for r in rows} == {"coherent", "twin-fock", "tmsv"}


def test_precision_single_state(capsys):
    code, out, _ = run_cli(capsys, "precision", "--theta-min", "73",
                           "--theta-max", "73", "--theta-steps", "1",
                           "--state", "twin-fock", "--photons", "2")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["state"] == "twin-fock"
    assert float(rows[0]["N"]) == 2.0


def test_json_fields_match_csv_headers(capsys):
    csv_code, csv_out, _ = run_cli(capsys, "inflection", "--theta-steps", "3")
    json_code, json_out, _ = run_cli(capsys, "inflection", "--theta-steps", "3",
                                     "--format", "json")
    assert csv_code == json_code == 0
    header = csv_out.splitlines()[0].split(",")
    records = json.loads(json_out)
    assert len(records) == 3
    assert all(list(record) == header for record in records)


def test_outputs_are_byte_identical(tmp_path, capsys):
    for fmt in ("csv", "json"):
        paths = [tmp_path / f"run{i}.{fmt}" for i in (1, 2)]
        for path in paths:
            code = main(["ratio", "--n-steps", "9", "--format", fmt,
                         "--out", str(path)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"theta": 73.0, "n_steps": 2, "n_min": 1.39,
                                  "n_max": 1.39}))
    _, out_73, _ = run_cli(capsys, "index-sweep", "--config", str(config))
    _, out_74, _ = run_cli(capsys, "index-sweep", "--config", str(config),
                           "--theta", "74")
    _, direct_74, _ = run_cli(capsys, "index-sweep", "--theta", "74",
                              "--n-min", "1.39", "--n-max", "1.39",
                              "--n-steps", "2")
    assert out_74 == direct_74
    assert out_74 != out_73


def test_degenerate_operating_point_is_an_error_line_not_a_traceback(capsys):
    code, out, err = run_cli(capsys, "precision", "--eta", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("plasmonq: error: mean signal is stationary")
    assert err.count("\n") == 1


@pytest.mark.parametrize("error", [FresnelSingularityError, DegenerateOperatingPointError,
                                   DivergenceError])
def test_typed_numerical_errors_exit_2(capsys, monkeypatch, error):
    def fail(args):
        raise error("planted")

    monkeypatch.setitem(cli._COMMANDS, "validate", fail)
    assert run_cli(capsys, "validate") == (2, "", "plasmonq: error: planted\n")


def test_an_untyped_arithmetic_error_is_not_hidden(monkeypatch):
    def fail(args):
        raise ZeroDivisionError("a bug")

    monkeypatch.setitem(cli._COMMANDS, "validate", fail)
    with pytest.raises(ZeroDivisionError):
        main(["validate"])


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"wavelenght": 810}))
    code, _, err = run_cli(capsys, "index-sweep", "--config", str(config))
    assert code == 2
    assert "wavelenght" in err


def test_malformed_config_is_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text("{not json")
    code, _, err = run_cli(capsys, "index-sweep", "--config", str(config))
    assert code == 2


def test_empty_theta_grid_is_a_config_error(capsys):
    code, _, err = run_cli(capsys, "reflectance", "--theta-steps", "0")
    assert code == 2
    assert "at least one point" in err


def test_unphysical_analyte_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, *FAST_REFLECTANCE, "--n-analyte", "1.6")
    assert code == 2
    assert "n_prism" in err


@pytest.mark.parametrize("argv", [
    ["reflectance", "--n-analyte", "1e-300"],
    ["ratio", "--n-min", "1e-300"],
    ["validate", "--n-min", "1e-300"],
])
def test_an_index_whose_square_underflows_is_one_error_line(capsys, argv):
    # before: NaN reflectances with exit 0 (reflectance, ratio) or a
    # passivity FAIL with exit 1 (validate)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "plasmonq: error: n_analyte=1e-300 is too small: its square underflows\n"


@pytest.mark.parametrize("command", ["index-sweep", "ratio", "precision"])
def test_an_index_range_past_the_prism_names_the_given_range(capsys, command):
    # 1.5665 and 1.55 are the midpoints of the grid and search ranges: the
    # error must name an index the user gave, not one made up from them
    code, out, err = run_cli(capsys, command, "--n-max", "1.8")
    assert code == 2
    assert out == ""
    assert "1.5665" not in err and "1.55 " not in err
    if command == "precision":
        assert "n_range (1.3, 1.8) must be ordered inside" in err
    else:
        assert "n_analyte=1.5109" in err


def test_dispersion_file_and_env_fallback(tmp_path, capsys, monkeypatch):
    table = "wavelength_nm,n,k\n700,0.16,4.0\n900,0.25,5.3\n"
    direct = tmp_path / "mygold.csv"
    direct.write_text(table)
    code, out_direct, _ = run_cli(capsys, *FAST_REFLECTANCE,
                                  "--dispersion", str(direct))
    assert code == 0

    monkeypatch.setenv("PLASMON_DISPERSION_DIR", str(tmp_path))
    code, out_env, _ = run_cli(capsys, *FAST_REFLECTANCE,
                               "--dispersion", "mygold.csv")
    assert code == 0
    assert out_env == out_direct


def test_missing_dispersion_is_a_config_error(capsys, monkeypatch):
    monkeypatch.delenv("PLASMON_DISPERSION_DIR", raising=False)
    code, _, err = run_cli(capsys, *FAST_REFLECTANCE, "--dispersion", "nope.csv")
    assert code == 2
    assert "not found" in err


def test_drude_lorentz_model_is_selectable(capsys):
    code, out, _ = run_cli(capsys, *FAST_REFLECTANCE, "--dispersion", "gold-dl")
    assert code == 0
    assert len(parse_csv(out)) == 2 * 21


def test_validate_passes_by_default(capsys):
    code, out, _ = run_cli(capsys, "validate")
    assert code == 0
    assert "all checks passed" in out
    assert out.count("ok  ") == 5


def test_validate_detects_injected_fault(capsys):
    code, out, _ = run_cli(capsys, "validate", "--inject-fault")
    assert code == 1
    assert "FAIL" in out


def test_validate_honours_out_and_format(tmp_path, capsys):
    text_path = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "validate", "--out", str(text_path))
    assert code == 0 and out == ""
    assert "all checks passed" in text_path.read_text()

    json_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "validate", "--inject-fault", "--format", "json",
                           "--out", str(json_path))
    assert code == 1 and out == ""
    records = json.loads(json_path.read_text())
    assert len(records) == 5
    assert all(list(r) == ["check", "max_deviation", "tolerance", "ok"] for r in records)
    assert [r["ok"] for r in records] == [True, True, False, True, True]
    for record in records:
        assert record["ok"] == (record["max_deviation"] <= record["tolerance"])


def _scalar_moment_check():
    """Check 1 of ``validate`` as it ran one (state, |r|, efficiencies) case per
    oracle call: its largest relative deviation."""
    states = [coherent_product(1.0), twin_fock(1), twin_fock(2), tmsv(1.0), noon(1),
              squeezed_product(0.5)]
    worst = 0.0
    for state in states:
        stats = statistics(state)
        for r2 in (0.05, 0.3, 0.5, 0.7, 0.95):
            for eta_a, eta_b in ((1.0, 1.0), (0.8, 0.8), (0.9, 0.6)):
                eff = ChannelEfficiencies(eta_a, eta_b)
                r_abs = math.sqrt(r2)
                brute = oracle_measurement(state, r_abs, eff)
                mean = signal_mean(r_abs, eff, stats.mean_a)
                std = signal_std(r_abs, eff, stats.mean_a, stats.q_mandel, stats.sigma)
                worst = max(worst,
                            abs(brute.mean - mean) / max(1.0, abs(mean)),
                            abs(brute.std - std) / max(1.0, std))
    return worst


def _scalar_ratio_check(seed, inject_fault):
    """Check 3 of ``validate`` as it ran one sample at a time: five scalar
    draws per sample, and a sample outside the ratio's domain skipped."""
    rng = np.random.default_rng(seed)
    rng.uniform(size=25)  # check 2 draws five cases of five values first
    fault = 1.0 + 1e-3 if inject_fault else 1.0
    worst = 0.0
    for _ in range(200):
        r_abs = rng.uniform(0.05, 0.95)
        eta = rng.uniform(0.1, 1.0)
        q = rng.uniform(-1.0, 3.0)
        sig = rng.uniform(0.0, 3.0)
        n = rng.uniform(0.5, 10.0)
        eff = ChannelEfficiencies(eta, eta)
        try:
            value = ratio(r_abs, eta, q, sig) / math.sqrt(fault)
        except MetrologyDomainError:
            continue
        lhs = value * signal_std(r_abs, eff, n, q, sig)
        rhs = signal_std(r_abs, eff, n, 0.0, 1.0)
        worst = max(worst, abs(lhs - rhs) / rhs)
    return worst


@pytest.mark.parametrize("fault", [[], ["--inject-fault"]])
def test_validate_array_checks_equal_the_scalar_loops(capsys, fault):
    """The moment and ratio checks run as array passes; their deviations are
    those of the per-case loops exactly, so the draws come in the same order
    and the same samples are skipped."""
    moments = _scalar_moment_check()
    for seed in range(10):
        code, out, _ = run_cli(capsys, "validate", "--seed", str(seed), "--format", "json",
                               *fault)
        assert code == (1 if fault else 0)
        records = {r["check"]: r["max_deviation"] for r in json.loads(out)}
        assert records["moment formulas vs Fock-space oracle"] == moments
        assert records["enhancement ratio vs moment formulas"] == _scalar_ratio_check(
            seed, bool(fault))


def test_module_invocation():
    result = subprocess.run(
        [sys.executable, "-m", "plasmonq", "inflection", "--theta-steps", "2"],
        capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("theta_deg,n_inf")


def write_config(tmp_path, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_curves_are_replaced_by_flags(tmp_path, capsys):
    config = write_config(tmp_path, {"n_analyte": [1.36, 1.37]})
    code, out, _ = run_cli(capsys, *FAST_REFLECTANCE, "--config", config,
                           "--n-analyte", "1.40")
    assert code == 0
    assert {row["n_analyte"] for row in parse_csv(out)} == {"1.4"}


def test_config_scalar_analyte_gives_one_curve(tmp_path, capsys):
    config = write_config(tmp_path, {"n_analyte": 1.36})
    code, out, _ = run_cli(capsys, *FAST_REFLECTANCE, "--config", config)
    assert code == 0
    rows = parse_csv(out)
    assert {row["n_analyte"] for row in rows} == {"1.36"}
    assert len(rows) == 21


def test_config_value_of_wrong_type_is_rejected(tmp_path, capsys):
    # a value is converted from its JSON text, like the flag's argument:
    # --theta-steps 3.9 and --photons true exit 2 as well
    for key, value in (("theta_steps", "many"), ("theta_steps", 3.9), ("photons", True)):
        config = write_config(tmp_path, {key: value})
        code, out, err = run_cli(capsys, "index-sweep", "--config", config)
        assert code == 2
        assert out == ""
        assert key in err


@pytest.mark.parametrize("argv,doc,message", [
    (["--config", "absent.json"], None, "config file not found"),
    (["--config", "run.json"], [1.39], "config file run.json must hold a JSON object"),
    (["--config", "run.json"], {"format": "xml"}, "format must be csv or json"),
    (["--photons", "0"], None, "photons must be positive"),
    (["--eta", "1.5"], None, "eta must lie in [0, 1]"),
    (["--grid-points", "2"], None, "grid_points must be at least 3"),
    (["--fd-step", "0"], None, "fd_step must be positive"),
    (["--dispersion", "absent.csv"], None, "dispersion table not found: absent.csv (also tried"),
    (["--fd-step", "nan"], None, "fd_step must be positive and finite, got nan"),
    (["--fd-step", "inf"], None, "fd_step must be positive and finite, got inf"),
    (["--config", "run.json"], {"fd_step": math.nan}, "fd_step must be positive and finite"),
    (["--config", "run.json"], {"fd_step": "inf"}, "fd_step must be positive and finite"),
    (["--seed", "-1"], None, "seed must be a non-negative integer, got -1"),
    (["--config", "run.json"], {"seed": -1}, "seed must be a non-negative integer, got -1"),
])
def test_an_input_error_is_one_line_naming_the_setting(tmp_path, capsys, monkeypatch,
                                                        argv, doc, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PLASMON_DISPERSION_DIR", str(tmp_path))
    if doc is not None:
        write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, *FAST_REFLECTANCE, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"plasmonq: error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["reflectance", "--n-prism", "inf"], "n_prism must be finite"),
    (["ratio", "--photons", "inf"], "n_photons must be finite, got inf"),
    (["precision", "--photons", "inf"], "n_photons must be finite, got inf"),
])
def test_a_non_finite_input_is_one_error_line(capsys, argv, message):
    # before: reflectance printed nan in every cell and exited 0, and ratio
    # and precision ended in an OverflowError traceback from int(inf)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"plasmonq: error: {message}\n")


INFLECTION_AT_65_5 = ["inflection", "--theta-min", "65.5", "--theta-max", "65.5",
                      "--theta-steps", "1"]


def test_inflection_search_floor_defaults_below_grid_floor(capsys):
    code, out, _ = run_cli(capsys, *INFLECTION_AT_65_5)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["n_inf"]) == pytest.approx(1.32138, abs=1e-5)


def test_explicit_n_min_is_the_search_floor(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run_cli(capsys, *INFLECTION_AT_65_5, "--n-min", "1.333")
    assert code == 0
    assert out == "theta_deg,n_inf\n"
    messages = [str(w.message) for w in caught]
    assert sum("skipped" in m for m in messages) == 1
    assert sum("no angle produced a row (1 tried)" in m for m in messages) == 1


def test_search_bounds_are_checked_against_the_search_floor(capsys):
    # [1.30, 1.32] is a valid search range though 1.32 is under the grid floor
    code, out, _ = run_cli(capsys, "inflection", "--n-max", "1.32", "--theta-min", "64",
                           "--theta-max", "65", "--theta-steps", "2")
    assert code == 0
    assert [float(row["theta_deg"]) for row in parse_csv(out)] == [64.0, 65.0]
    assert all(1.30 < float(row["n_inf"]) < 1.32 for row in parse_csv(out))


def test_grid_bounds_are_checked_against_the_grid_floor(capsys):
    code, out, err = run_cli(capsys, "index-sweep", "--n-max", "1.32")
    assert code == 2
    assert out == ""
    assert "grid bounds are reversed" in err


def test_config_state_replaces_the_precision_trio(tmp_path, capsys):
    config = write_config(tmp_path, {"state": "TMSV"})
    code, out, _ = run_cli(capsys, "precision", "--theta-min", "71",
                           "--theta-max", "75", "--theta-steps", "3",
                           "--config", config)
    assert code == 0
    rows = parse_csv(out)
    assert [row["state"] for row in rows] == ["tmsv"] * 3
    assert [float(row["theta_deg"]) for row in rows] == [71.0, 73.0, 75.0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_state_labels_are_canonical_family_names(tmp_path, capsys, fmt):
    argv = ["precision", "--theta-min", "71", "--theta-max", "75", "--theta-steps", "3",
            "--format", fmt]
    config = write_config(tmp_path, {"state": "TMSV"})
    code, from_file, _ = run_cli(capsys, *argv, "--config", config)
    assert code == 0
    code, from_flag, _ = run_cli(capsys, *argv, "--state", "tmsv")
    assert code == 0
    assert from_file == from_flag
    code, alias, _ = run_cli(capsys, *argv, "--state", "squeezed-product")
    assert code == 0
    code, family, _ = run_cli(capsys, *argv, "--state", "squeezed")
    assert code == 0
    assert alias == family


def test_config_analyte_of_wrong_type_is_rejected(tmp_path, capsys):
    config = write_config(tmp_path, {"n_analyte": None})
    code, out, err = run_cli(capsys, *FAST_REFLECTANCE, "--config", config)
    assert code == 2
    assert out == ""
    assert "n_analyte" in err


@pytest.mark.parametrize("key", ["inject_fault", "config"])
def test_flag_only_settings_are_not_config_keys(tmp_path, capsys, key):
    config = write_config(tmp_path, {key: True})
    code, _, err = run_cli(capsys, "validate", "--config", config)
    assert code == 2
    assert f"unknown config key {key!r}" in err


def test_squeezed_is_a_state_name(capsys):
    outputs = [run_cli(capsys, "ratio", "--n-steps", "5", "--state", name)
               for name in ("squeezed", "squeezed-product")]
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1]


ALL_ANGLES_DROPPED = ["--theta-min", "40", "--theta-max", "41", "--theta-steps", "3"]


@pytest.mark.parametrize("command", ["inflection", "precision"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_sweep_that_drops_every_angle_says_so(capsys, command, fmt):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run_cli(capsys, command, *ALL_ANGLES_DROPPED, "--format", fmt)
    assert code == 0
    messages = [str(w.message) for w in caught]
    # one warning per angle names it as skipped; the notice must not, or
    # counting "skipped" warnings would count it as one more angle
    assert sum("skipped" in m for m in messages) == 3
    notices = [m for m in messages if "no angle produced a row (3 tried)" in m]
    assert len(notices) == 1
    assert "skipped" not in notices[0]
    if fmt == "csv":
        assert out.count("\n") == 1 and out.startswith("theta_deg,n_inf")
        assert "only the header" in notices[0]
    else:
        assert json.loads(out) == []


def test_a_sweep_with_rows_gives_no_empty_output_notice(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run_cli(capsys, *INFLECTION_AT_65_5)
    assert code == 0
    assert not [w for w in caught if "produced a row" in str(w.message)]


# Every kind of value a command writes: rounding-sensitive and extreme floats,
# signed zero, non-finite floats, Python ints, bools and every state name.
EMIT_FLOATS = [0.1 + 0.2, 5e-324, 1e300, -0.0, math.nan, math.inf, -math.inf,
               -69.9695052537308, 1.3847878772060647]
EMIT_INTS = [0, 1, -7, 2**70]


def _reference_csv(fieldnames, rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _reference_json(fieldnames, rows):
    def jsonable(value):
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value

    records = [{k: jsonable(row[k]) for k in fieldnames} for row in rows]
    return json.dumps(records, indent=2, allow_nan=False) + "\n"


# Row counts around the edges of the chunks that CSV is written in.
EMIT_SIZES = [0, 1, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 1]
# Values of a float64 array column, the kind a computed column holds.
ARRAY_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1 + 0.2, 1e300,
                -69.9695052537308]


def _plain_rows(columns):
    values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*values)]


@pytest.mark.parametrize("size", EMIT_SIZES)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_matches_the_per_row_writers(capsys, fmt, size):
    """List columns, whose objects repeat within and across chunks, and float64
    array columns, mixed, at row counts around the chunk edges."""
    def cycle(values):
        return [values[i % len(values)] for i in range(size)]

    angles = [float(i) / 7.0 for i in range(_ROWS + 3)]  # repeats _ROWS + 3 rows apart
    columns = {"value": cycle(EMIT_FLOATS), "count": cycle(EMIT_INTS),
               "state": cycle(STATE_NAMES), "ok": cycle([True, False]),
               "angle": cycle(angles), "fresh": [i / 3.0 for i in range(size)],
               "special": np.array(cycle(ARRAY_FLOATS)),
               "grid": np.linspace(1.333, 1.4422, size)}
    reference = _reference_csv if fmt == "csv" else _reference_json
    _emit(argparse.Namespace(format=fmt, out="-"), columns)
    assert capsys.readouterr().out == reference(list(columns), _plain_rows(columns))


@pytest.mark.parametrize("repeats", [1, _ROWS // 3 + 1])
def test_emit_formats_each_cell_as_str_does(capsys, repeats):
    """CSV cells equal ``str`` of each value even where one object fills many
    cells, in one chunk or several: equal values that print differently (0.0
    and -0.0, 2 and 2.0) or that are distinct objects stay apart.  The JSON
    text is unchanged."""
    shared, twin = 1.3847878755107959, float("1.3847878755107959")
    assert shared is not twin
    columns = {
        "shared": [shared, twin, shared, shared, twin, 0.1 + 0.2] * repeats,
        "zeros": [0.0, -0.0, 0.0, -0.0, -0.0, 0.0] * repeats,
        "two": [2, 2.0, 2, 2.0, True, 1] * repeats,
        "special": [math.nan, math.inf, float("nan"), math.nan, -math.inf, math.inf] * repeats,
        "label": ["tmsv", "tmsv", "coherent", "tmsv", "tmsv", "coherent"] * repeats,
        "distinct": [float(i) / 7.0 for i in range(6 * repeats)],
        "array": np.array([-0.0, 0.0, 5e-324, math.nan, -math.inf, 0.5] * repeats),
    }
    rows = _plain_rows(columns)
    plain = "\n".join([",".join(columns), *(",".join(map(str, row.values())) for row in rows),
                       ""])
    _emit(argparse.Namespace(format="csv", out="-"), columns)
    out = capsys.readouterr().out
    assert out == plain == _reference_csv(list(columns), rows)
    assert out.splitlines()[1:3] == ["1.3847878755107959,0.0,2,nan,tmsv,0.0,-0.0",
                                     "1.3847878755107959,-0.0,2.0,inf,tmsv,0.14285714285714285,0.0"]
    _emit(argparse.Namespace(format="json", out="-"), columns)
    assert capsys.readouterr().out == _reference_json(list(columns), rows)


def test_an_array_column_prints_its_own_values(capsys):
    """Iterating an array makes a temporary object per value, and their ids are
    reused, so telling an array's cells apart by ``id`` would print one value
    in another's cell."""
    values = np.arange(2 * _ROWS + 1) / 7.0
    _emit(argparse.Namespace(format="csv", out="-"), {"x": values, "y": -values})
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["x,y", *(f"{x},{-x}" for x in values.tolist())]


@pytest.mark.parametrize("out", ["-", "file"])
def test_columns_of_unequal_lengths_write_nothing(tmp_path, capsys, out):
    path = tmp_path / "out.csv"
    args = argparse.Namespace(format="csv", out="-" if out == "-" else str(path))
    with pytest.raises(ValueError, match="unequal lengths"):
        _emit(args, {"a": [1.0, 2.0], "b": np.zeros(_ROWS + 1)})
    assert capsys.readouterr().out == "" and not path.exists()


OUT_ARGVS = [FAST_REFLECTANCE, ["index-sweep", "--n-steps", str(2 * _ROWS + 1)],
             ["inflection", "--theta-steps", "4"], ["ratio", "--n-steps", "9"],
             ["precision", "--theta-steps", "4"], ["validate"]]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", OUT_ARGVS, ids=[argv[0] for argv in OUT_ARGVS])
def test_out_file_holds_the_bytes_of_stdout(tmp_path, capsys, argv, fmt):
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    path = tmp_path / "out"
    assert main([*argv, "--format", fmt, "--out", str(path)]) == code == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()


def _traced_emit_mb(args, columns) -> float:
    """The tracemalloc peak of ``_emit`` in MB, above the memory live before it."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _emit(args, columns)
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_csv_output_holds_no_table_of_text(tmp_path):
    """Writing a 50,000-row table of three float64 columns to a file holds one
    chunk of text at a time, not the table's 3 MB of text (8.1 MB as lists)."""
    rows = 50_000
    grid = np.linspace(1.333, 1.4422, rows)
    columns = {"n_analyte": grid, "reflectance": np.sin(grid), "sensitivity": np.cos(grid)}
    args = argparse.Namespace(format="csv", out=str(tmp_path / "sweep.csv"))
    _emit(args, {name: column[:3] for name, column in columns.items()})  # warm up
    assert _traced_emit_mb(args, columns) < 0.5
    with open(args.out, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == rows + 1


HELP_LINES = {
    "reflectance": "reflectance vs incidence angle, one curve per analyte index",
    "index-sweep": "reflectance and its index-derivative vs analyte index",
    "inflection": "steepest-flank analyte index vs incidence angle",
    "ratio": "quantum-enhancement ratio vs analyte index",
    "precision": "index precision at the steepest flank vs incidence angle",
    "validate": "cross-check closed forms against brute-force oracles",
}


def test_settings_do_not_leak_between_calls(tmp_path, capsys):
    index_sweep = ["index-sweep", "--n-steps", "5"]
    script = ("from plasmonq.cli import main; "
              f"main({FAST_REFLECTANCE!r}); main({index_sweep!r})")
    fresh = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, check=True).stdout
    config = write_config(tmp_path, {"theta": 74.0, "n_analyte": [1.36, 1.37]})
    for argv in (["--config", config], ["--n-analyte", "1.4", "--dispersion", "gold-dl"]):
        for command in (FAST_REFLECTANCE, index_sweep):
            assert run_cli(capsys, *command, *argv)[0] == 0
    outputs = [run_cli(capsys, *command) for command in (FAST_REFLECTANCE, index_sweep)]
    assert [code for code, _, _ in outputs] == [0, 0]
    assert "".join(out for _, out, _ in outputs) == fresh


def test_help_lists_every_command_with_its_sentence(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one help sentence per line
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(HELP_LINES) + "}" in out
    for name, sentence in HELP_LINES.items():
        assert any(line.split() == [name, *sentence.split()] for line in out.splitlines())


def test_help_sentences_survive_stripped_docstrings():
    # python -OO drops every docstring; the help sentences must not be ones
    result = subprocess.run([sys.executable, "-OO", "-m", "plasmonq", "--help"],
                            capture_output=True, text=True, check=True,
                            env={**os.environ, "COLUMNS": "200"})
    lines = result.stdout.splitlines()
    for name, sentence in HELP_LINES.items():
        assert any(line.split() == [name, *sentence.split()] for line in lines)


@pytest.mark.parametrize("command", list(HELP_LINES))
def test_an_overflowing_prism_wave_vector_is_one_error_line(capsys, command):
    # before: inflection and precision at --n-prism 1e300 ended in an
    # OverflowError traceback, and the other commands printed nan rows at 1e160
    for setting in (["--n-prism", "1e300"], ["--n-prism", "1e160"],
                    ["--wavelength", "1e-310"]):
        code, out, err = run_cli(capsys, command, *setting, "--theta-steps", "3",
                                 "--n-steps", "3")
        assert (code, out) == (2, "")
        assert err.startswith("plasmonq: error: n_prism=")
        assert "overflows n_prism**2 or (2 pi n_prism / wavelength_nm)**2" in err
        assert err.count("\n") == 1


def test_only_validate_takes_inject_fault(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["validate", "--help"])
    assert exit_info.value.code == 0
    assert "--inject-fault" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        main(["ratio", "--inject-fault"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --inject-fault" in capsys.readouterr().err
