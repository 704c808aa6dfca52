"""Tests for the command-line interface: output shapes, configuration
precedence, exit codes, and byte-level determinism."""
from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import fock_toeplitz
from fock_toeplitz import (
    DomainError,
    NonFiniteResultError,
    algebra,
    calculus,
    cli,
    composition,
    fock,
    quadrature,
)
from fock_toeplitz.cli import ENV_TOL, main, parse_complex, render_json

CONST = '{"kind": "radial_monomial", "m": 0}'
R2 = '{"kind": "radial_monomial", "m": 1}'
EXAMPLE = '{"kind": "radial_exponential", "lambda": {"re": 0.4, "im": 0.8}}'
NON_RADIAL = '{"kind": "poly", "terms": [{"j": 1, "k": 0, "c": 1.0}]}'
R400 = '{"kind": "radial_monomial", "m": 200}'


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRendering:
    def test_floats_use_17_significant_digits(self):
        assert render_json({"x": 0.1}) == '{"x":0.10000000000000001}'

    def test_scalar_types(self):
        text = render_json({"a": None, "b": True, "c": 3, "d": [1.5, "s"]})
        assert text == '{"a":null,"b":true,"c":3,"d":[1.5,"s"]}'

    def test_numpy_scalars_render_as_python_numbers(self):
        # numpy's scalar types reach the renderer through the numbers ABCs
        values = [np.int64(3), np.uint8(7), np.float32(0.5), np.float64(0.1), np.longdouble(2)]
        assert render_json(values) == "[3,7,0.5,0.10000000000000001,2]"
        with pytest.raises(TypeError):
            render_json([np.bool_(True)])

    def test_insertion_order_is_preserved(self):
        assert render_json({"z": 1, "a": 2}) == '{"z":1,"a":2}'

    def test_complex_scalar_parsing(self):
        assert parse_complex("1.28+0.96i") == 1.28 + 0.96j
        assert parse_complex(" 3 ") == 3.0 + 0.0j
        assert parse_complex("-2i") == -2.0j


class TestGammaCommand:
    def test_json_output(self, capsys):
        code, out, err = run_cli(capsys, "gamma", "--symbol", R2, "-N", "6")
        assert code == 0 and err == ""
        payload = json.loads(out)
        values = [e["gamma"]["re"] for e in payload["entries"]]
        np.testing.assert_allclose(values, np.arange(1.0, 7.0), rtol=1e-12)
        assert payload["unreliable"] == []

    def test_quadrature_method_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "gamma", "--symbol", EXAMPLE, "-N", "8", "--method", "quadrature"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "quadrature"
        mods = [abs(complex(e["gamma"]["re"], e["gamma"]["im"])) for e in payload["entries"]]
        np.testing.assert_allclose(mods, np.ones(8), rtol=1e-10)

    def test_auto_method_prints_the_closed_bytes(self, capsys):
        outputs = [
            run_cli(capsys, "gamma", "--symbol", EXAMPLE, "-N", "9", "--method", method)
            for method in ("auto", "closed")
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--symbol", CONST, "-N", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,re,im,abs_err"
        assert len(lines) == 4
        assert lines[1].startswith("0,1,0,")

    def test_symbol_from_file(self, capsys, tmp_path):
        path = tmp_path / "symbol.json"
        path.write_text(R2, encoding="utf-8")
        code, out, _ = run_cli(capsys, "gamma", "--symbol", f"@{path}", "-N", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"][3]["gamma"]["re"] == pytest.approx(4.0)


class TestMatrixCommand:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--symbol", R2, "-N", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 4
        assert len(payload["entries"]) == 16
        diag = [payload["entries"][i * 4 + i][0] for i in range(4)]
        np.testing.assert_allclose(diag, [1.0, 2.0, 3.0, 4.0], rtol=1e-12)

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--symbol", CONST, "-N", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,n,re,im"
        assert len(lines) == 10

    def test_truncation_above_the_dense_limit_is_refused(self, capsys):
        # refused before the 40000 x 40000 complex matrix (about 25 GB) exists
        code, out, err = run_cli(capsys, "matrix", "--symbol", R2, "-N", "40000")
        assert code == 2
        assert out == ""
        assert f"MAX_DENSE_TRUNCATION = {cli.MAX_DENSE_TRUNCATION}" in err

    def test_overflowing_entries_are_accuracy_error(self):
        symbol = '{"kind": "poly", "terms": [{"j": 300, "k": 0, "c": {"re": 1, "im": 0}}]}'
        command = [sys.executable, "-m", "fock_toeplitz.cli", "matrix", "-N", "1024"]
        proc = subprocess.run([*command, "--symbol", symbol], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (3, "")
        # the message names the term, and no RuntimeWarning reaches stderr
        assert proc.stderr == (
            "accuracy error: matrix entries overflow float64 at the term z^300*zbar^0\n"
        )

    def test_dense_limit_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_DENSE_TRUNCATION", 6)
        assert run_cli(capsys, "matrix", "--symbol", R2, "-N", "6")[0] == 0
        assert run_cli(capsys, "matrix", "--symbol", R2, "-N", "7")[0] == 2


class TestClassifyCommand:
    def test_circle_case(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--theta", "1.28+0.96i")
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "Case1"
        assert payload["margin"] == pytest.approx(0.28)

    def test_outside_case(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--theta", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "Case2"
        assert payload["margin"] == pytest.approx(3.0)

    def test_boundary_point_asserts_nothing(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--theta", "1+1i")
        assert code == 0
        assert json.loads(out)["case"] == "NoneAsserted"

    def test_tol_flag_widens_the_circle_band(self, capsys):
        theta = "1.3+0.96i"  # |θ|² − 2 Re θ = 0.0116
        _, out, _ = run_cli(capsys, "classify", "--theta", theta)
        assert json.loads(out)["case"] == "Case2"
        _, out, _ = run_cli(capsys, "classify", "--theta", theta, "--tol", "0.1")
        assert json.loads(out)["case"] == "Case1"

    @pytest.mark.parametrize(
        "argv", [["--theta", "-0.68+0.50i"], ["--theta=-0.68+0.50i"]]
    )
    def test_negative_theta_in_both_spellings(self, capsys, argv):
        code, out, err = run_cli(capsys, "classify", *argv)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["theta"] == {"re": -0.68, "im": 0.5}
        assert payload["case"] == "Case2"

    def test_env_tol_applies_when_no_flag(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_TOL, "0.1")
        _, out, _ = run_cli(capsys, "classify", "--theta", "1.3+0.96i")
        assert json.loads(out)["case"] == "Case1"

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_TOL, "0.1")
        _, out, _ = run_cli(capsys, "classify", "--theta", "1.3+0.96i", "--tol", "1e-9")
        assert json.loads(out)["case"] == "Case2"

    def test_config_beats_env(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_TOL, "1e-9")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tol": 0.1}', encoding="utf-8")
        _, out, _ = run_cli(
            capsys, "classify", "--theta", "1.3+0.96i", "--config", str(cfg)
        )
        assert json.loads(out)["case"] == "Case1"

    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tol": 0.1}', encoding="utf-8")
        _, out, _ = run_cli(
            capsys,
            "classify",
            "--theta",
            "1.3+0.96i",
            "--config",
            str(cfg),
            "--tol",
            "1e-9",
        )
        assert json.loads(out)["case"] == "Case2"


def resolved(*argv: str) -> cli.RunConfig:
    return cli.resolve_config(cli.build_parser().parse_args(list(argv)))


class TestPerCommandDefaults:
    def test_run_config_has_five_settings(self):
        names = [f.name for f in dataclasses.fields(cli.RunConfig)]
        assert names == ["truncation", "tol", "fmt", "output", "x_samples"]

    def test_classify_defaults_to_a_wider_tolerance(self, monkeypatch):
        monkeypatch.delenv(ENV_TOL, raising=False)
        assert resolved("classify", "--theta", "3").tol == 1e-9
        assert resolved("gamma", "--symbol", R2).tol == 1e-10

    def test_every_source_overrides_the_classify_default(self, monkeypatch, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tol": 1e-4}', encoding="utf-8")
        monkeypatch.setenv(ENV_TOL, "1e-3")
        assert resolved("classify", "--theta", "3").tol == 1e-3
        assert resolved("classify", "--theta", "3", "--config", str(cfg)).tol == 1e-4
        flagged = resolved("classify", "--theta", "3", "--config", str(cfg), "--tol", "1e-5")
        assert flagged.tol == 1e-5

    def test_classify_default_decides_the_circle_band(self, capsys, monkeypatch):
        monkeypatch.delenv(ENV_TOL, raising=False)
        # |θ|² − 2 Re θ = 5e-10 for θ = 1.5 + i·sqrt(0.75 + 5e-10): inside 1e-9
        theta = f"1.5+{(0.75 + 5e-10) ** 0.5!r}i"
        _, out, _ = run_cli(capsys, "classify", "--theta", theta)
        assert json.loads(out)["case"] == "Case1"
        _, out, _ = run_cli(capsys, "classify", "--theta", theta, "--tol", "1e-10")
        assert json.loads(out)["case"] == "Case2"

    def test_verify_example_defaults_to_forty_entries(self):
        assert resolved("verify-paper-example").truncation == 40
        assert resolved("compose", "--phi", R2, "--psi", R2).truncation == 64

    def test_config_truncation_overrides_the_verify_default(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"truncation": 12}', encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify-paper-example", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["n_entries"] == 12
        code, out, _ = run_cli(
            capsys, "verify-paper-example", "--config", str(cfg), "-N", "13"
        )
        assert json.loads(out)["n_entries"] == 13

    @pytest.mark.parametrize(
        "extra, expected", [((), 1e-12), (("--tol", "1e-3"), 1e-12), (("--tol", "1e-14"), 1e-14)]
    )
    def test_verify_example_tolerance_is_capped(self, capsys, monkeypatch, extra, expected):
        seen = {}

        def audit(n_entries, tol):
            seen.update(n_entries=n_entries, tol=tol)
            raise DomainError("stop after recording the call")

        monkeypatch.delenv(ENV_TOL, raising=False)
        monkeypatch.setattr(composition, "audit_worked_example", audit)
        assert run_cli(capsys, "verify-paper-example", *extra)[0] == 4
        assert seen == {"n_entries": 40, "tol": expected}


class TestJsonOnlyRefusal:
    @pytest.fixture(autouse=True)
    def no_computation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("computed before refusing --format csv")

        # each command imports its functions when it runs, from these modules
        for name in ("audit_worked_example", "compose_radial"):
            monkeypatch.setattr(composition, name, fail)
        for name in ("classify_obstruction", "diamond", "heat_transform"):
            monkeypatch.setattr(algebra, name, fail)
        monkeypatch.setattr(fock, "spectrum_radial", fail)
        monkeypatch.setattr(quadrature, "gamma_sequence", fail)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-paper-example"],
            ["compose", "--phi", NON_RADIAL, "--psi", CONST],
            ["compose", "--phi", "{not json", "--psi", CONST],
            ["diamond", "--phi", EXAMPLE, "--psi", R2],
            ["heat", "--symbol", "{not json", "--t", "1"],
            ["spectrum", "--symbol", NON_RADIAL],
            ["classify", "--theta", "not a number"],
        ],
    )
    def test_csv_is_refused_before_anything_is_computed(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 2
        assert out == ""
        assert err == f"error: command {argv[0]!r} only supports --format json\n"

    def test_csv_from_a_config_file_is_refused_too(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"format": "csv"}', encoding="utf-8")
        code, out, err = run_cli(capsys, "verify-paper-example", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "only supports --format json" in err


class TestComposeCommand:
    def test_report_shape_and_x_samples(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compose",
            "--phi",
            CONST,
            "--psi",
            CONST,
            "-N",
            "12",
            "--x-samples",
            "0.5,1",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "hyp1",
            "hyp2",
            "hyp3",
            "gamma_tau",
            "tau",
            "obstruction",
            "notes",
        }
        assert [e["x"] for e in payload["hyp3"]["a_series"]] == [0.5, 1.0]
        assert all(e["converged"] for e in payload["hyp3"]["a_series"])
        assert payload["tau"] == {"kind": "radial_monomial", "m": 0}


    def test_underflowing_weights_give_the_zero_symbol(self, capsys):
        tiny = '{"kind": "sum", "terms": [{"w": 1e-200, "s": %s}]}' % R2
        code, out, _ = run_cli(capsys, "compose", "--phi", tiny, "--psi", tiny, "-N", "8")
        assert code == 0
        assert json.loads(out)["tau"] == {"kind": "poly", "terms": []}

    def test_an_overflowing_tau_rate_gives_the_zero_symbol(self, capsys):
        # 1 − λ_τ = (1 + 1e200)² overflows: τ's γ underflows, and τ is dropped
        gaussian = '{"kind": "radial_exponential", "lambda": -1e200}'
        code, out, _ = run_cli(capsys, "compose", "--phi", gaussian, "--psi", gaussian, "-N", "4")
        assert code == 0
        assert json.loads(out)["tau"] == {"kind": "poly", "terms": []}

    def test_an_overflowing_tau_weight_leaves_tau_null(self, capsys):
        # τ = 1e400·e^{λ_τ r²} has a weight past float64, but γ_τ(0) ~ 1e280 is finite
        gaussian = '{"kind": "radial_exponential", "lambda": -1e60}'
        big = '{"kind": "sum", "terms": [{"w": 1e200, "s": %s}]}' % gaussian
        code, out, _ = run_cli(capsys, "compose", "--phi", big, "--psi", big, "-N", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["tau"] is None
        assert payload["notes"][0].startswith("reconstruction: the weight of tau's term exp(")
        assert payload["notes"][0].endswith(") overflows float64")
        gammas = [e["gamma"]["re"] for e in payload["gamma_tau"]["entries"]]
        assert gammas[0] == pytest.approx(1e280, rel=1e-12)

    def test_a_member_phi_converges_at_large_x(self, capsys):
        phi = '{"kind": "radial_exponential", "lambda": {"re": 0.4, "im": 0.8}}'
        code, out, _ = run_cli(
            capsys, "compose", "--phi", phi, "--psi", CONST, "--x-samples", "20,100"
        )
        assert code == 0
        hyp3 = json.loads(out)["hyp3"]
        assert hyp3["member"]
        assert [(e["x"], e["converged"]) for e in hyp3["a_series"]] == [(20.0, True), (100.0, True)]

    @pytest.mark.parametrize("lam", ['{"re": 0.6, "im": 0}', '{"re": 0.4, "im": 0.8}'])
    def test_a_negative_x_sample_is_a_usage_error_for_any_phi(self, capsys, lam):
        phi = '{"kind": "radial_exponential", "lambda": %s}' % lam
        code, out, err = run_cli(capsys, "compose", "--phi", phi, "--psi", CONST, "--x-samples=-1")
        assert (code, out) == (2, "")
        assert ">= 0" in err


class TestOtherCommands:
    def test_diamond(self, capsys):
        r2_poly = '{"kind": "poly", "terms": [{"j": 1, "k": 1, "c": 1.0}]}'
        code, out, _ = run_cli(capsys, "diamond", "--phi", r2_poly, "--psi", r2_poly)
        assert code == 0
        terms = {(t["j"], t["k"]): t["c"]["re"] for t in json.loads(out)["result"]["terms"]}
        assert terms == {(2, 2): 1.0, (1, 1): -1.0}

    def test_diamond_of_a_high_degree_with_a_constant(self, capsys):
        code, out, _ = run_cli(capsys, "diamond", "--phi", R400, "--psi", CONST)
        assert code == 0
        assert json.loads(out)["result"]["terms"] == [{"j": 200, "k": 200, "c": {"re": 1, "im": 0}}]

    def test_wick_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "wick", "--symbol", R2, "-N", "48", "--r-max", "1.0", "--points", "5"
        )
        assert code == 0
        points = json.loads(out)["points"]
        assert len(points) == 5
        for p in points:
            np.testing.assert_allclose(p["re"], 1.0 + p["r"] ** 2, rtol=1e-10)

    @pytest.mark.parametrize("points", ["-1", str(cli.MAX_WICK_POINTS + 1)])
    def test_wick_points_outside_the_limit_are_refused(self, capsys, points):
        code, out, err = run_cli(capsys, "wick", "--symbol", R2, "--points", points)
        assert code == 2
        assert out == ""
        assert f"MAX_WICK_POINTS = {cli.MAX_WICK_POINTS}" in err

    def test_heat(self, capsys):
        code, out, _ = run_cli(capsys, "heat", "--symbol", R2, "--t", "1.0")
        assert code == 0
        terms = {(t["j"], t["k"]): t["c"]["re"] for t in json.loads(out)["result"]["terms"]}
        assert terms == {(0, 0): 1.0, (1, 1): 1.0}

    def test_spectrum(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--symbol", EXAMPLE, "-N", "12")
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "prefix of spectrum"
        mods = [abs(complex(p["re"], p["im"])) for p in payload["points"]]
        np.testing.assert_allclose(mods, np.ones(12), rtol=1e-12)


class TestVerifyExampleCommand:
    def test_default_report(self, capsys):
        code, out, err = run_cli(capsys, "verify-paper-example")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["n_entries"] == 40
        assert payload["k_modulus_sq"] == pytest.approx(2.56, abs=1e-6)
        assert payload["k_two_re"] == pytest.approx(2.56, abs=1e-6)
        assert payload["quadrature_vs_reference_max_err"] <= 1e-9
        assert payload["obstruction"]["case"] == "Case1"
        assert payload["composition"]["hyp1"]["bounded"] is True
        assert payload["composition"]["hyp2"]["bounded"] is True
        assert payload["composition"]["hyp3"]["member"] is True
        assert any("tension" in note for note in payload["notes"])

    def test_small_truncation_still_reports(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper-example", "-N", "12")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_entries"] == 12
        assert payload["obstruction"]["case"] == "Case1"


class TestExitCodes:
    def test_invalid_symbol_json_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "gamma", "--symbol", "{not json")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_unknown_symbol_kind_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "gamma", "--symbol", '{"kind": "mystery"}')
        assert code == 2

    def test_non_radial_gamma_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "gamma", "--symbol", NON_RADIAL)
        assert code == 4
        assert "domain error" in err

    def test_divergent_heat_is_domain_error(self, capsys):
        divergent = '{"kind": "radial_exponential", "lambda": {"re": 1.5, "im": 0.0}}'
        code, _, _ = run_cli(capsys, "heat", "--symbol", divergent, "--t", "1.0")
        assert code == 4

    def test_wick_radius_past_the_doubling_cap_names_no_count(self, capsys):
        code, out, err = run_cli(
            capsys, "wick", "--symbol", CONST, "-N", "8", "--r-max", "5000", "--points", "2"
        )
        assert (code, out) == (3, "")
        assert err.rstrip().endswith("; more than 100000 terms are needed")

    def test_unreachable_wick_radius_is_accuracy_error(self, capsys):
        code, _, err = run_cli(
            capsys, "wick", "--symbol", CONST, "-N", "8", "--r-max", "3.0"
        )
        assert code == 3
        assert "accuracy error" in err

    @pytest.mark.parametrize(
        "symbol,n",
        [
            ('{"kind": "radial_monomial", "m": 200}', "64"),
            ('{"kind": "radial_exponential", "lambda": {"re": 0.999, "im": 0.0}}', "200000"),
            # (n+1)_m is inf after a few dozen of its thirty million factors
            ('{"kind": "radial_monomial", "m": 30000000}', "3"),
        ],
    )
    def test_closed_form_overflow_is_accuracy_error(self, symbol, n):
        proc = subprocess.run(
            [sys.executable, "-m", "fock_toeplitz.cli", "gamma", "--symbol", symbol, "-N", n],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "accuracy error" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize(
        "symbol",
        [
            '{"kind": "poly", "terms": [{"j": 1e400, "k": 0}]}',
            '{"kind": "sum", "terms": [{"w": 1, "s": {"kind": "radial_monomial", "m": 0}}, 5]}',
            '{"kind": "sum", "terms": [{"w": 1, "s": ' * 1500 + CONST + "}]}" * 1500,
            '{"kind": "radial_exponential", "lambda": {"re": -1, "im": Infinity}}',
            '{"kind": "radial_exponential", "lambda": -Infinity}',
            '{"kind": "poly", "terms": [{"j": 1.5, "k": 1.5}]}',
            '{"kind": "poly", "terms": [{"j": "2", "k": "2"}]}',
            '{"kind": "poly", "terms": [{"j": true, "k": true}]}',
            '{"kind": "radial_monomial", "m": true}',
            '{"kind": "radial_exponential", "lambda": false}',
            '{"kind": "radial_exponential", "lambda": {"re": true}}',
            '{"kind": "sum", "terms": [{"w": true, "s": ' + CONST + "}]}",
            '{"kind": "poly", "terms": [{"j": 1, "k": 1, "c": true}]}',
            '{"kind": "radial_exponential", "lambda": {"re": "-2"}}',
            '{"kind": "radial_exponential", "lambda": -1' + "0" * 400 + "}",
        ],
        ids=[
            "infinite-power",
            "sum-term-not-an-object",
            "nested-1500-deep",
            "infinite-imaginary-rate",
            "minus-infinite-rate",
            "fractional-power",
            "string-power",
            "boolean-power",
            "boolean-exponent",
            "boolean-rate",
            "boolean-real-part",
            "boolean-weight",
            "boolean-coefficient",
            "string-real-part",
            "integer-rate-past-float64",
        ],
    )
    def test_malformed_symbol_is_usage_error(self, capsys, symbol):
        code, out, err = run_cli(capsys, "gamma", "--symbol", symbol)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["heat", "--symbol", '{"kind": "radial_monomial", "m": 200}', "--t", "0.7"],
            [
                "heat", "--t", "1e10",
                "--symbol", '{"kind": "radial_exponential", "lambda": {"re": -1e308, "im": 0}}',
            ],
            # both factors reach k = 171, where 1/k! leaves float64
            ["diamond", "--phi", R400, "--psi", R400],
        ],
        ids=["heat-degree-200", "heat-lambda-times-t-overflows", "diamond-degree-200"],
    )
    def test_transform_overflow_is_accuracy_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert "overflows float64 at" in err and "the term " in err

    def test_non_finite_value_is_never_rendered(self):
        with pytest.raises(NonFiniteResultError):
            render_json({"x": float("inf")})
        with pytest.raises(NonFiniteResultError):
            render_json([float("nan")])

    def test_deeply_nested_config_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100_000, encoding="utf-8")
        code, out, err = run_cli(capsys, "classify", "--theta", "3", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"error: config {str(cfg)!r} is nested too deeply\n"

    def test_bad_env_tol_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_TOL, "not-a-number")
        code, _, _ = run_cli(capsys, "classify", "--theta", "3")
        assert code == 2

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mystery": 1}', encoding="utf-8")
        code, _, _ = run_cli(capsys, "classify", "--theta", "3", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize(
        "config, command",
        [
            ('{"truncation": "abc"}', ["gamma", "--symbol", R2]),
            ('{"truncation": null}', ["gamma", "--symbol", R2]),
            ('{"x_samples": ["a"]}', ["compose", "--phi", R2, "--psi", R2]),
            ('{"x_samples": 0.5}', ["compose", "--phi", R2, "--psi", R2]),
            ('{"output": 1}', ["classify", "--theta", "3"]),
            ('{"output": 5}', ["classify", "--theta", "3"]),
            ('{"output": true}', ["classify", "--theta", "3"]),
        ],
    )
    def test_config_value_of_the_wrong_type_is_usage_error(
        self, capsys, tmp_path, config, command
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config, encoding="utf-8")
        code, out, err = run_cli(capsys, *command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad value in config")

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--theta", "3", "--tol", "inf"],
            ["classify", "--theta", "3", "--tol", "1e400"],
            ["classify", "--theta", "3", "--tol", "nan"],
            ["classify", "--theta=nan"],
            ["classify", "--theta=1e400"],
            ["classify", "--theta=1+nani"],
            ["compose", "--phi", R2, "--psi", R2, "--x-samples", "inf"],
            ["compose", "--phi", R2, "--psi", R2, "--x-samples", "0.5,nan"],
            ["wick", "--symbol", R2, "--r-max", "inf"],
            ["wick", "--symbol", R2, "--r-max", "nan"],
        ],
    )
    def test_non_finite_flag_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_env_tol_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv(ENV_TOL, value)
        code, out, err = run_cli(capsys, "classify", "--theta", "3")
        assert (code, out) == (2, "")
        assert "finite" in err

    @pytest.mark.parametrize(
        "config, command",
        [
            ('{"tol": 1e400}', ["classify", "--theta", "3"]),
            ('{"tol": NaN}', ["classify", "--theta", "3"]),
            ('{"x_samples": [0.5, 1e400]}', ["compose", "--phi", R2, "--psi", R2]),
            ('{"x_samples": [-Infinity]}', ["compose", "--phi", R2, "--psi", R2]),
        ],
    )
    def test_non_finite_config_value_is_usage_error(self, capsys, tmp_path, config, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config, encoding="utf-8")
        code, out, err = run_cli(capsys, *command, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "finite" in err

    @pytest.mark.parametrize("text", ["nan", "1e400", "-1e400i", "nan+1i"])
    def test_non_finite_complex_scalar_is_refused(self, text):
        with pytest.raises(cli.UsageError, match="not finite"):
            parse_complex(text)

    def test_bad_theta_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "classify", "--theta", "one plus i")
        assert code == 2

    @pytest.mark.parametrize("samples", ["a,1", ","])
    def test_bad_x_samples_flag_exits_two(self, capsys, samples):
        with pytest.raises(SystemExit) as excinfo:
            main(["compose", "--phi", R2, "--psi", R2, "--x-samples", samples])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_csv_rejected_for_structured_reports(self, capsys):
        code, _, _ = run_cli(
            capsys, "compose", "--phi", CONST, "--psi", CONST, "--format", "csv"
        )
        assert code == 2


class TestOutputFile:
    def test_output_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "gamma", "--symbol", CONST, "-N", "3", "-o", str(target)
        )
        assert code == 0
        assert out == ""
        text = target.read_text(encoding="utf-8")
        assert text.endswith("\n")
        code, stdout_text, _ = run_cli(capsys, "gamma", "--symbol", CONST, "-N", "3")
        assert text == stdout_text

    @pytest.mark.parametrize("target", ["missing/dir/out.json", "."])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, target):
        path = tmp_path / target
        code, out, err = run_cli(capsys, "classify", "--theta", "1+1i", "-o", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write output {str(path)!r}")


class TestDeterminism:
    def cli(self, *argv: str) -> bytes:
        proc = subprocess.run(
            [sys.executable, "-m", "fock_toeplitz.cli", *argv],
            capture_output=True,
            check=True,
        )
        return proc.stdout

    def test_gamma_quadrature_bytes_are_stable(self):
        args = ("gamma", "--symbol", EXAMPLE, "-N", "20", "--method", "quadrature")
        assert self.cli(*args) == self.cli(*args)

    def test_verify_example_bytes_are_stable(self):
        args = ("verify-paper-example", "-N", "16")
        assert self.cli(*args) == self.cli(*args)


class TestImportBoundary:
    """What a fresh interpreter loads: the exact commands and the bare
    package import no numpy, and every export still resolves."""

    def fresh(self, code: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        return proc.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--theta", "1.28-0.96i"],
            ["heat", "--symbol", EXAMPLE, "--t", "0.7"],
            ["diamond", "--phi", R2, "--psi", R400],
        ],
    )
    def test_exact_commands_load_no_numpy(self, argv):
        code = (
            "import contextlib, io, sys\n"
            "from fock_toeplitz.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        )
        assert self.fresh(code) == "[]\n"

    def test_package_import_loads_no_numeric_module(self):
        code = (
            "import sys, fock_toeplitz\n"
            "print(sorted(m for m in sys.modules if 'numpy' in m or 'fock' in m))"
        )
        assert self.fresh(code) == "['fock_toeplitz']\n"

    def test_star_import_binds_every_export(self):
        code = (
            "from fock_toeplitz import *\n"
            "import fock_toeplitz\n"
            "print(all(globals()[n] is getattr(fock_toeplitz, n) for n in fock_toeplitz.__all__))"
        )
        assert self.fresh(code) == "True\n"

    def test_every_export_resolves_and_is_listed(self):
        listed = dir(fock_toeplitz)
        for name in fock_toeplitz.__all__:
            assert getattr(fock_toeplitz, name) is not None, name
            assert name in listed, name
        assert "q_sequence" not in fock_toeplitz.__all__
        with pytest.raises(AttributeError):
            fock_toeplitz.a_series  # noqa: B018  (retired with the A-series evaluator)

    def test_submodules_resolve_as_attributes(self):
        code = (
            "import fock_toeplitz\n"
            "print(fock_toeplitz.quadrature.__name__, fock_toeplitz.cli.__name__)"
        )
        assert self.fresh(code) == "fock_toeplitz.quadrature fock_toeplitz.cli\n"

    def test_reexports_are_the_same_objects(self):
        assert calculus.diamond is fock_toeplitz.diamond is algebra.diamond
        assert calculus.heat_transform is fock_toeplitz.heat_transform
        assert composition.classify_obstruction is fock_toeplitz.classify_obstruction
        assert composition.ObstructionVerdict is fock_toeplitz.ObstructionVerdict
        assert composition.DEFAULT_X_SAMPLES is algebra.DEFAULT_X_SAMPLES
