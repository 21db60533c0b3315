"""CLI contract: schema, determinism, exit discipline."""
import json

import pytest

from ymvac.cli import main

FAST_ARGS = {
    "profiles": ["--n-points", "9"],
    "check-bogomolnyi": ["--n-points", "4"],
    "check-gribov": ["--radii-over-eps", "2,5"],
    "winding": ["--n-min", "-1", "--n-max", "1", "--n-r", "32", "--n-theta", "16", "--n-phi", "16"],
    "greens": ["--n-z", "20"],
    "rotator": ["--theta", "0.5", "--tau", "1.0", "--inertia", "1.0"],
    "interference": [],
    "pheno": [],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSchema:
    def test_payload_blocks(self, capsys):
        code, out = run(capsys, "profiles", "--n-points", "5")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"meta", "inputs", "results", "checks"}
        assert payload["meta"]["subcommand"] == "profiles"
        assert payload["meta"]["quantity_tags"]
        for check in payload["checks"]:
            assert set(check) == {"name", "value", "tolerance", "passed"}

    def test_csv_flattens_results(self, capsys):
        code, out = run(capsys, "greens", "--n-z", "10", "--output", "csv")
        assert code == 0
        lines = out.splitlines()
        assert any(line.startswith("max_euler_residual,") for line in lines)
        assert any(line.startswith("z,V0,V1") for line in lines)
        assert not any(line.startswith("{") for line in lines)

    def test_winding_csv_degree_column(self, capsys):
        code, out = run(capsys, "winding", *FAST_ARGS["winding"], "--output", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()]
        table = {int(r[0]): float(r[1]) for r in rows if r[0].lstrip("-").isdigit()}
        for n in (-1, 0, 1):
            assert abs(table[n] - n) < 1e-3

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "r.json"
        code, _ = run(capsys, "profiles", "--n-points", "5", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["meta"]["subcommand"] == "profiles"


class TestDeterminism:
    @pytest.mark.parametrize("sub", sorted(FAST_ARGS))
    def test_byte_identical_reruns(self, sub, capsys):
        code1, out1 = run(capsys, sub, *FAST_ARGS[sub], "--seed", "7")
        code2, out2 = run(capsys, sub, *FAST_ARGS[sub], "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_changes_sampled_payload(self, capsys):
        _, out1 = run(capsys, "check-bogomolnyi", "--n-points", "4", "--seed", "1")
        _, out2 = run(capsys, "check-bogomolnyi", "--n-points", "4", "--seed", "2")
        assert out1 != out2


class TestExitDiscipline:
    def test_validation_error_exit_2(self, capsys):
        code = main(["check-bogomolnyi", "--eps", "-1.0"])
        assert code == 2

    def test_unknown_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit):
            # argparse exits directly; main() converts when given argv
            raise SystemExit(main(["profiles", "--unknown-flag", "1"]))

    def test_unknown_flag_code(self, capsys):
        assert main(["profiles", "--unknown-flag", "1"]) == 2

    def test_overtight_tolerance_exit_3(self, capsys):
        code, out = run(capsys, "check-bogomolnyi", "--n-points", "4", "--tol", "1e-30")
        assert code == 3
        payload = json.loads(out)
        assert not all(c["passed"] for c in payload["checks"])

    def test_consistency_error_exit_3(self, capsys):
        # quadrature/formula watchdog: unreachable order demand on the
        # refinement check trips exit 3 through the checks block
        code, _ = run(capsys, "check-gribov", "--radii-over-eps", "2", "--tol", "10")
        assert code == 3

    def test_constants_file_override(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("alpha_s = 0.3\n")
        code, out = run(capsys, "pheno", "--constants", str(path))
        payload = json.loads(out)
        assert payload["inputs"]["constants"]["alpha_s"] == 0.3
        assert code == 0  # band checks are alpha_s-independent where quoted

    def test_missing_constants_file_exit_2(self, capsys):
        assert main(["pheno", "--constants", "/no/such/file"]) == 2


class TestParameterPrecedence:
    def test_set_overrides_constants_file(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("alpha_s = 0.30\nf_pi = 0.102\n")
        code, out = run(capsys, "pheno", "--constants", str(path), "--set", "alpha_s=0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["inputs"]["constants"]["alpha_s"] == 0.5    # flag wins
        assert payload["inputs"]["constants"]["f_pi"] == 0.102     # file survives
        assert payload["inputs"]["constants"]["n_f"] == 3          # default survives

    def test_set_unknown_key_exit_2(self, capsys):
        assert main(["pheno", "--set", "bogus=1"]) == 2

    def test_set_malformed_exit_2(self, capsys):
        assert main(["pheno", "--set", "alpha_s"]) == 2


def validation_error(capsys, *argv):
    """Exit code, stdout and the parsed single-line stderr error of a run."""
    code = main(list(argv))
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return code, captured.out, json.loads(lines[0])


class TestFlagValidation:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            # comma-list arity
            (["interference", "--angles", "1,2"], "--angles"),
            (["interference", "--momentum", "1,2,3"], "--momentum"),
            (["interference", "--loop-q", "0,0,0,0,0"], "--loop-q"),
            (["check-gribov", "--radii-over-eps", ""], "--radii-over-eps"),
            (["check-gribov", "--radii-over-eps", "2,x"], "--radii-over-eps"),
            # empty sweeps
            (["profiles", "--n-points", "0"], "--n-points"),
            (["check-bogomolnyi", "--n-points", "0"], "--n-points"),
            (["winding", "--n-min", "3", "--n-max", "1"], "--n-min/--n-max"),
            (["greens", "--n-z", "0"], "--n-z"),
        ],
    )
    def test_exit_2_names_flag(self, capsys, argv, flag):
        code, out, err = validation_error(capsys, *argv)
        assert code == 2 and out == ""
        assert err["error"] == "validation" and flag in err["message"]

    def test_non_numeric_set_names_key(self, capsys):
        code, out, err = validation_error(capsys, "pheno", "--set", "n_f=abc")
        assert code == 2 and out == ""
        assert err["message"] == "--set: constant n_f must be a number, got 'abc'"


class TestNonFinite:
    @pytest.mark.parametrize(
        "argv",
        [
            ["pheno", "--set", "f_pi=inf"],
            ["pheno", "--set", "n_f=nan"],
            ["profiles", "--eps", "inf"],
            ["check-bogomolnyi", "--g", "nan"],
        ],
    )
    def test_non_finite_input_exit_2(self, capsys, argv):
        code, out, err = validation_error(capsys, *argv)
        assert code == 2 and out == ""
        assert err["error"] == "validation"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["rotator", "--inertia", "inf"], "--inertia"),
            (["pheno", "--e", "inf"], "--e"),
            (["winding", "--r-max", "nan"], "--r-max"),
            (["profiles", "--r-max", "inf"], "--r-max"),
            (["check-gribov", "--radii-over-eps", "2,inf"], "--radii-over-eps"),
            (["greens", "--d1", "inf"], "--d1"),
            (["interference", "--eps", "inf"], "--eps"),
            (["rotator", "--tol", "nan"], "--tol"),
        ],
    )
    def test_non_finite_flag_exit_2_names_flag(self, capsys, argv, flag):
        code, out, err = validation_error(capsys, *argv)
        assert code == 2 and out == ""
        assert err["error"] == "validation" and err["message"].startswith(flag + " must be finite")

    def test_non_finite_report_exit_3(self, capsys):
        from ymvac.cli import Report, RunConfig, _emit

        rep = Report(meta={}, inputs={}, results={"value": float("nan")})
        assert _emit(rep, RunConfig("profiles", {})) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "consistency"
