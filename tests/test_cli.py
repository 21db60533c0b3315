"""CLI contract: schema, determinism, exit discipline."""
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ymvac
from ymvac import bps_profiles as bp, cli, greens, interference as itf, pheno, rotator, topology
from ymvac.cli import _SUBCOMMANDS, _parse_config, main
from ymvac.errors import DomainError

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


class TestParserReuse:
    # a non-default value of every kind of flag: scalars, comma lists, a
    # repeated --set, --tol, --output and the choices
    NON_DEFAULT = {
        "profiles": ["--n-points", "5", "--eps", "2", "--output", "csv"],
        "check-bogomolnyi": ["--n-points", "4", "--variant", "WuYangPlus", "--order", "2", "--tol", "1"],
        "check-gribov": ["--order", "2", "--radii-over-eps", "3"],
        "winding": FAST_ARGS["winding"],
        "greens": ["--n-z", "5", "--c1", "2"],
        "rotator": FAST_ARGS["rotator"],
        "interference": ["--angles", "1.0,0.2,0.5", "--loop-window", "4"],
        "pheno": ["--set", "f_pi=0.1", "--set", "f_pi=0.12", "--g", "1.2"],
    }

    def test_default_payloads_after_non_default_flags(self, capsys, monkeypatch):
        # the parser is built once per process; the flags of one report must
        # not reach the next
        for sub, flags in self.NON_DEFAULT.items():
            main([sub, *flags])
        capsys.readouterr()
        reused = {sub: run(capsys, sub) for sub in self.NON_DEFAULT}
        assert cli._build_parser() is cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)  # a new parser per call
        assert reused == {sub: run(capsys, sub) for sub in self.NON_DEFAULT}


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

    def test_empty_constants_path_exit_2(self, capsys):
        # an empty path is refused, not read as "no file"
        code, out, err = validation_error(capsys, "pheno", "--constants", "")
        assert code == 2 and out == ""
        assert err["error"] == "validation" and "constants path is empty" in err["message"]

    def test_volume_is_no_constant(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("volume = 125.0\n")
        for argv in (["--constants", str(path)], ["--set", "volume=1"]):
            code, out, err = validation_error(capsys, "pheno", *argv)
            assert code == 2 and out == ""
            assert err["error"] == "validation" and "unknown constant 'volume'" in err["message"]

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        code, out, err = validation_error(capsys, "profiles", "--out", str(tmp_path / "missing" / "r.json"))
        assert code == 2 and out == ""
        assert err["error"] == "validation"

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["check-bogomolnyi", "--order", "3"], "invalid choice: 3"),
            (["profiles", "--unknown-flag", "1"], "--unknown-flag"),
            ([], "subcommand"),
            (["bogus"], "'bogus'"),
            (["profiles", "--tol", "5", "--constants", "/nonexistent"], "--tol 5 --constants"),
            (["interference", "--tol", "1e-3"], "--tol"),
            (["greens", "--constants", "c.txt"], "--constants"),
            (["rotator", "--n-z"], "--n-z"),
            (["pheno", "--g"], "expected one argument"),
        ],
    )
    def test_usage_error_is_one_json_line(self, capsys, argv, named):
        # argparse's own errors take the same path as every validation error;
        # --tol and --constants exist only where a report reads them
        code, out, err = validation_error(capsys, *argv)
        assert code == 2 and out == ""
        assert err["error"] == "validation" and named in err["message"]

    def test_help_and_version_exit_0(self, capsys):
        assert main(["--version"]) == 0
        assert main(["pheno", "--help"]) == 0
        assert "--constants" in capsys.readouterr().out


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


class TestRefinementExpectations:
    """The refinement checks expect what the chosen stencil order delivers."""

    @pytest.mark.parametrize("order, factor", [("2", 2.0), ("4", 8.0)])
    def test_bogomolnyi_factor_follows_order(self, capsys, order, factor):
        code, out = run(capsys, "check-bogomolnyi", "--order", order, "--tol", "1e-5")
        assert code == 0
        assert json.loads(out)["meta"]["tolerances"]["refinement_factor"] == factor

    @pytest.mark.parametrize("order, min_order", [("2", 1.0), ("4", 3.0)])
    def test_gribov_min_order_follows_order(self, capsys, order, min_order):
        code, out = run(capsys, "check-gribov", "--order", order)
        assert code == 0
        assert json.loads(out)["meta"]["tolerances"]["min_observed_order"] == min_order

    def test_exactly_zero_residual_passes(self, capsys):
        # the PT pair satisfies the identity exactly at both step sizes
        code, out = run(capsys, "check-bogomolnyi", "--variant", "PT")
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["stencil-refinement-factor"]["value"] == 0.0


class TestOneStencilPass:
    """check-gribov evaluates every radius at h and at h/2 in one
    gribov_residual call, check-bogomolnyi its points at h and at h/2 in one
    bogomolnyi_residual call, greens its three radii in one operator
    call, and pheno its zero mode in one covariant_derivative call."""

    @staticmethod
    def _count(monkeypatch, module, name):
        calls = []
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("argv", [
        ["check-gribov"],
        ["check-gribov", "--order", "2"],
        ["check-gribov", "--radii-over-eps", "1,2,3,5,8,12,20,30"],
    ])
    def test_one_gribov_residual_call(self, capsys, monkeypatch, argv):
        calls = self._count(monkeypatch, bp, "gribov_residual")
        code, out = run(capsys, *argv)
        assert code == 0 and len(calls) == 1
        radii = json.loads(out)["results"]["table"]["rows"]
        _, centres, stencil = calls[0]
        assert centres.shape == (2 * len(radii), 3) and stencil.h.shape == (2 * len(radii),)

    def test_one_sampling_pass_for_both_bogomolnyi_steps(self, capsys, monkeypatch):
        # h and h/2 share their shifts +-h and the unshifted samples: per
        # walk, 3 axes x 6 shifts of the points in sampler calls of at most
        # _BLOCK rows (one call at 20 points, where one call per shift took
        # 18; five at 1000), for the gauge vector and the scalar, and one
        # unshifted sample of each.  Counted across both threads where the
        # scalar walks on a second one (list.append is atomic).
        residual_calls = self._count(monkeypatch, bp, "bogomolnyi_residual")
        samples = self._count(monkeypatch, bp, "_hedgehog")
        for n_points, calls, rows in ((20, 4, 760), (1000, 12, 38000)):
            samples.clear()
            assert run(capsys, "check-bogomolnyi", "--n-points", str(n_points), "--seed", "0")[0] == 0
            assert (len(samples), sum(len(pts) for pts, *_ in samples)) == (calls, rows)
        assert len(residual_calls) == 2

    @pytest.mark.parametrize("argv, calls, rows", [
        (["winding"], 78, 359424),
        (["pheno"], 7, 2352),
        (["check-gribov"], 4, 1098),
    ])
    def test_hedgehog_work_per_default_report(self, capsys, monkeypatch, argv, calls, rows):
        # the hedgehog sampler's calls and rows per default report at --seed 0
        samples = self._count(monkeypatch, bp, "_hedgehog")
        assert run(capsys, *argv, "--seed", "0")[0] == 0
        assert (len(samples), sum(len(pts) for pts, *_ in samples)) == (calls, rows)

    def test_one_zero_mode_sample_per_pheno_report(self, capsys, monkeypatch):
        # the inertia and the normalization integrate one D(Phi0) sample
        calls = self._count(monkeypatch, pheno, "covariant_derivative")
        assert run(capsys, "pheno")[0] == 0
        assert len(calls) == 1

    def test_bogomolnyi_kernel_calls_need_no_guard(self, capsys, monkeypatch):
        # at 1000 points no radius of the pair's samples selects a guarded
        # branch (|x| < 1e-8 or x > 30 of x/sinh x, |x| < 0.05 of coth x - 1/x),
        # so each of the 12 kernel calls runs its direct formula on the whole batch
        guards = {"_x_over_sinh": lambda x: (np.abs(x) < 1e-8) | (x > 30.0),
                  "_coth_minus_inv": lambda x: np.abs(x) < 0.05}
        calls = {name: self._count(monkeypatch, bp, name) for name in guards}
        assert run(capsys, "check-bogomolnyi", "--n-points", "1000", "--seed", "0")[0] == 0
        guarded = [bool(guards[name](x).any()) for name, seen in calls.items() for x, in seen]
        assert (len(guarded), sum(guarded)) == (12, 0)

    def test_one_operator_call(self, capsys, monkeypatch):
        calls = self._count(monkeypatch, greens, "monopole_covariant_laplacian")
        assert run(capsys, "greens")[0] == 0
        assert len(calls) == 1 and calls[0][1].shape == (3, 3)


class TestPhenoMagneticCheck:
    """The magnetic check compares the quadrature with the closed form over the
    shell eps <= r <= 1e3 eps that it integrates."""

    @settings(deadline=None, max_examples=30)
    @given(log_g=st.floats(-150.0, 100.0), log_eps=st.floats(-75.0, 75.0))
    @example(log_g=0.0, log_eps=0.0)
    def test_gap_to_the_shell_closed_form(self, log_g, log_eps):
        g, eps = 10.0**log_g, 10.0**log_eps
        try:
            pheno._check_range(bp.MonopoleScale(g=g, eps=eps))
        except DomainError:
            assume(False)
        rep = _SUBCOMMANDS["pheno"][1](_parse_config(["pheno", "--g", repr(g), "--eps", repr(eps)]))
        check = {c["name"]: c for c in rep.checks}["magnetic-energy-quadrature"]
        shell = 4.0 * math.pi / (g**2 * eps) * (1.0 - 1e-3)
        assert check["value"] == abs(rep.results["magnetic_energy_quadrature"] - shell) / shell
        assert check["value"] < 1e-8 and check["passed"]

    def test_tolerance_in_meta_follows_tol(self, capsys):
        code, out = run(capsys, "pheno", "--tol", "1e-3")
        payload = json.loads(out)
        checks = {c["name"]: c for c in payload["checks"]}
        assert code == 0
        assert payload["meta"]["tolerances"]["magnetic_energy"] == 1e-3
        assert checks["magnetic-energy-quadrature"]["tolerance"] == 1e-3


class TestPhenoGapsJudgedInReport:
    """The pheno companions and the Schwinger mass return their values; a
    route perturbed past its tolerance fails its check in the whole payload."""

    @pytest.mark.parametrize("name, factor, check", [
        ("rotary_momentum", 1.1, "inertia-quadrature-vs-closed-form"),
        ("magnetic_tension", 1.1, "normalization-integral-unity"),
        ("C_SCHWINGER", 1.001, "schwinger-mass-identity"),
    ])
    def test_perturbed_route_fails_its_check(self, capsys, monkeypatch, name, factor, check):
        default = json.loads(run(capsys, "pheno")[1])
        value = getattr(pheno, name)
        monkeypatch.setattr(pheno, name, (lambda *a: factor * value(*a)) if callable(value) else factor * value)
        code = main(["pheno"])
        captured = capsys.readouterr()
        assert code == 3 and captured.err == ""
        payload = json.loads(captured.out)
        assert set(payload["results"]) == set(default["results"])
        passed = {c["name"]: c["passed"] for c in payload["checks"]}
        assert list(passed) == [c["name"] for c in default["checks"]] and not passed[check]


class TestDressedRatio:
    def test_value_is_the_worst_ratio_of_its_table(self):
        rep = _SUBCOMMANDS["interference"][1](_parse_config(["interference"]))
        check = {c["name"]: c for c in rep.checks}["dressed-factor-unit-asymptotics"]
        rows = rep.results["dressed_asymptotics"]["rows"]
        assert check["value"] == max(dev / bound for _, dev, bound in rows)
        assert check["value"] < check["tolerance"] == 1.0 and check["passed"]

    @pytest.mark.parametrize("eps, fate", [("1e-300", "underflows to 0"), ("2e152", "overflows")])
    def test_probe_point_out_of_range_names_eps(self, capsys, eps, fate):
        # the probe point (0, 0, 100 eps) is refused before any map is built
        code, out, err = validation_error(capsys, "interference", "--eps", eps)
        assert code == 2 and out == ""
        assert err["message"].startswith(f"--eps {float(eps)} is out of range")
        assert "probe point" in err["message"] and fate in err["message"]

    def test_probe_point_in_range_runs(self, capsys):
        assert run(capsys, "interference", "--eps", "1e-156")[0] == 0


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

    @pytest.mark.parametrize("sub", sorted(_SUBCOMMANDS))
    def test_negative_seed_names_flag(self, capsys, sub):
        code, out, err = validation_error(capsys, sub, "--seed=-1")
        assert code == 2 and out == ""
        assert err == {"error": "validation", "message": "--seed must be non-negative, got -1"}

    def test_non_numeric_set_names_key(self, capsys):
        code, out, err = validation_error(capsys, "pheno", "--set", "n_f=abc")
        assert code == 2 and out == ""
        assert err["message"] == "--set: constant n_f must be a number, got 'abc'"


class TestHalfWindow:
    @pytest.mark.parametrize("theta, inside", [("7", True), ("-1", False)])
    def test_reads_theta_reduced_to_one_period(self, capsys, theta, inside):
        # 7 is 0.717 and -1 is 5.283 in [0, 2 pi)
        code, out = run(capsys, "rotator", "--theta", theta, "--tau", "1.0", "--inertia", "1.0")
        assert code == 0
        assert json.loads(out)["inputs"]["theta_in_half_window"] is inside

    def test_theta_probe_reduced_before_moving_off_spectrum(self, capsys):
        # 1e17 + pi rounds to 1e17, on the spectrum, where the bound is inf; the
        # probe is reduced to [0, 2 pi) first
        code, out = run(capsys, "rotator", "--theta-probe", "1e17")
        rows = json.loads(out)["results"]["interference_decay"]["rows"]
        assert code == 0 and all(m <= bound < math.inf for _, m, bound in rows)


class TestTermCap:
    """A side past the term cap is skipped, never truncated; the side that fits
    is checked against its own theta route."""

    @staticmethod
    def _report(capsys, *argv):
        code, out = run(capsys, "rotator", *argv)
        assert code == 0
        return json.loads(out)

    def test_series_past_cap_skips_side(self, capsys):
        payload = self._report(capsys, "--inertia", "1e-12", "--tau", "1", "--theta", "0")
        # winding cutoff int(sqrt(42/b)) + int(|dN|) + 3 with b = I/(2 tau) = 5e-13:
        # 9165154 for dN = 0 and 0.3, 9165155 for dN = 1, so 2 n_max + 1 terms
        needed = [18330309, 18330309, 18330311]
        assert payload["results"]["skipped_sides"] == {
            "columns": ["row", "side", "terms_needed", "second_route"],
            "rows": [[row, "path", n, "spectral_green_via_theta"] for row, n in enumerate(needed)],
        }
        assert payload["meta"]["term_cap"] == 400001
        assert payload["meta"]["skipped_sides"] == [
            {"row": row, "side": "path", "terms_needed": n} for row, n in enumerate(needed)
        ]
        assert all(c["passed"] for c in payload["checks"])

    def test_spectral_side_past_cap(self, capsys):
        payload = self._report(capsys, "--inertia", "1e11", "--tau", "1", "--theta", "2")
        skipped = payload["results"]["skipped_sides"]["rows"]
        assert [r[:2] for r in skipped] == [[0, "spectral"], [1, "spectral"], [2, "spectral"]]
        assert all(r[2] > 400001 and r[3] == "path_green_via_theta" for r in skipped)

    @pytest.mark.parametrize(
        "argv, route",
        [
            (["--inertia", "1e-12", "--tau", "1", "--theta", "0"], "spectral_green_via_theta"),
            (["--inertia", "1e11", "--tau", "1", "--theta", "2"], "path_green_via_theta"),
        ],
    )
    def test_lone_side_checked_against_its_route(self, capsys, monkeypatch, argv, route):
        # a route that is off by 1e-6 must show in the identity check and fail it
        exact = getattr(rotator, route)
        monkeypatch.setattr(rotator, route, lambda prm: exact(prm) + 1e-6)
        code, out = run(capsys, "rotator", *argv)
        check = json.loads(out)["checks"][0]
        assert code == 3 and check["name"] == "spectral-vs-path-identity"
        assert check["value"] == pytest.approx(1e-6, rel=1e-9) and not check["passed"]

    def test_no_skip_keys_when_both_sides_fit(self, capsys):
        payload = self._report(capsys)
        assert "skipped_sides" not in payload["results"]
        assert "skipped_sides" not in payload["meta"] and "term_cap" not in payload["meta"]


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


class TestNaNGaps:
    """A NaN gap in any row of a sweep fails its check; the builtin max, seeded
    with an earlier row, returned that row and passed."""

    @staticmethod
    def _checks(*argv):
        cfg = _parse_config(list(argv))
        return {c["name"]: c for c in _SUBCOMMANDS[cfg.subcommand][1](cfg).checks}

    def test_winding_nan_degree(self, monkeypatch):
        exact = topology.map_degree

        def nan_at_one(ns, quad, **kw):  # the report asks for every non-zero n in one call
            degrees = exact(ns, quad, **kw)
            degrees[list(ns).index(1)] = float("nan")
            return degrees

        monkeypatch.setattr(topology, "map_degree", nan_at_one)
        checks = self._checks("winding", *FAST_ARGS["winding"])
        assert not checks["degree-integer-quantization"]["passed"]
        assert not checks["degree-radial-oracle-agreement"]["passed"]
        assert checks["monopole-winding-zero"]["passed"]

    def test_rotator_nan_path_green(self, monkeypatch):
        exact = rotator.path_green

        def nan_at_dn(table):  # the report sums every winding side in one call
            return [complex("nan") if prm.dN == 0.3 else z for prm, z in zip(table, exact(table))]

        monkeypatch.setattr(rotator, "path_green", nan_at_dn)
        checks = self._checks("rotator", *FAST_ARGS["rotator"])
        assert not checks["spectral-vs-path-identity"]["passed"]
        assert checks["on-spectrum-survival"]["passed"]

    def test_interference_nan_dressed_deviation(self, monkeypatch):
        exact = itf.dressed_factor_map

        class NaNDistance:
            def distance_to_identity(self, x):
                return [float("nan")]

        monkeypatch.setattr(itf, "dressed_factor_map", lambda n, *args: NaNDistance() if n == -1 else exact(n, *args))
        checks = self._checks("interference")
        assert not checks["dressed-factor-unit-asymptotics"]["passed"]
        assert checks["window-average-decay-exponent"]["passed"]


# SHA-256 of stdout, a NUL byte, stderr, a NUL byte and the exit code of each
# argv run with --seed 0: the eight default reports and every report of
# perfbench/workloads.json.  Taken under numpy 2.4.6 (glibc 2.36,
# x86-64); a change that moves a payload on purpose updates its digest here
# and lists it in CHANGES.md.
DIGEST_NUMPY = "2.4.6"
OUTPUT_DIGESTS = {
    "profiles": "fa4cec8289dcefea19715a8b2153cd0efc15e9f3db5b4baae07e78cbe21569ac",
    "check-bogomolnyi": "a341b18feeba25f672cf1971a258ff601c7e374cb1ec303e605e426e6ca40619",
    "check-gribov": "4f435cca5b9c3dce4166c5c59271e393ae76342b56aeeabe8146fac33282836b",
    "winding": "83cc800bf0b4b1328d03d3d18c8b3c823699f1b989e40dd1811dc6a2984499dd",
    "greens": "60ebccfeff5d4eef9e7a897d7ec172605f1fe75015d90d14d00b3a46cfd73579",
    "rotator": "e9f5a012fbd8067f6020cf0fbd77589ed61f5b01c64fc5f0fa5bec9d415703c3",
    "interference": "c4a7211752db9643148779c54b2005f472d9d281f244a961b38815e37fcc3ba2",
    "pheno": "58e698f5b8863368369903c840e9d5f0967877beda2e71e9fe535d82d44cfc38",
    "check-bogomolnyi --n-points 1000": "e228fe12f1329bae0e416b4519bcce552aaf8e0a39ed07fd125d8954bf27a671",
    "check-gribov --radii-over-eps 1,2,3,5,8,12,20,30": "d9c2c4aabd3cccded905bc5e059808dd65072330c5e36d3ed2fdeab70bb5da49",
    "greens --n-z 5000": "0f68689410d7fb7ed1e2fd7392184df4f8ca535d6a87de5811b6fca16926353f",
    "rotator --inertia 1e-7 --tau 0.3": "c70045b1be47b73e87609975e0db0c279d0480ac99dea63abf64da677f1961aa",
    "rotator --inertia 1e5 --tau 0.01": "5ee00e5b037036346e535cb8eb9b99bb32456208adf969b7f447fa5d10421995",
    "rotator --inertia 1e-12 --tau 1 --theta 0": "5d773bba80a4b1c8972976fb701ed716ed28e864da11aaed68726119929b1a52",
    "interference --momentum 1.3,-0.4,0.25,0.9 --angles 1.0,0.2,0.5": "90be195efd22415a375f67393151650410d17042f8e5f121064cc2c45928fa19",
}


def _digest_argvs():
    workloads = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json").read_text())
    argvs = [" ".join(argv) for spec in workloads.values() for argv in spec["reports"]]
    return {*_SUBCOMMANDS, *argvs}


class TestOutputDigests:
    """Every default and workload payload stays byte-identical, exit code and
    stderr included."""

    def test_every_argv_has_a_digest(self):
        assert set(OUTPUT_DIGESTS) == _digest_argvs()

    @pytest.mark.skipif(np.__version__ != DIGEST_NUMPY,
                        reason=f"digests taken under numpy {DIGEST_NUMPY}; another numpy may round differently")
    @pytest.mark.parametrize("argv", sorted(OUTPUT_DIGESTS))
    def test_output_digest(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv.split(), "--seed", "0"])
        data = b"\0".join([out.getvalue().encode(), err.getvalue().encode(), str(code).encode()])
        assert hashlib.sha256(data).hexdigest() == OUTPUT_DIGESTS[argv]


# SHA-256 of the --help text of ymvac and of each subcommand at COLUMNS=80
# (argparse wraps help to the terminal width), and of each subcommand's flag
# signature (name, action, type, default, choices and nargs of every flag, in
# order).  Taken under Python 3.11, whose argparse layout later versions
# change; a flag dropped, retyped or moved, a choice, a default or a help
# line changes a digest.
HELP_PYTHON = (3, 11)
HELP_DIGESTS = {
    "--help": "856f3f6af78693abcb5ac851d6585d7d32731695f4db75affd202d3881836617",
    "profiles --help": "2f84335b5fc6c32659c5132a003e4d93ef383009f13bb1a8bc9bd4eaad7a8a69",
    "check-bogomolnyi --help": "d724215013030ad8426c83d5b9b5c8a5a1f833a374d791eaaec51e96183236f3",
    "check-gribov --help": "cf09d03d372c734906afb94381051131efaac16ff981b8f5654556411789dbd4",
    "winding --help": "be60f7fa4e699a51c02edca1be2cb99ea1b6a5a61f643bd2ef35f9c0d0a1fee8",
    "greens --help": "8debdc820069bf6cbdc25793fd65fb59c6c54ef16188c1030a8650dba11fa459",
    "rotator --help": "97990128f3e698c397cceeec551dba674d42a581f77c1e29729da7885f76daa2",
    "interference --help": "5c33e512b639ad2770aa1d268a890cba979085792a0761a743d31d3dbe6962a9",
    "pheno --help": "6e965f33907c5c5c73153373e3a6dd2026d23e73e23a91751a3e7582a8c0ccd8",
}
FLAG_DIGESTS = {
    "profiles": "99a51138124003e1f11993bed86f1731f1d10da02da943279eee9d4045444caa",
    "check-bogomolnyi": "a41cedfa34bf42b17c1bd5f291de3dd98439779ca52ba9af483b26c4ff4c3fa1",
    "check-gribov": "7607066e38186fcecf06e14ad303f2db94168c894cf1b4bb59f47396ff424daf",
    "winding": "a5efde05bf86b968b7b24c6f55bbcac0213a9dd9d05088ab4994a3488486c024",
    "greens": "cd2c7d6d01ca8fe52ffde4e79fdb460bb9ab97ff654c7cf431f3672635be0dfb",
    "rotator": "3bebc2966b0a4c1cdedc77f5646ce568b3524061904a13ad09a30667983794ba",
    "interference": "8d708b5447378efc88964acdf18dd2a8342822c774419f1c30ae6780dfeda26a",
    "pheno": "56d875cc2f6488cacf32fcaa306f241825ad2547f70549f54883136a67b845bb",
}


_SAME_PYTHON = pytest.mark.skipif(sys.version_info[:2] != HELP_PYTHON,
                                  reason=f"digests taken under Python {HELP_PYTHON}; argparse differs elsewhere")


class TestHelpDigests:
    """The CLI's surface: every flag's name, type, default, choices, help
    text and position."""

    def test_every_subcommand_has_a_digest(self):
        assert set(HELP_DIGESTS) == {"--help", *(f"{sub} --help" for sub in _SUBCOMMANDS)}
        assert list(FLAG_DIGESTS) == list(_SUBCOMMANDS)

    @_SAME_PYTHON
    @pytest.mark.parametrize("argv", sorted(HELP_DIGESTS))
    def test_help_digest(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv.split()) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == HELP_DIGESTS[argv]

    @_SAME_PYTHON
    @pytest.mark.parametrize("sub", sorted(FLAG_DIGESTS))
    def test_flag_signature_digest(self, sub):
        # what --help does not print: each flag's action, type (None is a
        # string) and default
        parser = cli._build_parser()._subparsers._group_actions[0].choices[sub]
        signature = repr([(a.option_strings, type(a).__name__, getattr(a.type, "__name__", "str"), a.default,
                           a.choices, a.nargs) for a in parser._actions])
        assert hashlib.sha256(signature.encode()).hexdigest() == FLAG_DIGESTS[sub]


# the argv grammar: values that each kind of flag takes (ints and comma lists
# stay at most one above their default count, so every run stays fast)
_FLOATS = ("0", "-1", "1e-300", "1e-150", "1e150", "1e300", "inf", "nan", "x")


def _values(flag, spec) -> list:
    kw = spec if isinstance(spec, dict) else {"default": spec}
    default = kw.get("default")
    if "choices" in kw:
        return [str(getattr(c, "value", c)) for c in kw["choices"]]
    if flag == "--set":  # a valid item, an unknown key, a non-number and a non-finite value
        return ["f_pi=0.1", "volume=1", "n_f=abc", "alpha_s=inf"]
    if flag == "--constants":  # a missing path and an empty one
        return ["missing-dir/constants.txt", ""]
    if isinstance(default, str):  # a comma list: its default, empty, one value too many, a scalar repeated
        count = default.count(",") + 1
        return [default, "", default + ",1", *(",".join([x] * count) for x in _FLOATS)]
    if isinstance(default, int):
        return ["0", "-1", "1", str(default + 1), "x"]
    return [repr(default)] * (default is not None) + list(_FLOATS)


def _grammar_flags(sub) -> dict:
    """{flag: its values} of a subcommand, --out and --output left out."""
    _, _, tol, flags = _SUBCOMMANDS[sub]
    own = {**(cli._TOL_FLAG if tol else {}), "--seed": 0, **flags}
    return {flag: _values(flag, spec) for flag, spec in own.items()}


@st.composite
def _argvs(draw):
    sub = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    menu = _grammar_flags(sub)
    flags = draw(st.permutations(sorted(menu)))[:draw(st.integers(1, 3))]
    return [sub, *(f"{flag}={draw(st.sampled_from(menu[flag]))}" for flag in flags)]  # "=": a value may start with "-"


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


class TestArgvGrammar:
    @settings(deadline=None, max_examples=100)
    @given(argv=_argvs())
    # each of these once printed a RuntimeWarning: an overflowing probe point
    # (exit 0 on a vacuous check), a cube of g that underflows (a NaN winding,
    # exit 3), a step below the profile's resolution (an inf residual, exit 3)
    # and an r/eps past the float range
    @example(argv=["interference", "--eps=1e300"])
    @example(argv=["winding", "--g=1e-150"])
    @example(argv=["check-bogomolnyi", "--inv-h-over-eps=1e150", "--r-hi-over-eps=0"])
    @example(argv=["profiles", "--eps=1e-150", "--r-max=1e300"])
    def test_exit_code_and_streams(self, argv):
        # exit 0, 2 or 3; a validation error (2) writes one JSON line to
        # stderr and nothing to stdout; otherwise strict JSON on stdout and
        # nothing on stderr, or (3 only) one JSON line on stderr alone.  A
        # stray RuntimeWarning is an error in this suite.
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3)
        if code == 2 or out == "":
            assert code != 0 and out == "" and err.endswith("\n") and len(err.splitlines()) == 1
            assert set(json.loads(err)) == {"error", "message"}
        else:
            assert err == ""
            json.loads(out, parse_constant=_reject_constant)


# potential coefficients: any float, or a signed power of ten over the range
_COEF = st.one_of(st.floats(-1e308, 1e308),
                  st.builds(lambda sign, exp: sign * 10.0**exp, st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 308.0)))


class TestGreensTable:
    @settings(deadline=None, max_examples=30)
    @given(d1=_COEF, c1=_COEF)
    @example(d1=1e308, c1=1e308)  # both terms overflow on the grid, only d at its first bad z
    @example(d1=1.0, c1=1e308)
    @example(d1=-0.0, c1=0.0)
    @example(d1=1.0, c1=1e305)  # refused by the operator, after the table
    def test_table_is_the_scalar_calls(self, d1, c1):
        # the potentials come from one value() call per solution over the
        # grid; each row has the bits of one scalar call per z, and a
        # refused run names the z and the coefficient that the scalar calls
        # would name first
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["greens", f"--d1={d1!r}", f"--c1={c1!r}"])
        s0 = greens.golden_solution(0, -1.0 / (4.0 * np.pi), 0.0)
        s1 = greens.golden_solution(1, d1, c1)
        try:
            rows = [[float(z).hex(), s0.value(z).hex(), s1.value(z).hex()] for z in np.linspace(0.2, 5.0, 25)]
        except DomainError as exc:
            assert code == 2 and json.loads(err.getvalue())["message"] == str(exc)
            return
        if code == 2:  # refused after the table, by the operator's range check
            assert json.loads(err.getvalue())["message"].startswith("the operator leaves the float range")
            return
        assert code in (0, 3)
        table = json.loads(out.getvalue())["results"]["table"]
        assert table["columns"] == ["z", "V0", "V1"]
        assert [[v.hex() for v in row] for row in table["rows"]] == rows


class TestProfilesTable:
    @settings(deadline=None, max_examples=30)
    @given(
        eps=st.one_of(st.floats(1e-3, 1e3), st.builds(lambda e: 10.0**e, st.floats(-90.0, 90.0))),
        r_min=st.one_of(st.just(0.0), st.floats(-10.0, 1e6)),
        r_max=st.floats(0.0, 1e6),
        n_points=st.integers(1, 60),
    )
    @example(eps=1.0, r_min=0.0, r_max=10.0, n_points=41)  # the default table
    @example(eps=1.0, r_min=-1.0, r_max=10.0, n_points=41)
    @example(eps=1e-80, r_min=0.0, r_max=1e6, n_points=7)
    def test_table_is_the_scalar_calls(self, eps, r_min, r_max, n_points):
        # the profiles come from one array call each over the grid; each row
        # has the bits of the three scalar calls at its radius, and a
        # refused grid gives the scalar calls' message
        argv = ["profiles", f"--eps={eps!r}", f"--r-min={r_min!r}", f"--r-max={r_max!r}", f"--n-points={n_points}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        try:
            rows = [[float(r).hex(), bp.f0_bps(r, eps).hex(), bp.f1_bps(r, eps).hex(), bp.f01_bps(r, eps).hex()]
                    for r in np.linspace(r_min, r_max, n_points)]
        except DomainError as exc:
            assert code == 2 and json.loads(err.getvalue())["message"] == str(exc)
            return
        assert code == 0
        table = json.loads(out.getvalue())["results"]["table"]
        assert table["columns"] == ["r", "f0", "f1", "f01"]
        assert [[v.hex() for v in row] for row in table["rows"]] == rows


class TestImport:
    def test_cli_import_loads_numpy_alone(self):
        # concurrent.futures serves only the BPS pair's worker, past its gate,
        # and is imported there; ymvac, shoot_radial included, loads no
        # module from outside the standard library but numpy
        env = dict(os.environ, PYTHONPATH=str(Path(ymvac.__file__).resolve().parents[1]))
        code = ("import sys, numpy\n"
                "before = set(sys.modules)\n"
                "import ymvac.cli\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))\n"
                "ymvac.greens.shoot_radial(0.5, 0.0, (1.0, 10.0))\n"
                "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
                "print(sorted(loaded - set(sys.stdlib_module_names) - {'numpy', 'ymvac'}))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["[]", "[]"]


class TestNoStrayWarnings:
    @staticmethod
    def _run_warnings_as_errors(argvs):
        """Exit code and stderr of each argv, all run in one interpreter that
        turns every RuntimeWarning into an error; that interpreter's own
        stderr must stay empty."""
        code = (
            "import contextlib, io, json, sys\n"
            "from ymvac.cli import main\n"
            "runs = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
            "        runs.append([main(argv), err.getvalue()])\n"
            "print(json.dumps(runs))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ymvac.__file__).resolve().parents[1]))
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", code, json.dumps(argvs)],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stderr == ""
        return json.loads(out.stdout)

    def test_default_reports_and_tiny_eps_warning_free(self):
        # the eight default reports, an extreme-but-valid core size, every
        # long-sums argv (two inertias with a side past the term cap) and a
        # ratio I/tau_E = 1e305 whose theta route squares past the float range
        argvs = [[name] for name in FAST_ARGS] + [
            ["profiles", "--eps", "1e-300"],
            ["rotator", "--inertia", "1e-7", "--tau", "0.3"],
            ["rotator", "--inertia", "1e5", "--tau", "0.01"],
            ["rotator", "--inertia", "1e-9", "--tau", "1", "--theta", "0"],
            ["rotator", "--inertia", "1e-12", "--tau", "1", "--theta", "0"],
            ["rotator", "--inertia", "1e300", "--tau", "1e-5"],
            ["interference", "--momentum", "1.3,-0.4,0.25,0.9", "--angles", "1.0,0.2,0.5"],
        ]
        assert self._run_warnings_as_errors(argvs) == [[0, ""]] * len(argvs)

    def test_out_of_range_exponents_exit_2(self):
        # tau_E/(2I) underflows to 0 or I/(2 tau_E) to a subnormal; g^2
        # underflows, g^2, g^3 or eps^3 overflows; a zero step divisor; a
        # step so small that the stencil weights overflow; a momentum whose
        # window term is singular, and one whose p_slash has a 1-norm past the
        # float range (no term is singular there)
        cases = [
            (["check-bogomolnyi", "--eps", "1e-10", "--inv-h-over-eps", "1e300"], "stencil step 1e-310 is too small"),
            (["check-gribov", "--eps", "1e-10", "--inv-h-over-r", "1e300"], "stencil step 1e-310 is too small"),
            (["rotator", "--inertia", "1e308", "--tau", "1e-10"], "normal floats"),
            (["rotator", "--inertia", "1e-308", "--tau", "1e10"], "normal floats"),
            (["check-gribov", "--inv-h-over-r", "0"], "--inv-h-over-r"),
            (["check-bogomolnyi", "--inv-h-over-eps", "0"], "--inv-h-over-eps"),
            (["pheno", "--g", "1e-200"], "g 1e-200"),
            (["pheno", "--g", "1e200"], "g 1e+200"),
            (["pheno", "--eps", "1e300"], "eps 1e+300"),
            (["winding", "--g", "1e200"], "g 1e+200"),
            (["greens", "--c1", "1e308"], "coefficient c=1e+308"),
            (["greens", "--d1", "1e308"], "coefficient d=1e+308"),
            # the n = 0 inverse's 1-norm overflows: the term is singular, with no warning
            (["interference", "--momentum", "1.1125369292536007e-308,0,0,1.1125369292536007e-308"],
             "singular matrix in average window at n=0"),
            (["interference", "--momentum", "1e308,1e308,-1e308,1e308"],
             "momentum [1e+308, 1e+308, -1e+308, 1e+308] is too large: the 1-norm of p_slash overflows"),
        ]
        runs = self._run_warnings_as_errors([argv for argv, _ in cases])
        for (_, named), (code, err) in zip(cases, runs):
            lines = err.splitlines()
            assert code == 2 and len(lines) == 1
            payload = json.loads(lines[0])
            assert payload["error"] == "validation" and named in payload["message"]

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["pheno", "--e", "1e-160"], "coupling e"),
            (["pheno", "--e", "1e160"], "coupling e"),
            (["pheno", "--e", "1e200"], "coupling e"),
            (["pheno", "--set", "n_f=1e300"], "n_f"),
            (["pheno", "--set", "f_pi=1e200"], "f_pi"),
            (["pheno", "--set", "f_pi=1e-200"], "f_pi"),
            (["pheno", "--set", "alpha_s=1e-200"], "alpha_s"),
            (["interference", "--loop-q", "1e160,0,0,0"], "loop momentum q"),
        ],
    )
    def test_out_of_range_constant_exit_2(self, capsys, argv, named):
        # squares and quotients past the float range: once an OverflowError or
        # ZeroDivisionError traceback (exit 1), or a RuntimeWarning (which
        # pytest turns into an error here) and an exit 3
        code, out, err = validation_error(capsys, *argv)
        assert code == 2 and out == ""
        assert err["error"] == "validation" and named in err["message"]

    def test_overflowing_gribov_residual_exit_3(self):
        # a residual norm past the float range (eps = 1e-100 scales the
        # residual by 1e200, so its square overflows; at eps = 1e-200 the
        # residual itself leaves float64; at r = 1e-300 eps the stencil is
        # all rounding) is refused with one line that names the radius
        cases = [
            (["check-gribov", "--eps", "1e-100"], "r = 2 eps"),
            (["check-gribov", "--eps", "1e-200"], "r = 2 eps"),
            (["check-gribov", "--radii-over-eps", "1e-300,2"], "r = 1e-300 eps"),
        ]
        runs = self._run_warnings_as_errors([argv for argv, _ in cases])
        for (_, named), (code, err) in zip(cases, runs):
            lines = err.splitlines()
            assert code == 3 and len(lines) == 1
            payload = json.loads(lines[0])
            assert payload["error"] == "consistency" and named in payload["message"]

    def test_rounding_floor_gribov_residual_exit_3(self):
        # far out the residual norms underflow to 0, both (the observed order
        # would be inf) or only the one at h (log2 of 0): refused with one
        # line that names the radius
        cases = [
            (["check-gribov", "--radii-over-eps", "1e300"], "r = 1e+300 eps"),
            (["check-gribov", "--radii-over-eps", "2,1e300"], "r = 1e+300 eps"),
            (["check-gribov", "--radii-over-eps", "5e143"], "r = 5e+143 eps"),
        ]
        runs = self._run_warnings_as_errors([argv for argv, _ in cases])
        for (_, named), (code, err) in zip(cases, runs):
            lines = err.splitlines()
            assert code == 3 and len(lines) == 1
            payload = json.loads(lines[0])
            assert payload["error"] == "consistency"
            assert named in payload["message"] and "rounding floor" in payload["message"]

    def test_pheno_range_sweep(self):
        # eps and g over the whole float range: a report either runs or is
        # refused with a line that names g and eps (never a warning, an
        # overflow, or a check that fails because a square left the floats)
        argvs = [["pheno", "--eps", f"1e{x}"] for x in [*range(-300, 301, 10), 99, 102]]
        argvs += [["pheno", "--g", f"1e{y}"] for y in range(-160, 161, 10)]
        runs = self._run_warnings_as_errors(argvs)
        for argv, (code, err) in zip(argvs, runs):
            if code == 0:
                assert err == "", argv
                continue
            lines = err.splitlines()
            assert code == 2 and len(lines) == 1, argv
            payload = json.loads(lines[0])
            assert payload["error"] == "validation", argv
            assert "coupling g" in payload["message"] and "core size eps" in payload["message"], argv
        # the default scale and the ends of the range that runs keep running
        ran = {" ".join(argv[1:]) for argv, (code, _) in zip(argvs, runs) if code == 0}
        assert {"--eps 1e0", "--eps 1e-70", "--eps 1e70", "--g 1e-150", "--g 1e100"} <= ran

    def test_greens_coefficient_sweep(self):
        # d1 and c1 up to the top of the float range: a report runs (and may
        # fail its absolute operator tolerance) or is refused with one line,
        # never a warning or a non-finite payload
        exponents = [*range(0, 301, 20), *range(301, 309)]
        argvs = [["greens", flag, f"1e{x}"] for flag in ("--c1", "--d1") for x in exponents]
        runs = self._run_warnings_as_errors(argvs)
        for argv, (code, err) in zip(argvs, runs):
            if code in (0, 3):
                assert err == "", argv
                continue
            lines = err.splitlines()
            assert code == 2 and len(lines) == 1, argv
            assert json.loads(lines[0])["error"] == "validation", argv
        assert runs[-1][0] == 2  # --d1 1e308
