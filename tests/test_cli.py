"""End-to-end tests for the command-line driver."""

import json
import platform

import numpy as np
import pytest

from xolopt import cli, distortion
from xolopt.severity import ParetoII


def run_cli(capsys, *argv):
    """Invoke the driver in-process; return (exit_code, stdout)."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


@pytest.fixture()
def loss_csv(tmp_path):
    x = ParetoII(9.0, 8.0).sample(2000, 55)
    path = tmp_path / "losses.csv"
    path.write_text("loss\n" + "\n".join(f"{v:.9g}" for v in x) + "\n")
    return path


PARETO = ["--model", "pareto", "--alpha", "9", "--lambda", "8"]


def _no_work(*args, **kwargs):
    raise AssertionError("a bad argument must stop the command before any work")


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out = run_cli(
            capsys, "optimize", *PARETO, "--rule", "decreasing",
            "--delta", "0.5", "--N", "100",
        )
        assert code == 0
        assert json.loads(out)["d_star"] == pytest.approx(0.54724741814, abs=1e-6)

    def test_domain_failure_is_two(self, capsys):
        code, out = run_cli(
            capsys, "optimize", *PARETO, "--rule", "constant", "--rho", "0.3",
            "--N", "10", "--measure", "wang:0",
        )
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "NonpositivePhi"

    @pytest.mark.parametrize("beta", ["0.95", "0.97", "0.99", "0.995"])
    def test_pht_near_one_reports_the_numerical_failure(self, capsys, beta):
        """phi's trapezoid rule accepts pht up to about 0.956; beyond, the
        failure is named as such and not as a missing optimum."""
        code, out = run_cli(
            capsys, "optimize", *PARETO, "--rule", "stddev", "--rho0", "0.5",
            "--measure", f"pht:{beta}", "--N", "100",
        )
        if beta == "0.95":
            assert code == 0
            assert json.loads(out)["d_star"] > 0.0
        else:
            assert code == 2
            assert json.loads(out)["error"]["type"] == "NumericalFailure"

    def test_usage_error_is_sixty_four(self, capsys):
        code, out = run_cli(capsys, "optimize", "--rule", "decreasing")
        assert code == 64
        assert json.loads(out)["error"]["type"] == "UsageError"

    def test_parse_error_is_sixty_five(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("loss\n1.5\nbanana\n")
        code, out = run_cli(
            capsys, "estimate", "--input", str(bad), "--rule", "decreasing",
            "--delta", "0.5",
        )
        assert code == 65
        err = json.loads(out)["error"]
        assert err["type"] == "LossParseError"
        assert err["line"] == 3

    def test_missing_input_file_is_parse_error(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "estimate", "--input", str(tmp_path / "absent.csv"),
            "--rule", "decreasing", "--delta", "0.5",
        )
        assert code == 65
        err = json.loads(out)["error"]
        assert err["type"] == "LossParseError"
        assert "line" not in err

    def test_missing_rule_parameter_is_usage(self, capsys):
        code, out = run_cli(
            capsys, "optimize", *PARETO, "--rule", "decreasing", "--N", "50"
        )
        assert code == 64

    def test_bad_grid_is_usage(self, capsys):
        code, out = run_cli(
            capsys, "analyze", "--synthetic", "--sweep", "rho", "--grid", "oops"
        )
        assert code == 64

    def test_p_grid_reaching_one_is_usage(self, capsys, tmp_path):
        """A risk level of 1 has no quantile: the grid is rejected up front,
        not turned into a gap row."""
        code, out = run_cli(
            capsys, "analyze", "--synthetic", "--sweep", "p", "--grid", "0.9:1.0:3",
            "--families", "decreasing", "--out", str(tmp_path / "ana"),
        )
        assert code == 64
        assert json.loads(out)["error"]["type"] == "UsageError"
        assert not (tmp_path / "ana").exists()

    @pytest.mark.parametrize("command", ["analyze", "estimate"])
    def test_bandwidth_is_no_option(self, capsys, tmp_path, loss_csv, command):
        """The density's bandwidth is worked out from the claims."""
        argv = (["analyze", "--synthetic", "--sweep", "rho"] if command == "analyze" else
                ["estimate", "--input", str(loss_csv), "--rule", "decreasing",
                 "--delta", "0.5"])
        code, out = run_cli(capsys, *argv, "--bandwidth", "0.4",
                            "--out", str(tmp_path / "out"))
        assert code == 64
        assert json.loads(out)["error"]["type"] == "UsageError"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["--sweep", "rho", "--level", "1.5"],
        ["--sweep", "rho", "--level", "0"],
        ["--sweep", "rho", "--fixed-p", "1.5"],
        ["--sweep", "rho", "--fixed-p", "nan"],
        ["--sweep", "p", "--fixed-rho", "-1"],
        ["--sweep", "p", "--fixed-rho", "inf"],
        ["--sweep", "rho", "--grid", "0.01:inf:3"],
        ["--sweep", "rho", "--grid", "nan:0.03:3"],
    ], ids=" ".join)
    def test_bad_analyze_value_is_usage_before_any_file(self, capsys, tmp_path, argv,
                                                        monkeypatch):
        monkeypatch.setattr(cli, "make_synthetic_losses", _no_work)
        code, out = run_cli(capsys, "analyze", "--synthetic", *argv,
                            "--out", str(tmp_path / "out"))
        assert code == 64
        assert json.loads(out)["error"]["type"] == "UsageError"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("level", ["2", "1", "0", "-0.5", "nan"])
    def test_bad_confidence_level_is_usage_before_the_estimate(self, capsys, tmp_path,
                                                               loss_csv, level, monkeypatch):
        monkeypatch.setattr(cli, "read_loss_csv", _no_work)
        code, out = run_cli(capsys, "estimate", "--input", str(loss_csv), "--rule",
                            "decreasing", "--delta", "0.5", "--level", level,
                            "--out", str(tmp_path / "out"))
        assert code == 64
        assert json.loads(out)["error"]["type"] == "UsageError"
        assert not (tmp_path / "out").exists()

    def test_version_flag(self, capsys):
        code, out = run_cli(capsys, "--version")
        assert code == 0
        assert out.startswith("xolopt ")


class TestOptimize:
    def test_stop_loss_baseline(self, capsys):
        code, out = run_cli(
            capsys, "optimize", *PARETO, "--rule", "sl", "--rho", "0.2",
            "--p", "0.75",
        )
        assert code == 0
        assert json.loads(out)["d_star"] == pytest.approx(0.163716285415, abs=1e-9)

    @pytest.mark.parametrize("rho", ["nan", "inf"])
    def test_stop_loss_rejects_a_loading_that_is_not_finite(self, capsys, rho):
        code, out = run_cli(capsys, "optimize", *PARETO, "--rule", "sl", "--rho", rho)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "DomainError"
        assert "positive and finite" in err["message"]

    @pytest.mark.parametrize("flag", [["--measure", "es:0.9"], ["--N", "25"],
                                      ["--delta", "0.5"], ["--rho0", "0.5"]], ids=" ".join)
    def test_stop_loss_rejects_a_flag_it_would_ignore(self, capsys, tmp_path, flag,
                                                      monkeypatch):
        """The stop-loss retention is the VaR, constant-loading answer at
        --rho and --p; any other measure, size or loading is a usage error,
        raised before the model is built."""
        monkeypatch.setattr(cli, "_build_model", _no_work)
        monkeypatch.setattr(cli, "stop_loss_retention", _no_work)
        code, out = run_cli(capsys, "optimize", *PARETO, "--rule", "sl", "--rho", "0.3",
                            *flag, "--out", str(tmp_path / "out"))
        assert code == 64
        err = json.loads(out)["error"]
        assert err["type"] == "UsageError" and flag[0] in err["message"]
        assert not (tmp_path / "out").exists()

    def test_spread_rules_default_portfolio_size(self, capsys):
        code, out = run_cli(
            capsys, "optimize", *PARETO, "--rule", "stddev", "--rho0", "0.5"
        )
        assert code == 0
        assert json.loads(out)["d_star"] == pytest.approx(0.818944971281, abs=1e-4)

    def test_constant_requires_portfolio_size(self, capsys):
        code, _ = run_cli(
            capsys, "optimize", *PARETO, "--rule", "constant", "--rho", "0.3"
        )
        assert code == 64

    def test_decreasing_needs_no_portfolio_size(self, capsys):
        """Its rate falls as 1/sqrt(N), so its optimum is the same at any N."""
        argv = ("optimize", *PARETO, "--rule", "decreasing", "--delta", "0.5")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        # benchmarks/refs.py's closed-form root reads 0.5472474181397066
        assert json.loads(out)["d_star"] == 0.5472474181397081
        for n in ("10", "1000"):
            code, at_n = run_cli(capsys, *argv, "--N", n)
            assert code == 0
            assert json.loads(at_n)["d_star"] == json.loads(out)["d_star"]

    def test_repeat_runs_are_byte_identical(self, capsys):
        argv = ("optimize", *PARETO, "--rule", "sharpe", "--rho0", "0.5")
        _, out1 = run_cli(capsys, *argv)
        _, out2 = run_cli(capsys, *argv)
        assert out1 == out2

    def test_out_dir_gets_result_and_manifest(self, capsys, tmp_path):
        out_dir = tmp_path / "opt"
        code, _ = run_cli(
            capsys, "optimize", *PARETO, "--rule", "decreasing", "--delta",
            "0.5", "--N", "100", "--out", str(out_dir),
        )
        assert code == 0
        result = json.loads((out_dir / "optimize.json").read_text())
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert result["rule"] == "decreasing"
        assert manifest["command"] == "optimize"
        assert manifest["seed"] == 0
        assert "created_utc" in manifest and "version" in manifest
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__


class TestEstimate:
    def test_estimate_from_csv(self, capsys, loss_csv, tmp_path):
        out_dir = tmp_path / "est"
        code, out = run_cli(
            capsys, "estimate", "--input", str(loss_csv), "--rule", "stddev",
            "--rho0", "0.5", "--out", str(out_dir),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ci"][0] < payload["d_hat"] < payload["ci"][1]
        assert payload["n"] == 2000
        manifest = json.loads((out_dir / "manifest.json").read_text())
        from xolopt.dataio import content_digest

        assert manifest["input_digest"] == content_digest(loss_csv)

    @pytest.mark.parametrize("rule", [("decreasing", "--delta", "0.5"),
                                      ("stddev", "--rho0", "0.0005"),
                                      ("sharpe", "--rho0", "500")], ids=lambda r: r[0])
    def test_claims_in_other_units_scale_the_standard_error(self, capsys, tmp_path, rule):
        """The claims times 1000, with a rule parameter that carries their
        units rescaled to match, give d_hat and its standard error times
        1000."""
        x = ParetoII(9.0, 8.0).sample(2000, 55)
        results = []
        for c, param in ((1.0, "0.5"), (1000.0, rule[2])):
            path = tmp_path / f"losses_{c:g}.csv"
            path.write_text("loss\n" + "\n".join(repr(float(c * v)) for v in x) + "\n")
            code, out = run_cli(capsys, "estimate", "--input", str(path), "--rule", rule[0],
                                rule[1], param)
            assert code == 0
            results.append(json.loads(out))
        base, scaled = results
        assert scaled["d_hat"] == pytest.approx(1000.0 * base["d_hat"], rel=1e-9)
        assert scaled["std_error"] == pytest.approx(1000.0 * base["std_error"], rel=1e-9)

    def test_claims_without_spread_are_a_domain_error(self, capsys, tmp_path):
        """Equal claims have no density bandwidth: analyze stops with the
        error, never a zero or NaN bandwidth."""
        path = tmp_path / "equal.csv"
        path.write_text("loss\n" + "1.5\n" * 100)
        code, out = run_cli(capsys, "analyze", "--input", str(path), "--sweep", "rho",
                            "--out", str(tmp_path / "ana"))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "DegenerateVariance"

    @pytest.mark.parametrize("claims,error,message", [
        ("1.0\n2.5\n0.7\n4.0\n1.1\n", "DomainError",
         "need at least 30 losses for asymptotic inference, got 5"),
        ("1.0\n", "DomainError", "empirical model needs at least 2 losses"),
        ("1.5\n" * 40, "DegenerateVariance", "a sample without spread has no density bandwidth"),
    ], ids=["five", "one", "equal"])
    def test_failed_analyze_writes_no_file(self, capsys, tmp_path, claims, error, message):
        """Every number is computed before the first file is written, so a
        claim file that analyze cannot use leaves --out empty."""
        path = tmp_path / "claims.csv"
        path.write_text("loss\n" + claims)
        out_dir = tmp_path / "ana"
        code, out = run_cli(capsys, "analyze", "--input", str(path), "--sweep", "rho",
                            "--out", str(out_dir))
        assert code == 2
        assert json.loads(out)["error"]["type"] == error
        assert json.loads(out)["error"]["message"] == message
        assert not out_dir.exists() or not any(out_dir.iterdir())


class TestSimulate:
    def test_insolvency_csv_and_json(self, capsys, tmp_path):
        out_dir = tmp_path / "sim"
        argv = (
            "simulate", "insolvency", "--N", "2", "3", "--rho", "0.2",
            "--B", "2000", "--out", str(out_dir), "--json",
        )
        code, out = run_cli(capsys, *argv)
        assert code == 0
        rows = json.loads(out)
        assert [r["n"] for r in rows] == [2, 3]
        assert all(r["prob"] == 0.0 for r in rows)
        assert (out_dir / "insolvency.csv").exists()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_insolvency_rejects_bad_portfolio_size(self, capsys, tmp_path, n):
        code, out = run_cli(
            capsys, "simulate", "insolvency", "--N", n, "--B", "1000",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert json.loads(out)["error"]["type"] == "DomainError"
        assert not (tmp_path / "insolvency.csv").exists()

    def test_replication_count_reaches_table2(self, capsys, tmp_path):
        code, out = run_cli(capsys, "simulate", "table2", "--M", "50", "--out", str(tmp_path))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "DomainError"

    @pytest.mark.parametrize("study, flag", [("table2", "--B"), ("table1", "--M"),
                                             ("insolvency", "--M")])
    def test_rejects_a_count_the_study_does_not_use(self, capsys, tmp_path, study, flag):
        """table2 draws no portfolios of its own, and only table2 has outer
        replications: a count the study would ignore is a usage error."""
        code, out = run_cli(
            capsys, "simulate", study, flag, "5000", "--N", "2", "--out", str(tmp_path),
        )
        assert code == 64
        assert json.loads(out)["error"]["type"] == "UsageError"
        assert list(tmp_path.iterdir()) == []

    def test_table1_reruns_identically(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ("simulate", "table1", "--only", "decreasing", "--B", "2000")
        code, _ = run_cli(capsys, *argv, "--out", str(a))
        assert code == 0
        run_cli(capsys, *argv, "--out", str(b))
        assert (a / "table1.csv").read_bytes() == (b / "table1.csv").read_bytes()
        manifest = json.loads((a / "manifest.json").read_text())
        assert manifest["params"]["n_values"] == [10, 25, 100]

    @pytest.mark.parametrize("study, n", [("table1", 5), ("table2", 200), ("insolvency", 4)])
    def test_portfolio_sizes_reach_every_study(self, capsys, tmp_path, study, n):
        code, out = run_cli(
            capsys, "simulate", study, "--N", str(n), "--out", str(tmp_path), "--json",
            *(["--M", "100"] if study == "table2" else ["--B", "1000"]),
            *(["--only", "decreasing"] if study != "insolvency" else []),
        )
        assert code == 0
        assert {r["n"] for r in json.loads(out)} == {n}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["params"]["n_values"] == [n]

    def test_insolvency_rejects_a_rule_filter(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "simulate", "insolvency", "--only", "sharpe", "--N", "2",
            "--B", "1000", "--out", str(tmp_path),
        )
        assert code == 64
        assert not (tmp_path / "insolvency.csv").exists()

    def test_table2_text_output(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "simulate", "table2", "--only", "decreasing",
            "--N", "200", "--M", "100", "--out", str(tmp_path),
        )
        assert code == 0
        assert "decreasing" in out
        header = (tmp_path / "table2.csv").read_text().splitlines()[0]
        assert header.startswith("rule,n,d_true,mean_d_hat")


class TestAnalyze:
    def test_synthetic_pipeline(self, capsys, tmp_path):
        out_dir = tmp_path / "ana"
        code, out = run_cli(
            capsys, "analyze", "--synthetic", "--sweep", "rho", "--grid",
            "0.004:0.03:4", "--families", "decreasing", "--out", str(out_dir),
            "--svg", "--json",
        )
        assert code == 0
        files = set(json.loads(out)["files"])
        assert {"summary.json", "lorenz.csv", "density.csv",
                "curve_decreasing.csv", "manifest.json"} <= files
        summary = json.loads((out_dir / "summary.json").read_text())
        assert set(summary) == {"count", "mean", "median", "max"}
        assert summary["count"] == 10000
        lorenz = (out_dir / "lorenz.csv").read_text().splitlines()
        assert lorenz[0] == "u,share"
        assert lorenz[1] == "0,0"
        assert lorenz[-1] == "1,1"
        curve = (out_dir / "curve_decreasing.csv").read_text().splitlines()
        assert curve[0] == "param,d_hat,ci_lo,ci_hi,error"
        assert len(curve) == 5
        svg = (out_dir / "curve_decreasing.svg").read_text()
        assert svg.startswith("<svg")

    @pytest.mark.parametrize("sweep", ["rho", "p"])
    def test_default_values_run(self, capsys, tmp_path, sweep):
        """The defaults of --level, --fixed-p, --fixed-rho and the grid pass
        the argument checks and give a curve without gaps."""
        out_dir = tmp_path / "ana"
        code, _ = run_cli(capsys, "analyze", "--synthetic", "--sweep", sweep,
                          "--families", "decreasing", "--out", str(out_dir))
        assert code == 0
        rows = (out_dir / "curve_decreasing.csv").read_text().splitlines()[1:]
        assert len(rows) == 12
        assert all(row.endswith(",") for row in rows)  # no error column

    def test_requires_an_input_source(self, capsys):
        code, _ = run_cli(capsys, "analyze", "--sweep", "rho")
        assert code == 64

    def test_curve_of_gap_markers_only_is_plotted_on_the_unit_frame(self, capsys, tmp_path):
        """Sharpe loadings from 0.5 to 2 leave the Lomax(9, 8) claims no
        interior optimum: every point of the curve is a gap marker, and its
        plot has axes but no estimate line."""
        claims = tmp_path / "claims.csv"
        x = ParetoII(9.0, 8.0).sample(2000, 1)
        claims.write_text("loss\n" + "\n".join(map(repr, x.tolist())) + "\n")
        out_dir = tmp_path / "ana"
        code, out = run_cli(capsys, "analyze", "--input", str(claims), "--sweep", "rho",
                            "--grid", "0.5:2:4", "--families", "sharpe", "--svg", "--json",
                            "--out", str(out_dir))
        assert code == 0
        assert "curve_sharpe.svg" in json.loads(out)["files"]
        rows = (out_dir / "curve_sharpe.csv").read_text().splitlines()[1:]
        assert len(rows) == 4 and all(row.startswith(tuple("0123456789")) and ",,," in row
                                      for row in rows)
        svg = (out_dir / "curve_sharpe.svg").read_text()
        assert svg.count('stroke="#dddddd"') >= 4  # grid lines on both axes
        assert "<polyline" not in svg and "<polygon" not in svg
        # the unit frame's ticks: 0 to 1 on x
        assert '>0</text>' in svg and '>1</text>' in svg


class TestSelfcheck:
    def test_all_checks_pass(self, capsys):
        code, out = run_cli(capsys, "selfcheck")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("ok ") >= 6

    @pytest.mark.parametrize("shape, scale", [(9.0, 8.0), (2.5, 3.0), (5.0, 1.0)])
    def test_quadrature_rules_match_mpmath(self, shape, scale):
        """Tanh-sinh on [0, d] and exp-sinh on (d, inf) against 30-digit
        mpmath for the four capped and excess moments of the Lomax law."""
        mp = pytest.importorskip("mpmath")
        model = ParetoII(shape, scale)
        for d in (0.3, 1.0, 4.0):
            with mp.workdps(30):
                surv = lambda x: (1 + x / mp.mpf(scale)) ** (-mp.mpf(shape))
                exact = [
                    mp.quad(surv, [0, d]),
                    mp.quad(surv, [d, mp.inf]),
                    mp.quad(lambda x: x * surv(x), [0, d]),
                    mp.quad(lambda x: (x - d) * surv(x), [d, mp.inf]),
                ]
            values = [
                cli.integrate_finite(model.survival, 0.0, d),
                cli.integrate_tail(model.survival, d),
                cli.integrate_finite(lambda x: x * model.survival(x), 0.0, d),
                cli.integrate_tail(lambda x: (x - d) * model.survival(x), d),
            ]
            for value, ref in zip(values, exact):
                assert abs(value - ref) <= 1e-13 * ref, (d, value, ref)

    def test_corrupted_reference_table_is_caught(self, capsys, monkeypatch):
        """The quantile check reads the table at run time, so a corrupted
        entry must flip the named check and the exit code."""
        bad = ((0.75, 0.7),) + tuple(distortion.REFERENCE_QUANTILES[1:])
        monkeypatch.setattr(distortion, "REFERENCE_QUANTILES", bad)
        code, out = run_cli(capsys, "selfcheck", "--json")
        assert code == 2
        report = json.loads(out)
        assert report["passed"] is False
        failed = {c["check"] for c in report["checks"] if not c["passed"]}
        assert failed == {"normal-quantile-table"}
