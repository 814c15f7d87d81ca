import json
import math
from dataclasses import fields

import numpy as np
import pytest

from tgiw import FitConfig, embedded_dataset, ks_statistic
from tgiw.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFitCommand:
    def test_fit_base_model_json(self, capsys):
        code, out, _ = run(capsys, "fit", "--data", "paper", "--model", "giw", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["fit"]["neg_log_lik"] == pytest.approx(168.638, abs=0.01)
        assert report["manifest"]["command"] == "fit"
        assert report["fit"]["converged"] is True

    def test_fit_transmuted_model(self, capsys):
        code, out, _ = run(capsys, "fit", "--data", "paper", "--model", "tgiw", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["fit"]["neg_log_lik"] == pytest.approx(166.387, abs=0.01)

    def test_fit_lse_carries_objective(self, capsys):
        code, out, _ = run(
            capsys, "fit", "--data", "paper", "--model", "tgiw", "--method", "lse", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["fit"]["method"] == "lse"
        assert 0 < report["fit"]["objective"] < report["fit"]["neg_log_lik"]

    def test_human_summary(self, capsys):
        code, out, _ = run(capsys, "fit", "--data", "paper", "--model", "giw")
        assert code == 0
        assert "-log-likelihood: 168.639" in out
        assert "converged: yes" in out

    def test_json_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "fit.json"
        code, _, _ = run(
            capsys, "fit", "--data", "paper", "--model", "giw", "--out", str(out_file)
        )
        assert code == 0
        parsed = json.loads(out_file.read_text())
        assert json.loads(json.dumps(parsed)) == parsed

    def test_numeric_determinism_across_runs(self, capsys):
        _, out1, _ = run(capsys, "fit", "--data", "paper", "--model", "tgiw", "--json")
        _, out2, _ = run(capsys, "fit", "--data", "paper", "--model", "tgiw", "--json")
        r1, r2 = json.loads(out1)["fit"], json.loads(out2)["fit"]
        assert r1 == r2  # only the manifest timestamp may differ between runs

    def test_sample_output_feeds_back_as_data(self, capsys, tmp_path):
        f = tmp_path / "draws.csv"
        assert main(
            ["sample", "--alpha", "1", "--beta", "2", "--gamma", "1", "--lambda", "0.3",
             "-n", "200", "--seed", "5", "--out", str(f)]
        ) == 0
        code, out, _ = run(capsys, "fit", "--data", str(f), "--model", "tiw", "--json")
        assert code == 0
        assert json.loads(out)["fit"]["n_obs"] == 200

    def test_bad_data_path(self, capsys):
        code, _, err = run(capsys, "fit", "--data", "/nonexistent.csv", "--model", "giw")
        assert code == 2
        assert "no such data source" in err

    def test_nonconvergence_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "fit", "--data", "paper", "--model", "tgiw", "--json",
            "--max-iter", "3",
        )
        assert code == 3
        report = json.loads(out)
        assert report["fit"]["converged"] is False

    def test_file_parse_error(self, capsys, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1.0\n-2.0\n")
        code, _, err = run(capsys, "fit", "--data", str(f), "--model", "giw")
        assert code == 2
        assert "line 2" in err

    def test_degenerate_data_is_an_input_error(self, capsys, tmp_path):
        f = tmp_path / "equal.csv"
        f.write_text("3.5\n" * 10)
        code, out, err = run(capsys, "fit", "--data", str(f), "--model", "tgiw")
        assert code == 2
        assert "equal" in err and out == ""

    def test_column_selection(self, capsys, tmp_path):
        f = tmp_path / "cols.csv"
        f.write_text("id,weeks\n1,0.4\n2,1.9\n3,3.3\n4,0.9\n")
        code, out, _ = run(
            capsys, "fit", "--data", str(f), "--column", "weeks", "--model", "ie", "--json"
        )
        assert code == 0
        assert json.loads(out)["fit"]["n_obs"] == 4


class TestCompareCommand:
    def test_published_comparison_table(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--data", "paper", "--models", "giw,tgiw", "--paper-k"
        )
        assert code == 0
        assert "Model" in out and "K-S" in out and "AICC" in out
        assert "0.1992" in out or "0.199" in out
        assert "reject H0" in out
        assert "337.27" in out and "332.77" in out

    def test_requires_two_models(self, capsys):
        code, _, err = run(capsys, "compare", "--data", "paper", "--models", "tgiw")
        assert code == 2
        assert "at least 2" in err

    def test_json_structure(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--data", "paper", "--models", "giw,tgiw", "--paper-k", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        rows = payload["comparison"]["rows"]
        assert [r["model"] for r in rows] == ["giw", "tgiw"]
        assert rows[0]["k"] == 3 and rows[1]["k"] == 4
        lr = payload["comparison"]["lr_tests"][0]
        assert lr["omega"] == pytest.approx(4.502, abs=0.02)
        assert lr["reject"] is True

    def test_synthetic_null_data_rarely_rejects(self, capsys, tmp_path):
        """Data sampled with lambda = 0 should not let the LR test reject."""
        rejected = 0
        for rep in range(5):
            f = tmp_path / f"null{rep}.csv"
            code = main(
                ["sample", "--alpha", "1", "--beta", "0.4791", "--gamma", "1.1256",
                 "--lambda", "0", "-n", "50", "--seed", str(1000 + rep), "--out", str(f)]
            )
            assert code == 0
            code, out, _ = run(
                capsys, "compare", "--data", str(f), "--models", "giw,tgiw", "--json"
            )
            payload = json.loads(out)
            if payload["comparison"]["lr_tests"][0]["reject"]:
                rejected += 1
        assert rejected == 0


class TestSampleCommand:
    def test_byte_for_byte_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--alpha", "1", "--beta", "2", "--gamma", "1",
                "--lambda", "0", "-n", "5", "--seed", "42"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        values = [float(line) for line in a.read_text().splitlines() if not line.startswith("#")]
        assert len(values) == 5 and all(v > 0 for v in values)

    def test_lambda_constraint_violation(self, capsys):
        code, _, err = run(
            capsys, "sample", "--alpha", "1", "--beta", "2", "--gamma", "1",
            "--lambda", "1.5", "-n", "5", "--seed", "1",
        )
        assert code == 2
        assert "[-1, 1]" in err

    def test_mean_against_first_moment(self, capsys, tmp_path):
        out_file = tmp_path / "draws.csv"
        code = main(
            ["sample", "--alpha", "1", "--beta", "3", "--gamma", "1", "--lambda", "0",
             "-n", "100000", "--seed", "777", "--out", str(out_file)]
        )
        assert code == 0
        draws = np.array(
            [float(v) for v in out_file.read_text().splitlines() if not v.startswith("#")]
        )
        mu = math.gamma(1 - 1 / 3)
        var = math.gamma(1 - 2 / 3) - mu * mu
        assert abs(draws.mean() - mu) <= 3 * math.sqrt(var / draws.size)


class TestTabulateCommand:
    def test_single_known_row(self, capsys):
        code, out, _ = run(
            capsys, "tabulate", "--alpha", "1", "--beta", "1", "--gamma", "1",
            "--lambda", "0", "--x-min", "1", "--x-max", "2", "--points", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,pdf,cdf,survival,hazard"
        x, f, F, s, h = map(float, lines[1].split(","))
        assert x == 1.0
        assert f == pytest.approx(0.367879, abs=1e-6)
        assert F == pytest.approx(0.367879, abs=1e-6)
        assert s == pytest.approx(0.632121, abs=1e-6)
        assert h == pytest.approx(0.581977, abs=1e-6)

    def test_cdf_column_nondecreasing(self, capsys):
        code, out, _ = run(
            capsys, "tabulate", "--alpha", "1", "--beta", "2", "--gamma", "1",
            "--lambda", "-0.5", "--x-min", "0.05", "--x-max", "40", "--points", "500",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        cdf_col = np.array([float(r[2]) for r in rows])
        assert np.all(np.diff(cdf_col) >= 0.0)

    def test_invalid_grid(self, capsys):
        code, _, err = run(
            capsys, "tabulate", "--alpha", "1", "--beta", "1", "--gamma", "1",
            "--lambda", "0", "--x-min", "2", "--x-max", "1", "--points", "10",
        )
        assert code == 2
        code, _, _ = run(
            capsys, "tabulate", "--alpha", "1", "--beta", "1", "--gamma", "1",
            "--lambda", "0", "--x-min", "1", "--x-max", "2", "--points", "1",
        )
        assert code == 2

    def test_overlay_reproduces_ks(self, capsys):
        """Max gap between the ecdf step columns and the model cdf equals K-S."""
        from tgiw import FitConfig, SubModel, fit_mle

        d = embedded_dataset()
        fr = fit_mle(d, FitConfig(model=SubModel.TGIW))
        p = fr.params
        code, out, _ = run(
            capsys, "tabulate", "--alpha", str(p.alpha), "--beta", str(p.beta),
            "--gamma", str(p.gamma), "--lambda", str(p.lam),
            "--x-min", "0.01", "--x-max", "50", "--points", "10", "--data", "paper",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].endswith("ecdf_lower,ecdf_upper")
        gaps = []
        for line in lines[1:]:
            parts = line.split(",")
            if parts[5] == "":
                continue
            F, lo, hi = float(parts[2]), float(parts[5]), float(parts[6])
            gaps.append(max(abs(hi - F), abs(F - lo)))
        assert max(gaps) == pytest.approx(ks_statistic(p, d), abs=1e-6)


class TestNegativeExponentValues:
    """argparse alone reads -9.9e-05 as an option flag; main takes it as the option's value."""

    PARAMS = ["--alpha", "1", "--beta", "2", "--gamma", "1"]
    COMMANDS = {
        "sample": ["sample", *PARAMS, "-n", "20", "--seed", "3"],
        "tabulate": ["tabulate", *PARAMS, "--x-min", "0.1", "--x-max", "10", "--points", "5"],
    }

    @pytest.mark.parametrize("command", ["sample", "tabulate"])
    def test_same_file_as_joined_form(self, capsys, tmp_path, command):
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        argv = self.COMMANDS[command]
        assert main(argv + ["--lambda", "-9.9e-05", "--out", str(spaced)]) == 0
        assert main(argv + ["--lambda=-9.9e-05", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    def test_console_script_argv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["tgiw", *self.COMMANDS["tabulate"], "--lambda", "-2.5E-3"])
        assert main() == 0
        assert len(capsys.readouterr().out.splitlines()) == 6

    def test_negative_grid_bound_is_still_an_input_error(self, capsys):
        code, _, err = run(
            capsys, "tabulate", *self.PARAMS, "--lambda", "-1e-05",
            "--x-min", "-1e-05", "--x-max", "1", "--points", "3",
        )
        assert code == 2
        assert "grid requires 0 < x-min < x-max" in err


class TestReproduceCommand:
    def test_full_run_passes(self, capsys):
        code, out, _ = run(capsys, "reproduce-paper")
        assert code == 0
        assert "overall: PASS" in out
        assert out.count("pass") >= 13

    def test_json_verdict(self, capsys):
        code, out, _ = run(capsys, "reproduce-paper", "--json")
        assert code == 0
        verdict = json.loads(out)
        assert verdict["passed"] is True
        names = {r["name"] for r in verdict["rows"]}
        assert {"giw_neg_log_lik", "tgiw_neg_log_lik", "giw_ks", "tgiw_ks", "lr_omega"} <= names
        assert all(r["passed"] for r in verdict["rows"])


class TestReportSchema:
    """The JSON reports keep their keys; the fit report gains ``information``, the manifest ``versions``."""

    MANIFEST = {"command", "source", "seed", "version", "timestamp", "config", "versions"}
    FIT = {
        "model", "mode", "method", "converged", "iterations", "neg_log_lik", "objective",
        "gradient_norm", "boundary_lambda", "n_obs", "free_names", "estimates", "params",
        "reduced", "std_errors", "conf_intervals", "conf_level", "message", "information",
    }
    INFORMATION = {"matrix", "names", "condition_number", "ill_conditioned", "singular"}

    def report(self, capsys, *argv):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        report = json.loads(out)
        assert set(report["manifest"]) == self.MANIFEST
        assert set(report["manifest"]["config"]) == {f.name for f in fields(FitConfig)}
        return report

    def check_fit(self, fit, names):
        assert set(fit) == self.FIT
        assert set(fit["params"]) == {"alpha", "beta", "gamma", "lam"}
        assert set(fit["reduced"]) == {"theta", "beta", "lam"}
        assert list(fit["estimates"]) == fit["free_names"] == names
        for field in ("std_errors", "conf_intervals"):
            assert fit[field] is None or set(fit[field]) <= set(names)
        info = fit["information"]
        if info is not None:
            assert set(info) == self.INFORMATION
            assert np.shape(info["matrix"]) == (len(info["names"]),) * 2

    @pytest.mark.parametrize(
        "argv, names",
        [
            ((), ["theta", "beta", "lam"]),
            (("--method", "lse"), ["theta", "beta", "lam"]),
            (("--mode", "full"), ["alpha", "beta", "gamma", "lam"]),
        ],
    )
    def test_fit(self, capsys, argv, names):
        report = self.report(capsys, "fit", "--data", "paper", *argv)
        assert set(report) == {"manifest", "fit"}
        self.check_fit(report["fit"], names)
        if "--method" not in argv:
            assert report["fit"]["information"]["names"] == names

    def test_compare(self, capsys):
        report = self.report(capsys, "compare", "--data", "paper", "--models", "giw,tgiw", "--paper-k")
        assert set(report) == {"manifest", "comparison"}
        comp = report["comparison"]
        assert set(comp) == {"n_obs", "paper_k", "level", "rows", "lr_tests"}
        for row, names in zip(comp["rows"], (["theta", "beta"], ["theta", "beta", "lam"])):
            assert set(row) == {"model", "k", "neg2_log_lik", "aic", "aicc", "ks", "failed", "error", "fit"}
            self.check_fit(row["fit"], names)
        (lr,) = comp["lr_tests"]
        assert set(lr) == {"restricted", "full", "omega", "df", "critical", "reject", "level"}
        assert (lr["restricted"], lr["full"], lr["df"]) == ("giw", "tgiw", 1)

    def test_reproduce_paper(self, capsys):
        report = self.report(capsys, "reproduce-paper")
        assert set(report) == {"manifest", "passed", "rows", "notes"}
        for row in report["rows"]:
            assert set(row) == {"name", "computed", "expected", "tolerance", "passed"}
