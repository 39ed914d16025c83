"""Dataset CSV handling, the stress sweep and the command-line surface."""
import io
import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from curetail import (
    DatasetFormatError,
    EmptySampleError,
    FitConfig,
    KTooSmallForStressError,
    PlottingModel,
    SurvivalSample,
    ValidationError,
    fit_estimate,
    km_fit,
    order_sample,
    parse_dataset,
    pp_fit,
    stress_sweep,
    write_dataset,
)
from curetail.cli import main
from curetail.dataio import MAX_STRESS_FRACTION, format_sig


def write_csv(path, text):
    path.write_text(text)
    return str(path)


def make_dataset(path, n=60, seed=5, p=0.8):
    rng = np.random.default_rng(seed)
    life = rng.exponential(1.0, n)
    cen = rng.uniform(0, 3, n)
    life = np.where(rng.random(n) < p, life, np.inf)
    z = np.minimum(life, cen)
    s = SurvivalSample(z, (life <= cen).astype(int))
    write_dataset(s, str(path))
    return s


class TestParseDataset:
    def test_two_valid_rows(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "time,status\n1.5,1\n2.0,0\n")
        s = parse_dataset(p)
        assert s.n == 2
        assert_array_equal(s.times, [1.5, 2.0])
        assert_array_equal(s.events, [1, 0])

    def test_stream_input(self):
        s = parse_dataset(io.StringIO("time,status\n3,1\n"))
        assert s.n == 1

    def test_header_whitespace_tolerated(self):
        s = parse_dataset(io.StringIO(" time , status \n1,0\n"))
        assert s.n == 1

    def test_bad_status_names_line(self, tmp_path):
        body = "time,status\n1,1\n2,0\n3,1\n4,2\n"
        p = write_csv(tmp_path / "d.csv", body)
        with pytest.raises(DatasetFormatError, match="line 5: status=2"):
            parse_dataset(p)

    def test_non_integer_status(self):
        with pytest.raises(DatasetFormatError, match="line 2: status='x'"):
            parse_dataset(io.StringIO("time,status\n1,x\n"))

    def test_non_numeric_time_names_line(self):
        with pytest.raises(DatasetFormatError, match="line 3: time='abc'"):
            parse_dataset(io.StringIO("time,status\n1,1\nabc,0\n"))

    def test_negative_and_non_finite_time(self):
        with pytest.raises(DatasetFormatError, match="line 2"):
            parse_dataset(io.StringIO("time,status\n-1,1\n"))
        with pytest.raises(DatasetFormatError, match="line 2"):
            parse_dataset(io.StringIO("time,status\ninf,1\n"))
        with pytest.raises(DatasetFormatError, match="line 2"):
            parse_dataset(io.StringIO("time,status\nnan,1\n"))

    def test_wrong_field_count(self):
        with pytest.raises(DatasetFormatError, match="line 2: expected 2 fields, got 3"):
            parse_dataset(io.StringIO("time,status\n1,1,9\n"))

    def test_missing_header(self):
        with pytest.raises(DatasetFormatError, match="line 1"):
            parse_dataset(io.StringIO("t,s\n1,1\n"))

    def test_empty_file(self):
        with pytest.raises(DatasetFormatError, match="empty file"):
            parse_dataset(io.StringIO(""))

    def test_empty_body(self):
        with pytest.raises(EmptySampleError):
            parse_dataset(io.StringIO("time,status\n"))

    def test_blank_lines_skipped(self):
        s = parse_dataset(io.StringIO("time,status\n1,1\n\n2,0\n"))
        assert s.n == 2

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        times = np.concatenate([[0.0, 0.1, 1 / 3, 1e-17, 1e300], rng.exponential(1.0, 40)])
        events = (rng.random(45) < 0.5).astype(int)
        s = SurvivalSample(times, events)
        path = tmp_path / "rt.csv"
        write_dataset(s, str(path))
        back = parse_dataset(str(path))
        assert_array_equal(back.times, s.times)
        assert_array_equal(back.events, s.events)

    def test_round_trip_stream(self):
        s = SurvivalSample([0.1, 2.5], [1, 0])
        buf = io.StringIO()
        write_dataset(s, buf)
        buf.seek(0)
        back = parse_dataset(buf)
        assert_array_equal(back.times, s.times)
        assert_array_equal(back.events, s.events)


class TestFormatSig:
    def test_nine_digits(self):
        assert format_sig(0.123456789123) == "0.123456789"
        assert format_sig(2.0) == "2"
        assert float(format_sig(11 / 15)) == pytest.approx(11 / 15, rel=1e-8)


class TestStressSweep:
    def setup_method(self):
        rng = np.random.default_rng(42)
        n = 400
        life = np.exp(rng.standard_normal(n))
        cen = rng.uniform(0, 6, n)
        life = np.where(rng.random(n) < 0.7, life, np.inf)
        z = np.minimum(life, cen)
        self.sample = SurvivalSample(z, (life <= cen).astype(int))

    def test_fraction_zero_equals_plain_fit(self):
        config = FitConfig(k=200, lam=0.5)
        rows = stress_sweep(self.sample, [0.0], "gumbel-pot", config)
        assert len(rows) == 1
        ordered = order_sample(self.sample)
        curve = km_fit(ordered)
        assert rows[0].p_hat == fit_estimate("gumbel-pot", ordered, curve, config)
        assert rows[0].fraction == 0.0

    def test_benchmark_column_non_increasing(self):
        config = FitConfig(k=200, lam=0.5)
        rows = stress_sweep(
            self.sample, [0.0, 0.1, 0.2, 0.3, 0.4, 0.45], "gumbel-pot", config
        )
        pns = [r.p_n for r in rows]
        assert all(b <= a for a, b in zip(pns, pns[1:]))

    def test_k_check_precedes_range_check(self):
        # k/n = 0.5 with a requested fraction 0.5: the tail-size check
        # fires even though 0.5 also exceeds the sweep range cap
        sample = SurvivalSample(np.arange(1.0, 21.0), np.ones(20, dtype=int))
        with pytest.raises(KTooSmallForStressError):
            stress_sweep(sample, [0.0, 0.5], "gumbel-pot", FitConfig(k=10))

    def test_range_cap(self):
        sample = SurvivalSample(np.arange(1.0, 21.0), np.ones(20, dtype=int))
        with pytest.raises(ValidationError):
            stress_sweep(sample, [0.0, 0.46], "gumbel-pot", FitConfig(k=19))
        assert MAX_STRESS_FRACTION == 0.45

    def test_fraction_domain(self):
        with pytest.raises(ValidationError):
            stress_sweep(self.sample, [], "gumbel-pot", FitConfig(k=200))
        with pytest.raises(ValidationError):
            stress_sweep(self.sample, [-0.1], "gumbel-pot", FitConfig(k=200))
        with pytest.raises(ValidationError):
            stress_sweep(self.sample, [1.0], "gumbel-pot", FitConfig(k=390))

    def test_unknown_estimator(self):
        with pytest.raises(ValidationError):
            stress_sweep(self.sample, [0.0], "magic", FitConfig(k=200))


class TestCli:
    def fit_json(self, capsys, argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return json.loads(out)

    def test_fit_plot_model_json(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        make_dataset(path, n=60)
        payload = self.fit_json(
            capsys,
            ["fit", "--input", str(path), "--model", "pareto", "--k", "20", "--lambda", "0"],
        )
        assert set(payload) == {
            "model", "n", "k", "lambda", "p_n", "p_hat", "slope_hat",
            "loss", "skipped_terms", "feasible_lower",
        }
        assert payload["model"] == "pareto"
        assert payload["n"] == 60
        assert payload["k"] == 20
        sample = parse_dataset(str(path))
        ordered = order_sample(sample)
        fit = pp_fit(
            ordered, km_fit(ordered), FitConfig(k=20, model=PlottingModel.PARETO, lam=0.0)
        )
        assert payload["p_hat"] == fit.p_hat
        assert payload["slope_hat"] == fit.slope_hat

    def test_fit_pot_model_json(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        make_dataset(path, n=60)
        payload = self.fit_json(
            capsys,
            ["fit", "--input", str(path), "--model", "gumbel-pot", "--k", "20"],
        )
        assert set(payload) == {
            "model", "n", "k", "lambda", "p_n", "p_k", "pi_hat",
            "scale_hat", "p_hat", "loss", "clipped",
        }
        assert payload["lambda"] == 20 / 60

    def test_fractional_k_and_lambda_rule(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        make_dataset(path, n=40)
        payload = self.fit_json(
            capsys,
            ["fit", "--input", str(path), "--model", "gumbel-pot", "--k", "0.5"],
        )
        assert payload["k"] == 20
        assert payload["lambda"] == 0.5

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "d.csv"
        make_dataset(path, n=40)
        monkeypatch.setattr("sys.stdin", io.StringIO(path.read_text()))
        payload = self.fit_json(
            capsys, ["fit", "--input", "-", "--model", "gumbel-pot", "--k", "20"]
        )
        assert payload["n"] == 40

    def test_gof_csv(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        make_dataset(path, n=60)
        out_path = tmp_path / "gof.csv"
        code = main([
            "gof", "--input", str(path), "--model", "weibull", "--k", "20",
            "--output", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) >= 3
        for line in lines[1:]:
            x, y = line.split(",")
            float(x), float(y)

    def test_gof_stdout_default(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        make_dataset(path, n=60)
        code = main(["gof", "--input", str(path), "--model", "gumbel-pot", "--k", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "x,y"

    def test_simulate_json_and_csv(self, tmp_path, capsys):
        rep_csv = tmp_path / "reps.csv"
        code = main([
            "simulate", "--scenario", "2", "--n", "60", "--reps", "2", "--p", "0.8",
            "--seed", "3", "--estimators", "pn", "--rep-csv", str(rep_csv),
        ])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["scenario"] == 2
        assert payload["k"] == 59
        assert payload["lambda"] == 59 / 60
        labels = [e["label"] for e in payload["estimators"]]
        assert labels == ["pn"]
        assert all(
            {"label", "n_success", "failures", "mean", "median", "q25", "q75", "rmse"}
            <= set(e)
            for e in payload["estimators"]
        )
        lines = rep_csv.read_text().strip().splitlines()
        assert lines[0] == "rep,estimator,p_hat,sq_error,bias"
        assert len(lines) == 3

    def test_stress_csv(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        make_dataset(path, n=100)
        code = main([
            "stress", "--input", str(path), "--fractions", "0,0.1,0.2", "--k", "0.5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "fraction,p_hat,p_n"
        assert len(lines) == 4
        assert lines[1].startswith("0,")

    def test_diag_value(self, capsys):
        payload = self.fit_json(capsys, ["diag", "--gamma-c", "-1.0", "--k", "1"])
        assert payload["sigma2_k"] == pytest.approx(0.17328679513998632, rel=1e-12)

    def test_validation_exit_code(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        make_dataset(path, n=40)
        code = main(["fit", "--input", str(path), "--model", "pareto", "--k", "1.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_bad_dataset_exit_code(self, tmp_path, capsys):
        p = write_csv(tmp_path / "bad.csv", "time,status\n1,7\n")
        code = main(["fit", "--input", p, "--model", "pareto", "--k", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "line 2" in captured.err

    def test_numerical_exit_code(self, tmp_path, capsys):
        p = write_csv(
            tmp_path / "z.csv",
            "time,status\n0,1\n0,1\n0,1\n0,1\n0,1\n1,1\n2,1\n3,1\n4,1\n",
        )
        code = main(["fit", "--input", p, "--model", "frechet-pot", "--k", "8"])
        captured = capsys.readouterr()
        assert code == 3
        assert "error:" in captured.err

    @pytest.mark.parametrize("k", ["1e400", "nan", "inf", "-inf"])
    def test_non_finite_k_exit_code(self, tmp_path, capsys, k):
        path = tmp_path / "d.csv"
        make_dataset(path, n=40)
        code = main(["fit", "--input", str(path), "--model", "pareto", f"--k={k}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_missing_input_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = main(["fit", "--input", str(missing), "--model", "pareto", "--k", "20"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and str(missing) in captured.err
        assert captured.err.count("\n") == 1

    def test_unwritable_rep_csv_exit_code(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "reps.csv"
        code = main([
            "simulate", "--scenario", "2", "--n", "60", "--reps", "2", "--p", "0.8",
            "--seed", "3", "--estimators", "pn", "--rep-csv", str(target),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert not target.parent.exists()

    def test_diag_validation_exit_code(self, capsys):
        code = main(["diag", "--gamma-c", "0.5", "--k", "1"])
        assert code == 2
