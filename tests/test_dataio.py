"""Dataset CSV handling, the stress sweep and the command-line surface."""
import io
import json
import os
import subprocess
import sys

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
from curetail import cli, plotfit, potfit
from curetail.cli import MAX_SIZE, main
from curetail.dataio import MAX_STRESS_FRACTION, format_sig
from curetail.estimators import MODEL_NAMES


def write_csv(path, text):
    path.write_text(text)
    return str(path)


def cli_env():
    """Environment for a ``python -m curetail.cli`` subprocess that imports
    this checkout's package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


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

    def test_utf8_bom_and_crlf(self, tmp_path):
        # what spreadsheet "CSV UTF-8" exports write
        plain = tmp_path / "plain.csv"
        want = make_dataset(plain, n=30)
        text = plain.read_text()
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())
        for got in (parse_dataset(str(bom)), parse_dataset(io.StringIO("\ufeff" + text))):
            assert_array_equal(got.times, want.times)
            assert_array_equal(got.events, want.events)
        # only a leading mark is dropped, and only one
        with pytest.raises(DatasetFormatError, match="line 1"):
            parse_dataset(io.StringIO("\ufeff\ufefftime,status\n1,1\n"))

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

    @pytest.mark.parametrize("wrap", [np.asarray, iter], ids=["array", "iterator"])
    def test_any_iterable_of_fractions(self, wrap):
        config = FitConfig(k=200, lam=0.5)
        fractions = [0.0, 0.1, 0.2]
        rows = stress_sweep(self.sample, wrap(fractions), "gumbel-pot", config)
        assert rows == stress_sweep(self.sample, fractions, "gumbel-pot", config)

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

    def test_non_utf8_dataset_exit_code(self, tmp_path, capsys):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"time,status\n1,\xff\n")
        code = main(["fit", "--input", str(p), "--model", "pareto", "--k", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: dataset is not UTF-8 text" in captured.err and not captured.out

    def test_non_utf8_stdin_exit_code(self):
        # a real stdin pipe, whose default decoding would escape the 0xff byte
        argv = [sys.executable, "-m", "curetail.cli", "fit", "--input", "-",
                "--model", "pareto", "--k", "2"]
        bad = subprocess.run(argv, input=b"time,status\n1,\xff\n", capture_output=True,
                             env=cli_env(), timeout=120)
        assert bad.returncode == 2 and bad.stdout == b""
        assert bad.stderr == b"error: dataset is not UTF-8 text\n"
        bom = b"\xef\xbb\xbftime,status\r\n" + b"".join(
            b"%d,%d\r\n" % (t, t % 2) for t in range(1, 9))
        good = subprocess.run(argv, input=bom, capture_output=True, env=cli_env(), timeout=120)
        assert good.returncode == 0 and json.loads(good.stdout)["n"] == 8

    def test_numerical_exit_code(self, tmp_path, capsys):
        p = write_csv(
            tmp_path / "z.csv",
            "time,status\n0,1\n0,1\n0,1\n0,1\n0,1\n1,1\n2,1\n3,1\n4,1\n",
        )
        code = main(["fit", "--input", p, "--model", "frechet-pot", "--k", "8"])
        captured = capsys.readouterr()
        assert code == 3
        assert "error:" in captured.err

    def test_zero_threshold_gof_exit_code(self, tmp_path, capsys):
        p = write_csv(tmp_path / "z.csv", "time,status\n0,1\n0,1\n0,1\n0,0\n1,1\n2,1\n3,0\n")
        code = main(["gof", "--input", p, "--model", "pareto", "--k", "4"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: log excesses need a positive threshold, got 0.0\n"

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_k_past_the_sample_exit_code(self, tmp_path, capsys, model):
        # every fit reads the tail record first, so all five name one k range
        p = write_csv(tmp_path / "six.csv", "time,status\n1,1\n2,0\n3,1\n4,1\n5,0\n6,0\n")
        code = main(["fit", "--input", p, "--model", model, "--k", "6"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: k must be an integer in [2, 5], got 6\n"

    def test_negative_seed_exit_code(self, capsys):
        code = main(["simulate", "--scenario", "2", "--n", "60", "--reps", "2", "--p", "0.8",
                     "--seed", "-1", "--estimators", "pn"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("model", ["gumbel-pot", "frechet-pot"])
    def test_gof_without_an_exceedance_scale_exit_code(self, tmp_path, capsys, model):
        # the largest time is an event, so p_n = 1 and the boundary fit
        # identifies no scale to plot against
        rng = np.random.default_rng(1)
        times = rng.exponential(1.0, 60)
        events = (rng.random(60) < 0.7).astype(int)
        path = tmp_path / "d.csv"
        write_dataset(SurvivalSample(times, events), str(path))
        argv = ["--input", str(path), "--model", model, "--k", "2"]
        fit = self.fit_json(capsys, ["fit", *argv])
        assert fit["p_n"] == 1.0 and fit["scale_hat"] is None
        code = main(["gof", *argv])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("k", ["1e400", "nan", "inf", "-inf"])
    def test_non_finite_k_exit_code(self, tmp_path, capsys, k):
        path = tmp_path / "d.csv"
        make_dataset(path, n=40)
        code = main(["fit", "--input", str(path), "--model", "pareto", f"--k={k}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("lam", ["-1", "nan", "inf", "1e400"])
    def test_out_of_range_lambda_exit_code(self, tmp_path, capsys, lam):
        path = tmp_path / "d.csv"
        make_dataset(path, n=40)
        code = main(["fit", "--input", str(path), "--model", "pareto", "--k", "20",
                     f"--lambda={lam}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: lam must be a finite non-negative real, got ")
        assert captured.err.count("\n") == 1

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

    @pytest.mark.parametrize("argv", [
        ["diag", "--gamma-c", "-0.5", "--k", str(MAX_SIZE + 1)],
        ["simulate", "--scenario", "2", "--n", str(MAX_SIZE + 1), "--reps", "1", "--p", "0.8",
         "--estimators", "pn", "--rep-csv", "-"],
        ["simulate", "--scenario", "2", "--reps", str(MAX_SIZE + 1), "--n", "20", "--p", "0.8",
         "--estimators", "pn", "--rep-csv", "-"],
    ])
    def test_size_cap_exit_code(self, argv, capsys, monkeypatch):
        # the cap must fire before anything of that size is built
        def refuse(*args, **kwargs):
            raise AssertionError("size cap did not fire before the computation")

        monkeypatch.setattr(cli, "sigma2_k", refuse)
        monkeypatch.setattr(cli, "run_scenario", refuse)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {argv[3]} must be at most {MAX_SIZE}, got {MAX_SIZE + 1}\n"

    @pytest.mark.parametrize("argv", [
        ["fit", "--model", "pareto", "--k", "abc"],
        ["fit", "--model", "pareto", "--k", "20", "--lambda", "abc"],
        ["stress", "--fractions", "0.1,x"],
        ["fit", "--model", "pareto", "--k", "20", "--tol", "inf"],
    ])
    def test_unparsable_value_exit_code(self, demo_csv, capsys, argv):
        code = main([argv[0], "--input", demo_csv, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_tolerance_as_wide_as_the_interval_stops_refinement(self, demo_csv, capsys,
                                                                 monkeypatch, model):
        # with --tol 1 a fit makes its grid call (512 levels and the notch)
        # and then, in each basin it refines (at most three), the one call
        # of the first inner pair, after which the bracket is already narrow
        kernel, sizes = plotfit.profile_levels, []

        def recording(*args):
            profile = kernel(*args)

            def recorded(levels):
                sizes.append(len(levels))
                return profile(levels)

            return recorded

        monkeypatch.setattr(plotfit, "profile_levels", recording)
        monkeypatch.setattr(potfit, "profile_levels", recording)
        payload = self.fit_json(capsys, ["fit", "--input", demo_csv, "--model", model,
                                         "--k", "0.3", "--tol", "1"])
        assert payload["model"] == model
        assert sizes[0] == 513
        assert 1 <= len(sizes) - 1 <= 3 and set(sizes[1:]) == {2}

    def test_fractional_k_rounds_down(self, demo_csv, capsys):
        # 0.333 * 400 = 133.2 is no float-dust integer, so the floor applies
        payload = self.fit_json(capsys, ["fit", "--input", demo_csv, "--model", "pareto",
                                         "--k", "0.333"])
        assert payload["k"] == 133 and payload["lambda"] == 133 / 400

    # --- the README's command-line examples, pinned byte for byte -------------

    @pytest.fixture(scope="class")
    def demo_csv(self, tmp_path_factory):
        # the README's library snippet, written as its demo.csv
        rng = np.random.default_rng(7)
        n = 400
        life = np.where(rng.random(n) < 0.8, rng.weibull(0.9, n) * 1.5, np.inf)
        cen = rng.uniform(0.0, 6.0, n)
        sample = SurvivalSample(np.minimum(life, cen), (life <= cen).astype(int))
        path = tmp_path_factory.mktemp("readme") / "demo.csv"
        write_dataset(sample, str(path))
        return str(path)

    @pytest.mark.parametrize("argv, expected", [
        (["fit", "--model", "gumbel-pot", "--k", "0.5"],
         '{"model": "gumbel-pot", "n": 400, "k": 200, "lambda": 0.5, '
         '"p_n": 0.7835656932666342, "p_k": 0.615013508002314, '
         '"pi_hat": 0.7055044318600823, "scale_hat": 1.8200347467726705, '
         '"p_hat": 0.8188812475471348, "loss": 2.6858322712767366, "clipped": false}\n'),
        (["fit", "--model", "weibull", "--k", "120", "--lambda", "0.25"],
         '{"model": "weibull", "n": 400, "k": 120, "lambda": 0.25, '
         '"p_n": 0.7835656932666342, "p_hat": 0.9245852394890266, '
         '"slope_hat": 0.6692137163782624, "loss": 0.11047705726422055, '
         '"skipped_terms": 0, "feasible_lower": 0.7835656932666342}\n'),
        (["stress", "--k", "0.4", "--fractions", "0,0.1,0.2"],
         "fraction,p_hat,p_n\n"
         "0,0.81922604,0.783565693\n"
         "0.1,0.720667234,0.720667234\n"
         "0.2,0.628096302,0.628096302\n"),
        (["gof", "--model", "gumbel-pot", "--k", "0.5"],
         "x,y\n0.00193904815,-0\n0.011320128,0.0130100256\n"),
    ])
    def test_readme_dataset_examples(self, demo_csv, capsys, argv, expected):
        code = main([argv[0], "--input", demo_csv, *argv[1:]])
        out = capsys.readouterr().out
        assert code == 0
        if argv[0] == "gof":
            # the README shows the first three lines only
            out = "".join(out.splitlines(keepends=True)[:3])
        assert out == expected

    def test_readme_diag_example(self, capsys):
        assert main(["diag", "--gamma-c", "-1", "--k", "100"]) == 0
        assert capsys.readouterr().out == (
            '{"gamma_c": -1.0, "k": 100, "sigma2_k": 0.22641010998412175}\n'
        )

    def test_readme_simulate_example(self, tmp_path, capsys):
        rep_csv = tmp_path / "reps.csv"
        code = main([
            "simulate", "--scenario", "2", "--n", "200", "--reps", "50", "--p", "0.9",
            "--seed", "1", "--estimators", "gumbel-pot", "--rep-csv", str(rep_csv),
        ])
        assert code == 0
        assert capsys.readouterr().out == (
            '{"scenario": 2, "n": 200, "reps": 50, "p": 0.9, "seed": 1, "k": 199, '
            '"lambda": 0.995, "estimators": [{"label": "gumbel-pot", "n_success": 50, '
            '"failures": 0, "mean": 0.8945957472966671, "median": 0.8882838496368062, '
            '"q25": 0.8574736509991843, "q75": 0.9401365799457161, '
            '"rmse": 0.059507092461336716}, {"label": "pn", "n_success": 50, '
            '"failures": 0, "mean": 0.8454521730656517, "median": 0.8526899928508218, '
            '"q25": 0.8068613809186729, "q75": 0.8796754812198433, '
            '"rmse": 0.07367289564447156}]}\n'
        )
        lines = rep_csv.read_text().splitlines(keepends=True)
        assert lines[:2] == [
            "rep,estimator,p_hat,sq_error,bias\n",
            "0,gumbel-pot,0.886438128,0.000183924378,-0.0135618722\n",
        ]
        assert len(lines) == 101

    @pytest.mark.parametrize("model, keys", [
        ("pareto", "p_n p_hat slope_hat loss skipped_terms feasible_lower"),
        ("weibull", "p_n p_hat slope_hat loss skipped_terms feasible_lower"),
        ("lognormal", "p_n p_hat slope_hat loss skipped_terms feasible_lower"),
        ("gumbel-pot", "p_n p_k pi_hat scale_hat p_hat loss clipped"),
        ("frechet-pot", "p_n p_k pi_hat scale_hat p_hat loss clipped"),
    ])
    def test_fit_key_order(self, demo_csv, capsys, model, keys):
        payload = self.fit_json(
            capsys, ["fit", "--input", demo_csv, "--model", model, "--k", "0.3"]
        )
        assert list(payload) == ["model", "n", "k", "lambda", *keys.split()]

    @pytest.mark.parametrize("grid", [MAX_SIZE + 1, 10**20])
    @pytest.mark.parametrize("verb", ["fit", "gof", "stress"])
    def test_grid_cap_exit_code(self, demo_csv, capsys, monkeypatch, verb, grid):
        # the cap must fire before a grid of that size is built
        def refuse(*args, **kwargs):
            raise AssertionError("grid cap did not fire before the fit")

        for name in ("fit_fields", "fit_series", "stress_sweep"):
            monkeypatch.setattr(cli, name, refuse)
        code = main([
            verb, "--input", demo_csv, "--model", "pareto", "--k", "0.5", "--grid", str(grid),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --grid must be at most {MAX_SIZE}, got {grid}\n"

    @pytest.mark.parametrize("argv", [
        ["diag", "--gamma-c", "-1", "--k", "100"],
        # more than one stdout buffer, so the write itself fails, not the last flush
        ["gof", "--model", "weibull", "--k", "399", "--input"],
    ])
    def test_closed_stdout_exits_quietly(self, demo_csv, argv):
        if argv[0] == "gof":
            argv = [*argv, demo_csv]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "curetail.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=cli_env(), timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""
