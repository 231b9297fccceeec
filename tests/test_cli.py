import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import brwplab
from brwplab import cli
from brwplab.cli import (EXIT_ASSERT, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, _git_describe,
                         _write_csv, load_config, main, resolve_config)

from conftest import read_density_csv


def run_cli(*args):
    return main(list(args))


class TestConfigParsing:
    def test_manifest_records_each_text_in_its_keys_type(self, tmp_path):
        out = tmp_path / "typed"
        code = run_cli("sample", "--out", str(out), "--target.id", "gaussian_mixture",
                       "--target.a", "2", "--grid.n", "2401.0", "--sampler.T", "none",
                       "--timing.record", "TRUE", "--sampler.method", "brwp_kde",
                       "--sampler.n_steps", "2", "--sampler.n_particles", "64",
                       "--sampler.kde_bandwidth", "auto", "--sweep.h_list", "0.5",
                       "--sampler.h=0.04")
        assert code == EXIT_OK
        text = (out / "manifest.json").read_text()
        for line in ('"target.a": 2.0,', '"grid.n": 2401,', '"sampler.T": null,',
                     '"timing.record": true', '"sampler.kde_bandwidth": "auto",',
                     '"sampler.h": 0.04,'):
            assert line in text
        assert json.loads(text)["config"]["sweep.h_list"] == [0.5]
        assert not (out / "histogram.svg").exists()

    def test_load_config_file(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "sampler.h = 0.02\n"
            "target.id = gaussian_mixture   # trailing comment\n"
            "sweep.h_list = 0.1,0.2\n")
        texts = load_config(cfg_file)
        assert [texts[k].strip() for k in ("sampler.h", "target.id", "sweep.h_list")] == \
            ["0.02", "gaussian_mixture", "0.1,0.2"]
        cfg = resolve_config(argparse.Namespace(config=cfg_file, seed=None), {})
        assert cfg["sampler.h"] == 0.02
        assert cfg["target.id"] == "gaussian_mixture"
        assert cfg["sweep.h_list"] == [0.1, 0.2]

    @pytest.mark.parametrize("argv", [("stepsize-sweep", "--sweep.h_list", ""),
                                      ("stepsize-sweep", "--sweep.h_list", ","),
                                      ("sample", "--sampler.kde_bandwidth", ",")])
    def test_list_without_a_number_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "e"
        assert run_cli(*argv, "--out", str(out)) == EXIT_CONFIG
        key = argv[1][2:]
        assert f"configuration error: {key} must hold at least one number\n" == \
            capsys.readouterr().err
        assert not out.exists()

    def test_override_without_value_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "m"
        assert run_cli("sample", "--out", str(out), "--sampler.h") == EXIT_CONFIG
        assert "configuration error: missing value for --sampler.h" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("just some words\n")
        with pytest.raises(ValueError):
            load_config(cfg_file)

    def test_cli_override_beats_file(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("sampler.n_steps = 50\n")
        out = tmp_path / "out"
        code = run_cli("sample", "--config", str(cfg_file), "--out", str(out),
                       "--sampler.n_steps", "3", "--sampler.n_particles", "64")
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["sampler.n_steps"] == 3

    def test_unknown_override_key_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli("order-check", "--out", str(out), "--order.tlist", "0.2,0.1")
        assert code == EXIT_CONFIG
        assert "unknown config key(s) order.tlist" in capsys.readouterr().err
        assert not (out / "order_check.csv").exists()

    def test_unknown_file_key_is_config_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "typo.cfg"
        cfg_file.write_text("sampler.h = 0.02\nsampler.nsteps = 3\n")
        code = run_cli("sample", "--config", str(cfg_file), "--out", str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        assert "unknown config key(s) sampler.nsteps" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key", [
        (("sample", "--target.alpha", "nan"), "target.alpha"),
        (("sample", "--target.beta", "inf"), "target.beta"),
        (("sample", "--target.id", "gaussian_mixture", "--target.sigma", "nan"), "target.sigma"),
        (("sample", "--target.id", "gauss_laplace", "--target.b", "inf"), "target.b"),
        (("sample", "--sampler.init_mean", "nan"), "sampler.init_mean"),
        (("prox-evolve", "--sampler.T", "nan"), "sampler.T"),
        (("stepsize-sweep", "--sweep.h_list", "0.1,0.05,nan"), "sweep.h_list"),
        (("sample", "--sampler.n_steps", "2.7"), "sampler.n_steps"),
        (("sample", "--target.dim", "2.5"), "target.dim"),
        (("sample", "--grid.n", "241.5"), "grid.n"),
    ])
    def test_nonfinite_or_nonintegral_value_is_config_error(self, tmp_path, capsys, argv, key):
        out = tmp_path / "v"
        assert run_cli(*argv, "--out", str(out)) == EXIT_CONFIG
        assert f"configuration error: {key} must be" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


    MIXTURE_2D = ("--target.id", "gaussian_mixture", "--target.dim", "2")

    @pytest.mark.parametrize("argv, code, message", [
        (("sample", "--target.alpha", "abc"), EXIT_CONFIG, "target.alpha must be"),
        (("sample", "--target.id", "gaussian_mixture", "--target.sigma", "abc"),
         EXIT_CONFIG, "target.sigma must be"),
        (("sample", "--target.id", "gauss_laplace", "--target.b", "abc"),
         EXIT_CONFIG, "target.b must be"),
        (("sample", "--target.alpha", "1,2"), EXIT_CONFIG, "target.alpha must be"),
        (("sample", "--sampler.h", "0.1,0.2"), EXIT_CONFIG, "sampler.h must be"),
        (("sample", "--timing.record", "maybe"), EXIT_CONFIG,
         "timing.record must be true or false"),
        (("denominator-check", "--sampler.backend", "bogus"), EXIT_CONFIG,
         "unknown backend 'bogus'"),
        (("sample", *MIXTURE_2D, "--target.a", "1,2"), EXIT_OK, ""),
        (("sample", *MIXTURE_2D, "--sampler.method", "brwp_kde",
          "--sampler.kde_bandwidth", "0.3,0.4"), EXIT_OK, ""),
        (("stepsize-sweep", "--sweep.h_list", "0.5", "--sweep.n_steps", "5"), EXIT_OK, ""),
        (("sample", "--grid.n", "241"), EXIT_OK, ""),
        (("sample", "--sampler.method", "brwp_kde", "--sampler.kde_bandwidth", "0.3,0.4"),
         EXIT_CONFIG, "sampler.kde_bandwidth has 2 entries"),
        (("sample", "--target.id", "gaussian_mixture", "--target.dim", "4",
          "--sampler.method", "ula", "--sampler.kde_bandwidth", "0.3,0.3,0.3,0.3"),
         EXIT_CONFIG, "sampler.kde_bandwidth has 4 entries"),
        (("sample", "--seed", "-1"), EXIT_CONFIG, "sampler.seed must be >= 0"),
        (("sample", "--sampler.seed", "-1"), EXIT_CONFIG, "sampler.seed must be >= 0"),
        (("sample", "--target.id", "gaussian_mixture", "--target.dim", "3",
          "--target.a", "1,2"), EXIT_CONFIG, "target.a has 2 entries but target.dim is 3"),
        (("prox-evolve", "--target.dim", "4"), EXIT_CONFIG,
         "prox-evolve needs a full grid (target.dim <= 3), got target.dim = 4"),
        (("order-check", "--target.id", "gaussian_mixture", "--target.dim", "4"), EXIT_CONFIG,
         "order-check needs a full grid (target.dim <= 3), got target.dim = 4"),
        (("denominator-check", "--target.dim", "4"), EXIT_CONFIG,
         "denominator-check needs a full grid (target.dim <= 3), got target.dim = 4"),
        # a vector target.a places the modes: --target.a 2,2,2 is the old a_mode ones
        (("sample", "--target.a_mode", "ones"), EXIT_CONFIG,
         "unknown config key(s) target.a_mode"),
        # l1_l12 reads neither sigma nor b
        (("sample", "--target.id", "l1_l12", "--target.sigma", "-1", "--target.b", "-1"),
         EXIT_OK, ""),
        # the pass/fail thresholds are constants of cli, not settings
        (("order-check", "--order.min_slope", "1.9"), EXIT_CONFIG,
         "unknown config key(s) order.min_slope"),
        (("stepsize-sweep", "--sweep.threshold", "1e-4"), EXIT_CONFIG,
         "unknown config key(s) sweep.threshold"),
        (("decay-check", "--decay.slack_factor", "0.2"), EXIT_CONFIG,
         "unknown config key(s) decay.slack_factor"),
        # prox-evolve steps by sampler.*, and the checks' T and y lists are constants
        (("prox-evolve", "--prox.iters", "5"), EXIT_CONFIG, "unknown config key(s) prox.iters"),
        (("order-check", "--order.t_list", "0.2,0.1,0.05"), EXIT_CONFIG,
         "unknown config key(s) order.t_list"),
        (("denominator-check", "--denominator.y_list", "1"), EXIT_CONFIG,
         "unknown config key(s) denominator.y_list"),
    ])
    def test_value_takes_the_type_of_its_default(self, tmp_path, capsys, argv, code, message):
        out = tmp_path / "t"
        steps = ("--sampler.n_steps", "2", "--sampler.n_particles", "64")
        assert run_cli(argv[0], "--out", str(out), *steps,
                       *argv[1:]) == code
        assert message in capsys.readouterr().err
        assert (out / "manifest.json").exists() == (code == EXIT_OK)

class TestSample:
    def test_artifacts_and_schema(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("sample", "--out", str(out), "--sampler.n_steps", "5",
                       "--sampler.n_particles", "128", "--seed", "9")
        assert code == EXIT_OK
        lines = (out / "run.csv").read_text().splitlines()
        assert lines[0] == "iter,kl,fisher,m0,tv,w2,kl_bound,wallclock_ms"
        assert len(lines) == 7  # header + initial row + 5 steps
        assert (out / "ensemble_final.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["sampler.seed"] == 9
        assert manifest["config"]["sampler.backend"] == "quadrature"
        assert "seed" not in manifest and "backend" not in manifest
        assert "git_describe" in manifest
        assert manifest["runtime_s"] > 0

    def test_rerun_byte_identical(self, tmp_path):
        args = ["sample", "--sampler.method", "ula", "--sampler.n_steps", "10",
                "--sampler.n_particles", "256", "--seed", "4"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(out_a)) == EXIT_OK
        assert run_cli(*args, "--out", str(out_b)) == EXIT_OK
        assert (out_a / "run.csv").read_bytes() == (out_b / "run.csv").read_bytes()
        assert (out_a / "ensemble_final.csv").read_bytes() == \
            (out_b / "ensemble_final.csv").read_bytes()

    def test_wallclock_column_zero_by_default(self, tmp_path):
        out = tmp_path / "t"
        run_cli("sample", "--out", str(out), "--sampler.n_steps", "2",
                "--sampler.n_particles", "64")
        rows = (out / "run.csv").read_text().splitlines()[1:]
        assert all(r.rsplit(",", 1)[1] == "0.0" for r in rows)

    def test_timing_record_prints_the_total(self, tmp_path, capsys):
        code = run_cli("sample", "--out", str(tmp_path / "t"), "--sampler.n_steps", "2",
                       "--sampler.n_particles", "64",
                       "--timing.record", "true")
        assert code == EXIT_OK
        assert re.search(r"^total \d+ ms$", capsys.readouterr().out, re.MULTILINE)

    def test_bad_target_id_is_config_error(self, tmp_path):
        code = run_cli("sample", "--out", str(tmp_path / "x"),
                       "--target.id", "swiss_roll")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("method, backend", [
        pytest.param("ula", "bogus", id="ula"),
        pytest.param("brwp_particle", "bogus", id="brwp_particle"),
        pytest.param("brwp_kde", "particle", id="particle_backend")])
    def test_unknown_backend_is_config_error(self, tmp_path, method, backend, capsys):
        code = run_cli("sample", "--out", str(tmp_path / "b"), "--sampler.method", method,
                       "--sampler.backend", backend, "--sampler.n_steps", "1",
                       "--sampler.n_particles", "16")
        assert code == EXIT_CONFIG
        assert f"unknown backend '{backend}'" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["brwp_kde", "brwp_successive", "explicit_flow"])
    def test_grid_method_needs_target_dim_grid(self, tmp_path, method, capsys):
        # a 4-D target gets the 1-D grid of its first axis: refused before the
        # first diagnostics row
        out = tmp_path / "g"
        code = run_cli("sample", "--out", str(out), "--target.dim", "4",
                       "--sampler.method", method, "--sampler.n_steps", "1",
                       "--sampler.n_particles", "16")
        assert code == EXIT_CONFIG
        assert (f"{method} needs a full grid (target.dim <= 3) of the target's dimension: "
                "target dim 4, grid dim 1") in capsys.readouterr().err
        assert not (out / "run.csv").exists()

    def test_narrow_grid_is_numerical_abort(self, tmp_path, capsys):
        code = run_cli("sample", "--out", str(tmp_path / "n"), "--target.id", "quadratic",
                       "--grid.lo", "-3", "--grid.hi", "3", "--grid.n", "241",
                       "--sampler.n_steps", "2", "--sampler.n_particles", "64")
        assert code == EXIT_NUMERIC
        assert "widen the grid" in capsys.readouterr().err

    def test_grid_past_16384_points_is_numerical_abort(self, tmp_path, capsys):
        # 6.5% of the particles start past the right edge of a 20001-point grid
        code = run_cli("sample", "--out", str(tmp_path / "n"), "--grid.lo", "-8",
                       "--grid.hi", "8", "--grid.n", "20001", "--sampler.init_sigma_sq", "20",
                       "--sampler.n_particles", "200", "--sampler.n_steps", "1")
        assert code == EXIT_NUMERIC
        assert ("6.5% of particles left the score grid (> 1%); widen the grid"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("backend, bad", [("quadrature", 634),
                                              ("laplace_denominator", 632)])
    def test_underflowing_denominator_says_why(self, tmp_path, capsys, backend, bad):
        # beta*V/2 = 40 * 12^2 / 4 = 1440 at the grid edge: exp(-beta*V/2) is 0
        out = tmp_path / "b"
        code = run_cli("sample", "--out", str(out), "--target.beta", "40",
                       "--sampler.backend", backend, "--sampler.n_steps", "2",
                       "--sampler.n_particles", "64")
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert (f"denominator table has {bad} of 2401 entries nonpositive or non-finite: "
                "beta*V/2 reaches 1440 on the grid") in err
        assert "a narrower grid or a smaller beta avoids this" in err
        assert not (out / "run.csv").exists()


    @pytest.mark.parametrize("method, h, inf_rows", [("ula", "100", [1, 2, 3]),
                                                      ("brwp_particle", "10", [3])])
    def test_kl_bound_past_the_float_range_is_inf(self, tmp_path, method, h, inf_rows):
        out = tmp_path / "s"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # h above the maximum stable stepsize
            code = run_cli("sample", "--out", str(out), "--sampler.method", method,
                           "--sampler.h", h, "--sampler.n_steps", "3",
                           "--sampler.n_particles", "64")
        assert code == EXIT_OK
        with open(out / "run.csv", newline="") as f:
            bounds = [r["kl_bound"] for r in csv.DictReader(f)]
        assert [i for i, b in enumerate(bounds) if b == "inf"] == inf_rows
        assert all(math.isfinite(float(b)) for b in bounds if b != "inf")

    def test_tiny_stepsize_gives_a_finite_bound(self, tmp_path):
        # at h = 1e-13 the bias sum's denominator |q - r| is below DENOM_EPS
        out = tmp_path / "s"
        assert run_cli("sample", "--out", str(out), "--sampler.h", "1e-13",
                       "--sampler.n_steps", "2") == EXIT_OK
        with open(out / "run.csv", newline="") as f:
            bounds = [float(r["kl_bound"]) for r in csv.DictReader(f)]
        assert len(bounds) == 3 and all(math.isfinite(b) for b in bounds)


class TestThreads:
    VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

    @pytest.mark.parametrize("argv", [("sample", "--threads"),
                                      ("sample", "--threads", "--out", "x")])
    def test_missing_value_is_config_error(self, argv, capsys):
        assert run_cli(*argv) == EXIT_CONFIG
        assert "argument --threads: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_below_one_is_config_error(self, value, tmp_path, monkeypatch, capsys):
        for var in self.VARS:
            monkeypatch.setenv(var, "7")
        assert run_cli("sample", "--threads", value, "--out", str(tmp_path / "t")) == EXIT_CONFIG
        assert f"--threads must be at least 1, got {value}" in capsys.readouterr().err
        assert [os.environ[var] for var in self.VARS] == ["7", "7", "7"]

    @pytest.mark.parametrize("argv, message", [
        (("sample", "--seed", "abc"), "argument --seed: invalid int value: 'abc'"),
        (("bogus",), "argument command: invalid choice: 'bogus'")])
    def test_argparse_error_is_config_error(self, argv, message, tmp_path, capsys):
        assert run_cli(*argv, "--out", str(tmp_path / "t")) == EXIT_CONFIG
        assert f"configuration error: {message}" in capsys.readouterr().err

    def test_overrides_inherited_thread_variables(self, tmp_path, monkeypatch):
        for var in self.VARS:
            monkeypatch.setenv(var, "7")
        code = run_cli("sample", "--threads", "1", "--out", str(tmp_path / "t"),
                       "--target.id", "swiss_roll")
        assert code == EXIT_CONFIG
        assert [os.environ[var] for var in self.VARS] == ["1", "1", "1"]

    def test_equals_form_pins_thread_variables(self, tmp_path, monkeypatch):
        for var in self.VARS:
            monkeypatch.setenv(var, "7")
        code = run_cli("sample", "--threads=1", "--out", str(tmp_path / "t"),
                       "--target.id", "swiss_roll")
        assert code == EXIT_CONFIG
        assert [os.environ[var] for var in self.VARS] == ["1", "1", "1"]

    def test_abbreviation_is_not_threads(self, tmp_path, monkeypatch, capsys):
        for var in self.VARS:
            monkeypatch.setenv(var, "7")
        assert run_cli("sample", "--thr", "1", "--out", str(tmp_path / "t")) == EXIT_CONFIG
        assert "unknown config key(s) thr" in capsys.readouterr().err
        assert [os.environ[var] for var in self.VARS] == ["7", "7", "7"]

    def test_cli_import_leaves_numpy_unloaded(self, tmp_path):
        # a fresh interpreter: --threads can only pin BLAS if numpy loads after it
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env["PYTHONPATH"] = str(Path(brwplab.__file__).resolve().parents[1])
        child = ("import sys, brwplab.cli\n"
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
        out = subprocess.run([sys.executable, "-c", child], env=env, cwd=tmp_path,
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]"


class TestOrderCheck:
    def test_quadratic_passes(self, tmp_path):
        out = tmp_path / "oc"
        code = run_cli("order-check", "--out", str(out))
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert 1.7 <= manifest["slope"] <= 2.3
        assert manifest["runtime_s"] > 0
        assert (out / "order_check.csv").exists()

    def test_runs_the_configured_backend(self, tmp_path):
        tables = []
        for backend in ("quadrature", "laplace_denominator"):
            out = tmp_path / backend
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")     # Laplace mass drift at T = 0.2
                code = run_cli("order-check", "--out", str(out),
                               "--sampler.backend", backend)
            assert code == EXIT_OK
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert config["sampler.backend"] == backend
            tables.append((out / "order_check.csv").read_text())
        assert tables[0] != tables[1]

    def test_narrow_initial_density_gets_a_verdict(self, tmp_path):
        # N(0, 0.05) underflows to 0 at the grid edge; the expansion
        # rho0 + T*fp_rhs(rho0) needs no positive rho0, so the check runs
        out = tmp_path / "oc_narrow"
        code = run_cli("order-check", "--out", str(out),
                       "--sampler.init_sigma_sq", "0.05")
        assert code == EXIT_ASSERT
        with open(out / "order_check.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4
        assert all(math.isfinite(float(r["max_err"])) for r in rows)

    def test_grid_below_five_points_is_config_error(self, tmp_path, capsys):
        code = run_cli("order-check", "--out", str(tmp_path / "oc4"), "--grid.n", "4")
        assert code == EXIT_CONFIG
        assert "fp_rhs needs at least 5 points per axis" in capsys.readouterr().err


class TestDenominatorCheck:
    def test_quadratic_passes(self, tmp_path):
        out = tmp_path / "dc"
        code = run_cli("denominator-check", "--out", str(out))
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert all(s >= 1.7 for s in manifest["slopes"].values())

    def test_exact_point_passes_on_its_error(self, tmp_path, capsys):
        # at d = 2, y = 0 the Laplace form of a quadratic is exact: abs_err is
        # rounding at every T, and its slope (about 0.01) fits that rounding
        out = tmp_path / "dc2"
        assert run_cli("denominator-check", "--out", str(out), "--target.dim", "2") == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.endswith("at every T)") for line in lines] == [False, True, False]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["slopes"]["0.0"] < cli.MIN_SLOPE <= manifest["slopes"]["2.0"]
        with open(out / "denominator_check.csv") as f:
            at_zero = [r for r in csv.DictReader(f) if r["y"] == "0.0"]
        assert all(float(r["abs_err"]) < cli.EXACT_REL_ERR * float(r["exact"])
                   for r in at_zero)

    def test_nonsmooth_kink_still_fails(self, tmp_path):
        # y = -2 sits on the L1 kink of gauss_laplace: slope about 0.39, not exact
        out = tmp_path / "dcgl"
        assert run_cli("denominator-check", "--out", str(out),
                       "--target.id", "gauss_laplace") == EXIT_ASSERT
        assert json.loads((out / "manifest.json").read_text())["slopes"]["-2.0"] < 0.5

    def test_underflowing_integrand_says_so(self, tmp_path, capsys, monkeypatch):
        # at y = 100 the integrand's exponent is below -9700 over the whole ±12 grid
        monkeypatch.setattr(cli, "CHECK_Y", (100.0,))
        code = run_cli("denominator-check", "--out", str(tmp_path / "d"))
        assert code == EXIT_NUMERIC
        assert ("denominator integrand underflows to 0 everywhere on the grid at y = [100.0]"
                in capsys.readouterr().err)


class TestDecayCheck:
    def test_short_quadratic_run_passes(self, tmp_path):
        out = tmp_path / "decay"
        code = run_cli("decay-check", "--out", str(out), "--sampler.n_steps", "30",
                       "--sampler.n_particles", "64")
        assert code == EXIT_OK

    def test_needs_alpha(self, tmp_path):
        code = run_cli("decay-check", "--out", str(tmp_path / "d2"),
                       "--target.id", "gaussian_mixture")
        assert code == EXIT_CONFIG


class TestStepsizeSweep:
    def test_small_sweep_reports(self, tmp_path):
        out = tmp_path / "sw"
        code = run_cli("stepsize-sweep", "--out", str(out),
                       "--sweep.h_list", "0.2,0.4", "--sweep.n_steps", "40")
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "h,steps_to_threshold,stable,terminal_kl,min_kl"
        assert len(lines) == 3
        assert (out / "law_h_0.2.csv").exists()

    def test_default_sweep_summary(self, tmp_path):
        # the law evolution folds on blur noise in the tails if the blur loses
        # relative accuracy there; this summary then changes
        out = tmp_path / "sw"
        code = run_cli("stepsize-sweep", "--out", str(out), "--sweep.n_steps", "40")
        assert code == EXIT_OK
        with open(out / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["steps_to_threshold"] for r in rows] == ["9", "4", "2", "-1"]
        assert [r["stable"] for r in rows] == ["true", "true", "true", "false"]

    def test_manifest_records_paper_stepsizes(self, tmp_path):
        # 1/(3 alpha) and 2/(3 alpha) for the default quadratic, alpha = 1
        out = tmp_path / "sw"
        code = run_cli("stepsize-sweep", "--out", str(out), "--sweep.h_list", "0.2",
                       "--sweep.n_steps", "5")
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["optimal_stepsize"] == pytest.approx(1 / 3, rel=1e-15)
        assert manifest["max_stepsize"] == pytest.approx(2 / 3, rel=1e-15)
        assert [r["h"] for r in manifest["summary"]] == [0.2]
        mix = tmp_path / "mix"
        code = run_cli("stepsize-sweep", "--out", str(mix), "--target.id", "gaussian_mixture",
                       "--sweep.h_list", "0.2", "--sweep.n_steps", "5")
        assert code == EXIT_OK
        manifest = json.loads((mix / "manifest.json").read_text())
        assert "optimal_stepsize" not in manifest and "max_stepsize" not in manifest

    def test_law_without_mass_is_unstable(self, tmp_path):
        # the law leaves the grid at step 2: its file holds the rows of steps 0 and 1
        out = tmp_path / "sw"
        code = run_cli("stepsize-sweep", "--out", str(out), "--target.alpha", "3",
                       "--sampler.init_mean", "9", "--sampler.init_sigma_sq", "0.05",
                       "--sweep.h_list", "1", "--sweep.n_steps", "5")
        assert code == EXIT_OK
        assert len((out / "law_h_1.csv").read_text().splitlines()) == 1 + 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert [r["stable"] for r in manifest["summary"]] == [False]

    @pytest.mark.parametrize("h_list, name", [("0.1666666,0.1666667", "law_h_0.166667.csv"),
                                              ("0.2,0.4,0.2", "law_h_0.2.csv")])
    def test_stepsizes_sharing_a_law_file_are_config_error(self, tmp_path, capsys,
                                                           h_list, name):
        out = tmp_path / "sw"
        code = run_cli("stepsize-sweep", "--out", str(out), "--sweep.h_list", h_list,
                       "--sweep.n_steps", "5")
        assert code == EXIT_CONFIG
        assert f"sweep.h_list gives two stepsizes one law file {name}" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_empty_h_list_is_config_error(self, tmp_path):
        code = run_cli("stepsize-sweep", "--out", str(tmp_path / "sw2"),
                       "--sweep.h_list", "")
        assert code == EXIT_CONFIG

    def test_needs_a_1d_target(self, tmp_path, capsys):
        out = tmp_path / "sw"
        code = run_cli("stepsize-sweep", "--out", str(out), "--target.dim", "2")
        assert code == EXIT_CONFIG
        assert "configuration error: stepsize-sweep runs on 1-D targets" in \
            capsys.readouterr().err
        assert not any(out.iterdir())


class TestProxEvolve:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "pe"
        code = run_cli("prox-evolve", "--out", str(out),
                       "--target.id", "gaussian_mixture", "--sampler.h", "0.05",
                       "--sampler.n_steps", "8", "--sampler.diag_every", "3")
        assert code == EXIT_OK
        # every sampler.diag_every steps, and at the last
        assert sorted(p.name for p in out.glob("density_iter_*.csv")) == \
            [f"density_iter_{k:04d}.csv" for k in (0, 3, 6, 8)]
        assert (out / "l1_error.csv").exists()
        rows = (out / "l1_error.csv").read_text().splitlines()
        assert rows[0] == "iter,l1,kl,prenorm_mass"
        # every pre-normalization mass within the contract window
        masses = [float(r.split(",")[3]) for r in rows[1:]]
        assert all(abs(m - 1.0) <= 5e-3 for m in masses)

    # SamplerConfig refuses both counts, for prox-evolve as for sample
    BAD_COUNT_MESSAGES = {"--sampler.n_steps": "n_steps must be >= 0 and n_particles >= 2",
                          "--sampler.diag_every": "diag_every must be >= 1"}

    @pytest.mark.parametrize("argv", [("--sampler.n_steps", "-3"),
                                      ("--sampler.diag_every", "0")])
    def test_bad_count_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "pe_bad"
        assert run_cli("prox-evolve", "--out", str(out), *argv) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"configuration error: {self.BAD_COUNT_MESSAGES[argv[0]]}\n"
        assert not (out / "l1_error.csv").exists()

    def test_density_csv_roundtrip(self, tmp_path):
        out = tmp_path / "pe2"
        run_cli("prox-evolve", "--out", str(out), "--sampler.n_steps", "2")
        g = read_density_csv(out / "density_iter_0002.csv")
        assert g.mass() == pytest.approx(1.0, abs=1e-9)


RERUN_ARGS = {
    "prox-evolve": ("--sampler.n_steps", "4", "--sampler.diag_every", "2"),
    "order-check": (),
    "denominator-check": (),
    "decay-check": ("--sampler.n_steps", "5", "--sampler.n_particles", "64"),
    "stepsize-sweep": ("--sweep.h_list", "0.2,0.4", "--sweep.n_steps", "10"),
}


@pytest.mark.parametrize("command", sorted(RERUN_ARGS))
def test_rerun_byte_identical(command, tmp_path):
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        assert run_cli(command, *RERUN_ARGS[command], "--out", str(out)) == EXIT_OK
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "manifest.json" in names and len(names) > 1
    for name in names:
        a, b = ((out / name).read_bytes() for out in outs)
        if name == "manifest.json":    # runtime_s is the one field that varies
            a, b = ({**json.loads(x), "runtime_s": None} for x in (a, b))
        assert a == b, name


def test_csv_writer_fields(tmp_path):
    _write_csv(tmp_path / "bare.csv", None, [[-1.5, 0.1]])
    assert (tmp_path / "bare.csv").read_text() == "-1.5,0.1\n"
    # np.float64 is written as its Python float: numpy 2 reprs it as np.float64(0.25)
    _write_csv(tmp_path / "headed.csv", "a,b,c,d,e",
               [(True, 3, 0.1, np.float64(0.25), float("nan"))])
    assert (tmp_path / "headed.csv").read_text() == "a,b,c,d,e\ntrue,3,0.1,0.25,nan\n"


def test_git_describe_is_the_package_checkout_from_any_directory(tmp_path, monkeypatch):
    _git_describe.cache_clear()
    monkeypatch.chdir(Path(brwplab.__file__).parent)
    in_package = _git_describe()
    _git_describe.cache_clear()
    monkeypatch.chdir(tmp_path)
    assert _git_describe() == in_package


def test_git_describe_runs_once_per_process(tmp_path, monkeypatch):
    calls = []

    def counting_run(*args, **kwargs):
        calls.append(args)
        return subprocess.CompletedProcess(args, 0, stdout="abc1234\n", stderr="")
    monkeypatch.setattr(cli.subprocess, "run", counting_run)
    _git_describe.cache_clear()
    try:
        for out in ("a", "b"):
            assert run_cli("denominator-check", "--out", str(tmp_path / out)) == EXIT_OK
    finally:
        _git_describe.cache_clear()     # no later test may see the stub's answer
    assert len(calls) == 1
    for out in ("a", "b"):
        assert json.loads((tmp_path / out / "manifest.json").read_text())["git_describe"] \
            == "abc1234"


def test_unknown_positional_is_config_error(tmp_path):
    assert run_cli("sample", "bogus", "--out", str(tmp_path / "q")) == EXIT_CONFIG


@pytest.mark.parametrize("argv", [[], ["--out", "x"]])
def test_no_command_is_config_error(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    assert "configuration error: the following arguments are required: command" in \
        capsys.readouterr().err


class TestProxEvolveQuantitative:
    """Preset evolution runs at expected accuracy levels."""

    def _l1_after(self, target_id, t_step, iters, tmp_path, tag):
        out = tmp_path / f"pe_{tag}"
        code = run_cli("prox-evolve", "--out", str(out),
                       "--target.id", target_id, "--sampler.h", str(t_step),
                       "--sampler.n_steps", str(iters),
                       "--sampler.diag_every", str(iters))
        assert code == EXIT_OK
        rows = (out / "l1_error.csv").read_text().splitlines()[1:]
        return [float(r.split(",")[1]) for r in rows]

    def test_mixture_long_run_converges(self, tmp_path):
        l1 = self._l1_after("gaussian_mixture", 0.01, 400, tmp_path, "long")
        assert l1[-1] <= 0.05

    def test_larger_step_larger_error_at_matched_time(self, tmp_path):
        # physical time 1.5 both ways: 150 steps of T=0.01 vs 15 of T=0.1
        l1_fine = self._l1_after("gaussian_mixture", 0.01, 150, tmp_path, "fine")
        l1_coarse = self._l1_after("gaussian_mixture", 0.1, 15, tmp_path, "coarse")
        assert l1_coarse[-1] > l1_fine[-1]

    def test_nonsmooth_mixture_error_monotone_after_burn_in(self, tmp_path):
        l1 = self._l1_after("l1_l12", 0.05, 50, tmp_path, "l1")
        tail = l1[5:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


class TestSampleQuantitative:
    def test_mixture_mode_balance(self, tmp_path):
        out = tmp_path / "mix"
        code = run_cli("sample", "--out", str(out),
                       "--target.id", "gaussian_mixture",
                       "--sampler.method", "brwp_successive",
                       "--sampler.h", "0.02", "--sampler.n_steps", "50",
                       "--sampler.n_particles", "500")
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert 0.3 <= manifest["mode_balance"] <= 0.7

    def test_gauss_laplace_kl_decreases_with_iterations(self, tmp_path):
        out = tmp_path / "gl"
        code = run_cli("sample", "--out", str(out),
                       "--target.id", "gauss_laplace",
                       "--sampler.method", "brwp_successive",
                       "--sampler.h", "0.02", "--sampler.n_steps", "20",
                       "--sampler.n_particles", "200")
        assert code == EXIT_OK
        rows = (out / "run.csv").read_text().splitlines()[1:]
        kl = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        assert kl[20] < kl[10]

    def test_ula_on_mixture_completes(self, tmp_path):
        out = tmp_path / "ula_mix"
        code = run_cli("sample", "--out", str(out),
                       "--target.id", "gaussian_mixture",
                       "--sampler.method", "ula", "--sampler.h", "0.02",
                       "--sampler.n_steps", "50",
                       "--sampler.n_particles", "500")
        assert code == EXIT_OK
