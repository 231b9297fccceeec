"""tools/plot.py draws each command's figures from the run directory it wrote."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from brwplab.cli import EXIT_OK, main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "plot.py"
_spec = importlib.util.spec_from_file_location("plot_tool", TOOL)
plot_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(plot_tool)

# command -> (CLI arguments, the figures the tool draws from its directory)
FIGURE_RUNS = {
    "sample": (("--sampler.method", "ula", "--sampler.n_steps", "10",
                "--sampler.n_particles", "256", "--seed", "4"), ["histogram.svg"]),
    "prox-evolve": (("--target.id", "gaussian_mixture", "--sampler.n_steps", "8",
                     "--sampler.diag_every", "4"), ["l1_error.svg", "overlay.svg"]),
    "order-check": ((), ["order_check.svg"]),
    "decay-check": (("--sampler.n_steps", "5", "--sampler.n_particles", "64"),
                    ["decay_check.svg"]),
    "denominator-check": ((), []),
    "stepsize-sweep": (("--sweep.h_list", "0.2,0.4", "--sweep.n_steps", "10"), []),
}


def svgs(out: Path) -> list:
    return sorted(p.name for p in out.glob("*.svg"))


@pytest.mark.parametrize("command", sorted(FIGURE_RUNS))
def test_rerun_draws_identical_figures(command, tmp_path):
    argv, figures = FIGURE_RUNS[command]
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        assert main([command, *argv, "--out", str(out)]) == EXIT_OK
        assert svgs(out) == []          # the command writes data only
    assert plot_tool.main([str(out) for out in outs]) == 0
    for out in outs:
        assert svgs(out) == figures
    for name in figures:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_zero_iterations_plot_overlay_only(tmp_path):
    out = tmp_path / "pe0"
    assert main(["prox-evolve", "--out", str(out), "--sampler.n_steps", "0"]) == EXIT_OK
    assert (out / "l1_error.csv").read_text() == "iter,l1,kl,prenorm_mass\n"
    assert plot_tool.main([str(out)]) == 0
    assert (out / "overlay.svg").exists()
    assert not (out / "l1_error.svg").exists()


def test_command_line_draws_with_the_tree_on_pythonpath(tmp_path):
    out = tmp_path / "oc"
    assert main(["order-check", "--out", str(out)]) == EXIT_OK
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, str(TOOL), str(out)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert svgs(out) == ["order_check.svg"]
    missing = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "none")], env=env,
                             capture_output=True, text=True)
    assert missing.returncode == 2
    assert "no manifest.json in" in missing.stderr
