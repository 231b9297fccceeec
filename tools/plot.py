"""Draw the SVG figures of brwplab run directories from their CSVs and manifest.json.

    PYTHONPATH=src python tools/plot.py RUN_DIR...

The commands write data only; this tool draws their figures into each
RUN_DIR, chosen by the manifest's ``command``:

- ``sample``: histogram.svg of ensemble_final.csv's x0 column, with the
  first-axis marginal of the target (rebuilt from the manifest's target.*
  config) on [-6, 6] where the catalog has one;
- ``prox-evolve``: overlay.svg of the last density file's first-axis marginal
  against the target's, titled with the stepsize (sampler.T, or sampler.h
  when T is none) and sampler.n_steps, and l1_error.svg when l1_error.csv
  has rows;
- ``order-check``: order_check.svg of order_check.csv, titled with the
  manifest's slope;
- ``decay-check``: decay_check.svg of run.csv's KL against the bound plus
  cli.DECAY_SLACK * KL_0 * h.

The other commands have no figure. CSV and JSON floats read back exactly, so
each figure has the bytes the command's own arrays would give. brwplab is
imported from PYTHONPATH, so the figures are drawn by that tree.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from brwplab import cli, potentials
from brwplab.density import Grid, GridDensity, target_density, uniform_axis
from brwplab.samplers import marginal_target
from brwplab.svgfig import histogram, line_plot


def _columns(path: Path) -> dict:
    """{header name: list of floats} of a CSV with a header line."""
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    return {name: [float(row[i]) for row in rows] for i, name in enumerate(header)}


def _target(config: dict):
    """The run's catalog target, as cli builds it from the target.* keys."""
    params = {k.partition(".")[2]: v for k, v in config.items() if k.startswith("target.")}
    return potentials.from_catalog(params.pop("id"), params)


def _read_density(path: Path) -> GridDensity:
    """A density file (its axis rows, then its value rows) and its sidecar's shape."""
    shape = json.loads(path.with_suffix(path.suffix + ".json").read_text())["shape"]
    with open(path, newline="") as f:
        rows = [[float(v) for v in row] for row in csv.reader(f)]
    return GridDensity(Grid(tuple(rows[:len(shape)])), np.reshape(rows[len(shape):], shape))


def plot_sample(run_dir: Path, manifest: dict):
    config = manifest["config"]
    overlay = None
    marg = marginal_target(_target(config))
    if marg is not None:
        ax = uniform_axis(-6.0, 6.0, 481)
        rs = target_density(marg, Grid((ax,)), config["target.beta"], check_truncation=False)
        overlay = (ax, rs.values, "target")
    histogram(run_dir / "histogram.svg", _columns(run_dir / "ensemble_final.csv")["x0"],
              bins=40, lo=-6.0, hi=6.0, overlay=overlay,
              title=f"{config['sampler.method']}, N={config['sampler.n_particles']}, "
                    f"{config['sampler.n_steps']} steps, h={config['sampler.h']}",
              xlabel="x[0]")


def plot_prox_evolve(run_dir: Path, manifest: dict):
    config = manifest["config"]
    last = max(run_dir.glob("density_iter_*.csv"), key=lambda p: int(p.stem.rpartition("_")[2]))
    rho = _read_density(last)
    # the values do not depend on the truncation check, which the run passed
    rs = target_density(_target(config), rho.grid, config["target.beta"],
                        check_truncation=False)
    gm, tm = rho.marginal_first(), rs.marginal_first()
    t_step = config["sampler.h"] if config["sampler.T"] is None else config["sampler.T"]
    line_plot(run_dir / "overlay.svg",
              [(gm.grid.axes[0], gm.values, "computed"),
               (tm.grid.axes[0], tm.values, "target")],
              title=f"kernel-proximal evolution, T={t_step}, "
                    f"{config['sampler.n_steps']} iterations",
              xlabel="x", ylabel="density")
    l1 = _columns(run_dir / "l1_error.csv")
    if l1["iter"]:
        line_plot(run_dir / "l1_error.svg", [(l1["iter"], l1["l1"], "L1 error")],
                  title="L1 distance to target", xlabel="iteration",
                  ylabel="log10 L1", logy=True)


def plot_order_check(run_dir: Path, manifest: dict):
    cols = _columns(run_dir / "order_check.csv")
    line_plot(run_dir / "order_check.svg", [(cols["T"], cols["max_err"], "max err")],
              title=f"order check, slope={manifest['slope']:.3f}", xlabel="T",
              ylabel="log10 err", logy=True)


def plot_decay_check(run_dir: Path, manifest: dict):
    cols = _columns(run_dir / "run.csv")
    slack = cli.DECAY_SLACK * cols["kl"][0] * manifest["config"]["sampler.h"]
    line_plot(run_dir / "decay_check.svg",
              [(cols["iter"], [max(kl, 1e-300) for kl in cols["kl"]], "measured KL"),
               (cols["iter"], [max(b + slack, 1e-300) for b in cols["kl_bound"]],
                "bound + slack")],
              title="KL decay vs bound", xlabel="iteration",
              ylabel="log10 KL", logy=True)


FIGURES = {
    "sample": plot_sample,
    "prox-evolve": plot_prox_evolve,
    "order-check": plot_order_check,
    "decay-check": plot_decay_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("run_dirs", nargs="+", type=Path, metavar="RUN_DIR",
                        help="a directory a brwplab command wrote")
    args = parser.parse_args(argv)
    missing = [str(d) for d in args.run_dirs if not (d / "manifest.json").is_file()]
    if missing:
        parser.error(f"no manifest.json in {', '.join(missing)}")
    for run_dir in args.run_dirs:
        manifest = json.loads((run_dir / "manifest.json").read_text())
        draw = FIGURES.get(manifest["command"])
        if draw is not None:
            draw(run_dir, manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
