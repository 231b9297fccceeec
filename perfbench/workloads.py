"""The benchmark's workloads and the checks that decide whether one run failed.

Each workload is one brwplab CLI preset, run in-process through
``brwplab.cli.main`` exactly as a user would type it. Problem sizes are the
CLI defaults named in each entry; only the step counts are set here, so that
one call takes one to two seconds and a measured run holds several calls.

One operation is one ``cli.main`` call. It fails on a nonzero exit code, a NaN
in a checked column, a last-row KL above the row-0 KL, a mixture mode balance
outside MODE_BALANCE_BAND, or (stepsize sweep) a summary that differs from
SWEEP_EXPECTED.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# fraction of particles with x[0] > 0 on the symmetric two-mode mixture
MODE_BALANCE_BAND = (0.4, 0.6)
# stepsize-sweep summary at h = 1/6, 1/3, 0.6, 1.0 (quadratic target)
SWEEP_EXPECTED = {"steps_to_threshold": ["9", "4", "2", "-1"],
                  "stable": ["true", "true", "true", "false"]}
CHECKED_COLUMNS = ("kl", "fisher", "m0", "tv", "w2")
REPORTED_LAW_TRACE = "law_h_0.166667.csv"   # final_kl/final_w2 of the sweep


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple          # CLI arguments, without --out/--seed/step count
    steps_key: str       # config key holding the step count
    steps: int
    mixture: bool        # target is the two-mode mixture (mode balance checked)
    traces: int = 1      # diagnostics traces per call (one per sweep stepsize)


WORKLOADS = {w.name: w for w in (
    Workload("kde_1d",
             ("sample", "--target.id", "gaussian_mixture",
              "--sampler.method", "brwp_kde"),
             "sampler.n_steps", 30, True),
    Workload("successive_3d",
             ("sample", "--target.id", "quadratic", "--target.dim", "3",
              "--sampler.method", "brwp_successive"),
             "sampler.n_steps", 10, False),
    Workload("particle_10d",
             ("sample", "--target.id", "gaussian_mixture", "--target.dim", "10",
              "--sampler.method", "brwp_particle", "--sampler.n_particles", "2000"),
             "sampler.n_steps", 10, True),
    Workload("law_sweep_1d",
             ("stepsize-sweep",),
             "sweep.n_steps", 40, False, traces=4),
)}


def cli_argv(w: Workload, outdir: Path, seed: int, steps: int | None = None) -> list:
    return list(w.argv) + ["--out", str(outdir), "--seed", str(seed),
                           f"--{w.steps_key}", str(w.steps if steps is None else steps),
                           "--timing.record", "true"]


def _read_csv(path: Path) -> list:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _strip_wallclock(path: Path) -> bytes:
    """File bytes with the wallclock_ms column removed (it is the only
    column that is not reproducible)."""
    lines = path.read_bytes().split(b"\n")
    header = lines[0].split(b",")
    if b"wallclock_ms" not in header:
        return path.read_bytes()
    col = header.index(b"wallclock_ms")
    return b"\n".join(b",".join(c for i, c in enumerate(line.split(b",")) if i != col)
                      if line else line for line in lines)


def _check_trace(rows: list, label: str, errors: list, kl_must_drop: bool = True):
    for r in rows:
        for c in CHECKED_COLUMNS:
            if math.isnan(float(r[c])):
                errors.append(f"{label}: NaN in column {c} at iter {r['iter']}")
                return
    if kl_must_drop and float(rows[-1]["kl"]) > float(rows[0]["kl"]):
        errors.append(f"{label}: last-row KL {rows[-1]['kl']} above row-0 KL {rows[0]['kl']}")


def _iteration_ms(rows: list) -> list:
    ms = [float(r["wallclock_ms"]) for r in rows]
    return [b - a for a, b in zip(ms, ms[1:])]


def inspect_outputs(w: Workload, outdir: Path, check_sweep: bool = True) -> dict:
    """Check one call's artifacts and extract what the benchmark reports.

    Returns errors (empty when the call passed), final_kl, final_w2, the
    per-iteration latencies, diagnostics row count, a digest of every checked
    file without its wallclock column, and the artifact file count and bytes.
    """
    errors: list = []
    out = {"errors": errors, "iter_ms": [], "rows": 0, "digests": {}}
    if w.name == "law_sweep_1d":
        traces = sorted(outdir.glob("law_h_*.csv"))
        summary = _read_csv(outdir / "sweep.csv")
        if check_sweep:
            for key, want in SWEEP_EXPECTED.items():
                got = [r[key] for r in summary]
                if got != want:
                    errors.append(f"sweep.csv {key} = {','.join(got)}, expected {','.join(want)}")
        checked = [outdir / "sweep.csv"] + traces
        reported = outdir / REPORTED_LAW_TRACE
    else:
        traces = [outdir / "run.csv"]
        checked = traces
        reported = traces[0]
        if w.mixture:
            with open(outdir / "manifest.json") as f:
                balance = json.load(f)["mode_balance"]
            lo, hi = MODE_BALANCE_BAND
            if not lo <= balance <= hi:
                errors.append(f"mode_balance {balance} outside [{lo}, {hi}]")
    for path in traces:
        rows = _read_csv(path)
        out["rows"] += len(rows)
        out["iter_ms"] += _iteration_ms(rows)
        # the sweep's unstable stepsizes may end above their start: only the
        # reported trace must lose KL
        _check_trace(rows, path.name, errors, kl_must_drop=path == reported)
        if path == reported:
            out["final_kl"] = float(rows[-1]["kl"])
            out["final_w2"] = float(rows[-1]["w2"])
    for path in checked:
        out["digests"][path.name] = hashlib.sha256(_strip_wallclock(path)).hexdigest()
    files = [p for p in outdir.rglob("*") if p.is_file()]
    out["files"] = len(files)
    out["bytes"] = sum(p.stat().st_size for p in files)
    return out
