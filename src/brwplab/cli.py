"""Experiment runner: config parsing, presets, persistence, SVG figures.

Subcommands: prox-evolve, sample, order-check, denominator-check,
decay-check, stepsize-sweep. Configuration is a flat key-value file with
dotted section keys (e.g. ``sampler.h = 0.02``); any key can be overridden
on the command line as ``--sampler.h 0.02``. A key not in DEFAULTS, or a
value not of its default's type (see _typed), is a configuration error.

Exit codes: 0 success / assertion pass, 1 assertion fail,
2 configuration error, 3 numerical abort.

Neither this module nor the package root imports numpy at load time; the
heavy imports happen inside main(), after --threads has pinned the BLAS
thread count. A rerun at the same thread count gives identical bytes; a
different count may change the last digits of sums.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from .errors import NumericalError, ParameterError

EXIT_OK, EXIT_ASSERT, EXIT_CONFIG, EXIT_NUMERIC = 0, 1, 2, 3

DEFAULTS = {
    "target.id": "quadratic",
    "target.alpha": 1.0,
    "target.a": 2.0,
    "target.a_mode": "e1",
    "target.sigma": 1.0,
    "target.b": 0.25,
    "target.dim": 1,
    "target.beta": 1.0,
    "sampler.method": "brwp_successive",
    "sampler.h": 0.05,
    "sampler.T": None,
    "sampler.n_particles": 500,
    "sampler.n_steps": 50,
    "sampler.seed": 0,
    "sampler.backend": "quadrature",
    "sampler.kde_bandwidth": "auto",
    "sampler.init_mean": 0.0,
    "sampler.init_sigma_sq": 2.0,
    "sampler.diag_every": 1,
    "grid.lo": None,
    "grid.hi": None,
    "grid.n": None,
    "prox.T": 0.05,
    "prox.iters": 50,
    "prox.save_every": 1,
    "order.t_list": [0.2, 0.1, 0.05, 0.025],
    "order.min_slope": 1.7,
    "denominator.y_list": [-2.0, 0.0, 2.0],
    "denominator.t_list": [0.2, 0.1, 0.05, 0.025],
    "sweep.h_list": [1.0 / 6.0, 1.0 / 3.0, 0.6, 1.0],
    "sweep.threshold": 1e-3,
    "sweep.n_steps": 200,
    "decay.slack_factor": 0.1,
    "plot": True,
    "timing.record": False,
}

# wide default grids for the heavy-tailed nonsmooth presets
GRID_PRESETS = {
    "quadratic": (-12.0, 12.0, 2401),
    "gaussian_mixture": (-12.0, 12.0, 2401),
    "gauss_laplace": (-24.0, 24.0, 4801),
    "l1_l12": (-24.0, 24.0, 4801),
}
GRID_N_BY_DIM = {1: None, 2: 161, 3: 41}
_VECTOR_KEYS = ("target.a", "sampler.kde_bandwidth")   # may also be lists of numbers


def parse_value(text: str):
    t = text.strip()
    if t.lower() in ("true", "false"):
        return t.lower() == "true"
    if t.lower() in ("none", ""):
        return None
    if "," in t:
        try:
            return [float(v) for v in t.split(",") if v.strip()]
        except ValueError:
            return t
    for cast in (int, float):
        try:
            return cast(t)
        except ValueError:
            pass
    return t


def load_config(path) -> dict:
    cfg = {}
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'key = value'")
            key, value = line.split("=", 1)
            cfg[key.strip()] = parse_value(value)
    return cfg


def resolve_config(args, overrides) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(load_config(args.config))
    cfg.update(overrides)
    unknown = sorted(set(cfg) - set(DEFAULTS))
    if unknown:
        raise ParameterError(f"unknown config key(s) {', '.join(unknown)}")
    if args.seed is not None:
        cfg["sampler.seed"] = args.seed
    return {key: _typed(key, value) for key, value in cfg.items()}


def _typed(key: str, value, kind=None):
    """value in the type of key's default (or kind); a ParameterError naming key otherwise.

    Numbers are finite, int keys and grid.n integral; a None default admits a
    number. A list key takes one number as a one-entry list.
    """
    default = DEFAULTS[key]
    kind = kind or (int if key == "grid.n" else type(default))
    if isinstance(value, list) and (kind is list or key in _VECTOR_KEYS):
        return [_typed(key, v, float) for v in value]
    if kind is list:
        return [_typed(key, value, float)]
    if kind in (bool, str) and type(value) is kind or value is default is None:
        return value
    if kind is bool or kind is str and key not in _VECTOR_KEYS:
        want = "true or false" if kind is bool else "a string"
        raise ParameterError(f"{key} must be {want}, got {value!r}")
    if not (type(value) in (int, float) and abs(value) <= sys.float_info.max):
        raise ParameterError(f"{key} must be a finite number, got {value!r}")
    if kind is int and not float(value).is_integer():
        raise ParameterError(f"{key} must be an integer, got {value!r}")
    return int(value) if kind is int else float(value)


def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def write_manifest(outdir: Path, cfg: dict, command: str, extra=None):
    from . import __version__
    manifest = {
        "command": command,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "git_describe": _git_describe(),
        "seed": cfg["sampler.seed"],
        "backend": cfg["sampler.backend"],
        "version": __version__,
    }
    if extra:
        manifest.update(extra)
    with open(outdir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")


def grid_spec(cfg, dim: int) -> tuple:
    lo, hi, n = cfg["grid.lo"], cfg["grid.hi"], cfg["grid.n"]
    plo, phi, pn = GRID_PRESETS.get(cfg["target.id"], (-12.0, 12.0, 2401))
    lo = plo if lo is None else lo
    hi = phi if hi is None else hi
    if n is None:
        n = pn if dim == 1 else GRID_N_BY_DIM.get(dim, 41)
    return tuple((lo, hi, n) for _ in range(min(dim, 3)))


def _setup(cfg) -> tuple:
    """The command's target and SamplerConfig. The target.* keys are the
    catalog id and parameters; each sampler.* key is the SamplerConfig field
    of its name, beta is target.beta and record_timing timing.record."""
    from . import potentials
    from .samplers import SamplerConfig
    params = {k.partition(".")[2]: v for k, v in cfg.items() if k.startswith("target.")}
    fields = {k.partition(".")[2]: v for k, v in cfg.items() if k.startswith("sampler.")}
    target = potentials.from_catalog(params.pop("id"), params)
    return target, SamplerConfig(**fields, beta=cfg["target.beta"],
                                 grid=grid_spec(cfg, target.dim),
                                 record_timing=cfg["timing.record"])


def _write_csv(path: Path, header: str, rows):
    """Comma-separated rows: bool as true/false, int with str, else repr(float(v))."""
    def field(v) -> str:
        if isinstance(v, bool):
            return str(v).lower()
        return str(v) if isinstance(v, int) else repr(float(v))
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(map(field, row)) + "\n")


def write_run_csv(path: Path, reports):
    from .density import DiagnosticsReport
    with open(path, "w", newline="") as f:
        f.write(DiagnosticsReport.CSV_HEADER + "\n")
        for r in reports:
            f.write(r.csv_row() + "\n")


def _fit_slope(xs, ys):
    import numpy as np
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])


# ------------------------------------------------------------- subcommands

def cmd_prox_evolve(cfg, outdir: Path) -> tuple:
    import numpy as np
    from .density import Grid, relative_entropy, target_density
    from .proximal import GridProxOperator, ProxParams
    from .samplers import initial_grid_density
    target, scfg = _setup(cfg)
    if target.dim > 3:
        raise ParameterError("prox-evolve needs a full grid (target.dim <= 3)")
    iters, save_every = cfg["prox.iters"], cfg["prox.save_every"]
    if iters < 0 or save_every < 1:
        raise ParameterError("prox.iters must be >= 0 and prox.save_every >= 1")
    grid = Grid.uniform(scfg.grid)
    rho = initial_grid_density(scfg, grid)
    op = GridProxOperator(grid, target, ProxParams(T=cfg["prox.T"], beta=scfg.beta),
                          scfg.backend)
    rs = target_density(target, grid, scfg.beta)
    rows = []
    rho.to_csv(outdir / "density_iter_0000.csv")
    for k in range(1, iters + 1):
        rho, mass = op.step(rho)
        l1 = float(np.sum(grid.weights * np.abs(rho.values - rs.values)))
        rows.append((k, l1, relative_entropy(rho, rs), mass))
        if k % save_every == 0 or k == iters:
            rho.to_csv(outdir / f"density_iter_{k:04d}.csv")
    _write_csv(outdir / "l1_error.csv", "iter,l1,kl,prenorm_mass", rows)
    if cfg["plot"]:
        from .svgfig import line_plot
        gm = rho.marginal_first()
        tm = rs.marginal_first()
        line_plot(outdir / "overlay.svg",
                  [(gm.grid.axes[0], gm.values, "computed"),
                   (tm.grid.axes[0], tm.values, "target")],
                  title=f"kernel-proximal evolution, T={cfg['prox.T']}, "
                        f"{iters} iterations",
                  xlabel="x", ylabel="density")
        if rows:
            line_plot(outdir / "l1_error.svg",
                      [([r[0] for r in rows], [r[1] for r in rows], "L1 error")],
                      title="L1 distance to target", xlabel="iteration",
                      ylabel="log10 L1", logy=True)
    return EXIT_OK, {"final_l1": rows[-1][1] if rows else None}


def cmd_sample(cfg, outdir: Path) -> tuple:
    import numpy as np
    from .density import Grid, target_density, uniform_axis
    from .samplers import marginal_target, run
    target, scfg = _setup(cfg)
    result = run(scfg, target)
    write_run_csv(outdir / "run.csv", result.reports)
    pts = result.ensemble.points
    _write_csv(outdir / "ensemble_final.csv", ",".join(f"x{i}" for i in range(pts.shape[1])),
               (row.tolist() for row in pts))
    if cfg["plot"]:
        from .svgfig import histogram
        overlay = None
        marg = marginal_target(target)
        if marg is not None:
            ax = uniform_axis(-6.0, 6.0, 481)
            rs = target_density(marg, Grid((ax,)), scfg.beta, check_truncation=False)
            overlay = (ax, rs.values, "target")
        histogram(outdir / "histogram.svg", pts[:, 0], bins=40, lo=-6.0, hi=6.0,
                  overlay=overlay,
                  title=f"{scfg.method}, N={scfg.n_particles}, "
                        f"{scfg.n_steps} steps, h={scfg.h}", xlabel="x[0]")
    return EXIT_OK, {"final_kl": result.reports[-1].kl,
                     "mode_balance": float(np.mean(pts[:, 0] > 0))}


def cmd_order_check(cfg, outdir: Path) -> tuple:
    import numpy as np
    from .density import Grid, fp_rhs
    from .proximal import GridProxOperator, ProxParams
    from .samplers import initial_grid_density
    target, scfg = _setup(cfg)
    t_list = cfg["order.t_list"]
    if len(t_list) < 3:
        raise ParameterError("order-check needs at least 3 stepsizes to fit a slope")
    rho0 = initial_grid_density(scfg, Grid.uniform(scfg.grid))
    rhs = fp_rhs(rho0, target, scfg.beta)
    rows = []
    for t_step in t_list:
        op = GridProxOperator(rho0.grid, target, ProxParams(T=t_step, beta=scfg.beta),
                              scfg.backend)
        rho_t, _ = op.step(rho0)
        # the small-T expansion rho0 + T*fp_rhs(rho0), clamped at 0 in the far tails
        expansion = np.maximum(rho0.values + t_step * rhs, 0.0)
        rows.append((t_step, float(np.max(np.abs(rho_t.values - expansion)))))
    slope = _fit_slope([r[0] for r in rows], [r[1] for r in rows])
    _write_csv(outdir / "order_check.csv", "T,max_err", rows)
    if cfg["plot"]:
        from .svgfig import line_plot
        line_plot(outdir / "order_check.svg",
                  [([r[0] for r in rows], [r[1] for r in rows], "max err")],
                  title=f"order check, slope={slope:.3f}", xlabel="T",
                  ylabel="log10 err", logy=True)
    ok = slope >= cfg["order.min_slope"]
    print(f"order-check slope={slope:.3f} (pass iff >= {cfg['order.min_slope']}): "
          f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_ASSERT, {"slope": slope, "pass": ok}


def cmd_denominator_check(cfg, outdir: Path) -> tuple:
    from .density import Grid
    from .proximal import ProxParams, denominator_exact, denominator_laplace
    target, scfg = _setup(cfg)
    t_list = cfg["denominator.t_list"]
    if len(t_list) < 3:
        raise ParameterError("denominator-check needs at least 3 stepsizes")
    grid = Grid.uniform(scfg.grid)
    rows, slopes = [], {}
    for y in cfg["denominator.y_list"]:
        errs = []
        for t_step in t_list:
            p = ProxParams(T=t_step, beta=scfg.beta)
            exact = denominator_exact([y] * target.dim, target, p, grid)
            lap = denominator_laplace([y] * target.dim, target, p)
            errs.append(abs(exact - lap))
            rows.append((y, t_step, exact, lap, errs[-1]))
        slopes[y] = _fit_slope(t_list, errs)
    _write_csv(outdir / "denominator_check.csv", "y,T,exact,laplace,abs_err", rows)
    ok = all(s >= cfg["order.min_slope"] for s in slopes.values())
    for y, s in slopes.items():
        print(f"denominator-check y={y}: slope={s:.3f}")
    return (EXIT_OK if ok else EXIT_ASSERT,
            {"slopes": {str(k): v for k, v in slopes.items()}, "pass": ok})


def cmd_decay_check(cfg, outdir: Path) -> tuple:
    from .samplers import run
    cfg["sampler.method"] = "brwp_successive"   # in place: the manifest records it
    target, scfg = _setup(cfg)
    if target.alpha is None:
        raise ParameterError("decay-check needs a target with known alpha")
    result = run(scfg, target)
    write_run_csv(outdir / "run.csv", result.reports)
    kl0 = result.reports[0].kl
    slack = cfg["decay.slack_factor"] * kl0 * scfg.h
    violations = [r.iter for r in result.reports if r.kl > r.kl_bound + slack]
    if cfg["plot"]:
        from .svgfig import line_plot
        its = [r.iter for r in result.reports]
        line_plot(outdir / "decay_check.svg",
                  [(its, [max(r.kl, 1e-300) for r in result.reports], "measured KL"),
                   (its, [max(r.kl_bound + slack, 1e-300) for r in result.reports],
                    "bound + slack")],
                  title="KL decay vs bound", xlabel="iteration",
                  ylabel="log10 KL", logy=True)
    ok = not violations
    print(f"decay-check: {'PASS' if ok else f'FAIL at iters {violations[:5]}'}")
    return EXIT_OK if ok else EXIT_ASSERT, {"violations": violations[:20], "pass": ok,
                                           "terminal_kl": result.reports[-1].kl}


def cmd_stepsize_sweep(cfg, outdir: Path) -> tuple:
    from . import theory
    from .samplers import evolve_law
    target, scfg = _setup(cfg)
    h_list = cfg["sweep.h_list"]
    if not h_list:
        raise ParameterError("stepsize-sweep needs a nonempty h list")
    if target.dim != 1:
        raise ParameterError("stepsize-sweep runs on 1-D targets")
    threshold = cfg["sweep.threshold"]
    summary = []
    for h in h_list:
        trace = evolve_law(dataclasses.replace(scfg, h=h, T=h, n_steps=cfg["sweep.n_steps"]),
                           target)
        kls = [r.kl for r in trace.reports]
        hit = next((r.iter for r in trace.reports if r.kl <= threshold), -1)
        stable = all(k == k and k != float("inf") for k in kls) \
            and kls[-1] <= kls[0] and not trace.folded
        summary.append((h, hit, stable, kls[-1], min(kls)))
        write_run_csv(outdir / f"law_h_{h:.6g}.csv", trace.reports)
    _write_csv(outdir / "sweep.csv", "h,steps_to_threshold,stable,terminal_kl,min_kl",
               summary)
    for h, hit, stable, term, _ in summary:
        print(f"sweep h={h:.4f}: steps_to_{threshold:g}={hit} stable={stable} "
              f"terminal_kl={term:.3e}")
    extra = {"summary": [{"h": h, "steps_to_threshold": hit, "stable": stable,
                          "terminal_kl": term} for h, hit, stable, term, _ in summary]}
    if target.alpha is not None:        # the paper's stepsizes, next to the measured ones
        extra.update(optimal_stepsize=theory.optimal_stepsize(target.alpha),
                     max_stepsize=theory.max_stepsize(target.alpha))
    return EXIT_OK, extra


# each command returns (exit code, its manifest entries); main() writes the
# manifest with the command's runtime
COMMANDS = {
    "prox-evolve": cmd_prox_evolve,
    "sample": cmd_sample,
    "order-check": cmd_order_check,
    "denominator-check": cmd_denominator_check,
    "decay-check": cmd_decay_check,
    "stepsize-sweep": cmd_stepsize_sweep,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # honor --threads before numpy is imported anywhere; it overrides the
    # thread variables the process inherited
    for i, tok in enumerate(argv):
        name, eq, value = tok.partition("=")
        if name != "--threads":
            continue
        if not eq:
            value = argv[i + 1] if i + 1 < len(argv) else ""
        if not value or value.startswith("--"):
            print("missing value for --threads", file=sys.stderr)
            return EXIT_CONFIG
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = value
    # no abbreviations: "--thr 1" must not reach --threads past the pin above
    parser = argparse.ArgumentParser(prog="brwplab", description=__doc__,
                                     allow_abbrev=False)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out", default="out", help="artifact directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS thread budget; overrides OMP/OPENBLAS/MKL_NUM_THREADS. "
                             "Reruns at the same count give identical bytes")
    args, rest = parser.parse_known_args(argv)
    overrides = {}
    i = 0
    while i < len(rest):
        tok = rest[i]
        if not tok.startswith("--"):
            print(f"unexpected argument {tok!r}", file=sys.stderr)
            return EXIT_CONFIG
        key = tok[2:]
        if "=" in key:
            key, val = key.split("=", 1)
        else:
            if i + 1 >= len(rest):
                print(f"missing value for --{key}", file=sys.stderr)
                return EXIT_CONFIG
            val = rest[i + 1]
            i += 1
        overrides[key] = parse_value(val)
        i += 1

    try:
        cfg = resolve_config(args, overrides)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        t_start = time.perf_counter()
        code, extra = COMMANDS[args.command](cfg, outdir)
        runtime_s = time.perf_counter() - t_start
        write_manifest(outdir, cfg, args.command, {**extra, "runtime_s": runtime_s})
        if cfg["timing.record"]:
            print(f"total {1000 * runtime_s:.0f} ms")
        return code
    except (ParameterError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
