"""Experiment runner: config parsing, presets, and the writers of every
artifact (CSV tables, density files and their JSON sidecars, the manifest).

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
import functools
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
    "sweep.h_list": [1.0 / 6.0, 1.0 / 3.0, 0.6, 1.0],
    "sweep.n_steps": 200,
    "timing.record": False,
}

# wide default grids for the heavy-tailed nonsmooth presets
GRID_PRESETS = {
    "gauss_laplace": (-24.0, 24.0, 4801),
    "l1_l12": (-24.0, 24.0, 4801),
}
GRID_N_BY_DIM = {2: 161, 3: 41}
_VECTOR_KEYS = ("target.a", "sampler.kde_bandwidth")   # may also be lists of numbers


def load_config(path) -> dict:
    """The file's {key: value text}; _typed reads each text."""
    cfg = {}
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'key = value'")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value
    return cfg


def resolve_config(args, overrides) -> dict:
    """DEFAULTS with the texts of the config file, then of overrides, typed."""
    texts = load_config(args.config) if args.config else {}
    texts.update(overrides)
    unknown = sorted(set(texts) - set(DEFAULTS))
    if unknown:
        raise ParameterError(f"unknown config key(s) {', '.join(unknown)}")
    if args.seed is not None:
        texts["sampler.seed"] = str(args.seed)
    return {key: _typed(key, texts[key]) if key in texts else default
            for key, default in DEFAULTS.items()}


def _typed(key: str, text: str, kind=None):
    """text read once, in the type of key's default (or kind); a ParameterError
    naming key and quoting text otherwise.

    A bool key takes true or false in any case, a str key the text, and a None
    default also none or nothing. Numbers are finite; an int key's (and
    grid.n's) are integral and stay exact. A list key, and a vector key given
    a comma, holds one or more comma-separated numbers.
    """
    default, t = DEFAULTS[key], text.strip()
    kind = kind or (int if key == "grid.n" else type(default))
    if kind is list or key in _VECTOR_KEYS and "," in t:
        values = [_typed(key, v, float) for v in t.split(",") if v.strip()]
        if not values:
            raise ParameterError(f"{key} must hold at least one number")
        return values
    if kind is bool and t.lower() in ("true", "false"):
        return t.lower() == "true"
    if kind is bool:
        raise ParameterError(f"{key} must be true or false, got {text!r}")
    if default is None and t.lower() in ("none", ""):
        return None
    value = None
    for cast in (int, float):       # int first: an integer stays exact
        try:
            value = cast(t)
            break
        except ValueError:
            pass
    if kind is str and (value is None or key not in _VECTOR_KEYS):
        return t
    if value is None or not abs(value) <= sys.float_info.max:
        raise ParameterError(f"{key} must be a finite number, got {text!r}")
    if kind is int and not float(value).is_integer():
        raise ParameterError(f"{key} must be an integer, got {text!r}")
    return int(value) if kind is int else float(value)


@functools.cache   # one git process per interpreter, not one per main() call
def _git_describe() -> str:
    try:        # in the package's own checkout, whatever the working directory
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10,
                             cwd=Path(__file__).resolve().parent)
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
        "version": __version__,
    }
    if extra:
        manifest.update(extra)
    _write_json(outdir / "manifest.json", manifest)


def _write_json(path: Path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")


def grid_spec(cfg, dim: int) -> tuple:
    lo, hi, n = cfg["grid.lo"], cfg["grid.hi"], cfg["grid.n"]
    plo, phi, pn = GRID_PRESETS.get(cfg["target.id"], (-12.0, 12.0, 2401))
    lo = plo if lo is None else lo
    hi = phi if hi is None else hi
    if n is None:       # d = 1 and past d = 3 (one axis) take the target's 1-D default
        n = GRID_N_BY_DIM.get(dim, pn)
    # past d = 3 only the first axis is measured (a KDE of the first coordinate)
    return tuple((lo, hi, n) for _ in range(dim if dim <= 3 else 1))


def _setup(cfg, full_grid_for: str = "") -> tuple:
    """The command's target and SamplerConfig. The target.* keys are the
    catalog id and parameters; each sampler.* key is the SamplerConfig field
    of its name, beta is target.beta and record_timing timing.record. A command
    full_grid_for needs the target's full grid: target.dim > 3 is refused."""
    from . import potentials
    from .samplers import SamplerConfig
    params = {k.partition(".")[2]: v for k, v in cfg.items() if k.startswith("target.")}
    fields = {k.partition(".")[2]: v for k, v in cfg.items() if k.startswith("sampler.")}
    target = potentials.from_catalog(params.pop("id"), params)
    if full_grid_for and target.dim > 3:
        raise ParameterError(f"{full_grid_for} needs a full grid (target.dim <= 3), "
                             f"got target.dim = {target.dim}")
    return target, SamplerConfig(**fields, beta=cfg["target.beta"],
                                 grid=grid_spec(cfg, target.dim),
                                 record_timing=cfg["timing.record"])


def _write_csv(path: Path, header, rows):
    """Comma-separated rows under header (None: no header line). A float is
    written as repr, a bool as true/false, an int with str, and anything
    else, np.float64 included, as repr(float(v))."""
    def field(v) -> str:
        if type(v) is float:
            return repr(v)
        if isinstance(v, bool):
            return str(v).lower()
        return str(v) if isinstance(v, int) else repr(float(v))
    with open(path, "w", newline="") as f:
        if header is not None:
            f.write(header + "\n")
        for row in rows:
            f.write(",".join(map(field, row)) + "\n")


def write_run_csv(path: Path, reports):
    from .density import DiagnosticsReport
    _write_csv(path, ",".join(f.name for f in dataclasses.fields(DiagnosticsReport)),
               map(dataclasses.astuple, reports))


def write_density_csv(path: Path, g):
    """GridDensity g as its axis rows, then its value rows (row-major over the
    leading axes), and the sidecar PATH.json with the axes, shape and log floor."""
    from .density import LOG_FLOOR
    _write_csv(path, None,
               [a.tolist() for a in g.grid] + g.values.reshape(-1, g.grid.shape[-1]).tolist())
    _write_json(path.with_suffix(path.suffix + ".json"),
                {"axes": [{"lo": float(a[0]), "hi": float(a[-1]), "n": a.size} for a in g.grid],
                 "shape": list(g.values.shape), "log_floor": LOG_FLOOR, "csv": path.name})


def _fit_slope(xs, ys):
    import numpy as np
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])


# ------------------------------------------------------------- subcommands

def cmd_prox_evolve(cfg, outdir: Path) -> tuple:
    import numpy as np
    from .density import Grid, relative_entropy, target_density
    from .proximal import GridProxOperator, ProxParams
    from .samplers import initial_grid_density
    target, scfg = _setup(cfg, full_grid_for="prox-evolve")
    grid = Grid.uniform(scfg.grid)
    rho = initial_grid_density(scfg, grid)
    op = GridProxOperator(grid, target, ProxParams(T=scfg.T, beta=scfg.beta), scfg.backend)
    rs = target_density(target, grid, scfg.beta)
    rows = []
    write_density_csv(outdir / "density_iter_0000.csv", rho)
    for k in range(1, scfg.n_steps + 1):
        rho, mass = op.step(rho)
        l1 = float(np.sum(grid.weights * np.abs(rho.values - rs.values)))
        rows.append((k, l1, relative_entropy(rho, rs), mass))
        if k % scfg.diag_every == 0 or k == scfg.n_steps:
            write_density_csv(outdir / f"density_iter_{k:04d}.csv", rho)
    _write_csv(outdir / "l1_error.csv", "iter,l1,kl,prenorm_mass", rows)
    return EXIT_OK, {"final_l1": rows[-1][1] if rows else None}


def cmd_sample(cfg, outdir: Path) -> tuple:
    import numpy as np
    from .samplers import run
    target, scfg = _setup(cfg)
    result = run(scfg, target)
    write_run_csv(outdir / "run.csv", result.reports)
    pts = result.ensemble.points
    _write_csv(outdir / "ensemble_final.csv", ",".join(f"x{i}" for i in range(pts.shape[1])),
               (row.tolist() for row in pts))
    return EXIT_OK, {"final_kl": result.reports[-1].kl,
                     "mode_balance": float(np.mean(pts[:, 0] > 0))}


MIN_SLOPE = 1.7  # order-check and denominator-check pass iff each fitted slope is >= this
CHECK_T = (0.2, 0.1, 0.05, 0.025)   # the stepsizes both checks fit their slope over
CHECK_Y = (-2.0, 0.0, 2.0)          # denominator-check's points y, on every axis
# a denominator-check point whose abs_err is below EXACT_REL_ERR * exact at every
# T passes whatever its slope: the Laplace form is exact there (y = 0 for a
# quadratic at d = 2), so the slope is a fit to rounding
EXACT_REL_ERR = 1e-12


def cmd_order_check(cfg, outdir: Path) -> tuple:
    import numpy as np
    from .density import Grid, fp_rhs
    from .proximal import GridProxOperator, ProxParams
    from .samplers import initial_grid_density
    target, scfg = _setup(cfg, full_grid_for="order-check")
    rho0 = initial_grid_density(scfg, Grid.uniform(scfg.grid))
    rhs = fp_rhs(rho0, target, scfg.beta)
    rows = []
    for t_step in CHECK_T:
        op = GridProxOperator(rho0.grid, target, ProxParams(T=t_step, beta=scfg.beta),
                              scfg.backend)
        rho_t, _ = op.step(rho0)
        # the small-T expansion rho0 + T*fp_rhs(rho0), clamped at 0 in the far tails
        expansion = np.maximum(rho0.values + t_step * rhs, 0.0)
        rows.append((t_step, float(np.max(np.abs(rho_t.values - expansion)))))
    slope = _fit_slope([r[0] for r in rows], [r[1] for r in rows])
    _write_csv(outdir / "order_check.csv", "T,max_err", rows)
    ok = slope >= MIN_SLOPE
    print(f"order-check slope={slope:.3f} (pass iff >= {MIN_SLOPE}): "
          f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_ASSERT, {"slope": slope, "pass": ok}


def cmd_denominator_check(cfg, outdir: Path) -> tuple:
    from .density import Grid
    from .proximal import ProxParams, denominator_exact, denominator_laplace
    target, scfg = _setup(cfg, full_grid_for="denominator-check")
    grid = Grid.uniform(scfg.grid)
    rows, slopes, is_exact = [], {}, {}
    for y in CHECK_Y:
        errs, is_exact[y] = [], True
        for t_step in CHECK_T:
            p = ProxParams(T=t_step, beta=scfg.beta)
            exact = denominator_exact([y] * target.dim, target, p, grid)
            lap = denominator_laplace([y] * target.dim, target, p)
            errs.append(abs(exact - lap))
            is_exact[y] &= errs[-1] < EXACT_REL_ERR * exact
            rows.append((y, t_step, exact, lap, errs[-1]))
        slopes[y] = _fit_slope(CHECK_T, errs)
    _write_csv(outdir / "denominator_check.csv", "y,T,exact,laplace,abs_err", rows)
    ok = all(s >= MIN_SLOPE or is_exact[y] for y, s in slopes.items())
    for y, s in slopes.items():
        note = f" (exact: abs_err < {EXACT_REL_ERR:g} * exact at every T)" if is_exact[y] else ""
        print(f"denominator-check y={y}: slope={s:.3f}{note}")
    return (EXIT_OK if ok else EXIT_ASSERT,
            {"slopes": {str(k): v for k, v in slopes.items()}, "pass": ok})


DECAY_SLACK = 0.1  # decay-check passes iff KL_k <= kl_bound_k + DECAY_SLACK * KL_0 * h


def cmd_decay_check(cfg, outdir: Path) -> tuple:
    from .samplers import run
    cfg["sampler.method"] = "brwp_successive"   # in place: the manifest records it
    target, scfg = _setup(cfg)
    if target.alpha is None:
        raise ParameterError("decay-check needs a target with known alpha")
    result = run(scfg, target)
    write_run_csv(outdir / "run.csv", result.reports)
    slack = DECAY_SLACK * result.reports[0].kl * scfg.h
    violations = [r.iter for r in result.reports if r.kl > r.kl_bound + slack]
    ok = not violations
    print(f"decay-check: {'PASS' if ok else f'FAIL at iters {violations[:5]}'}")
    return EXIT_OK if ok else EXIT_ASSERT, {"violations": violations[:20], "pass": ok,
                                           "terminal_kl": result.reports[-1].kl}


SWEEP_THRESHOLD = 1e-3  # stepsize-sweep counts the steps to KL <= this


def cmd_stepsize_sweep(cfg, outdir: Path) -> tuple:
    from . import theory
    from .samplers import evolve_law
    target, scfg = _setup(cfg)
    h_list = cfg["sweep.h_list"]
    if target.dim != 1:
        raise ParameterError("stepsize-sweep runs on 1-D targets")
    names = [f"law_h_{h:.6g}.csv" for h in h_list]
    if len(set(names)) < len(names):
        raise ParameterError(f"sweep.h_list gives two stepsizes one law file "
                             f"{max(names, key=names.count)}; they must differ in 6 digits")
    summary = []
    for h, name in zip(h_list, names):
        trace = evolve_law(dataclasses.replace(scfg, h=h, T=h, n_steps=cfg["sweep.n_steps"]),
                           target)
        kls = [r.kl for r in trace.reports]
        hit = next((r.iter for r in trace.reports if r.kl <= SWEEP_THRESHOLD), -1)
        stable = all(k == k and k != float("inf") for k in kls) \
            and kls[-1] <= kls[0] and not trace.folded
        summary.append((h, hit, stable, kls[-1], min(kls)))
        write_run_csv(outdir / name, trace.reports)
    _write_csv(outdir / "sweep.csv", "h,steps_to_threshold,stable,terminal_kl,min_kl",
               summary)
    for h, hit, stable, term, _ in summary:
        print(f"sweep h={h:.4f}: steps_to_{SWEEP_THRESHOLD:g}={hit} stable={stable} "
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # a configuration error, not a SystemExit
        raise ParameterError(message)


def main(argv=None) -> int:
    # no abbreviations: "--thr 1" must not reach --threads
    parser = _Parser(prog="brwplab", description=__doc__, allow_abbrev=False)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out", default="out", help="artifact directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS thread budget, at least 1; overrides "
                             "OMP/OPENBLAS/MKL_NUM_THREADS. Reruns at the same count give "
                             "identical bytes")
    try:
        args, rest = parser.parse_known_args(sys.argv[1:] if argv is None else argv)
        if args.threads is not None:    # pin BLAS before numpy loads, over inherited values
            if args.threads < 1:
                raise ParameterError(f"--threads must be at least 1, got {args.threads}")
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                os.environ[var] = str(args.threads)
        overrides, tokens = {}, iter(rest)
        for tok in tokens:
            if not tok.startswith("--"):
                raise ParameterError(f"unexpected argument {tok!r}")
            key, eq, val = tok[2:].partition("=")
            if not eq:
                val = next(tokens, None)
                if val is None:
                    raise ParameterError(f"missing value for --{key}")
            overrides[key] = val
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
