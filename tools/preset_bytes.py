"""Hash the output files of brwplab's CLI presets, to check that a refactor
leaves every output byte unchanged.

    python tools/preset_bytes.py run SRC OUT [--seed N] [--threads K]
    python tools/preset_bytes.py compare OUT_A OUT_B

``run`` runs every preset in PRESETS with the package of the source tree SRC
(SRC/src on PYTHONPATH), one subprocess per preset, each writing to
OUT/<preset>/, and then tools/plot.py on each preset directory that holds a
manifest, with the same PYTHONPATH, so the figures are hashed too. It then
writes OUT/sha256.txt: the exit code of each preset
and a sha256 of every file it wrote. Before hashing, the columns and keys
that hold times or the checkout are removed: the ``wallclock_ms`` column of
every CSV, and ``runtime_s`` and ``git_describe`` of ``manifest.json``.
Without ``--threads`` the BLAS thread variables are removed from the
environment, so the library picks its default threading. With
``--threads K`` each child gets all three variables set to K and the CLI
option ``--threads K``, so a source tree whose CLI imports numpy before it
reads its options runs at K threads too. ``compare`` lists the lines that
differ between two such runs and exits 1 if there are any. For each
differing ``manifest.json`` that both runs wrote it prints, to stderr, the
top-level and ``config`` keys found only in A, only in B, or with different
values (the stripped keys left out). For each differing CSV or manifest
that both runs wrote with the same shape it also prints the largest absolute
and relative difference over the numeric cells or keys (``wallclock_ms`` and
the stripped keys left out), which bounds an intended change of bytes.

Standard library only; the benchmark argv come from perfbench/workloads.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True           # leave no cache files in perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

PLOT_TOOL = Path(__file__).resolve().with_name("plot.py")
STRIPPED_KEYS = ("runtime_s", "git_describe")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# preset name -> CLI argv without --out, --seed and --threads
PRESETS = {
    **{name: list(w.argv) + [f"--{w.steps_key}", str(w.steps), "--timing.record", "true"]
       for name, w in WORKLOADS.items()},
    "kde_2d": ["sample", "--target.id", "gaussian_mixture", "--target.dim", "2",
               "--sampler.method", "brwp_kde", "--sampler.n_steps", "5"],
    # a vector target.a: the modes at ±a, off the first axis
    "mixture_vector_a_2d": ["sample", "--target.id", "gaussian_mixture", "--target.dim", "2",
                            "--target.a", "1.5,1.5", "--sampler.method", "brwp_kde",
                            "--sampler.n_steps", "5"],
    # sigma != 1: pins the float order of the mixture gradient's divisions
    "mixture_sigma_2d": ["sample", "--target.id", "gaussian_mixture", "--target.dim", "2",
                         "--target.sigma", "0.8", "--sampler.method", "brwp_kde",
                         "--sampler.n_steps", "5"],
    # the 1-D direct-sums KDE: dx = 0.6 is above KDE_BIN_SPACING times the bandwidth
    "kde_1d_coarse": ["sample", "--target.id", "gaussian_mixture", "--sampler.method",
                      "brwp_kde", "--grid.n", "41", "--sampler.n_steps", "5"],
    # the d = 3 KDE on the default 41^3 grid
    "kde_3d": ["sample", "--target.dim", "3", "--sampler.method", "brwp_kde",
               "--sampler.n_steps", "3"],
    "successive_2d": ["sample", "--target.dim", "2", "--sampler.method", "brwp_successive",
                      "--sampler.n_steps", "5"],
    # off-centre Gaussian chains: a centred run on a symmetric grid cancels odd-order errors
    "successive_1d_offset": ["sample", "--sampler.method", "brwp_successive",
                             "--sampler.init_mean", "1", "--sampler.n_steps", "10"],
    "successive_3d_offset": ["sample", "--target.dim", "3", "--sampler.method",
                             "brwp_successive", "--sampler.init_mean", "1",
                             "--sampler.n_steps", "10"],
    "explicit_flow": ["sample", "--sampler.method", "explicit_flow", "--sampler.n_steps", "10"],
    "ula": ["sample", "--sampler.method", "ula", "--sampler.n_steps", "10"],
    "kde_laplace": ["sample", "--target.id", "gaussian_mixture", "--sampler.method",
                    "brwp_kde", "--sampler.backend", "laplace_denominator",
                    "--sampler.n_steps", "10"],
    # the Laplace denominator above d = 1: a closed-form denominator, C-ordered as a blur is
    "successive_3d_laplace": ["sample", "--target.dim", "3", "--sampler.method",
                              "brwp_successive", "--sampler.backend", "laplace_denominator",
                              "--sampler.n_steps", "3"],
    # grid KDE, no operator
    "particle_2d": ["sample", "--target.id", "gaussian_mixture", "--target.dim", "2",
                    "--sampler.method", "brwp_particle", "--sampler.n_steps", "5"],
    # no catalog marginal: W2 is NaN
    "kde_l1_l12_2d": ["sample", "--target.id", "l1_l12", "--target.dim", "2",
                      "--sampler.method", "brwp_kde", "--sampler.n_steps", "5"],
    # nonsmooth target under the Laplace denominator: the finite-difference Laplacian
    "particle_l1_l12": ["sample", "--target.id", "l1_l12", "--sampler.method",
                        "brwp_particle", "--sampler.n_steps", "5"],
    # 4-D target on a 3-D grid without a marginal: every diagnostic is NaN
    "ula_gauss_laplace_4d": ["sample", "--target.id", "gauss_laplace", "--target.dim", "4",
                             "--sampler.method", "ula", "--sampler.n_steps", "5"],
    "prox_evolve_1d": ["prox-evolve", "--sampler.n_steps", "20", "--sampler.diag_every", "5"],
    "prox_evolve_2d": ["prox-evolve", "--target.dim", "2", "--sampler.n_steps", "10",
                       "--sampler.diag_every", "5"],
    # density files and sidecars on the default 41^3 grid
    "prox_evolve_3d": ["prox-evolve", "--target.dim", "3", "--sampler.n_steps", "2",
                       "--sampler.diag_every", "2"],
    # a stepsize other than the default: T follows sampler.h
    "prox_evolve_h02": ["prox-evolve", "--sampler.h", "0.2", "--sampler.n_steps", "5"],
    "order_check": ["order-check"],
    # the 2-D small-T expansion on the default 161^2 grid
    "order_check_2d": ["order-check", "--target.dim", "2"],
    "denominator_check": ["denominator-check"],
    # at y = 0 the Laplace form of a 2-D quadratic is exact: that point passes on abs_err
    "denominator_check_2d": ["denominator-check", "--target.dim", "2"],
    "decay_check": ["decay-check"],
    "sweep": ["stepsize-sweep"],
    # stepsizes far below the optimal 1/3: the law map folds in the far tail
    "sweep_small_h": ["stepsize-sweep", "--sweep.h_list", "0.05,0.1"],
    # values not written in their key's canonical form, and the --key=value form
    "typed_texts": ["sample", "--target.id", "gaussian_mixture", "--target.a", "2",
                    "--grid.n", "2401.0", "--sampler.T", "none", "--timing.record", "FALSE",
                    "--sampler.method", "brwp_kde", "--sampler.n_steps", "2",
                    "--sampler.kde_bandwidth", "auto", "--sampler.h=0.05"],
}


def stripped_bytes(path: Path) -> bytes:
    """File bytes without the columns and keys that are not reproducible."""
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        for key in STRIPPED_KEYS:
            manifest.pop(key, None)
        return json.dumps(manifest, indent=1, sort_keys=True).encode()
    if path.suffix == ".csv":
        lines = data.split(b"\n")
        header = lines[0].split(b",")
        if b"wallclock_ms" in header:
            col = header.index(b"wallclock_ms")
            return b"\n".join(b",".join(c for i, c in enumerate(line.split(b",")) if i != col)
                              for line in lines)
    return data


def run(src: Path, out: Path, seed: int, threads: int | None) -> Path:
    env = dict(os.environ, PYTHONPATH=str(src.resolve() / "src"))
    for var in THREAD_VARS:
        if threads is None:
            env.pop(var, None)
        else:
            env[var] = str(threads)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for name, argv in PRESETS.items():
        cmd = [sys.executable, "-m", "brwplab.cli", *argv, "--out", name, "--seed", str(seed)]
        if threads is not None:
            cmd += ["--threads", str(threads)]
        code = subprocess.run(cmd, cwd=out, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
        if (out / name / "manifest.json").is_file():
            subprocess.run([sys.executable, str(PLOT_TOOL), name], cwd=out, env=env,
                           check=True)
        print(f"{name}: exit {code}", file=sys.stderr)
        lines.append(f"exit {code}  {name}")
        for path in sorted(p for p in (out / name).rglob("*") if p.is_file()):
            digest = hashlib.sha256(stripped_bytes(path)).hexdigest()
            lines.append(f"{digest}  {path.relative_to(out).as_posix()}")
    listing = out / "sha256.txt"
    listing.write_text("\n".join(lines) + "\n")
    return listing


def compare(a: Path, b: Path) -> list:
    """Names whose hash or exit code differs, or that only one run has."""
    def entries(d):
        rows = (line.split("  ", 1) for line in (d / "sha256.txt").read_text().splitlines())
        return {name: digest for digest, name in rows}
    ea, eb = entries(a), entries(b)
    return sorted(n for n in ea.keys() | eb.keys() if ea.get(n) != eb.get(n))


def _leaves(value, path=()):
    """(path, leaf) for every leaf of nested JSON dicts and lists."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path, value


def cells(path: Path) -> dict:
    """The file's values by position: (row, column) of a CSV without its
    wallclock_ms column, or the key path of a manifest without STRIPPED_KEYS."""
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text())
        for key in STRIPPED_KEYS:
            manifest.pop(key, None)
        return dict(_leaves(manifest))
    rows = [line.split(",") for line in path.read_text().splitlines()]
    skip = rows[0].index("wallclock_ms") if rows and "wallclock_ms" in rows[0] else None
    return {(i, j): cell for i, row in enumerate(rows) for j, cell in enumerate(row)
            if j != skip}


def manifest_key_diff(a: Path, b: Path) -> list:
    """'only in A: KEY', 'only in B: KEY' and 'differs: KEY' for the top-level
    keys and the config keys (as config.KEY) of two manifests, without
    STRIPPED_KEYS. Values are compared as JSON text, so NaN equals NaN."""
    def keys(path):
        manifest = json.loads(path.read_text())
        config = manifest.pop("config", {})
        manifest.update((f"config.{k}", v) for k, v in config.items())
        for key in STRIPPED_KEYS:
            manifest.pop(key, None)
        return {k: json.dumps(v, sort_keys=True) for k, v in manifest.items()}
    ka, kb = keys(a), keys(b)
    return ([f"only in A: {k}" for k in sorted(ka.keys() - kb.keys())]
            + [f"only in B: {k}" for k in sorted(kb.keys() - ka.keys())]
            + [f"differs: {k}" for k in sorted(ka.keys() & kb.keys()) if ka[k] != kb[k]])


def _number(value):
    """value as a float, or None when it is not a number."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def max_difference(a: Path, b: Path):
    """(largest absolute difference, largest relative difference, count of
    differing non-numeric cells) between two files of the same shape, or
    None when their shapes differ. A cell's relative difference is taken
    against the larger magnitude of the pair; NaN against a number is inf."""
    ca, cb = cells(a), cells(b)
    if ca.keys() != cb.keys():
        return None
    abs_d = rel_d = 0.0
    other = 0
    for key, va in ca.items():
        vb = cb[key]
        if va == vb:
            continue
        x, y = _number(va), _number(vb)
        if x is None or y is None:
            other += 1
            continue
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        d = abs(x - y)
        rel = d / max(abs(x), abs(y)) if math.isfinite(d) else math.inf
        abs_d, rel_d = max(abs_d, d if math.isfinite(d) else math.inf), max(rel_d, rel)
    return abs_d, rel_d, other


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run", help="run the presets and hash their files")
    p_run.add_argument("src", type=Path, help="source tree holding src/brwplab")
    p_run.add_argument("out", type=Path, help="directory for the outputs and sha256.txt")
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--threads", type=int, default=None)
    p_cmp = sub.add_parser("compare", help="list the files that differ between two runs")
    p_cmp.add_argument("a", type=Path)
    p_cmp.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "run":
        print(run(args.src, args.out, args.seed, args.threads))
        return 0
    diff = compare(args.a, args.b)
    for name in diff:
        print(name)
    for name in diff:
        fa, fb = args.a / name, args.b / name
        if not (fa.is_file() and fb.is_file()
                and (fa.suffix == ".csv" or fa.name == "manifest.json")):
            continue
        if fa.name == "manifest.json":
            print(f"{name}: keys {'; '.join(manifest_key_diff(fa, fb))}", file=sys.stderr)
        bound = max_difference(fa, fb)
        if bound is None:
            print(f"{name}: shapes differ", file=sys.stderr)
            continue
        abs_d, rel_d, other = bound
        note = f", {other} non-numeric cells differ" if other else ""
        print(f"{name}: max abs diff {abs_d:.3g}, max rel diff {rel_d:.3g}{note}",
              file=sys.stderr)
    n_files = sum(1 for _ in (args.a / "sha256.txt").read_text().splitlines())
    print(f"{len(diff)} of {n_files} entries differ", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
