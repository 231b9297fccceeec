"""Time the build, score_of_step, apply_blur, a diagnostics row, the KDE, interp_at and
the particle score of two trees, pair by pair.

    python tools/layer_bench.py SRC_A SRC_B [--pairs N]

Both trees are loaded into this one process, SRC/src/brwplab as the packages
brwplab_a and brwplab_b (the package imports only relatively), so the two
share one interpreter, one numpy and one heap, and a figure does not carry
the spread between fresh processes. Each tree builds five operators with
fixed inputs: 2401 points on +-12 for the 1-D Gaussian mixture, and 161^2
and 41^3 on +-12 for the quadratic, all at T = 0.05 and beta = 1, with rho0
a Gaussian of variance 1 centred at 0.3 on every axis; "2401z", which times
the 1-D blur's tail repair as evolve_law exercises it: the 1-D quadratic at
T = 1/3, with that rho0 set to 0 outside [-4, 4], as the law's pushforward
leaves it; and "41^3lap", the 41^3 operator with the laplace_denominator
backend, whose denominator is the closed form rather than a blur.
Every other operator uses the quadrature backend. The layers are build (the
GridProxOperator construction, on a grid whose points and weights are
already cached), score_of_step, apply_blur and, on 2401, 161^2 and 41^3,
diagnose: one samplers._diagnose row of a brwp_successive run whose chain
is rho0, against that operator's target and grad V. Each diagnose call sets
the chain to a fresh GridDensity of rho0's values, so the log of the chain
is taken in every call, as in a run; the run-constant target density is
built in the warm-up calls and reused. Also on 2401, 161^2 and 41^3, kde
estimates 500 particles on the grid with the "auto" bandwidth as a run
does, by samplers._grid_kde with a fresh DensityState each call (so it
times whichever estimator the tree's run uses, binned or direct), and
interp_at interpolates the d score fields of one score_of_step of rho0 at
500 particles; the grid
"41" (41 points on +-12) times that kde of 2000 particles, and "2000x10d"
times prox_particle_score of 2000 particles of the 10-D Gaussian mixture at
T = 0.05. The particles of each are a fixed draw
(numpy's default_rng(0)) of a run's default initial law N(0, 2) on every
axis, the same for both trees. In each pair, for each grid
and layer, both trees take 3 warm-up calls and then 30 timed calls,
alternating A and B call by call (B first in every other pair); a tree's
figure for the pair is the median of its 30 calls. For each grid and layer
the report gives each tree's median and quartiles over the pairs and how
many pairs B ran faster than A, ties counting for neither. It also prints
the BLAS thread variables, the numpy version and the core count.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WARM, CALLS = 3, 30


def load_tree(src: Path, name: str):
    """Import SRC/src/brwplab as the package `name`; return four of its modules."""
    pkg_dir = src.resolve() / "src" / "brwplab"
    spec = importlib.util.spec_from_file_location(name, pkg_dir / "__init__.py",
                                                  submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return [importlib.import_module(f"{name}.{mod}")
            for mod in ("density", "potentials", "proximal", "samplers")]


def layer_calls(src: Path, name: str) -> dict:
    """{grid: {layer: zero-argument call}} for the operators of one tree."""
    density, potentials, proximal, samplers = load_tree(src, name)
    cfg = samplers.SamplerConfig(method="brwp_successive")
    calls = {}
    quad, lap = "quadrature", "laplace_denominator"
    for label, dim, n, target, T, support, backend in (
            ("2401", 1, 2401, potentials.make_gaussian_mixture(2.0, 1.0, dim=1), 0.05, None,
             quad),
            ("2401z", 1, 2401, potentials.make_quadratic(1.0, 1), 1 / 3, 4.0, quad),
            ("161^2", 2, 161, potentials.make_quadratic(1.0, 2), 0.05, None, quad),
            ("41^3", 3, 41, potentials.make_quadratic(1.0, 3), 0.05, None, quad),
            ("41^3lap", 3, 41, potentials.make_quadratic(1.0, 3), 0.05, None, lap)):
        grid = density.Grid((density.uniform_axis(-12.0, 12.0, n),) * dim)
        build = functools.partial(proximal.GridProxOperator, grid, target,
                                  proximal.ProxParams(T=T, beta=1.0), backend)
        op = build()
        vals = np.exp(-sum((m - 0.3) ** 2 for m in grid.mesh) / 2)
        if support is not None:
            vals[np.abs(grid.mesh[0]) > support] = 0.0
        rho0 = density.GridDensity(grid, vals).normalize()
        ratio = rho0.values / op.denom
        calls[label] = {"build": build,
                        "score_of_step": lambda op=op, rho0=rho0: op.score_of_step(rho0),
                        "apply_blur": lambda op=op, ratio=ratio: op.apply_blur(ratio)}
        if support is None and backend == quad:
            state = samplers.DensityState(grid, operator=op)

            def diagnose(state=state, target=target, vals=rho0.values):
                state.chain = density.GridDensity(state.grid, vals)
                return samplers._diagnose(cfg, target, None, state, 0, 0.0)
            calls[label]["diagnose"] = diagnose
            calls[label]["kde"] = kde_call(density, samplers, grid, 500)
            calls[label]["interp_at"] = functools.partial(
                samplers.interp_at, grid.axes, op.score_of_step(rho0)[2], particles(500, dim))
    grid_41 = density.Grid((density.uniform_axis(-12.0, 12.0, 41),))
    calls["41"] = {"kde": kde_call(density, samplers, grid_41, 2000)}
    cloud = density.ParticleEnsemble(particles(2000, 10))
    target = potentials.make_gaussian_mixture(2.0, 1.0, dim=10)
    calls["2000x10d"] = {"prox_particle_score": functools.partial(
        proximal.prox_particle_score, cloud, target, proximal.ProxParams(T=0.05, beta=1.0))}
    return calls


def particles(n: int, dim: int) -> np.ndarray:
    """n fixed points in R^dim, drawn from N(0, 2) on every axis as a default run starts."""
    return np.sqrt(2.0) * np.random.default_rng(0).standard_normal((n, dim))


def kde_call(density, samplers, grid, n: int):
    """The run's KDE of n fixed particles on grid, from a fresh DensityState each call."""
    cloud = density.ParticleEnsemble(particles(n, grid.dim))
    cfg = samplers.SamplerConfig(method="brwp_kde")
    return lambda: samplers._grid_kde(cloud, cfg, samplers.DensityState(grid))


def alternate_medians(fns: list) -> list:
    """Median time of each fn over CALLS rounds that call every fn once, in order."""
    for _ in range(WARM):
        for fn in fns:
            fn()
    times = [[] for _ in fns]
    for _ in range(CALLS):
        for fn, ts in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            ts.append(time.perf_counter() - t0)
    return [statistics.median(ts) for ts in times]


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src_a", type=Path)
    ap.add_argument("src_b", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    trees = {"A": layer_calls(args.src_a, "brwplab_a"),
             "B": layer_calls(args.src_b, "brwplab_b")}
    runs = {side: {grid: {layer: [] for layer in layers} for grid, layers in calls.items()}
            for side, calls in trees.items()}
    for k in range(args.pairs):
        order = ("A", "B") if k % 2 == 0 else ("B", "A")
        for grid, layers in trees["A"].items():
            for layer in layers:
                medians = alternate_medians([trees[side][grid][layer] for side in order])
                for side, t in zip(order, medians):
                    runs[side][grid][layer].append(t * 1e3)
        print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr)

    print("A =", args.src_a, " B =", args.src_b, f" pairs = {args.pairs}")
    print("threads:", ", ".join(f"{v}={os.environ.get(v, '<unset>')}" for v in THREAD_VARS))
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    print(f"numpy: {np.__version__}  cores: {os.cpu_count()} (usable {affinity})")
    print(f"{'grid':<8} {'layer':<19} {'A median [q1, q3] ms':<26} "
          f"{'B median [q1, q3] ms':<26} B won")
    for grid, layers in trees["A"].items():
        for layer in layers:
            a, b = runs["A"][grid][layer], runs["B"][grid][layer]
            won = sum(y < x for x, y in zip(a, b))
            cols = []
            for xs in (a, b):
                q1, q2, q3 = quartiles(xs)
                cols.append(f"{q2:.3f} [{q1:.3f}, {q3:.3f}]")
            print(f"{grid:<8} {layer:<19} {cols[0]:<26} {cols[1]:<26} {won}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
