"""Time GridProxOperator.score_of_step and apply_blur of two source trees, pair by pair.

    python tools/layer_bench.py SRC_A SRC_B [--pairs N]

Each pair runs both trees, alternating which goes first, each in a fresh
subprocess with SRC/src first on sys.path and the same environment. A child
builds four operators with fixed inputs: 2401 points on +-12 for the 1-D
Gaussian mixture, and 161^2 and 41^3 on +-12 for the quadratic, all at
T = 0.05 and beta = 1, with rho0 a Gaussian of variance 1 centred at 0.3 on
every axis; and "2401z", which times the 1-D blur's tail repair as
evolve_law exercises it: the 1-D quadratic at T = 1/3, with that rho0 set to
0 outside [-4, 4], as the law's pushforward leaves it. It times each layer
as the median of 30 calls after 3 warm-up calls. For each grid and layer
the report gives each tree's median and quartiles over the pairs, and how
many pairs B ran faster than A, ties counting for neither. It also prints
the BLAS thread variables, the numpy version and the core count.

Standard library only; numpy is imported in the children.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("score_of_step", "apply_blur")

CHILD = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from brwplab.density import Grid, GridDensity, uniform_axis
from brwplab.potentials import make_gaussian_mixture, make_quadratic
from brwplab.proximal import GridProxOperator, ProxParams

def median_time(fn, warm=3, calls=30):
    for _ in range(warm):
        fn()
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))

out = {"numpy": np.__version__, "grids": {}}
for name, dim, n, target, T, support in (
        ("2401", 1, 2401, make_gaussian_mixture(2.0, 1.0, dim=1), 0.05, None),
        ("2401z", 1, 2401, make_quadratic(1.0, 1), 1 / 3, 4.0),
        ("161^2", 2, 161, make_quadratic(1.0, 2), 0.05, None),
        ("41^3", 3, 41, make_quadratic(1.0, 3), 0.05, None)):
    grid = Grid((uniform_axis(-12.0, 12.0, n),) * dim)
    op = GridProxOperator(grid, target, ProxParams(T=T, beta=1.0))
    vals = np.exp(-sum((m - 0.3) ** 2 for m in grid.mesh) / 2)
    if support is not None:
        vals[np.abs(grid.mesh[0]) > support] = 0.0
    rho0 = GridDensity(grid, vals).normalize()
    ratio = rho0.values / op.denom
    out["grids"][name] = {"score_of_step": median_time(lambda: op.score_of_step(rho0)),
                          "apply_blur": median_time(lambda: op.apply_blur(ratio))}
print(json.dumps(out))
"""


def run_child(src: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src.resolve() / "src")],
                          capture_output=True, text=True, env=dict(os.environ), check=True)
    return json.loads(proc.stdout)


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
    runs = {"A": [], "B": []}
    numpy_versions = set()
    for k in range(args.pairs):
        order = (("A", args.src_a), ("B", args.src_b))
        for side, src in (order if k % 2 == 0 else order[::-1]):
            res = run_child(src)
            numpy_versions.add(res["numpy"])
            runs[side].append(res["grids"])
        print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr)

    print("A =", args.src_a, " B =", args.src_b, f" pairs = {args.pairs}")
    print("threads:", ", ".join(f"{v}={os.environ.get(v, '<unset>')}" for v in THREAD_VARS))
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    print(f"numpy: {', '.join(sorted(numpy_versions))}  cores: {os.cpu_count()}"
          f" (usable {affinity})")
    print(f"{'grid':<7} {'layer':<14} {'A median [q1, q3] ms':<26} "
          f"{'B median [q1, q3] ms':<26} B won")
    for grid in runs["A"][0]:
        for layer in LAYERS:
            a = [r[grid][layer] * 1e3 for r in runs["A"]]
            b = [r[grid][layer] * 1e3 for r in runs["B"]]
            won = sum(y < x for x, y in zip(a, b))
            cols = []
            for xs in (a, b):
                q1, q2, q3 = quartiles(xs)
                cols.append(f"{q2:.3f} [{q1:.3f}, {q3:.3f}]")
            print(f"{grid:<7} {layer:<14} {cols[0]:<26} {cols[1]:<26} {won}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
