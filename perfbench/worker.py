"""Child process of run.py: runs one workload through brwplab.cli.main, repeatedly.

A separate process per workload gives the workload its own peak RSS and lets
run.py choose the BLAS thread environment before numpy loads. The worker
makes one warm-up call with the base seed, then measured calls until the time
budget is spent: in "plain" mode the first measured call repeats the base
seed (the determinism check) and later calls use fresh seeds; in "trace" mode
each seed runs twice, untraced then traced, and the two outputs must match.

With --setup-probes it also times a fresh interpreter's imports after each
measured call, so that the set-up samples spread over the whole run, as the
calls do, instead of catching the machine at one moment.

Prints one JSON object as its last stdout line: the environment record, one
record per call and the set-up samples.

    python3 perfbench/worker.py --src src --workload kde_1d --seed 1 \
        --seconds 25 --mode plain --out .bench_out/work
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import workloads
from tracing import Tracer, layer_metrics

# Python warnings brwplab emits, by the message text that identifies them
WARNING_KINDS = (("clamp", "clamped to the score grid edge"),
                 ("laplace_guard", "Laplace denominator accuracy degrades"),
                 ("mass_drift", "pre-renormalization mass"),
                 ("max_stepsize", "exceeds the maximum stable stepsize"))


def time_setup(src: Path) -> float:
    """Seconds from interpreter start until numpy and brwplab.cli are imported,
    in a fresh interpreter with this process's environment."""
    probe = (f"import sys; sys.path.insert(0, {str(src)!r}); "
             "import numpy, brwplab.cli; print('ready', flush=True)")
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", probe], stdout=subprocess.PIPE) as p:
        line = p.stdout.readline()
        elapsed = time.perf_counter() - t0
        p.stdout.read()
        if p.wait(timeout=60) != 0 or line.strip() != b"ready":
            raise RuntimeError("setup probe failed to import numpy and brwplab.cli")
    return elapsed


def call_seed(base: int, j: int) -> int:
    """Seed of the j-th distinct input of a run; j = 0 is the base seed."""
    return base if j == 0 else base * 1000 + j


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    try:
        config = np.show_config(mode="dicts")
    except TypeError:        # numpy < 1.26 has no dict mode
        config = None
    return {"blas_threads": blas_threads(), "numpy": np.__version__,
            "numpy_config": config, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": sys.version,
            "thread_env": {k: os.environ.get(k) for k in
                           ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def _warning_counts(caught) -> dict:
    counts = {kind: 0 for kind, _ in WARNING_KINDS}
    counts["other"] = 0
    for w in caught:
        text = str(w.message)
        kind = next((k for k, needle in WARNING_KINDS if needle in text), "other")
        counts[kind] += 1
    return counts


def run_call(cli, w: workloads.Workload, seed: int, outdir: Path,
             tracer: Tracer | None = None, steps: int | None = None) -> dict:
    """One operation: a cli.main call, its checks and its measurements."""
    shutil.rmtree(outdir, ignore_errors=True)
    argv = workloads.cli_argv(w, outdir, seed, steps)
    rec = {"seed": seed, "traced": tracer is not None}
    try:
        if tracer is not None:
            tracer.reset()
            tracer.install()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            ru0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            span = tracer.begin("cli.main") if tracer is not None else None
            try:
                rec["exit_code"] = cli.main(argv)
            except Exception as exc:   # a crash is a failed operation, not a benchmark abort
                rec["exit_code"] = None
                rec["errors"] = [f"cli.main raised {exc!r}"]
            finally:
                if span is not None:
                    tracer.end(span)
            rec["run_s"] = time.perf_counter() - t0
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rec["cpu_s"] = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
    rec["warnings"] = _warning_counts(caught)
    if rec["exit_code"] != 0:
        rec.setdefault("errors", [f"exit code {rec['exit_code']}"])
        return rec
    try:
        rec.update(workloads.inspect_outputs(w, outdir, check_sweep=steps is None))
    except (OSError, KeyError, ValueError, IndexError) as exc:
        rec["errors"] = [f"unreadable outputs: {exc!r}"]
        return rec
    if "final_kl" not in rec:
        rec["errors"].append("reported diagnostics trace missing")
    if tracer is not None:
        rec["layers"] = layer_metrics(tracer, rec["rows"])
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding the brwplab package")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("plain", "trace"), default="plain")
    ap.add_argument("--min-calls", type=int, default=1)
    ap.add_argument("--setup-probes", action="store_true",
                    help="time a fresh interpreter's imports after every measured call")
    ap.add_argument("--out", required=True, help="scratch directory for artifacts")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (the BLAS thread record needs it loaded)
    import brwplab
    from brwplab import cli
    if Path(brwplab.__file__).resolve().parent.parent != src:
        print(f"brwplab imported from {brwplab.__file__}, not {src}", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    outdir = Path(args.out).resolve()
    tracer = Tracer() if args.mode == "trace" else None
    records = [dict(run_call(cli, w, args.seed, outdir), warmup=True)]
    deadline = time.perf_counter() + args.seconds
    first = 0 if tracer is None else 1   # plain mode repeats the warm-up seed once
    j = first
    setup = []
    while j - first < args.min_calls or time.perf_counter() < deadline:
        seed = call_seed(args.seed, j)
        records.append(run_call(cli, w, seed, outdir))
        if tracer is not None:
            records.append(run_call(cli, w, seed, outdir, tracer))
        if args.setup_probes:
            setup.append(time_setup(src))
        j += 1
    shutil.rmtree(outdir, ignore_errors=True)
    result = {"environment": environment(), "records": records, "setup_s": setup,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
