"""brwplab benchmark: end-to-end metrics per workload, or per-layer metrics when traced.

    python3 perfbench/run.py --workload kde_1d --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout that holds src/brwplab. Untraced runs
(--trace 0) run the workload in a worker process with the program's default
BLAS threading; after each call the worker times one fresh interpreter's
imports for setup_s. Traced runs
(--trace 1) alternate untraced and traced calls on the same seeds, report the
per-layer metrics, and make one informational pass with
OPENBLAS_NUM_THREADS=1. Every call is checked (see workloads.py); the last stdout
line is the JSON result, and the full record, with the environment, goes to
.bench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# p90 of the pooled per-iteration latencies; MIN_ITERATIONS keeps at least
# ten samples above it in every run
TAIL_PERCENTILE = 90
MIN_ITERATIONS = 100
RUN_BUDGET_S = 170      # a run must end within 180 s, whatever its workers do


def default_env(**extra) -> dict:
    """The caller's environment without BLAS thread pins, so brwplab's own default applies."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(extra)
    return env


def run_worker(w, seed: int, seconds: float, mode: str, min_calls: int, tag: str,
               env: dict, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--workload", w.name, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", mode, "--min-calls", str(min_calls),
           "--out", str(OUT / f"work-{w.name}-{tag}-{os.getpid()}"), *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                       timeout=max(1.0, deadline - time.monotonic()))
    if p.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {p.returncode}: {p.stderr.strip()[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def _determinism_errors(records: list) -> None:
    """Mark every call whose checked files differ from an earlier call with its seed."""
    first = {}
    for rec in records:
        if "digests" not in rec:
            continue
        ref = first.setdefault(rec["seed"], rec)
        if ref is not rec and ref["digests"] != rec["digests"]:
            rec["errors"].append(f"outputs differ from an earlier call with seed {rec['seed']}")


def _median(records: list, key: str) -> float:
    return statistics.median(r[key] for r in records)


def _passed(records: list) -> list:
    return [r for r in records if not r.get("errors") and not r.get("warmup")]


def _all_errors(records: list) -> str:
    return "; ".join(sorted({e for r in records for e in r.get("errors", [])}))


def end_to_end(w, seed: int, seconds: float, deadline: float) -> tuple:
    # enough calls that the tail percentile has ten samples above it
    min_calls = -(-MIN_ITERATIONS // (w.steps * w.traces))
    res = run_worker(w, seed, seconds, "plain", min_calls, "main", default_env(), deadline,
                     "--setup-probes")
    setup = res["setup_s"]
    records = res["records"]
    _determinism_errors(records)
    ok = _passed(records)
    if not ok:
        raise RuntimeError("no measured call passed its checks: " + _all_errors(records))
    iters = sorted(x for r in ok for x in r["iter_ms"])
    metrics = {
        "run_s": _median(ok, "run_s"),
        "iter_ms_p50": statistics.median(iters),
        "iter_ms_tail": statistics.quantiles(iters, n=100)[TAIL_PERCENTILE - 1],
        "cpu_s": _median(ok, "cpu_s"),
        "peak_rss_mb": res["peak_rss_mb"],
        # accuracy varies with the seed, not with the machine: average the seeds
        "final_kl": statistics.fmean(r["final_kl"] for r in ok),
        "final_w2": statistics.fmean(r["final_w2"] for r in ok),
        "setup_s": statistics.median(setup),
    }
    return metrics, {"environment": res["environment"], "setup_samples_s": setup,
                     "iteration_samples": len(iters), "tail_percentile": TAIL_PERCENTILE,
                     "records": records}


def traced(w, seed: int, seconds: float, deadline: float) -> tuple:
    res = run_worker(w, seed, seconds, "trace", 1, "trace", default_env(), deadline)
    # informational single-threaded baseline, not gated: the base seed again,
    # in a worker with OPENBLAS_NUM_THREADS=1
    single = run_worker(w, seed, 0, "plain", 1, "single",
                        default_env(OPENBLAS_NUM_THREADS="1"), deadline)
    records = res["records"]
    _determinism_errors(records)
    _determinism_errors(single["records"])
    ok = _passed(records)
    plain = [r for r in ok if not r["traced"]]
    with_trace = [r for r in ok if r["traced"]]
    if not plain or not with_trace:
        raise RuntimeError("no traced/untraced call pair passed its checks: " + _all_errors(records))
    metrics = {k: statistics.median(r["layers"][k] for r in with_trace)
               for k in with_trace[0]["layers"]}
    for key in ("files", "bytes"):
        metrics[f"cli.artifacts.{key}"] = _median(with_trace, key)
    for kind in with_trace[0]["warnings"]:
        metrics[f"events.warnings.{kind}"] = statistics.median(
            r["warnings"][kind] for r in with_trace)
    metrics["trace.overhead_s"] = _median(with_trace, "run_s") - _median(plain, "run_s")
    single_ok = _passed(single["records"])
    by_seed = {r["seed"]: r for r in records if "digests" in r and not r["traced"]}
    info = {"environment": single["environment"],
            "run_s": _median(single_ok, "run_s") if single_ok else None,
            "cpu_s": _median(single_ok, "cpu_s") if single_ok else None,
            "default_threads_run_s": _median(plain, "run_s"),
            "same_bytes_as_default_threads": all(
                r["digests"] == by_seed[r["seed"]]["digests"]
                for r in single_ok if r["seed"] in by_seed)}
    return metrics, {"environment": res["environment"], "single_thread": info,
                     "records": records + single["records"]}


def src_digest() -> str:
    import hashlib
    h = hashlib.sha256()
    for path in sorted((SRC / "brwplab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                           cwd=ROOT, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def run_one(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    w = workloads.WORKLOADS[name]
    metrics, detail = (traced if trace else end_to_end)(w, seed, seconds,
                                                        time.monotonic() + RUN_BUDGET_S)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    attempted = len(detail["records"])
    failed = sum(1 for r in detail["records"] if r.get("errors"))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    detail.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                  commit=commit(), src_sha256=src_digest(), result=result)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{name}-seed{seed}-trace{trace}.json", "w") as f:
        json.dump(detail, f, indent=1)
    env = detail["environment"]
    print(f"[{name}] blas_threads={env['blas_threads']} nproc={env['nproc']} "
          f"numpy={env['numpy']} commit={detail['commit'][:12]} failed/attempted={failed}/{attempted}")
    if failed:
        print(f"[{name}] FAILED: {_all_errors(detail['records'])}")
    for m in wanted:
        print(f"[{name}] {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    if trace:
        st = detail["single_thread"]
        print(f"[{name}] info: OPENBLAS_NUM_THREADS=1 run_s={st['run_s']} cpu_s={st['cpu_s']} "
              f"(default threads run_s={st['default_threads_run_s']:.4g}) "
              f"same_bytes={st['same_bytes_as_default_threads']}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "brwplab" / "__init__.py").is_file():
        print(f"no brwplab sources under {SRC}; run inside a full checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_one(n, args.seed, args.seconds, args.trace, spec) for n in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
