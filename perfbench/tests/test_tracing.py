"""Tests of the benchmark's tracing: span arithmetic, wrapper coverage, layer coverage.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, busy, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_union_of_child_intervals():
    spans = [Span("a", 0.0, 10.0),
             Span("b", 1.0, 3.0, parent=0),
             Span("c", 2.0, 5.0, parent=0),    # overlaps b: covered once
             Span("d", 6.0, 7.0, parent=0),
             Span("e", 6.2, 6.8, parent=3),    # grandchild: only d loses it
             Span("f", 9.5, 12.0, parent=0)]   # clipped to the parent's end
    assert self_times(spans) == pytest.approx([10 - 4 - 1 - 0.5, 2, 3, 0.4, 0.6, 2.5])


def test_busy_counts_nested_spans_of_one_name_once():
    spans = [Span("x", 0.0, 4.0), Span("x", 1.0, 2.0, parent=0),
             Span("y", 5.0, 6.0), Span("x", 5.2, 5.5, parent=2)]
    assert busy(spans, "x") == pytest.approx(4.3)


def test_tracer_records_parents_from_a_clock():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    outer = tr.begin("cli.main")
    inner = tr.begin("samplers.run")
    tr.end(inner)
    tr.end(outer)
    assert [(s.name, s.start, s.end, s.parent) for s in tr.spans] == \
        [("cli.main", 0.0, 3.0, None), ("samplers.run", 1.0, 2.0, 0)]
    assert layer_metrics(tr, rows=1)["cli.main.self_s"] == 2.0


def test_install_wraps_every_binding_and_uninstall_restores():
    import brwplab
    import brwplab.cli
    import brwplab.density
    import brwplab.samplers
    kde, target_density = brwplab.density.kde, brwplab.density.target_density
    tr = Tracer()
    tr.install()
    try:
        originals = [f for f in tr.originals() if callable(f)]
        assert kde in originals and target_density in originals
        for mod in tracing.brwplab_modules():
            for attr, value in vars(mod).items():
                assert not any(value is f for f in originals), f"{mod.__name__}.{attr} unwrapped"
        for mod in (brwplab, brwplab.density, brwplab.samplers):
            assert mod.kde.__traced_original__ is kde
        assert brwplab.samplers.target_density.__traced_original__ is target_density
        assert brwplab.density.target_density is brwplab.samplers.target_density
    finally:
        tr.uninstall()
    assert brwplab.samplers.kde is kde and brwplab.kde is kde
    assert brwplab.samplers.target_density is target_density
    assert "open" not in vars(brwplab.cli)


# span names every workload must record, and the layer each one stands for
HOME_SPANS = {
    "kde_1d": {"proximal.GridProxOperator.build", "proximal.GridProxOperator.apply_blur",
               "proximal.GridProxOperator.score_of_step", "density.kde",
               "density.target_density", "density.kl_divergence", "density.w2",
               "potentials.eval", "potentials.grad", "samplers.run", "samplers.step",
               "samplers.interp_at", "cli.main", "cli.artifacts"},
    "successive_3d": {"proximal.GridProxOperator.score_of_step", "density.fisher_information",
                      "density.fourth_moment_m0", "density.tv_distance", "samplers.step"},
    "particle_10d": {"proximal.prox_particle_score", "samplers.step", "cli.artifacts"},
    "law_sweep_1d": {"samplers.evolve_law", "proximal.GridProxOperator.build"},
}
# exact counts the code implies (short runs: two steps per trace)
EXACT = {
    "kde_1d": {"proximal.apply_blur.per_step": 3, "density.kde.per_step": 2,
               "proximal.GridProxOperator.build.calls": 1},
    "successive_3d": {"proximal.apply_blur.per_step": 5, "density.kde.calls": 0},
    "particle_10d": {"proximal.prox_particle_score.calls": 2,
                     "proximal.GridProxOperator.build.calls": 0},
    "law_sweep_1d": {"proximal.GridProxOperator.build.calls": 4,
                     "proximal.apply_blur.per_step": 3, "samplers.step.calls": 0},
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_layer_records_spans_on_its_home_workload(name, tmp_path):
    from brwplab import cli
    tr = Tracer()
    rec = worker.run_call(cli, workloads.WORKLOADS[name], 3, tmp_path / "out", tr, steps=2)
    assert rec["exit_code"] == 0 and not rec["errors"], rec.get("errors")
    recorded = {s.name for s in tr.spans}
    assert HOME_SPANS[name] <= recorded, HOME_SPANS[name] - recorded
    for key, want in EXACT[name].items():
        assert rec["layers"][key] == want, key


def test_wallclock_column_is_ignored_by_the_digest(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("iter,kl,wallclock_ms\n0,0.5,1.25\n1,0.25,9.0\n")
    b.write_text("iter,kl,wallclock_ms\n0,0.5,3.5\n1,0.25,7.0\n")
    assert workloads._strip_wallclock(a) == workloads._strip_wallclock(b)
    b.write_text("iter,kl,wallclock_ms\n0,0.5,3.5\n1,0.26,7.0\n")
    assert workloads._strip_wallclock(a) != workloads._strip_wallclock(b)
