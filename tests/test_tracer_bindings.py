"""The benchmark tracer (perfbench/tracing.py) still finds every name it binds.

The tracer wraps brwplab's functions by module and name; a renamed or deleted
one makes install() raise, and the traced benchmark runs with it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)    # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_install_round_trips(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    for name in tracing.MODULES:
        importlib.import_module(name)
    for mod_name, fn_name, _, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), fn_name, None)), \
            f"{mod_name}.{fn_name}"
    op_cls = importlib.import_module("brwplab.proximal").GridProxOperator
    for meth, _, _ in tracing.OPERATOR_METHODS:
        assert meth in op_cls.__dict__, f"GridProxOperator.{meth}"
    for mod_name, fn_name in tracing.POTENTIAL_FACTORIES:
        assert callable(getattr(importlib.import_module(mod_name), fn_name, None)), \
            f"{mod_name}.{fn_name}"

    originals = {meth: op_cls.__dict__[meth] for meth, _, _ in tracing.OPERATOR_METHODS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.originals()
    finally:
        tracer.uninstall()
    assert {meth: op_cls.__dict__[meth] for meth in originals} == originals
    assert "open" not in vars(importlib.import_module("brwplab.cli"))


@pytest.mark.parametrize("grid", [((-12.0, 12.0, 2401),), ((-8.0, 8.0, 161),) * 2],
                         ids=["2401", "161^2"])
def test_tracer_sees_every_kde_of_a_run(monkeypatch, grid):
    """One density.kde span per diagnostics row, binned or direct; each step reuses its row's."""
    tracing = _load_tracing(monkeypatch)
    samplers = importlib.import_module("brwplab.samplers")
    target = importlib.import_module("brwplab.potentials").make_quadratic(1.0, dim=len(grid))
    cfg = samplers.SamplerConfig(method="brwp_kde", n_steps=3, diag_every=1, n_particles=200,
                                 seed=0, grid=grid)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        samplers.run(cfg, target)
    finally:
        tracer.uninstall()
    assert sum(s.name == "density.kde" for s in tracer.spans) == cfg.n_steps + 1
