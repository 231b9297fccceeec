"""Span tracing of brwplab from outside the program, for the traced runs.

``Tracer.install`` replaces public functions of brwplab's modules with
wrappers that record a span around each call, on every module that binds the
function (``brwplab.density.kde`` and ``brwplab.samplers.kde`` are the same
function under two names, and both must be wrapped or the samplers' calls
go unseen). ``uninstall`` puts the originals back. Spans stay in memory;
``layer_metrics`` turns the spans of one CLI call into per-layer metrics.

Layers are brwplab's modules. ``theory`` only evaluates scalars and shows up
in samplers self time; ``svgfig`` and the files ``cli`` writes count as
``cli.artifacts``; ``errors`` does no work.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: Optional[int] = None


# hooks turn a call's bound arguments and result into counters
def _kde_evals(tr, a, _):
    grid_points = math.prod(len(ax) for ax in a["query_axes"])
    tr.counts["density.kde.kernel_evals"] += grid_points * a["ensemble"].n


def _particle_pairs(tr, a, _):
    n = a["ensemble"].n
    queries = n if a.get("query") is None else len(a["query"])
    tr.counts["proximal.prox_particle_score.pairs"] += n * queries


def _blur_points(tr, a, _):
    tr.counts["proximal.GridProxOperator.apply_blur.points"] += a["vals"].size


def _step_mass(tr, _, result):
    tr.masses.append(float(result[1]))


def _interp_clamped(tr, _, result):
    tr.counts["samplers.interp_at.clamped"] += result[1]


MODULES = ("brwplab", "brwplab.cli", "brwplab.density", "brwplab.potentials",
           "brwplab.proximal", "brwplab.samplers", "brwplab.svgfig", "brwplab.theory")
# (module, function, span name, hook)
FUNCTIONS = (
    ("brwplab.density", "kde", "density.kde", _kde_evals),
    ("brwplab.density", "target_density", "density.target_density", None),
    ("brwplab.density", "kl_divergence", "density.kl_divergence", None),
    ("brwplab.density", "fisher_information", "density.fisher_information", None),
    ("brwplab.density", "fourth_moment_m0", "density.fourth_moment_m0", None),
    ("brwplab.density", "tv_distance", "density.tv_distance", None),
    ("brwplab.density", "w2_grids_1d", "density.w2", None),
    ("brwplab.density", "w2_to_target_1d", "density.w2", None),
    ("brwplab.proximal", "prox_particle_score", "proximal.prox_particle_score", _particle_pairs),
    ("brwplab.samplers", "run", "samplers.run", None),
    ("brwplab.samplers", "evolve_law", "samplers.evolve_law", None),
    ("brwplab.samplers", "brwp_step", "samplers.step", None),
    ("brwplab.samplers", "ula_step", "samplers.step", None),
    ("brwplab.samplers", "explicit_flow_step", "samplers.step", None),
    ("brwplab.samplers", "interp_at", "samplers.interp_at", _interp_clamped),
    ("brwplab.svgfig", "line_plot", "cli.artifacts", None),
    ("brwplab.svgfig", "histogram", "cli.artifacts", None),
)
OPERATOR_METHODS = (
    ("__init__", "proximal.GridProxOperator.build", None),
    ("apply_blur", "proximal.GridProxOperator.apply_blur", _blur_points),
    ("step", "proximal.GridProxOperator.step", _step_mass),
    ("score_of_step", "proximal.GridProxOperator.score_of_step", None),
)
# factories whose Potential objects get traced eval_fn/grad_fn callables
POTENTIAL_FACTORIES = (("brwplab.potentials", "from_catalog"),
                       ("brwplab.samplers", "marginal_target"))


class _SpanFile:
    """Context manager for a file opened by brwplab.cli: the span ends on close."""

    def __init__(self, f, tracer, idx):
        self._f, self._tracer, self._idx = f, tracer, idx

    def __enter__(self):
        return self._f

    def __exit__(self, *exc):
        try:
            self._f.close()
        finally:
            self._tracer.end(self._idx)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: defaultdict = defaultdict(float)
        self.masses: list = []
        self._open: list = []
        self._restore: list = []   # (owner, attribute, original or _MISSING)

    def reset(self):
        self.spans, self.masses, self._open = [], [], []
        self.counts = defaultdict(float)

    def begin(self, name: str) -> int:
        self.spans.append(Span(name, self.clock(), parent=self._open[-1] if self._open else None))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int):
        self.spans[idx].end = self.clock()
        self._open.remove(idx)

    def wrap(self, name: str, fn, hook=None):
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                hook(self, sig.bind(*args, **kwargs).arguments, result)
            return result
        traced.__traced_original__ = fn
        return traced

    # ----------------------------------------------------------- install

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement):
        """Point every brwplab module attribute bound to `original` at `replacement`."""
        for mod in brwplab_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def _trace_potential(self, pot):
        if not hasattr(pot.eval_fn, "__traced_original__"):
            for attr, layer in (("eval_fn", "potentials.eval"), ("grad_fn", "potentials.grad")):
                fn = getattr(pot, attr)
                setattr(pot, attr, self.wrap(layer, fn, _points_hook(layer)))
        return pot

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name in MODULES:
            importlib.import_module(name)
        for mod_name, fn_name, span, hook in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), fn_name)
            self._rebind(original, self.wrap(span, original, hook))
        op_cls = importlib.import_module("brwplab.proximal").GridProxOperator
        for meth, span, hook in OPERATOR_METHODS:
            self._set(op_cls, meth, self.wrap(span, op_cls.__dict__[meth], hook))
        for mod_name, fn_name in POTENTIAL_FACTORIES:
            original = getattr(importlib.import_module(mod_name), fn_name)

            @functools.wraps(original)
            def factory(*args, _original=original, **kwargs):
                pot = _original(*args, **kwargs)
                return pot if pot is None else self._trace_potential(pot)
            factory.__traced_original__ = original
            self._rebind(original, factory)

        def traced_open(*args, **kwargs):
            idx = self.begin("cli.artifacts")
            try:
                return _SpanFile(builtins.open(*args, **kwargs), self, idx)
            except BaseException:
                self.end(idx)
                raise
        self._set(importlib.import_module("brwplab.cli"), "open", traced_open)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore = []

    def originals(self) -> list:
        """The functions replaced by the current installation."""
        return [orig for _, _, orig in self._restore if orig is not _MISSING]


_MISSING = object()


def _points_hook(layer):
    def hook(tr, a, _):
        tr.counts[layer + ".points"] += len(next(iter(a.values())))
    return hook


def brwplab_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "brwplab" or name.startswith("brwplab."))]


# ----------------------------------------------------------- span arithmetic

def self_times(spans: list) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, lo_run, hi_run = 0.0, None, None
        for lo, hi in sorted(children[i]):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append((s.end - s.start) - covered)
    return out


def busy(spans: list, name: str) -> float:
    """Inclusive time of the spans named `name`, not counting a span nested
    inside another span of the same name twice."""
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and spans[p].name != name:
            p = spans[p].parent
        if p is None:
            total += s.end - s.start
    return total


def _inside(spans: list, i: int, name: str) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(tr: Tracer, rows: int) -> dict:
    """Per-layer metrics of the spans recorded since the last reset.

    `rows` is the number of diagnostics rows the call wrote; ratios whose
    base is zero (a layer the workload bypasses) are reported as 0.
    """
    spans = tr.spans
    selfs = self_times(spans)
    calls = defaultdict(int)
    for s in spans:
        calls[s.name] += 1

    def ratio(a, b):
        return a / b if b else 0.0

    def self_of(pred):
        return sum(t for s, t in zip(spans, selfs) if pred(s.name))

    op = "proximal.GridProxOperator"
    sos = f"{op}.score_of_step"
    blurs_in_steps = sum(1 for i, s in enumerate(spans)
                         if s.name == f"{op}.apply_blur" and _inside(spans, i, sos))
    steps = [s for s in spans if s.name == "samplers.step"]
    first_step = min((s.start for s in steps), default=math.inf)
    kde_after_first_step = sum(1 for s in spans if s.name == "density.kde" and s.start >= first_step)
    m = {
        f"{op}.build.calls": calls[f"{op}.build"],
        f"{op}.build.busy_s": busy(spans, f"{op}.build"),
        f"{sos}.calls": calls[sos],
        f"{sos}.busy_s": busy(spans, sos),
        f"{sos}.self_s": self_of(lambda n: n == sos),
        f"{op}.apply_blur.calls": calls[f"{op}.apply_blur"],
        f"{op}.apply_blur.busy_s": busy(spans, f"{op}.apply_blur"),
        f"{op}.apply_blur.points": tr.counts[f"{op}.apply_blur.points"],
        "proximal.apply_blur.per_step": ratio(blurs_in_steps, calls[sos]),
        f"{op}.step.mass_min": min(tr.masses, default=0.0),
        f"{op}.step.mass_max": max(tr.masses, default=0.0),
        "proximal.prox_particle_score.calls": calls["proximal.prox_particle_score"],
        "proximal.prox_particle_score.busy_s": busy(spans, "proximal.prox_particle_score"),
        "proximal.prox_particle_score.pairs": tr.counts["proximal.prox_particle_score.pairs"],
        "density.kde.calls": calls["density.kde"],
        "density.kde.busy_s": busy(spans, "density.kde"),
        "density.kde.kernel_evals": tr.counts["density.kde.kernel_evals"],
        "density.kde.per_step": ratio(kde_after_first_step, len(steps)),
        "density.target_density.calls": calls["density.target_density"],
        "density.target_density.busy_s": busy(spans, "density.target_density"),
        "density.target_density.per_row": ratio(calls["density.target_density"], rows),
    }
    for div in ("kl_divergence", "fisher_information", "fourth_moment_m0", "tv_distance", "w2"):
        m[f"density.{div}.busy_s"] = busy(spans, f"density.{div}")
    for fn in ("eval", "grad"):
        m[f"potentials.{fn}.calls"] = calls[f"potentials.{fn}"]
        m[f"potentials.{fn}.points"] = tr.counts[f"potentials.{fn}.points"]
        m[f"potentials.{fn}.busy_s"] = busy(spans, f"potentials.{fn}")
    m.update({
        "samplers.run.busy_s": busy(spans, "samplers.run"),
        "samplers.evolve_law.busy_s": busy(spans, "samplers.evolve_law"),
        "samplers.step.calls": len(steps),
        "samplers.step.busy_s": busy(spans, "samplers.step"),
        "samplers.interp_at.calls": calls["samplers.interp_at"],
        "samplers.interp_at.busy_s": busy(spans, "samplers.interp_at"),
        "samplers.interp_at.clamped": tr.counts["samplers.interp_at.clamped"],
        "samplers.self_s": self_of(lambda n: n.startswith("samplers.")),
        "cli.main.self_s": self_of(lambda n: n == "cli.main"),
        "cli.artifacts.busy_s": busy(spans, "cli.artifacts"),
    })
    return m
