"""Particle update schemes: semi-implicit kernel-proximal variants, ULA, explicit flow.

All schemes advance every particle synchronously from one shared score
snapshot. The kernel-proximal ("brwp") variants differ in where that
score comes from:

  brwp_kde        score of Prox_T(kde(ensemble))       (closed loop via KDE)
  brwp_successive score of a proximal density chain     (open loop: the chain
                  rho~_{k+1} = Prox_T(rho~_k) never sees the particles; over
                  horizons ~1/h the particle law drifts O(h) from the chain,
                  so run diagnostics report the chain itself)
  brwp_particle   score of Prox_T(empirical measure), Laplace denominator
  explicit_flow   score of kde(ensemble) itself (no proximal step)
  ula             explicit Euler of Langevin dynamics with Gaussian noise

`evolve_law` propagates the law of the closed-loop scheme directly on a
1-D grid (pushforward through the particle map); it is the deterministic,
estimator-free realization used by stepsize sweeps and stability checks.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import theory
from .density import (DiagnosticsReport, Grid, GridDensity, ParticleEnsemble,
                      central_diff, divergences, kde, w2_grids_1d, w2_to_target_1d,
                      target_density)
from .errors import DegenerateDensityError, EvaluationError, ParameterError
from .potentials import Potential
from .proximal import BACKENDS, GridProxOperator, ProxParams, prox_particle_score

METHODS = ("brwp_kde", "brwp_successive", "brwp_particle", "ula", "explicit_flow")
CLAMP_FRACTION_ABORT = 0.01


@dataclass
class SamplerConfig:
    method: str = "brwp_successive"
    h: float = 0.05
    T: Optional[float] = None          # proximal stepsize; defaults to h
    beta: float = 1.0
    n_particles: int = 500
    n_steps: int = 50
    seed: int = 0
    backend: str = "quadrature"
    kde_bandwidth: object = "auto"
    init_mean: float = 0.0
    init_sigma_sq: float = 2.0
    grid: tuple = ((-12.0, 12.0, 2401),)  # per-dim (lo, hi, n) for densities/diagnostics
    diag_every: int = 1
    record_timing: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ParameterError(f"unknown method {self.method!r}; known: {METHODS}")
        if self.backend not in BACKENDS:
            raise ParameterError(f"unknown backend {self.backend!r}; known: {BACKENDS}")
        if self.h <= 0:
            raise ParameterError(f"h must be positive, got {self.h}")
        if not (self.beta > 0 and self.init_sigma_sq > 0):
            raise ParameterError(f"beta and init_sigma_sq must be positive, got "
                                 f"beta={self.beta}, init_sigma_sq={self.init_sigma_sq}")
        if self.T is None:
            self.T = self.h
        if not (0.0 < self.T <= self.h):
            raise ParameterError(f"T must lie in (0, h], got T={self.T}, h={self.h}")
        if self.seed < 0:
            raise ParameterError(f"sampler.seed must be >= 0, got {self.seed}")
        if self.n_steps < 0 or self.n_particles < 2:
            raise ParameterError("n_steps must be >= 0 and n_particles >= 2")
        if self.diag_every < 1:
            raise ParameterError("diag_every must be >= 1")


@dataclass
class DensityState:
    """Per-run cached grid machinery and the density the run evolves.

    grid is the run's Grid, Grid.uniform(cfg.grid), built once per run. chain
    is the density the run evolves (the successive chain or evolve_law's law);
    diagnostics measure it whenever it is set. target is the diagnostics target
    on the measurement grid, truncation-checked when first built, target_grad
    its potential's gradient there (the operator's grad_v on its grid), and
    w2_target its first-axis marginal for W2 (target itself in 1-D). kde
    pairs the last ensemble object seen with its KDE on the run grid, so a
    brwp_kde or explicit_flow step reuses the KDE of the diagnostics row just
    written.
    """

    grid: Grid
    operator: Optional[GridProxOperator] = None
    chain: Optional[GridDensity] = None
    target: Optional[GridDensity] = None
    target_grad: Optional[np.ndarray] = None
    w2_target: Optional[GridDensity] = None
    kde: Optional[tuple] = None


def ula_step(ensemble: ParticleEnsemble, target: Potential, h: float,
             beta: float, rng) -> ParticleEnsemble:
    """x <- x - h*grad V(x) + sqrt(2h/beta)*z with z ~ N(0, I)."""
    if h <= 0:
        raise ParameterError(f"h must be positive, got {h}")
    noise = rng.standard_normal(ensemble.points.shape)
    pts = ensemble.points - h * target.grad_fn(ensemble.points) \
        + np.sqrt(2.0 * h / beta) * noise
    return ParticleEnsemble(pts)


def interp_at(axes, fields, pts: np.ndarray):
    """Multilinear interpolation of k grid fields at points, clamped to the grid.

    Returns (values of shape (N, k), n_clamped); the cell lookup is shared by
    the fields. Clamped points use the nearest cell edge.
    """
    d = len(axes)
    n_pts = pts.shape[0]
    idx = []
    frac = []
    clamped = np.zeros(n_pts, dtype=bool)
    for i in range(d):
        a = axes[i]
        dx = a[1] - a[0]
        t = (pts[:, i] - a[0]) / dx
        clamped |= (t < 0) | (t > a.size - 1)
        t = np.clip(t, 0.0, a.size - 1 - 1e-12)
        i0 = np.floor(t).astype(int)
        idx.append(i0)
        frac.append(t - i0)
    out = np.zeros((n_pts, len(fields)))
    for corner in range(2**d):
        w = np.ones(n_pts)
        ind = []
        for i in range(d):
            hi = (corner >> i) & 1
            w *= frac[i] if hi else (1.0 - frac[i])
            ind.append(idx[i] + hi)
        for j, field in enumerate(fields):
            out[:, j] += w * field[tuple(ind)]
    return out, int(clamped.sum())


def _interp_score(axes, score_fields, pts: np.ndarray) -> np.ndarray:
    out, n_clamped = interp_at(axes, score_fields, pts)
    if n_clamped > 0:
        frac = n_clamped / pts.shape[0]
        if frac > CLAMP_FRACTION_ABORT:
            raise EvaluationError(
                f"{frac:.1%} of particles left the score grid (> "
                f"{CLAMP_FRACTION_ABORT:.0%}); widen the grid")
        warnings.warn(f"{n_clamped} particle(s) clamped to the score grid edge",
                      stacklevel=2)
    return out


def brwp_step(ensemble: ParticleEnsemble, target: Potential, cfg: SamplerConfig,
              state: DensityState) -> ParticleEnsemble:
    """One synchronous semi-implicit update; score per cfg.method; updates state in place."""
    h, beta = cfg.h, cfg.beta
    if cfg.method == "brwp_particle":
        score, _ = prox_particle_score(ensemble, target, ProxParams(T=cfg.T, beta=beta))
    else:
        op = _grid_operator(cfg, target, state)
        if cfg.method == "brwp_successive":
            if state.chain is None:
                raise ParameterError("successive mode needs an initial chain density")
            rho_t, _, fields = op.score_of_step(state.chain)
            state.chain = rho_t
        elif cfg.method == "brwp_kde":
            rho_k = _grid_kde(ensemble, cfg, state)
            _, _, fields = op.score_of_step(rho_k)
        else:
            raise ParameterError(f"brwp_step cannot run method {cfg.method!r}")
        score = _interp_score(state.grid.axes, fields, ensemble.points)
    pts = ensemble.points - h * (target.grad_fn(ensemble.points) + score / beta)
    return ParticleEnsemble(pts)


def _grid_operator(cfg: SamplerConfig, target: Potential, state: DensityState):
    """The run's operator on state.grid, built on first use."""
    if state.operator is None:
        state.operator = GridProxOperator(state.grid, target, ProxParams(cfg.T, cfg.beta),
                                          cfg.backend)
    return state.operator


def _grid_kde(ensemble: ParticleEnsemble, cfg: SamplerConfig,
              state: DensityState) -> GridDensity:
    """kde(ensemble) on the run grid, computed once per ensemble object."""
    if state.kde is None or state.kde[0] is not ensemble:
        state.kde = (ensemble, kde(ensemble, cfg.kde_bandwidth, state.grid))
    return state.kde[1]


def explicit_flow_step(ensemble: ParticleEnsemble, target: Potential,
                       cfg: SamplerConfig, state: DensityState) -> ParticleEnsemble:
    """Explicit Euler of the score flow: the score is of kde(ensemble) itself.

    The KDE a run's diagnostics made of this ensemble is reused from state.
    """
    rho_k = _grid_kde(ensemble, cfg, state)
    score = _interp_score(state.grid.axes, rho_k.score(), ensemble.points)
    pts = ensemble.points - cfg.h * (target.grad_fn(ensemble.points) + score / cfg.beta)
    return ParticleEnsemble(pts)


def initial_ensemble(cfg: SamplerConfig, dim: int, rng) -> ParticleEnsemble:
    pts = cfg.init_mean + np.sqrt(cfg.init_sigma_sq) * rng.standard_normal(
        (cfg.n_particles, dim))
    return ParticleEnsemble(pts)


def initial_grid_density(cfg: SamplerConfig, grid: Grid) -> GridDensity:
    sq = sum((m - cfg.init_mean) ** 2 for m in grid.mesh)
    vals = np.exp(-sq / (2.0 * cfg.init_sigma_sq))
    return GridDensity(grid, vals).normalize()


def marginal_target(target: Potential) -> Optional[Potential]:
    """1-D first-axis marginal of the target: itself in 1-D, else target.marginal."""
    return target if target.dim == 1 else target.marginal


@dataclass
class RunResult:
    reports: list = field(default_factory=list)
    ensemble: Optional[ParticleEnsemble] = None


def _diagnose(cfg: SamplerConfig, target: Potential, ensemble: Optional[ParticleEnsemble],
              state: DensityState, k: int, t0: float):
    """One diagnostics row; it measures state.chain when set, else the ensemble.

    Its kl_bound is NaN; run fills it in when the target's alpha is known.
    """
    beta = cfg.beta
    marg1d = marginal_target(target)
    if state.chain is not None:
        g, meas_target = state.chain, target
    elif target.dim == state.grid.dim:
        g, meas_target = _grid_kde(ensemble, cfg, state), target
    elif marg1d is not None:
        marg = ParticleEnsemble(ensemble.points[:, :1])
        g = kde(marg, cfg.kde_bandwidth, state.grid.marginal)
        meas_target = marg1d
    else:
        return DiagnosticsReport(k, *([float("nan")] * 5))
    if state.target is None:
        state.target = target_density(meas_target, g.grid, beta)
        op = state.operator
        covered = op is not None and op.grid is g.grid      # built for this target
        state.target_grad = op.grad_v if covered else meas_target.grad_fn(g.grid.points)
    kl, fi, m0, tv = divergences(g, state.target, state.target_grad, beta)
    # W2 in the first dimension, exact quantile coupling
    if marg1d is None:
        w2 = float("nan")
    else:
        if state.w2_target is None:
            state.w2_target = state.target if g.grid.dim == 1 else target_density(
                marg1d, g.grid.marginal, beta, check_truncation=False)
        w2 = (w2_grids_1d(g.marginal_first(), state.w2_target) if state.chain is not None
              else w2_to_target_1d(ensemble.points[:, 0], state.w2_target))
    ms = (time.perf_counter() - t0) * 1000.0 if cfg.record_timing else 0.0
    return DiagnosticsReport(k, kl, fi, m0, tv, w2, wallclock_ms=ms)


def run(cfg: SamplerConfig, target: Potential,
        init_points: Optional[np.ndarray] = None) -> RunResult:
    """Execute cfg.n_steps synchronous steps, recording diagnostics.

    Deterministic for a fixed config: the RNG is seeded from cfg.seed and
    the semi-implicit modes draw no noise after initialization.
    """
    # a KDE is made on the target's grid when dim <= 3, else of the first axis
    n_bw = 1 if isinstance(cfg.kde_bandwidth, str) else np.size(cfg.kde_bandwidth)
    if n_bw not in (1, target.dim if target.dim <= 3 else 1):
        raise ParameterError(f"sampler.kde_bandwidth has {n_bw} entries; give one, or one "
                             f"per axis when target.dim <= 3 (target.dim = {target.dim})")
    if target.alpha is not None and cfg.h > theory.max_stepsize(target.alpha):
        warnings.warn(f"h={cfg.h} exceeds the maximum stable stepsize "
                      f"2/(3*alpha)={theory.max_stepsize(target.alpha):.4f}",
                      stacklevel=2)
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    if init_points is not None:
        pts = np.array(init_points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != target.dim:
            raise ParameterError(f"init_points must have shape (n >= 2, {target.dim}), "
                                 f"got {pts.shape}")
        ens = ParticleEnsemble(pts)
    else:
        ens = initial_ensemble(cfg, target.dim, rng)
    state = DensityState(Grid.uniform(cfg.grid))
    if cfg.method == "brwp_successive":
        if target.dim != state.grid.dim:
            raise ParameterError(f"successive mode needs a grid of the target's dimension: "
                                 f"target dim {target.dim}, grid dim {state.grid.dim}")
        state.chain = initial_grid_density(cfg, state.grid)
    if cfg.method in ("brwp_kde", "brwp_successive"):
        _grid_operator(cfg, target, state)
    result = RunResult()
    result.reports.append(_diagnose(cfg, target, ens, state, 0, t0))
    for k in range(1, cfg.n_steps + 1):
        if cfg.method == "ula":
            ens = ula_step(ens, target, cfg.h, cfg.beta, rng)
        elif cfg.method == "explicit_flow":
            ens = explicit_flow_step(ens, target, cfg, state)
        else:
            ens = brwp_step(ens, target, cfg, state)
        if k % cfg.diag_every == 0 or k == cfg.n_steps:
            result.reports.append(_diagnose(cfg, target, ens, state, k, t0))
    if target.alpha is not None:
        row0 = result.reports[0]
        inputs = theory.BoundInputs(alpha=target.alpha, beta=cfg.beta, h=cfg.h,
                                    s=cfg.T / cfg.h, kl0=max(row0.kl, 0.0),
                                    m0=max(row0.m0, 0.0))
        for r in result.reports:
            r.kl_bound = theory.kl_k_bound(r.iter, inputs)
    result.ensemble = ens
    return result


# ------------------------------------------------------- law-level evolution

@dataclass
class LawTrace:
    reports: list
    folded: bool          # particle map lost monotonicity at some step


def evolve_law(cfg: SamplerConfig, target: Potential) -> LawTrace:
    """Deterministic evolution of the closed-loop particle law on a 1-D grid.

    Each step scores Prox_T of the current law and pushes the law through
    x -> x - h*(grad V + score/beta) by the 1-D change of variables. This
    is the density the one-step analysis of the scheme tracks, free of
    particle/KDE estimator noise.
    """
    if target.dim != 1:
        raise ParameterError("evolve_law supports dim=1 grids only")
    grid = Grid.uniform(cfg.grid)
    x = grid.axes[0]
    state = DensityState(grid, chain=initial_grid_density(cfg, grid))
    op = _grid_operator(cfg, target, state)
    t0 = time.perf_counter()
    reports = [_diagnose(cfg, target, None, state, 0, t0)]
    folded = False
    for k in range(1, cfg.n_steps + 1):
        _, _, fields = op.score_of_step(state.chain)
        m = x - cfg.h * (op.grad_v[:, 0] + fields[0] / cfg.beta)
        dm = central_diff(m, grid.spacing[0], 0)
        if np.any(dm <= 0):
            folded = True
        vals = np.where(np.abs(dm) > 1e-300, state.chain.values / np.abs(dm), 0.0)
        order = np.argsort(m)
        new_vals = np.interp(x, m[order], vals[order], left=0.0, right=0.0)
        try:
            state.chain = GridDensity(grid, np.maximum(new_vals, 0.0)).normalize()
        except DegenerateDensityError:
            folded = True
            break
        if k % cfg.diag_every == 0 or k == cfg.n_steps:
            reports.append(_diagnose(cfg, target, None, state, k, t0))
    return LawTrace(reports, folded)
