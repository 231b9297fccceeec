"""Kernel formula of the regularized Wasserstein proximal operator.

The operator maps a density rho0 to

    rho_T(x) = exp(-beta*V(x)/2) * Integral G_T(x,y) * rho0(y) / D(y) dy,
    D(y)     = (beta/(4*pi*T))^{d/2} * Integral exp(-(beta/2)(V(z) + |z-y|^2/(2T))) dz,

where G_T is the heat kernel with variance 2T/beta per axis. Both integrals
use the same Gaussian blur, which factorizes across axes. GridProxOperator's
step gives rho_T; its score_of_step also gives grad log rho_T from the blur
with one axis's kernel replaced by its derivative, so the score needs no
second term to cancel. The operator caches the denominator, the score's drift
-(beta/2) grad V and, per axis, the Toeplitz vectors of the kernel and of its
derivative, the derivative taken from the flushed kernel; in every dimension
each stored vector or weighted-matrix entry below the smallest normal float
is 0. Every blur is one loop over the axes, and the dimension decides only
how one axis is blurred. For d >= 2 both vectors are laid out as trapezoid
matrices per axis, so a step costs O(d * G * n) instead of O(G^2). In 1-D the
blur is an FFT convolution with the cached spectra and exact small entries
(density.fft_kernels states its length, density.fft_blur its repair rule),
and no G x G matrix is held.

BACKENDS of the operator: "quadrature" computes D by grid quadrature (exact
up to trapezoid error), "laplace_denominator" uses the second-order closed form
D ~ exp(-(beta/2)(V(s)+|s-y|^2/(2T))) / (1 + (T/2)*Lap V(s)), s = y - T*grad V(y).
prox_particle_score is not a backend: it evaluates the kernel on an empirical
rho0 with the Laplace denominator (the only dimension-scalable variant).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .density import (LOG_FLOOR, Grid, GridDensity, ParticleEnsemble, fft_blur, fft_kernels,
                      grid_gradient, heat_kernel, trapezoid_weights)
from .errors import (DegenerateDensityError, IsolatedParticleError,
                     ParameterError, StepsizeError, TruncationError)
from .potentials import Potential

BACKENDS = ("quadrature", "laplace_denominator")
DENOM_TAIL_TOL = 1e-10        # pointwise denominator: boundary integrand vs peak
LAPLACE_GUARD = 0.1           # refuse when 1 + (T/2)*Lap V(s) <= this
LAPLACE_WARN = 0.5            # warn when T * sup Lap V over query points exceeds this
MASS_TOL = 5e-3               # pre-renormalization mass must stay within 1 +/- this
SCORE_BLOCK = 128             # particle rows per block of the particle score


@dataclass
class ProxParams:
    """Proximal stepsize T and inverse temperature beta."""

    T: float
    beta: float = 1.0

    def __post_init__(self):
        if not self.T > 0:
            raise ParameterError(f"T must be positive, got {self.T}")
        if not self.beta > 0:
            raise ParameterError(f"beta must be positive, got {self.beta}")


def denominator_exact(y, target: Potential, p: ProxParams, grid: Grid) -> float:
    """Scaled normalization integral D(y) by trapezoid quadrature over grid."""
    d = grid.dim
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != d or d != target.dim:
        raise ParameterError(f"y of size {y.size} vs grid/potential dim {d}/{target.dim}")
    pts = grid.points
    expo = -(p.beta / 2) * (target.eval_fn(pts)
                            + np.sum((pts - y) ** 2, axis=1) / (2 * p.T))
    integrand = np.exp(expo).reshape(grid.shape)
    peak = integrand.max()
    if peak <= 0:
        raise TruncationError(
            f"denominator integrand underflows to 0 everywhere on the grid at y = "
            f"{y.tolist()}: its exponent is at most {expo.max():.4g}")
    boundary = 0.0
    for i in range(d):
        sl = [slice(None)] * d
        for j in (0, -1):
            sl[i] = j
            boundary = max(boundary, float(integrand[tuple(sl)].max()))
    if boundary > DENOM_TAIL_TOL * peak:
        raise TruncationError(
            f"denominator integrand tail {boundary:.2e} exceeds {DENOM_TAIL_TOL:.0e} "
            "of its peak; widen the grid")
    return float((p.beta / (4 * np.pi * p.T)) ** (d / 2)
                 * np.sum(grid.weights * integrand))


def denominator_laplace(y, target: Potential, p: ProxParams) -> float:
    """Closed-form Laplace approximation of D(y); error O(T^2)."""
    y = np.atleast_1d(np.asarray(y, dtype=float)).reshape(1, -1)
    if y.size != target.dim:
        raise ParameterError(f"y of size {y.size} vs potential dim {target.dim}")
    return float(np.exp(_log_denominator_laplace(y, target, p))[0])


def _log_denominator_laplace(ys: np.ndarray, target: Potential, p: ProxParams):
    """log D at each row of ys by the Laplace form, with its T*Lap V guards."""
    s = ys - p.T * target.grad_fn(ys)
    lap = target.laplacian_fn(s)
    corr = 1.0 + (p.T / 2) * lap
    if np.any(corr <= LAPLACE_GUARD):
        raise StepsizeError(
            f"Laplace correction factor min {corr.min():.3f} <= {LAPLACE_GUARD}; "
            "T too large for this potential region")
    if p.T * lap.max() > LAPLACE_WARN:
        warnings.warn(
            f"T*LapV reaches {p.T * lap.max():.2f} > {LAPLACE_WARN}; Laplace "
            "denominator accuracy degrades (its hypothesis needs T*LapV <= 1)",
            stacklevel=3)
    return -(p.beta / 2) * (target.eval_fn(s)
                            + np.sum((s - ys) ** 2, axis=1) / (2 * p.T)) - np.log(corr)


class GridProxOperator:
    """Cached kernel-formula operator on a fixed Grid; its outputs share the grid.

    step(rho0) gives rho_T and its mass; score_of_step(rho0) also its score.
    grad_v is grad V on the grid per axis, read-only and C-ordered: grad_v[i]
    is d_i V on the grid's shape (see density.grid_gradient).
    """

    def __init__(self, grid: Grid, target: Potential, p: ProxParams,
                 backend: str = "quadrature"):
        if backend not in BACKENDS:
            raise ParameterError(f"unknown backend {backend!r}; known: {BACKENDS}")
        if target.dim != grid.dim:
            raise ParameterError(f"potential dim {target.dim} != grid dim {grid.dim}")
        self.grid = grid
        self.p = p
        pts = grid.points
        self.grad_v = grid_gradient(target, grid)
        half_bv = p.beta / 2 * target.eval_fn(pts)
        self.e_v = np.exp(-half_bv).reshape(grid.shape)
        # per axis (K_i, K_i'): in 1-D (Toeplitz vector, spectrum) pairs, for
        # d >= 2 weighted Toeplitz matrices
        if grid.dim == 1:
            self._fft_len, self._band, kernels = fft_kernels(self._kernels(grid.axes[0]))
            self._axis_kernels = [tuple(kernels)]
        else:
            self._axis_kernels = [tuple(_weighted_toeplitz(vec, a) for vec in self._kernels(a))
                                  for a in grid.axes]
        self.denom = (self.apply_blur(self.e_v) if backend == "quadrature" else
                      np.exp(_log_denominator_laplace(pts, target, p)).reshape(grid.shape))
        if np.any(self.denom <= 0) or not np.all(np.isfinite(self.denom)):
            bad = ~(np.isfinite(self.denom) & (self.denom > 0))
            raise DegenerateDensityError(
                f"denominator table has {np.count_nonzero(bad)} of {bad.size} entries "
                f"nonpositive or non-finite: beta*V/2 reaches {half_bv.max():.4g} on the grid "
                "and exp(-beta*V/2) underflows to 0 past about 745; a narrower grid or a "
                "smaller beta avoids this")
        # -(beta/2) d_i V per axis, each laid out like a blur's output (last axis
        # outermost, see _axis_blurs): score_of_step's additions are contiguous
        shape = grid.shape
        drift = np.moveaxis(np.empty((grid.dim,) + shape[-1:] + shape[:-1]), 1, -1)
        np.multiply(self.grad_v, -p.beta / 2, out=drift)
        drift.flags.writeable = False
        self._drift = list(drift)

    def _kernels(self, axis):
        """Toeplitz vectors (kern, dkern) at the offsets k = -(G-1) .. G-1 of a uniform axis.

        kern is density.heat_kernel, and dkern is its x-derivative
        -beta*k*dx/(2T) * kern, taken from kern after its flush. Entries of
        either below the smallest normal float are 0.
        """
        beta, T = self.p.beta, self.p.T
        off = axis - axis[0]
        kern = heat_kernel(axis, T, beta)
        dkern = -beta / (2 * T) * np.concatenate((-off[:0:-1], off)) * kern
        dkern[np.abs(dkern) < np.finfo(float).tiny] = 0.0
        return kern, dkern

    def apply_blur(self, vals: np.ndarray) -> np.ndarray:
        """Trapezoid Gaussian blur of grid values, one pass per axis in axis order.

        In 1-D, density.fft_blur of the weighted values with the cached
        kernel spectrum; its docstring states the accuracy, and its tails,
        where the denominator and evolve_law need relative accuracy, are
        exact sums. For d >= 2 the dense per-axis products are faster than
        per-axis FFTs.
        In every dimension, each stored vector or weighted-matrix entry below
        the smallest normal float, tiny, is 0 (see _kernels), so each dropped
        term is below tiny * max(1, dx) * |vals_j| and an output moves by less
        than tiny * max(1, dx) * sum|vals| per axis. An output's own term is
        about |vals_i|, so for a nonnegative input whose dynamic range is
        under 1e40 the change is under 1e-260 relative.
        """
        for i in range(self.grid.dim):
            vals = self._axis_blurs(vals, i)[0]
        return vals

    def _axis_blurs(self, vals, i, n=1):
        """vals blurred along axis i by each of the first n of (K_i, K_i')."""
        kernels = self._axis_kernels[i][:n]
        if self.grid.dim == 1:
            return fft_blur(vals * self.grid.weights, kernels, self._fft_len, self._band)
        return [np.moveaxis(np.tensordot(mat, vals, axes=(1, i)), 0, i) for mat in kernels]

    def step(self, rho0: GridDensity, raw: Optional[np.ndarray] = None):
        """One proximal step; returns (normalized rho_T, pre-normalization mass).

        raw is e_V * Blur[rho0/D] when the caller already holds it. The
        numerator integral is cut at the grid edge with no tail check, unlike
        denominator_exact: for quadratic V and rho0 = N(0, 4) on +-12 the output
        is 80-90% off the closed form at |x| > 8 (1e-9 to 1e-13 of its peak)
        for T from 0.05 to 0.5, and nothing warns.
        """
        if raw is None:
            raw = self.e_v * self.apply_blur(rho0.values / self.denom)
        mass = float(np.sum(self.grid.weights * raw))
        if not np.isfinite(mass) or mass <= 0:
            raise DegenerateDensityError(f"proximal output has mass {mass}")
        if abs(mass - 1.0) > MASS_TOL:
            warnings.warn(f"pre-renormalization mass {mass:.6f} outside 1 +/- {MASS_TOL}; "
                          "grid may be too narrow or T too large", stacklevel=2)
        return GridDensity(self.grid, raw / mass), mass

    def score_of_step(self, rho0: GridDensity):
        """(rho_T normalized, pre-mass, per-axis score grad log rho_T).

        With r = rho0/D, rho_T is e_V * Blur[r] / mass, and differentiating the
        kernel gives

            score_i = -(beta/2) * d_i V + Blur_i'[r] / Blur[r],

        where Blur_i' is the blur with axis i's kernel K replaced by
        -beta*(x - y)/(2T) * K. No two terms of size beta*|x|/(2T) * rho_T
        cancel, so the blur's absolute rounding is not amplified by |x|/(2T).
        In every dimension the derivative kernel is taken from the flushed
        kernel vector (see _kernels), so Blur_i' also drops each term whose
        kernel entry is below tiny: each dropped term is below
        max(1, beta*|x - y|/(2T)) * tiny * max(1, dx) * |r_j|.
        Where Blur[r] is 0 the score is 0. One loop over the axes gives every
        blur: at axis i each earlier derivative blur passes through K_i, and
        the running blur K_{i-1} ... K_0 r goes through K_i and K_i'. Blur[r]
        thus takes apply_blur's passes in its order, so rho_T is apply_blur's
        bytes: d = 3 takes 9 per-axis passes and d = 2 takes 5. In 1-D both
        blurs share one forward FFT.
        """
        blur, score = rho0.values / self.denom, []
        for i in range(self.grid.dim):
            score = [self._axis_blurs(s, i)[0] for s in score]
            blur, dblur = self._axis_blurs(blur, i, 2)
            score.append(dblur)
        rho_t, mass = self.step(rho0, self.e_v * blur)
        # Each Blur_i'[r] becomes score_i in place. A quotient per axis, not
        # one reciprocal: 1/Blur[r] overflows where Blur[r] is subnormal.
        pos = blur > 0
        for s, drift in zip(score, self._drift):
            np.divide(s, blur, out=s, where=pos)
            s += drift
            s[~pos] = 0.0
        return rho_t, mass, score


def _weighted_toeplitz(vec, axis):
    """Trapezoid matrix m[i, j] = vec[G-1+i-j] * w_j on a uniform axis; |m| < tiny set to 0."""
    rows = np.lib.stride_tricks.sliding_window_view(vec[::-1], axis.size)[::-1]
    mat = rows * trapezoid_weights(axis)
    mat[np.abs(mat) < np.finfo(float).tiny] = 0.0
    return mat


def prox_particle_score(ensemble: ParticleEnsemble, target: Potential, p: ProxParams):
    """Scores grad log rho_T at the particles for empirical rho0 = mean of deltas.

    The softmax structure of the score cancels exp(-beta V(x)/2): with
    w_j(x) = exp(-beta|x-y_j|^2/(4T))/D(y_j),

        score(x) = -beta/2 * grad V(x) + (beta/2T) * (sum_j w_j y_j / sum_j w_j - x).

    Also returns log rho_T at the particles; underflow below LOG_FLOOR
    raises IsolatedParticleError. The weights are formed SCORE_BLOCK rows at
    a time, so memory is O(SCORE_BLOCK * N), not O(N^2). Per block, one
    matrix product gives the log-weights shifted by each row's own term
    (c = beta/(4T), l = log D):

        [x, 1, l(x) - c|x|^2] . [2c y, -c|y|^2 - l(y), 1] = -c|x - y|^2 - l(y) + l(x),

    and a second gives sum_j w_j [y_j, 1]. Each row's own exponent is set to
    exactly 0, as the product leaves a rounding error of order eps*c|x|^2
    there. Its weight exp(0) = 1 keeps every row sum at 1 or more, and exp is
    the only elementwise pass. Where log D rises steeply (beta*T*|grad V|^2/4
    past about 709) a neighbour's exponent can overflow; a block whose sums
    are not finite is recomputed with its row max subtracted before exp.
    """
    x = ensemble.points
    n, d = x.shape
    beta, T = p.beta, p.T
    c = beta / (4 * T)
    log_d = _log_denominator_laplace(x, target, p)
    sq = np.sum(x * x, axis=1)
    xa = np.hstack((x, np.ones((n, 1)), (log_d - c * sq)[:, None]))
    ya = np.hstack((2 * c * x, (-c * sq - log_d)[:, None], np.ones((n, 1))))
    y1 = np.hstack((x, np.ones((n, 1))))
    m = np.zeros(n)                       # row max subtracted before exp, if any
    acc = np.empty((n, d + 1))            # [sum_j w_j y_j, sum_j w_j] per particle
    buf = np.empty((min(SCORE_BLOCK, n), n))
    for lo in range(0, n, SCORE_BLOCK):
        hi = min(lo + SCORE_BLOCK, n)
        b = buf[:hi - lo]
        np.matmul(xa[lo:hi], ya.T, out=b)
        b.reshape(-1)[lo::n + 1] = 0.0                  # entry (i, lo + i): own term
        with np.errstate(over="ignore", invalid="ignore"):
            np.exp(b, out=b)
            np.matmul(b, y1, out=acc[lo:hi])
        if np.all(np.isfinite(acc[lo:hi])):
            continue
        np.matmul(xa[lo:hi], ya.T, out=b)               # a neighbour's weight overflowed
        np.max(b, axis=1, out=m[lo:hi])
        b -= m[lo:hi, None]
        np.exp(b, out=b)
        np.matmul(b, y1, out=acc[lo:hi])
    sw = acc[:, d]
    ybar = acc[:, :d] / sw[:, None]
    log_rho = (m - log_d + np.log(sw) - np.log(n)
               - beta / 2 * target.eval_fn(x)
               + 0.5 * d * np.log(beta / (4 * np.pi * T)))
    if np.any(log_rho < np.log(LOG_FLOOR)):
        i = int(np.argmin(log_rho))
        raise IsolatedParticleError(
            f"density underflow at particle {i}: log rho_T = {log_rho[i]:.1f} "
            "(particle too far from the ensemble)")
    score = -beta / 2 * target.grad_fn(x) + beta / (2 * T) * (ybar - x)
    return score, log_rho
