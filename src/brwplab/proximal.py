"""Kernel formula of the regularized Wasserstein proximal operator.

The operator maps a density rho0 to

    rho_T(x) = exp(-beta*V(x)/2) * Integral G_T(x,y) * rho0(y) / D(y) dy,
    D(y)     = (beta/(4*pi*T))^{d/2} * Integral exp(-(beta/2)(V(z) + |z-y|^2/(2T))) dz,

where G_T is the heat kernel with variance 2T/beta per axis. Both integrals
use the same Gaussian blur, which factorizes across axes. GridProxOperator's
step gives rho_T; its score_of_step also gives grad log rho_T from the blur
with one axis's kernel replaced by its derivative, so the score needs no
second term to cancel. The operator builds the blur from one Toeplitz kernel
vector per axis, with its subnormal entries set to 0, and caches the
denominator. For d >= 2 it lays out one trapezoid blur matrix per axis and
its derivative, so a step costs O(d * G * n) instead of O(G^2). In 1-D the
blur is an FFT convolution with the kernel's cached spectrum, of the
smallest length 2^k, 3*2^k or 5*2^k that is at least 2G - 1; its small
entries are recomputed by correlating the kernel vector with the nonzero
inputs within the kernel's band, and no G x G matrix is held.

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

from .density import LOG_FLOOR, Grid, GridDensity, ParticleEnsemble, trapezoid_weights
from .errors import (DegenerateDensityError, IsolatedParticleError,
                     ParameterError, StepsizeError, TruncationError)
from .potentials import Potential

BACKENDS = ("quadrature", "laplace_denominator")
DENOM_TAIL_TOL = 1e-10        # pointwise denominator: boundary integrand vs peak
LAPLACE_GUARD = 0.1           # refuse when 1 + (T/2)*Lap V(s) <= this
LAPLACE_WARN = 0.5            # warn when T * sup Lap V over query points exceeds this
MASS_TOL = 5e-3               # pre-renormalization mass must stay within 1 +/- this
SCORE_BLOCK = 128             # particle rows per block of the particle score
BLUR_EXACT_BELOW = 1e-6       # 1-D FFT blur: recompute densely below this share of the peak


@dataclass
class ProxParams:
    """Proximal stepsize T and inverse temperature beta."""

    T: float
    beta: float = 1.0

    def __post_init__(self):
        if self.T <= 0:
            raise ParameterError(f"T must be positive, got {self.T}")
        if self.beta <= 0:
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
    boundary = 0.0
    for i in range(d):
        sl = [slice(None)] * d
        for j in (0, -1):
            sl[i] = j
            boundary = max(boundary, float(integrand[tuple(sl)].max()))
    if peak <= 0 or boundary > DENOM_TAIL_TOL * peak:
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
        self.grad_v = target.grad_fn(pts)
        self.grad_v.flags.writeable = False
        self.e_v = np.exp(-p.beta / 2 * target.eval_fn(pts)).reshape(grid.shape)
        if grid.dim == 1:
            axis = grid.axes[0]
            g = axis.size
            off = axis - axis[0]
            self._kern = self._toeplitz_kernel(axis)
            self._dkern = self._derivative(np.concatenate((-off[:0:-1], off)), self._kern)
            # the smallest of 2^k, 3*2^k, 5*2^k >= 2G - 1: the kept slice of a
            # circular convolution this long has no wrap-around
            self._fft_len = min(c << (-(-(2 * g - 1) // c) - 1).bit_length() for c in (1, 3, 5))
            self._band = int(np.flatnonzero(self._kern[g - 1:])[-1])   # widest nonzero offset
            self._kern_hat = np.fft.rfft(self._kern, self._fft_len)
            self._dkern_hat = np.fft.rfft(self._dkern, self._fft_len)
        else:
            self._blur = [self._blur_matrix(a) for a in grid.axes]
            self._dblur = [self._derivative(np.subtract.outer(a, a), b)
                           for a, b in zip(grid.axes, self._blur)]
        if backend == "quadrature":
            self.denom = self.apply_blur(self.e_v)
        else:
            self.denom = np.exp(_log_denominator_laplace(pts, target, p)).reshape(grid.shape)
        if np.any(self.denom <= 0) or not np.all(np.isfinite(self.denom)):
            raise DegenerateDensityError("denominator table has nonpositive entries")

    def _toeplitz_kernel(self, axis):
        """c*exp(-beta*(k*dx)^2/(4T)) at the offsets k = -(G-1) .. G-1 of a uniform axis.

        Entries below the smallest normal float are set to 0: products with
        subnormal operands run on the CPU's slow microcode path.
        """
        beta, T = self.p.beta, self.p.T
        off = axis - axis[0]
        kern = np.sqrt(beta / (4 * np.pi * T)) * np.exp(-beta * off**2 / (4 * T))
        kern[kern < np.finfo(float).tiny] = 0.0
        return np.concatenate((kern[:0:-1], kern))

    def _blur_matrix(self, axis):
        """Trapezoid blur matrix c*exp(-beta*(x_i - x_j)^2/(4T))*w_j on a uniform axis.

        The kernel depends on i - j only (Toeplitz): exp is taken once per
        offset and the G x G matrix is laid out from that vector. Products
        with the weights that fall below the smallest normal float are 0 too.
        """
        full = self._toeplitz_kernel(axis)
        rows = np.lib.stride_tricks.sliding_window_view(full, axis.size)[::-1]
        blur = rows * trapezoid_weights(axis)
        blur[blur < np.finfo(float).tiny] = 0.0
        return blur

    def _derivative(self, diff, kern):
        """The x-derivative -beta*(x - y)/(2T) * kern of a blur kernel, given x - y.

        kern is already flushed; entries whose product is below tiny are 0 too.
        """
        dkern = -self.p.beta / (2 * self.p.T) * diff * kern
        dkern[np.abs(dkern) < np.finfo(float).tiny] = 0.0
        return dkern

    def apply_blur(self, vals: np.ndarray) -> np.ndarray:
        """Trapezoid Gaussian blur of grid values, axis by axis.

        In 1-D, a zero-padded FFT convolution with the cached kernel
        spectrum, as long as the smallest 2^k, 3*2^k or 5*2^k >= 2G - 1: the
        G outputs kept from the circular convolution then see no
        wrap-around. Its error is absolute, about 1e-16 of the peak at every
        entry, so every entry with |out| < BLUR_EXACT_BELOW * max|out| is
        recomputed exactly: each contiguous run of such entries (leading,
        interior or trailing) is one np.correlate of the Toeplitz kernel
        vector with the weighted inputs it can reach (see _fft_blur). The
        tails, where the denominator and evolve_law need relative accuracy,
        are thus exact sums, and the kept entries are within about 1e-10 of
        the dense blur relative to the blur of |vals|.
        For d >= 2 the dense per-axis products are faster than per-axis FFTs.
        Kernel and matrix entries below the smallest normal float, tiny, are
        0, so each dropped term is below tiny * max(1, dx) * |vals_j| and an
        output moves by less than tiny * max(1, dx) * sum|vals| per axis. An
        output's own term is about |vals_i|, so for a nonnegative input whose
        dynamic range is under 1e40 the change is under 1e-260 relative.
        """
        if self.grid.dim > 1:
            for i, blur in enumerate(self._blur):
                vals = _axis_pass(blur, vals, i)
            return vals
        return self._fft_blur(vals, ((self._kern, self._kern_hat),))[0]

    def _fft_blur(self, vals, kernels):
        """1-D blurs of vals with each (Toeplitz vector, spectrum) pair; one forward FFT.

        The entries recomputed exactly are those where the first blur is below
        BLUR_EXACT_BELOW of its peak, for every kernel alike. The score divides
        a derivative blur by that blur: elsewhere the derivative's absolute
        FFT error, about 1e-16 of its peak, moves the quotient by about
        1e-10 * max|derivative| / max(blur) at most.

        A run [a, b) correlates over the inputs j from max(first nonzero,
        a - band) to min(last nonzero, b - 1 + band), band being the widest
        offset with a nonzero kernel entry (a derivative kernel is 0 wherever
        the kernel is). The products left out are exact zeros, so the sums
        differ from the full ones only in their order, and a run no input
        reaches is 0.
        """
        g, n = vals.size, self._fft_len
        u = vals * self.grid.weights
        u_hat = np.fft.rfft(u, n)
        outs = [np.fft.irfft(u_hat * k_hat, n)[g - 1:2 * g - 1] for _, k_hat in kernels]
        mag = np.abs(outs[0])
        low = np.zeros(g + 2, dtype=bool)        # padded: every run has both edges
        np.less(mag, BLUR_EXACT_BELOW * mag.max(), out=low[1:-1])
        runs = np.flatnonzero(low[1:] != low[:-1]).reshape(-1, 2)    # [start, stop) rows
        if runs.size:
            # out[i] = sum_j kern[G-1+i-j] u[j], which is the convolution; a run
            # [a, b) needs only the j in [a - band, b - 1 + band] with u[j] != 0
            nonzero = np.flatnonzero(u)
            first, last = nonzero[0], nonzero[-1]
            u_rev = u[::-1].copy()
            for a, b in runs:
                lo, hi = max(first, a - self._band), min(last, b - 1 + self._band)
                for out, (kern, _) in zip(outs, kernels):
                    out[a:b] = (np.correlate(kern[g - 1 + a - hi:g + b - 1 - lo],
                                             u_rev[g - 1 - hi:g - lo], "valid")
                                if lo <= hi else 0.0)
        return outs

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
        mass = GridDensity(self.grid, raw).mass()
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
        Where Blur[r] is 0 the score is 0. For d >= 2 the passes share their
        partial blurs P_k = K_{k-1} ... K_0 r, taken in apply_blur's axis
        order, so Blur[r] and rho_T are apply_blur's bytes: d = 3 takes 9
        per-axis passes and d = 2 takes 5. In 1-D both blurs share one
        forward FFT.
        """
        r = rho0.values / self.denom
        if self.grid.dim == 1:
            blur, dblur = self._fft_blur(r, ((self._kern, self._kern_hat),
                                             (self._dkern, self._dkern_hat)))
            score = [dblur]
        else:
            partial = [r]
            for i, mat in enumerate(self._blur):
                partial.append(_axis_pass(mat, partial[-1], i))
            blur = partial[-1]
            score = []
            for i, dmat in enumerate(self._dblur):
                out = _axis_pass(dmat, partial[i], i)
                for k in range(i + 1, self.grid.dim):
                    out = _axis_pass(self._blur[k], out, k)
                score.append(out)
        rho_t, mass = self.step(rho0, self.e_v * blur)
        # Each Blur_i'[r] becomes score_i in place. A quotient per axis, not
        # one reciprocal: 1/Blur[r] overflows where Blur[r] is subnormal.
        pos = blur > 0
        dead = ~pos
        # -(beta/2) d_i V, laid out in memory like the blurs (for d >= 2 they
        # are axis-permuted views), so that each pass below is contiguous
        drift = np.empty_like(blur)
        for i, s in enumerate(score):
            np.multiply(self.grad_v[:, i].reshape(blur.shape), -self.p.beta / 2, out=drift)
            np.divide(s, blur, out=s, where=pos)
            s += drift
            s[dead] = 0.0
        return rho_t, mass, score


def _axis_pass(mat, vals, i):
    """mat applied along axis i of vals."""
    return np.moveaxis(np.tensordot(mat, vals, axes=(1, i)), 0, i)


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
