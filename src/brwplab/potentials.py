"""Target potentials V defining rho* ∝ exp(-beta*V), with gradients and Laplacians.

Every potential is vectorized over batches of points: eval_fn, grad_fn and
laplacian_fn take an (N, d) array and return (N,) for scalar fields or (N, d)
for gradients.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError

FD_REL_STEP = 1e-4  # stencil width factor: delta = FD_REL_STEP * (1 + |x|)
L12_EPS = 1e-6      # the L_{1/2} quasi-norm's |t|^{1/2} is (t^2 + L12_EPS^2)^{1/4}


@dataclass
class Potential:
    """A potential V with gradient, Laplacian and convexity metadata.

    alpha is the strong log-concavity constant (Hessian >= alpha*I) when
    known; samplers and theory read it for stepsize limits and KL bounds.
    marginal is the exact 1-D potential of the first-axis marginal, when
    known and dim > 1. Without a laplacian_fn, the Laplacian is a
    finite-difference stencil on eval_fn.
    """

    dim: int
    eval_fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    laplacian_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    alpha: Optional[float] = None
    marginal: Optional[Potential] = None

    def __post_init__(self):
        if self.laplacian_fn is None:
            self.laplacian_fn = self._fd_laplacian

    def _fd_laplacian(self, xb):
        """Central-difference Laplacian, median over three shifted centers.

        The shift makes the estimate robust next to kinks of nonsmooth
        potentials: a kink contaminates at most one of the three stencils.
        """
        delta = FD_REL_STEP * (1.0 + np.linalg.norm(xb, axis=1))
        total = np.zeros((3, xb.shape[0]))
        for shift_idx, shift in enumerate((0.0, 3.0, -3.0)):
            acc = np.zeros(xb.shape[0])
            for i in range(self.dim):
                e = np.zeros(self.dim)
                e[i] = 1.0
                c = xb + (shift * delta)[:, None] * e
                vp = self.eval_fn(c + delta[:, None] * e)
                vm = self.eval_fn(c - delta[:, None] * e)
                v0 = self.eval_fn(c)
                acc += (vp - 2.0 * v0 + vm) / delta**2
            total[shift_idx] = acc
        return np.median(total, axis=0)


def make_quadratic(alpha: float = 1.0, dim: int = 1) -> Potential:
    """V(x) = (alpha/2)|x|^2 with exact gradient alpha*x and Laplacian alpha*d."""
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    return Potential(
        dim=dim,
        eval_fn=lambda x: 0.5 * alpha * np.sum(x * x, axis=1),
        grad_fn=lambda x: alpha * x,
        laplacian_fn=lambda x: np.full(x.shape[0], alpha * dim),
        alpha=float(alpha),
        marginal=make_quadratic(alpha, 1) if dim > 1 else None,
    )


def _mixture_fns(exponents, grads, log_norm: float, beta: float, scale: float = 1.0):
    """eval_fn, grad_fn and weights of V = -(log(e^e1 + e^e2) - log_norm)/beta.

    exponents(x) gives (e1, e2) and grads(x) (g1, g2), g_i/scale = grad(-e_i).
    weights(x) is (m, w1, w2): m = max(e1, e2) and w_i = exp(e_i - m).
    """
    def weights(x):
        e1, e2 = exponents(x)
        m = np.maximum(e1, e2)
        return m, np.exp(e1 - m), np.exp(e2 - m)

    def eval_fn(x):
        m, w1, w2 = weights(x)
        return -(m + np.log(w1 + w2) - log_norm) / beta

    def grad_fn(x):
        _, w1, w2 = weights(x)
        g1, g2 = grads(x)
        return (w1[:, None] * g1 + w2[:, None] * g2) / ((w1 + w2)[:, None] * scale * beta)

    return eval_fn, grad_fn, weights


def make_gaussian_mixture(a=2.0, sigma: float = 1.0, dim: Optional[int] = None,
                          beta: float = 1.0) -> Potential:
    """Symmetric two-component Gaussian mixture target.

    rho*(x) = [N(x; a, sigma^2 I) + N(x; -a, sigma^2 I)] / 2 and
    V = -log(rho*)/beta, so exp(-beta*V) is exactly the normalized mixture.
    `a` is a scalar, the modes at ±a*e_1, or one number per axis, the modes at ±a.
    """
    if not sigma > 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    a = np.asarray(a, dtype=float)
    d = a.size if a.ndim else 1 if dim is None else int(dim)
    if a.ndim and dim is not None and dim != d:
        raise ParameterError(f"target.a has {d} entries but target.dim is {dim}; "
                             "give one number or one per axis")
    if d < 1:
        raise ParameterError(f"dim must be >= 1, got {d}")
    a_vec = a.copy() if a.ndim else np.where(np.arange(d) == 0, a, 0.0)     # a*e_1
    s2 = sigma * sigma
    log_norm = np.log(2.0) + 0.5 * d * np.log(2.0 * np.pi * s2)
    a_sq = float(np.dot(a_vec, a_vec))

    def exponents(x):
        e1 = -np.sum((x - a_vec) ** 2, axis=1) / (2 * s2)
        e2 = -np.sum((x + a_vec) ** 2, axis=1) / (2 * s2)
        return e1, e2

    eval_fn, grad_fn, weights = _mixture_fns(
        exponents, lambda x: (x - a_vec, x + a_vec), log_norm, beta, scale=s2)

    def laplacian_fn(x):
        _, w1, w2 = weights(x)
        ww = w1 * w2 / (w1 + w2) ** 2
        return (d / s2 - ww * 4.0 * a_sq / s2**2) / beta

    return Potential(
        dim=d,
        eval_fn=eval_fn,
        grad_fn=grad_fn,
        laplacian_fn=laplacian_fn,
        marginal=make_gaussian_mixture(a_vec[0], sigma, dim=1, beta=beta) if d > 1 else None,
    )


def _sqrt_abs_reg(t):
    # |t|^{1/2} regularized as (t^2 + L12_EPS^2)^{1/4}
    return (t * t + L12_EPS * L12_EPS) ** 0.25


def make_nonsmooth_mixture(kind: str, sigma: float = 1.0, b: float = 0.25,
                           dim: int = 1, beta: float = 1.0) -> Potential:
    """Nonsmooth mixture targets centered at ±2*e_1.

    kind="l1_l12":      rho* ∝ exp(-|x+2e1|_1) + exp(-|x-2e1|_{1/2}^2)/2
    kind="gauss_laplace": rho* ∝ exp(-|x-2e1|^2/(2 sigma^2)) + exp(-|x+2e1|_1/(2b))

    Gradients are subgradients (sign(0)=0 at kinks); the L_{1/2} quasi-norm
    uses |t|^{1/2} -> (t^2+L12_EPS^2)^{1/4}. Laplacians fall back to the shifted
    finite-difference stencil of Potential. No marginal is given.
    """
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    c = np.zeros(dim)
    c[0] = 2.0

    if kind == "l1_l12":
        def branch_exponents(x):
            g1 = np.sum(np.abs(x + c), axis=1)                       # L1 branch
            half = np.sum(_sqrt_abs_reg(x - c), axis=1) ** 2     # |.|_{1/2}
            g2 = half * half                                         # squared quasi-norm
            return -g1, -g2 + np.log(0.5)

        def branch_grads(x):
            gr1 = np.sign(x + c)
            u = x - c
            s = np.sum(_sqrt_abs_reg(u), axis=1)
            # d/du_i (s^4) = 4 s^3 * d/du_i (u_i^2+L12_EPS^2)^{1/4}
            ds = 0.5 * u * (u * u + L12_EPS * L12_EPS) ** (-0.75)
            gr2 = 4.0 * (s**3)[:, None] * ds
            return gr1, gr2

        # closed-form normalization known in 1-D only; higher d normalize on-grid
        log_norm = np.log(2.0 + 0.5 * np.sqrt(np.pi) * np.exp(-L12_EPS * L12_EPS)) \
            if dim == 1 else 0.0
    elif kind == "gauss_laplace":
        if not (sigma > 0 and b > 0):
            raise ParameterError("sigma and b must be positive")

        def branch_exponents(x):
            g1 = np.sum((x - c) ** 2, axis=1) / (2 * sigma**2)
            g2 = np.sum(np.abs(x + c), axis=1) / (2 * b)
            return -g1, -g2

        def branch_grads(x):
            gr1 = (x - c) / sigma**2
            gr2 = np.sign(x + c) / (2 * b)
            return gr1, gr2

        log_norm = np.log((sigma * np.sqrt(2 * np.pi)) ** dim + (4.0 * b) ** dim)
    else:
        raise ParameterError(f"unknown nonsmooth mixture kind {kind!r}")

    eval_fn, grad_fn, _ = _mixture_fns(branch_exponents, branch_grads, log_norm, beta)
    return Potential(dim=dim, eval_fn=eval_fn, grad_fn=grad_fn)


CATALOG = {
    "quadratic": make_quadratic,
    "gaussian_mixture": make_gaussian_mixture,
    "l1_l12": functools.partial(make_nonsmooth_mixture, "l1_l12"),
    "gauss_laplace": functools.partial(make_nonsmooth_mixture, "gauss_laplace"),
}


def from_catalog(target_id: str, params: Optional[dict] = None) -> Potential:
    """Build a catalog potential from its string id and parameter dict; the
    builder gets the parameters its signature names and ignores the others."""
    if target_id not in CATALOG:
        raise ParameterError(
            f"unknown target id {target_id!r}; known: {sorted(CATALOG)}")
    build = CATALOG[target_id]
    names = inspect.signature(build).parameters
    return build(**{k: v for k, v in (params or {}).items() if k in names})
