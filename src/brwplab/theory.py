"""Evaluators for the quantitative convergence bounds of the semi-implicit scheme.

These are pure scalar functions used to overlay theory curves on measured
KL trajectories. Remainder terms of the source bounds (O(h^2)/O(h^3)) are
dropped; empirical comparisons must add an explicit slack for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EvaluationError, ParameterError

DENOM_EPS = 1e-12


@dataclass
class BoundInputs:
    """Constants entering the KL decay bounds: rates, stepsize, initial functionals."""

    alpha: float
    beta: float
    h: float
    s: float
    kl0: float
    m0: float

    def __post_init__(self):
        if min(self.alpha, self.beta, self.h) <= 0 or self.kl0 < 0 or self.m0 < 0:
            raise ParameterError("alpha, beta, h must be positive; kl0, m0 nonnegative")
        if not (0.0 <= self.s <= 1.0):
            raise ParameterError(f"s must lie in [0,1], got {self.s}")


def kl_one_step_bound(kl_k: float, k: int, b: BoundInputs) -> float:
    """One-step bound KL_{k+1} <= [1 - 2ah + (1+2s)a^2h^2] KL_k + (h^2 s/2) M0 e^{-4ahk}."""
    a, h, s = b.alpha, b.h, b.s
    factor = 1.0 - 2.0 * a * h + (1.0 + 2.0 * s) * a * a * h * h
    return factor * kl_k + 0.5 * h * h * s * b.m0 * math.exp(-4.0 * a * h * k)


def _bias_sum(k: int, q: float, r: float, coef: float) -> float:
    """coef * sum_{j<k} q^j r^{k-1-j} = coef*(q^k - r^k)/(q - r), sign-safe.

    This is the exact partial geometric sum behind the bias term; the
    bound's printed form coef*r^k/(r-q) coincides with it when r > q and
    is the magnitude-correct evaluation when r < q (the usual regime,
    where the printed denominator is negative).
    """
    if abs(q - r) < DENOM_EPS:
        raise EvaluationError(
            f"degenerate bias denominator |e^(-c3 h) - (1 - c1 h)| = {abs(q - r):.2e}")
    return coef * (q**k - r**k) / (q - r)


def kl_k_bound(k: int, b: BoundInputs) -> float:
    """KL bound at step k: exp[-akh(2-(1+2s)ah)]*KL0 plus the M0 bias term."""
    if k < 0:
        raise ParameterError("k must be nonnegative")
    a, h, s = b.alpha, b.h, b.s
    c1 = a * (2.0 - (1.0 + 2.0 * s) * a * h)
    q = 1.0 - 2.0 * a * h + (1.0 + 2.0 * s) * a * a * h * h
    r = math.exp(-4.0 * a * h)
    bias = _bias_sum(k, q, r, 0.5 * h * h * s * b.m0)
    return math.exp(-c1 * k * h) * b.kl0 + bias


def sampling_complexity(delta: float, alpha: float) -> int:
    """Iterations ceil(|ln delta| / (2 alpha sqrt(delta))) at stepsize h = sqrt(delta)."""
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must lie in (0,1), got {delta}")
    h_max = max_stepsize(alpha)
    if math.sqrt(delta) >= h_max:
        raise ParameterError(
            f"sqrt(delta)={math.sqrt(delta):.4f} must be below the maximum "
            f"stepsize 2/(3*alpha)={h_max:.4f}")
    return math.ceil(abs(math.log(delta)) / (2.0 * alpha * math.sqrt(delta)))


def optimal_stepsize(alpha: float) -> float:
    """Stepsize with the fastest KL contraction: 1/(3 alpha), half the maximum."""
    return max_stepsize(alpha) / 2


def max_stepsize(alpha: float) -> float:
    """Largest stepsize with a contracting KL bound: 2/(3 alpha)."""
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    return 2.0 / (3.0 * alpha)


def sequence_bound_check(c1: float, c2: float, c3: float, h: float,
                         a0: float, k_max: int, rel_tol: float = 1e-9) -> bool:
    """Iterate a_{k+1} = (1-c1 h) a_k + h^2 c2 e^{-c3 k h} and verify the closed bound.

    The bound is (1-c1 h)^k a0 plus the bias sum; with the recursion taken
    as equality the two agree exactly, so the check passes with equality up
    to roundoff (rel_tol).
    """
    if min(c1, c3, h) <= 0 or c2 < 0 or a0 < 0:
        raise ParameterError("c1, c3, h must be positive; c2, a0 nonnegative")
    if c1 * h >= 1.0:
        raise ParameterError(f"need c1*h < 1, got {c1 * h}")
    q = 1.0 - c1 * h
    r = math.exp(-c3 * h)
    a = a0
    for k in range(k_max + 1):
        bound = q**k * a0 + _bias_sum(k, q, r, h * h * c2)
        if a > bound * (1.0 + rel_tol) + 1e-15:
            return False
        a = q * a + h * h * c2 * r**k
    return True


def pinsker_tv_bound(kl: float) -> float:
    """TV bound sqrt(kl/2) from d_TV^2 <= KL/2."""
    if kl < 0:
        raise ParameterError(f"kl must be nonnegative, got {kl}")
    return math.sqrt(kl / 2.0)


def talagrand_w2_bound(kl: float, alpha: float) -> float:
    """W2 bound sqrt(2*kl/alpha) from (alpha/2) W2^2 <= KL."""
    if kl < 0:
        raise ParameterError(f"kl must be nonnegative, got {kl}")
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    return math.sqrt(2.0 * kl / alpha)
