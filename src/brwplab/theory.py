"""The convergence bounds of the semi-implicit scheme that a run reports.

kl_k_bound is the kl_bound column of run.csv; optimal_stepsize and
max_stepsize are the paper's stepsizes, which stepsize-sweep records and
run warns above. Remainder terms of the source bounds (O(h^2)/O(h^3)) are
dropped; empirical comparisons must add an explicit slack for them. The
paper's other checks (the one-step bound, the sequence lemma, the sampling
complexity, Pinsker and Talagrand) are test oracles in tests/conftest.py.
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


def _bias_sum(k: int, q: float, r: float, coef: float) -> float:
    """coef * sum_{j<k} q^j r^{k-1-j} = coef*(q^k - r^k)/(q - r), sign-safe.

    This is the exact partial geometric sum behind the bias term; the
    bound's printed form coef*r^k/(r-q) coincides with it when r > q and
    is the magnitude-correct evaluation when r < q (the usual regime,
    where the printed denominator is negative). q**k past the float range
    raises OverflowError.
    """
    if abs(q - r) < DENOM_EPS:
        raise EvaluationError(
            f"degenerate bias denominator |e^(-c3 h) - (1 - c1 h)| = {abs(q - r):.2e}")
    return coef * (q**k - r**k) / (q - r)


def kl_k_bound(k: int, b: BoundInputs) -> float:
    """KL bound at step k: exp[-akh(2-(1+2s)ah)]*KL0 plus the M0 bias term.

    A factor past the float range makes the bound +inf, whatever KL0 and M0.
    """
    if k < 0:
        raise ParameterError("k must be nonnegative")
    a, h, s = b.alpha, b.h, b.s
    c1 = a * (2.0 - (1.0 + 2.0 * s) * a * h)
    q = 1.0 - 2.0 * a * h + (1.0 + 2.0 * s) * a * a * h * h
    r = math.exp(-4.0 * a * h)
    try:
        return math.exp(-c1 * k * h) * b.kl0 + _bias_sum(k, q, r, 0.5 * h * h * s * b.m0)
    except OverflowError:
        return math.inf


def optimal_stepsize(alpha: float) -> float:
    """Stepsize with the fastest KL contraction: 1/(3 alpha), half the maximum."""
    return max_stepsize(alpha) / 2


def max_stepsize(alpha: float) -> float:
    """Largest stepsize with a contracting KL bound: 2/(3 alpha)."""
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    return 2.0 / (3.0 * alpha)
