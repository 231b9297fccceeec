"""The convergence bounds of the semi-implicit scheme that a run reports.

kl_k_bound, of plain numbers, is the kl_bound column of run.csv;
optimal_stepsize and max_stepsize are the paper's stepsizes, which
stepsize-sweep records and run warns above. Remainder terms of the source
bounds (O(h^2)/O(h^3)) are dropped; empirical comparisons add a slack for
them. The paper's other checks (the one-step bound, the sequence lemma, the
sampling complexity, Pinsker and Talagrand) are oracles in tests/conftest.py.
"""

from __future__ import annotations

import math

from .errors import ParameterError

DENOM_EPS = 1e-12


def kl_k_bound(k: int, alpha: float, h: float, s: float, kl0: float, m0: float) -> float:
    """KL bound at step k: exp[-akh(2-(1+2s)ah)]*KL0 plus the M0 bias term
    (h^2 s M0/2) sum_{j<k} q^j r^{k-1-j}, q = 1-2ah+(1+2s)a^2h^2, r = e^{-4ah}.

    The sum is (q^k - r^k)/(q - r), or where |q - r| < DENOM_EPS its limit
    k q^(k-1), within about k^2 |q - r| relative of it. A factor past the
    float range makes the bound +inf, whatever KL0 and M0; a NaN KL0 or M0 makes it NaN.
    """
    if k < 0 or not (alpha > 0 and h > 0 and 0.0 <= s <= 1.0) or kl0 < 0 or m0 < 0:
        raise ParameterError(f"need k >= 0, alpha and h positive, s in [0,1], kl0 and m0 "
                             f"nonnegative; got {k}, {alpha}, {h}, {s}, {kl0}, {m0}")
    c1 = alpha * (2.0 - (1.0 + 2.0 * s) * alpha * h)
    q = 1.0 - 2.0 * alpha * h + (1.0 + 2.0 * s) * alpha * alpha * h * h
    r = math.exp(-4.0 * alpha * h)
    coef = 0.5 * h * h * s * m0
    try:
        bias = (coef * k * q**(k - 1) if abs(q - r) < DENOM_EPS
                else coef * (q**k - r**k) / (q - r))
        return math.exp(-c1 * k * h) * kl0 + bias
    except OverflowError:
        return math.inf


def optimal_stepsize(alpha: float) -> float:
    """Stepsize with the fastest KL contraction: 1/(3 alpha), half the maximum."""
    return max_stepsize(alpha) / 2


def max_stepsize(alpha: float) -> float:
    """Largest stepsize with a contracting KL bound: 2/(3 alpha)."""
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    return 2.0 / (3.0 * alpha)
