import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from brwplab.density import Grid, GridDensity, uniform_axis
from brwplab.errors import EvaluationError, ParameterError
from brwplab.potentials import Potential, make_gaussian_mixture, make_quadratic
from brwplab.theory import DENOM_EPS, max_stepsize


def make_zero(dim: int) -> Potential:
    """V = 0 (free heat flow): the kernel formula reduces to the heat kernel."""
    return Potential(
        dim=dim,
        eval_fn=lambda x: np.zeros(x.shape[0]),
        grad_fn=lambda x: np.zeros_like(x),
        laplacian_fn=lambda x: np.zeros(x.shape[0]),
    )


def read_density_csv(path) -> GridDensity:
    """Read back a GridDensity written by cli.write_density_csv (CSV plus JSON sidecar)."""
    path = Path(path)
    with open(path.with_suffix(path.suffix + ".json")) as f:
        meta = json.load(f)
    with open(path) as f:
        rows = [[float(v) for v in row] for row in csv.reader(f)]
    d = len(meta["axes"])
    grid = Grid(tuple(np.asarray(rows[i]) for i in range(d)))
    return GridDensity(grid, np.asarray(rows[d:]).reshape(meta["shape"]))


def report_text(r) -> str:
    """A DiagnosticsReport as text, so that rows holding NaN compare equal."""
    return repr(dataclasses.astuple(r))


@pytest.fixture
def axis_default():
    return uniform_axis(-12.0, 12.0, 2401)


@pytest.fixture
def quad1d():
    return make_quadratic(1.0, 1)


@pytest.fixture
def mix1d():
    return make_gaussian_mixture(2.0, 1.0, dim=1)


@pytest.fixture
def zero1d():
    return make_zero(1)


def prox_variance_oracle(v, alpha, beta, T):
    """Output variance of one proximal step for V = alpha|x|^2/2, rho0 = N(0, v).

    Chain of Gaussian integrals done symbolically:
        sigma_T^2 = (2 alpha T^2 + 2 T + beta v) / (beta (1 + alpha T)^2).
    """
    return (2 * alpha * T**2 + 2 * T + beta * v) / (beta * (1 + alpha * T) ** 2)


def gaussian_grid(axis, mean=0.0, var=1.0):
    vals = np.exp(-(axis - mean) ** 2 / (2.0 * var))
    return GridDensity(Grid((axis,)), vals).normalize()


@pytest.fixture
def gaussian_grid_factory():
    return gaussian_grid


# ------------------------------------------- the paper's checks, as test oracles
# kl_one_step_bound and sequence_bound_check check the closed form a run
# reports (theory.kl_k_bound, and bias_sum, its bias term); sampling_complexity,
# pinsker_tv_bound and talagrand_w2_bound are checked against measured runs.

def kl_one_step_bound(kl_k: float, k: int, alpha: float, h: float, s: float,
                      m0: float) -> float:
    """One-step bound KL_{k+1} <= [1 - 2ah + (1+2s)a^2h^2] KL_k + (h^2 s/2) M0 e^{-4ahk}."""
    factor = 1.0 - 2.0 * alpha * h + (1.0 + 2.0 * s) * alpha * alpha * h * h
    return factor * kl_k + 0.5 * h * h * s * m0 * math.exp(-4.0 * alpha * h * k)


def bias_sum(k: int, q: float, r: float, coef: float) -> float:
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
        bound = q**k * a0 + bias_sum(k, q, r, h * h * c2)
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
