import math

import numpy as np
import pytest

from brwplab.errors import EvaluationError, ParameterError
from brwplab.potentials import make_quadratic
from brwplab.samplers import SamplerConfig, evolve_law, run
from brwplab.theory import DENOM_EPS, kl_k_bound, max_stepsize, optimal_stepsize

from conftest import (kl_one_step_bound, pinsker_tv_bound, sampling_complexity,
                      sequence_bound_check, talagrand_w2_bound)


def iterate_one_step(k, alpha, h, s, kl0, m0):
    """Independent oracle: apply the one-step recursion k times from kl0."""
    kl = kl0
    for j in range(k):
        kl = kl_one_step_bound(kl, j, alpha, h, s, m0)
    return kl


class TestOneStepBound:
    def test_vanishing_step_is_identity(self):
        assert kl_one_step_bound(0.7, 3, 1.0, 1e-12, 1.0, 1.0) == pytest.approx(0.7, abs=1e-10)

    def test_s_zero_contraction_is_perfect_square(self):
        for alpha, h in ((1.0, 0.1), (2.0, 0.05)):
            assert kl_one_step_bound(1.0, 0, alpha, h, 0.0, 5.0) == pytest.approx(
                (1 - alpha * h) ** 2, rel=1e-12)

    def test_frozen_arithmetic_value(self):
        # 1 - 0.1 + 3*0.0025 + 0.00125 = 0.90875
        assert kl_one_step_bound(1.0, 0, 1.0, 0.05, 1.0, 1.0) == pytest.approx(0.90875, abs=1e-12)


class TestKlKBound:
    def test_k_zero_is_initial_value(self):
        assert kl_k_bound(0, 1.0, 0.05, 1.0, 0.8, 1.0) == pytest.approx(0.8, abs=1e-14)

    def test_s_zero_pure_exponential(self):
        for k in (1, 5, 20):
            assert kl_k_bound(k, 1.0, 0.1, 0.0, 1.0, 7.0) == pytest.approx(
                math.exp(-k * 0.1 * (2 - 0.1)), rel=1e-12)

    def test_cross_check_against_iteration(self):
        closed = kl_k_bound(20, 1.0, 0.1, 1.0, 1.0, 1.0)
        iterated = iterate_one_step(20, 1.0, 0.1, 1.0, 1.0, 1.0)
        assert iterated <= closed + 1e-12
        # same decade: the closed form only relaxes (1-c1*h)^k to exp(-c1*h*k)
        assert closed == pytest.approx(iterated, rel=0.5)

    def test_dominates_iteration_on_parameter_grid(self):
        for alpha in (0.5, 1.0, 2.0):
            for ah in (0.05, 0.15, 0.3):
                for s in (0.0, 0.5, 1.0):
                    h = ah / alpha
                    kl = 1.0
                    for k in range(501):
                        assert kl <= kl_k_bound(k, alpha, h, s, 1.0, 1.0) * (1 + 1e-9) + 1e-15
                        kl = kl_one_step_bound(kl, k, alpha, h, s, 1.0)

    def test_monotone_when_contracting(self):
        alpha, h = 1.0, 0.1
        assert 2 * alpha * h - 3 * (alpha * h) ** 2 > 0
        vals = [kl_k_bound(k, alpha, h, 1.0, 1.0, 1.0) for k in range(200)]
        assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("h, s, kl0, m0, k", [
        (100.0, 1.0, 1.0, 1.0, 1),      # exp(-c1*k*h) past the float range
        (100.0, 0.0, 0.0, 0.0, 3),      # ... times KL0 = 0, with no bias term
        (10.0, 1.0, 0.0, 1.0, 3),
        (1.0, 1.0, 10.0, 1.0, 709)])    # e^709 finite, times KL0 = 10 not
    def test_past_the_float_range_is_inf(self, h, s, kl0, m0, k):
        assert kl_k_bound(k, 1.0, h, s, kl0, m0) == math.inf

    def test_negative_k_rejected(self):
        with pytest.raises(ParameterError):
            kl_k_bound(-1, 1.0, 0.1, 1.0, 1.0, 1.0)

    def test_bad_s(self):
        with pytest.raises(ParameterError):
            kl_k_bound(1, 1.0, 0.1, 1.5, 1.0, 1.0)

    def test_bad_alpha(self):
        with pytest.raises(ParameterError):
            kl_k_bound(1, -1.0, 0.1, 1.0, 1.0, 1.0)

    def test_degenerate_denominator_is_the_limit(self):
        # alpha = s = 1, h = 1e-13: |q - r| = |1 - 2h + 3h^2 - e^{-4h}| ~ 2h < DENOM_EPS
        alpha, h, s, m0, k = 1.0, 1e-13, 1.0, 1.0, 5
        q = 1.0 - 2.0 * alpha * h + (1.0 + 2.0 * s) * alpha * alpha * h * h
        r = math.exp(-4.0 * alpha * h)
        assert abs(q - r) < DENOM_EPS
        direct = 0.5 * h * h * s * m0 * sum(q**j * r**(k - 1 - j) for j in range(k))
        assert kl_k_bound(k, alpha, h, s, 0.0, m0) == pytest.approx(direct, rel=1e-9)

    def test_nan_initial_values_give_nan(self):
        assert math.isnan(kl_k_bound(3, 1.0, 0.1, 1.0, math.nan, 1.0))
        assert math.isnan(kl_k_bound(3, 1.0, 0.1, 1.0, 1.0, math.nan))


class TestComplexityAndStepsizes:
    @pytest.mark.parametrize("evaluate", [
        lambda: max_stepsize(math.nan),
        lambda: optimal_stepsize(math.nan),
        lambda: kl_k_bound(1, math.nan, 0.1, 1.0, 1.0, 1.0),
        lambda: kl_k_bound(1, 1.0, math.nan, 1.0, 1.0, 1.0),
        lambda: kl_k_bound(1, 1.0, 0.1, math.nan, 1.0, 1.0),
    ], ids=["max_stepsize", "optimal_stepsize", "bound-alpha", "bound-h", "bound-s"])
    def test_nan_rate_or_stepsize_rejected(self, evaluate):
        with pytest.raises(ParameterError):
            evaluate()

    def test_stepsize_constants(self):
        assert optimal_stepsize(1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert max_stepsize(1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_complexity_frozen_value(self):
        # ceil(|ln 0.01| / (2 * 0.1)) = ceil(23.0259) = 24
        assert sampling_complexity(0.01, 1.0) == 24

    def test_complexity_vanishes_at_delta_one(self):
        # |ln delta| -> 0, so the pre-ceiling count vanishes; alpha small
        # enough that sqrt(delta) stays inside the validity window
        assert sampling_complexity(1 - 1e-12, 0.1) <= 1
        assert sampling_complexity(0.9, 0.1) <= 1

    def test_validity_window(self):
        with pytest.raises(ParameterError):
            sampling_complexity(0.6, 1.0)   # sqrt(0.6) > 2/3
        with pytest.raises(ParameterError):
            sampling_complexity(0.0, 1.0)
        with pytest.raises(ParameterError):
            sampling_complexity(0.01, -1.0)


class TestSequenceBound:
    def test_pure_geometric_tight(self):
        assert sequence_bound_check(1.0, 0.0, 4.0, 0.1, 1.0, 500)

    def test_frozen_example(self):
        assert sequence_bound_check(1.0, 1.0, 4.0, 0.1, 1.0, 1000)

    def test_parameter_grid(self):
        for c1 in (0.5, 1.0, 2.0):
            for c3 in (1.0, 4.0, 8.0):
                for h in (0.05, 0.1, 0.2):
                    for c2 in (0.0, 1.0):
                        assert sequence_bound_check(c1, c2, c3, h, 1.0, 1000), \
                            (c1, c2, c3, h)

    def test_large_step_rejected(self):
        with pytest.raises(ParameterError):
            sequence_bound_check(2.0, 1.0, 4.0, 0.5, 1.0, 10)

    def test_degenerate_denominator_detected(self):
        # e^{-c3 h} == 1 - c1 h when c3 = -ln(1-c1*h)/h
        c1, h = 1.0, 0.1
        c3 = -math.log(1 - c1 * h) / h
        with pytest.raises(EvaluationError):
            sequence_bound_check(c1, 1.0, c3, h, 1.0, 10)


class TestPinskerTalagrand:
    def test_zero_kl(self):
        assert pinsker_tv_bound(0.0) == 0.0
        assert talagrand_w2_bound(0.0, 2.0) == 0.0

    def test_frozen_values(self):
        assert pinsker_tv_bound(0.5) == pytest.approx(0.5, rel=1e-15)
        assert talagrand_w2_bound(1.0, 2.0) == pytest.approx(1.0, rel=1e-15)

    def test_negative_kl_rejected(self):
        with pytest.raises(ParameterError):
            pinsker_tv_bound(-0.1)
        with pytest.raises(ParameterError):
            talagrand_w2_bound(-0.1, 1.0)


def _law_rows():
    """Every row of the 1-D law at h = 0.1 over 60 steps (default grid)."""
    return evolve_law(SamplerConfig(h=0.1, n_steps=60), make_quadratic(1.0, 1)).reports


def _successive_3d_rows():
    """Every row of a 10-step brwp_successive run on the default 41^3 grid."""
    cfg = SamplerConfig(method="brwp_successive", n_steps=10, grid=((-12.0, 12.0, 41),) * 3)
    return run(cfg, make_quadratic(1.0, 3)).reports


@pytest.mark.parametrize("rows", [_law_rows, _successive_3d_rows], ids=["law_1d", "successive_3d"])
class TestMeasuredRowsObeyTransportInequalities:
    """Quadratic V with alpha = beta = 1, rho0 = N(0, 2): rho* is 1-strongly log-concave."""

    def test_pinsker(self, rows):
        # the lab's TV is the unhalved L1 distance, in [0, 2]
        for r in rows():
            assert r.tv / 2 <= pinsker_tv_bound(r.kl), r

    def test_talagrand(self, rows):
        # the first-axis W2 of a marginal is at most the full W2
        for r in rows():
            assert r.w2 <= talagrand_w2_bound(r.kl, 1.0), r


@pytest.mark.parametrize("delta", [0.1, 0.01, 0.001])
def test_sampling_complexity_reaches_delta(delta):
    """After sampling_complexity(delta) steps at h = sqrt(delta), KL_N <= delta."""
    target = make_quadratic(1.0, 1)
    cfg = SamplerConfig(method="brwp_successive", h=math.sqrt(delta),
                        n_steps=sampling_complexity(delta, target.alpha))
    law = evolve_law(cfg, target)
    assert not law.folded
    assert law.reports[-1].iter == cfg.n_steps
    assert law.reports[-1].kl <= delta
    chain = run(cfg, target).reports
    assert chain[-1].iter == cfg.n_steps
    assert chain[-1].kl <= delta


def test_gaussian_kl_trajectory_respects_bound():
    """Scalar sanity: exact OU-flow KL decay sits below the discrete bound."""
    alpha = 1.0
    h = 0.05

    def kl_of_var(v):
        return 0.5 * (v - 1 - np.log(v))

    v0 = 2.0
    for k in range(0, 200, 5):
        v = 1 + (v0 - 1) * np.exp(-2 * alpha * k * h)
        assert kl_of_var(v) <= kl_k_bound(k, alpha, h, 1.0, kl_of_var(v0), 0.75) + 1e-12
