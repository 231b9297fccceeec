import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from brwplab.density import (BLUR_EXACT_BELOW, LOG_FLOOR, Grid, GridDensity, ParticleEnsemble,
                             fp_rhs, kde, kl_divergence, fisher_information, trapezoid_weights,
                             uniform_axis)
from brwplab.errors import (DegenerateDensityError, IsolatedParticleError, NumericalError,
                            ParameterError, StepsizeError, TruncationError)
from brwplab.potentials import Potential, make_gaussian_mixture, make_quadratic
from brwplab.proximal import (SCORE_BLOCK, GridProxOperator, ProxParams,
                              _log_denominator_laplace, _weighted_toeplitz, denominator_exact,
                              denominator_laplace, prox_particle_score)

from conftest import gaussian_grid, make_zero, prox_variance_oracle


def denominator_oracle(y, alpha, beta, T):
    """Closed-form scaled normalization integral for the quadratic potential:
    (1+alpha T)^{-1/2} exp(-beta alpha y^2 / (4 (1 + alpha T)))."""
    return (1 + alpha * T) ** -0.5 * np.exp(-beta * alpha * y**2 / (4 * (1 + alpha * T)))


def dense_particle_score(ensemble, target, p):
    """The particle score with its whole N x N weight matrix, as a reference.

    Distances are formed as |x - y|^2 directly, and each row is shifted by
    its max weight.
    """
    x = y = ensemble.points
    beta, T = p.beta, p.T
    log_d = _log_denominator_laplace(y, target, p)
    d2 = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)
    logw = -beta * d2 / (4 * T) - log_d[None, :]
    m = logw.max(axis=1, keepdims=True)
    wt = np.exp(logw - m)
    sw = wt.sum(axis=1)
    ybar = (wt @ y) / sw[:, None]
    log_rho = (m[:, 0] + np.log(sw) - np.log(ensemble.n)
               - beta / 2 * target.eval_fn(x)
               + 0.5 * ensemble.dim * np.log(beta / (4 * np.pi * T)))
    if np.any(log_rho < np.log(LOG_FLOOR)):
        raise IsolatedParticleError("density underflow")
    score = -beta / 2 * target.grad_fn(x) + beta / (2 * T) * (ybar - x)
    return score, log_rho


def outcome(fn, *args):
    """fn(*args), or the class of the NumericalError it raises.

    Warnings about the Laplace denominator's accuracy are ignored; any other
    warning is an error.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "T\\*LapV", UserWarning)
        try:
            return fn(*args)
        except NumericalError as e:
            return type(e)


def assert_blur_matches_dense(op, vals):
    """apply_blur within 1e-9 of the dense product, relative to the blur of |vals|."""
    axis = op.grid.axes[0]
    dense = _weighted_toeplitz(op._kernels(axis)[0], axis)
    fast = op.apply_blur(vals)
    assert np.all(np.abs(fast - dense @ vals) <= 1e-9 * (dense @ np.abs(vals)))
    return fast


def assert_fft_blurs_match_dense(op, vals):
    """apply_blur and score_of_step's two 1-D blurs, with the kernel and with its
    derivative, against the dense products.

    Each entry is within 1e-9 of the product with |vals|, plus 2*tiny*max(1, dx)
    *sum|vals|, the most that the subnormal flush can drop from either side.
    The derivative's dense matrix is laid out from its flushed Toeplitz vector,
    as flushing it after the trapezoid weights would drop larger terms.
    The derivative blur is repaired where the blur is, so elsewhere it may
    also carry its absolute FFT error, here 1e-14 of its product with |vals|.
    """
    axis = op.grid.axes[0]
    dense = _weighted_toeplitz(op._kernels(axis)[0], axis)
    _, (dkern, _) = op._axis_kernels[0]
    rows = np.lib.stride_tricks.sliding_window_view(dkern[::-1], axis.size)[::-1]
    ddense = rows * op.grid.weights                # ddense[i, j] = dkern[G-1+i-j] * w_j
    flush = 2 * np.finfo(float).tiny * max(1.0, axis[1] - axis[0]) * np.sum(np.abs(vals))
    fast = op.apply_blur(vals)
    blur, dblur = op._axis_blurs(vals, 0, 2)
    assert np.array_equal(blur, fast)
    assert np.all(np.abs(fast - dense @ vals) <= 1e-9 * (dense @ np.abs(vals)) + flush)
    bound = np.abs(ddense) @ np.abs(vals)
    err = np.abs(dblur - ddense @ vals)
    repaired = np.abs(blur) < BLUR_EXACT_BELOW * np.abs(blur).max()
    assert np.all(err[repaired] <= 1e-9 * bound[repaired] + flush)
    assert np.all(err <= 1e-9 * bound + 1e-14 * bound.max() + flush)
    return blur, dblur


def direct_blur_matrix(axis, beta, T):
    """Trapezoid blur matrix c*exp(-beta*(x_i - x_j)^2/(4T))*w_j from the pairwise differences."""
    w = np.full(axis.size, axis[1] - axis[0])
    w[[0, -1]] *= 0.5
    diff = axis[:, None] - axis[None, :]
    return np.sqrt(beta / (4 * np.pi * T)) * np.exp(-beta * diff**2 / (4 * T)) * w


def assert_rel_close(a, b, tol):
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))


class TestDenominatorExact:
    def test_free_potential_is_one(self, axis_default, zero1d):
        for t_step, beta in ((0.5, 2.0), (0.1, 1.0), (0.03, 3.0)):
            p = ProxParams(T=t_step, beta=beta)
            assert denominator_exact([0.7], zero1d, p, Grid((axis_default,))) == \
                pytest.approx(1.0, abs=1e-8)

    def test_quadratic_closed_form(self, axis_default, quad1d):
        p = ProxParams(T=0.1, beta=1.0)
        val = denominator_exact([0.0], quad1d, p, Grid((axis_default,)))
        assert val == pytest.approx(denominator_oracle(0.0, 1, 1, 0.1), abs=1e-9)
        assert val == pytest.approx(0.9534625892455922, abs=1e-6)

    def test_quadratic_closed_form_off_center(self, axis_default, quad1d):
        p = ProxParams(T=0.05, beta=1.0)
        for y in (-2.0, 1.3):
            assert denominator_exact([y], quad1d, p, Grid((axis_default,))) == pytest.approx(
                denominator_oracle(y, 1, 1, 0.05), rel=1e-9)

    def test_constant_potential(self, axis_default):
        c = 1.7
        pot = Potential(dim=1, eval_fn=lambda x: np.full(x.shape[0], c),
                        grad_fn=lambda x: np.zeros_like(x),
                        laplacian_fn=lambda x: np.zeros(x.shape[0]))
        p = ProxParams(T=0.2, beta=1.0)
        for y in (-3.0, 0.0, 4.0):
            assert denominator_exact([y], pot, p, Grid((axis_default,))) == pytest.approx(
                np.exp(-c / 2), rel=1e-8)

    def test_narrow_grid_refused(self, quad1d):
        p = ProxParams(T=0.5, beta=1.0)
        with pytest.raises(TruncationError):
            denominator_exact([0.0], quad1d, p, Grid((uniform_axis(-1.0, 1.0, 101),)))


class TestDenominatorLaplace:
    def test_free_potential_exactly_one(self, zero1d):
        p = ProxParams(T=0.3, beta=2.0)
        assert denominator_laplace([1.1], zero1d, p) == 1.0

    def test_quadratic_frozen_value(self, quad1d):
        p = ProxParams(T=0.1, beta=1.0)
        val = denominator_laplace([0.0], quad1d, p)
        assert val == pytest.approx(1.0 / 1.05, abs=1e-12)
        assert val == pytest.approx(0.952381, abs=1e-6)

    def test_gap_to_exact_is_small(self, axis_default, quad1d):
        p = ProxParams(T=0.1, beta=1.0)
        exact = denominator_exact([0.0], quad1d, p, Grid((axis_default,)))
        lap = denominator_laplace([0.0], quad1d, p)
        assert abs(exact - lap) == pytest.approx(1.1e-3, abs=2e-4)

    def test_error_slope_order_two(self, axis_default, quad1d):
        t_list = np.array([0.2, 0.1, 0.05, 0.025])
        for y in (-2.0, 0.0, 2.0):
            errs = []
            for t_step in t_list:
                p = ProxParams(T=t_step, beta=1.0)
                errs.append(abs(denominator_exact([y], quad1d, p, Grid((axis_default,)))
                                - denominator_laplace([y], quad1d, p)))
            slope = np.polyfit(np.log(t_list), np.log(errs), 1)[0]
            assert slope >= 1.7

    def test_large_step_guard(self):
        # correction factor 1 + (T/2) LapV(s) dips below the guard -> refuse
        pot = Potential(dim=1, eval_fn=lambda x: -10.0 * x[:, 0] ** 2,
                        grad_fn=lambda x: -20.0 * x,
                        laplacian_fn=lambda x: np.full(x.shape[0], -20.0))
        with pytest.raises(StepsizeError):
            denominator_laplace([0.0], pot, ProxParams(T=0.1, beta=1.0))

    def test_hypothesis_warning(self, quad1d):
        pot = make_quadratic(3.0, 1)
        with pytest.warns(UserWarning, match="Laplace"):
            denominator_laplace([0.0], pot, ProxParams(T=0.2, beta=1.0))


class TestProxStep:
    def test_heat_kernel_reduction(self, axis_default, zero1d):
        rho0 = gaussian_grid(axis_default, var=1.0)
        op = GridProxOperator(rho0.grid, zero1d, ProxParams(T=0.5, beta=2.0))
        rho_t, mass = op.step(rho0)
        ref = np.exp(-axis_default**2 / 3) / np.sqrt(3 * np.pi)
        assert np.max(np.abs(rho_t.values - ref)) <= 1e-4
        assert mass == pytest.approx(1.0, abs=5e-3)

    def test_quadratic_gaussian_chain_variance(self, axis_default, quad1d):
        rho0 = gaussian_grid(axis_default, var=4.0)
        op = GridProxOperator(rho0.grid, quad1d, ProxParams(T=0.05, beta=1.0))
        rho_t, _ = op.step(rho0)
        var = float(np.sum(rho_t.grid.weights * axis_default**2 * rho_t.values))
        assert var == pytest.approx(prox_variance_oracle(4.0, 1, 1, 0.05), abs=1e-4)
        assert prox_variance_oracle(4.0, 1, 1, 0.05) == pytest.approx(
            3.723356009070295, rel=1e-12)

    def test_output_is_gaussian_for_quadratic(self, axis_default, quad1d):
        rho0 = gaussian_grid(axis_default, var=4.0)
        op = GridProxOperator(rho0.grid, quad1d, ProxParams(T=0.05, beta=1.0))
        rho_t, _ = op.step(rho0)
        var = prox_variance_oracle(4.0, 1, 1, 0.05)
        ref = np.exp(-axis_default**2 / (2 * var)) / np.sqrt(2 * np.pi * var)
        assert np.max(np.abs(rho_t.values - ref)) < 1e-5

    def test_mixture_becomes_bimodal(self, axis_default, mix1d):
        rho0 = gaussian_grid(axis_default, var=2.0)
        op = GridProxOperator(Grid((axis_default,)), mix1d, ProxParams(T=0.05, beta=1.0))
        g = rho0
        for _ in range(50):
            g, mass = op.step(g)
            assert abs(mass - 1.0) <= 5e-3
        pos = axis_default > 0.5
        neg = axis_default < -0.5
        mode_pos = axis_default[pos][np.argmax(g.values[pos])]
        mode_neg = axis_default[neg][np.argmax(g.values[neg])]
        assert abs(mode_pos - 2.0) <= 0.15
        assert abs(mode_neg + 2.0) <= 0.15

    def test_positivity_and_mass(self, axis_default, mix1d, quad1d):
        for target in (mix1d, quad1d):
            rho0 = gaussian_grid(axis_default, var=2.0)
            for t_step in (0.1, 0.05, 0.01):
                op = GridProxOperator(rho0.grid, target, ProxParams(T=t_step, beta=1.0))
                rho_t, mass = op.step(rho0)
                assert np.all(rho_t.values >= 0)
                assert abs(mass - 1.0) <= 5e-3

    def test_laplace_denominator_backend_close_to_quadrature(self, axis_default, quad1d):
        rho0 = gaussian_grid(axis_default, var=2.0)
        p = ProxParams(T=0.02, beta=1.0)
        a, _ = GridProxOperator(rho0.grid, quad1d, p, "quadrature").step(rho0)
        b, _ = GridProxOperator(rho0.grid, quad1d, p, "laplace_denominator").step(rho0)
        assert np.max(np.abs(a.values - b.values)) < 2e-4

    def test_2d_heat_reduction(self):
        axes = (uniform_axis(-10, 10, 201), uniform_axis(-10, 10, 201))
        mesh = np.meshgrid(*axes, indexing="ij")
        rho0 = GridDensity(Grid(axes), np.exp(-(mesh[0] ** 2 + mesh[1] ** 2) / 2)).normalize()
        op = GridProxOperator(rho0.grid, make_zero(2), ProxParams(T=0.5, beta=2.0))
        rho_t, _ = op.step(rho0)
        ref = np.exp(-(mesh[0] ** 2 + mesh[1] ** 2) / 3) / (3 * np.pi)
        assert np.max(np.abs(rho_t.values - ref)) < 1e-4


class TestProxGradient:
    def test_symmetry_zero_at_origin(self, axis_default, zero1d):
        rho0 = gaussian_grid(axis_default, var=1.0)
        p = ProxParams(T=0.5, beta=2.0)
        rho_t, _, score = GridProxOperator(rho0.grid, zero1d, p).score_of_step(rho0)
        grads = [s * rho_t.values for s in score]
        center = np.argmin(np.abs(axis_default))
        assert abs(grads[0][center]) < 1e-8

    def test_gaussian_analytic_gradient(self, axis_default, quad1d):
        rho0 = gaussian_grid(axis_default, var=4.0)
        p = ProxParams(T=0.05, beta=1.0)
        rho_t, _, score = GridProxOperator(rho0.grid, quad1d, p).score_of_step(rho0)
        grads = [s * rho_t.values for s in score]
        var = prox_variance_oracle(4.0, 1, 1, 0.05)
        ref = -axis_default / var * rho_t.values
        assert np.max(np.abs(grads[0] - ref)) < 1e-4

    def test_consistent_with_finite_differences(self, axis_default, mix1d):
        rho0 = gaussian_grid(axis_default, var=2.0)
        p = ProxParams(T=0.05, beta=1.0)
        rho_t, _, score = GridProxOperator(rho0.grid, mix1d, p).score_of_step(rho0)
        grads = [s * rho_t.values for s in score]
        dx = axis_default[1] - axis_default[0]
        fd = np.gradient(rho_t.values, dx)
        interior = slice(200, -200)
        scale = np.max(np.abs(grads[0]))
        assert np.max(np.abs(fd[interior] - grads[0][interior])) / scale < 1e-3


class TestParticleScore:
    def test_single_cluster_zero_score(self, zero1d):
        pts = np.full((20, 1), 0.4)
        ens = ParticleEnsemble(pts)
        score, _ = prox_particle_score(ens, zero1d, ProxParams(T=0.1, beta=1.0))
        assert np.allclose(score, 0.0, atol=1e-12)

    def test_two_particle_symmetry(self, zero1d):
        ens = ParticleEnsemble(np.array([[-1.0], [1.0]]))
        score, _ = prox_particle_score(ens, zero1d, ProxParams(T=0.1, beta=1.0))
        assert score[0, 0] > 0
        assert abs(score[0, 0] + score[1, 0]) < 1e-14

    def test_matches_grid_backend_on_gaussian_cloud(self, zero1d):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((2000, 1)) * np.sqrt(1.5)
        ens = ParticleEnsemble(pts)
        p = ProxParams(T=0.5, beta=2.0)
        score, _ = prox_particle_score(ens, zero1d, p)
        # grid oracle on the same data: KDE density through the grid operator
        axes = (uniform_axis(-12.0, 12.0, 2401),)
        rho0 = kde(ens, "auto", Grid(axes))
        op = GridProxOperator(rho0.grid, zero1d, p)
        _, _, fields = op.score_of_step(rho0)
        grid_score = np.interp(pts[:, 0], axes[0], fields[0])
        assert np.mean(np.abs(score[:, 0] - grid_score)) <= 0.1
        # prox of N(0,1.5) under V=0 at beta=2, T=0.5 is N(0,2): score ~ -x/2
        assert np.mean(np.abs(score[:, 0] + pts[:, 0] / 2.0)) <= 0.1

    def test_isolated_query_detected(self, quad1d):
        # a particle at 600 keeps its own weight, but rho_T there is exp(-9e4)
        pts = np.append(np.linspace(-0.1, 0.1, 30), 600.0)[:, None]
        with pytest.raises(IsolatedParticleError, match="particle 30:"):
            prox_particle_score(ParticleEnsemble(pts), quad1d, ProxParams(T=0.01, beta=1.0))

    @pytest.mark.parametrize("dim", [1, 10])
    @pytest.mark.parametrize("n", [
        pytest.param(2 * SCORE_BLOCK + 37, id="293-None"),     # N not a multiple of the block
        pytest.param(50, id="50-None"),                        # N smaller than one block
    ])
    def test_streamed_matches_dense(self, dim, n):
        rng = np.random.default_rng(n + dim)
        ens = ParticleEnsemble(rng.standard_normal((n, dim)) * 1.5)
        target = make_gaussian_mixture(2.0, 1.0, dim=dim)
        p = ProxParams(T=0.05, beta=1.5)
        score, log_rho = prox_particle_score(ens, target, p)
        ref_score, ref_log_rho = dense_particle_score(ens, target, p)
        assert_rel_close(score, ref_score, 1e-12)
        assert_rel_close(log_rho, ref_log_rho, 1e-12)

    @pytest.mark.parametrize("dim", [1, 10])
    @pytest.mark.parametrize("centre", [0.0, 4.0, 8.0])
    def test_matches_extended_precision_reference(self, dim, centre):
        # |x - y|^2 formed directly in long double; the error of the float64
        # score grows with |x|^2 (expanded distances), hence the shifted clouds.
        # Under the mixture log D varies, so a row's max weight is not its own.
        y = np.random.default_rng(dim).standard_normal((600, dim)) + centre
        yl = y.astype(np.longdouble)
        d2 = np.sum((yl[:, None, :] - yl[None, :, :]) ** 2, axis=2)
        p = ProxParams(T=0.05, beta=1.0)
        for target in (make_zero(dim), make_gaussian_mixture(2.0, 1.0, dim=dim)):
            score, _ = prox_particle_score(ParticleEnsemble(y), target, p)
            log_d = _log_denominator_laplace(y, target, p).astype(np.longdouble)
            logw = -p.beta * d2 / (4 * p.T) - log_d[None, :]
            w = np.exp(logw - logw.max(axis=1, keepdims=True))
            ref = (-p.beta / 2 * target.grad_fn(y)
                   + p.beta / (2 * p.T) * ((w @ yl) / w.sum(axis=1)[:, None] - yl))
            assert np.max(np.abs(score - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_neighbour_overflow_takes_row_max_path(self):
        # log D(y) = -(1 - T + T^2)|y|^2/4 - log 2 here, so with each row shifted
        # by its own term the rows at 15 and 16 see an exponent near 7000
        # towards 105: exp overflows, and the block is recomputed
        ens = ParticleEnsemble(np.array([[15.0], [105.0], [16.0]]))
        target, p = make_quadratic(1.0, 1), ProxParams(T=2.0, beta=1.0)
        score, log_rho = outcome(prox_particle_score, ens, target, p)
        ref_score, ref_log_rho = outcome(dense_particle_score, ens, target, p)
        assert np.all(np.isfinite(score)) and np.all(np.isfinite(log_rho))
        assert_rel_close(score, ref_score, 1e-12)
        assert_rel_close(log_rho, ref_log_rho, 1e-12)
        assert_rel_close(score, np.array([[15.0], [-52.5], [14.25]]), 1e-12)

    @seed(20241018)
    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(2, 300), dim=st.sampled_from([1, 2, 10]),
           beta=st.floats(0.5, 40.0), T=st.floats(0.01, 0.5), mixture=st.booleans(),
           spread=st.floats(0.1, 3.0), rng_seed=st.integers(0, 2**32 - 1))
    def test_ensemble_matches_dense(self, n, dim, beta, T, mixture, spread, rng_seed):
        # the own-term shift against the row-max dense reference, or the same error
        y = np.random.default_rng(rng_seed).standard_normal((n, dim)) * spread
        target = make_gaussian_mixture(2.0, 1.0, dim=dim) if mixture else make_quadratic(1.0, dim)
        args = (ParticleEnsemble(y), target, ProxParams(T=T, beta=beta))
        got, ref = outcome(prox_particle_score, *args), outcome(dense_particle_score, *args)
        if isinstance(ref, type) or isinstance(got, type):
            assert got is ref
        else:
            assert_rel_close(got[0], ref[0], 1e-12)
            assert_rel_close(got[1], ref[1], 1e-12)

    def test_isolated_query_in_last_block_detected(self, quad1d):
        pts = np.linspace(-0.1, 0.1, 2 * SCORE_BLOCK + 3)[:, None]
        pts[-1, 0] = 600.0
        p = ProxParams(T=0.01, beta=1.0)
        prox_particle_score(ParticleEnsemble(pts[:-1]), quad1d, p)
        with pytest.raises(IsolatedParticleError, match=f"particle {pts.shape[0] - 1}:"):
            prox_particle_score(ParticleEnsemble(pts), quad1d, p)

    def test_memory_stays_below_one_dense_matrix(self):
        n, dim = 4000, 10
        ens = ParticleEnsemble(np.random.default_rng(0).standard_normal((n, dim)))
        target = make_gaussian_mixture(2.0, 1.0, dim=dim)
        tracemalloc.start()
        try:
            prox_particle_score(ens, target, ProxParams(T=0.05))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a single dense N x N float64 array is 128 MB
        assert peak < 64 * 2**20


class TestOrderTwoConsistency:
    def test_error_slope_in_window(self, axis_default, quad1d):
        rho0 = gaussian_grid(axis_default, var=4.0)
        t_list = np.array([0.2, 0.1, 0.05, 0.025])
        errs = []
        for t_step in t_list:
            op = GridProxOperator(rho0.grid, quad1d, ProxParams(T=t_step, beta=1.0))
            rho_t, _ = op.step(rho0)
            foe = np.maximum(rho0.values + t_step * fp_rhs(rho0, quad1d, 1.0), 0.0)
            errs.append(np.max(np.abs(rho_t.values - foe)))
        slope = np.polyfit(np.log(t_list), np.log(errs), 1)[0]
        assert 1.7 <= slope <= 2.3


class TestPureProxDecay:
    @pytest.mark.parametrize("target_name", ["quadratic", "mixture"])
    def test_kl_strictly_decreasing(self, axis_default, quad1d, mix1d, target_name):
        target = quad1d if target_name == "quadratic" else mix1d
        op = GridProxOperator(Grid((axis_default,)), target, ProxParams(T=0.05, beta=1.0))
        g = gaussian_grid(axis_default, var=2.0)
        prev = kl_divergence(g, target, 1.0)
        for _ in range(40):
            g, _ = op.step(g)
            cur = kl_divergence(g, target, 1.0)
            assert cur < prev
            prev = cur

    def test_one_step_drop_equals_fisher(self, axis_default, quad1d):
        t_step = 0.01
        g = gaussian_grid(axis_default, var=2.0)
        op = GridProxOperator(g.grid, quad1d, ProxParams(T=t_step, beta=1.0))
        g2, _ = op.step(g)
        drop = (kl_divergence(g, quad1d, 1.0) - kl_divergence(g2, quad1d, 1.0)) / t_step
        fi = fisher_information(g, quad1d, 1.0)
        assert drop == pytest.approx(fi, rel=0.2)


@pytest.mark.parametrize("kwargs", [{"T": np.nan}, {"T": 0.1, "beta": np.nan}])
def test_nan_params_rejected(kwargs):
    with pytest.raises(ParameterError):
        ProxParams(**kwargs)


def test_params_validation():
    with pytest.raises(ParameterError):
        ProxParams(T=0.0)
    with pytest.raises(ParameterError):
        ProxParams(T=0.1, beta=-1.0)
    with pytest.raises(ParameterError):
        GridProxOperator(Grid((uniform_axis(-12, 12, 101),)), make_quadratic(1.0, 1),
                         ProxParams(T=0.1), backend="particle")


def test_gradient_2d_matches_finite_differences():
    axes = (uniform_axis(-8, 8, 321), uniform_axis(-8, 8, 321))
    mesh = np.meshgrid(*axes, indexing="ij")
    rho0 = GridDensity(Grid(axes), np.exp(-(mesh[0] ** 2 + 2 * mesh[1] ** 2) / 4)).normalize()
    target = make_quadratic(1.0, 2)
    p = ProxParams(T=0.05, beta=1.0)
    rho_t, _, score = GridProxOperator(rho0.grid, target, p).score_of_step(rho0)
    grads = [s * rho_t.values for s in score]
    dx = axes[0][1] - axes[0][0]
    interior = (slice(40, -40), slice(40, -40))
    for i in range(2):
        fd = np.gradient(rho_t.values, dx, axis=i)
        scale = np.max(np.abs(grads[i]))
        assert np.max(np.abs(fd[interior] - grads[i][interior])) / scale < 1e-3


def dense_score(op, rho0):
    """grad log rho_T by quadrature sums with no FFT: per-axis matrices from the
    pairwise differences, unflushed, and each axis's derivative blur on its own."""
    beta, T = op.p.beta, op.p.T
    ratio = rho0.values / op.denom
    mats = [direct_blur_matrix(a, beta, T) for a in op.grid.axes]

    def blur(ms):
        vals = ratio
        for i, m in enumerate(ms):
            vals = np.moveaxis(np.tensordot(m, vals, axes=(1, i)), 0, i)
        return vals

    ref = blur(mats)
    score = []
    for i, a in enumerate(op.grid.axes):
        ms = list(mats)
        ms[i] = -beta * np.subtract.outer(a, a) / (2 * T) * mats[i]
        score.append(-beta / 2 * op.grad_v[i] + blur(ms) / ref)
    return score


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
def test_step_refuses_nonfinite_or_negative_output(bad):
    axis = uniform_axis(-12.0, 12.0, 401)
    op = GridProxOperator(Grid((axis,)), make_quadratic(1.0, 1), ProxParams(T=0.05))
    rho0 = gaussian_grid(axis)
    raw = op.e_v * op.apply_blur(rho0.values / op.denom)
    raw[200] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")          # a negative entry first moves the mass
        with pytest.raises(DegenerateDensityError):
            op.step(rho0, raw)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_score_of_step_matches_step_and_gradient(dim):
    target = make_quadratic(1.0, dim)
    axes = tuple(uniform_axis(-6.0, 6.0, 33) for _ in range(dim))
    mesh = np.meshgrid(*axes, indexing="ij")
    rho0 = GridDensity(Grid(axes), np.exp(-sum((m - 0.5) ** 2 for m in mesh) / 4.0)).normalize()
    op = GridProxOperator(rho0.grid, target, ProxParams(T=0.2, beta=1.0))
    ref_t, ref_mass = op.step(rho0)
    assert ref_t.grid is op.grid
    rho_t, mass, score = op.score_of_step(rho0)
    assert mass == ref_mass
    assert np.array_equal(rho_t.values, ref_t.values)
    # the derivative-kernel score against exact sums; the two-term form it
    # replaced was about 4e-15 off here, the derivative kernels about 4e-16
    for s, ref in zip(score, dense_score(op, rho0)):
        assert np.max(np.abs(s - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim, passes, ffts", [(1, 0, 1), (2, 5, 0), (3, 9, 0)])
def test_score_of_step_pass_counts(monkeypatch, dim, passes, ffts):
    # per-axis passes (one tensordot each) for d >= 2; one forward FFT in 1-D
    axes = tuple(uniform_axis(-6.0, 6.0, 33) for _ in range(dim))
    mesh = np.meshgrid(*axes, indexing="ij")
    rho0 = GridDensity(Grid(axes), np.exp(-sum(m ** 2 for m in mesh) / 4.0)).normalize()
    op = GridProxOperator(rho0.grid, make_quadratic(1.0, dim), ProxParams(T=0.2, beta=1.0))
    calls = {"tensordot": 0, "rfft": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(np, "tensordot")
    counted(np.fft, "rfft")
    op.score_of_step(rho0)
    assert calls == {"tensordot": passes, "rfft": ffts}


@pytest.mark.parametrize("backend", ["quadrature", "laplace_denominator"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_drift_is_built_once_and_read_only(backend, dim):
    # -(beta/2) d_i V per axis, laid out like a blur on both backends; the
    # Laplace denominator is C-ordered, so it does not give that layout
    axes = tuple(uniform_axis(-6.0, 6.0, 33) for _ in range(dim))
    grid = Grid(axes)
    rho0 = GridDensity(grid, np.exp(-sum(m ** 2 for m in grid.mesh) / 4.0)).normalize()
    op = GridProxOperator(grid, make_quadratic(1.0, dim), ProxParams(T=0.1, beta=2.0), backend)
    blur = op.apply_blur(rho0.values)
    before = [drift.copy() for drift in op._drift]
    assert len(op._drift) == dim
    for drift, grad in zip(op._drift, op.grad_v):
        assert not drift.flags.writeable
        assert drift.strides == blur.strides
        assert np.array_equal(drift, -grad.reshape(grid.shape))     # beta/2 = 1
        with pytest.raises(ValueError):
            drift[...] = 0.0
    for _ in range(3):
        op.score_of_step(rho0)
    assert all(np.array_equal(drift, ref) for drift, ref in zip(op._drift, before))


@pytest.mark.parametrize("T", [0.002, 0.01])
def test_small_t_score_matches_gaussian_closed_form(axis_default, quad1d, T):
    # rho0 = N(0, v0) at half its decay bound, so rho_T = N(0, var_t) and the
    # score is -x/var_t. Where rho_T >= 1e-14 of its peak the score is about
    # 2e-10/sigma_T off; the two-term form was 4e-8 to 2e-7/sigma_T off, as it
    # amplified the FFT's absolute error by about |x|/(2T).
    v0 = 1 + T
    var_t = prox_variance_oracle(v0, 1, 1, T)
    rho0 = gaussian_grid(axis_default, var=v0)
    op = GridProxOperator(rho0.grid, quad1d, ProxParams(T=T, beta=1.0))
    rho_t, _, (score,) = op.score_of_step(rho0)
    keep = rho_t.values >= 1e-14 * rho_t.values.max()
    assert np.max(np.abs(score + axis_default / var_t)[keep]) * np.sqrt(var_t) <= 2e-9


@pytest.mark.parametrize("dim, n", [(1, 2401), (2, 161)])
def test_score_is_zero_where_blur_underflows(dim, n):
    # a narrow rho0 and a short step: far from rho0, Blur[rho0/D] is exactly 0
    # (and subnormal next to that), yet the score stays finite, and 0 there
    grid = Grid((uniform_axis(-12.0, 12.0, n),) * dim)
    rho0 = GridDensity(grid, np.exp(-sum(m**2 for m in grid.mesh) / 0.1)).normalize()
    op = GridProxOperator(grid, make_quadratic(1.0, dim), ProxParams(T=0.01, beta=1.0))
    with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
        warnings.simplefilter("error")
        rho_t, mass, score = op.score_of_step(rho0)
    blur = op.apply_blur(rho0.values / op.denom)
    zero = blur == 0
    assert 0 < np.count_nonzero(zero) < zero.size
    assert np.any((blur > 0) & (blur < np.finfo(float).tiny))
    assert np.array_equal(rho_t.values, op.step(rho0)[0].values)
    for s in score:
        assert np.all(np.isfinite(s))
        assert np.all(s[zero] == 0)


@pytest.mark.parametrize("n, beta, T", [(401, 1.0, 0.05), (400, 2.5, 0.05),
                                        (2401, 1.0, 0.05), (160, 0.7, 0.3)])
def test_blur_matrix_matches_direct_formula(n, beta, T):
    axis = uniform_axis(-12.0, 12.0, n)
    op = GridProxOperator(Grid((axis,)), make_quadratic(1.0, 1), ProxParams(T=T, beta=beta))
    ref = direct_blur_matrix(axis, beta, T)
    blur = _weighted_toeplitz(op._kernels(axis)[0], axis)
    assert blur.shape == ref.shape
    big = ref > 1e-300
    assert np.max(np.abs(blur[big] - ref[big]) / ref[big]) <= 1e-12
    assert np.all(blur[~big] <= 1e-300)


class TestFftBlur:
    """The 1-D FFT blur with dense repair against the dense product."""

    @pytest.mark.parametrize("T, beta", [(0.05, 1.0), (1 / 6, 1.0), (0.5, 2.0)])
    def test_heat_kernel(self, axis_default, zero1d, T, beta):
        op = GridProxOperator(Grid((axis_default,)), zero1d, ProxParams(T=T, beta=beta))
        rho0 = gaussian_grid(axis_default, var=1.0).values
        assert_blur_matches_dense(op, op.e_v)
        out = assert_blur_matches_dense(op, rho0 / op.denom)
        var = 1.0 + 2 * T / beta
        ref = np.exp(-axis_default**2 / (2 * var)) / np.sqrt(2 * np.pi * var)
        assert_rel_close(op.e_v * out, ref, 1e-9)

    @pytest.mark.parametrize("T", [0.05, 1 / 6, 0.5])
    def test_quadratic_gaussian_closed_form(self, axis_default, quad1d, T):
        op = GridProxOperator(Grid((axis_default,)), quad1d, ProxParams(T=T, beta=1.0))
        rho0 = gaussian_grid(axis_default, var=4.0)
        assert_blur_matches_dense(op, op.e_v)
        assert_blur_matches_dense(op, rho0.values / op.denom)
        rho_t, _ = op.step(rho0)
        var = prox_variance_oracle(4.0, 1, 1, T)
        ref = np.exp(-axis_default**2 / (2 * var)) / np.sqrt(2 * np.pi * var)
        assert np.max(np.abs(rho_t.values - ref)) < 1e-5

    def test_exact_zeros_at_both_ends(self, axis_default, quad1d):
        # evolve_law's pushforward leaves exact zeros outside the image of its map
        op = GridProxOperator(Grid((axis_default,)), quad1d, ProxParams(T=1 / 6, beta=1.0))
        vals = gaussian_grid(axis_default, var=0.5).values
        vals[:700] = 0.0
        vals[-900:] = 0.0
        out = assert_blur_matches_dense(op, vals / op.denom)
        assert np.all(out >= 0)

    def test_narrow_bimodal_repairs_interior(self, axis_default, mix1d):
        op = GridProxOperator(Grid((axis_default,)), mix1d, ProxParams(T=0.05, beta=1.0))
        vals = (np.exp(-(axis_default - 5) ** 2 / 0.02)
                + np.exp(-(axis_default + 5) ** 2 / 0.02)) / op.denom
        dense = _weighted_toeplitz(op._kernels(axis_default)[0], axis_default) @ vals
        low = np.abs(dense) < BLUR_EXACT_BELOW * np.abs(dense).max()
        assert low[len(low) // 2] and not low.all()    # a gap between two kept runs
        assert_blur_matches_dense(op, vals)

    @pytest.mark.parametrize("target_name", ["quad1d", "mix1d", "zero1d"])
    def test_signed_field(self, axis_default, target_name, request):
        target = request.getfixturevalue(target_name)
        op = GridProxOperator(Grid((axis_default,)), target, ProxParams(T=0.2, beta=1.0))
        rho0 = gaussian_grid(axis_default, mean=0.3, var=2.0).values
        assert_blur_matches_dense(op, axis_default * rho0 / op.denom)

    def test_leading_interior_and_trailing_runs_at_once(self, axis_default, quad1d):
        op = GridProxOperator(Grid((axis_default,)), quad1d, ProxParams(T=0.05, beta=1.0))
        vals = sum(np.exp(-(axis_default - c) ** 2 / 0.02) for c in (-6.0, 0.0, 6.0))
        dense = direct_blur_matrix(axis_default, 1.0, 0.05)
        ref = dense @ vals
        low = np.abs(ref) < BLUR_EXACT_BELOW * np.abs(ref).max()
        starts = np.flatnonzero(np.diff(low.astype(int)) == 1) + 1
        assert low[0] and low[-1] and starts.size == 3     # leading, two interior, trailing
        out = op.apply_blur(vals)
        assert np.all(np.abs(out - ref) <= 1e-9 * (dense @ np.abs(vals)))

    @staticmethod
    def zero_padded_inputs(op):
        """A Gaussian over D with exact zeros at the left end, the right end and both,
        as evolve_law's pushforward leaves outside the image of its map."""
        axis = op.grid.axes[0]
        n = axis.size
        vals = np.exp(-(axis - 0.3) ** 2 / 2) / op.denom
        left, right = max(1, n // 3), max(1, n // 4)
        out = []
        for cut in ((0, right), (left, 0), (left, right)):
            v = vals.copy()
            v[:cut[0]] = 0.0
            v[n - cut[1]:] = 0.0
            out.append(v)
        return out

    @pytest.mark.parametrize("n", [2, 3, 17, 401, 2401])
    @pytest.mark.parametrize("T", [1 / 6, 1 / 3, 0.6, 1.0])
    def test_grid_sizes_at_sweep_stepsizes(self, quad1d, n, T):
        # small grids get spacing 1, so that the kernel reaches every offset
        half = min(12.0, (n - 1) / 2)
        op = GridProxOperator(Grid((uniform_axis(-half, half, n),)), quad1d, ProxParams(T=T))
        n_fft = op._fft_len
        assert n_fft >= 2 * n - 1 and n_fft // (n_fft & -n_fft) in (1, 3, 5)
        if n <= 3:
            assert n_fft == 2 * n - 1              # no slack against wrap-around
        if n == 2401:
            assert n_fft == 5120
        assert_fft_blurs_match_dense(op, op.e_v)
        for vals in self.zero_padded_inputs(op):
            assert_fft_blurs_match_dense(op, vals)

    def test_band_narrower_than_grid(self, axis_default, quad1d):
        # at T = 0.01 the kernel is 0 beyond about 530 of the 2400 offsets, so a
        # repaired run reads only the inputs within that band
        op = GridProxOperator(Grid((axis_default,)), quad1d, ProxParams(T=0.01))
        g = axis_default.size
        (kern, _), (dkern, _) = op._axis_kernels[0]
        assert 500 < op._band < 560
        assert kern[g + op._band] == 0 and kern[g - 1 + op._band] > 0
        assert not np.any(dkern[g + op._band:]) and not np.any(dkern[:g - 1 - op._band])
        for vals in [op.e_v] + self.zero_padded_inputs(op):
            assert_fft_blurs_match_dense(op, vals)
        # one nonzero input: each repaired output is its single product, exactly,
        # out to the band's last offset
        j = 1000
        vals = np.zeros(g)
        vals[j] = 3.0
        blur, dblur = assert_fft_blurs_match_dense(op, vals)
        u = vals[j] * op.grid.weights[j]
        repaired = blur < BLUR_EXACT_BELOW * blur.max()
        for out, vec in ((blur, kern), (dblur, dkern)):
            column = vec[g - 1 - j:2 * g - 1 - j] * u
            assert np.array_equal(out[repaired], column[repaired])
        assert blur[j - op._band] > 0 and blur[j + op._band] > 0
        assert not np.any(blur[:j - op._band]) and not np.any(blur[j + op._band + 1:])

    @pytest.mark.parametrize("n", [2, 401, 2401])
    def test_all_zero_input_gives_exact_zeros(self, quad1d, n):
        op = GridProxOperator(Grid((uniform_axis(-12.0, 12.0, n),)), quad1d,
                              ProxParams(T=1 / 3))
        for out in assert_fft_blurs_match_dense(op, np.zeros(n)):
            assert not np.any(out)

    def test_no_dense_table_held(self):
        grid = Grid((uniform_axis(-12.0, 12.0, 2401),))
        tracemalloc.start()
        try:
            op = GridProxOperator(grid, make_quadratic(1.0, 1), ProxParams(T=0.05, beta=1.0))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.denom.shape == (2401,)
        assert held < 1e6 and peak < 1e6      # one 2401^2 table is 46 MB


class TestSubnormalFlush:
    """Kernel entries below the smallest normal float are exactly 0."""

    @pytest.mark.parametrize("n, T, beta", [(41, 0.05, 1.0), (2401, 0.05, 1.0),
                                            (2401, 1 / 6, 1.0), (161, 0.3, 0.7)])
    def test_toeplitz_kernel_has_no_subnormals(self, n, T, beta):
        axis = uniform_axis(-12.0, 12.0, n)
        op = GridProxOperator(Grid((axis,)), make_quadratic(1.0, 1), ProxParams(T=T, beta=beta))
        kern = op._kernels(axis)[0]
        assert kern.shape == (2 * n - 1,)
        assert not np.any((kern > 0) & (kern < np.finfo(float).tiny))

    def test_weighted_matrix_has_no_subnormals(self):
        # here normal kernel entries times the trapezoid weights fall below tiny
        axis = uniform_axis(-12.0, 12.0, 161)
        op = GridProxOperator(Grid((axis, axis)), make_zero(2), ProxParams(T=0.29, beta=2.0))
        tiny = np.finfo(float).tiny
        rows = np.lib.stride_tricks.sliding_window_view(op._kernels(axis)[0], 161)[::-1]
        weighted = rows * trapezoid_weights(axis)
        assert np.count_nonzero((weighted > 0) & (weighted < tiny)) == 52
        for blur, dblur in op._axis_kernels:
            assert not np.any((blur > 0) & (blur < tiny))
            assert np.any(dblur)
            assert not np.any((np.abs(dblur) > 0) & (np.abs(dblur) < tiny))

    def test_derivative_matrix_is_the_1d_derivative_vector_laid_out(self):
        # one flush rule in every dimension: the d >= 2 derivative matrix keeps
        # the entries whose weighted kernel is below tiny but whose derivative
        # is not (up to about 35 * tiny here)
        axis = uniform_axis(-12.0, 12.0, 1201)
        p = ProxParams(T=0.01, beta=1.0)
        op = GridProxOperator(Grid((axis, uniform_axis(-12.0, 12.0, 5))), make_zero(2), p)
        op1 = GridProxOperator(Grid((axis,)), make_zero(1), p)
        (kern, _), (dkern, _) = op1._axis_kernels[0]
        blur, dblur = op._axis_kernels[0]
        ref = _weighted_toeplitz(dkern, axis)
        assert np.array_equal(dblur, ref)
        assert np.array_equal(blur, _weighted_toeplitz(kern, axis))
        tiny = np.finfo(float).tiny
        kept = (blur == 0) & (ref != 0)
        assert np.count_nonzero(kept) > 0 and np.abs(ref[kept]).max() > 30 * tiny

    def test_weighted_toeplitz_layout(self):
        axis = uniform_axis(0.0, 4.0, 5)
        vec = np.arange(1.0, 10.0)                  # no symmetry: vec[G-1+i-j] is checked
        m = _weighted_toeplitz(vec, axis)
        w = trapezoid_weights(axis)
        assert np.array_equal(m, [[vec[4 + i - j] * w[j] for j in range(5)] for i in range(5)])
        vec[0] = np.finfo(float).tiny / 2           # subnormal at offset -(G-1) is flushed
        assert _weighted_toeplitz(vec, axis)[0, 4] == 0.0

    def test_3d_blur_equals_unflushed_product(self):
        # the successive_3d operator: quadratic d = 3 on 41^3 over +-12, T = 0.05
        beta, T = 1.0, 0.05
        axis = uniform_axis(-12.0, 12.0, 41)
        grid = Grid((axis,) * 3)
        op = GridProxOperator(grid, make_quadratic(1.0, 3), ProxParams(T=T, beta=beta))
        # the kernel formula at each offset |i - j|, without the flush
        kern = np.sqrt(beta / (4 * np.pi * T)) * np.exp(-beta * (axis - axis[0]) ** 2 / (4 * T))
        off = np.abs(np.subtract.outer(np.arange(41), np.arange(41)))
        ref_mat = kern[off] * trapezoid_weights(axis)
        tiny = np.finfo(float).tiny
        assert np.count_nonzero((ref_mat > 0) & (ref_mat < tiny)) == 42
        for blur, _ in op._axis_kernels:
            assert not np.any((blur > 0) & (blur < tiny))

        def unflushed(vals):
            for i in range(3):
                vals = np.moveaxis(np.tensordot(ref_mat, vals, axes=(1, i)), 0, i)
            return vals

        ratio = np.exp(-sum(m**2 for m in grid.mesh) / 4.0) / op.denom
        for vals in (op.e_v, ratio):
            assert np.array_equal(op.apply_blur(vals), unflushed(vals))
        # x_i * rho0/D is odd in x_i: on the plane x_i = 0 its blur cancels to 0
        # and the dropped entries can leave a subnormal residue there
        for m in grid.mesh:
            out, ref = op.apply_blur(m * ratio), unflushed(m * ratio)
            normal = np.abs(ref) >= tiny
            assert np.count_nonzero(~normal) <= 41**2
            assert np.array_equal(out[normal], ref[normal])
            assert np.all(np.abs(out[~normal]) < tiny)
