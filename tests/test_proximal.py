import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from brwplab.density import (LOG_FLOOR, Grid, GridDensity, ParticleEnsemble, fp_rhs, kde,
                             kl_divergence, fisher_information, target_density,
                             trapezoid_weights, uniform_axis)
from brwplab.errors import (DegenerateDensityError, IsolatedParticleError, NumericalError,
                            ParameterError, StepsizeError, TruncationError)
from brwplab.potentials import Potential, make_gaussian_mixture, make_quadratic, make_zero
from brwplab.proximal import (BLUR_EXACT_BELOW, SCORE_BLOCK, GridProxOperator, ProxParams,
                              _log_denominator_laplace, denominator_exact,
                              denominator_laplace, first_order_expansion,
                              prox_particle_score)

from conftest import gaussian_grid, prox_variance_oracle


def denominator_oracle(y, alpha, beta, T):
    """Closed-form scaled normalization integral for the quadratic potential:
    (1+alpha T)^{-1/2} exp(-beta alpha y^2 / (4 (1 + alpha T)))."""
    return (1 + alpha * T) ** -0.5 * np.exp(-beta * alpha * y**2 / (4 * (1 + alpha * T)))


def dense_particle_score(ensemble, target, p, query=None):
    """The particle score with its whole N x N weight matrix, as a reference.

    Distances are formed as |x - y|^2 directly, and each row is shifted by
    its max weight.
    """
    y = ensemble.points
    x = y if query is None else np.asarray(query, dtype=float)
    if x.ndim == 1:
        x = x[:, None] if ensemble.dim == 1 else x[None, :]
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
    dense = op._blur_matrix(op.grid.axes[0])
    fast = op.apply_blur(vals)
    assert np.all(np.abs(fast - dense @ vals) <= 1e-9 * (dense @ np.abs(vals)))
    return fast


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
        score, _ = prox_particle_score(ens, zero1d, ProxParams(T=0.1, beta=1.0),
                                       query=np.array([[0.0]]))
        assert abs(score[0, 0]) < 1e-14

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
        ens = ParticleEnsemble(np.zeros((30, 1))
                               + np.linspace(-0.1, 0.1, 30)[:, None])
        with pytest.raises(IsolatedParticleError):
            prox_particle_score(ens, quad1d, ProxParams(T=0.01, beta=1.0),
                                query=np.array([[60.0]]))

    @pytest.mark.parametrize("dim", [1, 10])
    @pytest.mark.parametrize("n, n_query", [
        (2 * SCORE_BLOCK + 37, None),          # N not a multiple of the block
        (50, None),                            # N smaller than one block
        (300, 77),                             # fewer queries than particles
        (60, 2 * SCORE_BLOCK + 5),             # more queries than particles
    ])
    def test_streamed_matches_dense(self, dim, n, n_query):
        rng = np.random.default_rng(n + dim)
        ens = ParticleEnsemble(rng.standard_normal((n, dim)) * 1.5)
        query = None if n_query is None else rng.standard_normal((n_query, dim)) * 2.0
        target = make_gaussian_mixture(2.0, 1.0, dim=dim)
        p = ProxParams(T=0.05, beta=1.5)
        score, log_rho = prox_particle_score(ens, target, p, query)
        ref_score, ref_log_rho = dense_particle_score(ens, target, p, query)
        assert_rel_close(score, ref_score, 1e-12)
        assert_rel_close(log_rho, ref_log_rho, 1e-12)

    @pytest.mark.parametrize("dim, query", [(1, np.linspace(-2.0, 2.0, 9)),
                                            (10, np.full(10, 0.3))])
    def test_streamed_matches_dense_on_query_vector(self, dim, query):
        rng = np.random.default_rng(dim)
        ens = ParticleEnsemble(rng.standard_normal((SCORE_BLOCK + 3, dim)))
        target = make_quadratic(1.0, dim)
        p = ProxParams(T=0.04, beta=1.0)
        score, log_rho = prox_particle_score(ens, target, p, query)
        ref_score, ref_log_rho = dense_particle_score(ens, target, p, query)
        assert score.shape == (query.size if dim == 1 else 1, dim)
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

    @pytest.mark.parametrize("query", [
        np.array([[0.0, np.nan, 1.0]]),        # non-finite coordinate
        np.zeros((4, 2)),                      # trailing size is not the dim
        np.zeros((2, 2, 3)),                   # not a list of points
    ])
    def test_bad_query_rejected(self, query):
        ens = ParticleEnsemble(np.random.default_rng(0).standard_normal((20, 3)))
        with pytest.raises(ParameterError, match="query"):
            prox_particle_score(ens, make_quadratic(1.0, 3), ProxParams(T=0.05), query)

    def test_isolated_query_in_last_block_detected(self, quad1d):
        ens = ParticleEnsemble(np.linspace(-0.1, 0.1, 30)[:, None])
        query = np.zeros((2 * SCORE_BLOCK + 3, 1))
        query[-1, 0] = 60.0
        prox_particle_score(ens, quad1d, ProxParams(T=0.01, beta=1.0), query[:-1])
        with pytest.raises(IsolatedParticleError, match=f"query {query.shape[0] - 1}:"):
            prox_particle_score(ens, quad1d, ProxParams(T=0.01, beta=1.0), query)

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


class TestFirstOrderExpansion:
    def test_zero_step_is_identity(self, axis_default, quad1d):
        rho0 = gaussian_grid(axis_default, var=4.0)
        out = first_order_expansion(rho0, quad1d, 1.0, 0.0)
        assert np.array_equal(out.values, rho0.values)

    def test_stationary_at_target(self, axis_default, quad1d):
        rs = target_density(quad1d, Grid((axis_default,)), 1.0)
        out = first_order_expansion(rs, quad1d, 1.0, 0.1)
        interior = slice(100, -100)
        assert np.max(np.abs(out.values - rs.values)[interior]) < 1e-5

    def test_identity_with_fp_rhs(self, axis_default, quad1d):
        rho0 = gaussian_grid(axis_default, var=4.0)
        t_step = 0.05
        out = first_order_expansion(rho0, quad1d, 1.0, t_step)
        ref = rho0.values + t_step * fp_rhs(rho0, quad1d, 1.0)
        interior = slice(50, -50)
        assert np.max(np.abs(out.values - ref)[interior]) < 1e-6

    def test_nonpositive_input_rejected(self, axis_default, quad1d):
        vals = np.exp(-axis_default**2)
        vals[0] = 0.0
        g = GridDensity(Grid((axis_default,)), vals)
        with pytest.raises(DegenerateDensityError):
            first_order_expansion(g, quad1d, 1.0, 0.1)


class TestOrderTwoConsistency:
    def test_error_slope_in_window(self, axis_default, quad1d):
        rho0 = gaussian_grid(axis_default, var=4.0)
        t_list = np.array([0.2, 0.1, 0.05, 0.025])
        errs = []
        for t_step in t_list:
            op = GridProxOperator(rho0.grid, quad1d, ProxParams(T=t_step, beta=1.0))
            rho_t, _ = op.step(rho0)
            foe = first_order_expansion(rho0, quad1d, 1.0, t_step)
            errs.append(np.max(np.abs(rho_t.values - foe.values)))
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


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_score_of_step_matches_step_and_gradient(dim):
    target = make_quadratic(1.0, dim)
    axes = tuple(uniform_axis(-6.0, 6.0, 33) for _ in range(dim))
    mesh = np.meshgrid(*axes, indexing="ij")
    rho0 = GridDensity(Grid(axes), np.exp(-sum((m - 0.5) ** 2 for m in mesh) / 4.0)).normalize()
    op = GridProxOperator(rho0.grid, target, ProxParams(T=0.2, beta=1.0))
    ref_t, ref_mass = op.step(rho0)
    assert ref_t.grid is op.grid
    # reference: grad rho_T = -beta*(grad V/2 + x/(2T)) rho_T + (beta/2T) e_V Blur[y_i rho0/D],
    # each field blurred on its own, divided by the mass
    beta, T = op.p.beta, op.p.T
    raw = op.e_v * op.apply_blur(rho0.values / op.denom)
    ratio = rho0.values / op.denom
    ref_grads = []
    for i, x_i in enumerate(op.grid.mesh):
        blurred = op.apply_blur(x_i * ratio)
        gi = (-beta * (op.grad_v[:, i].reshape(raw.shape) / 2
                       + x_i / (2 * T)) * raw
              + beta / (2 * T) * op.e_v * blurred)
        ref_grads.append(gi / ref_mass)
    blurs = []
    blur = op.apply_blur
    op.apply_blur = lambda vals: blurs.append(1) or blur(vals)
    rho_t, mass, score = op.score_of_step(rho0)
    # one blur of rho0/D shared by the output and the gradient, plus one per axis
    assert len(blurs) == dim + 1
    assert mass == ref_mass
    assert np.array_equal(rho_t.values, ref_t.values)
    for s, gr in zip(score, ref_grads):
        assert np.array_equal(s, gr / np.maximum(ref_t.values, LOG_FLOOR))


@pytest.mark.parametrize("n, beta, T", [(401, 1.0, 0.05), (400, 2.5, 0.05),
                                        (2401, 1.0, 0.05), (160, 0.7, 0.3)])
def test_blur_matrix_matches_direct_formula(n, beta, T):
    axis = uniform_axis(-12.0, 12.0, n)
    op = GridProxOperator(Grid((axis,)), make_quadratic(1.0, 1), ProxParams(T=T, beta=beta))
    ref = direct_blur_matrix(axis, beta, T)
    blur = op._blur_matrix(axis)
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
        dense = op._blur_matrix(axis_default) @ vals
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
        kern = op._toeplitz_kernel(axis)
        assert kern.shape == (2 * n - 1,)
        assert not np.any((kern > 0) & (kern < np.finfo(float).tiny))

    def test_weighted_matrix_has_no_subnormals(self):
        # here normal kernel entries times the trapezoid weights fall below tiny
        axis = uniform_axis(-12.0, 12.0, 161)
        op = GridProxOperator(Grid((axis, axis)), make_zero(2), ProxParams(T=0.29, beta=2.0))
        tiny = np.finfo(float).tiny
        rows = np.lib.stride_tricks.sliding_window_view(op._toeplitz_kernel(axis), 161)[::-1]
        weighted = rows * trapezoid_weights(axis)
        assert np.count_nonzero((weighted > 0) & (weighted < tiny)) == 52
        for blur in op._blur:
            assert not np.any((blur > 0) & (blur < tiny))

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
        for blur in op._blur:
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
