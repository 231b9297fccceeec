import tracemalloc

import numpy as np
import pytest

from brwplab.density import (KDE_BLOCK, DiagnosticsReport, Grid, GridDensity,
                             ParticleEnsemble, divergences, fisher_information,
                             fourth_moment_m0, fp_rhs, kde, kl_divergence,
                             _extended_mass, grid_quantiles, silverman_bandwidth,
                             target_density, tv_distance, uniform_axis, w2_1d,
                             w2_grids_1d, W2_QUANTILES)
from brwplab.errors import (DegenerateDensityError, ParameterError,
                            TruncationError)
from brwplab.potentials import Potential, make_quadratic
from brwplab import density
from brwplab.samplers import SamplerConfig, evolve_law

from conftest import gaussian_grid, make_zero, read_density_csv


def gaussian_kl(sigma_sq, mu=0.0):
    """Closed-form KL( N(mu, sigma^2) || N(0,1) )."""
    return 0.5 * (sigma_sq - 1.0 - np.log(sigma_sq) + mu * mu)


class TestNormalize:
    def test_constant_density(self):
        ax = uniform_axis(0.0, 1.0, 11)
        g = GridDensity(Grid((ax,)), np.full(11, 2.0)).normalize()
        assert np.allclose(g.values, 1.0)
        assert g.mass() == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_matches_analytic_pdf(self):
        ax = uniform_axis(-8.0, 8.0, 1601)
        g = GridDensity(Grid((ax,)), np.exp(-ax**2 / 2)).normalize()
        ref = np.exp(-ax**2 / 2) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(g.values - ref)) < 1e-6

    def test_zero_mass_raises(self):
        ax = uniform_axis(0.0, 1.0, 11)
        with pytest.raises(DegenerateDensityError):
            GridDensity(Grid((ax,)), np.zeros(11)).normalize()

    def test_negative_values_rejected(self):
        ax = uniform_axis(0.0, 1.0, 11)
        with pytest.raises(DegenerateDensityError):
            GridDensity(Grid((ax,)), np.linspace(-1, 1, 11))


class TestGrid:
    @pytest.mark.parametrize("axes", [
        pytest.param((np.array([0.0, 1.0, 3.0]),), id="non-uniform"),
        pytest.param((), id="0-axes"),
        pytest.param((np.linspace(0, 1, 5),) * 4, id="4-axes"),
        pytest.param((np.linspace(0, 1, 5), np.array([0.5])), id="1-point-axis"),
        pytest.param((np.zeros((2, 2)),), id="2-d-axis"),
    ])
    def test_bad_axes_rejected(self, axes):
        with pytest.raises(ParameterError):
            Grid(axes)

    def test_layout_matches_meshgrid(self):
        grid = Grid.uniform(((-1.0, 1.0, 5), (0.0, 2.0, 3), (-3.0, 3.0, 4)))
        mesh = np.meshgrid(*grid.axes, indexing="ij")
        assert grid.shape == (5, 3, 4) and grid.dim == 3
        assert np.array_equal(grid.points, np.stack([m.reshape(-1) for m in mesh], axis=1))
        for i in range(grid.dim):
            assert np.array_equal(grid.mesh[i], mesh[i])
            assert np.shares_memory(grid.mesh[i], grid.points)
        assert grid.weights is grid.weights and grid.points is grid.points
        assert [ax.size for ax in grid] == [5, 3, 4]


class TestKde:
    def test_point_cluster_reproduces_kernel(self):
        ax = uniform_axis(-10.0, 10.0, 2001)
        pts = np.full((50, 1), 0.7)
        bw = 0.8
        g = kde(ParticleEnsemble(pts), bw, Grid((ax,)))
        ref = np.exp(-(ax - 0.7) ** 2 / (2 * bw**2)) / (bw * np.sqrt(2 * np.pi))
        assert np.max(np.abs(g.values - ref)) < 1e-8

    def test_silverman_rule_exact(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((1000, 1))
        expected = (4.0 / (3.0 * 1000)) ** 0.2 * pts.std(ddof=1)
        assert silverman_bandwidth(pts)[0] == pytest.approx(expected, rel=1e-14)

    def test_single_particle_rejected(self):
        with pytest.raises(ParameterError):
            ParticleEnsemble(np.zeros((1, 1)))

    def test_bad_bandwidth_rejected(self):
        pts = np.random.default_rng(0).standard_normal((10, 1))
        with pytest.raises(ParameterError):
            kde(ParticleEnsemble(pts), -0.5, Grid((uniform_axis(-5, 5, 101),)))

    @pytest.mark.parametrize("dim, n, half, bandwidth", [
        pytest.param(1, KDE_BLOCK - 1, 8.0, "auto", id="1-127"),
        pytest.param(1, KDE_BLOCK, 8.0, "auto", id="1-128"),
        pytest.param(1, 2 * KDE_BLOCK + 1, 8.0, "auto", id="1-257"),
        pytest.param(1, 2401, 8.0, "auto", id="1-2401"),
        pytest.param(1, 4801, 24.0, "auto", id="1-4801-wide"),
        pytest.param(2, 161, 8.0, "auto", id="2-161"),
        pytest.param(3, 41, 8.0, "auto", id="3-41"),
        # a different bandwidth per axis: each axis must use its own
        pytest.param(2, 161, 12.0, (0.3, 0.8), id="2-161-per-axis"),
        pytest.param(3, 41, 12.0, (0.5, 0.9, 1.4), id="3-41-per-axis")])
    def test_in_place_kernels_bit_identical(self, dim, n, half, bandwidth):
        """kde against the exact-distance kernels, within 1e-12 relative
        (1e-300 absolute where the kernels underflow): every axis takes its
        exponent from one GEMM of the expanded square."""
        rng = np.random.default_rng(dim)
        ens = ParticleEnsemble(rng.standard_normal((300, dim)) * 1.3)
        axes = tuple(uniform_axis(-half, half, n) for _ in range(dim))
        grid = Grid(axes)
        bw = (silverman_bandwidth(ens.points) if bandwidth == "auto"
              else np.asarray(bandwidth))
        kernels = [np.exp(-(axes[i][:, None] - ens.points[None, :, i]) ** 2
                          / (2 * bw[i] ** 2)) / (bw[i] * np.sqrt(2 * np.pi))
                   for i in range(dim)]
        spec = ("aj->a", "aj,bj->ab", "aj,bj,cj->abc")[dim - 1]
        ref = GridDensity(grid, np.einsum(spec, *kernels) / ens.n).normalize().values
        got = kde(ens, bandwidth, grid).values
        assert np.all(np.abs(got - ref) <= 1e-12 * ref + 1e-300)

    def test_2d_kde_mass(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((200, 2))
        axes = (uniform_axis(-8, 8, 161), uniform_axis(-8, 8, 161))
        g = kde(ParticleEnsemble(pts), "auto", Grid(axes))
        assert g.mass() == pytest.approx(1.0, abs=1e-9)


class TestKl:
    def test_zero_at_target(self, axis_default, quad1d):
        rs = target_density(quad1d, Grid((axis_default,)), 1.0)
        assert abs(kl_divergence(rs, quad1d, 1.0)) < 1e-10

    def test_gaussian_closed_form_variance(self, axis_default, quad1d):
        g = gaussian_grid(axis_default, var=2.0)
        assert kl_divergence(g, quad1d, 1.0) == pytest.approx(
            gaussian_kl(2.0), abs=1e-6)

    def test_gaussian_closed_form_mean_shift(self, axis_default, quad1d):
        g = gaussian_grid(axis_default, mean=1.0, var=1.0)
        assert kl_divergence(g, quad1d, 1.0) == pytest.approx(0.5, abs=1e-6)

    def test_estimator_consistency_sweep(self, quad1d):
        ax = uniform_axis(-10.0, 10.0, 1601)
        for var in (0.5, 0.8, 1.5, 3.0):
            g = gaussian_grid(ax, var=var)
            assert kl_divergence(g, quad1d, 1.0) == pytest.approx(
                gaussian_kl(var), abs=1e-6)

    def test_truncated_grid_refused(self, quad1d):
        ax = uniform_axis(-2.0, 2.0, 101)
        g = gaussian_grid(ax, var=1.0)
        with pytest.raises(TruncationError):
            kl_divergence(g, quad1d, 1.0)


class TestTruncationCheck:
    """The widened-grid mass, summed slab by slab under the grid's own normalization."""

    @staticmethod
    def well(depth):
        # x^2/2 with a narrow well of this depth at x = 15: off the +-12 grid,
        # inside its +-18 widening
        def eval_fn(x):
            return x[:, 0] ** 2 / 2 - depth * np.exp(-(x[:, 0] - 15) ** 2 / (2 * 0.05**2))
        return Potential(dim=1, eval_fn=eval_fn, grad_fn=np.zeros_like)

    @pytest.mark.parametrize("depth", [200.0, 1000.0])
    def test_mass_below_the_grid_minimum_refused(self, axis_default, depth):
        # the widened mass taken under its own minimum read as 0.4% of the
        # grid's mass, so the check passed; at depth 1000 exp overflows
        with pytest.raises(TruncationError):
            target_density(self.well(depth), Grid((axis_default,)), 1.0)

    @pytest.mark.parametrize("dim, n", [(1, 241), (2, 61), (3, 25)])
    def test_slab_sum_equals_whole_widened_grid(self, dim, n):
        grid = Grid((uniform_axis(-6.0, 6.0, n),) * dim)
        target = make_quadratic(1.0, dim)
        ext = Grid(tuple(uniform_axis(-9.0, 9.0, n + 2 * (n - 1) // 4) for _ in range(dim)))
        whole = np.sum(ext.weights * np.exp(-1.5 * target.eval_fn(ext.points)).reshape(ext.shape))
        assert _extended_mass(target, grid, 1.5, 0.0) == pytest.approx(whole, rel=1e-12)

    def test_check_holds_no_widened_grid(self):
        # the successive_3d grid: the whole 61^3 widened grid once peaked at 14.6 MB
        grid = Grid((uniform_axis(-12.0, 12.0, 41),) * 3)
        target = make_quadratic(1.0, 3)
        peaks = []
        for check in (False, True):
            tracemalloc.start()
            try:
                target_density(target, grid, 1.0, check_truncation=check)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1e6


@pytest.mark.parametrize("dim, n", [(1, 241), (2, 61), (3, 25)])
def test_fused_divergences_equal_standalone(dim, n):
    beta = 1.5
    target = make_quadratic(1.0, dim)
    axes = tuple(uniform_axis(-8.0, 8.0, n) for _ in range(dim))
    mesh = np.meshgrid(*axes, indexing="ij")
    vals = np.exp(-sum((m - 0.3) ** 2 for m in mesh) / 3.0)
    vals[vals < 1e-6] = 0.0
    g = GridDensity(Grid(axes), vals).normalize()
    assert np.any(g.values == 0.0)
    fused = divergences(g, target_density(target, g.grid, beta),
                        target.grad_fn(g.grid.points), beta)
    assert fused == (kl_divergence(g, target, beta), fisher_information(g, target, beta),
                     fourth_moment_m0(g, target, beta), tv_distance(g, target, beta))


def test_each_density_is_logged_once(monkeypatch):
    # two diagnostics rows against one run-constant target: the row densities
    # and the target each take one log pass, shared by the KL and the score
    target = make_quadratic(1.0, 1)
    grid = Grid((uniform_axis(-8.0, 8.0, 241),))
    rs = target_density(target, grid, 1.0)
    grad = target.grad_fn(grid.points)
    rows = [gaussian_grid(grid.axes[0], var=v) for v in (1.5, 2.0)]
    real_log, passes = np.log, []

    def counting_log(x, *args, **kwargs):
        if np.shape(x) == grid.shape:
            passes.append(x)
        return real_log(x, *args, **kwargs)
    monkeypatch.setattr(np, "log", counting_log)
    first = [divergences(g, rs, grad, 1.0) for g in rows]
    assert len(passes) == 3
    assert [divergences(g, rs, grad, 1.0) for g in rows] == first
    assert len(passes) == 3

class TestFisher:
    def test_zero_at_target(self, axis_default, quad1d):
        rs = target_density(quad1d, Grid((axis_default,)), 1.0)
        assert abs(fisher_information(rs, quad1d, 1.0)) < 1e-8

    def test_gaussian_closed_form(self, axis_default, quad1d):
        # I(N(0,s)||N(0,1)) = (s-1)^2/s  -> 0.5 at s = 2
        g = gaussian_grid(axis_default, var=2.0)
        assert fisher_information(g, quad1d, 1.0) == pytest.approx(0.5, rel=1e-4)

    def test_pl_inequality_random_gaussians(self, axis_default):
        alpha, beta = 1.0, 1.0
        target = make_quadratic(alpha, 1)
        rng = np.random.default_rng(7)
        for _ in range(20):
            var = rng.uniform(0.4, 3.0)
            mu = rng.uniform(-1.5, 1.5)
            g = gaussian_grid(axis_default, mean=mu, var=var)
            kl = kl_divergence(g, target, beta)
            fi = fisher_information(g, target, beta)
            assert fi >= 2 * beta * alpha * kl - 1e-6


class TestFourthMoment:
    def test_zero_at_target(self, axis_default, quad1d):
        rs = target_density(quad1d, Grid((axis_default,)), 1.0)
        assert fourth_moment_m0(rs, quad1d, 1.0) < 1e-8

    def test_gaussian_quadrature_oracle(self, axis_default, quad1d):
        # oracle: beta^-2 * Int (x/2)^4 N(0,2) dx on an independent fine grid
        xo = np.linspace(-14, 14, 20001)
        pdf = np.exp(-xo**2 / 4) / np.sqrt(4 * np.pi)
        trapezoid = getattr(np, "trapezoid", getattr(np, "trapz", None))
        oracle = trapezoid((xo / 2) ** 4 * pdf, xo)
        g = gaussian_grid(axis_default, var=2.0)
        assert fourth_moment_m0(g, quad1d, 1.0) == pytest.approx(oracle, rel=1e-4)
        assert oracle == pytest.approx(0.75, rel=1e-8)

    def test_jensen_lower_bound(self, axis_default, quad1d):
        # m0 >= fisher^2 for unit-mass densities (Cauchy-Schwarz/Jensen)
        for var in (0.6, 1.7, 2.5):
            g = gaussian_grid(axis_default, var=var)
            fi = fisher_information(g, quad1d, 1.0)
            m0 = fourth_moment_m0(g, quad1d, 1.0)
            assert m0 >= fi**2 - 1e-10


class TestTvW2:
    def test_tv_zero_at_target(self, axis_default, quad1d):
        rs = target_density(quad1d, Grid((axis_default,)), 1.0)
        assert tv_distance(rs, quad1d, 1.0) < 1e-10

    def test_tv_range(self, axis_default, quad1d):
        g = gaussian_grid(axis_default, mean=6.0, var=0.05)
        tv = tv_distance(g, quad1d, 1.0)
        assert 0.0 <= tv <= 2.0 + 1e-8
        assert tv > 1.9  # essentially disjoint supports

    def test_w2_identical(self):
        s = np.sort(np.random.default_rng(0).standard_normal(100))
        assert w2_1d(s, s) == 0.0

    def test_w2_unit_shift(self):
        assert w2_1d(np.array([0.0, 1.0]), np.array([1.0, 2.0])) == 1.0

    def test_w2_unsorted_rejected(self):
        with pytest.raises(ParameterError):
            w2_1d(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_w2_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            w2_1d(np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]))


class TestW2Quantiles:
    """w2_grids_1d couples cached, sorted midpoint quantiles of both densities."""

    def test_equals_explicit_quantiles(self, axis_default, quad1d):
        rs = target_density(quad1d, Grid((axis_default,)), 1.0)
        probs = (np.arange(W2_QUANTILES) + 0.5) / W2_QUANTILES
        for g in (gaussian_grid(axis_default, mean=0.7, var=2.0),
                  gaussian_grid(axis_default, mean=-3.0, var=0.1)):
            ref = w2_1d(np.sort(grid_quantiles(g, probs)), np.sort(grid_quantiles(rs, probs)))
            assert w2_grids_1d(g, rs) == ref
            assert w2_grids_1d(g, rs) == ref       # from the cache

    def test_target_quantiles_taken_once_per_run(self, monkeypatch):
        # n steps give n + 1 rows: one quantile pass per row, plus one for the target
        real, calls = density.grid_quantiles, []

        def counting(g, probs):
            calls.append(g)
            return real(g, probs)
        monkeypatch.setattr(density, "grid_quantiles", counting)
        n = 4
        trace = evolve_law(SamplerConfig(h=0.2, n_steps=n, grid=((-8.0, 8.0, 321),)),
                           make_quadratic(1.0, 1))
        assert len(trace.reports) == n + 1
        assert len(calls) == n + 2


class TestFpRhs:
    def test_stationary_at_target(self, quad1d):
        ax = uniform_axis(-8.0, 8.0, 1601)
        rs = target_density(quad1d, Grid((ax,)), 1.0)
        rhs = fp_rhs(rs, quad1d, 1.0)
        assert np.max(np.abs(rhs)) <= 1e-4

    def test_pure_diffusion_matches_second_derivative(self):
        ax = uniform_axis(-10.0, 10.0, 4001)
        g = gaussian_grid(ax, var=1.0)
        rhs = fp_rhs(g, make_zero(1), 1.0)
        pdf = np.exp(-ax**2 / 2) / np.sqrt(2 * np.pi)
        second = pdf * (ax**2 - 1.0)
        assert np.max(np.abs(rhs - second)) < 1e-5

    def test_mass_conservation(self, axis_default, quad1d):
        g = gaussian_grid(axis_default, var=2.0)
        rhs = fp_rhs(g, quad1d, 1.0)
        assert abs(np.sum(g.grid.weights * rhs)) < 1e-6

def test_fp_rhs_needs_five_points(quad1d):
    ax = uniform_axis(-8.0, 8.0, 4)
    g = GridDensity(Grid((ax,)), np.ones(4)).normalize()
    with pytest.raises(ParameterError):
        fp_rhs(g, quad1d, 1.0)


def test_kl_decreases_along_fp_flow(axis_default, quad1d):
    """Forward-Euler integration of the FP right side dissipates KL at rate I/beta."""
    beta, dt = 1.0, 1e-4
    g = gaussian_grid(axis_default, var=2.0)
    prev_kl = kl_divergence(g, quad1d, beta)
    for _ in range(5):
        fi = fisher_information(g, quad1d, beta)
        g = GridDensity(g.grid, np.maximum(g.values + dt * fp_rhs(g, quad1d, beta),
                                           0.0)).normalize()
        kl = kl_divergence(g, quad1d, beta)
        assert kl < prev_kl
        rate = (prev_kl - kl) / dt
        assert rate == pytest.approx(fi / beta, rel=0.05)
        prev_kl = kl


class TestSerialization:
    def test_csv_roundtrip_1d(self, tmp_path, axis_default):
        g = gaussian_grid(axis_default, var=1.3)
        path = tmp_path / "dens.csv"
        g.to_csv(path)
        back = read_density_csv(path)
        assert np.array_equal(back.values, g.values)
        assert np.array_equal(back.grid.axes[0], g.grid.axes[0])

    def test_csv_roundtrip_2d(self, tmp_path):
        axes = (uniform_axis(-3, 3, 31), uniform_axis(-2, 2, 21))
        mesh = np.meshgrid(*axes, indexing="ij")
        g = GridDensity(Grid(axes), np.exp(-mesh[0] ** 2 - mesh[1] ** 2)).normalize()
        path = tmp_path / "dens2.csv"
        g.to_csv(path)
        back = read_density_csv(path)
        assert np.array_equal(back.values, g.values)

    def test_diagnostics_csv_row(self):
        r = DiagnosticsReport(3, 0.5, 1.0, 2.0, 0.1, 0.2)
        row = r.csv_row()
        assert row.split(",")[0] == "3"
        assert row.split(",")[1] == "0.5"
        assert "nan" in row  # default kl_bound


def test_marginal_first_2d():
    axes = (uniform_axis(-6, 6, 121), uniform_axis(-6, 6, 121))
    mesh = np.meshgrid(*axes, indexing="ij")
    vals = np.exp(-((mesh[0] - 1) ** 2) / 2 - mesh[1] ** 2 / 4)
    g = GridDensity(Grid(axes), vals).normalize()
    marg = g.marginal_first()
    ref = np.exp(-((axes[0] - 1) ** 2) / 2) / np.sqrt(2 * np.pi)
    assert np.max(np.abs(marg.values - ref)) < 1e-6
