import tracemalloc

import numpy as np
import pytest

from brwplab.density import (KDE_BIN_SPACING, KDE_BLOCK, LOG_FLOOR, DiagnosticsReport, Grid,
                             GridDensity, ParticleEnsemble, _binned_kde, _kde_sums, divergences,
                             fisher_information, fourth_moment_m0, fp_rhs, kde, kl_divergence,
                             _extended_mass, grid_gradient, grid_quantiles,
                             silverman_bandwidth,
                             target_density, tv_distance, uniform_axis, w2_1d,
                             w2_grids_1d, W2_QUANTILES)
from brwplab.errors import (DegenerateDensityError, ParameterError,
                            TruncationError)
from brwplab.potentials import Potential, make_quadratic
from brwplab import density
from brwplab.cli import write_density_csv, write_run_csv
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
        pytest.param((np.linspace(1, 0, 5),), id="decreasing"),
        pytest.param((np.zeros(5),), id="constant"),
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

    @pytest.mark.parametrize("bandwidth", [np.nan, np.inf, [0.5, np.nan]])
    def test_nonfinite_bandwidth_rejected(self, bandwidth):
        pts = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(ParameterError, match="bandwidth must be positive and finite"):
            kde(ParticleEnsemble(pts), bandwidth, Grid.uniform(((-5, 5, 21),) * 2))

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
        """kde's direct sums against the exact-distance kernels, within 1e-12
        relative (1e-300 absolute where the kernels underflow): every axis takes
        its exponent from one GEMM of the expanded square. The 2401 and 4801
        rows are grids that kde itself would bin."""
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
        got = _kde_sums(ens.points, bw, grid).values
        assert np.all(np.abs(got - ref) <= 1e-12 * ref + 1e-300)

    def test_2d_kde_mass(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((200, 2))
        axes = (uniform_axis(-8, 8, 161), uniform_axis(-8, 8, 161))
        g = kde(ParticleEnsemble(pts), "auto", Grid(axes))
        assert g.mass() == pytest.approx(1.0, abs=1e-9)


def binned_kde_cloud(name: str, n: int = 500) -> np.ndarray:
    """n fixed 1-D points: N(0, 2), the mixture of N(+-2, 1), or N(0.3, 1)."""
    rng = np.random.default_rng(7)
    if name == "wide":
        return np.sqrt(2.0) * rng.standard_normal(n)
    if name == "mixture":
        return np.where(rng.random(n) < 0.5, -2.0, 2.0) + rng.standard_normal(n)
    return 0.3 + rng.standard_normal(n)


def wide_cloud(dim: int, n: int = 500) -> np.ndarray:
    """n fixed points of N(0, 2 I) in dim dimensions, the default initial law."""
    return np.sqrt(2.0) * np.random.default_rng(0).standard_normal((n, dim))


class TestKdeChoice:
    """kde bins exactly when the grid is 1-D, dx <= KDE_BIN_SPACING * b and
    every particle lies on the grid; otherwise it runs the direct sums."""

    def test_bins_at_the_spacing_limit_and_not_past_it(self):
        grid = Grid((uniform_axis(-12.0, 12.0, 241),))
        dx, ens = grid.spacing[0], ParticleEnsemble(wide_cloud(1))
        b = dx / KDE_BIN_SPACING
        while KDE_BIN_SPACING * b < dx:
            b = np.nextafter(b, np.inf)
        assert KDE_BIN_SPACING * b == dx
        assert np.array_equal(kde(ens, b, grid).values,
                              _binned_kde(ens.points[:, 0], b, grid).values)
        while KDE_BIN_SPACING * b >= dx:
            b = np.nextafter(b, 0.0)
        assert np.array_equal(kde(ens, b, grid).values,
                              _kde_sums(ens.points, np.array([b]), grid).values)

    @pytest.mark.parametrize("shape, off_grid", [((2401,), True), ((41,), False),
                                                 ((161, 161), False), ((41, 41, 41), False)],
                             ids=["2401-one-off-grid", "41", "161^2", "41^3"])
    def test_direct_sums_where_it_does_not_bin(self, shape, off_grid):
        # a particle just past the last node, a coarse 1-D grid, and d >= 2
        grid = Grid(tuple(uniform_axis(-12.0, 12.0, n) for n in shape))
        pts = wide_cloud(len(shape))
        if off_grid:
            pts[0, 0] = np.nextafter(12.0, np.inf)
        assert np.array_equal(kde(ParticleEnsemble(pts), "auto", grid).values,
                              _kde_sums(pts, silverman_bandwidth(pts), grid).values)


class TestBinnedKde:
    @pytest.mark.parametrize("cloud", ["wide", "mixture", "concentrated"])
    @pytest.mark.parametrize("half, n", [(12.0, 2401), (24.0, 4801), (12.0, None)],
                             ids=["2401", "4801-wide", "at-KDE_BIN_SPACING"])
    def test_matches_kde_within_the_binning_bound(self, cloud, half, n):
        """|binned - kde| / peak within (dx/b)^2 / 8, the leading term of a point
        midway between two nodes, on the default grids and where dx = KDE_BIN_SPACING * b."""
        x = binned_kde_cloud(cloud)
        b = float(silverman_bandwidth(x[:, None])[0])
        if n is None:
            n = int(np.ceil(2 * half / (KDE_BIN_SPACING * b))) + 1
        grid = Grid((uniform_axis(-half, half, n),))
        ratio = grid.spacing[0] / b
        assert ratio <= KDE_BIN_SPACING
        ref = _kde_sums(x[:, None], np.array([b]), grid).values
        got = _binned_kde(x, b, grid).values
        assert np.max(np.abs(got - ref)) <= ratio ** 2 / 8 * ref.max()

    @pytest.mark.parametrize("cloud", ["wide", "mixture", "concentrated"])
    def test_finite_nonnegative_unit_mass(self, cloud):
        grid = Grid((uniform_axis(-12.0, 12.0, 2401),))
        # points on both end nodes too: (12 - (-12)) / dx rounds above 2400
        x = np.concatenate((binned_kde_cloud(cloud), grid.axes[0][[0, -1]]))
        g = _binned_kde(x, float(silverman_bandwidth(x[:, None])[0]), grid)
        assert np.all(np.isfinite(g.values)) and np.all(g.values >= 0)
        assert g.mass() == pytest.approx(1.0, abs=1e-12)

    def test_point_cluster_on_a_node_reproduces_kernel(self):
        ax = uniform_axis(-10.0, 10.0, 2001)
        x0, bw = ax[1070], 0.8
        g = _binned_kde(np.full(50, x0), bw, Grid((ax,)))
        ref = np.exp(-(ax - x0) ** 2 / (2 * bw**2)) / (bw * np.sqrt(2 * np.pi))
        assert np.max(np.abs(g.values - ref)) < 1e-12


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
                        grid_gradient(target, g.grid), beta)
    assert fused == (kl_divergence(g, target, beta), fisher_information(g, target, beta),
                     fourth_moment_m0(g, target, beta), tv_distance(g, target, beta))


def test_each_density_is_logged_once(monkeypatch):
    # two diagnostics rows against one run-constant target: the row densities
    # and the target each take one log pass, shared by the KL and the score
    target = make_quadratic(1.0, 1)
    grid = Grid((uniform_axis(-8.0, 8.0, 241),))
    rs = target_density(target, grid, 1.0)
    grad = grid_gradient(target, grid)
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


@pytest.mark.parametrize("shape", [(2,), (3,), (241,), (2, 3), (3, 2), (61, 41),
                                   (2, 3, 2), (3, 3, 3), (25, 21, 23)])
def test_divergences_equal_plain_formulas_bit_for_bit(shape):
    # the row's formulas written out plainly, on the (N, d) gradient: the
    # central-difference score plus beta*d_i V, w*sq*g and w*sq*sq*g/beta^2,
    # the np.where KL and w*|g - rs|; cells at 0 and below LOG_FLOOR in both
    beta = 1.5
    rng = np.random.default_rng(7)
    grid = Grid(tuple(uniform_axis(-4.0, 4.0, n) for n in shape))
    target = make_quadratic(1.0, grid.dim)
    vals = rng.uniform(0.0, 1.0, shape)
    vals.flat[0] = 0.0
    vals.flat[-1] = 1e-305
    vals[rng.uniform(size=shape) < 0.1] = 0.0
    vals[rng.uniform(size=shape) < 0.1] = 1e-310
    g = GridDensity(grid, vals)
    ref = target_density(target, grid, beta, check_truncation=False).values.copy()
    ref.flat[1] = 0.0
    ref[rng.uniform(size=shape) < 0.1] = 1e-302
    rs = GridDensity(grid, ref)

    w, gv = grid.weights, target.grad_fn(grid.points)
    log_g, log_rs = (np.log(np.maximum(x, LOG_FLOOR)) for x in (g.values, rs.values))
    sq = np.zeros_like(g.values)
    for i, dx in enumerate(grid.spacing):
        s = np.gradient(log_g, dx, axis=i) + beta * gv[:, i].reshape(shape)
        sq += s * s
    integrand = np.where(g.values > 0, g.values * (log_g - log_rs), 0.0)
    plain = (float(np.sum(w * integrand)),
             float(np.sum(w * sq * g.values)),
             float(beta ** (-2) * np.sum(w * sq * sq * g.values)),
             float(np.sum(w * np.abs(g.values - rs.values))))
    assert np.all(np.isfinite(plain))
    row = divergences(g, rs, grid_gradient(target, grid), beta)
    assert [x.hex() for x in row] == [x.hex() for x in plain]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_gradient_is_per_axis_and_read_only(dim):
    grid = Grid(tuple(uniform_axis(-3.0, 3.0, n) for n in (5, 4, 3)[:dim]))
    target = make_quadratic(2.0, dim)
    gv = grid_gradient(target, grid)
    assert gv.shape == (dim,) + grid.shape
    assert gv.flags.c_contiguous and not gv.flags.writeable
    for i in range(dim):
        assert np.array_equal(gv[i], target.grad_fn(grid.points)[:, i].reshape(grid.shape))

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


def _central_one_sided(v, dx, axis):
    """(v[i+1] - v[i-1])/(2dx) inside, (v[1] - v[0])/dx and (v[-1] - v[-2])/dx at the ends."""
    v = np.moveaxis(v, axis, 0)
    g = np.empty_like(v)
    g[1:-1] = (v[2:] - v[:-2]) / (2 * dx)
    g[0] = (v[1] - v[0]) / dx
    g[-1] = (v[-1] - v[-2]) / dx
    return np.moveaxis(g, 0, axis)


def _random_density(shape, seed=0):
    axes = tuple(uniform_axis(-1.0 - i, 2.0 + i, n) for i, n in enumerate(shape))
    return GridDensity(Grid(axes), np.random.default_rng(seed).uniform(0.1, 2.0, shape))


def test_score_is_the_central_one_sided_difference():
    g = _random_density((5, 4, 2))
    for i, dx in enumerate(g.grid.spacing):
        ref = _central_one_sided(g.log_values, dx, i)
        assert np.array_equal(g.score()[i], ref)


def test_fp_rhs_is_the_central_one_sided_difference():
    # fp_rhs needs 5 points per axis; distinct sizes keep the axes apart
    g = _random_density((5, 6, 7))
    target, beta = make_quadratic(1.0, 3), 1.5
    gv = target.grad_fn(g.grid.points)
    ref = np.zeros(g.grid.shape)
    for i, dx in enumerate(g.grid.spacing):
        flux = g.values * gv[:, i].reshape(g.grid.shape) \
            + _central_one_sided(g.values, dx, i) / beta
        ref += _central_one_sided(flux, dx, i)
    assert np.array_equal(fp_rhs(g, target, beta), ref)


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
        write_density_csv(path, g)
        back = read_density_csv(path)
        assert np.array_equal(back.values, g.values)
        assert np.array_equal(back.grid.axes[0], g.grid.axes[0])

    def test_csv_roundtrip_2d(self, tmp_path):
        axes = (uniform_axis(-3, 3, 31), uniform_axis(-2, 2, 21))
        mesh = np.meshgrid(*axes, indexing="ij")
        g = GridDensity(Grid(axes), np.exp(-mesh[0] ** 2 - mesh[1] ** 2)).normalize()
        path = tmp_path / "dens2.csv"
        write_density_csv(path, g)
        back = read_density_csv(path)
        assert np.array_equal(back.values, g.values)

    def test_csv_roundtrip_3d(self, tmp_path):
        g = _random_density((7, 5, 3)).normalize()
        path = tmp_path / "dens3.csv"
        write_density_csv(path, g)
        back = read_density_csv(path)
        assert np.array_equal(back.values, g.values)
        assert all(np.array_equal(a, b) for a, b in zip(back.grid.axes, g.grid.axes))
        with open(tmp_path / "dens3.csv.json") as f:
            assert f.read() == (
                '{\n "axes": [\n  {\n   "hi": 2.0,\n   "lo": -1.0,\n   "n": 7\n  },\n'
                '  {\n   "hi": 3.0,\n   "lo": -2.0,\n   "n": 5\n  },\n'
                '  {\n   "hi": 4.0,\n   "lo": -3.0,\n   "n": 3\n  }\n ],\n'
                ' "csv": "dens3.csv",\n "log_floor": 1e-300,\n'
                ' "shape": [\n  7,\n  5,\n  3\n ]\n}\n')

    def test_diagnostics_csv_row(self, tmp_path):
        r = DiagnosticsReport(3, 0.5, 1.0, 2.0, 0.1, 0.2)
        write_run_csv(tmp_path / "run.csv", [r])
        header, row = (tmp_path / "run.csv").read_text().splitlines()
        assert header == "iter,kl,fisher,m0,tv,w2,kl_bound,wallclock_ms"
        assert row == "3,0.5,1.0,2.0,0.1,0.2,nan,0.0"
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
