import dataclasses
import math
import warnings

import numpy as np
import pytest

from brwplab.cli import DEFAULTS, grid_spec
from brwplab.density import (Grid, ParticleEnsemble, _binned_kde, kde, kl_divergence,
                             relative_entropy, target_density, uniform_axis)
from brwplab.errors import EvaluationError, ParameterError
from brwplab.potentials import (make_gaussian_mixture, make_nonsmooth_mixture,
                                make_quadratic)
from brwplab.samplers import (DensityState, SamplerConfig, _grid_kde, brwp_step,
                              evolve_law, explicit_flow_step, initial_ensemble,
                              initial_grid_density, interp_at, marginal_target, run,
                              ula_step)

from conftest import gaussian_grid, prox_variance_oracle, report_text


class ZeroNoise:
    """rng stub for drift-only checks."""

    def standard_normal(self, shape):
        return np.zeros(shape)


class TestUlaStep:
    def test_drift_only_contraction(self, quad1d):
        ens = ParticleEnsemble(np.array([[1.0], [2.0]]))
        out = ula_step(ens, quad1d, 0.1, 1.0, ZeroNoise())
        assert np.allclose(out.points[:, 0], [0.9, 1.8])

    def test_pure_noise_variance(self, zero1d):
        rng = np.random.default_rng(0)
        ens = ParticleEnsemble(np.zeros((200_000, 1)))
        out = ula_step(ens, zero1d, 1.0, 2.0, rng)
        # variance 2*h/beta = 1
        assert out.points.var() == pytest.approx(1.0, abs=0.02)

    def test_stationary_variance_matches_ar1_oracle(self, quad1d):
        # oracle: var = 2*h/beta / (1 - (1 - h*alpha)^2) = 1.0256410... at h=0.05
        h, n = 0.05, 5000
        oracle = 2 * h / (1 - (1 - h) ** 2)
        assert oracle == pytest.approx(1.0256410256410258, rel=1e-12)
        rng = np.random.default_rng(11)
        ens = ParticleEnsemble(np.sqrt(2.0) * rng.standard_normal((n, 1)))
        acc = []
        for k in range(2000):
            ens = ula_step(ens, quad1d, h, 1.0, rng)
            if k >= 1500:
                acc.append(ens.points.var())
        assert np.mean(acc) == pytest.approx(oracle, abs=0.02)

    def test_bad_stepsize(self, quad1d):
        ens = ParticleEnsemble(np.zeros((4, 1)))
        with pytest.raises(ParameterError):
            ula_step(ens, quad1d, 0.0, 1.0, ZeroNoise())


class TestInterpolation:
    def test_multilinear_exact_on_linear_field(self):
        axes = (uniform_axis(-2, 2, 41), uniform_axis(-3, 3, 61))
        mesh = np.meshgrid(*axes, indexing="ij")
        field = 2.0 * mesh[0] - 0.5 * mesh[1] + 1.0
        pts = np.random.default_rng(0).uniform(-1.5, 1.5, (50, 2))
        vals, clamped = interp_at(axes, [field], pts)
        assert clamped == 0
        assert np.allclose(vals[:, 0], 2 * pts[:, 0] - 0.5 * pts[:, 1] + 1.0, atol=1e-12)

    # the edge's t is 20000 + 2e-9, so it counts as clamped
    @pytest.mark.parametrize("x, clamped", [(8.0, 1), (9.0, 1), (-9.0, 1), (7.9996, 0)])
    def test_past_16384_points_the_edge_cells_hold(self, x, clamped):
        # a.size - 1 - 1e-12 rounds to a.size - 1 here; the last cell is still the one read
        a = uniform_axis(-8.0, 8.0, 20001)
        vals, n_clamped = interp_at((a,), [2.0 * a + 1.0], np.array([[x]]))
        assert vals[0, 0] == pytest.approx(2.0 * np.clip(x, -8.0, 8.0) + 1.0, rel=1e-12)
        assert n_clamped == clamped

    def test_one_clamped_particle_warns_with_the_count(self, quad1d):
        cfg = SamplerConfig(method="brwp_successive", h=0.02, n_particles=200,
                            n_steps=1, grid=((-12.0, 12.0, 2401),))
        pts = np.random.default_rng(0).standard_normal((200, 1))
        pts[7, 0] = 50.0  # 0.5% outside the grid
        grid = Grid.uniform(cfg.grid)
        state = DensityState(grid, chain=initial_grid_density(cfg, grid))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = brwp_step(ParticleEnsemble(pts), quad1d, cfg, state)
        assert [str(w.message) for w in caught if "clamped" in str(w.message)] == [
            "1 particle(s) clamped to the score grid edge"]
        assert np.all(np.isfinite(out.points))

    def test_excessive_clamping_aborts(self, quad1d):
        cfg = SamplerConfig(method="brwp_successive", h=0.02, n_particles=50,
                            n_steps=1, grid=((-12.0, 12.0, 2401),))
        pts = np.zeros((50, 1))
        pts[:3, 0] = 50.0  # 6% outside the grid
        grid = Grid.uniform(cfg.grid)
        state = DensityState(grid, chain=initial_grid_density(cfg, grid))
        with pytest.raises(EvaluationError):
            brwp_step(ParticleEnsemble(pts), quad1d, cfg, state)


class TestBrwpStepRefusals:
    def test_successive_state_without_chain(self, quad1d):
        cfg = SamplerConfig(method="brwp_successive", n_particles=10, n_steps=1)
        state = DensityState(Grid.uniform(cfg.grid))
        with pytest.raises(ParameterError, match="successive mode needs an initial chain"):
            brwp_step(ParticleEnsemble(np.zeros((10, 1))), quad1d, cfg, state)

    def test_ula_config(self, quad1d):
        cfg = SamplerConfig(method="ula", n_particles=10, n_steps=1)
        state = DensityState(Grid.uniform(cfg.grid))
        with pytest.raises(ParameterError, match="brwp_step cannot run method 'ula'"):
            brwp_step(ParticleEnsemble(np.zeros((10, 1))), quad1d, cfg, state)


class TestSuccessiveMode:
    def test_variance_trajectory_matches_scalar_oracle(self, quad1d):
        h = 0.05
        n = 4000
        cfg = SamplerConfig(method="brwp_successive", h=h, n_particles=n,
                            n_steps=0, seed=3, init_sigma_sq=4.0)
        rng = np.random.default_rng(3)
        pts = 2.0 * rng.standard_normal((n, 1))
        ens = ParticleEnsemble(pts)
        grid = Grid.uniform(cfg.grid)
        state = DensityState(grid, chain=gaussian_grid(grid.axes[0], var=4.0))
        v = 4.0
        w_oracle = 4.0
        for _ in range(50):
            v = prox_variance_oracle(v, 1.0, 1.0, h)
            w_oracle *= (1.0 - h * (1.0 - 1.0 / v)) ** 2
            ens = brwp_step(ens, quad1d, cfg, state)
            assert ens.points.var() == pytest.approx(w_oracle, rel=0.05)

    def test_stationary_start_tiny_displacement(self, quad1d):
        h = 0.02
        cfg = SamplerConfig(method="brwp_successive", h=h, n_particles=500,
                            n_steps=1, seed=5)
        grid = Grid.uniform(cfg.grid)
        rs = target_density(quad1d, grid, 1.0)
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((500, 1))
        ens = ParticleEnsemble(pts)
        out = brwp_step(ens, quad1d, cfg, DensityState(grid, chain=rs))
        displacement = np.mean(np.abs(out.points - ens.points))
        assert displacement <= 2e-2 * h

    def test_chain_kl_strictly_decreasing_100_steps(self, quad1d):
        cfg = SamplerConfig(method="brwp_successive", h=0.05, n_particles=100,
                            n_steps=100, seed=0, diag_every=1)
        result = run(cfg, quad1d)
        kls = [r.kl for r in result.reports]
        assert all(b < a for a, b in zip(kls[:100], kls[1:101]))

    @pytest.mark.parametrize("m0", [0.0, 1.0])
    @pytest.mark.parametrize("dim, n, rtol", [(1, 2401, 1e-10), (2, 161, 1e-10),
                                              (3, 41, None)])
    def test_chain_rows_follow_the_gaussian_closed_form(self, dim, n, rtol, m0):
        """Quadratic V, alpha = beta = 1, h = T = 0.05, rho0 = N(m0, 2) on every
        axis: the chain is N(m, v) per axis, with v' the Prox_T variance and
        m' = m/(1 + T), so KL = (d/2)(v - 1 - log v + m^2) and
        Fisher = d((v - 1)^2/v + m^2). The 41^3 rows (its spacing 0.6 exceeds
        the blur's width sqrt(2T) = 0.32, so the step is not resolved) and W2
        (its 512-level quantile rule) are printed, not gated."""
        T = 0.05
        cfg = SamplerConfig(method="brwp_successive", h=T, n_steps=10, init_mean=m0,
                            grid=((-12.0, 12.0, n),) * dim)
        reports = run(cfg, make_quadratic(1.0, dim)).reports
        assert [r.iter for r in reports] == list(range(11))
        v, m = 2.0, m0
        for r in reports:
            kl = dim / 2 * (v - 1 - math.log(v) + m * m)
            fisher = dim * ((v - 1) ** 2 / v + m * m)
            errs = abs(r.kl - kl) / kl, abs(r.fisher - fisher) / fisher
            w2 = math.hypot(m, math.sqrt(v) - 1)    # first axis, against N(0, 1)
            print(f"d={dim} m0={m0} iter={r.iter}: kl rel err {errs[0]:.2e}, "
                  f"fisher rel err {errs[1]:.2e}, w2 abs err {abs(r.w2 - w2):.2e}")
            if rtol is not None:
                assert max(errs) <= rtol, (r.iter, r.kl, kl, r.fisher, fisher)
            v, m = prox_variance_oracle(v, 1.0, 1.0, T), m / (1 + T)

    def test_needs_grid_dim(self):
        target = make_quadratic(1.0, 5)
        cfg = SamplerConfig(method="brwp_successive", n_steps=1)
        with pytest.raises(ParameterError):
            run(cfg, target)

    def test_target_dim_must_match_grid_dim(self):
        # a 2-D target on the default 1-D grid, caught before the first row
        cfg = SamplerConfig(method="brwp_successive", n_steps=0)
        with pytest.raises(ParameterError, match="target dim 2, grid dim 1"):
            run(cfg, make_quadratic(1.0, 2))


class TestRun:
    def test_zero_steps_single_row(self, quad1d):
        cfg = SamplerConfig(method="ula", n_steps=0, n_particles=100, seed=1)
        result = run(cfg, quad1d)
        assert len(result.reports) == 1
        assert result.reports[0].iter == 0

    def test_ula_rerun_identical(self, quad1d):
        cfg = SamplerConfig(method="ula", h=0.05, n_steps=20, n_particles=300,
                            seed=42, diag_every=5)
        rows_a = [report_text(r) for r in run(cfg, quad1d).reports]
        rows_b = [report_text(r) for r in run(cfg, quad1d).reports]
        assert rows_a == rows_b

    def test_brwp_rerun_identical(self, quad1d):
        cfg = SamplerConfig(method="brwp_successive", h=0.05, n_steps=10,
                            n_particles=200, seed=7, diag_every=5)
        rows_a = [report_text(r) for r in run(cfg, quad1d).reports]
        rows_b = [report_text(r) for r in run(cfg, quad1d).reports]
        assert rows_a == rows_b

    def test_kl_bound_column_present_when_alpha_known(self, quad1d):
        cfg = SamplerConfig(method="brwp_successive", h=0.05, n_steps=5,
                            n_particles=100, seed=0)
        result = run(cfg, quad1d)
        assert all(np.isfinite(r.kl_bound) for r in result.reports)

    def test_kl_bound_nan_when_alpha_unknown(self, mix1d):
        cfg = SamplerConfig(method="brwp_successive", h=0.02, n_steps=2,
                            n_particles=100, seed=0)
        result = run(cfg, mix1d)
        assert all(np.isnan(r.kl_bound) for r in result.reports)

    def test_large_step_warns(self):
        target = make_quadratic(1.0, 1)
        cfg = SamplerConfig(method="ula", h=0.9, n_steps=1, n_particles=50, seed=0)
        with pytest.warns(UserWarning, match="maximum stable stepsize"):
            run(cfg, target)

    def test_t_larger_than_h_rejected(self):
        with pytest.raises(ParameterError):
            SamplerConfig(method="brwp_successive", h=0.02, T=0.05)

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError):
            SamplerConfig(method="hamiltonian")

    @pytest.mark.parametrize("key", ["beta", "init_sigma_sq"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_nonpositive_beta_and_init_variance_rejected(self, key, value):
        with pytest.raises(ParameterError, match=f"{key}={value}"):
            SamplerConfig(method="ula", **{key: value})


class TestPerRunCaching:
    def test_kde_reuse_matches_fresh_kde(self, mix1d):
        cfg = SamplerConfig(method="brwp_kde", h=0.05, n_steps=6, n_particles=200, seed=3)
        every = run(dataclasses.replace(cfg, diag_every=1), mix1d)
        sparse = run(dataclasses.replace(cfg, diag_every=3), mix1d)
        assert [r.iter for r in sparse.reports] == [0, 3, 6]
        assert [report_text(r) for r in sparse.reports] == \
            [report_text(every.reports[k]) for k in (0, 3, 6)]
        # reference: each step gets a state with no KDE to reuse
        ens = initial_ensemble(cfg, 1, np.random.default_rng(cfg.seed))
        grid = Grid.uniform(cfg.grid)
        op = None
        for _ in range(cfg.n_steps):
            state = DensityState(grid, operator=op)
            ens = brwp_step(ens, mix1d, cfg, state)
            op = state.operator
        assert np.array_equal(ens.points, every.ensemble.points)
        assert np.array_equal(ens.points, sparse.ensemble.points)

    def test_target_built_once_per_run(self, quad1d, monkeypatch):
        import brwplab.samplers as samplers
        calls = []
        real = samplers.target_density
        monkeypatch.setattr(samplers, "target_density",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))

        def builds(fn, method, n_steps):
            calls.clear()
            fn(SamplerConfig(method=method, n_steps=n_steps, n_particles=100, seed=0),
               quad1d)
            return len(calls)

        # on a 1-D grid the truncation-checked target is also the W2 reference
        for fn, method in ((run, "brwp_successive"), (run, "brwp_kde"),
                           (evolve_law, "brwp_successive")):
            assert builds(fn, method, 2) == builds(fn, method, 6) == 1

    @pytest.mark.parametrize("method", ["brwp_kde", "brwp_successive"])
    @pytest.mark.parametrize("grid", [((-12.0, 12.0, 2401),), ((-8.0, 8.0, 41),) * 2])
    def test_diagnostics_reuse_operator_grad_v(self, method, grid):
        # grad V on the grid comes from the operator alone; particles are off the grid
        target = make_quadratic(1.0, len(grid))
        cfg = SamplerConfig(method=method, n_steps=3, n_particles=100, seed=0, grid=grid)
        sizes = []
        counted = dataclasses.replace(
            target, grad_fn=lambda x: sizes.append(x.shape[0]) or target.grad_fn(x))
        rows = [report_text(r) for r in run(cfg, counted).reports]
        assert sizes.count(Grid.uniform(grid).points.shape[0]) == 1
        assert rows == [report_text(r) for r in run(cfg, target).reports]

    def test_law_reuses_operator_grad_v(self, quad1d):
        sizes = []
        counted = dataclasses.replace(
            quad1d, grad_fn=lambda x: sizes.append(x.shape[0]) or quad1d.grad_fn(x))
        cfg = SamplerConfig(method="brwp_successive", n_steps=3)
        trace = evolve_law(cfg, counted)
        assert sizes == [2401]
        rows = [dataclasses.astuple(r) for r in trace.reports]
        ref = [dataclasses.astuple(r) for r in evolve_law(cfg, quad1d).reports]
        assert np.array_equal(rows, ref, equal_nan=True)

    @pytest.mark.parametrize("method", ["brwp_kde", "brwp_successive", "explicit_flow"])
    def test_one_grid_per_run(self, quad1d, monkeypatch, method):
        calls = []
        real = Grid.uniform
        monkeypatch.setattr(Grid, "uniform",
                            classmethod(lambda cls, spec: calls.append(1) or real(spec)))
        run(SamplerConfig(method=method, n_steps=3, n_particles=100, seed=0), quad1d)
        assert len(calls) == 1

    def test_explicit_flow_one_kde_per_step(self, quad1d, monkeypatch):
        import brwplab.samplers as samplers
        calls = []
        monkeypatch.setattr(samplers, "kde", lambda *a, real=samplers.kde, **kw:
                            calls.append(1) or real(*a, **kw))
        cfg = SamplerConfig(method="explicit_flow", n_steps=5, n_particles=100,
                            seed=0, diag_every=1)
        res = run(cfg, quad1d)
        # one KDE per diagnostics row, which the following step reuses
        assert len(calls) == cfg.n_steps + 1
        # with a fresh state per step it computes its own KDE and takes the same step
        ens = initial_ensemble(cfg, 1, np.random.default_rng(cfg.seed))
        for _ in range(cfg.n_steps):
            ens = explicit_flow_step(ens, quad1d, cfg, DensityState(Grid.uniform(cfg.grid)))
        assert np.array_equal(ens.points, res.ensemble.points)


class TestSynchronousUpdates:
    def test_particle_mode_permutation_equivariance(self, mix1d):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((64, 1)) * 1.4
        cfg = SamplerConfig(method="brwp_particle", h=0.02, n_particles=64,
                            n_steps=1, seed=9)
        grid = Grid.uniform(cfg.grid)
        out = brwp_step(ParticleEnsemble(pts), mix1d, cfg, DensityState(grid))
        perm = rng.permutation(64)
        out_p = brwp_step(ParticleEnsemble(pts[perm]), mix1d, cfg, DensityState(grid))
        assert np.allclose(out.points[perm], out_p.points, rtol=1e-12, atol=1e-12)

    def test_successive_mode_permutation_exact(self, quad1d):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((50, 1))
        cfg = SamplerConfig(method="brwp_successive", h=0.05, n_particles=50,
                            n_steps=1, seed=10)
        grid = Grid.uniform(cfg.grid)
        state_a = DensityState(grid, chain=gaussian_grid(grid.axes[0], var=1.0))
        state_b = DensityState(grid, chain=gaussian_grid(grid.axes[0], var=1.0))
        out = brwp_step(ParticleEnsemble(pts), quad1d, cfg, state_a)
        perm = rng.permutation(50)
        out_p = brwp_step(ParticleEnsemble(pts[perm]), quad1d, cfg, state_b)
        assert np.array_equal(out.points[perm], out_p.points)


class TestStationarity:
    """Starting every mode at the target keeps the ensemble's KL at the
    estimator floor.

    The floor is the same KDE-based KL estimator applied to independent
    exact draws from the target (its own fluctuation scale), so the check
    is uniform across stochastic and deterministic modes.
    """

    N = 2000
    H = 0.02

    def _kde_kl(self, pts, grid, target):
        from brwplab.density import kde as kde_fn
        g = kde_fn(ParticleEnsemble(pts), "auto", grid)
        return kl_divergence(g, target, 1.0)

    @pytest.mark.parametrize("method", ["ula", "brwp_successive", "brwp_kde",
                                        "brwp_particle", "explicit_flow"])
    def test_kl_stays_at_floor(self, method, quad1d):
        cfg = SamplerConfig(method=method, h=self.H, n_steps=50,
                            n_particles=self.N, seed=100, diag_every=10)
        grid = Grid.uniform(cfg.grid)
        floor = max(self._kde_kl(np.random.default_rng(1000 + i)
                                 .standard_normal((self.N, 1)), grid, quad1d)
                    for i in range(5))
        rng = np.random.default_rng(987654)
        ens = ParticleEnsemble(rng.standard_normal((self.N, 1)))
        state = DensityState(grid, chain=target_density(quad1d, grid, 1.0))
        noise_rng = np.random.default_rng(cfg.seed)
        for k in range(1, 51):
            if method == "ula":
                ens = ula_step(ens, quad1d, cfg.h, cfg.beta, noise_rng)
            elif method == "explicit_flow":
                ens = explicit_flow_step(ens, quad1d, cfg, state)
            else:
                ens = brwp_step(ens, quad1d, cfg, state)
            if k % 10 == 0:
                kl = self._kde_kl(ens.points, grid, quad1d)
                assert kl <= 2.0 * floor, (method, k, kl, floor)


class TestStabilityBoundary:
    def test_below_boundary_bounded_decreasing(self, quad1d):
        cfg = SamplerConfig(method="brwp_successive", h=0.6, n_steps=200,
                            n_particles=100, seed=0, diag_every=10)
        trace = evolve_law(cfg, quad1d)
        kls = [r.kl for r in trace.reports]
        assert all(np.isfinite(kls))
        assert kls[-1] <= kls[0]
        assert not trace.folded

    def test_above_boundary_diverges(self, quad1d):
        cfg = SamplerConfig(method="brwp_successive", h=1.0, n_steps=200,
                            n_particles=100, seed=0, diag_every=10)
        trace = evolve_law(cfg, quad1d)
        kls = [r.kl for r in trace.reports]
        assert trace.folded or (kls[-1] > kls[0]) or not all(np.isfinite(kls))

    def test_law_without_mass_stops(self):
        # the narrow law at 9 is pushed past the grid's edge at step 2
        cfg = SamplerConfig(h=1.0, n_steps=5, init_mean=9.0, init_sigma_sq=0.05)
        trace = evolve_law(cfg, make_quadratic(3.0, 1))
        assert trace.folded
        assert [r.iter for r in trace.reports] == [0, 1]

    def test_law_at_a_huge_stepsize_stops_without_a_runtime_warning(self, quad1d):
        # h = T = 3 folds the map and flattens it over whole cells (dm = 0);
        # the law has no mass left at step 3. The masked divide must not warn
        cfg = SamplerConfig(method="brwp_kde", h=3.0, T=3.0, n_steps=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trace = evolve_law(cfg, quad1d)
        assert trace.folded
        assert [r.iter for r in trace.reports] == [0, 1, 2]
        assert all(np.all(np.isfinite(dataclasses.astuple(r)[1:6])) for r in trace.reports)

    @pytest.mark.parametrize("h, tol", [(1 / 6, 5e-3), (1 / 3, 5e-3), (0.6, 5e-3),
                                        (1.0, 3e-2)])
    def test_law_follows_the_closed_form_chain(self, quad1d, h, tol):
        """Quadratic V, alpha = beta = 1, T = h, rho0 = N(0, 2): every law is
        N(0, v), with v' the Prox_T variance and v <- (1 - h + h/v')^2 v."""
        assert h in DEFAULTS["sweep.h_list"]
        n_steps = DEFAULTS["sweep.n_steps"]
        trace = evolve_law(SamplerConfig(h=h, n_steps=n_steps), quad1d)
        assert [r.iter for r in trace.reports] == list(range(n_steps + 1))
        v = 2.0
        for r in trace.reports:
            chain = (v - 1 - math.log(v)) / 2
            assert abs(r.kl - chain) <= tol * max(chain, 1e-3), (r.iter, r.kl, chain)
            v *= (1 - h + h / prox_variance_oracle(v, 1.0, 1.0, h)) ** 2

    def test_law_needs_1d(self):
        target = make_quadratic(1.0, 2)
        cfg = SamplerConfig(method="brwp_successive", h=0.1, n_steps=1)
        with pytest.raises(ParameterError):
            evolve_law(cfg, target)


class TestExplicitFlow:
    def test_variance_shrinkage_relative_to_semi_implicit(self, mix1d):
        # near stationarity the KDE-bandwidth bias deflates the explicit
        # flow's ensemble, while the kernel-proximal scheme's own smoothing
        # scale is only 2T/beta
        # both runs start from the same draw of N(0, 2); neither draws noise later
        cfg_kwargs = dict(h=0.02, n_particles=500, n_steps=200, seed=998,
                          diag_every=200)
        res_brwp = run(SamplerConfig(method="brwp_particle", **cfg_kwargs), mix1d)
        res_expl = run(SamplerConfig(method="explicit_flow", **cfg_kwargs), mix1d)
        var_brwp = res_brwp.ensemble.points.var()
        var_expl = res_expl.ensemble.points.var()
        assert var_expl < var_brwp

    def test_mode_balance_smoke(self, mix1d):
        cfg = SamplerConfig(method="brwp_successive", h=0.02, n_particles=500,
                            n_steps=50, seed=77, diag_every=50)
        result = run(cfg, mix1d)
        frac = np.mean(result.ensemble.points[:, 0] > 0)
        assert 0.3 <= frac <= 0.7
        # both modes occupied
        assert np.sum(result.ensemble.points[:, 0] > 1.0) > 50
        assert np.sum(result.ensemble.points[:, 0] < -1.0) > 50


def test_marginal_target_product_structure():
    t10 = make_gaussian_mixture(2.0, 1.0, dim=10)
    m = marginal_target(t10)
    assert m.dim == 1
    origin = np.zeros((1, 1))
    assert m.eval_fn(origin)[0] == pytest.approx(
        make_gaussian_mixture(2.0, 1.0, dim=1).eval_fn(origin)[0], rel=1e-12)
    tq = make_quadratic(2.0, 4)
    assert marginal_target(tq).alpha == 2.0


def test_high_dim_particle_run_reports_marginal_diagnostics():
    target = make_gaussian_mixture(2.0, 1.0, dim=10)
    cfg = SamplerConfig(method="brwp_particle", h=0.02, n_particles=200,
                        n_steps=5, seed=0, diag_every=5)
    result = run(cfg, target)
    assert np.isfinite(result.reports[-1].kl)
    assert result.ensemble.dim == 10


def test_high_dim_run_measures_its_first_axis_on_one_grid(monkeypatch):
    # past d = 3 the CLI's grid is the single axis the diagnostics read
    target = make_gaussian_mixture(2.0, 1.0, dim=10)
    spec = grid_spec({**DEFAULTS, "target.id": "gaussian_mixture"}, target.dim)
    cfg = SamplerConfig(method="brwp_particle", h=0.02, n_particles=200, n_steps=1,
                        seed=0, grid=spec)
    grids = []
    real = Grid.__post_init__
    monkeypatch.setattr(Grid, "__post_init__", lambda self: grids.append(self) or real(self))
    result = run(cfg, target)
    assert len(grids) == 1 and grids[0].shape == (2401,)
    ens0 = initial_ensemble(cfg, target.dim, np.random.default_rng(cfg.seed))
    g = _grid_kde(ens0, cfg, DensityState(grids[0]))
    rs = target_density(marginal_target(target), grids[0], cfg.beta)
    assert result.reports[0].kl == relative_entropy(g, rs)


@pytest.mark.parametrize("shape, off_grid", [((41,), False), ((161, 161), False),
                                             ((41, 41, 41), False), ((2401,), True)],
                         ids=["41", "161^2", "41^3", "2401-one-off-grid"])
def test_grid_kde_is_direct_kde_where_it_does_not_bin(shape, off_grid):
    # coarse grids, d >= 2, and a particle off the grid: kde's bytes, with the "auto" bandwidth
    # (tests/test_density.py checks that kde runs its direct sums here)
    grid = Grid(tuple(uniform_axis(-12.0, 12.0, n) for n in shape))
    pts = np.sqrt(2.0) * np.random.default_rng(0).standard_normal((500, len(shape)))
    if off_grid:
        pts[0, 0] = np.nextafter(12.0, np.inf)
    ens = ParticleEnsemble(pts)
    got = _grid_kde(ens, SamplerConfig(method="brwp_kde"), DensityState(grid))
    assert np.array_equal(got.values, kde(ens, "auto", grid).values)


def test_grid_kde_bins_on_the_fine_1d_grid():
    # binned on the default grid, and computed once per ensemble object
    grid = Grid((uniform_axis(-12.0, 12.0, 2401),))
    pts = np.sqrt(2.0) * np.random.default_rng(0).standard_normal((500, 1))
    ens, state = ParticleEnsemble(pts), DensityState(grid)
    cfg = SamplerConfig(method="brwp_kde", kde_bandwidth=0.4)
    got = _grid_kde(ens, cfg, state)
    assert np.array_equal(got.values, _binned_kde(pts[:, 0], 0.4, grid).values)
    assert _grid_kde(ens, cfg, state) is got
    assert _grid_kde(ParticleEnsemble(pts), cfg, state) is not got


def test_past_d3_without_marginal_every_row_is_nan():
    # gauss_laplace has no catalog marginal: nothing to measure the 1-D grid against
    target = make_nonsmooth_mixture("gauss_laplace", dim=4)
    cfg = SamplerConfig(method="ula", n_particles=100, n_steps=3, seed=0)
    result = run(cfg, target)
    assert [r.iter for r in result.reports] == [0, 1, 2, 3]
    for r in result.reports:
        assert all(math.isnan(v) for v in (r.kl, r.fisher, r.m0, r.tv, r.w2, r.kl_bound))
