import numpy as np
import pytest

from brwplab.errors import ParameterError
from brwplab.potentials import (Potential, from_catalog, make_gaussian_mixture,
                                make_nonsmooth_mixture, make_quadratic)

from conftest import make_zero


def rows(*xs):
    """Points as an (N, d) batch: each argument is one point (a number when d = 1)."""
    return np.array([np.atleast_1d(x) for x in xs], dtype=float)


def fd_gradient(pot, x, delta=1e-6):
    """Independent central-difference gradient oracle at one (d,) point."""
    steps = delta * np.eye(x.size)
    return (pot.eval_fn(x + steps) - pot.eval_fn(x - steps)) / (2 * delta)


class TestQuadratic:
    def test_eval_grad_laplacian(self):
        v = make_quadratic(1.0, 1)
        assert v.eval_fn(rows(2.0)).tolist() == [2.0]
        assert v.grad_fn(rows(2.0)).tolist() == [[2.0]]
        v2 = make_quadratic(3.0, 2)
        assert v2.laplacian_fn(rows([0.3, -1.2], [1.0, 2.0])).tolist() == [6.0, 6.0]

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ParameterError):
            make_quadratic(0.0, 1)
        with pytest.raises(ParameterError):
            make_quadratic(-1.0, 2)

    def test_rayleigh_quotient_exact(self):
        alpha, d = 2.5, 3
        v = make_quadratic(alpha, d)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.uniform(-3, 3, d), rng.uniform(-3, 3, d)
            if np.allclose(x, y):
                continue
            gx, gy = v.grad_fn(rows(x, y))
            q = np.dot(gx - gy, x - y) / np.dot(x - y, x - y)
            assert q == pytest.approx(alpha, abs=1e-13)


class TestGaussianMixture:
    def test_symmetric_gradient_zero_at_origin(self):
        for d in (1, 2, 10):
            v = make_gaussian_mixture(2.0, 1.0, dim=d)
            assert np.allclose(v.grad_fn(np.zeros((1, d))), 0.0, atol=1e-14)

    def test_mode_below_saddle(self, mix1d):
        at_mode, at_saddle = mix1d.eval_fn(rows(2.0, 0.0))
        assert at_mode < at_saddle

    def test_density_normalized(self, mix1d):
        # trapezoid quadrature oracle on a wide 1-D grid
        x = np.linspace(-10, 10, 4001)
        w = np.full(x.size, x[1] - x[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        mass = np.sum(w * np.exp(-mix1d.eval_fn(x[:, None])))
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_analytic_laplacian_matches_fd(self, mix1d):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-4, 4)
            d = 1e-5
            vp, v0, vm = mix1d.eval_fn(rows(x + d, x, x - d))
            fd = (vp - 2 * v0 + vm) / d**2
            assert mix1d.laplacian_fn(rows(x))[0] == pytest.approx(fd, rel=1e-4, abs=1e-4)

    def test_vector_a_and_scalar_a_agree(self):
        va = make_gaussian_mixture(np.array([2.0, 0.0]), 1.0)
        vs = make_gaussian_mixture(2.0, 1.0, dim=2)
        pt = rows([0.7, -0.3])
        assert va.eval_fn(pt)[0] == pytest.approx(vs.eval_fn(pt)[0], rel=1e-14)


class TestGradConsistency:
    """Finite differences of eval must match grad on every smooth catalog entry."""

    @pytest.mark.parametrize("pot", [
        make_quadratic(1.0, 1), make_quadratic(0.5, 3),
        make_gaussian_mixture(2.0, 1.0, dim=1),
        make_gaussian_mixture(2.0, 1.0, dim=2),
        make_zero(2),
    ])
    def test_fd_matches_grad(self, pot):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = rng.uniform(-3, 3, pot.dim)
            g = pot.grad_fn(x[None, :])[0]
            fd = fd_gradient(pot, x)
            assert np.max(np.abs(fd - g)) <= 1e-5 * (1 + np.linalg.norm(g))


class TestNonsmoothMixtures:
    def test_gauss_laplace_eval_direct_formula(self):
        sigma, b = 1.0, 0.25
        v = make_nonsmooth_mixture("gauss_laplace", sigma=sigma, b=b, dim=1)
        x = 2.0
        # direct two-branch evaluation with the analytic normalization
        z = sigma * np.sqrt(2 * np.pi) + 4 * b
        expected = -np.log((np.exp(0.0) + np.exp(-abs(x + 2) / (2 * b))) / z)
        assert v.eval_fn(rows(x))[0] == pytest.approx(expected, rel=1e-12)

    def test_gauss_laplace_density_normalized(self):
        v = make_nonsmooth_mixture("gauss_laplace", sigma=1.0, b=0.25, dim=1)
        x = np.linspace(-12, 12, 9601)
        w = np.full(x.size, x[1] - x[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        assert np.sum(w * np.exp(-v.eval_fn(x[:, None]))) == pytest.approx(1.0, abs=1e-5)

    def test_l1_subgradient_sign_convention(self):
        v = make_nonsmooth_mixture("l1_l12", dim=2)
        # at (-1, 0) the L1 branch dominates; its first component is sign(1) = +1
        g, g_kink = v.grad_fn(rows([-1.0, 0.0], [-2.0, 0.0]))
        assert g[0] == pytest.approx(1.0, abs=5e-3)
        # exactly at the L1 kink the subgradient component is 0
        assert abs(g_kink[0]) < 1e-6

    def test_l1_l12_1d_normalized(self):
        v = make_nonsmooth_mixture("l1_l12", dim=1)
        x = np.linspace(-16, 16, 12801)
        w = np.full(x.size, x[1] - x[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        assert np.sum(w * np.exp(-v.eval_fn(x[:, None]))) == pytest.approx(1.0, abs=1e-5)

    def test_fd_laplacian_stable_near_kink(self):
        v = make_nonsmooth_mixture("gauss_laplace", dim=1)
        # shifted-median stencil keeps the curvature finite at the kink
        assert abs(v.laplacian_fn(rows(-2.0))[0]) < 10.0

    @pytest.mark.parametrize("alpha,d", [(1.0, 1), (2.5, 2), (0.5, 3)])
    def test_missing_laplacian_falls_back_to_fd(self, alpha, d):
        v = Potential(dim=d, eval_fn=lambda x: 0.5 * alpha * np.sum(x * x, axis=1),
                      grad_fn=lambda x: alpha * x)
        pts = np.random.default_rng(5).uniform(-3, 3, (20, d))
        assert np.max(np.abs(v.laplacian_fn(pts) - alpha * d)) <= 1e-4

    def test_bad_params_rejected(self):
        with pytest.raises(ParameterError):
            make_nonsmooth_mixture("gauss_laplace", sigma=-1.0)
        with pytest.raises(ParameterError):
            make_nonsmooth_mixture("unknown_kind")


@pytest.mark.parametrize("build", [
    lambda: make_quadratic(alpha=np.nan),
    lambda: make_gaussian_mixture(sigma=np.nan),
    lambda: make_nonsmooth_mixture("gauss_laplace", sigma=np.nan),
    lambda: make_nonsmooth_mixture("gauss_laplace", b=np.nan),
], ids=["quadratic-alpha", "mixture-sigma", "gauss_laplace-sigma", "gauss_laplace-b"])
def test_nan_parameter_rejected(build):
    with pytest.raises(ParameterError):
        build()


class TestCatalog:
    def test_ids_resolve(self):
        for tid in ("quadratic", "gaussian_mixture", "l1_l12", "gauss_laplace"):
            pot = from_catalog(tid, {"dim": 1})
            assert pot.dim == 1
        with pytest.raises(ParameterError):
            from_catalog("nope")

    def test_vector_a_places_the_modes_on_every_axis(self):
        pot = from_catalog("gaussian_mixture", {"dim": 3, "a": [2.0, 2.0, 2.0]})
        x = np.random.default_rng(2).uniform(-4, 4, (10, 3))
        assert pot.eval_fn(x).tolist() == make_gaussian_mixture([2, 2, 2]).eval_fn(x).tolist()

    def test_builders_get_only_the_parameters_they_name(self):
        pot = from_catalog("l1_l12", {"dim": 2, "sigma": -1.0, "b": -1.0, "alpha": 3.0})
        x = np.random.default_rng(3).uniform(-4, 4, (10, 2))
        assert pot.eval_fn(x).tolist() == \
            make_nonsmooth_mixture("l1_l12", dim=2).eval_fn(x).tolist()
        with pytest.raises(ParameterError, match="sigma and b must be positive"):
            from_catalog("gauss_laplace", {"sigma": -1.0})

    @pytest.mark.parametrize("a, dim, message", [
        ([1.0, 2.0], 3, "target.a has 2 entries but target.dim is 3"),
        (2.0, 0, "dim must be >= 1, got 0"),
        (2.0, -1, "dim must be >= 1, got -1")])
    def test_mixture_size_rules(self, a, dim, message):
        with pytest.raises(ParameterError, match=message):
            make_gaussian_mixture(a, dim=dim)

    @pytest.mark.parametrize("tid, params, alpha, a0", [
        ("quadratic", {"dim": 4, "alpha": 2.0}, 2.0, None),
        ("gaussian_mixture", {"dim": 3, "a": [1.5, 1.5, 1.5], "sigma": 0.8}, None, 1.5)])
    def test_marginal_is_first_axis_of_target(self, tid, params, alpha, a0):
        m = from_catalog(tid, params).marginal
        assert m.dim == 1 and m.alpha == alpha and m.marginal is None
        expected = make_quadratic(alpha, 1) if a0 is None else \
            make_gaussian_mixture(a0, sigma=params["sigma"], dim=1)
        x = rows(-2.0, 0.0, 0.7, 3.0)
        assert m.eval_fn(x).tolist() == expected.eval_fn(x).tolist()
        assert m.grad_fn(x).tolist() == expected.grad_fn(x).tolist()

    @pytest.mark.parametrize("pot", [
        from_catalog("l1_l12", {"dim": 2}), from_catalog("gauss_laplace", {"dim": 2}),
        make_zero(2), make_quadratic(1.0, 1), make_gaussian_mixture(2.0)])
    def test_no_marginal_without_closed_form_or_in_1d(self, pot):
        assert pot.marginal is None
