"""Property tests of the grid operator: the 1-D FFT blur with dense repair,
the step against the heat kernel for V = 0, and the score of a step against
the closed form for quadratic V."""

import numpy as np
from hypothesis import given, seed, settings, strategies as st

from brwplab.density import Grid, GridDensity, uniform_axis
from brwplab.potentials import make_quadratic
from brwplab.proximal import MASS_TOL, GridProxOperator, ProxParams, _weighted_toeplitz

from conftest import make_zero, prox_variance_oracle


@seed(20240611)
@settings(max_examples=25, deadline=None, database=None)
@given(g=st.integers(50, 3000), half_width=st.floats(3.0, 15.0),
       T=st.floats(0.01, 1.0), beta=st.floats(0.2, 5.0),
       n_bumps=st.integers(1, 3), cut_lo=st.floats(0.0, 0.4), cut_hi=st.floats(0.0, 0.4),
       rng_seed=st.integers(0, 2**32 - 1))
def test_nonnegative_bounded_and_repeatable(g, half_width, T, beta, n_bumps, cut_lo, cut_hi,
                                            rng_seed):
    axis = uniform_axis(-half_width, half_width, g)
    op = GridProxOperator(Grid((axis,)), make_zero(1), ProxParams(T=T, beta=beta))
    rng = np.random.default_rng(rng_seed)
    vals = np.zeros(g)
    for _ in range(n_bumps):
        centre = rng.uniform(-half_width, half_width)
        width = rng.uniform(axis[1] - axis[0], half_width / 2)
        vals += rng.uniform(1e-3, 1.0) * np.exp(-(axis - centre) ** 2 / (2 * width**2))
    # exact zeros at both ends, as evolve_law's pushforward leaves them
    vals[:int(cut_lo * g)] = 0.0
    vals[g - int(cut_hi * g):] = 0.0
    out = op.apply_blur(vals)
    dense = _weighted_toeplitz(op._kernels(axis)[0], axis) @ vals
    assert np.all(out >= 0)
    assert np.all(np.abs(out - dense) <= 1e-9 * dense)
    assert np.array_equal(op.apply_blur(vals), out)


@seed(20261018)
@settings(max_examples=25, deadline=None, database=None)
@given(dim=st.sampled_from([1, 2]), alpha=st.floats(0.5, 2.0), beta=st.floats(0.5, 2.0),
       T=st.floats(0.02, 0.3), frac=st.floats(0.1, 0.6))
def test_score_of_step_gaussian_closed_form(dim, alpha, beta, T, frac):
    # V = alpha|x|^2/2 and rho0 = N(0, v0 I) give rho_T = N(0, var_t I), so the
    # score is -x/var_t. rho0/D ~ exp(-c|y|^2) decays only for v0 below the bound:
    # beyond it the numerator integral's cut at the grid edge would dominate.
    v0 = frac * 2 * (1 + alpha * T) / (alpha * beta)
    var_t = prox_variance_oracle(v0, alpha, beta, T)
    c = (1 - frac) / (2 * v0)
    half = max(np.sqrt(40 / c), 8 * np.sqrt(var_t))      # rho0/D < e^-40 of its peak at the edge
    dx = 0.5 * min(np.sqrt(2 * T / beta), np.sqrt(v0))   # resolves the kernel and rho0
    axis = uniform_axis(-half, half, 2 * int(np.ceil(half / dx)) + 1)
    grid = Grid((axis,) * dim)
    rho0 = GridDensity(grid, np.exp(-sum(m**2 for m in grid.mesh) / (2 * v0))).normalize()
    op = GridProxOperator(grid, make_quadratic(alpha, dim), ProxParams(T=T, beta=beta))
    rho_t, mass, score = op.score_of_step(rho0)
    assert abs(mass - 1.0) <= MASS_TOL
    keep = rho_t.values >= 1e-6 * rho_t.values.max()
    for s, x in zip(score, grid.mesh):
        assert np.all(np.abs(s + x / var_t)[keep] <= 1e-8 / np.sqrt(var_t))
    again_t, again_mass, again_score = op.score_of_step(rho0)
    assert again_mass == mass
    assert np.array_equal(again_t.values, rho_t.values)
    assert all(np.array_equal(a, s) for a, s in zip(again_score, score))


@seed(20261019)
@settings(max_examples=30, deadline=None, database=None)
@given(dim=st.sampled_from([1, 2, 3]), T=st.floats(0.01, 1.0), beta=st.floats(0.2, 5.0),
       ratio=st.floats(0.5, 2.0))
def test_step_is_heat_kernel_for_zero_potential(dim, T, beta, ratio):
    # V = 0 and rho0 = N(0, v0 I) give rho_T = N(0, (v0 + 2T/beta) I). The grid
    # resolves the narrower of the kernel and rho0 and reaches 8 (d = 3: 6)
    # output standard deviations; d = 3 keeps to at most 29 points per axis.
    kern = 2 * T / beta
    v0 = ratio * kern
    var_t = v0 + kern
    dx = (0.75 if dim == 3 else 0.5) * np.sqrt(min(kern, v0))
    half = (6 if dim == 3 else 8) * np.sqrt(var_t)
    axis = uniform_axis(-half, half, 2 * int(np.ceil(half / dx)) + 1)
    grid = Grid((axis,) * dim)
    sq = sum(m**2 for m in grid.mesh)
    rho0 = GridDensity(grid, np.exp(-sq / (2 * v0))).normalize()
    rho_t, mass = GridProxOperator(grid, make_zero(dim), ProxParams(T=T, beta=beta)).step(rho0)
    exact = np.exp(-sq / (2 * var_t)) / (2 * np.pi * var_t) ** (dim / 2)
    assert np.all(rho_t.values >= 0)
    assert abs(mass - 1.0) <= MASS_TOL
    assert np.max(np.abs(rho_t.values - exact)) <= 1e-6 * exact.max()
