"""Property tests of the 1-D FFT blur with dense repair."""

import numpy as np
from hypothesis import given, seed, settings, strategies as st

from brwplab.density import Grid, uniform_axis
from brwplab.potentials import make_zero
from brwplab.proximal import GridProxOperator, ProxParams


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
    dense = op._blur_matrix(axis) @ vals
    assert np.all(out >= 0)
    assert np.all(np.abs(out - dense) <= 1e-9 * dense)
    assert np.array_equal(op.apply_blur(vals), out)
