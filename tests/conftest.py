import numpy as np
import pytest

from brwplab.density import Grid, GridDensity, uniform_axis
from brwplab.potentials import make_gaussian_mixture, make_quadratic, make_zero


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
