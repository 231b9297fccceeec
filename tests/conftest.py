import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from brwplab.density import Grid, GridDensity, uniform_axis
from brwplab.potentials import Potential, make_gaussian_mixture, make_quadratic


def make_zero(dim: int) -> Potential:
    """V = 0 (free heat flow): the kernel formula reduces to the heat kernel."""
    return Potential(
        dim=dim,
        eval_fn=lambda x: np.zeros(x.shape[0]),
        grad_fn=lambda x: np.zeros_like(x),
        laplacian_fn=lambda x: np.zeros(x.shape[0]),
    )


def read_density_csv(path) -> GridDensity:
    """Read back a GridDensity written by cli.write_density_csv (CSV plus JSON sidecar)."""
    path = Path(path)
    with open(path.with_suffix(path.suffix + ".json")) as f:
        meta = json.load(f)
    with open(path) as f:
        rows = [[float(v) for v in row] for row in csv.reader(f)]
    d = len(meta["axes"])
    grid = Grid(tuple(np.asarray(rows[i]) for i in range(d)))
    return GridDensity(grid, np.asarray(rows[d:]).reshape(meta["shape"]))


def report_text(r) -> str:
    """A DiagnosticsReport as text, so that rows holding NaN compare equal."""
    return repr(dataclasses.astuple(r))


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
