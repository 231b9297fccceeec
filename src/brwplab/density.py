"""Density representations and divergence diagnostics.

Grid is the uniform tensor grid (d <= 3) a run evaluates everything on, with
its trapezoid weights and points. GridDensity holds nonnegative values on a
Grid with trapezoid-quadrature mass ~ 1. ParticleEnsemble is the sampler
state. All divergences (KL, relative Fisher information, fourth-moment
functional M0, total variation) are trapezoid estimates against the Gibbs
target exp(-beta*V)/Z with Z computed on the same grid.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
import numpy as np

from .errors import DegenerateDensityError, ParameterError, TruncationError
from .potentials import Potential

TAIL_MASS_TOL = 1e-8      # refused if more target mass than this lies off-grid
GRID_EXTENSION = 0.25     # fractional span appended per side for the tail check
LOG_FLOOR = 1e-300        # densities are clamped to this before taking logs
KDE_BLOCK = 128           # axis-0 grid rows per block of the KDE
SLAB_POINTS = 1 << 14     # widened-grid points per slab of the truncation check
W2_QUANTILES = 512        # midpoint quantile levels w2_grids_1d couples


def uniform_axis(lo: float, hi: float, n: int) -> np.ndarray:
    if not (hi > lo) or n < 2:
        raise ParameterError(f"bad axis spec lo={lo} hi={hi} n={n}")
    return np.linspace(lo, hi, int(n))


def trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    w = np.full(axis.size, axis[1] - axis[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def central_diff(values: np.ndarray, dx: float, axis: int) -> np.ndarray:
    """Second-order interior central difference, first-order one-sided ends."""
    g = np.empty_like(values)
    sl = [slice(None)] * values.ndim

    def at(idx):
        s = list(sl)
        s[axis] = idx
        return tuple(s)

    g[at(slice(1, -1))] = (values[at(slice(2, None))] - values[at(slice(None, -2))]) / (2 * dx)
    g[at(0)] = (values[at(1)] - values[at(0)]) / dx
    g[at(-1)] = (values[at(-1)] - values[at(-2)]) / dx
    return g


@dataclass(frozen=True, eq=False)
class Grid:
    """A uniform tensor grid (1 <= d <= 3), built once per run and shared.

    The trapezoid weights and the ij-ordered (N, d) points are built on first
    use and kept read-only; mesh is per-axis views of the points. Iterating a
    grid yields its axes.
    """

    axes: tuple

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        if not 1 <= len(axes) <= 3:
            raise ParameterError(f"grids support 1 <= d <= 3, got d={len(axes)}")
        for a in axes:
            if a.ndim != 1 or a.size < 2:
                raise ParameterError("each axis must be a 1-D array with >= 2 points")
            steps = np.diff(a)
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
                raise ParameterError("axes must be uniformly spaced")
        object.__setattr__(self, "axes", axes)

    @classmethod
    def uniform(cls, spec) -> "Grid":
        """The grid of per-axis (lo, hi, n) triples."""
        return cls(tuple(uniform_axis(lo, hi, n) for lo, hi, n in spec))

    def __iter__(self):
        return iter(self.axes)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(a.size for a in self.axes)

    @property
    def spacing(self) -> tuple:
        return tuple(float(a[1] - a[0]) for a in self.axes)

    @cached_property
    def weights(self) -> np.ndarray:
        w = trapezoid_weights(self.axes[0])
        for ax in self.axes[1:]:
            w = np.multiply.outer(w, trapezoid_weights(ax))
        w.flags.writeable = False
        return w

    @cached_property
    def points(self) -> np.ndarray:
        """All grid points as an (N, d) array (ij meshgrid order)."""
        pts = np.empty((int(np.prod(self.shape)), self.dim))
        for i, m in enumerate(np.meshgrid(*self.axes, indexing="ij", sparse=True)):
            pts[:, i].reshape(self.shape)[...] = m
        pts.flags.writeable = False
        return pts

    @property
    def mesh(self) -> tuple:
        """Per-axis coordinates on the grid shape: views of points, not copies."""
        return tuple(self.points[:, i].reshape(self.shape) for i in range(self.dim))

    @cached_property
    def marginal(self) -> "Grid":
        """The 1-D grid of the first axis."""
        return Grid(self.axes[:1])


@dataclass
class GridDensity:
    """Nonnegative density values on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ParameterError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}")
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise DegenerateDensityError("density values must be finite and nonnegative")

    def mass(self) -> float:
        return float(np.sum(self.grid.weights * self.values))

    def normalize(self) -> "GridDensity":
        m = self.mass()
        if not np.isfinite(m) or m <= 0:
            raise DegenerateDensityError(f"cannot normalize density with mass {m}")
        return GridDensity(self.grid, self.values / m)

    @cached_property
    def log_values(self) -> np.ndarray:
        """log(values floored at LOG_FLOOR), taken once: values is never reassigned."""
        logv = np.log(np.maximum(self.values, LOG_FLOOR))
        logv.flags.writeable = False
        return logv

    @cached_property
    def w2_quantiles(self) -> np.ndarray:
        """Sorted quantiles at the W2_QUANTILES midpoint levels (1-D), taken once."""
        q = np.sort(grid_quantiles(self, (np.arange(W2_QUANTILES) + 0.5) / W2_QUANTILES))
        q.flags.writeable = False
        return q

    def score(self) -> list:
        """Per-axis central-difference gradient of log(density)."""
        logv = self.log_values
        return [central_diff(logv, dx, i) for i, dx in enumerate(self.grid.spacing)]

    def marginal_first(self) -> "GridDensity":
        """First-axis marginal (trapezoid over remaining axes)."""
        if self.grid.dim == 1:
            return self
        vals = self.values
        for i in range(self.grid.dim - 1, 0, -1):
            vals = np.tensordot(vals, trapezoid_weights(self.grid.axes[i]), axes=([i], [0]))
        return GridDensity(self.grid.marginal, vals).normalize()

    # --- serialization: axis rows, then value rows (row-major over leading axes) ---
    def to_csv(self, path) -> None:
        path = Path(path)
        with open(path, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            for a in self.grid:
                writer.writerow([repr(float(v)) for v in a])
            flat = self.values.reshape(-1, self.grid.shape[-1])
            for row in flat:
                writer.writerow([repr(float(v)) for v in row])
        sidecar = {
            "axes": [{"lo": float(a[0]), "hi": float(a[-1]), "n": int(a.size)}
                     for a in self.grid],
            "shape": [int(s) for s in self.values.shape],
            "log_floor": LOG_FLOOR,
            "csv": path.name,
        }
        with open(path.with_suffix(path.suffix + ".json"), "w") as f:
            json.dump(sidecar, f, indent=1, sort_keys=True)
            f.write("\n")


@dataclass
class ParticleEnsemble:
    """N weighted-equal particles in R^d."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim == 1:
            self.points = self.points[:, None]
        if self.points.shape[0] < 2:
            raise ParameterError("ensembles need at least 2 particles")
        if not np.all(np.isfinite(self.points)):
            raise DegenerateDensityError("particle coordinates must be finite")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass
class DiagnosticsReport:
    """One diagnostics row of a sampling run."""

    iter: int
    kl: float
    fisher: float
    m0: float
    tv: float
    w2: float
    kl_bound: float = float("nan")
    wallclock_ms: float = 0.0

    CSV_HEADER = "iter,kl,fisher,m0,tv,w2,kl_bound,wallclock_ms"

    def csv_row(self) -> str:
        vals = [self.kl, self.fisher, self.m0, self.tv, self.w2,
                self.kl_bound, self.wallclock_ms]
        return ",".join([str(self.iter)] + [repr(float(v)) for v in vals])


# ---------------------------------------------------------------- targets

def target_density(target: Potential, grid: Grid, beta: float,
                   check_truncation: bool = True) -> GridDensity:
    """exp(-beta*V)/Z on the grid; refuses grids that truncate target mass."""
    v = target.eval_fn(grid.points)
    v_min = v.min()     # stabilizes the exponential; cancels in normalization
    vals = np.exp(-beta * (v - v_min)).reshape(grid.shape)
    z = float(np.sum(grid.weights * vals))
    if not np.isfinite(z) or z <= 0:
        raise DegenerateDensityError("target has non-finite or zero grid mass")
    if check_truncation:
        z_ext = _extended_mass(target, grid, beta, v_min)
        if not np.isfinite(z_ext):
            raise TruncationError("target mass on the widened grid is not finite; "
                                  "widen the grid")
        if (z_ext - z) / z_ext > TAIL_MASS_TOL:
            raise TruncationError(
                f"target mass outside grid is {(z_ext - z) / z_ext:.3e} "
                f"(> {TAIL_MASS_TOL:.1e}); widen the grid")
    return GridDensity(grid, vals / z)


def _extended_mass(target: Potential, grid: Grid, beta: float, v_min: float) -> float:
    """Trapezoid mass of exp(-beta*(V - v_min)) on the grid widened by GRID_EXTENSION.

    v_min is the grid's own minimum of V, so the mass shares the grid's
    normalization; it is inf where V dips far below v_min off the grid. V is
    evaluated over slabs of about SLAB_POINTS points, whole axis-0 rows each,
    never on the whole widened grid.
    """
    ext_axes = []
    for a in grid.axes:
        dx = a[1] - a[0]
        extra = int(np.ceil(GRID_EXTENSION * (a[-1] - a[0]) / dx))
        ext_axes.append(np.linspace(a[0] - extra * dx, a[-1] + extra * dx, a.size + 2 * extra))
    if len(ext_axes) > 1:
        rest = Grid(tuple(ext_axes[1:]))
        rest_pts, rest_w = rest.points, rest.weights.ravel()
    else:
        rest_pts, rest_w = np.empty((1, 0)), np.ones(1)
    axis0, w0 = ext_axes[0], trapezoid_weights(ext_axes[0])
    rows = max(1, SLAB_POINTS // rest_w.size)
    z_ext = 0.0
    for lo in range(0, axis0.size, rows):
        slab = axis0[lo:lo + rows]
        pts = np.empty((slab.size, rest_w.size, grid.dim))
        pts[:, :, 0] = slab[:, None]
        pts[:, :, 1:] = rest_pts
        v = target.eval_fn(pts.reshape(-1, grid.dim)).reshape(slab.size, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            z_ext += float(w0[lo:lo + rows] @ (np.exp(-beta * (v - v_min)) @ rest_w))
    return z_ext


# ------------------------------------------------------------ estimators

def kde(ensemble: ParticleEnsemble, bandwidth, query_axes: Grid) -> GridDensity:
    """Gaussian-product-kernel density estimate, normalized on the Grid query_axes.

    bandwidth: positive float, per-axis array, or "auto" for the Silverman
    rule (4/(d+2))^{1/(d+4)} N^{-1/(d+4)} * per-axis sample std, which in
    1-D is exactly (4/(3N))^{1/5} * std.

    One code path serves d = 1, 2 and 3; memory is O(KDE_BLOCK * N + N *
    G_1...G_{d-1}) for a grid of shape (G_0, ..., G_{d-1}), so a 41^3 grid
    with N = 500 holds a 6.7 MB right-hand side.
    """
    axes = query_axes.axes
    d = len(axes)
    if ensemble.dim != d:
        raise ParameterError(f"ensemble dim {ensemble.dim} != query grid dim {d}")
    if isinstance(bandwidth, str):
        if bandwidth != "auto":
            raise ParameterError(f"unknown bandwidth spec {bandwidth!r}")
        bw = silverman_bandwidth(ensemble.points)
    else:
        bw = np.broadcast_to(np.asarray(bandwidth, dtype=float), (d,)).copy()
    if np.any(bw <= 0):
        raise ParameterError(f"bandwidth must be positive, got {bw}")

    # Each axis's kernel exp(-(x - p)^2/(2b^2)) takes its exponent from one
    # GEMM, [x, 1, x^2] . [p/b^2, -p^2/(2b^2), -1/(2b^2)], clamped at 0
    # against rounding. Axes 1..d-1 fold into the right-hand side: it starts
    # as the scale 1/(N prod(b) sqrt(2 pi)^d) of each particle, and each axis
    # multiplies in its kernel particle by particle (a Khatri-Rao product), to
    # shape (G_1...G_{d-1}, N); in 1-D it is the scale vector. Axis 0 then runs
    # KDE_BLOCK grid rows at a time: GEMM, minimum, exp, and a GEMM with the
    # right-hand side.
    n = ensemble.n
    folds = []
    for ax, p, b in zip(axes, ensemble.points.T, bw):
        b2 = b ** 2
        folds.append((np.stack((ax, np.ones_like(ax), ax * ax), axis=1),
                      np.stack((p / b2, -p * p / (2 * b2), np.full(n, -1 / (2 * b2))))))
    rhs = np.full(n, 1 / (n * np.prod(bw) * np.sqrt(2 * np.pi) ** d))
    for xa, pa in folds[1:]:
        k = np.minimum(xa @ pa, 0.0)
        np.exp(k, out=k)
        rhs = (rhs[..., None, :] * k).reshape(-1, n)
    xa, pa = folds[0]
    g0 = xa.shape[0]
    vals = np.empty((g0,) + rhs.shape[:-1])
    buf = np.empty((min(KDE_BLOCK, g0), n))
    for lo in range(0, g0, KDE_BLOCK):
        hi = min(lo + KDE_BLOCK, g0)
        k = buf[:hi - lo]
        np.matmul(xa[lo:hi], pa, out=k)
        np.minimum(k, 0.0, out=k)
        np.exp(k, out=k)
        np.matmul(k, rhs.T, out=vals[lo:hi])
    return GridDensity(query_axes, vals.reshape(query_axes.shape)).normalize()


def silverman_bandwidth(points: np.ndarray) -> np.ndarray:
    n, d = points.shape
    factor = (4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0))
    return factor * points.std(axis=0, ddof=1)


# ------------------------------------------------------------ divergences

def divergences(g: GridDensity, rs: GridDensity, grad_v: np.ndarray,
                beta: float) -> tuple:
    """(KL, relative Fisher information, M0, TV) of g in one pass.

    rs is target_density(target, g.grid, beta) and grad_v is
    target.grad_fn(g.grid.points), both built once per run by the caller; the
    standalone functions below build (and truncation-check) them per call.
    """
    w = g.grid.weights
    sq = _relative_score(g, grad_v, beta)
    return (relative_entropy(g, rs),
            float(np.sum(w * sq * g.values)),
            float(beta ** (-2) * np.sum(w * sq * sq * g.values)),
            float(np.sum(w * np.abs(g.values - rs.values))))


def relative_entropy(g: GridDensity, rs: GridDensity) -> float:
    """KL(g || rs) of two densities on the same grid."""
    ratio_log = g.log_values - rs.log_values
    integrand = np.where(g.values > 0, g.values * ratio_log, 0.0)
    return float(np.sum(g.grid.weights * integrand))


def _relative_score(g: GridDensity, grad_v: np.ndarray, beta: float) -> np.ndarray:
    """|grad log(g/rho*)|^2 on the grid; target part analytic (-beta*grad V)."""
    sq = np.zeros_like(g.values)
    for i, gr in enumerate(g.score()):
        s = gr + beta * grad_v[:, i].reshape(g.grid.shape)
        sq += s * s
    return sq


def _divergences_of(g: GridDensity, target: Potential, beta: float) -> tuple:
    return divergences(g, target_density(target, g.grid, beta),
                       target.grad_fn(g.grid.points), beta)


def kl_divergence(g: GridDensity, target: Potential, beta: float) -> float:
    return relative_entropy(g, target_density(target, g.grid, beta))


def fisher_information(g: GridDensity, target: Potential, beta: float) -> float:
    return _divergences_of(g, target, beta)[1]


def fourth_moment_m0(g: GridDensity, target: Potential, beta: float) -> float:
    return _divergences_of(g, target, beta)[2]


def tv_distance(g: GridDensity, target: Potential, beta: float) -> float:
    """Total variation in the unhalved convention: integral of |g - rho*| (range [0,2])."""
    return _divergences_of(g, target, beta)[3]


def w2_1d(samples_a: np.ndarray, samples_b: np.ndarray) -> float:
    """Quantile-coupling Wasserstein-2 distance of two sorted 1-D samples."""
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size or a.size == 0:
        raise ParameterError("w2_1d needs two equal-length 1-D sample arrays")
    if np.any(np.diff(a) < 0) or np.any(np.diff(b) < 0):
        raise ParameterError("w2_1d inputs must be sorted ascending")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def grid_quantiles(g: GridDensity, probs: np.ndarray) -> np.ndarray:
    """Quantile function of a 1-D grid density via its trapezoid CDF."""
    if g.grid.dim != 1:
        raise ParameterError("grid_quantiles requires a 1-D density")
    x = g.grid.axes[0]
    dx = g.grid.spacing[0]
    mid = 0.5 * (g.values[1:] + g.values[:-1]) * dx
    cdf = np.concatenate([[0.0], np.cumsum(mid)])
    cdf /= cdf[-1]
    return np.interp(probs, cdf, x)


def w2_to_target_1d(samples: np.ndarray, reference: GridDensity) -> float:
    """W2 between a 1-D sample and a 1-D target density, via exact quantile coupling.

    reference is the target on its grid, e.g.
    target_density(target, Grid((axis,)), beta, check_truncation=False).
    """
    s = np.sort(np.asarray(samples, dtype=float))
    q = grid_quantiles(reference, (np.arange(s.size) + 0.5) / s.size)
    return w2_1d(s, np.sort(q))


def w2_grids_1d(g: GridDensity, other: GridDensity) -> float:
    """W2 of two 1-D grid densities from their cached w2_quantiles."""
    return w2_1d(g.w2_quantiles, other.w2_quantiles)


# --------------------------------------------------------- FP right side

def fp_rhs(g: GridDensity, target: Potential, beta: float) -> np.ndarray:
    """div(rho*grad V) + beta^{-1}*Laplacian(rho), in conservative flux form.

    Central differences inside, one-sided at the boundary; the flux form
    keeps the discrete integral of the output near zero.
    """
    if any(n < 5 for n in g.grid.shape):
        raise ParameterError("fp_rhs needs at least 5 points per axis")
    gv = target.grad_fn(g.grid.points)
    rhs = np.zeros_like(g.values)
    for i, dx in enumerate(g.grid.spacing):
        flux = g.values * gv[:, i].reshape(g.grid.shape) \
            + central_diff(g.values, dx, i) / beta
        rhs += central_diff(flux, dx, i)
    return rhs
