"""Density representations and divergence diagnostics.

Grid is the uniform tensor grid (d <= 3) a run evaluates everything on, with
its trapezoid weights and points. GridDensity holds nonnegative values on a
Grid with trapezoid-quadrature mass ~ 1. ParticleEnsemble is the sampler
state. All divergences (KL, relative Fisher information, fourth-moment
functional M0, total variation) are trapezoid estimates against the Gibbs
target exp(-beta*V)/Z with Z computed on the same grid. The 1-D Gaussian
blur by FFT (heat_kernel, fft_kernels, fft_blur) serves both the proximal
operator and the binned KDE.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .errors import DegenerateDensityError, ParameterError, TruncationError
from .potentials import Potential

TAIL_MASS_TOL = 1e-8      # refused if more target mass than this lies off-grid
GRID_EXTENSION = 0.25     # fractional span appended per side for the tail check
LOG_FLOOR = 1e-300        # densities are clamped to this before taking logs
KDE_BLOCK = 128           # axis-0 grid rows per block of the KDE
SLAB_POINTS = 1 << 14     # widened-grid points per slab of the truncation check
W2_QUANTILES = 512        # midpoint quantile levels w2_grids_1d couples
BLUR_EXACT_BELOW = 1e-6   # 1-D FFT blur: recompute densely below this share of the peak
KDE_BIN_SPACING = 0.1     # a 1-D KDE may be binned where dx <= this * bandwidth


def uniform_axis(lo: float, hi: float, n: int) -> np.ndarray:
    if not (hi > lo) or n < 2:
        raise ParameterError(f"bad axis spec lo={lo} hi={hi} n={n}")
    return np.linspace(lo, hi, int(n))


def trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    w = np.full(axis.size, axis[1] - axis[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


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
            if not (steps[0] > 0 and np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)):
                raise ParameterError("axes must be increasing and uniformly spaced")
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
        """Per-axis gradient of log(density): central inside, one-sided at the ends."""
        logv = self.log_values
        return [np.gradient(logv, dx, axis=i) for i, dx in enumerate(self.grid.spacing)]

    def marginal_first(self) -> "GridDensity":
        """First-axis marginal (trapezoid over remaining axes)."""
        if self.grid.dim == 1:
            return self
        vals = self.values
        for i in range(self.grid.dim - 1, 0, -1):
            vals = np.tensordot(vals, trapezoid_weights(self.grid.axes[i]), axes=([i], [0]))
        return GridDensity(self.grid.marginal, vals).normalize()


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


# ------------------------------------------------------------ 1-D blur

def heat_kernel(axis: np.ndarray, T: float, beta: float = 1.0) -> np.ndarray:
    """Toeplitz vector of the heat kernel of variance 2T/beta at the offsets
    k = -(G-1) .. G-1 of a uniform axis: kern[G-1+k] = c*exp(-beta*(k*dx)^2/(4T)),
    c = sqrt(beta/(4*pi*T)). Entries below the smallest normal float are set
    to 0: products with subnormal operands run on the CPU's slow microcode path.
    """
    off = axis - axis[0]
    kern = np.sqrt(beta / (4 * np.pi * T)) * np.exp(-beta * off**2 / (4 * T))
    kern[kern < np.finfo(float).tiny] = 0.0
    return np.concatenate((kern[:0:-1], kern))


def fft_kernels(vecs) -> tuple:
    """(fft_len, band, [(vec, spectrum), ...]) of Toeplitz vectors on G points, for fft_blur.

    fft_len is the smallest of 2^k, 3*2^k, 5*2^k >= 2G - 1, so the kept
    slice of a circular convolution this long has no wrap-around; band is
    the widest offset where the first vector, the kernel, is nonzero.
    """
    g = (vecs[0].size + 1) // 2
    fft_len = min(c << (-(-(2 * g - 1) // c) - 1).bit_length() for c in (1, 3, 5))
    band = int(np.flatnonzero(vecs[0][g - 1:])[-1])
    return fft_len, band, [(vec, np.fft.rfft(vec, fft_len)) for vec in vecs]


def fft_blur(u: np.ndarray, kernels, fft_len: int, band: int) -> list:
    """out[i] = sum_j vec[G-1+i-j] * u[j] for each (vec, spectrum) pair of fft_kernels.

    One forward FFT of the zero-padded input u (grid values times their
    quadrature weights, or bin counts) serves every kernel. The FFT's error
    is absolute, about 1e-16 of the peak at every entry, so every entry where
    the first blur is below BLUR_EXACT_BELOW of its peak is recomputed
    exactly, for every kernel alike: each contiguous run of such entries
    (leading, interior or trailing) is one np.correlate of the Toeplitz
    vector with the inputs it can reach. The tails are thus exact sums, and
    the kept entries are within about 1e-10 of the dense blur relative to
    the blur of |u|. A quotient of a later blur by the first moves by about
    1e-10 * max|later| / max(first) at most where it is not recomputed.

    A run [a, b) correlates over the inputs j from max(first nonzero,
    a - band) to min(last nonzero, b - 1 + band), band being the widest
    offset with a nonzero kernel entry (a later vector must be 0 wherever
    the kernel is). The products left out are exact zeros, so the sums
    differ from the full ones only in their order, and a run no input
    reaches is 0.
    """
    g = u.size
    u_hat = np.fft.rfft(u, fft_len)
    outs = [np.fft.irfft(u_hat * k_hat, fft_len)[g - 1:2 * g - 1] for _, k_hat in kernels]
    mag = np.abs(outs[0])
    low = np.zeros(g + 2, dtype=bool)        # padded: every run has both edges
    np.less(mag, BLUR_EXACT_BELOW * mag.max(), out=low[1:-1])
    runs = np.flatnonzero(low[1:] != low[:-1]).reshape(-1, 2)    # [start, stop) rows
    if runs.size:
        # out[i] = sum_j kern[G-1+i-j] u[j], which is the convolution; a run
        # [a, b) needs only the j in [a - band, b - 1 + band] with u[j] != 0
        nonzero = np.flatnonzero(u)
        first, last = nonzero[0], nonzero[-1]
        u_rev = u[::-1].copy()
        for a, b in runs:
            lo, hi = max(first, a - band), min(last, b - 1 + band)
            for out, (kern, _) in zip(outs, kernels):
                out[a:b] = (np.correlate(kern[g - 1 + a - hi:g + b - 1 - lo],
                                         u_rev[g - 1 - hi:g - lo], "valid")
                            if lo <= hi else 0.0)
    return outs


# ------------------------------------------------------------ estimators

def kde(ensemble: ParticleEnsemble, bandwidth, query_axes: Grid) -> GridDensity:
    """Gaussian-product-kernel density estimate, normalized on the Grid query_axes.

    bandwidth: positive float, per-axis array, or "auto" for the Silverman
    rule (4/(d+2))^{1/(d+4)} N^{-1/(d+4)} * per-axis sample std, which in
    1-D is exactly (4/(3N))^{1/5} * std; it is read once, and a nonpositive
    or non-finite one is refused.

    The estimate is binned (_binned_kde) when the grid is 1-D, its spacing dx
    is at most KDE_BIN_SPACING times the bandwidth b, and every particle lies
    on the grid; in every other case it is the direct sums (_kde_sums).
    Binning keeps the points' mean and moves each one's kernel by the Taylor
    term f(1-f)/2 * dx^2 * K'', so the two differ by O((dx/b)^2) relative to
    the peak (Hall and Wand 1996, J. Multivariate Anal. 56). The leading term
    is largest, (dx/b)^2 / 8, for one point midway between two nodes; the
    largest measured ratio of |binned - direct| / peak to (dx/b)^2 was 0.120,
    over clusters of 2 to 7 such points. For clouds of 50, 500 and 2000
    points from N(0, 2), N(0.3, 1) and the mixture of N(+-2, 1), five draws
    each, the largest |binned - direct| / peak was 6.0e-4 at dx =
    KDE_BIN_SPACING * b and 2.2e-5 on the 2401- and 4801-point default grids
    (dx = 0.01, dx/b at most 0.044).
    """
    d = query_axes.dim
    if ensemble.dim != d:
        raise ParameterError(f"ensemble dim {ensemble.dim} != query grid dim {d}")
    pts = ensemble.points
    if isinstance(bandwidth, str):
        if bandwidth != "auto":
            raise ParameterError(f"unknown bandwidth spec {bandwidth!r}")
        bw = silverman_bandwidth(pts)
    else:
        bw = np.broadcast_to(np.asarray(bandwidth, dtype=float), (d,)).copy()
    if not np.all((bw > 0) & (bw < np.inf)):
        raise ParameterError(f"bandwidth must be positive and finite, got {bw}")
    x, axis = pts[:, 0], query_axes.axes[0]
    if (d == 1 and query_axes.spacing[0] <= KDE_BIN_SPACING * bw[0]
            and axis[0] <= x.min() and x.max() <= axis[-1]):
        return _binned_kde(x, float(bw[0]), query_axes)
    return _kde_sums(pts, bw, query_axes)


def _kde_sums(points: np.ndarray, bw: np.ndarray, grid: Grid) -> GridDensity:
    """The direct Gaussian-kernel sums of the (N, d) points with per-axis bandwidths bw.

    One code path serves d = 1, 2 and 3; memory is O(KDE_BLOCK * N + N *
    G_1...G_{d-1}) for a grid of shape (G_0, ..., G_{d-1}), so a 41^3 grid
    with N = 500 holds a 6.7 MB right-hand side.
    """
    # Each axis's kernel exp(-(x - p)^2/(2b^2)) takes its exponent from one
    # GEMM, [x, 1, x^2] . [p/b^2, -p^2/(2b^2), -1/(2b^2)], clamped at 0
    # against rounding. Axes 1..d-1 fold into the right-hand side: it starts
    # as the scale 1/(N prod(b) sqrt(2 pi)^d) of each particle, and each axis
    # multiplies in its kernel particle by particle (a Khatri-Rao product), to
    # shape (G_1...G_{d-1}, N); in 1-D it is the scale vector. Axis 0 then runs
    # KDE_BLOCK grid rows at a time: GEMM, minimum, exp, and a GEMM with the
    # right-hand side.
    n, d = points.shape
    folds = []
    for ax, p, b in zip(grid.axes, points.T, bw):
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
    return GridDensity(grid, vals.reshape(grid.shape)).normalize()


def _binned_kde(x: np.ndarray, bandwidth: float, grid: Grid) -> GridDensity:
    """Linearly binned Gaussian KDE of the 1-D points x, normalized on the 1-D grid.

    Each point is split between the two nodes of its cell, with weight 1 - f
    on the left node and f on the right, f being its fraction of the cell
    (two np.bincount calls), and the bin counts are blurred with the
    Gaussian of variance bandwidth^2, which is heat_kernel at T =
    bandwidth^2/2 and beta = 1, by fft_blur, whose exact tail repair keeps
    every value a nonnegative sum. Every point must lie on the grid: the
    binning would fold one outside onto the edge node. A point on the last
    node is held there (f = 1) against the rounding of (x - lo)/dx. kde
    states when it bins and how far the result is from the direct sums.
    """
    axis = grid.axes[0]
    t = np.minimum((x - axis[0]) / grid.spacing[0], axis.size - 1)
    i0 = np.minimum(t.astype(np.intp), axis.size - 2)      # t >= 0: truncation is floor
    frac = t - i0
    counts = np.bincount(i0, 1.0 - frac, axis.size)
    counts += np.bincount(i0 + 1, frac, axis.size)
    fft_len, band, kernels = fft_kernels([heat_kernel(axis, bandwidth ** 2 / 2)])
    return GridDensity(grid, fft_blur(counts, kernels, fft_len, band)[0]).normalize()


def silverman_bandwidth(points: np.ndarray) -> np.ndarray:
    n, d = points.shape
    factor = (4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0))
    return factor * points.std(axis=0, ddof=1)


# ------------------------------------------------------------ divergences

def divergences(g: GridDensity, rs: GridDensity, grad_v: np.ndarray,
                beta: float) -> tuple:
    """(KL, relative Fisher information, M0, TV) of g in one pass.

    rs is target_density(target, g.grid, beta) and grad_v is
    grid_gradient(target, g.grid), both built once per run by the caller: the
    gradient per axis, grad_v[i] being d_i V on the grid's shape. The
    standalone functions below build (and truncation-check) them per call.

    Each axis's central-difference score becomes its term of the relative
    score's square in place, and one temporary serves the weighted sums, so
    the floats are those of the plain formulas, w*sq*g, w*sq*sq*g/beta^2 and
    w*|g - rs|, term by term and in the same summation order.
    """
    w, vals = g.grid.weights, g.values
    sq = tmp = None
    for i, dx in enumerate(g.grid.spacing):
        s = np.gradient(g.log_values, dx, axis=i)
        tmp = np.multiply(grad_v[i], beta, out=tmp)
        s += tmp
        s *= s
        if sq is None:
            sq = s
        else:
            sq += s
    np.multiply(w, sq, out=tmp)
    sq *= tmp
    tmp *= vals
    fisher = float(np.sum(tmp))
    sq *= vals
    m0 = float(beta ** (-2) * np.sum(sq))
    np.subtract(vals, rs.values, out=tmp)
    np.abs(tmp, out=tmp)
    tmp *= w
    return relative_entropy(g, rs), fisher, m0, float(np.sum(tmp))


def relative_entropy(g: GridDensity, rs: GridDensity) -> float:
    """KL(g || rs) of two densities on the same grid."""
    vals = g.values
    integrand = np.subtract(g.log_values, rs.log_values)
    integrand *= vals
    integrand[~(vals > 0)] = 0.0
    integrand *= g.grid.weights
    return float(np.sum(integrand))


def grid_gradient(target: Potential, grid: Grid) -> np.ndarray:
    """grad V at the grid points per axis, read-only: shape (d,) + grid.shape, C-ordered."""
    gv = np.ascontiguousarray(target.grad_fn(grid.points).T).reshape((grid.dim,) + grid.shape)
    gv.flags.writeable = False
    return gv


def _divergences_of(g: GridDensity, target: Potential, beta: float) -> tuple:
    return divergences(g, target_density(target, g.grid, beta),
                       grid_gradient(target, g.grid), beta)


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
    gv = grid_gradient(target, g.grid)
    rhs = np.zeros_like(g.values)
    for i, dx in enumerate(g.grid.spacing):
        flux = g.values * gv[i] \
            + np.gradient(g.values, dx, axis=i) / beta
        rhs += np.gradient(flux, dx, axis=i)
    return rhs
