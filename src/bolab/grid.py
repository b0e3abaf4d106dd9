"""Uniform 1-D Dirichlet grids, stencil operators, and grid-weighted norms.

Everything downstream (clamped scans, nuclear solves, the product-grid Hamiltonian) is
assembled from the pieces defined here: a uniform discretization of an interval with hard-wall
boundaries, the 3-point Dirichlet stencil (axis-0 applies and the kinetic tridiagonal), the
h-weighted norm that makes sampled wavefunctions behave like L2 vectors, the one solver for the
lowest eigenpairs of every tridiagonal problem (the scan's slices, the nuclear levels and the
oracle's Born-Oppenheimer bound), the one Sturm count of slice eigenvalues at or below a bound
(that solver's gate on every level and the oracle's lambda_0), the sign convention of every
computed eigenvector, and the one inversion-even sampled potential that the scan and the oracle
read. No other module writes the stencil out or imports from ``scipy.linalg.lapack``.

Units are hbar = 1 throughout; one coordinate per particle.
"""

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs, dstebz

MIN_POINTS = 8

_EPS = np.finfo(float).eps
_CHUNK = 64            # slices per batch: bounds the solver's working memory
_BRACKET_RTOL = 1e-9   # stebz ABSTOL over the slice norm; three sweeps then converge
_SWEEPS = 3
_GATE_ULPS = 16.0      # residual and count slack, in eps times the slice norm
_SYMMETRY_ULPS = 64.0  # |W - W[::-1, ::-1]| allowed of an inversion-even W, in eps max|W|


@dataclass(eq=True)
class Grid1D:
    """Uniform interior-point grid on (x_min, x_max) with Dirichlet walls.

    Interior point i (0-based) sits at ``x_min + (i + 1) * h`` with
    ``h = (x_max - x_min) / (n + 1)``; wavefunctions vanish at both ends.
    Treat instances as immutable after construction.
    """

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("grid bounds must be finite")
        if not self.x_min < self.x_max:
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if not math.isfinite(self.length):
            raise ValueError(f"grid length x_max - x_min = {self.length} is not finite")
        if self.n < MIN_POINTS:
            raise ValueError(f"n = {self.n} is an unusable discretization (need n >= {MIN_POINTS})")
        h2 = self.h * self.h
        if h2 == 0.0 or not math.isfinite(1.0 / h2):
            raise ValueError(f"grid spacing h = {self.h!r} is too fine: 1/h^2 is not finite")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n + 1)

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @cached_property
    def points(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(1, self.n + 1)


def build_grid(x_min: float, x_max: float, n: int) -> Grid1D:
    """Construct a validated Grid1D (rejects n < 8, non-finite bounds or length, and a
    spacing whose 1/h^2 is not finite)."""
    return Grid1D(float(x_min), float(x_max), int(n))


@dataclass
class GridFunction:
    """Sampled wavefunction: one (possibly complex) amplitude per interior point."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.n,):
            raise ValueError(f"values shape {self.values.shape} does not match grid n = {self.grid.n}")

    def norm(self) -> float:
        return float(np.sqrt(self.grid.h * np.sum(np.abs(self.values) ** 2)))


def second_difference(a: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Dirichlet 3-point d^2/dx^2 applied along axis 0 (zero beyond both walls).

    Row i is ``((-2 a_i + a_{i-1}) + a_{i+1}) / h^2``. Keep this summation
    order: the Rayleigh quotients written to the artifacts are pinned to it.
    """
    out = -2.0 * a
    out[1:] += a[:-1]
    out[:-1] += a[1:]
    return out / (grid.h * grid.h)


def central_difference(a: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Dirichlet central-difference d/dx applied along axis 0 (zero beyond both walls)."""
    out = np.zeros_like(a, dtype=np.result_type(a, 1.0))
    out[:-1] += a[1:]
    out[1:] -= a[:-1]
    return out / (2.0 * grid.h)


def kinetic_diagonals(grid: Grid1D, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of -(1/2 mass) d^2/dx^2: the one kinetic tridiagonal.

    Built as ``2 kin`` and ``-kin`` with ``kin = 1/(2 mass h^2)``. The slice and
    nuclear spectra, the oracle's sparse H and its shift, and the compressed
    Hamiltonian are all pinned to this rounding.
    """
    kin = 1.0 / (2.0 * mass * grid.h * grid.h)
    return np.full(grid.n, 2.0 * kin), np.full(grid.n - 1, -kin)


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each vector along the last axis, in place, so that its first entry of magnitude
    at least half the largest is positive; returns ``vectors``.

    A largest-|entry| rule lets round-off pick the sign of a mirror-antisymmetric vector,
    whose two largest entries are mirror points of opposite sign; this rule does not.
    """
    mag = np.abs(vectors)
    lead = np.argmax(mag >= 0.5 * mag.max(axis=-1, keepdims=True), axis=-1)
    flip = np.take_along_axis(vectors, lead[..., None], axis=-1)[..., 0] < 0
    vectors[flip] = -vectors[flip]
    return vectors


def inversion_even(w: np.ndarray) -> bool:
    """Whether the sampled potential ``w`` (n1, n2) is even under (i, j) -> (n1-1-i, n2-1-j):
    finite, with |W - W[::-1, ::-1]| <= _SYMMETRY_ULPS eps max|W|."""
    return bool(np.isfinite(w).all()
                and np.abs(w - w[::-1, ::-1]).max() <= _SYMMETRY_ULPS * _EPS * np.abs(w).max())


def even_potential(w: np.ndarray) -> np.ndarray:
    """The sampled potential ``w`` (n1, n2), made exactly inversion-even where
    ``inversion_even(w)``: the second half of its row-major entries becomes the first half
    reversed, in place for a C-contiguous ``w``. Rows 0 .. n1//2 - 1 keep their bits."""
    flat, half = w.ravel(), w.size // 2
    if inversion_even(w):
        flat[::-1][:half] = flat[:half]
    return flat.reshape(w.shape)


def ritz_error_bound(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Per row of ``d``, the solver's gate on |Ritz value - eigenvalue|: _GATE_ULPS eps |T|."""
    return _GATE_ULPS * _EPS * (np.abs(d).max(axis=-1) + 2.0 * np.abs(e).max())


def sturm_counts(d: np.ndarray, e: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Entry (i, m), of shape ``mu`` (r, k): the number of eigenvalues of the symmetric
    tridiagonal (``d[i]``, ``e``), ``d`` (r, n), at or below ``mu[i, m]``; a slice or shift that
    is not finite counts n. One LAPACK bisection count (``stebz``, RANGE='V', no refinement) per
    entry: its Sturm recurrence counts pivots <= 0, and their signs are the exact inertia of a
    tridiagonal a few ulps away (Demmel 1997, section 5.3.4)."""
    n = d.shape[1]
    off = e if n > 1 else np.zeros(1)  # f2py wants e non-empty at n = 1
    finite = np.isfinite(d).all(axis=1) & bool(np.isfinite(e).all())
    return np.array([[dstebz(row, off, 1, -np.inf, x, 0, 0, np.inf, "E")[0]
                      if ok and math.isfinite(x) else n for x in shifts]
                     for row, ok, shifts in zip(d, finite, mu)], dtype=int).reshape(mu.shape)


def slice_eigenpairs(grid: Grid1D, mass: float, w: np.ndarray, A: int,
                     vectors=None) -> tuple[np.ndarray, bool]:
    """``_lowest_eigenpairs`` of the r slices -(1/2 mass) d^2/dx^2 + diag w[i] on ``grid``, the
    one way into that solver, and whether the slices were mirrored: (energies (A, r), mirrored).

    If ``w`` equals w[::-1, ::-1] bit for bit, the test of the oracle's parity sectors, slice
    r-1-i is slice i reversed, so only slices 0 .. ceil(r/2)-1 are solved and slice r-1-i gets
    slice i's values and reversed vectors (signs as reversed). ``even_potential`` makes a
    sampled W so wherever it is even to round-off. Any other ``w`` has all r slices solved.
    """
    d, e = kinetic_diagonals(grid, mass)
    mirrored = np.array_equal(w, w[::-1, ::-1])
    half = (len(w) + 1) // 2 if mirrored else len(w)
    part = None if vectors is None else vectors[:, :half]
    energies = _lowest_eigenpairs(d + w[:half], e, A, part)
    if vectors is not None:
        vectors[:, half:] = part[:, :len(w) - half][:, ::-1, ::-1]
    return np.hstack([energies, energies[:, :len(w) - half][:, ::-1]]), mirrored


def _lowest_eigenpairs(d: np.ndarray, e: np.ndarray, A: int, vectors=None) -> np.ndarray:
    """Lowest A eigenvalues, shape (A, r), of the r symmetric tridiagonals (``d[i]``, ``e``);
    with ``vectors``, an (A, r, n) array, also their unit eigenvectors, fix_signs applied.

    Per chunk of _CHUNK slices: (1) LAPACK bisection (``stebz``) brackets each level to
    _BRACKET_RTOL |T|, |T| = max|d| + 2 max|e|; (2) per level, one ``gttrf`` of the slices
    shifted to their bracket midpoints, stacked uncoupled by a zero at each boundary, then
    _SWEEPS ``gttrs`` solves, each followed by Gram-Schmidt (twice) against the lower levels;
    (3) Rayleigh-Ritz, a batched (A, A) ``eigh`` per slice. A Ritz value of an orthonormal
    basis lies at or above its level, theta_a >= lambda_a (Poincare). With s =
    ``ritz_error_bound``, a gate requires each residual within s and ``sturm_counts`` at
    theta_a - s to be at most a, so lambda_a > theta_a - s: every level, A-1 included, is its
    indexed eigenvalue to within s, and an exact cluster passes. A slice that fails is solved
    once more with brackets to eps |T| and level a started from the start rolled by a;
    failing again is a RuntimeError, as is a non-finite entry. Each step treats each slice on
    its own: a slice gets the same bits in any batch.
    """
    r, n = d.shape
    finite = np.isfinite(d).all(axis=1) & bool(np.isfinite(e).all())
    if not finite.all():
        raise RuntimeError(f"slice {int(np.argmin(finite))} has a non-finite matrix entry")
    energies = np.empty((A, r))
    start = np.random.default_rng(0).uniform(-1.0, 1.0, n)  # one fixed start for every slice
    for lo in range(0, r, _CHUNK):
        rows = slice(lo, min(r, lo + _CHUNK))
        z = np.empty((A, rows.stop - lo, n)) if vectors is None else vectors[:, rows]
        failed = _solve_chunk(d[rows], e, start, 0, _BRACKET_RTOL, energies[:, rows], z)
        if failed.size:
            again_e, again_z = np.empty((A, failed.size)), np.empty((A, failed.size, n))
            still = _solve_chunk(d[rows][failed], e, start, 1, _EPS, again_e, again_z)
            if still.size:
                raise RuntimeError(f"slice {lo + failed[still[0]]}: tridiagonal eigenpairs miss "
                                   "the residual gate")
            energies[:, lo + failed], z[:, failed] = again_e, again_z
    return energies


def _solve_chunk(d, e, start, roll, rtol, energies, z) -> np.ndarray:
    """One chunk of _lowest_eigenpairs, brackets to ``rtol`` |T| (only the shifts) and level a
    started from ``start`` rolled by ``roll * a``: writes the Ritz values into ``energies``
    (A, c), the vectors into ``z`` (A, c, n); returns the slices failing the gate."""
    A, c, n = z.shape
    norm = np.abs(d).max(axis=1) + 2.0 * np.abs(e).max()
    tol = rtol * norm
    brackets = [dstebz(d[i], e, 2, 0.0, 0.0, 1, A, tol[i], "E") for i in range(c)]
    if any(info for *_, info in brackets):
        raise RuntimeError("tridiagonal bisection (stebz) failed")
    mid = np.stack([w[:A] for _, w, *_ in brackets])
    off = np.tile(np.append(e, 0.0), c)[:-1]
    for a in range(A):
        dl, piv, du, du2, ipiv, info = dgttrf(off, (d - mid[:, a, None]).ravel(), off)
        if info > 0:  # a shift on an eigenvalue: a tiny pivot still gives its direction
            zero = piv == 0.0
            piv[zero] = np.repeat(_EPS * norm, n)[zero]
        x = np.tile(np.roll(start, roll * a), c)
        for _sweep in range(_SWEEPS):
            x = dgttrs(dl, piv, du, du2, ipiv, x.ravel())[0].reshape(c, n)
            for _pass in range(2 if a else 0):
                x -= np.einsum("brn,rb->rn", z[:a], np.einsum("brn,rn->rb", z[:a], x))
            x /= np.sqrt(np.einsum("rn,rn->r", x, x))[:, None]
        z[a] = x
    # Rayleigh-Ritz, slice-major: y = U^T z, residual U^T (T z) - theta y
    tz = z * d
    tz[:, :, :-1] += e * z[:, :, 1:]
    tz[:, :, 1:] += e * z[:, :, :-1]
    zs, tzs = z.transpose(1, 0, 2), tz.transpose(1, 0, 2)
    gram = zs @ tzs.transpose(0, 2, 1)
    theta, U = np.linalg.eigh(0.5 * (gram + gram.transpose(0, 2, 1)))
    y = U.transpose(0, 2, 1) @ zs
    res = U.transpose(0, 2, 1) @ tzs - theta[:, :, None] * y
    slack = ritz_error_bound(d, e)[:, None]
    good = ((np.sqrt(np.einsum("rbn,rbn->rb", res, res)) <= slack)
            & (sturm_counts(d, e, theta - slack) <= np.arange(A))).all(axis=1)
    energies[:] = theta.T
    z[:] = fix_signs(y).transpose(1, 0, 2)
    return np.flatnonzero(~good)
