"""Uniform 1-D Dirichlet grids, stencil operators, and grid-weighted inner products.

Everything downstream (clamped scans, nuclear solves, the product-grid
Hamiltonian) is assembled from the pieces defined here: a uniform
discretization of an interval with hard-wall boundaries, the 3-point
Dirichlet stencil (axis-0 applies, tridiagonal diagonals, dense matrices),
and the h-weighted inner product that makes sampled wavefunctions behave
like L2 vectors. No other module writes the stencil out.

Units are hbar = 1 throughout; one coordinate per particle.
"""

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

MIN_POINTS = 8


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
        if self.n < MIN_POINTS:
            raise ValueError(f"n = {self.n} is an unusable discretization (need n >= {MIN_POINTS})")

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
    """Construct a validated Grid1D (rejects n < 8 and non-finite bounds)."""
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

    def normalized(self) -> "GridFunction":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero function")
        return GridFunction(self.grid, self.values / nrm)


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


def second_derivative_matrix(grid: Grid1D) -> np.ndarray:
    """Dense symmetric 3-point d^2/dx^2: diagonal -2/h^2, off-diagonals 1/h^2."""
    return second_difference(np.eye(grid.n), grid)


def first_derivative_matrix(grid: Grid1D) -> np.ndarray:
    """Dense central-difference d/dx; exactly antisymmetric."""
    return central_difference(np.eye(grid.n), grid)


def stencil_diagonals(grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of second_derivative_matrix, for banded assemblies."""
    h2 = grid.h * grid.h
    return np.full(grid.n, -2.0 / h2), np.full(grid.n - 1, 1.0 / h2)


def kinetic_diagonals(grid: Grid1D, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of -(1/2 mass) d^2/dx^2, for tridiagonal solvers.

    Built as ``2 kin`` and ``-kin`` with ``kin = 1/(2 mass h^2)``; the slice
    and nuclear spectra are pinned to this rounding.
    """
    kin = 1.0 / (2.0 * mass * grid.h * grid.h)
    return np.full(grid.n, 2.0 * kin), np.full(grid.n - 1, -kin)


def dirichlet_laplacian_eigenvalues(grid: Grid1D) -> np.ndarray:
    """Closed-form spectrum of second_derivative_matrix: -(2/h^2)(1 - cos(k pi/(n+1)))."""
    k = np.arange(1, grid.n + 1)
    return -(2.0 / grid.h**2) * (1.0 - np.cos(k * np.pi / (grid.n + 1)))


def inner(f_values: np.ndarray, g_values: np.ndarray, h: float):
    """h-weighted Riemann inner product conj(f).g on raw sample arrays."""
    return h * np.vdot(f_values, g_values)


def inner_product(f: GridFunction, g: GridFunction):
    """Grid-weighted inner product; rejects functions living on different grids."""
    if f.grid != g.grid:
        raise ValueError("inner_product requires both functions on the same grid")
    return inner(f.values, g.values, f.grid.h)
