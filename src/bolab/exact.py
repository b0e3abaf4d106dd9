"""Full two-body Hamiltonian on the product grid and its lowest eigenpairs.

This is the independent oracle the rest of the package is tested against:
H = T1 + T2 + W assembled without any adiabatic input, diagonalized
directly. The operator is kept matrix-free for probes and Rayleigh
quotients (rows carry the heavy kinetic stencil, columns the light one,
W acts pointwise); the eigensolver works on a sparse assembly of the same
pieces, dense below a size threshold and shift-invert Lanczos above it.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh

from .grid import Grid1D, second_difference, stencil_diagonals
from .model import ModelSpec, evaluate_potential

DENSE_LIMIT = 4096          # largest product dimension solved by dense eigh
MAX_PRODUCT_DIM = 120_000   # guard against accidentally huge product grids
RESIDUAL_RTOL = 1e-9
DEFAULT_SEED = 20240817


class SolverError(RuntimeError):
    """Eigensolver did not reach the residual contract."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass
class FullHamiltonian:
    """Matrix-free action of T1 + T2 + W on (n1, n2) amplitude arrays."""

    grid1: Grid1D
    grid2: Grid1D
    mass1: float
    mass2: float
    potential_grid: np.ndarray  # (n1, n2)

    @property
    def dim(self) -> int:
        return self.grid1.n * self.grid2.n

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """H acting on a product-grid amplitude matrix."""
        a = np.asarray(amplitudes)
        if a.shape != (self.grid1.n, self.grid2.n):
            raise ValueError(f"amplitudes shape {a.shape} does not match product grid")
        out = self.potential_grid * a
        out -= second_difference(a, self.grid1) / (2.0 * self.mass1)
        out -= second_difference(a.T, self.grid2).T / (2.0 * self.mass2)
        return out

    @property
    def as_sparse(self) -> sp.csc_matrix:
        """Sparse assembly of the same operator; built afresh on every access."""
        t1 = _kinetic_sparse(self.grid1, self.mass1)
        t2 = _kinetic_sparse(self.grid2, self.mass2)
        h = (sp.kron(t1, sp.identity(self.grid2.n)) + sp.kron(sp.identity(self.grid1.n), t2)
             + sp.diags(self.potential_grid.ravel()))
        return h.tocsc()


def _kinetic_sparse(grid: Grid1D, mass: float) -> sp.dia_matrix:
    d, e = stencil_diagonals(grid)
    return -sp.diags([e, d, e], [-1, 0, 1]) / (2.0 * mass)


def assemble_full_hamiltonian(spec: ModelSpec, grid1: Grid1D, grid2: Grid1D) -> FullHamiltonian:
    """Build H = T1 + T2 + W on the product of the two grids."""
    dim = grid1.n * grid2.n
    if dim > MAX_PRODUCT_DIM:
        raise ValueError(f"product dimension {dim} exceeds the desk-scale guard {MAX_PRODUCT_DIM}")
    w = evaluate_potential(spec, grid1.points[:, None], grid2.points[None, :])
    return FullHamiltonian(grid1=grid1, grid2=grid2, mass1=spec.M, mass2=spec.m,
                           potential_grid=np.asarray(w, dtype=float))


@dataclass
class ExactSolution:
    energies: np.ndarray   # (k,) ascending
    states: np.ndarray     # (k, n1, n2), doubly-weighted norm 1
    residuals: np.ndarray  # (k,) operator residual norms


def solve_exact(h: FullHamiltonian, k: int, seed: int = DEFAULT_SEED) -> ExactSolution:
    """Lowest k eigenpairs of the product-grid Hamiltonian.

    Dense below DENSE_LIMIT, otherwise ARPACK in shift-invert mode with the
    shift just below min(W) (a strict lower bound on the spectrum, since the
    Dirichlet kinetic terms are positive definite). The start vector comes
    from a seeded generator so repeated runs are bit-identical. Residuals
    are verified against ``|H v - E v| <= 1e-9 |E|`` and reported.
    """
    if not 1 <= k <= 20:
        raise ValueError("k must be between 1 and 20 (desk scale)")
    dim = h.dim
    if k >= dim:
        raise ValueError("k must be smaller than the product dimension")
    hs = h.as_sparse
    if dim <= DENSE_LIMIT:
        vals, vecs = eigh(hs.toarray(), subset_by_index=(0, k - 1))
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(dim)
        wmin = float(h.potential_grid.min())
        sigma = wmin - 1e-3 * max(1.0, abs(wmin))
        try:
            vals, vecs = eigsh(hs, k=k, sigma=sigma, which="LM", v0=v0)
        except Exception as exc:
            raise SolverError(f"iterative eigensolve failed: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    residuals = np.array([np.linalg.norm(hs @ vecs[:, i] - vals[i] * vecs[:, i])
                          for i in range(k)])
    bounds = RESIDUAL_RTOL * np.maximum(np.abs(vals), 1e-6)
    if np.any(residuals > bounds):
        raise SolverError(
            f"eigensolver residuals {residuals.tolist()} exceed the contract "
            f"{RESIDUAL_RTOL} * |E|", residuals=residuals)

    # Deterministic global signs; rescale unit Euclidean vectors to the
    # doubly-weighted norm.
    weight = np.sqrt(h.grid1.h * h.grid2.h)
    states = np.empty((k, h.grid1.n, h.grid2.n))
    for i in range(k):
        v = vecs[:, i]
        j = int(np.argmax(np.abs(v)))
        if v[j] < 0:
            v = -v
        states[i] = v.reshape(h.grid1.n, h.grid2.n) / weight
    return ExactSolution(energies=vals.copy(), states=states, residuals=residuals)


def product_inner(h: FullHamiltonian, a: np.ndarray, b: np.ndarray):
    """Doubly-weighted inner product of two amplitude arrays."""
    return h.grid1.h * h.grid2.h * np.vdot(a, b)


def rayleigh_quotient(h: FullHamiltonian, amplitudes: np.ndarray) -> float:
    """<A|H|A> / <A|A> via the matrix-free action."""
    num = product_inner(h, amplitudes, h.apply(amplitudes))
    den = product_inner(h, amplitudes, amplitudes)
    return float(num.real / den.real)
