"""Full two-body Hamiltonian on the product grid and its lowest eigenpairs.

This is the independent oracle the rest of the package is tested against:
H = T1 + T2 + W assembled without any adiabatic input, diagonalized
directly. The operator is kept matrix-free for probes and Rayleigh
quotients (rows carry the heavy kinetic stencil, columns the light one,
W acts pointwise); the eigensolver works on a sparse assembly of the same
pieces, built from its five diagonals, by shift-invert Lanczos at every size.
The shift sits below the Born-Oppenheimer lower bound, the ground energy of
T1 + diag lambda_0. lambda_0 comes from a caller's scan or from H's own pieces
(the scan's batched solver, one level per heavy point); either way
``grid.sturm_counts``, a Sturm count per slice, certifies it before it is used,
so the shift is verified rather than trusted. H - sigma I is then positive definite and
factored unpivoted (``projection`` shares this route). Every potential family is even under
(x1, x2) -> (-x1, -x2), and on a box centred at the origin ``model.sample_potential`` makes
the sampled W, the scan's too, exactly so; then H splits into an even and an odd sector
of half the dimension, each factored on its own, and the ground state is even
(Perron-Frobenius). Any other grid takes the full operator. Grid sums run in a fixed
order, whatever the BLAS thread count.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .grid import (Grid1D, fix_signs, kinetic_diagonals, second_difference, slice_eigenpairs,
                   sturm_counts)
from .model import ModelSpec, sample_potential

MAX_PRODUCT_DIM = 120_000   # guard against accidentally huge product grids
RESIDUAL_RTOL = 1e-9
DEFAULT_SEED = 20240817
_SHIFT_OFFSET = 1e-6        # shift-invert sigma sits this far (relative) below the BO bound


class SolverError(RuntimeError):
    """An eigensolve failed: its factorization, its Lanczos run or the residual contract."""


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
        """Sparse assembly of the same operator, from its five diagonals; built afresh on every
        access. Row-major index i n2 + j: the main diagonal is (T1 + T2) + W, the light stencil
        sits at offsets +-1 (zero across heavy rows, dropped) and the heavy one at +-n2. The
        kinetic entries are kinetic_diagonals', as in every tridiagonal solve."""
        n1, n2 = self.grid1.n, self.grid2.n
        d1, e1 = kinetic_diagonals(self.grid1, self.mass1)
        d2, e2 = kinetic_diagonals(self.grid2, self.mass2)
        main = (np.repeat(d1, n2) + np.tile(d2, n1)) + self.potential_grid.ravel()
        light = np.tile(np.append(e2, 0.0), n1)[:-1]
        heavy = np.repeat(e1, n2)
        hs = sp.diags([heavy, light, main, light, heavy], [-n2, -1, 0, 1, n2], format="csc")
        hs.eliminate_zeros()
        return hs


def assemble_full_hamiltonian(spec: ModelSpec, grid1: Grid1D, grid2: Grid1D) -> FullHamiltonian:
    """Build H = T1 + T2 + W on the product of the two grids, W from ``model.sample_potential``."""
    dim = grid1.n * grid2.n
    if dim > MAX_PRODUCT_DIM:
        raise ValueError(f"product dimension {dim} exceeds the desk-scale guard {MAX_PRODUCT_DIM}")
    return FullHamiltonian(grid1=grid1, grid2=grid2, mass1=spec.M, mass2=spec.m,
                           potential_grid=sample_potential(spec, grid1, grid2))


@dataclass
class ExactSolution:
    energies: np.ndarray   # (k,) ascending
    states: np.ndarray     # (k, n1, n2), doubly-weighted norm 1
    residuals: np.ndarray  # (k,) operator residual norms


def _bo_lower_bound(h: FullHamiltonian, lam0=None) -> float:
    """Born-Oppenheimer ground energy E_BO without the Born-Huang term: a lower bound on E_0.

    Each clamped slice obeys T2 + W[i] >= lambda_0(x1_i), so
    H >= (T1 + diag lambda_0) (x) I and the ground energy of T1 + lambda_0
    cannot exceed the lowest eigenvalue of H (Brattsev 1965, Epstein 1966).
    ``lam0`` (n1 finite numbers, else a ValueError) is a caller's scan of the same model and
    grids, or by default H's own slices' ground Ritz values from one ``grid.slice_eigenpairs``
    call, the same bits as a one-surface scan. Either is certified: ``grid.sturm_counts`` must
    count no eigenvalue of any slice T2 + W[i] at or below lam0[i] - delta, delta =
    _SHIFT_OFFSET max(1, |E_BO|) / 2, else a SolverError names the first such slice. E_BO, a
    one-row solve on the heavy grid, is a gated Ritz value, so the true BO bound lies above
    E_BO - delta, above the shift.
    """
    if lam0 is None:
        lam0 = slice_eigenpairs(h.grid2, h.mass2, h.potential_grid, 1)[0][0]
    lam0 = np.asarray(lam0, dtype=float)
    if lam0.shape != (h.grid1.n,) or not np.isfinite(lam0).all():
        raise ValueError(f"lam0 must be {h.grid1.n} finite numbers, one per heavy point")
    e_bo = float(slice_eigenpairs(h.grid1, h.mass1, lam0[None], 1)[0][0, 0])
    delta = 0.5 * _SHIFT_OFFSET * max(1.0, abs(e_bo))
    d2, e2 = kinetic_diagonals(h.grid2, h.mass2)
    below = np.flatnonzero(sturm_counts(d2 + h.potential_grid, e2, (lam0 - delta)[:, None]))
    if below.size:
        i = int(below[0])
        raise SolverError(f"lambda_0 is not a lower bound: slice {i} is not positive definite "
                          f"when shifted down by {float(lam0[i] - delta)!r}")
    return e_bo


def _ncv(k: int) -> int:
    """Lanczos basis size for k shift-invert eigenpairs: 7 at k = 1, else max(20, 8k + 4)."""
    return 7 if k == 1 else max(20, 8 * k + 4)


def _lowest_above(e_bo: float, dim: int, factor, k: int, seed: int, vectors: bool = True):
    """Lowest k eigenvalues (ascending; with unit eigenvectors if ``vectors``) of a symmetric
    operator bounded below by ``e_bo``, by shift-invert Lanczos.

    The shift sits _SHIFT_OFFSET (relative) below the bound, so the k nearest
    eigenvalues are the lowest k, and Lanczos converges in few solves.
    ``factor(sigma)`` factors the operator minus sigma I once and returns its
    solve, ARPACK's OPinv and all it reads of the operator. The start vector
    is seeded, so reruns are bit-identical. Any failure is a SolverError.
    """
    v0 = np.random.default_rng(seed).standard_normal(dim)
    sigma = e_bo - _SHIFT_OFFSET * max(1.0, abs(e_bo))
    # ARPACK's default ncv, max(2k+1, 20), needs a restart at k >= 3 for some
    # start vectors; _ncv(k) takes one pass for every seed on the bundled
    # configs (k = 3..6), and at k = 1 7 vectors take 8 solves where 20 took
    # 21. ARPACK needs k < ncv <= dim.
    # ARPACK accepts a Ritz value theta once its error bound is at most tol max(eps^(2/3),
    # |theta|) (dsconv), an absolute test that stops short of the residual contract where
    # theta = 1/(E - sigma) is tiny; so it solves H/s, s a power of two (exact) near |sigma|.
    s = 2.0 ** round(math.log2(max(1.0, abs(sigma))))
    try:
        solve = factor(sigma)
        opinv = LinearOperator((dim, dim), matvec=lambda x: s * solve(x), dtype=float)
        out = eigsh(opinv, k=k, sigma=sigma / s, which="LM", v0=v0, ncv=min(_ncv(k), dim),
                    OPinv=opinv, return_eigenvectors=vectors)
    except Exception as exc:
        raise SolverError(f"iterative eigensolve failed: {exc}") from exc
    vals, vecs = out if vectors else (out, None)
    order = np.argsort(vals)
    return (s * vals[order], vecs[:, order]) if vectors else s * vals[order]


def solve_exact(h: FullHamiltonian, k: int, seed: int = DEFAULT_SEED,
                lam0=None) -> ExactSolution:
    """Lowest k eigenpairs of the product-grid Hamiltonian.

    ``_lowest_above`` with the Born-Oppenheimer lower bound ``_bo_lower_bound(h, lam0)``.
    ``lam0``, lambda_0(x1_i) from a scan of the same model and grids, saves H's own n1 light
    solves; either lambda_0 is certified before anything is factored, so a bad one is a
    ValueError or a SolverError, never a wrong shift. H - sigma I is then positive
    definite, so its unpivoted symmetric-mode factorization (an LDL^T, built once per
    operator) is ARPACK's OPinv.

    Inversion parity. If W equals W[::-1, ::-1] bit for bit (``assemble_full_hamiltonian``
    makes it so where it is to round-off) and n1 n2 is even, H commutes with the flat-index
    reversal J, (i, j) -> (n1-1-i, n2-1-j). With [[A11, A12], [A21, A22]] its halves, H
    splits into the even sector A11 + A12 J and the odd sector A11 - A12 J, each of
    dimension n1 n2 / 2 and exactly symmetric, and each is factored and solved on its own
    from the same sigma. H - sigma has non-positive off-diagonals on a connected stencil, so
    by Perron-Frobenius its ground state is even: the even sector gives k levels and the odd
    k - 1 (not built at k = 1), merged by energy. Any other W, and a grid whose centre point
    is its own mirror image (n1, n2 both odd), takes the full operator.
    Most supernodes of these grid factors are 1-4 columns wide, so 5-column panels
    factor them in 13-23% less time than SuperLU's default 20, with the same fill.
    Residuals are verified against H, ``|H v - E v| <= 1e-9 |E|``, and reported. A failed
    factorization or Lanczos run is a SolverError.
    """
    if not 1 <= k <= 20:
        raise ValueError("k must be between 1 and 20 (desk scale)")
    dim = h.dim
    if k >= dim:
        raise ValueError("k must be smaller than the product dimension")
    e_bo = _bo_lower_bound(h, lam0)
    hs, w, half = h.as_sparse, h.potential_grid, dim // 2
    sectors = [(hs, k, 0.0)]  # (operator, levels, parity); parity 0 is the full operator
    if dim % 2 == 0 and np.array_equal(w, w[::-1, ::-1]):
        a11, a12j = hs[:half, :half], hs[:half, half:][:, ::-1]
        sectors = [(a11 + a12j, k, 1.0)] + ([(a11 - a12j, k - 1, -1.0)] if k > 1 else [])
    vals, vecs = [], []
    for op, levels, parity in sectors:
        v, x = _lowest_above(e_bo, op.shape[0], _symmetric_factor(op), levels, seed)
        vals.append(v)
        vecs.append(np.vstack([x, parity * x[::-1]]) / math.sqrt(2.0) if parity else x)
    vals, vecs = np.concatenate(vals), np.hstack(vecs)
    order = np.argsort(vals, kind="stable")[:k]
    vals, vecs = vals[order], vecs[:, order]

    resid = (hs @ vecs - vecs * vals).T.reshape(k, h.grid1.n, h.grid2.n)
    residuals = np.array([math.sqrt(_grid_dot(r, r)) for r in resid])
    bounds = RESIDUAL_RTOL * np.maximum(np.abs(vals), 1e-6)
    if np.any(residuals > bounds):
        raise SolverError(
            f"eigensolver residuals {residuals.tolist()} exceed the contract "
            f"{RESIDUAL_RTOL} * |E|")

    # Deterministic global signs; rescale unit Euclidean vectors to the
    # doubly-weighted norm.
    states = fix_signs(vecs.T.copy()).reshape(k, h.grid1.n, h.grid2.n)
    states /= np.sqrt(h.grid1.h * h.grid2.h)
    return ExactSolution(energies=vals, states=states, residuals=residuals)


def _symmetric_factor(a: sp.csc_matrix):
    """``factor`` for ``_lowest_above`` on the sparse symmetric ``a``: SuperLU of a - sigma I in
    symmetric mode, unpivoted, MMD ordering on A^T + A, 5-column panels (the supernodes are
    mostly 1-4 columns wide)."""
    return lambda sigma: splu(a - sigma * sp.identity(a.shape[0], format="csc"),
                              permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, panel_size=5,
                              options={"SymmetricMode": True}).solve


def _grid_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a * b over a real (n1, n2) grid: row sums by einsum, then math.fsum."""
    return math.fsum(np.einsum("ij,ij->i", a, b))


def product_inner(h: FullHamiltonian, a: np.ndarray, b: np.ndarray) -> float:
    """Doubly-weighted inner product of two real amplitude arrays."""
    return h.grid1.h * h.grid2.h * _grid_dot(a, b)


def rayleigh_quotient(h: FullHamiltonian, amplitudes: np.ndarray) -> float:
    """<A|H|A> / <A|A> via the matrix-free action."""
    num = product_inner(h, amplitudes, h.apply(amplitudes))
    den = product_inner(h, amplitudes, amplitudes)
    return num / den
