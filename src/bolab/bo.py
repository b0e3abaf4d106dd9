"""Nuclear solves on a scanned surface, product-state assembly, and the
diagnostics that quantify how good the adiabatic factorization is.

The heavy particle is solved on a single surface a:

    [-(1/2M) d^2/dx1^2 + lambda_a(x1)] theta(x1) = E theta(x1)

by the scan's own gated tridiagonal solver on the one kinetic tridiagonal of
:mod:`bolab.grid`, and the trial state Psi(x1, x2) = theta(x1) psi_a(x1; x2)
is assembled on the product grid. Two diagnostics measure the neglected
x1-dependence of the slice states: the per-slice norm of d psi_a / d x1, and
the matrix of heavy-kinetic couplings between assembled states. The
couplings are the on-grid T1 of the exact oracle taken between slice-product
states, so they reduce to the neighbour-slice overlaps that the compressed
Hamiltonian of :mod:`bolab.projection` is built from. The Born-Huang term is
no separate operator either: it is what the rank-1 compression adds to E_BO.
"""

from dataclasses import dataclass

import numpy as np

from .clamped import ElectronicField
from .grid import Grid1D, GridFunction, central_difference, kinetic_diagonals, slice_eigenpairs
from .model import ModelSpec


@dataclass
class NuclearSolution:
    """Eigenpairs of the heavy particle on one surface; theta rows h1-normalized."""

    surface_index: int
    grid1: Grid1D
    energies: np.ndarray       # (n_levels,) ascending
    wavefunctions: np.ndarray  # (n_levels, n1), real, signs by grid.fix_signs

    def theta(self, n: int) -> GridFunction:
        return GridFunction(self.grid1, self.wavefunctions[n])


@dataclass
class ProductState:
    """Assembled trial state theta(x1) psi_a(x1; x2) with unit doubly-weighted norm."""

    grid1: Grid1D
    grid2: Grid1D
    amplitudes: np.ndarray  # (n1, n2)
    surface: int
    level: int


@dataclass
class ResidualReport:
    """Norm of the x1-derivative of one surface's slice states."""

    surface: int
    per_slice: np.ndarray  # (n1 - 2,) interior slices
    max: float
    mean: float            # x1-weighted (uniform grid: plain interior average)


def solve_nuclear(field: ElectronicField, spec: ModelSpec, a: int, n_levels: int) -> NuclearSolution:
    """Lowest n_levels eigenpairs of the heavy particle on surface ``a``.

    A one-row ``grid.slice_eigenpairs`` call on -(1/2M) d^2/dx1^2 + lambda_a: Ritz values
    within ``grid.ritz_error_bound`` of the true ones by its residual gate, vectors signed by
    ``fix_signs`` and rescaled to unit h1-norm. A non-finite surface, or a gate failure,
    is a RuntimeError naming the surface.
    """
    if not 0 <= a < field.n_surfaces:
        raise ValueError(f"surface index {a} out of range (n_surfaces = {field.n_surfaces})")
    g1 = field.grid1
    if not 1 <= n_levels <= g1.n:
        raise ValueError(f"need 1 <= n_levels <= n1, got {n_levels}")
    vecs = np.empty((n_levels, 1, g1.n))
    try:
        vals = slice_eigenpairs(g1, spec.M, field.energies[a][None], n_levels, vecs)[0][:, 0]
    except RuntimeError as exc:  # the solver numbers this one matrix as its slice 0
        raise RuntimeError(f"nuclear eigensolve failed on surface {a}") from exc
    return NuclearSolution(surface_index=a, grid1=g1, energies=vals,
                           wavefunctions=vecs[:, 0] / np.sqrt(g1.h))


def assemble_product_state(sol: NuclearSolution, field: ElectronicField, n: int) -> ProductState:
    """amplitudes(i, j) = theta_n(x1_i) * psi_a(x1_i; x2_j), renormalized."""
    if sol.grid1 != field.grid1:
        raise ValueError("nuclear solution and field live on different nuclear grids")
    if not 0 <= n < len(sol.energies):
        raise ValueError(f"level {n} not present in the nuclear solution")
    a = sol.surface_index
    amp = sol.wavefunctions[n][:, None] * field.states[a]
    nrm = np.sqrt(field.grid1.h * field.grid2.h * np.sum(np.abs(amp) ** 2))
    return ProductState(grid1=field.grid1, grid2=field.grid2,
                        amplitudes=amp / nrm, surface=a, level=n)


def adiabatic_residual(field: ElectronicField, a: int) -> ResidualReport:
    """Per-slice grid2-norm of the central difference of psi_a along x1."""
    if not 0 <= a < field.n_surfaces:
        raise ValueError(f"surface index {a} out of range")
    d = central_difference(field.states[a], field.grid1)[1:-1]
    norms = np.sqrt((field.grid2.h * np.sum(d * np.conj(d), axis=1)).real)
    return ResidualReport(surface=a, per_slice=norms,
                          max=float(norms.max()), mean=float(norms.mean()))


def t1_coupling_matrix(field: ElectronicField, nuclear: dict[int, NuclearSolution],
                       levels: list[tuple[int, int]], M: float) -> np.ndarray:
    """Matrix of heavy-kinetic elements between assembled states.

    Entry (row, col) is <theta_r psi_r| T1 |theta_c psi_c> for the unnormalized
    states ``levels[row]`` and ``levels[col]``, with T1 the Dirichlet stencil
    along x1. With (d, e) = kinetic_diagonals(grid1, M), the slice states
    orthonormal within a slice and S the neighbour-slice overlaps, it is

        h1 [ (theta d theta^T) o delta(a_r, a_c) + U + U^T ],
        U_rc = sum_i theta_r(i) theta_c(i+1) e_i S[i, a_r, a_c],

    symmetric by construction. On the diagonal, S[i, a, a] < 1 lifts the entry
    above the bare heavy kinetic energy of theta by -2 e_i (1 - S[i, a, a]) per
    link, weighted by h1 theta(i) theta(i+1): the Born-Huang term, which is
    what the rank-1 compression of :mod:`bolab.projection` adds to E_BO.
    """
    for a, n in levels:
        if a not in nuclear:
            raise ValueError(f"no nuclear solution supplied for surface {a}")
        if nuclear[a].grid1 != field.grid1:
            raise ValueError("nuclear solutions must share the field's nuclear grid")
    surf = np.array([a for a, _ in levels])
    theta = np.stack([nuclear[a].wavefunctions[n] for a, n in levels])  # (k, n1)
    d, e = kinetic_diagonals(field.grid1, M)
    overlaps = field.neighbour_overlaps(field.n_surfaces)[:, surf[:, None], surf]  # (n1-1, k, k)
    diag = ((theta * d) @ theta.T) * (surf[:, None] == surf[None, :])
    upper = np.einsum("ri,ci,irc->rc", theta[:, :-1], theta[:, 1:] * e, overlaps)
    half = 0.5 * diag + upper  # adding the transpose makes the result exactly symmetric
    return field.grid1.h * (half + half.T)
