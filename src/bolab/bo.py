"""Nuclear solves on a scanned surface, product-state assembly, and the
diagnostics that quantify how good the adiabatic factorization is.

The heavy particle is solved on a single surface a:

    [-(1/2M) d^2/dx1^2 + lambda_a(x1)] theta(x1) = E theta(x1)

and the trial state Psi(x1, x2) = theta(x1) psi_a(x1; x2) is assembled on
the product grid. Two diagnostics measure the neglected x1-dependence of
the slice states: the per-slice norm of d psi_a / d x1, and the matrix of
heavy-kinetic couplings between assembled states, computed from the
three-term product rule (theta'' psi, 2 theta' psi', theta psi'').
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .clamped import ElectronicField
from .grid import Grid1D, GridFunction, central_difference, kinetic_diagonals, second_difference
from .model import ModelSpec


@dataclass
class NuclearSolution:
    """Eigenpairs of the heavy particle on one surface; theta rows h1-normalized."""

    surface_index: int
    grid1: Grid1D
    energies: np.ndarray       # (n_levels,) ascending
    wavefunctions: np.ndarray  # (n_levels, n1), real, largest-|entry| positive

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


def born_huang_correction(field: ElectronicField, spec: ModelSpec, a: int) -> np.ndarray:
    """Diagonal correction (1/2M) <d psi/d x1 | d psi/d x1> per slice.

    Central differences on interior slices, one-sided at the two ends.
    Reported separately; added to the nuclear operator only on request.
    """
    dpsi = _slice_derivative(field.states[a], field.grid1.h)
    return (field.grid2.h * np.sum(dpsi * np.conj(dpsi), axis=1)).real / (2.0 * spec.M)


def solve_nuclear(field: ElectronicField, spec: ModelSpec, a: int, n_levels: int,
                  born_huang: bool = False) -> NuclearSolution:
    """Lowest n_levels eigenpairs of the heavy particle on surface ``a``."""
    if not 0 <= a < field.n_surfaces:
        raise ValueError(f"surface index {a} out of range (n_surfaces = {field.n_surfaces})")
    g1 = field.grid1
    if not 1 <= n_levels <= g1.n:
        raise ValueError(f"need 1 <= n_levels <= n1, got {n_levels}")
    diag, off = kinetic_diagonals(g1, spec.M)
    diag += field.energies[a]
    if born_huang:
        diag += born_huang_correction(field, spec, a)
    try:
        vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_levels - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise RuntimeError(f"nuclear eigensolve failed to converge on surface {a}") from exc
    thetas = (vecs / np.sqrt(g1.h)).T.copy()
    for n in range(n_levels):
        j = int(np.argmax(np.abs(thetas[n])))
        if thetas[n, j] < 0:
            thetas[n] = -thetas[n]
    return NuclearSolution(surface_index=a, grid1=g1, energies=vals, wavefunctions=thetas)


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
    n1 = field.grid1.n
    if n1 < 3:
        raise ValueError("need at least three slices for a central difference")
    d = _slice_derivative(field.states[a], field.grid1.h)[1:-1]
    norms = np.sqrt((field.grid2.h * np.sum(d * np.conj(d), axis=1)).real)
    return ResidualReport(surface=a, per_slice=norms,
                          max=float(norms.max()), mean=float(norms.mean()))


def _slice_derivative(psi: np.ndarray, h1: float) -> np.ndarray:
    """d/dx1 of a (n1, n2) slice family: central interior, one-sided ends."""
    d = np.empty_like(psi)
    d[1:-1] = (psi[2:] - psi[:-2]) / (2.0 * h1)
    d[0] = (psi[1] - psi[0]) / h1
    d[-1] = (psi[-1] - psi[-2]) / h1
    return d


def _slice_second_derivative(psi: np.ndarray, h1: float) -> np.ndarray:
    d = np.empty_like(psi)
    d[1:-1] = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / (h1 * h1)
    d[0] = (psi[2] - 2.0 * psi[1] + psi[0]) / (h1 * h1)
    d[-1] = (psi[-1] - 2.0 * psi[-2] + psi[-3]) / (h1 * h1)
    return d


def t1_coupling_matrix(field: ElectronicField, nuclear: dict[int, NuclearSolution],
                       levels: list[tuple[int, int]], M: float) -> np.ndarray:
    """Matrix of heavy-kinetic elements between assembled states.

    Entry (row, col) is the inner product of state ``levels[row]`` with T1
    applied to state ``levels[col]``, where T1 acts through the three-term
    product rule with finite-difference x1-derivatives of theta (Dirichlet
    stencil) and of the slice states (central, one-sided at the ends).
    """
    for a, n in levels:
        if a not in nuclear:
            raise ValueError(f"no nuclear solution supplied for surface {a}")
        if nuclear[a].grid1 != field.grid1:
            raise ValueError("nuclear solutions must share the field's nuclear grid")
    h1, h2 = field.grid1.h, field.grid2.h

    bras, t1kets = [], []
    for a, n in levels:
        theta = nuclear[a].wavefunctions[n]
        psi = field.states[a]
        bras.append(theta[:, None] * psi)
        tpp = second_difference(theta, field.grid1)
        tp = central_difference(theta, field.grid1)
        dpsi = _slice_derivative(psi, h1)
        ddpsi = _slice_second_derivative(psi, h1)
        action = tpp[:, None] * psi + 2.0 * tp[:, None] * dpsi + theta[:, None] * ddpsi
        t1kets.append(-action / (2.0 * M))

    k = len(levels)
    out = np.empty((k, k))
    for r in range(k):
        for c in range(k):
            out[r, c] = h1 * h2 * np.sum(np.conj(bras[r]) * t1kets[c]).real
    return out
