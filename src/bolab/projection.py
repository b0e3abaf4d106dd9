"""Per-slice spectral projector and the compressed effective Hamiltonian.

The projector keeps, at every nuclear point, only the lowest N slice
eigenfunctions: an amplitude array is expanded slice by slice in the
scanned basis, truncated to N coefficients, and resynthesized. Its range V
has dimension N * n1, and compressing the full Hamiltonian to V gives a
small symmetric matrix with a clean block-tridiagonal structure:

* diagonal blocks  diag(lambda_a(x1_i)) + 1/(M h1^2) I_N
* neighbour blocks -1/(2 M h1^2) S(i, i+1),  S_ab = <psi_a(i), psi_b(i+1)>

(the clamped part is exactly diagonal in its own eigenbasis; only the
heavy kinetic stencil couples neighbouring slices). Everything orthogonal
to V is annihilated by construction, and the compressed eigenvalues are
Rayleigh-Ritz upper bounds on the exact ones.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .clamped import ElectronicField
from .exact import FullHamiltonian
from .grid import kinetic_diagonals


@dataclass
class Projector:
    """Rank-N-per-slice projector onto the scanned slice eigenfunctions."""

    field: ElectronicField
    rank: int

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        a = np.asarray(amplitudes)
        n1, n2 = self.field.grid1.n, self.field.grid2.n
        if a.shape != (n1, n2):
            raise ValueError(f"amplitudes shape {a.shape} does not match the field's product grid")
        basis = self.field.states[:self.rank]                    # (N, n1, n2)
        coeff = self.field.grid2.h * np.einsum("aij,ij->ai", np.conj(basis), a)
        return np.einsum("ai,aij->ij", coeff, basis)

    @property
    def subspace_dim(self) -> int:
        return self.rank * self.field.grid1.n


def build_projector(field: ElectronicField, N: int) -> Projector:
    if not 1 <= N <= field.n_surfaces:
        raise ValueError(f"need 1 <= N <= n_surfaces, got N = {N}")
    return Projector(field=field, rank=N)


@dataclass
class EffectiveSolution:
    rank: int
    energies: np.ndarray   # (k,) ascending, nonzero sector only
    states: np.ndarray     # (k, n1, n2) product-grid amplitudes inside V


def effective_matrix(p: Projector, h: FullHamiltonian) -> np.ndarray:
    """Symmetric (N n1) x (N n1) compression of H onto the projector's range."""
    field = p.field
    if field.grid1 != h.grid1 or field.grid2 != h.grid2:
        raise ValueError("projector and Hamiltonian live on different grids")
    N, n1 = p.rank, field.grid1.n
    kin_diag, kin_off = kinetic_diagonals(field.grid1, h.mass1)
    overlaps = field.neighbour_overlaps(N)
    out = np.zeros((N * n1, N * n1))
    for i in range(n1):
        sl = slice(i * N, (i + 1) * N)
        out[sl, sl] = np.diag(field.energies[:N, i]) + kin_diag[i] * np.eye(N)
    for i in range(n1 - 1):
        block = kin_off[i] * overlaps[i]
        out[i * N:(i + 1) * N, (i + 1) * N:(i + 2) * N] = block
        out[(i + 1) * N:(i + 2) * N, i * N:(i + 1) * N] = block.T
    return out


def solve_effective(p: Projector, h: FullHamiltonian, k: int) -> EffectiveSolution:
    """Lowest k eigenpairs of the compressed Hamiltonian, mapped back to the grid.

    The zero eigenvalue carried by everything orthogonal to V is an artifact
    of the projection and is excluded: the solve happens inside V.
    """
    if not 1 <= k <= p.subspace_dim:
        raise ValueError(f"need 1 <= k <= {p.subspace_dim}, got k = {k}")
    m = effective_matrix(p, h)
    vals, vecs = eigh(m, subset_by_index=(0, k - 1))
    field = p.field
    N, n1 = p.rank, field.grid1.n
    sqrt_h1 = np.sqrt(field.grid1.h)
    states = np.empty((k, n1, field.grid2.n))
    for idx in range(k):
        c = vecs[:, idx].reshape(n1, N)
        amp = np.einsum("ia,aij->ij", c, field.states[:N]) / sqrt_h1
        j = np.unravel_index(np.argmax(np.abs(amp)), amp.shape)
        if amp[j] < 0:
            amp = -amp
        states[idx] = amp
    return EffectiveSolution(rank=N, energies=vals, states=states)
