"""Per-slice spectral projector and the compressed effective Hamiltonian.

The projector keeps, at every nuclear point, only the lowest N slice
eigenfunctions: an amplitude array is expanded slice by slice in the
scanned basis, truncated to N coefficients, and resynthesized. Its range V
has dimension N * n1, and compressing the full Hamiltonian to V gives a
small symmetric matrix with a clean block-tridiagonal structure:

* diagonal blocks  diag(lambda_a(x1_i)) + 1/(M h1^2) I_N
* neighbour blocks -1/(2 M h1^2) S(i, i+1),  S_ab = <psi_a(i), psi_b(i+1)>

(the clamped part is exactly diagonal in its own eigenbasis; only the
heavy kinetic stencil couples neighbouring slices). Ordered slice-major,
the matrix is banded with bandwidth 2N - 1, so it is built directly in
LAPACK upper band storage, never as a dense (N n1)^2 array, and its lowest
eigenvalues come from the oracle's shift-invert Lanczos on a banded
Cholesky factor (O(n1 N^3), against O(n1^2 N^3) to reduce the band to a
tridiagonal). Everything orthogonal to V is annihilated by construction, and
the compressed eigenvalues are Rayleigh-Ritz upper bounds on the exact ones.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .clamped import ElectronicField
from .exact import DEFAULT_SEED, FullHamiltonian, _bo_lower_bound, _lowest_above
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


def effective_matrix(p: Projector, h: FullHamiltonian) -> np.ndarray:
    """Compression of H onto the projector's range, in LAPACK upper band storage.

    The (N n1) x (N n1) matrix, indexed ``i N + a`` (slice i, level a), has
    bandwidth u = 2N - 1, so it is returned as a (2N, N n1) array with
    ``band[u + r - c, c] = m[r, c]`` for r <= c: row u is the diagonal, and
    entry (a, b) of the neighbour block (i, i+1) sits in row u - N + a - b,
    column (i+1)N + b.
    """
    field = p.field
    if field.grid1 != h.grid1 or field.grid2 != h.grid2:
        raise ValueError("projector and Hamiltonian live on different grids")
    N, n1 = p.rank, field.grid1.n
    kin_diag, kin_off = kinetic_diagonals(field.grid1, h.mass1)
    u = 2 * N - 1
    band = np.zeros((2 * N, N * n1))
    band[u] = (field.energies[:N].T + kin_diag[:, None]).ravel()
    i, a, b = np.ogrid[:n1 - 1, :N, :N]
    band[u - N + a - b, (i + 1) * N + b] = kin_off[:, None, None] * field.neighbour_overlaps(N)
    return band


def solve_effective(p: Projector, h: FullHamiltonian, k: int) -> EffectiveSolution:
    """Lowest k eigenvalues of the compressed Hamiltonian (no eigenvectors).

    The zero eigenvalue carried by everything orthogonal to V is an artifact
    of the projection and is excluded: the solve happens inside V, on the band.
    For v in V, <v, H v> >= E_BO |v|^2, E_BO the ground energy of T1 + diag lambda_0, so the
    oracle's shift-invert route applies, E_BO and delta from ``_bo_lower_bound`` on the scanned
    lambda_0. The band's in-place Cholesky checks that shift, so lambda_0 needs no certificate:
    one not below the compressed spectrum is a SolverError, never a wrong answer.
    """
    if not 1 <= k < p.subspace_dim:
        raise ValueError(f"need 1 <= k < {p.subspace_dim}, got k = {k}")
    band = effective_matrix(p, h)

    def factor(sigma):
        band[-1] -= sigma
        cb = cholesky_banded(band, overwrite_ab=True)
        return lambda x: cho_solve_banded((cb, False), x, check_finite=False)

    e_bo, delta = _bo_lower_bound(h, p.field.energies[0], certify=False)
    energies = _lowest_above(e_bo, delta, p.subspace_dim, factor, k, DEFAULT_SEED, vectors=False)
    return EffectiveSolution(rank=p.rank, energies=energies)
