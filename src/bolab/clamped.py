"""Clamped-family slice solves, surface scans, and the gap/kinetic-scale report.

For each heavy-coordinate value X the light particle sees the 1-D operator

    H_cl(X) = -(1/2m) d^2/dx2^2 + W(X, x2)

on the electronic grid. Scanning X over the nuclear grid produces the
energy surfaces lambda_a(x1) and a family of slice eigenfunctions
psi_a(x1; x2), sign-fixed along x1 so consecutive slices overlap with
non-negative real part. Every slice, one or all n1 of them, goes through
the batched tridiagonal solver of :mod:`bolab.grid`, so lambda_a are Ritz
values, each within its residual norm of an exact slice eigenvalue and
inside that eigenvalue's bisection bracket. The surfaces feed the nuclear
solves in :mod:`bolab.bo`; the gap report quantifies whether adjacent
surfaces stay far apart compared to the heavy particle's kinetic-energy
scale over the region where its wavefunction lives.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid1D, GridFunction, _lowest_eigenpairs, kinetic_diagonals
from .model import ModelSpec, evaluate_potential

# Adjacent slice eigenvalues closer than this (relative to the local scale)
# are treated as degenerate and aligned as a subspace.
DEGENERACY_RTOL = 1e-10
# Consecutive-slice overlap magnitude below this flags a possible crossing.
CROSSING_OVERLAP = 0.5
# The heavy regime holds where the minimum gap is at least this many kinetic scales.
HEAVY_RATIO_THRESHOLD = 10.0


@dataclass
class ElectronicField:
    """Scanned clamped-family output.

    ``energies[a, i]`` is the a-th surface at nuclear point i (sorted per
    slice); ``states[a, i, :]`` the matching slice eigenfunction, normalized
    under the grid2-weighted inner product and phase-fixed along i.
    """

    grid1: Grid1D
    grid2: Grid1D
    n_surfaces: int
    energies: np.ndarray           # (A, n1)
    states: np.ndarray             # (A, n1, n2)
    crossing_flags: list = field(default_factory=list)    # (slice i, surface a) pairs
    degenerate_flags: list = field(default_factory=list)  # slice indices with near-degenerate pairs

    def state(self, a: int, i: int) -> GridFunction:
        return GridFunction(self.grid2, self.states[a, i])

    def neighbour_overlaps(self, N: int) -> np.ndarray:
        """(n1 - 1, N, N) slice overlaps ``S[i, a, b] = h2 <psi_a(i), psi_b(i+1)>``.

        The heavy kinetic stencil couples slice-product states only through
        these overlaps, so every T1 matrix element in the slice basis
        (compressed Hamiltonian, nonadiabatic couplings) is read from them.
        """
        psi = self.states[:N]
        return self.grid2.h * np.matmul(psi[:, :-1].transpose(1, 0, 2), psi[:, 1:].transpose(1, 2, 0))


@dataclass
class HeavyReport:
    """Minimum inter-surface gap over a region versus a kinetic-energy scale."""

    region: tuple[float, float]
    t1_scale: float
    min_gap: float
    ratio: float
    heavy_ok: bool
    threshold: float


def solve_clamped_slice(spec: ModelSpec, grid2: Grid1D, X: float, A: int):
    """Lowest A eigenpairs of H_cl(X); energies ascending, states h2-normalized.

    Returns ``(energies, states)`` with states of shape (A, n2): the scan's
    solve for one slice, so it gives the same bits as that slice of ``scan_pes``.
    """
    energies, states = _solve_slices(spec, grid2, np.array([X], dtype=float), A)
    return energies[:, 0], states[:, 0]


def _solve_slices(spec: ModelSpec, grid2: Grid1D, X: np.ndarray, A: int):
    """(energies (A, r), h2-normalized states (A, r, n2)) of H_cl at the r points ``X``.

    H_cl is tridiagonal (3-point stencil plus a diagonal potential), so all r
    slices go through one batched solve; a failure is a RuntimeError.
    """
    if not 1 <= A <= grid2.n:
        raise ValueError(f"need 1 <= A <= n2, got A = {A}, n2 = {grid2.n}")
    diag, off = kinetic_diagonals(grid2, spec.m)
    states = np.empty((A, len(X), grid2.n))
    energies = _lowest_eigenpairs(diag + evaluate_potential(spec, X[:, None], grid2.points),
                                  off, A, states)
    states /= np.sqrt(grid2.h)  # unit Euclidean vectors to the h2-weighted norm
    return energies, states


def phase_fix(states: np.ndarray, energies: np.ndarray, h2: float):
    """Sign/phase sweep in ascending slice order; idempotent.

    Flips each state so its overlap with the same surface one slice earlier
    has non-negative real part. Near-degenerate groups within a slice are
    aligned to the previous slice as a subspace (orthogonal Procrustes)
    instead of surface by surface. Returns (states, crossing_flags,
    degenerate_flags) without mutating the input.
    """
    out = states.copy()
    A, n1, _ = out.shape
    crossing, degenerate = [], []
    for i in range(1, n1):
        scale = max(np.max(np.abs(energies[:, i])), 1.0)
        groups = _degenerate_groups(energies[:, i], DEGENERACY_RTOL * scale)
        if any(len(g) > 1 for g in groups):
            degenerate.append(i)
        for g in groups:
            if len(g) == 1:
                a = g[0]
                ov = h2 * np.vdot(out[a, i - 1], out[a, i])
                if ov.real < 0.0:
                    out[a, i] = -out[a, i]
                if abs(ov) < CROSSING_OVERLAP:
                    crossing.append((i, a))
            else:
                sl = list(g)
                O = h2 * np.conj(out[sl, i - 1]) @ out[sl, i].T  # O_ab = <prev_a, cur_b>
                U, _, Vt = np.linalg.svd(O)
                out[sl, i] = (U @ Vt) @ out[sl, i]
                for a in sl:
                    ov = h2 * np.vdot(out[a, i - 1], out[a, i])
                    if abs(ov) < CROSSING_OVERLAP:
                        crossing.append((i, a))
    return out, crossing, degenerate


def _degenerate_groups(vals: np.ndarray, tol: float):
    groups, current = [], [0]
    for a in range(1, len(vals)):
        if vals[a] - vals[a - 1] < tol:
            current.append(a)
        else:
            groups.append(current)
            current = [a]
    groups.append(current)
    return groups


def scan_pes(spec: ModelSpec, grid1: Grid1D, grid2: Grid1D, A: int, threads: int = 1) -> ElectronicField:
    """Solve every clamped slice over grid1 and assemble a phase-continuous field.

    All slices are solved in one batched call, then phase-fixed in one
    sequential sweep. ``threads`` is accepted for compatibility and ignored.
    """
    energies, states = _solve_slices(spec, grid2, grid1.points, A)
    states, crossing, degenerate = phase_fix(states, energies, grid2.h)
    return ElectronicField(grid1=grid1, grid2=grid2, n_surfaces=A,
                           energies=energies, states=states,
                           crossing_flags=crossing, degenerate_flags=degenerate)


def heavy_gap_report(field: ElectronicField, region: tuple[float, float],
                     t1_scale: float) -> HeavyReport:
    """Minimum |lambda_{a+1}(x1) - lambda_a(x1')| over all x1, x1' in the region.

    The gap is evaluated across independent slice pairs, not just at equal
    x1, so a surface dipping toward its neighbour anywhere in the region
    shrinks it. ``heavy_ok`` holds when the gap is at least
    ``HEAVY_RATIO_THRESHOLD`` times the supplied kinetic-energy scale.
    """
    alpha, beta = float(region[0]), float(region[1])
    if not (alpha < beta):
        raise ValueError("region must be a non-empty interval (alpha < beta)")
    if t1_scale <= 0:
        raise ValueError("t1_scale must be positive")
    lo = max(alpha, field.grid1.x_min)
    hi = min(beta, field.grid1.x_max)
    mask = (field.grid1.points >= lo) & (field.grid1.points <= hi)
    if not np.any(mask):
        raise ValueError("region contains no grid points")
    if field.n_surfaces < 2:
        raise ValueError("gap report needs at least two surfaces")
    min_gap = np.inf
    for a in range(field.n_surfaces - 1):
        lower = field.energies[a, mask]
        upper = field.energies[a + 1, mask]
        min_gap = min(min_gap, float(np.min(np.abs(upper[:, None] - lower[None, :]))))
    ratio = min_gap / t1_scale
    return HeavyReport(region=(alpha, beta), t1_scale=float(t1_scale), min_gap=min_gap, ratio=ratio,
                       heavy_ok=bool(ratio >= HEAVY_RATIO_THRESHOLD), threshold=HEAVY_RATIO_THRESHOLD)
