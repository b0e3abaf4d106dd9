"""Clamped-family slice solves, surface scans, and the gap/kinetic-scale report.

For each heavy-coordinate value X the light particle sees the 1-D operator

    H_cl(X) = -(1/2m) d^2/dx2^2 + W(X, x2)

on the electronic grid. Scanning X over the nuclear grid produces the
energy surfaces lambda_a(x1) and a family of slice eigenfunctions
psi_a(x1; x2), sign-fixed along x1 so consecutive slices overlap with
non-negative real part. The surfaces feed the nuclear solves in
:mod:`bolab.bo`; the gap report quantifies whether adjacent surfaces stay
far apart compared to the heavy particle's kinetic-energy scale over the
region where its wavefunction lives.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .grid import Grid1D, GridFunction, kinetic_diagonals
from .model import ModelSpec, evaluate_potential

# Adjacent slice eigenvalues closer than this (relative to the local scale)
# are treated as degenerate and aligned as a subspace.
DEGENERACY_RTOL = 1e-10
# Consecutive-slice overlap magnitude below this flags a possible crossing.
CROSSING_OVERLAP = 0.5


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

    def surface(self, a: int) -> np.ndarray:
        return self.energies[a]


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

    Returns ``(energies, states)`` with states of shape (A, n2). The matrix is
    tridiagonal (3-point stencil plus a diagonal potential), so the dedicated
    LAPACK tridiagonal solver applies at any n2.
    """
    if not 1 <= A <= grid2.n:
        raise ValueError(f"need 1 <= A <= n2, got A = {A}, n2 = {grid2.n}")
    diag, off = kinetic_diagonals(grid2, spec.m)
    diag += evaluate_potential(spec, X, grid2.points)
    try:
        energies, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, A - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise RuntimeError(f"clamped eigensolve failed to converge at slice X = {X}") from exc
    # LAPACK vectors are unit in the Euclidean norm; rescale to the h2-weighted norm.
    return energies, (vecs / np.sqrt(grid2.h)).T.copy()


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

    Slices are solved serially in ascending order, then phase-fixed in one
    sequential sweep. ``threads`` is accepted for compatibility and ignored:
    a slice pool measured no faster than the serial loop.
    """
    energies = np.empty((A, grid1.n))
    states = np.empty((A, grid1.n, grid2.n))
    for i, X in enumerate(grid1.points):
        energies[:, i], states[:, i, :] = solve_clamped_slice(spec, grid2, X, A)

    states, crossing, degenerate = phase_fix(states, energies, grid2.h)
    return ElectronicField(grid1=grid1, grid2=grid2, n_surfaces=A,
                           energies=energies, states=states,
                           crossing_flags=crossing, degenerate_flags=degenerate)


def heavy_gap_report(field: ElectronicField, region: tuple[float, float],
                     t1_scale: float, threshold: float = 10.0) -> HeavyReport:
    """Minimum |lambda_{a+1}(x1) - lambda_a(x1')| over all x1, x1' in the region.

    The gap is evaluated across independent slice pairs, not just at equal
    x1, so a surface dipping toward its neighbour anywhere in the region
    shrinks it. ``heavy_ok`` holds when the gap exceeds ``threshold`` times
    the supplied kinetic-energy scale.
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
    return HeavyReport(region=(alpha, beta), t1_scale=float(t1_scale), min_gap=min_gap,
                       ratio=ratio, heavy_ok=bool(ratio >= threshold), threshold=float(threshold))
