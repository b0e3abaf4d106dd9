"""Clamped-family slice solves, surface scans, and the gap/kinetic-scale report.

For each heavy-coordinate value X the light particle sees the 1-D operator

    H_cl(X) = -(1/2m) d^2/dx2^2 + W(X, x2)

on the electronic grid. Scanning X over the nuclear grid produces the
energy surfaces lambda_a(x1) and a family of slice eigenfunctions
psi_a(x1; x2), sign-fixed along x1 so consecutive slices overlap with
non-negative real part. The slices go through one call of the batched
tridiagonal solver of :mod:`bolab.grid`, whose gate makes each lambda_a a Ritz
value within s = ``grid.ritz_error_bound`` of the slice's a-th eigenvalue, with
a residual within s. The slices read the oracle's W, from
``model.sample_potential``: where it is inversion-even, the slice at -X is the
slice at X reflected in x2, so half the slices are solved and half mirrored.
The surfaces feed the nuclear solves in :mod:`bolab.bo`; the gap report
quantifies whether adjacent surfaces stay far apart compared to the heavy
particle's kinetic-energy scale over the region where its wavefunction lives.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid1D, GridFunction, kinetic_diagonals, ritz_error_bound, slice_eigenpairs
from .model import ModelSpec, sample_potential

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
    ``mirrored`` records that the scan solved slices 0 .. ceil(n1/2) - 1 of an
    inversion-even W and mirrored the rest. ``degenerate_flags`` lists the slices where
    ``phase_fix`` tied two levels that the solver's gate cannot tell apart. With none,
    it only flipped signs, so slice n1-1-i is then exactly slice i reversed in x2, up to
    sign; at a flagged slice it rotated a tied group, which breaks that.
    """

    grid1: Grid1D
    grid2: Grid1D
    n_surfaces: int
    energies: np.ndarray           # (A, n1)
    states: np.ndarray             # (A, n1, n2)
    crossing_flags: list = field(default_factory=list)    # (slice i, surface a) pairs
    degenerate_flags: list = field(default_factory=list)  # slice indices with tied pairs
    mirrored: bool = False

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


def phase_fix(states: np.ndarray, energies: np.ndarray, h2: float, bound: np.ndarray):
    """Sign/phase sweep in ascending slice order; idempotent.

    Levels a and a + 1 of slice i tie where their gap is at most 2 bound[i], the widest an
    exact tie can show when each is within ``bound`` (the gate s = ``grid.ritz_error_bound``
    per slice) of its eigenvalue. Flips each state so its overlap with the same surface one
    slice earlier has non-negative real part: between tied slices a sign is the running
    product of neighbour-overlap signs, one einsum and one cumprod per stretch. At a tied
    slice each tied group is aligned to the previous slice as a subspace (orthogonal
    Procrustes), and the product restarts there; an untied level keeps its own vector.
    Returns (states, crossing_flags, degenerate_flags) without mutating the input.
    """
    out = states.copy()
    A, n1, _ = out.shape
    close = np.diff(energies, axis=0) <= 2.0 * bound  # (A - 1, n1): a, a + 1 tie at i
    degenerate = (np.flatnonzero(close[:, 1:].any(axis=0)) + 1).tolist()
    weak = np.zeros((n1, A), dtype=bool)  # |overlap with the previous slice| < CROSSING_OVERLAP
    start = 1
    for stop in [*degenerate, n1]:
        ov = h2 * np.einsum("aij,aij->ia", out[:, start - 1:stop - 1].conj(), out[:, start:stop])
        out[:, start:stop] *= np.cumprod(np.where(ov.real < 0.0, -1.0, 1.0), axis=0).T[..., None]
        weak[start:stop] = np.abs(ov) < CROSSING_OVERLAP
        if stop < n1:
            for g in np.split(np.arange(A), np.flatnonzero(~close[:, stop]) + 1):
                O = h2 * out[g, stop - 1].conj() @ out[g, stop].T  # O_ab = <prev_a, cur_b>
                if len(g) > 1:
                    U, _, Vt = np.linalg.svd(O)
                    out[g, stop] = (U @ Vt) @ out[g, stop]
                elif O[0, 0].real < 0.0:
                    out[g, stop] = -out[g, stop]
            ov = h2 * np.einsum("aj,aj->a", out[:, stop - 1].conj(), out[:, stop])
            weak[stop] = np.abs(ov) < CROSSING_OVERLAP
        start = stop + 1
    return out, [tuple(p) for p in np.argwhere(weak).tolist()], degenerate


def scan_pes(spec: ModelSpec, grid1: Grid1D, grid2: Grid1D, A: int, threads: int = 1) -> ElectronicField:
    """Solve the clamped slices over grid1 and assemble a phase-continuous field.

    The slices of ``model.sample_potential``'s W go through one ``grid.slice_eigenpairs``
    call on ``threads`` threads, the calling one included (0 .. ceil(n1/2) - 1, the rest
    mirrored, if W is inversion-even; the field's ``mirrored`` records which), then one
    sequential sweep phase-fixes them, reading ties from the gate's bound on each slice of that
    W. The field is the same for any ``threads``. A ValueError unless 1 <= A <= n2 and
    threads >= 1; a failed solve is a RuntimeError.
    """
    if not 1 <= A <= grid2.n:
        raise ValueError(f"need 1 <= A <= n2, got A = {A}, n2 = {grid2.n}")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    states = np.empty((A, grid1.n, grid2.n))
    w = sample_potential(spec, grid1, grid2)
    energies, mirrored = slice_eigenpairs(grid2, spec.m, w, A, states, threads)
    states /= np.sqrt(grid2.h)  # unit Euclidean vectors to the h2-weighted norm
    d, e = kinetic_diagonals(grid2, spec.m)
    states, crossing, degenerate = phase_fix(states, energies, grid2.h, ritz_error_bound(d + w, e))
    return ElectronicField(grid1=grid1, grid2=grid2, n_surfaces=A,
                           energies=energies, states=states, crossing_flags=crossing,
                           degenerate_flags=degenerate, mirrored=mirrored)


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
