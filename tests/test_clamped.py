"""Slice solves, surface scans, phase fixing, and the gap report."""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from bolab.clamped import (CROSSING_OVERLAP, DEGENERACY_RTOL, ElectronicField, heavy_gap_report,
                           phase_fix, scan_pes)
from bolab.grid import (_EPS, _lowest_eigenpairs, build_grid, inversion_even, kinetic_diagonals,
                        ritz_error_bound, slice_eigenpairs)
from bolab.model import (HarmonicCoupling, ModelSpec, SeparableHarmonic, SoftCoulomb,
                         evaluate_potential, sample_potential)

# 1-D ground energy of -(1/2) d^2/du^2 - 1/sqrt(u^2 + 1), from independent
# fine-grid diagonalization (box +-25, n up to 8191, double Richardson;
# successive extrapolations agree to 7e-11)
SOFT_COULOMB_E0 = -0.6697771382


def _harmonic_spec(M=2000.0, m=1.0, k1=1.0, k2=1.0):
    return ModelSpec(M=M, m=m, potential=HarmonicCoupling(k1, k2))


def _one_slice(spec, grid2, X, A):
    """(energies (A,), h2-normalized states (A, n2)) of the slice at X, by the scan's solver."""
    states = np.empty((A, 1, grid2.n))
    energies, _ = slice_eigenpairs(grid2, spec.m, evaluate_potential(spec, X, grid2.points)[None],
                                   A, states)
    return energies[:, 0], states[:, 0] / np.sqrt(grid2.h)


def test_slice_levels_at_origin():
    spec = _harmonic_spec()
    g2 = build_grid(-8.0, 8.0, 1024)
    energies, states = _one_slice(spec, g2, 0.0, 3)
    # oscillator ladder (a + 1/2) sqrt(k2/m); no heavy-confinement shift at X=0
    assert energies[0] == pytest.approx(0.5, abs=1e-4)
    assert energies[1] == pytest.approx(1.5, abs=1e-4)
    assert np.all(np.diff(energies) > 0)
    gram = g2.h * states @ states.T
    assert np.max(np.abs(gram - np.eye(3))) < 1e-10


def test_slice_shifted_by_heavy_confinement():
    spec = _harmonic_spec()
    g2 = build_grid(-6.0, 10.0, 512)  # window follows the displaced well
    energies, _ = _one_slice(spec, g2, 2.0, 1)
    assert energies[0] == pytest.approx(2.5, abs=1e-4)


def test_slice_soft_coulomb_ground_two_resolution():
    spec = ModelSpec(M=1.0, m=1.0, potential=SoftCoulomb(z=1.0, s=1.0, k1=0.0))
    values = {}
    for n2 in (128, 256):
        g2 = build_grid(-12.0, 12.0, n2)
        energies, _ = _one_slice(spec, g2, 0.0, 1)
        values[n2] = energies[0]
    assert values[256] == pytest.approx(SOFT_COULOMB_E0, abs=1e-4)
    rho_sq = (257.0 / 129.0) ** 2
    extrapolated = values[256] + (values[256] - values[128]) / (rho_sq - 1.0)
    assert extrapolated == pytest.approx(SOFT_COULOMB_E0, abs=2e-6)


def test_slice_rejects_bad_surface_count():
    spec = _harmonic_spec()
    g1, g2 = build_grid(-1.0, 1.0, 8), build_grid(-5.0, 5.0, 16)
    with pytest.raises(ValueError):
        scan_pes(spec, g1, g2, 17)
    with pytest.raises(ValueError):
        scan_pes(spec, g1, g2, 0)


def test_scan_surfaces_fit_closed_form():
    # lambda_a(x1) = k1/2 x1^2 + (a + 1/2) sqrt(k2/m) for the coupled-harmonic family
    spec = _harmonic_spec(k1=1.0, k2=1.0)
    g1 = build_grid(-0.5, 0.5, 32)
    g2 = build_grid(-6.5, 6.5, 1024)
    field = scan_pes(spec, g1, g2, 3)
    for a in range(3):
        expected = 0.5 * g1.points**2 + (a + 0.5)
        assert np.max(np.abs(field.energies[a] - expected)) < 1e-4
    assert field.crossing_flags == []


def test_scan_gap_constant_in_x1():
    spec = _harmonic_spec()
    g1 = build_grid(-0.5, 0.5, 32)
    g2 = build_grid(-6.5, 6.5, 256)
    field = scan_pes(spec, g1, g2, 3)
    for a in range(2):
        gap = field.energies[a + 1] - field.energies[a]
        assert gap.max() - gap.min() < 1e-6


def test_scan_soft_coulomb_minimum_stable_under_refinement():
    spec = ModelSpec(M=100.0, m=1.0, potential=SoftCoulomb(z=1.0, s=1.0, k1=1.0))
    g2 = build_grid(-10.0, 10.0, 128)
    locations = {}
    for n1 in (64, 128):
        g1 = build_grid(-1.6, 1.6, n1)
        field = scan_pes(spec, g1, g2, 1)
        idx = int(np.argmin(field.energies[0]))
        assert 0 < idx < n1 - 1  # interior minimum
        locations[n1] = g1.points[idx]
    h64 = build_grid(-1.6, 1.6, 64).h
    assert abs(locations[64] - locations[128]) <= h64


def test_scan_per_slice_orthonormality(harmonic2000):
    field = harmonic2000.field
    worst = 0.0
    eye = np.eye(field.n_surfaces)
    for i in range(field.grid1.n):
        gram = field.grid2.h * field.states[:, i, :] @ field.states[:, i, :].T
        worst = max(worst, np.max(np.abs(gram - eye)))
    assert worst < 1e-8


def test_scan_phase_continuity(harmonic2000):
    field = harmonic2000.field
    for a in range(field.n_surfaces):
        overlaps = field.grid2.h * np.sum(field.states[a, :-1] * field.states[a, 1:], axis=1)
        assert np.all(overlaps.real >= 0.0)


def test_phase_fix_idempotent(harmonic2000):
    field = harmonic2000.field
    again, _, _ = phase_fix(field.states, field.energies, field.grid2.h)
    assert np.array_equal(again, field.states)


def test_phase_fix_degenerate_subspace_alignment():
    # two exactly degenerate surfaces, rotated from slice to slice: the sweep
    # must flag the degeneracy and re-align each slice pair to the previous one
    n1, n2 = 4, 8
    basis = np.zeros((2, n2))
    basis[0, 0] = basis[1, 1] = 1.0 / np.sqrt(0.5)  # h2 = 0.5 below
    states = np.empty((2, n1, n2))
    rng = np.random.default_rng(11)
    states[:, 0] = basis
    for i in range(1, n1):
        phi = rng.uniform(0.3, 1.2)
        rot = np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]])
        states[:, i] = rot @ basis
    energies = np.ones((2, n1))  # exactly degenerate
    fixed, crossing, degenerate = phase_fix(states, energies, 0.5)
    assert degenerate == [1, 2, 3]
    for i in range(1, n1):
        overlap = 0.5 * fixed[:, i - 1] @ fixed[:, i].T
        assert np.allclose(overlap, np.eye(2), atol=1e-12)


def _phase_fix_loop(states, energies, h2):
    # reference: the slice-by-slice, surface-by-surface sweep that phase_fix vectorises
    out = states.copy()
    A, n1, _ = out.shape
    crossing, degenerate = [], []
    for i in range(1, n1):
        tol = DEGENERACY_RTOL * max(np.max(np.abs(energies[:, i])), 1.0)
        groups = [[0]]
        for a in range(1, A):
            if energies[a, i] - energies[a - 1, i] < tol:
                groups[-1].append(a)
            else:
                groups.append([a])
        if any(len(g) > 1 for g in groups):
            degenerate.append(i)
        for g in groups:
            if len(g) == 1:
                if (h2 * np.vdot(out[g[0], i - 1], out[g[0], i])).real < 0.0:
                    out[g[0], i] = -out[g[0], i]
            else:
                U, _, Vt = np.linalg.svd(h2 * np.conj(out[g, i - 1]) @ out[g, i].T)
                out[g, i] = (U @ Vt) @ out[g, i]
            crossing += [(i, a) for a in g
                         if abs(h2 * np.vdot(out[a, i - 1], out[a, i])) < CROSSING_OVERLAP]
    return out, crossing, degenerate


@pytest.mark.parametrize("case", range(12))
def test_phase_fix_matches_the_slice_by_slice_sweep(case):
    # random signs, phases, weak overlaps and degenerate slices (some back to back)
    rng = np.random.default_rng(case)
    A, n1, n2 = 1 + case % 4, 2 + 3 * case, 6
    states = rng.standard_normal((A, 1, n2)) + 0.8 * rng.standard_normal((A, n1, n2))
    states /= np.sqrt(0.7) * np.linalg.norm(states, axis=2, keepdims=True)  # h2 = 0.7 below
    states *= rng.choice([-1.0, 1.0], size=(A, n1, 1))
    if case % 3 == 0:
        states = states * np.exp(1j * rng.uniform(0.0, 2 * np.pi, (A, n1, 1)))
    energies = np.sort(rng.standard_normal((A, n1)), axis=0)
    if A > 1:
        for i in rng.integers(1, n1, size=1 + case // 2):
            a = rng.integers(A - 1)
            energies[a + 1, i] = energies[a, i]
    before = states.copy()
    got = phase_fix(states, energies, 0.7)
    want = _phase_fix_loop(states, energies, 0.7)
    assert np.array_equal(states, before)
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]
    assert want[1] and (A == 1 or want[2])


def test_scan_threaded_is_bit_identical():
    spec = _harmonic_spec(M=50.0)
    g1 = build_grid(-1.0, 1.0, 32)
    g2 = build_grid(-6.0, 6.0, 64)
    serial = scan_pes(spec, g1, g2, 2, threads=1)
    threaded = scan_pes(spec, g1, g2, 2, threads=4)
    assert np.array_equal(serial.energies, threaded.energies)
    assert np.array_equal(serial.states, threaded.states)


def test_single_slice_solve_is_the_scans_slice():
    # one batched solver serves both: a solved slice gets the same bits alone as inside the
    # scan, and a mirrored slice i those of the solve at n1-1-i, reversed in x2
    spec = ModelSpec(M=100.0, m=1.0, potential=SoftCoulomb(z=1.0, s=1.0, k1=1.0))
    g1 = build_grid(-1.6, 1.6, 70)
    g2 = build_grid(-10.0, 10.0, 96)
    field = scan_pes(spec, g1, g2, 3)
    w = evaluate_potential(spec, g1.points[:, None], g2.points[None, :])
    d, e = kinetic_diagonals(g2, spec.m)
    weyl = (16.0 * _EPS * (np.abs(d + w).max() + 2.0 * np.abs(e).max())
            + np.abs(w - w[::-1, ::-1]).max())
    for i in (0, 33, 64, 69):
        mirrored = i >= (g1.n + 1) // 2
        source = g1.n - 1 - i if mirrored else i
        energies, states = _one_slice(spec, g2, g1.points[source], 3)
        if mirrored:
            states = states[:, ::-1]
            own = _one_slice(spec, g2, g1.points[i], 3)[0]
            assert np.abs(own - field.energies[:, i]).max() <= weyl
        assert energies.tobytes() == field.energies[:, i].tobytes()
        signs = np.sign(np.sum(states * field.states[:, i], axis=1))
        assert (signs[:, None] * states).tobytes() == field.states[:, i].tobytes()


def test_variational_box_monotonicity():
    # enlarging the electronic box can only lower the ground surface, up to
    # the (here tiny) change in discretization error
    spec = _harmonic_spec()
    small = _one_slice(spec, build_grid(-6.0, 6.0, 120), 0.0, 1)[0][0]
    large = _one_slice(spec, build_grid(-8.0, 8.0, 160), 0.0, 1)[0][0]
    assert large <= small + 1e-6


@pytest.mark.parametrize("n1", [70, 71])
def test_centred_scan_solves_half_the_slices(solved_rows, n1):
    spec = ModelSpec(M=100.0, m=1.0, potential=SoftCoulomb(z=1.0, s=1.0, k1=1.0))
    scan_pes(spec, build_grid(-1.6, 1.6, n1), build_grid(-10.0, 10.0, 96), 3)
    assert solved_rows == [(n1 + 1) // 2]


def test_off_centre_scan_solves_every_slice_as_before(solved_rows):
    # an off-centre box is not inversion-even: every slice is solved, in one call, as the
    # scan did before it mirrored
    spec = ModelSpec(M=100.0, m=1.0, potential=SoftCoulomb(z=1.0, s=1.0, k1=1.0))
    g1, g2 = build_grid(-1.6, 1.2, 70), build_grid(-10.0, 10.0, 96)
    field = scan_pes(spec, g1, g2, 3)
    assert solved_rows == [g1.n]
    d, e = kinetic_diagonals(g2, spec.m)
    states = np.empty((3, g1.n, g2.n))
    energies = _lowest_eigenpairs(
        d + evaluate_potential(spec, g1.points[:, None], g2.points), e, 3, states)
    states, _, _ = phase_fix(states / np.sqrt(g2.h), energies, g2.h)
    assert field.energies.tobytes() == energies.tobytes()
    assert field.states.tobytes() == states.tobytes()


@pytest.mark.parametrize("potential, n1", [
    (HarmonicCoupling(1.0, 1.0), 64), (SoftCoulomb(1.0, 1.0, 1.0), 71),
    (SeparableHarmonic(1.0, 2.0), 48),
], ids=["harmonic", "soft_coulomb", "separable"])
def test_mirrored_slices_match_their_own_solves(potential, n1):
    spec = ModelSpec(M=100.0, m=1.0, potential=potential)
    g1, g2 = build_grid(-1.5, 1.5, n1), build_grid(-7.0, 7.0, 80)
    field = scan_pes(spec, g1, g2, 3)
    w = evaluate_potential(spec, g1.points[:, None], g2.points[None, :])
    assert inversion_even(w)
    d, e = kinetic_diagonals(g2, spec.m)
    bound = (16.0 * _EPS * (np.abs(d + w).max() + 2.0 * np.abs(e).max())
             + np.abs(w - w[::-1, ::-1]).max())
    for i in range((n1 + 1) // 2, n1):
        energies, states = _one_slice(spec, g2, g1.points[i], 3)
        assert np.abs(energies - field.energies[:, i]).max() <= bound
        signs = np.sign(np.sum(states * field.states[:, i], axis=1))[:, None]
        assert np.abs(signs * states - field.states[:, i]).max() <= 1e-13


def test_scan_of_split_slices_returns_the_lowest_levels(split_slices):
    # several levels share each first-pass bracket; every level the scan returns is still
    # the indexed one, within the solver's gate
    cfg = split_slices[1]
    field = scan_pes(cfg.model, cfg.grid1, cfg.grid2, 4)
    d, e = kinetic_diagonals(cfg.grid2, cfg.model.m)
    d = d + sample_potential(cfg.model, cfg.grid1, cfg.grid2)
    ref = np.array([eigh_tridiagonal(row, e, eigvals_only=True)[:4] for row in d]).T
    assert np.all(np.abs(field.energies - ref) <= ritz_error_bound(d, e))


def test_scan_returns_every_level_of_a_close_pair_cut_by_the_level_count():
    # a fuzzed soft-Coulomb config: at slice 17, the centre of the mirrored scan, levels 1
    # and 2 lie 1.4e-13 apart, and the scan once returned level 2 as level 1, 14 gate bounds
    # off, while every command exited 0
    spec = ModelSpec(M=352661675320.4424, m=37222655996.16248,
                     potential=SoftCoulomb(269.72220527863914, 1.5805278316793654,
                                           23.897645471155148))
    g1 = build_grid(-0.4196445394687933, 0.4196445394687933, 35)
    g2 = build_grid(-0.13456284946439478, 0.13456284946439478, 25)
    field = scan_pes(spec, g1, g2, 2)
    d, e = kinetic_diagonals(g2, spec.m)
    d = d + sample_potential(spec, g1, g2)
    ref = np.array([eigh_tridiagonal(row, e, eigvals_only=True)[:2] for row in d]).T
    assert np.all(np.abs(field.energies - ref) <= ritz_error_bound(d, e))


def test_separable_slices_identical():
    spec = ModelSpec(M=10.0, m=1.0, potential=SeparableHarmonic(1.0, 1.0))
    g1 = build_grid(-3.5, 3.5, 96)
    g2 = build_grid(-4.5, 4.5, 96)
    field = scan_pes(spec, g1, g2, 2)
    for a in range(2):
        assert np.max(np.abs(field.states[a] - field.states[a][0])) < 1e-10
    v1 = 0.5 * g1.points**2
    for a in range(2):
        shifted = field.energies[a] - v1
        assert shifted.max() - shifted.min() < 1e-10


# ---------------------------------------------------------------------------
# gap report


def _synthetic_field(lambda0, lambda1, g1, g2):
    energies = np.vstack([lambda0, lambda1])
    states = np.zeros((2, g1.n, g2.n))
    states[:, :, 0] = 1.0 / np.sqrt(g2.h)
    return ElectronicField(grid1=g1, grid2=g2, n_surfaces=2,
                           energies=energies, states=states)


def test_heavy_vanishing_kinetic_scale():
    g1 = build_grid(0.0, 1.0, 9)
    g2 = build_grid(0.0, 1.0, 8)
    field = _synthetic_field(np.zeros(9), np.ones(9), g1, g2)
    report = heavy_gap_report(field, (0.0, 1.0), t1_scale=1e-12)
    assert report.heavy_ok
    assert report.ratio > 1e10


def test_heavy_touching_surfaces():
    # sorted surfaces min(x, 1-x) and max(x, 1-x) touch at the midpoint
    g1 = build_grid(0.0, 1.0, 9)  # includes x = 0.5 exactly
    g2 = build_grid(0.0, 1.0, 8)
    x = g1.points
    field = _synthetic_field(np.minimum(x, 1 - x), np.maximum(x, 1 - x), g1, g2)
    report = heavy_gap_report(field, (0.0, 1.0), t1_scale=0.123)
    assert report.min_gap == 0.0
    assert not report.heavy_ok


def test_heavy_harmonic_closed_form(harmonic2000, harmonic2000_setup):
    """Cross-slice gap over +-3 ground widths against the sharp closed form.

    The scan's gap between adjacent surfaces is sqrt(k2/m) at equal x1 but
    shrinks by k1/2 (x1'^2 - x1^2) across slice pairs, so the expected
    minimum over the sampled region follows from the surface formula applied
    to the actual grid points. The ratio against the heavy level spacing
    sqrt(k1/M) then sits at the sqrt(M k2 / (m k1)) scale.
    """
    spec, g1, _ = harmonic2000_setup
    field = harmonic2000.field
    omega1 = np.sqrt(1.0 / spec.M)
    sigma = 1.0 / np.sqrt(2.0 * spec.M * omega1)
    region = (-3.0 * sigma, 3.0 * sigma)
    report = heavy_gap_report(field, region, t1_scale=omega1)
    inside = g1.points[(g1.points >= region[0]) & (g1.points <= region[1])]
    expected_gap = 1.0 + 0.5 * (np.min(inside**2) - np.max(inside**2))
    assert report.min_gap == pytest.approx(expected_gap, rel=2e-3)
    prediction = np.sqrt(spec.M / spec.m)
    assert report.ratio == pytest.approx(prediction, rel=0.06)
    assert report.heavy_ok
    # the tighter region used by the bundled configs sits within 5%
    tight = heavy_gap_report(field, (-2.0 * sigma, 2.0 * sigma), t1_scale=omega1)
    assert tight.ratio == pytest.approx(prediction, rel=0.05)


def test_heavy_rejections(harmonic2000):
    field = harmonic2000.field
    with pytest.raises(ValueError):
        heavy_gap_report(field, (0.2, 0.1), 1.0)
    with pytest.raises(ValueError):
        heavy_gap_report(field, (-0.1, 0.1), 0.0)
    with pytest.raises(ValueError):
        heavy_gap_report(field, (10.0, 11.0), 1.0)  # outside the grid


def test_heavy_gap_report_needs_two_surfaces():
    g1 = build_grid(0.0, 1.0, 9)
    g2 = build_grid(0.0, 1.0, 8)
    two = _synthetic_field(np.zeros(9), np.ones(9), g1, g2)
    one = ElectronicField(grid1=g1, grid2=g2, n_surfaces=1, energies=two.energies[:1],
                          states=two.states[:1])
    with pytest.raises(ValueError, match="gap report needs at least two surfaces"):
        heavy_gap_report(one, (0.0, 1.0), 1.0)
