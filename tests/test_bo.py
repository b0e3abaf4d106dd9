"""Nuclear solves, product assembly, and adiabatic-quality diagnostics."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from bolab.bo import (adiabatic_residual, assemble_product_state, solve_nuclear,
                      t1_coupling_matrix)
from bolab.clamped import scan_pes
from bolab.exact import assemble_full_hamiltonian, product_inner, rayleigh_quotient
from bolab.grid import build_grid, kinetic_diagonals, second_difference
from bolab.model import (HarmonicCoupling, ModelSpec, SeparableHarmonic,
                         SoftCoulomb, analytic_normal_modes)
from bolab.projection import build_projector, solve_effective

# full-pipeline ground energy for soft_coulomb(z=1, s=1, k1=1) at M=100:
# the ground surface is exactly k1/2 x1^2 + e0 (translation-invariant
# electronic problem), so E00 -> e0 + sqrt(k1/M)/2 = -0.6697771382 + 0.05
SOFT_COULOMB_E00 = -0.6197771382


def test_nuclear_harmonic_ladder(harmonic2000, harmonic2000_setup):
    spec, g1, _ = harmonic2000_setup
    field = harmonic2000.field
    sol = harmonic2000.nuclear[0]
    # quadratic fit of the scanned surface gives the effective curvature
    coeffs = np.polyfit(g1.points, field.energies[0], 2)
    k_eff = 2.0 * coeffs[0]
    omega = np.sqrt(k_eff / spec.M)
    base = field.energies[0].min()
    for n in range(3):
        assert sol.energies[n] - base == pytest.approx((n + 0.5) * omega, abs=1e-4)


def test_nuclear_constant_surface_box_levels():
    # zero potential: the surface is a constant and the heavy levels are the
    # exact discrete Dirichlet-box eigenvalues on top of it
    spec = ModelSpec(M=7.0, m=1.0, potential=SeparableHarmonic(0.0, 0.0))
    g1 = build_grid(-1.0, 1.0, 32)
    g2 = build_grid(-1.0, 1.0, 16)
    field = scan_pes(spec, g1, g2, 1)
    assert field.energies[0].max() - field.energies[0].min() < 1e-12
    c = field.energies[0, 0]
    sol = solve_nuclear(field, spec, 0, 4)
    n1, h1 = g1.n, g1.h
    for n in range(4):
        box_level = (1.0 - np.cos((n + 1) * np.pi / (n1 + 1))) / (spec.M * h1 * h1)
        assert sol.energies[n] == pytest.approx(c + box_level, abs=1e-10)


def test_nuclear_soft_coulomb_two_resolution():
    spec = ModelSpec(M=100.0, m=1.0, potential=SoftCoulomb(z=1.0, s=1.0, k1=1.0))
    g2 = build_grid(-12.0, 12.0, 1024)  # electronic error well below the target
    values = {}
    for n1 in (64, 128):
        g1 = build_grid(-1.6, 1.6, n1)
        field = scan_pes(spec, g1, g2, 1)
        sol = solve_nuclear(field, spec, 0, 1)
        values[n1] = sol.energies[0]
    rho_sq = (129.0 / 65.0) ** 2
    extrapolated = values[128] + (values[128] - values[64]) / (rho_sq - 1.0)
    assert values[128] == pytest.approx(SOFT_COULOMB_E00, abs=1e-3)
    assert extrapolated == pytest.approx(SOFT_COULOMB_E00, abs=2e-5)


def test_nuclear_rejections(harmonic2000, harmonic2000_setup):
    spec, _, _ = harmonic2000_setup
    field = harmonic2000.field
    with pytest.raises(ValueError):
        solve_nuclear(field, spec, 5, 1)
    with pytest.raises(ValueError):
        solve_nuclear(field, spec, 0, 0)
    with pytest.raises(ValueError):
        solve_nuclear(field, spec, 0, field.grid1.n + 1)


@pytest.mark.parametrize("potential", [HarmonicCoupling(1.0, 1.0), SoftCoulomb(1.0, 1.0, 1.0)],
                         ids=["harmonic", "soft_coulomb"])
def test_nuclear_levels_match_lapack_at_every_level(potential):
    # the gated batched solver at n_levels = n1 against LAPACK's tridiagonal eigensolver
    spec = ModelSpec(M=100.0, m=1.0, potential=potential)
    g1 = build_grid(-1.6, 1.6, 24)
    field = scan_pes(spec, g1, build_grid(-8.0, 8.0, 32), 1)
    sol = solve_nuclear(field, spec, 0, g1.n)
    d, e = kinetic_diagonals(g1, spec.M)
    d = d + field.energies[0]
    norm = np.abs(d).max() + 2.0 * np.abs(e).max()
    assert np.max(np.abs(sol.energies - eigh_tridiagonal(d, e, eigvals_only=True))) <= 1e-12 * norm
    gram = g1.h * sol.wavefunctions @ sol.wavefunctions.T
    assert np.max(np.abs(gram - np.eye(g1.n))) <= 1e-12


def test_nuclear_solve_on_a_non_finite_surface_names_it(harmonic2000, harmonic2000_setup):
    spec, _, _ = harmonic2000_setup
    energies = harmonic2000.field.energies.copy()
    energies[1, 40] = np.nan
    field = replace(harmonic2000.field, energies=energies)
    solve_nuclear(field, spec, 0, 1)  # surface 0 is untouched
    with pytest.raises(RuntimeError, match="^nuclear eigensolve failed on surface 1$") as info:
        solve_nuclear(field, spec, 1, 1)
    assert "non-finite" in str(info.value.__cause__)


def test_nuclear_wavefunctions_normalized(harmonic2000):
    sol = harmonic2000.nuclear[0]
    for n in range(len(sol.energies)):
        assert sol.theta(n).norm() == pytest.approx(1.0, abs=1e-10)
        # deterministic sign (grid.fix_signs): the first entry of at least half the
        # largest magnitude is positive
        values = sol.wavefunctions[n]
        mag = np.abs(values)
        assert values[int(np.argmax(mag >= 0.5 * mag.max()))] > 0


def test_nuclear_signs_survive_round_off_on_a_mirror_symmetric_surface(harmonic2000,
                                                                       harmonic2000_setup):
    # theta_1 on this surface is mirror-antisymmetric, so its two largest |entries| tie up to
    # round-off; perturbing the surface by 1e-14 (relative) must not flip its sign
    spec, _, _ = harmonic2000_setup
    field = harmonic2000.field
    ref = solve_nuclear(field, spec, 0, 3).wavefunctions
    rng = np.random.default_rng(4)
    for _ in range(12):
        noisy = field.energies * (1.0 + 1e-14 * rng.standard_normal(field.energies.shape))
        moved = solve_nuclear(replace(field, energies=noisy), spec, 0, 3).wavefunctions
        assert np.max(np.abs(moved - ref)) < 1e-6


def test_product_state_norm_and_labels(harmonic2000):
    for n, state in enumerate(harmonic2000.product_states):
        h1h2 = state.grid1.h * state.grid2.h
        assert h1h2 * np.sum(state.amplitudes**2) == pytest.approx(1.0, abs=1e-12)
        assert state.surface == 0 and state.level == n


def test_product_state_separable_is_tensor_product(separable_run):
    field = separable_run.field
    sol = separable_run.nuclear[0]
    state = separable_run.product_states[0]
    outer = np.outer(sol.wavefunctions[0], field.states[0, 0])
    outer /= np.sqrt(field.grid1.h * field.grid2.h * np.sum(outer**2))
    assert np.max(np.abs(state.amplitudes - outer)) < 1e-12


def test_product_state_grid_mismatch():
    spec = ModelSpec(M=10.0, m=1.0, potential=HarmonicCoupling(1.0, 1.0))
    g1 = build_grid(-1.0, 1.0, 16)
    g2 = build_grid(-6.0, 6.0, 64)
    field = scan_pes(spec, g1, g2, 1)
    sol = solve_nuclear(field, spec, 0, 1)
    other = scan_pes(spec, build_grid(-1.2, 1.2, 16), g2, 1)
    with pytest.raises(ValueError):
        assemble_product_state(sol, other, 0)
    with pytest.raises(ValueError):
        assemble_product_state(sol, field, 3)


def test_rayleigh_quotient_against_oracle(harmonic2000, harmonic2000_setup):
    spec, _, _ = harmonic2000_setup
    oracle = analytic_normal_modes(spec).ground_energy
    assert abs(harmonic2000.row.rayleigh_quotient - oracle) / oracle < 5e-3


def test_rayleigh_ritz_bound(harmonic2000, harmonic2000_setup, separable_run, separable_setup):
    for run, setup in ((harmonic2000, harmonic2000_setup), (separable_run, separable_setup)):
        spec, g1, g2 = setup
        h = assemble_full_hamiltonian(spec, g1, g2)
        e0 = run.exact.energies[0]
        for state in run.product_states:
            rq = rayleigh_quotient(h, state.amplitudes)
            assert rq >= e0 - 1e-10 * abs(e0)


def test_assembled_states_orthogonal(harmonic2000, harmonic2000_setup):
    spec, g1, g2 = harmonic2000_setup
    field = harmonic2000.field
    sol1 = solve_nuclear(field, spec, 1, 1)
    states = list(harmonic2000.product_states) + [assemble_product_state(sol1, field, 0)]
    h1h2 = g1.h * g2.h
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            ov = h1h2 * np.sum(states[i].amplitudes * states[j].amplitudes)
            assert abs(ov) < 1e-6


def test_adiabatic_residual_separable(separable_run):
    assert adiabatic_residual(separable_run.field, 0).max < 1e-10


def test_adiabatic_residual_harmonic_value(harmonic2000):
    # the slice states translate rigidly with x1, so the derivative norm is
    # the oscillator momentum spread sqrt(m omega2 / 2) on every surface
    rep = adiabatic_residual(harmonic2000.field, 0)
    assert rep.max == pytest.approx(np.sqrt(0.5), abs=1e-3)
    assert rep.per_slice.max() - rep.per_slice.min() < 1e-6
    rep1 = adiabatic_residual(harmonic2000.field, 1)
    assert rep1.max == pytest.approx(np.sqrt(1.5), abs=2e-3)


def test_adiabatic_residual_rejects_bad_surface(harmonic2000):
    with pytest.raises(ValueError):
        adiabatic_residual(harmonic2000.field, 7)


def test_residual_energy_to_gap_ratio_shrinks_with_mass():
    # the residual itself is O(1) in M; its energy contribution over the gap
    # falls off with the mass ratio
    spec_base = HarmonicCoupling(1.0, 1.0)
    g2 = build_grid(-6.5, 6.5, 128)
    ratios = {}
    for M, box in ((100.0, 1.2), (2000.0, 0.65)):
        spec = ModelSpec(M=M, m=1.0, potential=spec_base)
        g1 = build_grid(-box, box, 64)
        field = scan_pes(spec, g1, g2, 2)
        rep = adiabatic_residual(field, 0)
        gap = float(np.min(field.energies[1] - field.energies[0]))
        ratios[M] = (rep.max**2 / (2.0 * M)) / gap
    assert abs(ratios[100.0] - ratios[2000.0] * 20.0) / ratios[100.0] < 0.05
    assert ratios[2000.0] < ratios[100.0]


def test_t1_coupling_separable(separable_run, separable_setup):
    spec, _, _ = separable_setup
    field = separable_run.field
    nuclear = {0: separable_run.nuclear[0],
               1: solve_nuclear(field, spec, 1, 1)}
    sel = [(0, 0), (0, 1), (1, 0)]
    mat = t1_coupling_matrix(field, nuclear, sel, spec.M)
    off = mat - np.diag(np.diag(mat))
    assert np.max(np.abs(off)) < 1e-10
    # with x1-independent slice states the diagonal is the bare heavy kinetic energy
    theta = nuclear[0].wavefunctions[0]
    h1 = field.grid1.h
    lap = np.zeros_like(theta)
    lap[1:-1] = theta[2:] - 2 * theta[1:-1] + theta[:-2]
    lap[0] = theta[1] - 2 * theta[0]
    lap[-1] = theta[-2] - 2 * theta[-1]
    bare = -h1 * np.dot(theta, lap) / (h1 * h1) / (2.0 * spec.M)
    assert mat[0, 0] == pytest.approx(bare, abs=1e-10)


def test_t1_coupling_harmonic_suppression(harmonic2000, harmonic2000_setup):
    spec, _, _ = harmonic2000_setup
    field = harmonic2000.field
    nuclear = {a: solve_nuclear(field, spec, a, 2) for a in range(3)}
    sel = [(a, n) for a in range(3) for n in range(2)]
    mat = t1_coupling_matrix(field, nuclear, sel, spec.M)
    assert np.max(np.abs(mat - mat.T)) < 1e-8
    assert np.array_equal(mat, mat.T)
    off_max = np.max(np.abs(mat - np.diag(np.diag(mat))))
    min_gap = float(np.min(np.diff(field.energies, axis=0)))
    assert off_max / min_gap <= 0.05


def test_t1_coupling_is_the_on_grid_heavy_kinetic_operator(harmonic2000, harmonic2000_setup,
                                                           separable_run, separable_setup):
    # entry (r, c) is <theta_r psi_r| T1 |theta_c psi_c> with T1 the oracle's own x1 stencil
    for run, (spec, g1, _) in ((harmonic2000, harmonic2000_setup), (separable_run, separable_setup)):
        field = run.field
        nuclear = {a: solve_nuclear(field, spec, a, 2) for a in range(field.n_surfaces)}
        sel = [(a, n) for a in nuclear for n in range(2)]
        mat = t1_coupling_matrix(field, nuclear, sel, spec.M)
        states = [nuclear[a].wavefunctions[n][:, None] * field.states[a] for a, n in sel]
        ref = np.array([[product_inner(run.hamiltonian, bra,
                                       -second_difference(ket, g1) / (2.0 * spec.M)).real
                         for ket in states] for bra in states])
        assert np.max(np.abs(mat - ref)) <= 1e-10 * np.max(np.abs(mat))


def test_t1_coupling_rejections(harmonic2000, harmonic2000_setup):
    spec, _, _ = harmonic2000_setup
    field = harmonic2000.field
    with pytest.raises(ValueError):
        t1_coupling_matrix(field, {}, [(0, 0)], spec.M)


def test_t1_coupling_rejects_a_nuclear_solution_from_another_grid(harmonic2000, harmonic2000_setup):
    spec, g1, _ = harmonic2000_setup
    moved = replace(harmonic2000.nuclear[0], grid1=build_grid(g1.x_min, g1.x_max + 0.1, g1.n))
    with pytest.raises(ValueError, match="must share the field's nuclear grid"):
        t1_coupling_matrix(harmonic2000.field, {0: moved}, [(0, 0)], spec.M)


def test_born_huang_correction_magnitude(harmonic2000, harmonic2000_setup):
    # rigidly translating ground slice: correction = m omega2 / (4 M), constant.
    # The Born-Huang term is the rank-1 compression: each x1 link scales the
    # stencil coupling e_i by S[i, 0, 0], which on a smooth theta acts as the
    # diagonal term -2 e_i (1 - S[i, 0, 0]).
    spec, g1, _ = harmonic2000_setup
    field = harmonic2000.field
    _, e = kinetic_diagonals(g1, spec.M)
    corr = -2.0 * e * (1.0 - field.neighbour_overlaps(1)[:, 0, 0])
    assert np.all(corr > 0)
    assert corr.mean() == pytest.approx(1.0 / (4.0 * spec.M), rel=0.01)
    rank1 = solve_effective(build_projector(field, 1), harmonic2000.hamiltonian, 1)
    shift = rank1.energies[0] - harmonic2000.nuclear[0].energies[0]
    assert shift == pytest.approx(1.0 / (4.0 * spec.M), rel=0.02)
