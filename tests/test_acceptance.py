"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import filecmp
import subprocess
import sys

import numpy as np
import pytest

from bolab.bo import adiabatic_residual, assemble_product_state, solve_nuclear, t1_coupling_matrix
from bolab.clamped import scan_pes
from bolab.diagnostics import (UNCERTAINTY_SLACK, nuclear_uncertainty,
                               slice_uncertainty_products, uncertainty_product)
from bolab.exact import assemble_full_hamiltonian, rayleigh_quotient, solve_exact
from bolab.grid import build_grid
from bolab.model import HarmonicCoupling, ModelSpec, analytic_normal_modes, kappa
from bolab.projection import build_projector, solve_effective
from tests.conftest import CONFIG_DIR


def _ok(criterion, detail):
    print(f"\n[acceptance] criterion {criterion}: PASS  ({detail})")


def test_criterion_1_kappa_reproduction():
    spec = ModelSpec(M=2000.0, m=1.0, potential=HarmonicCoupling(1.0, 1.0))
    value = kappa(spec)
    assert 0.1494 <= value <= 0.1496
    _ok(1, f"kappa(1/2000) = {value:.6f} in [0.1494, 0.1496]")


def test_criterion_2_harmonic_oracle_agreement():
    spec = ModelSpec(M=1.0, m=1.0, potential=HarmonicCoupling(1.0, 1.0))
    oracle = analytic_normal_modes(spec).ground_energy  # sqrt(5)/2
    energies = {}
    for n in (48, 96):
        h = assemble_full_hamiltonian(spec, build_grid(-5.0, 5.0, n), build_grid(-5.0, 5.0, n))
        energies[n] = solve_exact(h, 1).energies[0]
    rel = abs(energies[96] - oracle) / oracle
    assert rel <= 1e-3
    # two-resolution Richardson bound on the fine-grid error (x2 safety)
    rho_sq = (97.0 / 49.0) ** 2
    richardson_bound = 2.0 * abs(energies[96] - energies[48]) / (rho_sq - 1.0)
    assert abs(energies[96] - oracle) <= richardson_bound
    _ok(2, f"E(96x96) = {energies[96]:.6f} vs {oracle:.6f}, rel = {rel:.2e}")


def test_criterion_3_bo_convergence(sweep_report):
    errs = [r.relative_error for r in sweep_report.rows]
    ratios = [r.mass_ratio for r in sweep_report.rows]
    assert ratios == [10.0, 100.0, 1000.0, 2000.0]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 5e-3
    _ok(3, "relative errors " + " > ".join(f"{e:.2e}" for e in errs))


def test_criterion_4_uncertainty_suite(harmonic2000, separable_run):
    checked = 0
    worst = np.inf
    for run in (harmonic2000, separable_run):
        for n in range(len(run.nuclear[0].energies)):
            p = uncertainty_product(run.nuclear[0].theta(n)).product
            worst = min(worst, p)
            checked += 1
            assert p >= 0.5 - UNCERTAINTY_SLACK
        for state in run.product_states:
            p = nuclear_uncertainty(state).product
            worst = min(worst, p)
            checked += 1
            assert p >= 0.5 - UNCERTAINTY_SLACK
        slice_products = slice_uncertainty_products(run.field)
        worst = min(worst, float(slice_products.min()))
        checked += slice_products.size
        assert np.all(slice_products >= 0.5 - UNCERTAINTY_SLACK)
    ground = uncertainty_product(harmonic2000.nuclear[0].theta(0)).product
    assert ground == pytest.approx(0.5, abs=1e-3)
    _ok(4, f"{checked} states checked, min product = {worst:.9f}, ground theta = {ground:.6f}")


def test_criterion_5_variational_invariant(harmonic2000, harmonic2000_setup,
                                           separable_run, separable_setup,
                                           soft_coulomb_setup, soft_coulomb_oracle, sweep_report):
    # E_BO (no Born-Huang term) <= E_exact <= Rayleigh quotient of every product state,
    # and the rank-1 compression sits in between: E_exact <= E_heff(1) <= RQ(theta_0 psi_0)
    count = 0
    for run, setup in ((harmonic2000, harmonic2000_setup), (separable_run, separable_setup)):
        spec, g1, g2 = setup
        h = assemble_full_hamiltonian(spec, g1, g2)
        e0 = run.exact.energies[0]
        assert run.row.bo_energy <= e0 + 1e-10 * abs(e0)
        for state in run.product_states:
            assert rayleigh_quotient(h, state.amplitudes) >= e0 - 1e-10 * abs(e0)
            count += 1
    for row in sweep_report.rows:
        tol = 1e-10 * abs(row.exact_energy)
        assert row.bo_energy <= row.exact_energy + tol
        assert row.rayleigh_quotient >= row.exact_energy - tol
        count += 1
    soft_h, _, soft_exact = soft_coulomb_oracle
    soft_field = scan_pes(soft_coulomb_setup, soft_h.grid1, soft_h.grid2, 1)
    for h, field, spec, e0 in ((harmonic2000.hamiltonian, harmonic2000.field,
                                harmonic2000_setup[0], harmonic2000.exact.energies[0]),
                               (separable_run.hamiltonian, separable_run.field,
                                separable_setup[0], separable_run.exact.energies[0]),
                               (soft_h, soft_field, soft_coulomb_setup, soft_exact[0])):
        trial = assemble_product_state(solve_nuclear(field, spec, 0, 1), field, 0)
        rq = rayleigh_quotient(h, trial.amplitudes)
        heff = solve_effective(build_projector(field, 1), h, 1).energies[0]
        assert e0 <= heff + 1e-10 * abs(e0)
        assert heff <= rq + 1e-10 * abs(e0)
    _ok(5, f"{count} product states above the exact ground energy, every BO energy below it, "
           "E_exact <= E_heff(1) <= RQ on 3 models")


def test_criterion_6_projection_facts(harmonic2000, harmonic2000_setup):
    spec, g1, g2 = harmonic2000_setup
    field = harmonic2000.field
    h = assemble_full_hamiltonian(spec, g1, g2)
    p = build_projector(field, 2)
    rng = np.random.default_rng(41)
    scale = float(np.max(np.abs(field.energies)))
    for _ in range(5):
        v = rng.standard_normal((g1.n, g2.n))
        pv = p.apply(v)
        assert np.linalg.norm(p.apply(pv) - pv) <= 1e-10 * np.linalg.norm(v)
        v_perp = v - pv
        out = p.apply(h.apply(p.apply(v_perp)))
        assert np.linalg.norm(out) <= 1e-10 * scale * np.linalg.norm(v_perp)
    e0 = harmonic2000.exact.energies[0]
    lowest = []
    for rank in (1, 2, 3):
        eff = solve_effective(build_projector(field, rank), h, 1)
        lowest.append(eff.energies[0])
    rel = abs(lowest[0] - e0) / abs(e0)
    assert rel < 5e-3
    assert lowest[1] <= lowest[0] + 1e-12 and lowest[2] <= lowest[1] + 1e-12
    _ok(6, f"N=1 rel err = {rel:.2e}; lowest drift {lowest[0]:.8f} -> {lowest[2]:.8f}")


def test_criterion_7_separable_exactness(separable_run, separable_setup):
    spec, _, _ = separable_setup
    row = separable_run.row
    assert row.relative_error <= 1e-8
    field = separable_run.field
    for a in range(field.n_surfaces):
        assert adiabatic_residual(field, a).max <= 1e-10
    nuclear = {0: separable_run.nuclear[0], 1: solve_nuclear(field, spec, 1, 1)}
    mat = t1_coupling_matrix(field, nuclear, [(0, 0), (0, 1), (1, 0)], spec.M)
    off_max = np.max(np.abs(mat - np.diag(np.diag(mat))))
    assert off_max <= 1e-10
    _ok(7, f"rel err = {row.relative_error:.1e}, residual <= 1e-10, offdiag = {off_max:.1e}")


def test_criterion_8_heavy_regime(harmonic2000, harmonic2000_setup):
    spec, _, _ = harmonic2000_setup
    heavy = harmonic2000.row.heavy
    assert heavy.heavy_ok
    prediction = np.sqrt(spec.M * 1.0 / (spec.m * 1.0))  # sqrt(M k2 / (m k1))
    assert abs(heavy.ratio - prediction) / prediction <= 0.05
    _ok(8, f"gap/T1 = {heavy.ratio:.2f} vs closed form {prediction:.2f}, heavy_ok = {heavy.heavy_ok}")


def test_criterion_9_determinism(tmp_path):
    config = CONFIG_DIR / "scaling_harmonic.json"
    outputs = []
    for threads, name in ((1, "a"), (3, "b")):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "bolab.cli", "scaling",
             "--config", str(config), "--out", str(out), "--threads", str(threads)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out)
    for name in ("scaling.csv", "report.json"):
        assert filecmp.cmp(outputs[0] / name, outputs[1] / name, shallow=False), \
            f"{name} differs between thread counts"
    _ok(9, "scaling.csv and report.json byte-identical for --threads 1 vs 3")
