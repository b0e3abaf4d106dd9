"""Uncertainty products, the scaling sweep, and report assembly."""

import json

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from bolab.diagnostics import (UNCERTAINTY_SLACK, compare_report, kappa_scaling_study,
                               kinetic_expectation, nuclear_region, nuclear_uncertainty,
                               run_pipeline, slice_uncertainty_products,
                               t1_scale_candidates, uncertainty_product,
                               uncertainty_product_stencil)
from bolab.exact import assemble_full_hamiltonian
from bolab.grid import GridFunction, build_grid
from bolab.model import HarmonicCoupling, ModelSpec
from bolab.serialize import dumps


def _oscillator_state(n_points, box, level, mass=1.0, omega=1.0):
    g = build_grid(-box, box, n_points)
    kin = 1.0 / (2.0 * mass * g.h * g.h)
    diag = 2.0 * kin + 0.5 * mass * omega**2 * g.points**2
    off = np.full(g.n - 1, -kin)
    _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(level, level))
    return GridFunction(g, vecs[:, 0] / np.sqrt(g.h))


def test_ground_state_is_minimum_uncertainty():
    f = _oscillator_state(256, 8.0, 0)
    res = uncertainty_product(f)
    assert res.product == pytest.approx(0.5, abs=1e-3)
    assert res.product >= 0.5 - UNCERTAINTY_SLACK
    assert res.bound_ok


def test_excited_state_product():
    f = _oscillator_state(256, 8.0, 1)
    res = uncertainty_product(f)
    assert res.product == pytest.approx(1.5, abs=1e-3)


def test_boosted_state_keeps_minimum_product():
    # e^{i p0 x} times a Gaussian: same spreads, nonzero mean momentum
    g = build_grid(-10.0, 10.0, 256)
    psi = np.exp(-g.points**2 / 2.0) * np.exp(1j * 0.7 * g.points)
    f = GridFunction(g, psi).normalized()
    res = uncertainty_product(f)
    assert res.product == pytest.approx(0.5, abs=2e-3)
    assert res.product >= 0.5 - UNCERTAINTY_SLACK
    assert res.sigma_p == pytest.approx(np.sqrt(0.5), abs=2e-3)


def test_unnormalized_input_rejected():
    g = build_grid(-5.0, 5.0, 64)
    with pytest.raises(ValueError):
        uncertainty_product(GridFunction(g, np.ones(64)))
    with pytest.raises(ValueError):
        uncertainty_product_stencil(GridFunction(g, np.ones(64)))


def test_stencil_route_agrees_on_smooth_states():
    # sampled continuum Gaussian: the two routes converge at second order
    diffs = {}
    for n in (512, 2048):
        g = build_grid(-8.0, 8.0, n)
        f = GridFunction(g, np.exp(-g.points**2 / 2.0)).normalized()
        a = uncertainty_product(f).product
        b = uncertainty_product_stencil(f).product
        diffs[n] = abs(a - b)
    assert diffs[2048] < 1e-5
    assert diffs[512] / diffs[2048] > 8.0


def test_stencil_route_dips_below_bound_on_discrete_eigenstates():
    # the reason the interpolant route is primary: stencil moments of the
    # discrete oscillator ground state land below hbar/2 by O(h^2)
    f = _oscillator_state(96, 8.0, 0)
    stencil = uncertainty_product_stencil(f)
    spectral = uncertainty_product(f)
    assert stencil.product < 0.5 - 1e-5
    assert spectral.product >= 0.5 - UNCERTAINTY_SLACK


def test_nuclear_reduced_states_obey_bound(harmonic2000):
    for state in harmonic2000.product_states:
        res = nuclear_uncertainty(state)
        assert res.product >= 0.5 - UNCERTAINTY_SLACK


def test_nuclear_reduced_state_of_separable_is_pure(separable_run):
    state = separable_run.product_states[0]
    theta = separable_run.nuclear[0].theta(0)
    mixed = nuclear_uncertainty(state)
    pure = uncertainty_product(theta)
    assert mixed.product == pytest.approx(pure.product, abs=1e-10)
    assert mixed.sigma_x == pytest.approx(pure.sigma_x, abs=1e-10)


def test_slice_products_bounded(harmonic2000):
    products = slice_uncertainty_products(harmonic2000.field)
    assert products.shape == (3, harmonic2000.field.grid1.n)
    assert np.all(products >= 0.5 - UNCERTAINTY_SLACK)


def test_nuclear_region_matches_gaussian_width(harmonic2000, harmonic2000_setup):
    spec, _, _ = harmonic2000_setup
    theta = harmonic2000.nuclear[0].theta(0)
    lo, hi = nuclear_region(theta)
    sigma = 1.0 / np.sqrt(2.0 * spec.M * np.sqrt(1.0 / spec.M))
    assert hi == pytest.approx(2.0 * sigma, rel=0.02)
    assert lo == pytest.approx(-2.0 * sigma, rel=0.02)


def test_t1_scale_candidates(harmonic2000, harmonic2000_setup):
    spec, _, _ = harmonic2000_setup
    cands = t1_scale_candidates(harmonic2000.nuclear[0], spec.M)
    omega1 = np.sqrt(1.0 / spec.M)
    assert cands["level_spacing"] == pytest.approx(omega1, rel=0.01)
    # oscillator ground state: kinetic energy is a quarter of the spacing
    assert cands["kinetic_expectation"] == pytest.approx(omega1 / 4.0, rel=0.05)
    theta = harmonic2000.nuclear[0].theta(0)
    assert kinetic_expectation(theta, spec.M) == cands["kinetic_expectation"]


def test_sweep_errors_decrease_and_kappa_reported(sweep_report):
    rows = sweep_report.rows
    assert [r.mass_ratio for r in rows] == [10.0, 100.0, 1000.0, 2000.0]
    errs = [r.relative_error for r in rows]
    assert all(e > 0 and np.isfinite(e) for e in errs)
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert 0.1494 <= rows[-1].kappa <= 0.1496
    for r in rows:
        assert r.kappa == pytest.approx((1.0 / r.mass_ratio) ** 0.25, abs=1e-12)
        assert r.rayleigh_quotient >= r.exact_energy - 1e-10 * abs(r.exact_energy)
        assert r.min_uncertainty_product >= 0.5 - UNCERTAINTY_SLACK


def test_sweep_error_kappa_slope(sweep_report):
    assert sweep_report.error_kappa_slope >= 2.0


def test_sweep_requires_ascending_ratios():
    spec = ModelSpec(M=10.0, m=1.0, potential=HarmonicCoupling(1.0, 1.0))
    g1 = build_grid(-2.4, 2.4, 16)
    g2 = build_grid(-8.5, 8.5, 16)
    with pytest.raises(ValueError):
        kappa_scaling_study(spec, [100.0, 10.0], g1, g2, A=2)


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_failure_names_offending_ratio(monkeypatch, threads):
    import bolab.diagnostics as diag

    def explode(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(diag, "run_pipeline", explode)
    spec = ModelSpec(M=10.0, m=1.0, potential=HarmonicCoupling(1.0, 1.0))
    g1 = build_grid(-2.4, 2.4, 16)
    g2 = build_grid(-8.5, 8.5, 16)
    with pytest.raises(RuntimeError, match="mass ratio 10"):
        kappa_scaling_study(spec, [10.0, 100.0], g1, g2, A=2, threads=threads)


def test_one_hamiltonian_per_pipeline_pass(monkeypatch):
    import bolab.diagnostics as diag

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return assemble_full_hamiltonian(*args, **kwargs)

    monkeypatch.setattr(diag, "assemble_full_hamiltonian", counting)
    spec = ModelSpec(M=10.0, m=1.0, potential=HarmonicCoupling(1.0, 1.0))
    g1 = build_grid(-2.4, 2.4, 16)
    g2 = build_grid(-8.5, 8.5, 16)
    compare_report(spec, g1, g2, A=2, N=2)
    assert len(calls) == 1
    calls.clear()
    ratios = [10.0, 100.0]
    kappa_scaling_study(spec, ratios, g1, g2, A=2, threads=2)
    assert len(calls) == len(ratios)


def test_equal_mass_control_case():
    # ratio 1 still produces a full report; the gap condition simply fails
    spec = ModelSpec(M=1.0, m=1.0, potential=HarmonicCoupling(1.0, 1.0))
    g1 = build_grid(-4.0, 4.0, 48)
    g2 = build_grid(-6.0, 6.0, 48)
    report = kappa_scaling_study(spec, [1.0], g1, g2, A=2)
    row = report.rows[0]
    assert row.kappa == pytest.approx(1.0)
    assert np.isfinite(row.relative_error) and row.relative_error >= 0
    assert not row.heavy.heavy_ok
    assert row.min_uncertainty_product >= 0.5 - UNCERTAINTY_SLACK


def test_compare_report_separable(separable_setup):
    spec, g1, g2 = separable_setup
    report = compare_report(spec, g1, g2, A=2, N=2, nuclear_levels=2, exact_k=2)
    assert report.rows[0].relative_error <= 1e-8
    assert report.t1_coupling["offdiag_max"] <= 1e-10
    assert report.residuals["surface_0"]["max"] <= 1e-10


def test_compare_report_harmonic(harmonic2000_setup):
    spec, g1, g2 = harmonic2000_setup
    report = compare_report(spec, g1, g2, A=3, N=3, nuclear_levels=3, exact_k=3)
    assert report.heavy.heavy_ok
    assert all(u.bound_ok for u in report.uncertainty)
    assert report.heff["ranks"] == [1, 2, 3]
    low = report.heff["lowest"]
    assert low[1] <= low[0] and low[2] <= low[1]
    assert report.t1_coupling["suppression_ratio"] <= 0.05


def test_report_serialization_round_trip(sweep_report):
    text = dumps(sweep_report.to_dict())
    parsed = json.loads(text)
    assert dumps(parsed) == text
