"""Uncertainty products, the scaling sweep, and report assembly."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.fft import dst
from scipy.linalg import eigh_tridiagonal

from bolab.diagnostics import (UNCERTAINTY_SLACK, _dst_rows, compare_report,
                               kappa_scaling_study, kinetic_expectation, nuclear_region,
                               nuclear_uncertainty, run_pipeline, slice_uncertainty_products,
                               t1_scale_candidates, uncertainty_product,
                               uncertainty_product_stencil)
from bolab import diagnostics
from bolab.clamped import scan_pes
from bolab.exact import assemble_full_hamiltonian
from bolab.grid import GridFunction, build_grid
from bolab.model import HarmonicCoupling, ModelSpec
from bolab.serialize import dumps
from tests.conftest import REPO


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
    f = GridFunction(g, psi / np.sqrt(g.h * np.sum(np.abs(psi) ** 2)))
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


def test_unnormalized_product_state_rejected(harmonic2000):
    state = harmonic2000.product_states[0]
    with pytest.raises(ValueError, match="product state must be normalized"):
        nuclear_uncertainty(replace(state, amplitudes=2.0 * state.amplitudes))


def test_stencil_route_agrees_on_smooth_states():
    # sampled continuum Gaussian: the two routes converge at second order
    diffs = {}
    for n in (512, 2048):
        g = build_grid(-8.0, 8.0, n)
        psi = np.exp(-g.points**2 / 2.0)
        f = GridFunction(g, psi / np.sqrt(g.h * np.sum(psi**2)))
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


def test_nuclear_uncertainty_of_complex_state(harmonic2000):
    # a heavy-coordinate phase exp(i k x1) shifts only the mean momentum; the
    # interpolant of the boosted samples drifts like k^2, so k stays small
    state = harmonic2000.product_states[0]
    x1 = state.grid1.points
    boosted = replace(state, amplitudes=state.amplitudes * np.exp(1j * 5.0 * x1)[:, None])
    real, cplx = nuclear_uncertainty(state), nuclear_uncertainty(boosted)
    assert cplx.sigma_x == pytest.approx(real.sigma_x, abs=1e-10)
    assert cplx.sigma_p == pytest.approx(real.sigma_p, abs=1e-10)
    assert cplx.product == pytest.approx(real.product, abs=1e-10)


def test_slice_products_bounded(harmonic2000):
    field = harmonic2000.field
    products = slice_uncertainty_products(field)
    assert products.shape == (3, field.grid1.n)
    assert np.all(products >= 0.5 - UNCERTAINTY_SLACK)
    # the batched suite against the single-state route, slice by slice
    for a in range(field.n_surfaces):
        for i in range(field.grid1.n):
            single = uncertainty_product(field.state(a, i)).product
            assert products[a, i] == pytest.approx(single, rel=1e-12)
    with pytest.raises(ValueError):
        slice_uncertainty_products(replace(field, states=2.0 * field.states))


def test_slice_min_tie_break(separable_run):
    # separable slice states are identical, so their products tie at round-off;
    # the report names the first near-minimal slice in row-major order
    assert separable_run.uncertainty[-1].label == "slice_min[a=0,i=0]"


@pytest.mark.parametrize("n", [8, 192, 255, 256])
def test_dense_sine_transform_matches_dst(n):
    # the DST-I rows that So and Se are cut from form the orthonormal DST-I, an involution
    S = _dst_rows(np.arange(1, n + 1), n, n)
    v = np.random.default_rng(n).standard_normal((n, 5))
    ref = dst(v, type=1, norm="ortho", axis=0)
    assert np.max(np.abs(S @ v - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.allclose(S @ S, np.eye(n), rtol=0.0, atol=1e-13)


def _whole_matrix_moments(values, g):
    """Reference spreads and <p> from the whole moment matrices: u = x - x_min in [0, L],
    X1, X2 and QG over every pair (k, l), and c = sqrt(h) S v."""
    n, L = g.n, g.length
    k = np.arange(1, n + 1)
    K, Lk = np.meshgrid(k, k, indexing="ij")
    d, s = (K - Lk).astype(float), (K + Lk).astype(float)
    odd = (K - Lk) % 2 != 0
    inv_d = np.where(d == 0.0, 0.0, 1.0 / np.where(d == 0.0, 1.0, d))
    x1 = np.where(odd, -(2.0 * L / np.pi**2) * (inv_d**2 - 1.0 / s**2), 0.0)
    np.fill_diagonal(x1, L / 2.0)
    x2 = np.where(odd, -1.0, 1.0) * (2.0 * L**2 / np.pi**2) * (inv_d**2 - 1.0 / s**2)
    np.fill_diagonal(x2, L**2 * (1.0 / 3.0 - 1.0 / (2.0 * k**2 * np.pi**2)))
    q = k * np.pi / L
    qg = np.where(odd, (2.0 / np.pi) * (1.0 / s + inv_d), 0.0) * q[None, :]
    c = np.sqrt(g.h) * (_dst_rows(k, n, n) @ values)
    mean_u = np.real(np.sum(np.conj(c) * (x1 @ c), axis=0))
    mean_u2 = np.real(np.sum(np.conj(c) * (x2 @ c), axis=0))
    mean_p = np.imag(np.sum(np.conj(c) * (qg @ c), axis=0))
    sigma_x = np.sqrt(mean_u2 - mean_u**2)
    sigma_p = np.sqrt(np.sum(q[:, None] ** 2 * np.abs(c) ** 2, axis=0) - mean_p**2)
    return sigma_x, sigma_p, mean_p


@pytest.mark.parametrize("n", [8, 9, 255, 256, 384])
@pytest.mark.parametrize("dtype", [float, complex])
def test_parity_blocks_match_the_whole_matrices(n, dtype):
    # centred parity blocks against the uncentred whole matrices; odd n has a middle point
    g = build_grid(-1.3, 2.1, n)
    rng = np.random.default_rng(n)
    v = rng.standard_normal((n, 6)).astype(dtype)
    if dtype is complex:
        v += 1j * rng.standard_normal((n, 6))
    v /= np.sqrt(g.h * np.sum(np.abs(v) ** 2, axis=0))
    mean_u, mean_u2, mean_p, mean_p2 = diagnostics._column_moments(v, g)
    sigma_x, sigma_p = np.sqrt(mean_u2 - mean_u**2), np.sqrt(mean_p2 - mean_p**2)
    ref_x, ref_p, ref_mean_p = _whole_matrix_moments(v, g)
    assert np.allclose(sigma_x, ref_x, rtol=1e-12, atol=0.0)
    assert np.allclose(sigma_p, ref_p, rtol=1e-12, atol=0.0)
    assert np.allclose(mean_p, ref_mean_p, rtol=0.0, atol=1e-12 * np.max(np.abs(ref_mean_p)))
    if dtype is float:
        assert not mean_p.any()


@pytest.fixture
def kernel_columns(monkeypatch):
    """The column count of every ``_column_moments`` call, in call order."""
    columns, kernel = [], diagnostics._column_moments

    def spy(values, grid):
        columns.append(values.shape[1])
        return kernel(values, grid)
    monkeypatch.setattr(diagnostics, "_column_moments", spy)
    return columns


def test_mirrored_slices_are_evaluated_once(harmonic2000, kernel_columns):
    field = harmonic2000.field
    n1 = field.grid1.n
    assert field.mirrored and not field.degenerate_flags
    products = slice_uncertainty_products(field)
    assert kernel_columns == [(n1 + 1) // 2] * field.n_surfaces
    assert np.array_equal(products, products[:, ::-1])


def test_unmirrored_or_degenerate_fields_evaluate_every_slice(harmonic2000, harmonic2000_setup,
                                                              kernel_columns):
    spec, g1, g2 = harmonic2000_setup
    off_centre = scan_pes(spec, build_grid(-0.6, 0.7, g1.n), g2, 3)
    assert not off_centre.mirrored
    flagged = replace(harmonic2000.field, degenerate_flags=[1])
    for field in (off_centre, flagged):
        kernel_columns.clear()
        slice_uncertainty_products(field)
        assert kernel_columns == [g1.n] * 3


def test_import_does_not_load_scipy_fft():
    src = str(REPO / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    proc = subprocess.run(
        [sys.executable, "-c", "import bolab, sys; assert 'scipy.fft' not in sys.modules"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_nuclear_region_matches_gaussian_width(harmonic2000, harmonic2000_setup):
    spec, _, _ = harmonic2000_setup
    theta = harmonic2000.nuclear[0].theta(0)
    lo, hi = nuclear_region(theta)
    sigma = 1.0 / np.sqrt(2.0 * spec.M * np.sqrt(1.0 / spec.M))
    assert hi == pytest.approx(2.0 * sigma, rel=0.02)
    assert lo == pytest.approx(-2.0 * sigma, rel=0.02)


def test_nuclear_region_of_a_one_point_state_spans_its_point():
    # a heavy state on one grid point has zero width; the region still spans one spacing
    # either side of it, where a width-only region was the empty interval (0, 0)
    g = build_grid(-1.0, 1.0, 9)
    values = np.where(np.arange(9) == 4, 1.0 / np.sqrt(g.h), 0.0)
    lo, hi = nuclear_region(GridFunction(g, values))
    assert lo < g.points[4] < hi


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
    # a repeated ratio would give polyfit a rank-deficient fit and a made-up slope
    for ratios in ([100.0, 10.0], [10.0, 10.0]):
        with pytest.raises(ValueError):
            kappa_scaling_study(spec, ratios, g1, g2, A=2)


def test_empty_sweep_is_named_before_the_scan(monkeypatch):
    import bolab.diagnostics as diag

    def no_scan(*args, **kwargs):
        raise AssertionError("scan_pes called for an empty sweep")

    monkeypatch.setattr(diag, "scan_pes", no_scan)
    spec = ModelSpec(M=10.0, m=1.0, potential=HarmonicCoupling(1.0, 1.0))
    g1 = build_grid(-2.4, 2.4, 16)
    g2 = build_grid(-8.5, 8.5, 16)
    with pytest.raises(ValueError, match="mass_ratios is empty"):
        kappa_scaling_study(spec, [], g1, g2, A=2)


def test_one_surface_is_named_before_the_scan(monkeypatch):
    import bolab.diagnostics as diag

    def no_scan(*args, **kwargs):
        raise AssertionError("scan_pes called with one surface")

    monkeypatch.setattr(diag, "scan_pes", no_scan)
    spec = ModelSpec(M=10.0, m=1.0, potential=HarmonicCoupling(1.0, 1.0))
    g1 = build_grid(-2.4, 2.4, 16)
    g2 = build_grid(-8.5, 8.5, 16)
    with pytest.raises(ValueError, match="n_surfaces must be at least 2"):
        kappa_scaling_study(spec, [10.0, 100.0], g1, g2, A=1)
    with pytest.raises(ValueError, match="n_surfaces must be at least 2"):
        compare_report(spec, g1, g2, A=1, N=1)


@pytest.mark.parametrize("ratios, bad", [([10.0, float("nan")], "nan"), ([-1.0, 10.0], "-1.0"),
                                         ([10.0, float("inf")], "inf")], ids=["nan", "negative", "inf"])
def test_invalid_ratio_is_named_before_the_scan(monkeypatch, ratios, bad):
    import bolab.diagnostics as diag

    def no_scan(*args, **kwargs):
        raise AssertionError("scan_pes called for an invalid sweep")

    monkeypatch.setattr(diag, "scan_pes", no_scan)
    spec = ModelSpec(M=10.0, m=1.0, potential=HarmonicCoupling(1.0, 1.0))
    g1 = build_grid(-2.4, 2.4, 16)
    g2 = build_grid(-8.5, 8.5, 16)
    with pytest.raises(ValueError, match=rf"^mass ratio {bad}: masses must be finite and positive"):
        kappa_scaling_study(spec, ratios, g1, g2, A=2)


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

    calls, scans = [], []

    def counting(*args, **kwargs):
        calls.append(args)
        return assemble_full_hamiltonian(*args, **kwargs)

    def counting_scan(*args, **kwargs):
        scans.append(args)
        return scan_pes(*args, **kwargs)

    monkeypatch.setattr(diag, "assemble_full_hamiltonian", counting)
    monkeypatch.setattr(diag, "scan_pes", counting_scan)
    spec = ModelSpec(M=10.0, m=1.0, potential=HarmonicCoupling(1.0, 1.0))
    g1 = build_grid(-2.4, 2.4, 16)
    g2 = build_grid(-8.5, 8.5, 16)
    compare_report(spec, g1, g2, A=2, N=2)
    assert len(calls) == 1 and len(scans) == 1
    calls.clear()
    scans.clear()
    ratios = [10.0, 100.0]
    kappa_scaling_study(spec, ratios, g1, g2, A=2, threads=2)
    assert len(calls) == len(ratios)
    # the clamped family holds no M: one scan serves every row
    assert len(scans) == 1


@pytest.mark.parametrize("threads", [1, 2])
def test_shared_field_rows_equal_self_scanned_rows(threads):
    spec = ModelSpec(M=10.0, m=1.0, potential=HarmonicCoupling(1.0, 1.0))
    g1 = build_grid(-2.4, 2.4, 24)
    g2 = build_grid(-8.5, 8.5, 16)
    ratios = [10.0, 100.0, 1000.0]
    report = kappa_scaling_study(spec, ratios, g1, g2, A=2, threads=threads)
    assert report.rows == [run_pipeline(spec.with_mass_ratio(r), g1, g2, 2).row for r in ratios]


@pytest.mark.parametrize("grid1, grid2, A", [
    ((-2.4, 2.4, 20), (-8.5, 8.5, 16), 2),
    ((-2.4, 2.4, 16), (-8.0, 8.5, 16), 2),
    ((-2.4, 2.4, 16), (-8.5, 8.5, 16), 3),
], ids=["grid1", "grid2", "n_surfaces"])
def test_run_pipeline_rejects_foreign_field(grid1, grid2, A):
    spec = ModelSpec(M=10.0, m=1.0, potential=HarmonicCoupling(1.0, 1.0))
    g1 = build_grid(-2.4, 2.4, 16)
    g2 = build_grid(-8.5, 8.5, 16)
    field = scan_pes(spec, build_grid(*grid1), build_grid(*grid2), A)
    with pytest.raises(ValueError, match="other grids or with another surface count"):
        run_pipeline(spec, g1, g2, 2, field=field)


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
    report = compare_report(spec, g1, g2, A=2, N=2, nuclear_levels=2)
    assert report.rows[0].relative_error <= 1e-8
    assert report.t1_coupling["offdiag_max"] <= 1e-10
    assert report.residuals["surface_0"]["max"] <= 1e-10


def test_compare_report_harmonic(harmonic2000_setup):
    spec, g1, g2 = harmonic2000_setup
    report = compare_report(spec, g1, g2, A=3, N=3, nuclear_levels=3)
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


def test_report_key_order():
    # report.json is written in dataclass field order; pin it for both builders
    spec = ModelSpec(M=10.0, m=1.0, potential=HarmonicCoupling(1.0, 1.0))
    g1 = build_grid(-3.0, 3.0, 16)
    g2 = build_grid(-5.0, 5.0, 16)
    row_keys = ["mass_ratio", "kappa", "bo_energy", "rayleigh_quotient", "exact_energy",
                "relative_error", "heavy", "t1_candidates", "min_uncertainty_product",
                "residual_max", "residual_mean"]
    for report, ranks in ((compare_report(spec, g1, g2, A=2, N=2), [1, 2]),
                          (kappa_scaling_study(spec, [10.0, 100.0], g1, g2, A=2, N=2), [2])):
        d = report.to_dict()
        assert list(d) == ["schema_version", "model", "mass_ratios", "rows", "heavy",
                           "uncertainty", "residuals", "t1_coupling", "heff",
                           "error_kappa_slope"]
        assert list(d["rows"][0]) == row_keys
        assert list(d["rows"][0]["heavy"]) == ["region", "t1_scale", "min_gap", "ratio",
                                               "heavy_ok", "threshold"]
        assert list(d["uncertainty"][0]) == ["label", "sigma_x", "sigma_p", "product",
                                             "bound_ok"]
        assert list(d["heff"]) == ["ranks", "lowest", "gap_to_exact"]
        assert d["heff"]["ranks"] == ranks
