"""The exact two-body oracle: assembly, symmetry, spectra, determinism."""

from operator import attrgetter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import eigsh

from bolab import clamped, exact
from bolab.clamped import scan_pes
from bolab.cli import load_config, main
from bolab.diagnostics import run_pipeline
from bolab.exact import (_SHIFT_OFFSET, DEFAULT_SEED, SolverError, _bo_lower_bound, _ncv,
                         assemble_full_hamiltonian, product_inner, rayleigh_quotient, solve_exact)
from bolab.grid import (build_grid, fix_signs, inversion_even, kinetic_diagonals,
                        second_difference, slice_eigenpairs, sturm_counts)
from bolab.model import (HarmonicCoupling, ModelSpec, SeparableHarmonic, SoftCoulomb,
                         analytic_normal_modes, evaluate_potential)
from tests.conftest import CONFIG_DIR


def _harmonic(M=1.0, m=1.0):
    return ModelSpec(M=M, m=m, potential=HarmonicCoupling(1.0, 1.0))


def test_dimension():
    h = assemble_full_hamiltonian(_harmonic(), build_grid(-5, 5, 24), build_grid(-5, 5, 32))
    assert h.dim == 24 * 32


def test_dimension_guard():
    with pytest.raises(ValueError):
        assemble_full_hamiltonian(_harmonic(), build_grid(-5, 5, 400), build_grid(-5, 5, 400))


def test_symmetry_probe():
    h = assemble_full_hamiltonian(_harmonic(), build_grid(-5, 5, 20), build_grid(-5, 5, 24))
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = rng.standard_normal((20, 24))
        g = rng.standard_normal((20, 24))
        lhs = product_inner(h, f, h.apply(g))
        rhs = product_inner(h, h.apply(f), g)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_apply_matches_sparse():
    h = assemble_full_hamiltonian(_harmonic(M=3.0), build_grid(-4, 4, 16), build_grid(-5, 5, 20))
    rng = np.random.default_rng(8)
    f = rng.standard_normal((16, 20))
    dense_action = (h.as_sparse @ f.ravel()).reshape(16, 20)
    assert np.allclose(h.apply(f), dense_action, atol=1e-13)


def test_constant_potential_separates_into_boxes():
    spec = ModelSpec(M=3.0, m=1.0, potential=SeparableHarmonic(0.0, 0.0))
    g1 = build_grid(-1.0, 1.0, 16)
    g2 = build_grid(0.0, 3.0, 12)
    h = assemble_full_hamiltonian(spec, g1, g2)
    sol = solve_exact(h, 1)
    box = lambda g, mass: (1.0 - np.cos(np.pi / (g.n + 1))) / (mass * g.h * g.h)
    assert sol.energies[0] == pytest.approx(box(g1, 3.0) + box(g2, 1.0), abs=1e-10)


def _oned_levels(grid, mass, potential_values, k):
    t = second_difference(np.eye(grid.n), grid) / (-2.0 * mass)
    vals = eigh_tridiagonal(np.diag(t) + potential_values, np.diag(t, 1),
                            select="i", select_range=(0, k - 1), eigvals_only=True)
    return vals


@pytest.mark.parametrize("n", [24, 72])
def test_separable_eigenvalues_are_sums(n):
    # tensor-separable potential: product-grid spectrum is exactly the sums of
    # the 1-D spectra, on a small and a larger grid
    spec = ModelSpec(M=2.0, m=1.0, potential=SeparableHarmonic(1.0, 2.0))
    g1 = build_grid(-6.0, 6.0, n)
    g2 = build_grid(-6.0, 6.0, n)
    h = assemble_full_hamiltonian(spec, g1, g2)
    k = 6
    sol = solve_exact(h, k)
    e1 = _oned_levels(g1, 2.0, 0.5 * 1.0 * g1.points**2, k)
    e2 = _oned_levels(g2, 1.0, 0.5 * 2.0 * g2.points**2, k)
    sums = np.sort(np.add.outer(e1, e2).ravel())[:k]
    assert np.allclose(sol.energies, sums, atol=1e-9)


def test_harmonic_equal_mass_ground():
    oracle = analytic_normal_modes(_harmonic()).ground_energy
    h = assemble_full_hamiltonian(_harmonic(), build_grid(-5, 5, 48), build_grid(-5, 5, 48))
    sol = solve_exact(h, 1)
    assert sol.energies[0] == pytest.approx(oracle, rel=5e-3)


def test_harmonic_heavy_two_resolution_richardson():
    spec = _harmonic(M=2000.0)
    oracle = analytic_normal_modes(spec).ground_energy
    values = {}
    for n in (64, 128):
        h = assemble_full_hamiltonian(spec, build_grid(-0.65, 0.65, n), build_grid(-5.5, 5.5, n))
        values[n] = solve_exact(h, 1).energies[0]
    rho_sq = (129.0 / 65.0) ** 2
    extrapolated = values[128] + (values[128] - values[64]) / (rho_sq - 1.0)
    spread = abs(values[128] - values[64])
    assert abs(extrapolated - oracle) <= 0.5 * spread
    assert values[128] == pytest.approx(oracle, rel=2e-3)


def test_grid_convergence_factor():
    spec = _harmonic()
    energies = {}
    for n in (24, 48, 96):
        h = assemble_full_hamiltonian(spec, build_grid(-5, 5, n), build_grid(-5, 5, n))
        energies[n] = solve_exact(h, 1).energies[0]
    d1 = abs(energies[48] - energies[24])
    d2 = abs(energies[96] - energies[48])
    assert d1 / d2 >= 3.0


def test_eigenpairs_ordered_orthonormal_with_residuals(harmonic2000, harmonic2000_setup):
    spec, g1, g2 = harmonic2000_setup
    h = assemble_full_hamiltonian(spec, g1, g2)
    sol = solve_exact(h, 3)
    assert np.all(np.diff(sol.energies) > 0)
    assert np.all(sol.residuals <= 1e-9 * np.maximum(np.abs(sol.energies), 1e-6))
    for i in range(3):
        for j in range(3):
            ov = product_inner(h, sol.states[i], sol.states[j])
            assert ov == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)
    # eigenvector contract: applying H reproduces E * state
    assert np.allclose(h.apply(sol.states[0]), sol.energies[0] * sol.states[0], atol=1e-9)


def test_determinism_bitwise(harmonic2000_setup):
    spec, g1, g2 = harmonic2000_setup
    h1 = assemble_full_hamiltonian(spec, g1, g2)
    h2 = assemble_full_hamiltonian(spec, g1, g2)
    a = solve_exact(h1, 2, seed=99)
    b = solve_exact(h2, 2, seed=99)
    assert a.energies.tobytes() == b.energies.tobytes()
    assert a.states.tobytes() == b.states.tobytes()


def test_k_validation():
    h = assemble_full_hamiltonian(_harmonic(), build_grid(-5, 5, 10), build_grid(-5, 5, 10))
    with pytest.raises(ValueError):
        solve_exact(h, 0)
    with pytest.raises(ValueError):
        solve_exact(h, 21)


def test_rayleigh_quotient_of_eigenstate(harmonic2000, harmonic2000_setup):
    spec, g1, g2 = harmonic2000_setup
    h = assemble_full_hamiltonian(spec, g1, g2)
    sol = solve_exact(h, 1)
    assert rayleigh_quotient(h, sol.states[0]) == pytest.approx(sol.energies[0], abs=1e-10)


def _oracle_cases(harmonic2000, separable_run, soft_coulomb_oracle):
    yield harmonic2000.hamiltonian, harmonic2000.row.bo_energy, harmonic2000.exact_energies
    yield separable_run.hamiltonian, separable_run.row.bo_energy, separable_run.exact_energies
    yield soft_coulomb_oracle


def test_bo_lower_bound_sits_below_the_exact_ground_energy(harmonic2000, separable_run,
                                                           soft_coulomb_oracle):
    for h, _, exact in _oracle_cases(harmonic2000, separable_run, soft_coulomb_oracle):
        assert _bo_lower_bound(h) <= exact[0]


def test_bo_lower_bound_is_the_pipeline_bo_energy(harmonic2000, separable_run,
                                                  soft_coulomb_oracle):
    # built from H alone, it reproduces scan_pes + solve_nuclear on surface 0
    for h, bo_energy, _ in _oracle_cases(harmonic2000, separable_run, soft_coulomb_oracle):
        assert _bo_lower_bound(h) == pytest.approx(bo_energy, rel=1e-12)


def test_bo_lower_bound_solves_half_the_slices_of_a_centred_box(solved_rows, harmonic2000):
    # lambda_0 from H's own pieces: one call on ceil(n1/2) slices, the rest mirrored; then
    # the one-row heavy solve
    _bo_lower_bound(harmonic2000.hamiltonian)
    assert solved_rows == [(harmonic2000.hamiltonian.grid1.n + 1) // 2, 1]


def test_bo_lower_bound_is_exact_for_a_separable_potential(separable_run):
    # the tightest case: the shift sits only 1e-6 |E| below E_0
    e0 = separable_run.exact_energies[0]
    assert abs(_bo_lower_bound(separable_run.hamiltonian) - e0) <= 1e-10 * abs(e0)


@pytest.fixture
def factorizations(monkeypatch):
    """Solve counts, one entry per ``exact.splu`` call, and eigsh's own factorizations."""
    arpack = pytest.importorskip("scipy.sparse.linalg._eigen.arpack.arpack")
    solves, own = [], []
    factorize, eigsh_factorize = exact.splu, arpack.get_OPinv_matvec

    def counted(*args, **kwargs):
        lu = factorize(*args, **kwargs)
        solves.append(0)

        def solve(x):
            solves[-1] += 1
            return lu.solve(x)
        return SimpleNamespace(solve=solve)

    def recorded(*args, **kwargs):
        own.append(args)
        return eigsh_factorize(*args, **kwargs)

    monkeypatch.setattr(exact, "splu", counted)
    monkeypatch.setattr(arpack, "get_OPinv_matvec", recorded)
    return solves, own


@pytest.fixture(scope="module")
def sweep_hamiltonians():
    # the scaling_harmonic config: four mass ratios on 192 x 96, exact k = 1
    g1, g2 = build_grid(-2.4, 2.4, 192), build_grid(-8.5, 8.5, 96)
    return [assemble_full_hamiltonian(_harmonic(M=ratio), g1, g2)
            for ratio in (10.0, 100.0, 1000.0, 2000.0)]


def test_shift_invert_takes_one_lanczos_pass_for_every_seed(harmonic2000, factorizations):
    # k=3 is the first k where ARPACK's default basis needed a restart for
    # some start vectors; every seed should cost the same ncv + 1 solves in
    # each parity sector: 3 levels from the even one, 2 from the odd one.
    solves, own = factorizations
    for seed in range(8):
        solve_exact(harmonic2000.hamiltonian, 3, seed=seed)
    assert solves == [_ncv(3) + 1, _ncv(2) + 1] * 8
    assert own == []


def test_shift_invert_k1_solve_count_is_small_and_seed_independent(harmonic2000,
                                                                   sweep_hamiltonians,
                                                                   factorizations):
    solves, own = factorizations
    for h in [harmonic2000.hamiltonian, *sweep_hamiltonians]:
        solves.clear()
        for seed in range(6):
            solve_exact(h, 1, seed=seed)
        assert len(solves) == 6 and len(set(solves)) == 1 and solves[0] <= 12
    assert own == []


def test_shift_invert_matches_eigsh_own_factorization(harmonic2000, soft_coulomb_oracle,
                                                      sweep_hamiltonians):
    # eigsh factoring H - sigma I itself (general LU, partial pivoting) is the
    # reference for the symmetric-mode factor solve_exact passes as OPinv
    soft_h, _, soft_energies = soft_coulomb_oracle
    cases = [(harmonic2000.hamiltonian, harmonic2000.exact_energies),
             (soft_h, soft_energies),
             *((h, solve_exact(h, 1).energies) for h in sweep_hamiltonians)]
    for h, energies in cases:
        e_bo = _bo_lower_bound(h)
        sigma = e_bo - _SHIFT_OFFSET * max(1.0, abs(e_bo))
        v0 = np.random.default_rng(DEFAULT_SEED).standard_normal(h.dim)
        ref = np.sort(eigsh(h.as_sparse, k=len(energies), sigma=sigma, v0=v0,
                            return_eigenvectors=False))
        assert np.allclose(energies, ref, rtol=1e-12, atol=0.0)


def test_factorization_failure_is_a_solver_error(harmonic2000, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(exact, "splu", singular)
    with pytest.raises(SolverError, match="exactly singular"):
        solve_exact(harmonic2000.hamiltonian, 1)


def test_residuals_above_the_contract_are_a_solver_error(harmonic2000, tmp_path, monkeypatch,
                                                           capsys):
    monkeypatch.setattr(exact, "RESIDUAL_RTOL", 1e-30)
    with pytest.raises(SolverError, match="exceed the contract"):
        solve_exact(harmonic2000.hamiltonian, 1)
    out = tmp_path / "out"
    assert main(["exact", "--config", str(CONFIG_DIR / "separable.json"), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("solver failure: eigensolver residuals")


def test_apply_rejects_an_array_off_the_product_grid():
    h = assemble_full_hamiltonian(_harmonic(), build_grid(-4, 4, 16), build_grid(-5, 5, 20))
    with pytest.raises(ValueError, match="does not match product grid"):
        h.apply(np.zeros((20, 16)))


# --------------------------------------------------------------------------
# assembly from the five diagonals, and the lambda_0 certificate

def _kron_sum(h):
    """Reference assembly: T1 (x) I + I (x) T2 + diag W, each T from kinetic_diagonals."""
    def kinetic(grid, mass):
        d, e = kinetic_diagonals(grid, mass)
        return sp.diags([e, d, e], [-1, 0, 1])
    n1, n2 = h.grid1.n, h.grid2.n
    return (sp.kron(kinetic(h.grid1, h.mass1), sp.identity(n2))
            + sp.kron(sp.identity(n1), kinetic(h.grid2, h.mass2))
            + sp.diags(h.potential_grid.ravel())).tocsc()


@pytest.mark.parametrize("spec, n1, n2", [
    (_harmonic(M=2000.0), 128, 128),
    (ModelSpec(M=100.0, m=1.0, potential=SoftCoulomb(1.0, 1.0, 1.0)), 24, 40),
    (ModelSpec(M=3.0, m=1.0, potential=SeparableHarmonic(1.0, 2.0)), 8, 9),
], ids=["harmonic_m2000", "soft_coulomb", "separable_smallest"])
def test_sparse_assembly_is_the_kron_sum(spec, n1, n2):
    h = assemble_full_hamiltonian(spec, build_grid(-0.65, 0.65, n1), build_grid(-5.5, 5.5, n2))
    hs = h.as_sparse
    assert hs.format == "csc"
    assert hs.nnz == n1 * n2 + 2 * (n1 - 1) * n2 + 2 * n1 * (n2 - 1)
    assert hs.has_sorted_indices
    assert all(np.all(np.diff(hs.indices[a:b]) > 0) for a, b in zip(hs.indptr, hs.indptr[1:]))
    assert np.all(hs.data != 0.0)
    ref = _kron_sum(h)
    assert np.array_equal(hs.indptr, ref.indptr) and np.array_equal(hs.indices, ref.indices)
    assert hs.data.tobytes() == ref.data.tobytes()


def test_certificate_passes_exactly_when_every_slice_lies_above_mu():
    rng = np.random.default_rng(11)
    for _ in range(100):
        r, n = rng.integers(1, 6), rng.integers(1, 40)
        d = rng.standard_normal((r, n))
        e = rng.standard_normal(n - 1) * rng.choice([1e-8, 1.0, 10.0])
        mu = 2.0 * rng.standard_normal((r, 1))
        failing = [i for i in range(r)
                   if eigh_tridiagonal(d[i], e, eigvals_only=True)[0] <= mu[i, 0]]
        assert np.flatnonzero(sturm_counts(d, e, mu)).tolist() == failing
    # the count at several shifts per slice is the number of eigenvalues at or below each
    for _ in range(100):
        r, n, k = rng.integers(1, 6), rng.integers(1, 40), rng.integers(1, 5)
        d = rng.standard_normal((r, n))
        e = rng.standard_normal(n - 1) * rng.choice([1e-8, 1.0, 10.0])
        mu = 3.0 * rng.standard_normal((r, k))
        ref = [[int(np.sum(eigh_tridiagonal(row, e, eigvals_only=True) <= x)) for x in shifts]
               for row, shifts in zip(d, mu)]
        assert sturm_counts(d, e, mu).tolist() == ref
    # n = 1, where each slice is its one eigenvalue
    one = sturm_counts(np.array([[2.0], [-1.0]]), np.zeros(0), np.array([[1.9, 2.0], [-2.0, 0.0]]))
    assert one.tolist() == [[0, 1], [0, 1]]
    # a zero pivot counts as an eigenvalue at the shift (levels -1 and 1 here), and a NaN
    # entry or shift counts n
    shifts = np.array([[-1.5, -1.0, 0.0, 1.0]])
    assert sturm_counts(np.zeros((1, 2)), np.ones(1), shifts).tolist() == [[0, 1, 1, 2]]
    assert sturm_counts(np.array([[3.0, 3.0], [np.nan, 3.0], [3.0, 3.0]]), np.ones(1),
                        np.array([[0.0], [0.0], [np.nan]])).tolist() == [[0], [2], [2]]


def test_raised_hint_is_a_solver_error_before_factoring(harmonic2000, monkeypatch):
    calls = []
    monkeypatch.setattr(exact, "splu", lambda *args, **kwargs: calls.append(args))
    lam0 = harmonic2000.field.energies[0].copy()
    lam0[40] += 1e-3
    with pytest.raises(SolverError, match="slice 40 is not positive definite"):
        solve_exact(harmonic2000.hamiltonian, 1, lam0=lam0)
    assert calls == []


@pytest.fixture
def raised_own_lambda0(monkeypatch):
    """``exact.slice_eigenpairs`` with the oracle's own lambda_0, its (n1, n2) call, raised by
    1e-3 at slice 40, as a slice solver returning a level above the lowest would."""
    solve = exact.slice_eigenpairs

    def spy(grid, mass, w, *args, **kwargs):
        energies, mirrored = solve(grid, mass, w, *args, **kwargs)
        if len(w) > 1:
            energies[0, 40] += 1e-3
        return energies, mirrored
    monkeypatch.setattr(exact, "slice_eigenpairs", spy)


def test_oracles_own_lambda0_is_certified(harmonic2000, raised_own_lambda0):
    # without a scan, the oracle certifies the lambda_0 it solves itself
    with pytest.raises(SolverError, match="slice 40 is not positive definite"):
        solve_exact(harmonic2000.hamiltonian, 1)


def test_exact_command_with_a_raised_own_lambda0_exits_3(tmp_path, capsys, raised_own_lambda0):
    assert main(["exact", "--config", str(CONFIG_DIR / "harmonic_m2000.json"),
                 "--out", str(tmp_path)]) == 3
    assert "solver failure: lambda_0 is not a lower bound: slice 40 " in capsys.readouterr().err
    assert not (tmp_path / "exact_energies.json").exists()


@pytest.mark.parametrize("bad", ["scalar", "short", "long", "row", "nan"])
def test_malformed_hint_is_a_value_error_naming_lam0(harmonic2000, bad):
    lam0 = harmonic2000.field.energies[0]
    hint = {"scalar": float(lam0[0]), "short": lam0[:-1], "long": np.append(lam0, lam0[-1]),
            "row": lam0[None, :], "nan": np.where(np.arange(lam0.size) == 40, np.nan, lam0)}[bad]
    with pytest.raises(ValueError, match="lam0 must be 128 finite numbers"):
        solve_exact(harmonic2000.hamiltonian, 1, lam0=hint)


def test_scan_hint_reproduces_the_oracle_shift(harmonic2000, soft_coulomb_setup,
                                               sweep_hamiltonians):
    # the scan's lambda_0 equals the oracle's own bit for bit on these grids, so the solve does
    soft_h = assemble_full_hamiltonian(soft_coulomb_setup, build_grid(-1.6, 1.6, 96),
                                       build_grid(-10.0, 10.0, 192))
    for h, spec, k in [(soft_h, soft_coulomb_setup, 2), (sweep_hamiltonians[0], _harmonic(), 1),
                       (sweep_hamiltonians[-1], _harmonic(), 1)]:
        lam0 = scan_pes(spec, h.grid1, h.grid2, 1).energies[0]
        own, hinted = solve_exact(h, k), solve_exact(h, k, lam0=lam0)
        assert own.energies.tobytes() == hinted.energies.tobytes()
        assert own.states.tobytes() == hinted.states.tobytes()
    # on harmonic_m2000 the two lambda_0 differ in the last digits
    own = solve_exact(harmonic2000.hamiltonian, 3)
    assert np.allclose(harmonic2000.exact_energies, own.energies, rtol=1e-13, atol=0.0)


def test_pipeline_with_a_field_solves_the_light_problem_once(monkeypatch):
    # the scan's lambda_0 feeds the oracle's shift: exact makes one tridiagonal solve, on grid1
    spec = _harmonic(M=50.0)
    g1, g2 = build_grid(-2.0, 2.0, 32), build_grid(-6.0, 6.0, 32)
    field = scan_pes(spec, g1, g2, 2)
    calls, solve = [], exact.slice_eigenpairs

    def counted(grid, mass, w, *args, **kwargs):
        calls.append(w.shape)
        return solve(grid, mass, w, *args, **kwargs)

    monkeypatch.setattr(exact, "slice_eigenpairs", counted)
    run_pipeline(spec, g1, g2, 2, field=field)
    assert calls == [(1, g1.n)]


# --------------------------------------------------------------------------
# the two inversion-parity sectors

@pytest.fixture
def factored_dims(monkeypatch):
    """The dimension of every matrix ``exact.splu`` factors, in call order."""
    dims, factorize = [], exact.splu

    def spy(a, *args, **kwargs):
        dims.append(a.shape[0])
        return factorize(a, *args, **kwargs)
    monkeypatch.setattr(exact, "splu", spy)
    return dims


def _soft_coulomb_box(x1_max=1.6, n1=24, n2=40):
    spec = ModelSpec(M=100.0, m=1.0, potential=SoftCoulomb(1.0, 1.0, 1.0))
    return assemble_full_hamiltonian(spec, build_grid(-1.6, x1_max, n1), build_grid(-10.0, 10.0, n2))


def _eigsh_reference(h, k):
    """The lowest k energies of the full H from eigsh's own (pivoted LU) factorization."""
    e_bo = _bo_lower_bound(h)
    sigma = e_bo - _SHIFT_OFFSET * max(1.0, abs(e_bo))
    v0 = np.random.default_rng(DEFAULT_SEED).standard_normal(h.dim)
    return np.sort(eigsh(h.as_sparse, k=k, sigma=sigma, v0=v0, return_eigenvectors=False))


def _parities(states):
    return [round(float(np.sum(s * s[::-1, ::-1]) / np.sum(s * s))) for s in states]


@pytest.mark.parametrize("config", ["harmonic_m2000", "harmonic_equal_mass", "soft_coulomb",
                                    "separable"])
def test_parity_sectors_match_the_full_operator(factored_dims, config):
    # the even sector gives k levels and the odd one k - 1; on every family the four
    # lowest levels alternate in parity, so the merge interleaves the two sectors
    cfg = load_config(str(CONFIG_DIR / f"{config}.json"))
    h = assemble_full_hamiltonian(cfg.model, cfg.grid1, cfg.grid2)
    ref = _eigsh_reference(h, 4)
    for k in range(1, 5):
        sol = solve_exact(h, k)
        assert np.allclose(sol.energies, ref[:k], rtol=1e-12, atol=0.0)
    assert _parities(sol.states) == [1, -1, 1, -1]
    assert set(factored_dims) == {h.dim // 2}


@pytest.mark.parametrize("potential", [HarmonicCoupling(1.0, 1.0), SoftCoulomb(1.0, 1.0, 1.0),
                                       SeparableHarmonic(1.0, 2.0)], ids=attrgetter("family"))
def test_ground_state_equals_its_point_reflection(potential):
    spec = ModelSpec(M=10.0, m=1.0, potential=potential)
    h = assemble_full_hamiltonian(spec, build_grid(-2.0, 2.0, 32), build_grid(-6.0, 6.0, 24))
    psi = solve_exact(h, 1).states[0]
    assert np.abs(psi - psi[::-1, ::-1]).max() <= 1e-14 * np.abs(psi).max()


def test_asymmetric_potential_factors_the_full_operator_once(factored_dims):
    # off-centre in x1, W breaks the inversion symmetry by far more than round-off: the
    # oracle takes the one full factorization, and its bits are that route's
    h = _soft_coulomb_box(x1_max=1.7)
    w = h.potential_grid
    assert np.abs(w - w[::-1, ::-1]).max() > 1e-3 * np.abs(w).max()
    sol = solve_exact(h, 3)
    assert factored_dims == [h.dim]
    vals, vecs = exact._lowest_above(_bo_lower_bound(h), h.dim,
                                     exact._symmetric_factor(h.as_sparse), 3, DEFAULT_SEED)
    states = fix_signs(vecs.T.copy()).reshape(3, 24, 40) / np.sqrt(h.grid1.h * h.grid2.h)
    assert sol.energies.tobytes() == vals.tobytes()
    assert sol.states.tobytes() == states.tobytes()


def test_k1_on_a_centred_box_factors_one_half_dimension_matrix(factored_dims):
    h = _soft_coulomb_box()
    solve_exact(h, 1)
    assert factored_dims == [h.dim // 2]


@pytest.mark.parametrize("n1, n2, dims", [(25, 41, [25 * 41]), (25, 40, [500, 500])],
                         ids=["both_odd", "n1_odd"])
def test_odd_grids_match_the_full_operator(factored_dims, n1, n2, dims):
    # with n1 and n2 odd the centre point is its own mirror image and the full operator is
    # factored; with n1 odd alone the mirror line cuts a heavy row and the sectors still apply
    h = _soft_coulomb_box(n1=n1, n2=n2)
    sol = solve_exact(h, 2)
    assert factored_dims == dims
    assert np.allclose(sol.energies, _eigsh_reference(h, 2), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("config", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
def test_compare_factors_one_half_dimension_matrix_on_every_bundled_config(tmp_path,
                                                                           factored_dims, config):
    # every bundled model is even under inversion on a centred box; a config or family that
    # is not falls back to the full operator and fails here
    cfg = load_config(str(CONFIG_DIR / f"{config}.json"))
    assert main(["compare", "--config", str(CONFIG_DIR / f"{config}.json"),
                 "--out", str(tmp_path)]) == 0
    assert factored_dims == [cfg.grid1.n * cfg.grid2.n // 2]


@pytest.mark.parametrize("config", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
def test_scan_and_oracle_read_one_exactly_even_potential(monkeypatch, config):
    # every bundled config is a centred box: the oracle's W equals its point reflection bit
    # for bit, and the scan solves the very same W
    cfg = load_config(str(CONFIG_DIR / f"{config}.json"))
    seen, solve = [], clamped.slice_eigenpairs

    def spy(grid, mass, w, *args, **kwargs):
        seen.append(w.copy())
        return solve(grid, mass, w, *args, **kwargs)
    monkeypatch.setattr(clamped, "slice_eigenpairs", spy)
    scan_pes(cfg.model, cfg.grid1, cfg.grid2, 1)
    w = assemble_full_hamiltonian(cfg.model, cfg.grid1, cfg.grid2).potential_grid
    assert w.tobytes() == w[::-1, ::-1].tobytes()
    assert [s.tobytes() for s in seen] == [w.tobytes()]


@pytest.mark.parametrize("k", [1, 3])
def test_oracle_assembles_one_sparse_h_per_solve(monkeypatch, k):
    # the parity sectors are cut from the same sparse H that checks the residuals
    h, reads, assemble = _soft_coulomb_box(), [], exact.FullHamiltonian.as_sparse.fget

    def counted(self):
        reads.append(self.dim)
        return assemble(self)
    monkeypatch.setattr(exact.FullHamiltonian, "as_sparse", property(counted))
    solve_exact(h, k)
    assert reads == [h.dim]


def test_potential_even_only_to_round_off_takes_the_full_operator(factored_dims):
    # a hand-built H whose W is inversion-even to a few ulps, but not bit for bit, does not
    # commute with the flat-index reversal: the oracle factors the full operator
    spec = ModelSpec(M=100.0, m=1.0, potential=SoftCoulomb(1.0, 1.0, 1.0))
    g1, g2 = build_grid(-1.6, 1.6, 24), build_grid(-10.0, 10.0, 40)
    w = evaluate_potential(spec, g1.points[:, None], g2.points[None, :])
    assert inversion_even(w) and not np.array_equal(w, w[::-1, ::-1])
    h = exact.FullHamiltonian(g1, g2, spec.M, spec.m, w)
    sol = solve_exact(h, 3)
    assert factored_dims == [h.dim]
    assert np.allclose(sol.energies, _eigsh_reference(h, 3), rtol=1e-12, atol=0.0)


def test_potential_even_only_to_round_off_is_not_mirrored():
    # the slice solver mirrors by the sectors' test, W equal to W[::-1, ::-1] bit for bit
    spec = ModelSpec(M=100.0, m=1.0, potential=SoftCoulomb(1.0, 1.0, 1.0))
    g1, g2 = build_grid(-1.6, 1.6, 24), build_grid(-10.0, 10.0, 40)
    w = evaluate_potential(spec, g1.points[:, None], g2.points[None, :])
    assert inversion_even(w) and not np.array_equal(w, w[::-1, ::-1])
    assert slice_eigenpairs(g2, spec.m, w, 2)[1] is False
