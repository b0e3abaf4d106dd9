"""Slice projector and the compressed effective Hamiltonian."""

import numpy as np
import pytest
from scipy.linalg import eig_banded, eigh, eigvals_banded

from bolab.bo import assemble_product_state, solve_nuclear
from bolab.clamped import scan_pes
from bolab.exact import assemble_full_hamiltonian
from bolab.grid import build_grid
from bolab.model import HarmonicCoupling, ModelSpec
from bolab.projection import build_projector, effective_matrix, solve_effective


def test_projector_rank_validation(harmonic2000):
    field = harmonic2000.field
    with pytest.raises(ValueError):
        build_projector(field, 0)
    with pytest.raises(ValueError):
        build_projector(field, field.n_surfaces + 1)


def test_projector_and_compression_reject_other_grids():
    field, _ = _small_full_rank_setup()
    p = build_projector(field, 2)
    with pytest.raises(ValueError, match="does not match the field's product grid"):
        p.apply(np.zeros((field.grid1.n, field.grid2.n + 1)))
    other = assemble_full_hamiltonian(ModelSpec(M=5.0, m=1.0, potential=HarmonicCoupling(1.0, 1.0)),
                                      build_grid(-1.5, 1.5, 8), build_grid(-4.0, 4.0, 9))
    with pytest.raises(ValueError, match="projector and Hamiltonian live on different grids"):
        effective_matrix(p, other)


def test_projector_idempotent_and_symmetric(harmonic2000):
    field = harmonic2000.field
    p = build_projector(field, 2)
    rng = np.random.default_rng(17)
    h1h2 = field.grid1.h * field.grid2.h
    for _ in range(5):
        f = rng.standard_normal((field.grid1.n, field.grid2.n))
        g = rng.standard_normal((field.grid1.n, field.grid2.n))
        pf = p.apply(f)
        assert np.linalg.norm(p.apply(pf) - pf) <= 1e-10 * np.linalg.norm(f)
        lhs = h1h2 * np.sum(f * p.apply(g))
        rhs = h1h2 * np.sum(p.apply(f) * g)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_projector_preserves_states_in_range(harmonic2000, harmonic2000_setup):
    spec, _, _ = harmonic2000_setup
    field = harmonic2000.field
    p = build_projector(field, 2)
    state0 = harmonic2000.product_states[0]
    assert np.max(np.abs(p.apply(state0.amplitudes) - state0.amplitudes)) < 1e-10
    sol1 = solve_nuclear(field, spec, 1, 1)
    state1 = assemble_product_state(sol1, field, 0)
    assert np.max(np.abs(p.apply(state1.amplitudes) - state1.amplitudes)) < 1e-10


def test_projector_annihilates_higher_surfaces(harmonic2000, harmonic2000_setup):
    spec, g1, g2 = harmonic2000_setup
    field = harmonic2000.field
    p = build_projector(field, 2)
    sol2 = solve_nuclear(field, spec, 2, 1)
    state2 = assemble_product_state(sol2, field, 0)
    out = p.apply(state2.amplitudes)
    assert np.sqrt(g1.h * g2.h * np.sum(out**2)) <= 1e-8


def _small_full_rank_setup():
    spec = ModelSpec(M=5.0, m=1.0, potential=HarmonicCoupling(1.0, 1.0))
    g1 = build_grid(-1.5, 1.5, 8)
    g2 = build_grid(-4.0, 4.0, 8)
    field = scan_pes(spec, g1, g2, 8)  # complete per-slice basis
    h = assemble_full_hamiltonian(spec, g1, g2)
    return field, h


def test_full_rank_projector_is_identity():
    field, _ = _small_full_rank_setup()
    p = build_projector(field, 8)
    rng = np.random.default_rng(23)
    for _ in range(5):
        f = rng.standard_normal((8, 8))
        assert np.max(np.abs(p.apply(f) - f)) < 1e-10


def test_full_rank_compression_reproduces_spectrum():
    field, h = _small_full_rank_setup()
    p = build_projector(field, 8)
    compressed = np.sort(eigvals_banded(effective_matrix(p, h)))
    full = np.sort(eigh(h.sector(0).toarray(), eigvals_only=True))
    assert np.max(np.abs(compressed - full)) < 1e-9


def test_tiny_subspace_matches_band_eigenvalues():
    # n1 = 8, N = 1: the Lanczos basis is clamped to the 8-dimensional subspace
    field, h = _small_full_rank_setup()
    p = build_projector(field, 1)
    want = eigvals_banded(effective_matrix(p, h), select="i", select_range=(0, 2))
    got = solve_effective(p, h, 3).energies
    assert np.allclose(got, want, rtol=1e-12, atol=0)
    with pytest.raises(ValueError):
        solve_effective(p, h, p.subspace_dim)


def test_shift_above_the_compressed_spectrum_is_a_solver_error(monkeypatch):
    # the banded Cholesky of band - sigma I checks the lower bound rather than trusting it
    from bolab import exact
    from bolab.exact import SolverError

    field, h = _small_full_rank_setup()
    p = build_projector(field, 2)
    top = float(eigvals_banded(effective_matrix(p, h))[-1])
    monkeypatch.setattr(exact, "slice_eigenpairs", lambda *args: (np.array([[top + 1.0]]), False))
    with pytest.raises(SolverError, match="not positive definite"):
        solve_effective(p, h, 1)


def test_effective_annihilates_orthogonal_complement(harmonic2000, harmonic2000_setup):
    spec, g1, g2 = harmonic2000_setup
    field = harmonic2000.field
    h = assemble_full_hamiltonian(spec, g1, g2)
    p = build_projector(field, 2)
    rng = np.random.default_rng(31)
    scale = float(np.max(np.abs(field.energies)))
    for _ in range(3):
        v = rng.standard_normal((g1.n, g2.n))
        v_perp = v - p.apply(v)
        out = p.apply(h.apply(p.apply(v_perp)))
        assert np.linalg.norm(out) <= 1e-10 * scale * np.linalg.norm(v_perp)


def test_effective_lowest_close_to_exact(harmonic2000, harmonic2000_setup):
    spec, g1, g2 = harmonic2000_setup
    h = assemble_full_hamiltonian(spec, g1, g2)
    eff = solve_effective(build_projector(harmonic2000.field, 1), h, 1)
    e0 = harmonic2000.exact.energies[0]
    assert abs(eff.energies[0] - e0) / abs(e0) < 5e-3


def test_effective_rayleigh_ritz_and_monotonicity(harmonic2000, harmonic2000_setup):
    spec, g1, g2 = harmonic2000_setup
    field = harmonic2000.field
    h = assemble_full_hamiltonian(spec, g1, g2)
    exact = harmonic2000.exact.energies
    lowest = []
    for rank in (1, 2, 3):
        eff = solve_effective(build_projector(field, rank), h, 3)
        lowest.append(eff.energies[0])
        # compressed eigenvalues bound the exact ones from above
        for j in range(3):
            assert eff.energies[j] >= exact[j] - 1e-9 * abs(exact[j])
    assert lowest[1] <= lowest[0] + 1e-12
    assert lowest[2] <= lowest[1] + 1e-12


def test_effective_states_lie_in_subspace(harmonic2000, harmonic2000_setup):
    spec, g1, g2 = harmonic2000_setup
    field = harmonic2000.field
    h = assemble_full_hamiltonian(spec, g1, g2)
    p = build_projector(field, 2)
    N, n1 = p.rank, g1.n
    _, vecs = eig_banded(effective_matrix(p, h), select="i", select_range=(0, 1))
    for idx in range(2):
        c = vecs[:, idx].reshape(n1, N)
        amp = np.einsum("ia,aij->ij", c, field.states[:N]) / np.sqrt(g1.h)
        assert np.linalg.norm(p.apply(amp) - amp) <= 1e-9 * np.linalg.norm(amp)
        nrm = g1.h * g2.h * np.sum(amp**2)
        assert nrm == pytest.approx(1.0, abs=1e-10)


def test_effective_subspace_dimension(harmonic2000, harmonic2000_setup):
    spec, g1, g2 = harmonic2000_setup
    field = harmonic2000.field
    h = assemble_full_hamiltonian(spec, g1, g2)
    for rank in (1, 3):
        p = build_projector(field, rank)
        m = effective_matrix(p, h)
        assert m.shape == (2 * rank, rank * g1.n)
        assert p.subspace_dim == rank * g1.n
    with pytest.raises(ValueError):
        solve_effective(build_projector(field, 1), h, g1.n + 1)


def _dense_from_band(band):
    """The symmetric matrix held in LAPACK upper band storage."""
    u, n = band.shape[0] - 1, band.shape[1]
    dense = np.zeros((n, n))
    for d in range(u + 1):
        dense[np.arange(n - d), np.arange(d, n)] = band[u - d, d:]
    return dense + np.triu(dense, 1).T


def _compression_by_apply(field, h, N):
    """<e_r|H|e_c> over the orthonormal slice basis e_(i,a) = psi_a(i) / sqrt(h1), via H's action."""
    n1, h1, h2 = field.grid1.n, field.grid1.h, field.grid2.h
    out = np.empty((n1 * N, n1 * N))
    for i in range(n1):
        for a in range(N):
            e = np.zeros((n1, field.grid2.n))
            e[i] = field.states[a, i] / np.sqrt(h1)
            out[:, i * N + a] = np.sqrt(h1) * h2 * np.einsum("aij,ij->ia", field.states[:N],
                                                               h.apply(e)).ravel()
    return out


def test_band_matches_dense_spectrum(harmonic2000):
    field, h = harmonic2000.field, harmonic2000.hamiltonian
    for rank in (1, 2, 3):
        p = build_projector(field, rank)
        band = effective_matrix(p, h)
        dense = _dense_from_band(band)
        # the unused corner of the band storage (above the first row) stays empty
        assert all(not band[-1 - d, :d].any() for d in range(1, 2 * rank))
        # the full dense view is the symmetric compression of H itself
        direct = _compression_by_apply(field, h, rank)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(direct - direct.T)) <= 1e-12 * scale
        assert np.max(np.abs(dense - direct)) <= 1e-12 * scale
        want = eigh(dense, eigvals_only=True, subset_by_index=(0, 2))
        got = solve_effective(p, h, 3).energies
        assert np.allclose(got, want, rtol=1e-12, atol=0)
