"""Grid construction, stencil operators, and the weighted inner product.

Dense stencil matrices are the axis-0 applies acting on the identity, and
inner products are written out as ``h * vdot(f, g)``.
"""

import ctypes
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from bolab import HarmonicCoupling, ModelSpec, scan_pes
from bolab.grid import (_CHUNK, _EPS, _GATE_ULPS, GridFunction, _lowest_eigenpairs, build_grid,
                        central_difference, even_potential, fix_signs, kinetic_diagonals,
                        second_difference)
from bolab.model import sample_potential

def test_spacing_from_definition():
    assert build_grid(0.0, 10.0, 99).h == pytest.approx(0.1, abs=1e-15)
    assert build_grid(-12.0, 12.0, 127).h == pytest.approx(0.1875, abs=1e-15)


def test_interior_points():
    g = build_grid(-1.0, 1.0, 9)
    assert g.points[0] == pytest.approx(-1.0 + g.h)
    assert g.points[-1] == pytest.approx(1.0 - g.h)
    assert np.allclose(np.diff(g.points), g.h)


def test_rejects_unusable_discretizations():
    # too few points to mean anything, including the arithmetic toy case n=3
    for n in (0, 3, 7):
        with pytest.raises(ValueError):
            build_grid(-1.0, 1.0, n)
    with pytest.raises(ValueError):
        build_grid(1.0, -1.0, 16)
    with pytest.raises(ValueError):
        build_grid(0.0, float("inf"), 16)
    with pytest.raises(ValueError):
        build_grid(float("nan"), 1.0, 16)


def test_stencil_structure():
    g = build_grid(0.0, 9.0, 8)  # h = 1
    m = second_difference(np.eye(g.n), g)
    assert m.shape == (8, 8)
    assert np.all(np.diag(m) == -2.0)
    assert np.all(np.diag(m, 1) == 1.0)
    assert np.all(np.diag(m, -1) == 1.0)
    assert np.count_nonzero(m) == 8 + 2 * 7
    d, e = kinetic_diagonals(g, 0.5)  # -(1/2 mass) d^2/dx^2 at mass 1/2 is -m
    assert np.array_equal(-np.diag(m), d)
    assert np.array_equal(-np.diag(m, 1), e)


def test_stencil_exact_symmetry():
    m = second_difference(np.eye(41), build_grid(-3.0, 7.0, 41))
    assert np.array_equal(m, m.T)


def test_dirichlet_spectrum_closed_form():
    # closed form -(2/h^2)(1 - cos(k pi/(n+1))) against direct diagonalization
    for n in (8, 33):
        g = build_grid(-2.0, 2.0, n)
        computed = np.linalg.eigvalsh(second_difference(np.eye(g.n), g))
        k = np.arange(1, n + 1)
        expected = np.sort(-(2.0 / g.h**2) * (1.0 - np.cos(k * np.pi / (n + 1))))
        assert np.allclose(computed, expected, atol=1e-10 * np.max(np.abs(expected)))


def test_linear_function_second_derivative_vanishes():
    g = build_grid(-1.0, 1.0, 63)
    m = second_difference(np.eye(g.n), g)
    out = m @ g.points
    # interior rows see an exactly linear function; boundary rows feel the walls
    assert np.max(np.abs(out[1:-1])) < 1e-12


def test_inner_product_normalization():
    g = build_grid(-4.0, 4.0, 64)
    psi = np.exp(-g.points**2)
    f = GridFunction(g, psi / np.sqrt(g.h * np.sum(psi**2)))
    assert g.h * np.vdot(f.values, f.values) == pytest.approx(1.0, abs=1e-12)
    assert f.norm() == pytest.approx(1.0, abs=1e-12)


def test_inner_product_eigenvector_orthogonality():
    g = build_grid(-1.0, 3.0, 24)
    _, vecs = np.linalg.eigh(second_difference(np.eye(g.n), g))
    f = GridFunction(g, vecs[:, 0])
    r = GridFunction(g, vecs[:, 5])
    assert abs(g.h * np.vdot(f.values, r.values)) < 1e-10


@pytest.mark.parametrize("n", [64, 128])
def test_inner_product_sine_modes(n):
    # analytic integral of sin(pi x) sin(2 pi x) over (0, 1) is zero
    g = build_grid(0.0, 1.0, n)
    f = GridFunction(g, np.sin(np.pi * g.points))
    r = GridFunction(g, np.sin(2.0 * np.pi * g.points))
    analytic = quad(lambda x: np.sin(np.pi * x) * np.sin(2 * np.pi * x), 0, 1)[0]
    assert analytic == pytest.approx(0.0, abs=1e-12)
    assert abs(g.h * np.vdot(f.values, r.values) - analytic) < 1e-8


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(3)
    g = build_grid(-1.0, 1.0, 32)
    f = GridFunction(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    r = GridFunction(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    fr, rf = g.h * np.vdot(f.values, r.values), g.h * np.vdot(r.values, f.values)
    assert fr == pytest.approx(np.conj(rf), abs=1e-15)


def test_gridfunction_shape_check():
    with pytest.raises(ValueError):
        GridFunction(build_grid(-1.0, 1.0, 16), np.ones(15))


def test_first_derivative_antisymmetric():
    m = central_difference(np.eye(20), build_grid(-1.0, 1.0, 20))
    assert np.array_equal(m, -m.T)


def test_axis0_applies_match_dense_matrices_column_by_column():
    g = build_grid(-2.0, 3.0, 24)
    a = np.random.default_rng(5).standard_normal((g.n, 3))
    d2, d1 = second_difference(a, g), central_difference(a, g)
    m2, m1 = second_difference(np.eye(g.n), g), central_difference(np.eye(g.n), g)
    assert np.all(np.diag(m1, 1) == 1.0 / (2.0 * g.h)) and np.count_nonzero(m1) == 2 * (g.n - 1)
    for j in range(a.shape[1]):
        assert np.allclose(d2[:, j], m2 @ a[:, j], rtol=0, atol=1e-12)
        assert np.allclose(d1[:, j], m1 @ a[:, j], rtol=0, atol=1e-12)


def test_kinetic_diagonals_are_scaled_stencil():
    g = build_grid(-0.65, 0.65, 40)
    mass = 2000.0
    diag, off = kinetic_diagonals(g, mass)
    m = second_difference(np.eye(g.n), g)
    d, e = np.diag(m), np.diag(m, 1)
    assert np.allclose(diag, -d / (2.0 * mass), rtol=1e-15, atol=0)
    assert np.allclose(off, -e / (2.0 * mass), rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# the batched lowest-eigenpair solver and the sign convention


def _tridiagonal_apply(d, e, v):
    out = d * v
    out[..., :-1] += e * v[..., 1:]
    out[..., 1:] += e * v[..., :-1]
    return out


def _check_eigenpairs(d, e, A, energies, vectors, reference_rtol=1e-12):
    """Ritz values against LAPACK's, the residual gate, orthonormality and signs, per slice."""
    norm = np.abs(d).max(axis=1) + 2.0 * np.abs(e).max()
    for i in range(d.shape[0]):
        ref = eigh_tridiagonal(d[i], e, eigvals_only=True, select="i", select_range=(0, A - 1))
        assert np.max(np.abs(energies[:, i] - ref)) <= reference_rtol * norm[i]
        z = vectors[:, i]
        res = _tridiagonal_apply(d[i], e, z) - energies[:, i, None] * z
        assert np.max(np.linalg.norm(res, axis=1)) <= _GATE_ULPS * _EPS * norm[i]
        assert np.max(np.abs(z @ z.T - np.eye(A))) < 1e-12
    assert np.array_equal(fix_signs(vectors.copy()), vectors)


def test_lowest_eigenpairs_agree_with_lapack_on_random_tridiagonals():
    rng = np.random.default_rng(3)
    for _ in range(40):
        r, n = int(rng.integers(1, 5)), int(rng.integers(2, 60))
        A = int(rng.integers(1, min(n, 6) + 1))
        d = rng.standard_normal((r, n)) * rng.choice([1e-3, 1.0, 1e3])
        e = rng.standard_normal(n - 1) * rng.choice([0.0, 1e-8, 1.0, 10.0])
        vectors = np.empty((A, r, n))
        energies = _lowest_eigenpairs(d, e, A, vectors)
        _check_eigenpairs(d, e, A, energies, vectors)
        assert np.array_equal(_lowest_eigenpairs(d, e, A), energies)


def test_lowest_eigenpairs_batch_independent():
    # a slice gets the same bits alone, in any chunk position, in a batch of other slices, and
    # on any thread count: chunks of 64, 32, 22 and 16, lanes that end unevenly, a short last
    # chunk
    rng = np.random.default_rng(8)
    r, n, A = 2 * _CHUNK + 9, 48, 3
    e = np.full(n - 1, -40.0)
    d = 80.0 * 10.0 ** rng.integers(0, 3, (r, 1)) + 5.0 * rng.standard_normal((r, n))  # norms vary
    vectors = np.empty((A, r, n))
    energies = _lowest_eigenpairs(d, e, A, vectors)
    for i in (0, 1, _CHUNK - 1, _CHUNK, r - 1):
        alone = np.empty((A, 1, n))
        assert _lowest_eigenpairs(d[i:i + 1], e, A, alone).tobytes() == energies[:, i:i + 1].tobytes()
        assert alone.tobytes() == vectors[:, i:i + 1].tobytes()
    shuffled = rng.permutation(r)
    again = np.empty((A, r, n))
    assert np.array_equal(_lowest_eigenpairs(d[shuffled], e, A, again), energies[:, shuffled])
    assert np.array_equal(again, vectors[:, shuffled])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads that write the shared outputs switch all the time
    try:
        for threads in (2, 3, 4):
            again = np.empty((A, r, n))
            assert _lowest_eigenpairs(d, e, A, again, threads).tobytes() == energies.tobytes()
            assert again.tobytes() == vectors.tobytes()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("barrier", [20.0, 80.0, 160.0])
def test_lowest_eigenpairs_near_degenerate_double_well(barrier):
    # the lowest pair of a symmetric double well splits by about 2e-2, 2e-5 and 3e-8 here;
    # A = 2 holds the pair, A = 1 and A = 3 cut a pair in two
    g = build_grid(-6.0, 6.0, 200)
    diag, off = kinetic_diagonals(g, 1.0)
    d = (diag + barrier * (g.points**2 - 1.0) ** 2)[None, :]
    for A in (1, 2, 3):
        vectors = np.empty((A, 1, g.n))
        energies = _lowest_eigenpairs(d, off, A, vectors)
        _check_eigenpairs(d, off, A, energies, vectors)
    # the pair's two states are the even and the odd one, up to a mixing angle of at most
    # about eps |T| over the splitting
    vectors = np.empty((2, 1, g.n))
    split = np.diff(_lowest_eigenpairs(d, off, 2, vectors)[:, 0])[0]
    even, odd = vectors[:, 0]
    angle = _EPS * np.abs(d).max() / split
    assert np.max(np.abs(even - even[::-1])) < angle and np.max(np.abs(odd + odd[::-1])) < angle


@pytest.mark.parametrize("A", [2, 3, 4])
def test_lowest_eigenpairs_pass_the_gate_on_an_exactly_degenerate_heavy_problem(A):
    # the nuclear problem of scaling_harmonic's first row at M = 10 m = 1e21: its coupling,
    # -8.1e-19, leaves each pair of mirror levels equal to the last bit. Started from one
    # vector, the second level of a pair kept only round-off after Gram-Schmidt; the retry
    # starts each level from its own roll of that vector
    g1, g2 = build_grid(-2.4, 2.4, 192), build_grid(-8.5, 8.5, 96)
    spec = ModelSpec(M=1e20, m=1e20, potential=HarmonicCoupling(1.0, 1.0))
    lam0 = scan_pes(spec, g1, g2, 1).energies[0]
    assert np.array_equal(lam0, lam0[::-1])
    diag, off = kinetic_diagonals(g1, 1e21)
    d = (diag + lam0)[None]
    vectors = np.empty((A, 1, g1.n))
    energies = _lowest_eigenpairs(d, off, A, vectors)
    _check_eigenpairs(d, off, A, energies, vectors)


@pytest.mark.parametrize("A", [1, 4])
def test_lowest_eigenpairs_of_a_split_slice_are_the_lowest(split_slices, A):
    # slice 0 of a fuzzed config: its lowest levels lie about 4e-6 apart inside 6e-5 wide
    # first-pass brackets, whose midpoints sat 4.2e-5 to 4.8e-5 above the true levels
    cfg = split_slices[1]
    diag, off = kinetic_diagonals(cfg.grid2, cfg.model.m)
    d = diag + sample_potential(cfg.model, cfg.grid1, cfg.grid2)[:1]
    vectors = np.empty((A, 1, cfg.grid2.n))
    energies = _lowest_eigenpairs(d, off, A, vectors)
    _check_eigenpairs(d, off, A, energies, vectors, reference_rtol=_GATE_ULPS * _EPS)


def test_lowest_eigenpairs_reject_non_finite_entries():
    d = np.full((3, 16), 2.0)
    d[1, 7] = np.nan
    with pytest.raises(RuntimeError, match="slice 1 has a non-finite"):
        _lowest_eigenpairs(d, np.full(15, -1.0), 2)
    d[1, 7] = 2.0
    with pytest.raises(RuntimeError, match="slice 0 has a non-finite"):
        _lowest_eigenpairs(d, np.append(np.full(14, -1.0), np.inf), 2)


def test_lowest_eigenpairs_failures_are_runtime_errors(monkeypatch):
    from bolab import grid

    g = build_grid(-1.0, 1.0, 16)
    diag, off = kinetic_diagonals(g, 1.0)
    with monkeypatch.context() as patch:
        patch.setattr(grid, "_GATE_ULPS", 0.0)  # no residual passes: both attempts fail
        with pytest.raises(RuntimeError, match="slice 0: tridiagonal eigenpairs miss the residual"):
            grid._lowest_eigenpairs(np.stack([diag] * 3), off, 1)
    real = grid.dstebz

    def failing(*args):  # LAPACK's INFO, written through the binding's last address
        real(*args)
        ctypes.c_int.from_address(args[-1]).value = 1
    monkeypatch.setattr(grid, "dstebz", failing)
    with pytest.raises(RuntimeError, match=r"bisection \(stebz\) failed"):
        grid._lowest_eigenpairs(np.stack([diag] * 3), off, 1)


def test_a_threaded_solve_raises_the_first_failing_chunks_error(monkeypatch):
    # every chunk from slice 64 on fails; on 2 and 4 threads a worker's chunk at 96 or 80 may
    # fail first, but the error raised is chunk 64's, as on one thread
    from bolab import grid

    def failing(d, *args):
        first = int(round(d[0, 0]))  # each slice's first entry is its index
        if first >= _CHUNK:
            raise RuntimeError(f"chunk from slice {first}")
        return solve(d, *args)
    solve = grid._solve_chunk
    monkeypatch.setattr(grid, "_solve_chunk", failing)
    d = np.full((4 * _CHUNK, 16), 200.0)
    d[:, 0] = np.arange(4 * _CHUNK)
    for threads in (1, 2, 4):
        with pytest.raises(RuntimeError, match=f"^chunk from slice {_CHUNK}$"):
            _lowest_eigenpairs(d, np.full(15, -1.0), 2, threads=threads)


def _gttrf(lower, diag, upper):
    """``grid.dgttrf`` on copies, returned as scipy.linalg.lapack.dgttrf returns them:
    (dl, d, du, du2, ipiv, info)."""
    from bolab import grid

    n = len(diag)
    band = np.zeros((4, n))  # DL, D, DU, DU2
    band[0, :-1], band[1], band[2, :-1] = lower, diag, upper
    ints = np.zeros(2 + n, dtype=np.int32)  # N, INFO; IPIV
    ints[0] = n
    at = ints.ctypes.data
    grid.dgttrf(at, *[row.ctypes.data for row in band], at + 8, at + 4)
    return band[0, :-1], band[1], band[2, :-1], band[3, :n - 2], ints[2:], int(ints[1])


def _gttrs(factor, b):
    """``grid.dgttrs`` (TRANS='N') of the ``_gttrf`` factor on a copy of ``b``."""
    from bolab import grid

    n, x = len(b), b.copy()
    *band, ipiv, _ = factor
    ints = np.array([n, 1, 0], dtype=np.int32)  # N, NRHS, INFO
    at = ints.ctypes.data
    grid.dgttrs(b"N", at, at + 4, *[a.ctypes.data for a in band], ipiv.ctypes.data, x.ctypes.data,
          at, at + 8)
    return x


def test_lapack_bindings_give_the_bits_of_scipys_f2py_routines():
    from scipy.linalg import lapack

    from bolab import grid

    def same(got, ref):
        return all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(got, ref))

    rng = np.random.default_rng(12)
    shapes = [(int(rng.integers(3, 60)), rng.choice([1e-8, 1.0, 10.0])) for _ in range(30)]
    for n, scale in shapes + [(1, 1.0), (24, 0.0)]:  # n = 1, and a matrix split at every row
        d = rng.standard_normal((2, n)) * rng.choice([1e-3, 1.0, 1e3])
        e = scale * rng.standard_normal(n - 1)
        e[rng.random(n - 1) < 0.1] = 0.0  # and a few splits elsewhere
        off = e if n > 1 else np.zeros(1)  # f2py wants e non-empty at n = 1
        A, x = int(rng.integers(1, n + 1)), rng.standard_normal()
        tol = rng.choice([0.0, 1e-9, 1e-3])
        for i in range(2):
            m, w, *_, info = lapack.dstebz(d[i], off, 2, 0.0, 0.0, 1, A, tol, "E")  # RANGE='I'
            got = grid._Bisection(d, e, A)(i, tol)
            assert info == 0 and got.tobytes() == w[:m].tobytes()
            m, w, *_ = lapack.dstebz(d[i], off, 1, -np.inf, x, 0, 0, np.inf, "E")  # RANGE='V'
            assert grid._Bisection(d, e, 0)(i, x).tobytes() == w[:m].tobytes()
        if n > 1:  # an unsymmetric LU of the matrix shifted near its level 0 and off it, a solve
            lower, upper, b = e + rng.standard_normal(n - 1), e, rng.standard_normal(n)
            for shift in (grid._Bisection(d, e, 1)(0, 0.0)[0], 0.5):
                factor = _gttrf(lower, d[0] - shift, upper)
                ref = lapack.dgttrf(lower, d[0] - shift, upper)
                assert same(factor, ref)
                solved = lapack.dgttrs(*ref[:5], b)[0]
                assert _gttrs(factor, b).tobytes() == solved.tobytes()
    # a shift on an eigenvalue, exactly: the zero pivot is LAPACK's INFO on both routes
    singular = (np.array([1.0, 0.0]), np.ones(3), np.array([1.0, 0.0]))
    factor = _gttrf(*singular)
    assert factor[5] == 2 and same(factor, lapack.dgttrf(*singular))


def test_one_count_flags_a_missed_level_on_a_resolved_slice(monkeypatch):
    # levels 0, 2 and 3 of a near-diagonal slice found for its lowest three: the brackets put
    # level 1's shift on level 2, where level 3, 1e-6 above, and not level 1, 1 below, is the
    # next. Every residual passes and every gap exceeds 4 s, so only the one count at
    # theta_2 - s, which sees level 1, can flag the slice
    from bolab import grid

    def planted(d, e, A=0, *args):
        stebz = bisection(d, e, A, *args)

        def moved(i, x):
            w = stebz(i, x).copy()
            if A:
                w[1] = w[2]
            return w
        return moved
    bisection = grid._Bisection
    monkeypatch.setattr(grid, "_Bisection", planted)
    d = np.array([[0.0, 1.0, 2.0, 2.0 + 1e-6, 10.0, 11.0, 12.0, 13.0]])
    e = np.full(7, 1e-9)
    energies, z = np.empty((3, 1)), np.empty((3, 1, 8))
    start = np.random.default_rng(0).uniform(-1.0, 1.0, 8)
    failed = grid._solve_chunk(d, e, start, 0, grid._BRACKET_RTOL, energies, z)
    ref = eigh_tridiagonal(d[0], e, eigvals_only=True)
    s = grid.ritz_error_bound(d, e)[0]
    assert np.abs(energies[:, 0] - ref[[0, 2, 3]]).max() <= s
    assert np.all(np.diff(energies[:, 0]) > 4.0 * s)
    res = _tridiagonal_apply(d[0], e, z[:, 0]) - energies[:, 0, None] * z[:, 0]
    assert np.linalg.norm(res, axis=1).max() <= s
    assert failed.tolist() == [0]


@pytest.mark.parametrize("gap, per_level", [(2.5, True), (3.5, True), (5.0, False)])
def test_gaps_within_4s_keep_a_count_per_level(monkeypatch, gap, per_level):
    # a computed residual within s may be 3s/2 exactly, so the one count pins every level only
    # where every Ritz gap exceeds 4s: levels 0 and 1 of a diagonal slice, gap s apart
    from bolab import grid

    def spy(d, e, mu):
        shapes.append(mu.shape)
        return counts(d, e, mu)
    shapes, counts = [], grid.sturm_counts
    monkeypatch.setattr(grid, "sturm_counts", spy)
    d, e = np.array([1.0, 0.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]), np.zeros(7)
    s = grid.ritz_error_bound(d[None], e)[0]
    d[1] = 1.0 + gap * s
    energies = _lowest_eigenpairs(d[None], e, 3)
    assert np.abs(energies[:, 0] - d[:3]).max() <= s
    assert shapes[0] == (1, 1) and ((1, 2) in shapes) == per_level


def test_fix_signs_is_not_decided_by_round_off():
    x = np.linspace(-3.0, 3.0, 61)
    odd = x * np.exp(-x * x)  # mirror-antisymmetric: its two largest |entries| tie
    for v in (odd, -odd, odd * (1.0 + 1e-14 * x), -odd * (1.0 - 1e-14 * x)):
        fixed = fix_signs(v.copy())
        assert fixed[0] > 0 > fixed[-1]  # the left lobe is the positive one
    rows = fix_signs(np.stack([-odd, odd, np.exp(-x * x), -np.exp(-x * x)]))
    assert np.array_equal(rows[0], rows[1]) and np.array_equal(rows[2], rows[3])
    assert np.all(rows[2] > 0)


@pytest.mark.parametrize("n1, n2", [(8, 10), (9, 10), (9, 11)])
def test_even_potential_mirrors_the_first_half_of_a_nearly_even_w(n1, n2):
    # the first half of the row-major entries keeps its bits and the rest mirrors it, so
    # the result equals its point reflection bit for bit, odd centre row and point included
    rng = np.random.default_rng(3)
    w = rng.standard_normal((n1, n2))
    w = w + w[::-1, ::-1]
    w *= 1.0 + 4.0 * _EPS * rng.choice([-1.0, 0.0, 1.0], size=w.shape)
    raw = w.copy()
    even = even_potential(w)
    kept = (w.size + 1) // 2
    assert np.shares_memory(even, w)
    assert even.tobytes() == even[::-1, ::-1].tobytes()
    assert even.ravel()[:kept].tobytes() == raw.ravel()[:kept].tobytes()


def test_even_potential_leaves_an_uneven_w_as_it_is():
    w = np.arange(80.0).reshape(8, 10)
    raw = w.copy()
    assert even_potential(w).tobytes() == raw.tobytes()
