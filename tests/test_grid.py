"""Grid construction, stencil operators, and the weighted inner product."""

import numpy as np
import pytest
from scipy.integrate import quad

from bolab.grid import (GridFunction, build_grid, central_difference,
                        dirichlet_laplacian_eigenvalues, first_derivative_matrix,
                        inner_product, kinetic_diagonals, second_derivative_matrix,
                        second_difference, stencil_diagonals)


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
    m = second_derivative_matrix(g)
    assert m.shape == (8, 8)
    assert np.all(np.diag(m) == -2.0)
    assert np.all(np.diag(m, 1) == 1.0)
    assert np.all(np.diag(m, -1) == 1.0)
    assert np.count_nonzero(m) == 8 + 2 * 7
    d, e = stencil_diagonals(g)
    assert np.array_equal(np.diag(m), d)
    assert np.array_equal(np.diag(m, 1), e)


def test_stencil_exact_symmetry():
    m = second_derivative_matrix(build_grid(-3.0, 7.0, 41))
    assert np.array_equal(m, m.T)


def test_dirichlet_spectrum_closed_form():
    # closed form -(2/h^2)(1 - cos(k pi/(n+1))) against direct diagonalization
    for n in (8, 33):
        g = build_grid(-2.0, 2.0, n)
        computed = np.linalg.eigvalsh(second_derivative_matrix(g))
        expected = np.sort(dirichlet_laplacian_eigenvalues(g))
        assert np.allclose(computed, expected, atol=1e-10 * np.max(np.abs(expected)))


def test_linear_function_second_derivative_vanishes():
    g = build_grid(-1.0, 1.0, 63)
    m = second_derivative_matrix(g)
    out = m @ g.points
    # interior rows see an exactly linear function; boundary rows feel the walls
    assert np.max(np.abs(out[1:-1])) < 1e-12


def test_inner_product_normalization():
    g = build_grid(-4.0, 4.0, 64)
    f = GridFunction(g, np.exp(-g.points**2)).normalized()
    assert inner_product(f, f) == pytest.approx(1.0, abs=1e-12)
    assert f.norm() == pytest.approx(1.0, abs=1e-12)


def test_inner_product_eigenvector_orthogonality():
    g = build_grid(-1.0, 3.0, 24)
    _, vecs = np.linalg.eigh(second_derivative_matrix(g))
    f = GridFunction(g, vecs[:, 0])
    r = GridFunction(g, vecs[:, 5])
    assert abs(inner_product(f, r)) < 1e-10


@pytest.mark.parametrize("n", [64, 128])
def test_inner_product_sine_modes(n):
    # analytic integral of sin(pi x) sin(2 pi x) over (0, 1) is zero
    g = build_grid(0.0, 1.0, n)
    f = GridFunction(g, np.sin(np.pi * g.points))
    r = GridFunction(g, np.sin(2.0 * np.pi * g.points))
    analytic = quad(lambda x: np.sin(np.pi * x) * np.sin(2 * np.pi * x), 0, 1)[0]
    assert analytic == pytest.approx(0.0, abs=1e-12)
    assert abs(inner_product(f, r) - analytic) < 1e-8


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(3)
    g = build_grid(-1.0, 1.0, 32)
    f = GridFunction(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    r = GridFunction(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    assert inner_product(f, r) == pytest.approx(np.conj(inner_product(r, f)), abs=1e-15)


def test_inner_product_rejects_mismatched_grids():
    f = GridFunction(build_grid(-1.0, 1.0, 16), np.ones(16))
    r = GridFunction(build_grid(-1.0, 2.0, 16), np.ones(16))
    with pytest.raises(ValueError):
        inner_product(f, r)


def test_gridfunction_shape_check():
    with pytest.raises(ValueError):
        GridFunction(build_grid(-1.0, 1.0, 16), np.ones(15))


def test_first_derivative_antisymmetric():
    m = first_derivative_matrix(build_grid(-1.0, 1.0, 20))
    assert np.array_equal(m, -m.T)


def test_axis0_applies_match_dense_matrices_column_by_column():
    g = build_grid(-2.0, 3.0, 24)
    a = np.random.default_rng(5).standard_normal((g.n, 3))
    d2, d1 = second_difference(a, g), central_difference(a, g)
    m2, m1 = second_derivative_matrix(g), first_derivative_matrix(g)
    assert np.all(np.diag(m1, 1) == 1.0 / (2.0 * g.h)) and np.count_nonzero(m1) == 2 * (g.n - 1)
    for j in range(a.shape[1]):
        assert np.allclose(d2[:, j], m2 @ a[:, j], rtol=0, atol=1e-12)
        assert np.allclose(d1[:, j], m1 @ a[:, j], rtol=0, atol=1e-12)


def test_kinetic_diagonals_are_scaled_stencil():
    g = build_grid(-0.65, 0.65, 40)
    mass = 2000.0
    diag, off = kinetic_diagonals(g, mass)
    d, e = stencil_diagonals(g)
    assert np.allclose(diag, -d / (2.0 * mass), rtol=1e-15, atol=0)
    assert np.allclose(off, -e / (2.0 * mass), rtol=1e-15, atol=0)
