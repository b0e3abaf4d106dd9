"""Potential families, the mass-ratio parameter, and the normal-mode oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bolab.model import (_FAMILIES, HarmonicCoupling, ModelSpec, SeparableHarmonic, SoftCoulomb,
                         analytic_normal_modes, evaluate_potential, kappa,
                         potential_from_dict, potential_to_dict)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0  # sqrt((3+sqrt(5))/2): stiffness eigenvalues are (3±sqrt5)/2


def _harmonic(M=1.0, m=1.0, k1=1.0, k2=1.0):
    return ModelSpec(M=M, m=m, potential=HarmonicCoupling(k1, k2))


def test_potential_values():
    spec = _harmonic()
    assert evaluate_potential(spec, 0.0, 0.0) == 0.0
    assert evaluate_potential(spec, 1.0, 0.0) == pytest.approx(1.0)
    sc = ModelSpec(M=1.0, m=1.0, potential=SoftCoulomb(z=1.0, s=1.0, k1=0.0))
    assert evaluate_potential(sc, 0.7, 0.7) == pytest.approx(-1.0)
    sep = ModelSpec(M=1.0, m=1.0, potential=SeparableHarmonic(2.0, 3.0))
    assert evaluate_potential(sep, 1.0, 1.0) == pytest.approx(2.5)


def test_potential_vectorized():
    spec = _harmonic(k1=0.5, k2=2.0)
    x1 = np.linspace(-1, 1, 5)[:, None]
    x2 = np.linspace(-2, 2, 7)[None, :]
    w = evaluate_potential(spec, x1, x2)
    assert w.shape == (5, 7)
    assert w[2, 3] == pytest.approx(evaluate_potential(spec, float(x1[2, 0]), float(x2[0, 3])))


def test_harmonic_translation_symmetry():
    # W depends on x2 only through (x2 - x1): W(x1, x1 + d) = W(0, d) + k1/2 x1^2
    spec = _harmonic(k1=0.7, k2=1.3)
    for x1 in (-1.5, 0.2, 2.0):
        for d in (-0.4, 0.0, 1.1):
            lhs = evaluate_potential(spec, x1, x1 + d)
            rhs = evaluate_potential(spec, 0.0, d) + 0.5 * 0.7 * x1 * x1
            assert lhs == pytest.approx(rhs, abs=1e-14)


def test_kappa_reference_ratio():
    spec = _harmonic(M=2000.0, m=1.0)
    assert 0.1494 <= kappa(spec) <= 0.1496


def test_kappa_trivial_cases():
    assert kappa(_harmonic(M=1.0, m=1.0)) == pytest.approx(1.0)
    assert kappa(_harmonic(M=16.0, m=1.0)) == pytest.approx(0.5)


def test_kappa_monotone_and_scale_invariant():
    masses = [1.0, 10.0, 500.0, 1e4]
    values = [kappa(_harmonic(M=M, m=1.0)) for M in masses]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert kappa(_harmonic(M=300.0, m=2.0)) == pytest.approx(
        kappa(_harmonic(M=150.0, m=1.0)), abs=1e-15)


def test_normal_modes_unit_case():
    nm = analytic_normal_modes(_harmonic())
    # stiffness eigenvalues (3±sqrt5)/2, frequencies golden ratio and its inverse
    assert nm.frequencies[0] == pytest.approx(GOLDEN, abs=1e-12)
    assert nm.frequencies[1] == pytest.approx(1.0 / GOLDEN, abs=1e-12)
    assert nm.ground_energy == pytest.approx(np.sqrt(5.0) / 2.0, abs=1e-12)
    assert nm.ground_energy == pytest.approx(1.1180, abs=1e-4)
    assert nm.level(1, 0) - nm.level(0, 0) == pytest.approx(GOLDEN, abs=1e-12)


def test_normal_modes_decoupling_limit():
    k2 = 1e-8
    nm = analytic_normal_modes(_harmonic(M=1.0, m=1.0, k1=1.0, k2=k2))
    assert nm.frequencies[0] == pytest.approx(1.0, abs=1e-6)
    assert nm.frequencies[1] == pytest.approx(np.sqrt(k2), rel=1e-4)


def test_normal_modes_match_numeric_2x2():
    spec = _harmonic(M=2000.0, m=1.0)
    nm = analytic_normal_modes(spec)
    k = np.array([[2.0 / 2000.0, -1.0 / np.sqrt(2000.0)],
                  [-1.0 / np.sqrt(2000.0), 1.0]])
    om = np.sqrt(np.linalg.eigvalsh(k))
    assert nm.ground_energy == pytest.approx(0.5 * om.sum(), abs=1e-10)


def test_normal_modes_rejections():
    with pytest.raises(ValueError):
        analytic_normal_modes(ModelSpec(M=1.0, m=1.0, potential=SoftCoulomb(1.0, 1.0, 1.0)))
    with pytest.raises(ValueError):
        analytic_normal_modes(_harmonic(k1=0.0))


def test_invariant_validation():
    with pytest.raises(ValueError):
        ModelSpec(M=-1.0, m=1.0, potential=HarmonicCoupling(1.0, 1.0))
    with pytest.raises(ValueError):
        HarmonicCoupling(k1=-0.1, k2=1.0)
    with pytest.raises(ValueError):
        HarmonicCoupling(k1=1.0, k2=0.0)
    with pytest.raises(ValueError):
        SoftCoulomb(z=0.0, s=1.0, k1=0.0)
    with pytest.raises(ValueError):
        SoftCoulomb(z=1.0, s=-1.0, k1=0.0)
    with pytest.raises(ValueError):
        SeparableHarmonic(k1=-1.0, k2=1.0)


@pytest.mark.parametrize("build", [
    lambda bad: ModelSpec(M=bad, m=1.0, potential=HarmonicCoupling(1.0, 1.0)),
    lambda bad: ModelSpec(M=1.0, m=bad, potential=HarmonicCoupling(1.0, 1.0)),
    lambda bad: HarmonicCoupling(bad, 1.0),
    lambda bad: HarmonicCoupling(1.0, bad),
    lambda bad: SoftCoulomb(z=bad, s=1.0, k1=0.0),
    lambda bad: SoftCoulomb(z=1.0, s=bad, k1=0.0),
    lambda bad: SoftCoulomb(z=1.0, s=1.0, k1=bad),
    lambda bad: SeparableHarmonic(k1=bad, k2=1.0),
    lambda bad: SeparableHarmonic(k1=1.0, k2=bad),
], ids=["M", "m", "harmonic_k1", "harmonic_k2", "soft_z", "soft_s", "soft_k1",
        "separable_k1", "separable_k2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_model_values_are_rejected(build, bad):
    # NaN passes every ordering check (nan < 0 is false), so finiteness is checked on its own
    with pytest.raises(ValueError, match="finite"):
        build(bad)


def test_potential_dict_round_trip():
    pots = [HarmonicCoupling(1.0, 2.0), SoftCoulomb(1.0, 0.5, 0.3), SeparableHarmonic(0.0, 1.0)]
    for pot in pots:
        assert potential_from_dict(potential_to_dict(pot)) == pot
    with pytest.raises(ValueError):
        potential_from_dict({"family": "unknown"})
    with pytest.raises(ValueError):
        potential_from_dict({"family": "harmonic_coupling", "k1": 1.0})
    with pytest.raises(ValueError):
        potential_from_dict({})


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(family=st.sampled_from(sorted(_FAMILIES)),
       params=st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3),
       x1=st.floats(-1e3, 1e3), x2=st.floats(-1e3, 1e3))
def test_every_family_is_even_under_inversion(family, params, x1, x2):
    # the oracle's parity sectors rest on W(-x1, -x2) == W(x1, x2), bit for bit
    cls, fields = _FAMILIES[family]
    pot = cls(**dict(zip(fields, params)))
    assert pot.evaluate(-x1, -x2) == pot.evaluate(x1, x2)
