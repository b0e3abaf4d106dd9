"""Model-molecule Hamiltonian families and the closed-form two-oscillator oracle.

A model is two distinguishable 1-D particles, a heavy one (coordinate x1,
mass M) and a light one (x2, mass m), interacting through one of three
potential families:

* harmonic_coupling   W = k1/2 x1^2 + k2/2 (x2 - x1)^2     (exactly solvable)
* soft_coulomb        W = k1/2 x1^2 - z / sqrt((x2-x1)^2 + s^2)
* separable_harmonic  W = k1/2 x1^2 + k2/2 x2^2            (control case: no coupling)

The harmonic family anchors every quantitative check, because its full
two-body spectrum follows from a 2x2 normal-mode diagonalization.

Every family is even under the inversion (x1, x2) -> (-x1, -x2), bit for bit,
since negation commutes with IEEE rounding. ``exact.solve_exact`` relies on
it: on a box centred at the origin it solves the two parity sectors apart.
A new family must keep this, or its oracle falls back to the full operator.
"""

import difflib
from dataclasses import dataclass

import numpy as np

from .grid import Grid1D, even_potential

HARMONIC_COUPLING = "harmonic_coupling"
SOFT_COULOMB = "soft_coulomb"
SEPARABLE_HARMONIC = "separable_harmonic"


@dataclass(eq=True)
class HarmonicCoupling:
    k1: float
    k2: float

    family = HARMONIC_COUPLING

    def __post_init__(self):
        if not 0 <= self.k1 < np.inf:
            raise ValueError("harmonic_coupling requires finite k1 >= 0")
        if not 0 < self.k2 < np.inf:
            raise ValueError("harmonic_coupling requires finite k2 > 0")

    def evaluate(self, x1, x2):
        return 0.5 * self.k1 * np.asarray(x1) ** 2 + 0.5 * self.k2 * (np.asarray(x2) - np.asarray(x1)) ** 2


@dataclass(eq=True)
class SoftCoulomb:
    z: float
    s: float
    k1: float

    family = SOFT_COULOMB

    def __post_init__(self):
        if not (0 < self.z < np.inf and 0 < self.s < np.inf):
            raise ValueError("soft_coulomb requires finite z > 0 and s > 0")
        if not 0 <= self.k1 < np.inf:
            raise ValueError("soft_coulomb requires finite k1 >= 0")

    def evaluate(self, x1, x2):
        d = np.asarray(x2) - np.asarray(x1)
        return 0.5 * self.k1 * np.asarray(x1) ** 2 - self.z / np.sqrt(d * d + self.s * self.s)


@dataclass(eq=True)
class SeparableHarmonic:
    """Uncoupled confinement in each coordinate; the adiabatic ansatz is exact here."""

    k1: float
    k2: float

    family = SEPARABLE_HARMONIC

    def __post_init__(self):
        if not (0 <= self.k1 < np.inf and 0 <= self.k2 < np.inf):
            raise ValueError("separable_harmonic requires finite k1, k2 >= 0")

    def evaluate(self, x1, x2):
        return 0.5 * self.k1 * np.asarray(x1) ** 2 + 0.5 * self.k2 * np.asarray(x2) ** 2


Potential = HarmonicCoupling | SoftCoulomb | SeparableHarmonic

_FAMILIES = {
    HARMONIC_COUPLING: (HarmonicCoupling, ("k1", "k2")),
    SOFT_COULOMB: (SoftCoulomb, ("z", "s", "k1")),
    SEPARABLE_HARMONIC: (SeparableHarmonic, ("k1", "k2")),
}


@dataclass(eq=True)
class ModelSpec:
    """Masses and interaction defining H = T1 + T2 + W (hbar = 1 units)."""

    M: float
    m: float
    potential: Potential

    def __post_init__(self):
        if not (0 < self.M < np.inf and 0 < self.m < np.inf):
            raise ValueError("masses must be finite and positive")

    def with_mass_ratio(self, ratio: float) -> "ModelSpec":
        """Same light mass and potential, heavy mass M = ratio * m."""
        return ModelSpec(M=ratio * self.m, m=self.m, potential=self.potential)


def evaluate_potential(spec: ModelSpec, x1, x2):
    """W(x1, x2) for scalars or broadcastable arrays."""
    return spec.potential.evaluate(x1, x2)


def sample_potential(spec: ModelSpec, grid1: Grid1D, grid2: Grid1D) -> np.ndarray:
    """W (n1, n2) on the product grid through ``grid.even_potential``: the one sampled W."""
    w = evaluate_potential(spec, grid1.points[:, None], grid2.points[None, :])
    return even_potential(np.asarray(w, dtype=float))


def kappa(spec: ModelSpec) -> float:
    """The adiabatic small parameter (m/M)^(1/4)."""
    return float((spec.m / spec.M) ** 0.25)


@dataclass
class NormalModeResult:
    """Exact spectrum of the coupled-oscillator model from its 2x2 stiffness matrix."""

    frequencies: tuple[float, float]  # (Omega_plus, Omega_minus), descending
    ground_energy: float

    def level(self, n1: int, n2: int) -> float:
        om_p, om_m = self.frequencies
        return (n1 + 0.5) * om_p + (n2 + 0.5) * om_m


def analytic_normal_modes(spec: ModelSpec) -> NormalModeResult:
    """Diagonalize the mass-weighted stiffness matrix of the harmonic-coupling model.

    Both normal frequencies are the square roots of the eigenvalues of

        [[(k1 + k2)/M,  -k2/sqrt(M m)],
         [-k2/sqrt(M m),  k2/m       ]]

    and the exact two-body levels are (n1 + 1/2) Omega_+ + (n2 + 1/2) Omega_-.
    Requires k1 > 0: with no heavy-particle confinement the softest mode is
    free and the spectrum is set by the box, not the model.
    """
    pot = spec.potential
    if not isinstance(pot, HarmonicCoupling):
        raise ValueError("normal-mode oracle exists only for the harmonic_coupling family")
    if pot.k1 <= 0:
        raise ValueError("normal-mode oracle requires k1 > 0 (zero-frequency mode otherwise)")
    M, m = spec.M, spec.m
    a = (pot.k1 + pot.k2) / M
    b = -pot.k2 / np.sqrt(M * m)
    d = pot.k2 / m
    tr, det = a + d, a * d - b * b
    disc = np.sqrt(tr * tr / 4.0 - det)
    om_sq = np.array([tr / 2.0 + disc, tr / 2.0 - disc])
    om = np.sqrt(om_sq)
    return NormalModeResult(frequencies=(float(om[0]), float(om[1])),
                            ground_energy=float(0.5 * (om[0] + om[1])))


def potential_to_dict(pot: Potential) -> dict:
    cls, fields = _FAMILIES[pot.family]
    out = {"family": pot.family}
    out.update({name: float(getattr(pot, name)) for name in fields})
    return out


def reject_unknown(data: dict, known, prefix: str = "") -> None:
    """ValueError naming the first key of ``data`` outside ``known`` and the nearest known key."""
    for key in data:
        if key not in known:
            near = difflib.get_close_matches(str(key), known, n=1)
            hint = f" (did you mean '{prefix}{near[0]}'?)" if near else ""
            raise ValueError(f"unknown field '{prefix}{key}'{hint}")


def potential_from_dict(data: dict, path: str = "potential") -> Potential:
    """The potential a config object describes; a bad or unknown key is named as ``path.key``."""
    try:
        family = data["family"]
    except (KeyError, TypeError):
        raise ValueError("potential config must carry a 'family' field") from None
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ValueError(f"unknown potential family {family!r}")
    cls, fields = _FAMILIES[family]
    reject_unknown(data, ("family", *fields), f"{path}.")
    missing = [name for name in fields if name not in data]
    if missing:
        raise ValueError(f"potential family {family!r} is missing parameters {missing}")
    params = {}
    for name in fields:
        value = data[name]
        try:
            params[name] = float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}.{name}: {exc}") from None
        if isinstance(value, bool) or not np.isfinite(params[name]):
            raise ValueError(f"{path}.{name} must be a finite number, not {value!r}")
    return cls(**params)
