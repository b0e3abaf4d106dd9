"""Uncertainty products, mass-ratio scaling sweeps, and consolidated reports.

Position/momentum moments are evaluated on the sine-series interpolant of a
grid function rather than on the raw samples. A Dirichlet grid vector is an
isometric image of the band-limited function

    F(x) = sum_k c_k sqrt(2/L) sin(k pi (x - x_min) / L),

which is a genuine square-integrable function, so sigma_x * sigma_p >= 1/2
holds for it exactly (mixed states included) and any measured product sits
above the bound up to round-off. Moments of F reduce to small closed-form
matrices in the sine coefficients. By contrast, second moments built from
the 3-point stencil on a discrete eigenstate land *below* the bound by
O(h^2) (the stencil underestimates kinetic energy), so that route is kept
only as a cross-check utility.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dst

from .bo import (NuclearSolution, ProductState, adiabatic_residual,
                 assemble_product_state, solve_nuclear, t1_coupling_matrix)
from .clamped import ElectronicField, HeavyReport, heavy_gap_report, scan_pes
from .exact import (DEFAULT_SEED, FullHamiltonian, assemble_full_hamiltonian,
                    rayleigh_quotient, solve_exact)
from .grid import Grid1D, GridFunction, central_difference, second_difference
from .model import ModelSpec, kappa
from .projection import build_projector, solve_effective

UNCERTAINTY_SLACK = 1e-9
NORMALIZATION_TOL = 1e-8
REGION_SIGMA = 2.0


@dataclass
class UncertaintyResult:
    sigma_x: float
    sigma_p: float
    product: float
    bound_ok: bool
    label: str = ""


# --------------------------------------------------------------------------
# sine-basis moment machinery

class _SineMoments:
    """Closed-form moment matrices in the orthonormal Dirichlet sine basis.

    With u in [0, L] and phi_k(u) = sqrt(2/L) sin(k pi u / L):

        X1[k,l] = <phi_k| u |phi_l>,   X2[k,l] = <phi_k| u^2 |phi_l>,
        QG[k,l] = q_l G[k,l],          G[k,l] = <phi_k| phi_l' > / q_l,

    where G[k,l] = (2/pi)(1/(k+l) + 1/(k-l)) on odd k-l and zero otherwise.
    The momentum operator -i d/du then has matrix P = -i QG; it is Hermitian
    (QG is antisymmetric), so real states get exactly zero mean momentum.
    """

    def __init__(self, n: int, length: float):
        self.n = n
        self.length = length
        k = np.arange(1, n + 1)
        self.q = k * np.pi / length
        K, L = np.meshgrid(k, k, indexing="ij")
        diff = (K - L).astype(float)
        summ = (K + L).astype(float)
        odd = (K - L) % 2 != 0
        with np.errstate(divide="ignore"):
            inv_d2 = np.where(diff == 0.0, 0.0, 1.0 / np.where(diff == 0.0, 1.0, diff) ** 2)
        inv_s2 = 1.0 / summ**2
        # first moment couples only odd k-l
        self.X1 = np.where(odd, -(2.0 * length / np.pi**2) * (inv_d2 - inv_s2), 0.0)
        np.fill_diagonal(self.X1, length / 2.0)
        # second moment couples every k != l
        sign = np.where((K - L) % 2 == 0, 1.0, -1.0)
        self.X2 = sign * (2.0 * length**2 / np.pi**2) * (inv_d2 - inv_s2)
        np.fill_diagonal(self.X2, length**2 * (1.0 / 3.0 - 1.0 / (2.0 * k**2 * np.pi**2)))
        with np.errstate(divide="ignore"):
            inv_d = np.where(diff == 0.0, 0.0, 1.0 / np.where(diff == 0.0, 1.0, diff))
        self.QG = np.where(odd, (2.0 / np.pi) * (1.0 / summ + inv_d), 0.0) * self.q[None, :]


@lru_cache(maxsize=8)
def _sine_moments(n: int, length: float) -> _SineMoments:
    return _SineMoments(n, length)


def _sine_coefficients(values: np.ndarray, h: float) -> np.ndarray:
    if np.iscomplexobj(values):
        return np.sqrt(h) * (dst(values.real, type=1, norm="ortho")
                             + 1j * dst(values.imag, type=1, norm="ortho"))
    return np.sqrt(h) * dst(values, type=1, norm="ortho")


def uncertainty_product(f: GridFunction, label: str = "") -> UncertaintyResult:
    """Position/momentum spread product of a pure state (interpolant moments)."""
    if abs(f.norm() - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"state must be normalized (norm = {f.norm()})")
    sm = _sine_moments(f.grid.n, f.grid.length)
    c = _sine_coefficients(f.values, f.grid.h)
    mean_u = float(np.real(np.vdot(c, sm.X1 @ c)))
    mean_u2 = float(np.real(np.vdot(c, sm.X2 @ c)))
    mean_p = float(np.real(np.vdot(c, -1j * (sm.QG @ c))))
    mean_p2 = float(np.sum(sm.q**2 * np.abs(c) ** 2))
    return _result(mean_u, mean_u2, mean_p, mean_p2, label)


def uncertainty_product_stencil(f: GridFunction, label: str = "") -> UncertaintyResult:
    """Cross-check route: grid moments with 3-point stencil derivatives.

    Underestimates <p^2> by O(h^2), so near-minimum-uncertainty states can
    land slightly below 1/2 here; agreement with the primary route improves
    like h^2 under refinement.
    """
    if abs(f.norm() - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"state must be normalized (norm = {f.norm()})")
    h = f.grid.h
    x = f.grid.points
    v = f.values
    density = h * np.abs(v) ** 2
    mean_x = float(np.sum(x * density))
    mean_x2 = float(np.sum(x * x * density))
    lap = second_difference(v, f.grid)
    grad = central_difference(v, f.grid)
    mean_p2 = float(np.real(h * np.vdot(v, -lap)))
    mean_p = float(np.real(h * np.vdot(v, -1j * grad)))
    return _result(mean_x, mean_x2, mean_p, mean_p2, label)


def nuclear_uncertainty(state: ProductState, label: str = "") -> UncertaintyResult:
    """Heavy-coordinate spreads of a product state via its reduced density operator.

    The light coordinate is traced out, leaving a mixed state; moments are
    linear in the density operator, so they are evaluated as traces against
    the sine-basis moment matrices. The bound holds for mixed states too.
    """
    h1, h2 = state.grid1.h, state.grid2.h
    a = state.amplitudes
    rho = h2 * (a @ np.conj(a.T))          # position kernel, trace h1*sum(diag) = 1
    tr = float(np.real(h1 * np.trace(rho)))
    if abs(tr - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"product state must be normalized (trace = {tr})")
    sm = _sine_moments(state.grid1.n, state.grid1.length)
    # operator matrix in the orthonormal sine basis: h1 * C rho C^T
    rho_s = _dst_both_axes(rho) * h1
    mean_u = float(np.real(np.trace(rho_s @ sm.X1)))
    mean_u2 = float(np.real(np.trace(rho_s @ sm.X2)))
    mean_p = float(np.real(np.trace(rho_s @ (-1j * sm.QG))))
    mean_p2 = float(np.real(np.sum(sm.q**2 * np.diag(rho_s))))
    return _result(mean_u, mean_u2, mean_p, mean_p2, label)


def _dst_both_axes(m: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(m):
        return _dst_both_axes(m.real) + 1j * _dst_both_axes(m.imag)
    return dst(dst(m, type=1, norm="ortho", axis=0), type=1, norm="ortho", axis=1)


def _result(mean_u, mean_u2, mean_p, mean_p2, label) -> UncertaintyResult:
    var_x = max(mean_u2 - mean_u * mean_u, 0.0)
    var_p = max(mean_p2 - mean_p * mean_p, 0.0)
    sigma_x = float(np.sqrt(var_x))
    sigma_p = float(np.sqrt(var_p))
    product = sigma_x * sigma_p
    return UncertaintyResult(sigma_x=sigma_x, sigma_p=sigma_p, product=product,
                             bound_ok=bool(product >= 0.5 - UNCERTAINTY_SLACK), label=label)


def slice_uncertainty_products(field: ElectronicField) -> np.ndarray:
    """sigma_x * sigma_p for every scanned slice state; shape (A, n1)."""
    out = np.empty((field.n_surfaces, field.grid1.n))
    for a in range(field.n_surfaces):
        for i in range(field.grid1.n):
            out[a, i] = uncertainty_product(field.state(a, i)).product
    return out


# --------------------------------------------------------------------------
# heavy-region and kinetic-scale estimation

def nuclear_region(theta: GridFunction, widths: float = REGION_SIGMA) -> tuple[float, float]:
    """mean +/- widths * sigma of the heavy position density."""
    x = theta.grid.points
    density = theta.grid.h * np.abs(theta.values) ** 2
    mean = float(np.sum(x * density))
    sigma = float(np.sqrt(max(np.sum(x * x * density) - mean * mean, 0.0)))
    return mean - widths * sigma, mean + widths * sigma


def kinetic_expectation(theta: GridFunction, mass: float) -> float:
    """<theta| -(1/2 mass) d^2/dx^2 |theta> with the Dirichlet stencil."""
    v = theta.values
    lap = second_difference(v, theta.grid)
    return float(np.real(theta.grid.h * np.vdot(v, -lap))) / (2.0 * mass)


def t1_scale_candidates(sol: NuclearSolution, mass: float) -> dict[str, float]:
    """The two natural readings of the heavy kinetic scale, both reported."""
    out = {"kinetic_expectation": kinetic_expectation(sol.theta(0), mass)}
    if len(sol.energies) >= 2:
        out["level_spacing"] = float(sol.energies[1] - sol.energies[0])
    return out


# --------------------------------------------------------------------------
# consolidated pipeline runs

@dataclass
class ScalingRow:
    mass_ratio: float
    kappa: float
    bo_energy: float
    rayleigh_quotient: float
    exact_energy: float
    relative_error: float
    heavy: HeavyReport
    t1_candidates: dict
    min_uncertainty_product: float
    residual_max: float
    residual_mean: float


@dataclass
class ComparisonReport:
    model: dict
    mass_ratios: list
    rows: list
    heavy: HeavyReport
    uncertainty: list
    residuals: dict
    t1_coupling: dict | None = None
    heff: dict | None = None
    error_kappa_slope: float | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "model": self.model,
            "mass_ratios": [float(r) for r in self.mass_ratios],
            "rows": [_row_dict(r) for r in self.rows],
            "heavy": _heavy_dict(self.heavy),
            "uncertainty": [_uncertainty_dict(u) for u in self.uncertainty],
            "residuals": self.residuals,
            "t1_coupling": self.t1_coupling,
            "heff": self.heff,
            "error_kappa_slope": self.error_kappa_slope,
        }


def _heavy_dict(h: HeavyReport) -> dict:
    return {"region": [h.region[0], h.region[1]], "t1_scale": h.t1_scale,
            "min_gap": h.min_gap, "ratio": h.ratio, "heavy_ok": h.heavy_ok,
            "threshold": h.threshold}


def _uncertainty_dict(u: UncertaintyResult) -> dict:
    return {"label": u.label, "sigma_x": u.sigma_x, "sigma_p": u.sigma_p,
            "product": u.product, "bound_ok": u.bound_ok}


def _row_dict(r: ScalingRow) -> dict:
    return {"mass_ratio": r.mass_ratio, "kappa": r.kappa, "bo_energy": r.bo_energy,
            "rayleigh_quotient": r.rayleigh_quotient, "exact_energy": r.exact_energy,
            "relative_error": r.relative_error, "heavy": _heavy_dict(r.heavy),
            "t1_candidates": r.t1_candidates,
            "min_uncertainty_product": r.min_uncertainty_product,
            "residual_max": r.residual_max, "residual_mean": r.residual_mean}


@dataclass
class SingleRunResult:
    """Everything one pipeline pass produces; reports are assembled from these."""

    spec: ModelSpec
    field: ElectronicField
    hamiltonian: FullHamiltonian
    nuclear: dict
    product_states: list
    exact_energies: np.ndarray
    rayleigh: float
    heavy: HeavyReport
    t1_candidates: dict
    uncertainty: list
    min_uncertainty_product: float
    residuals: dict
    row: ScalingRow


def run_pipeline(spec: ModelSpec, grid1: Grid1D, grid2: Grid1D, A: int,
                 nuclear_levels: int = 2, region=None, t1_scale=None,
                 threshold: float = 10.0, seed: int = DEFAULT_SEED,
                 exact_k: int = 1) -> SingleRunResult:
    """Scan, solve, assemble, and compare one model against the exact oracle.

    ``region`` and ``t1_scale`` default to values derived from the ground
    nuclear state: mean +/- 2 sigma of its density, and the first nuclear
    level spacing. All uncertainty products (theta levels, reduced heavy
    states of every assembled level, every scanned slice state) are checked.
    """
    field = scan_pes(spec, grid1, grid2, A)
    sol0 = solve_nuclear(field, spec, 0, nuclear_levels)
    nuclear = {0: sol0}
    states = [assemble_product_state(sol0, field, n) for n in range(nuclear_levels)]

    h = assemble_full_hamiltonian(spec, grid1, grid2)
    rq = rayleigh_quotient(h, states[0].amplitudes)
    exact = solve_exact(h, k=exact_k, seed=seed)
    rel_err = abs(rq - exact.energies[0]) / abs(exact.energies[0])

    t1_cands = t1_scale_candidates(sol0, spec.M)
    if t1_scale is None:
        t1_scale = t1_cands.get("level_spacing", t1_cands["kinetic_expectation"])
    if region is None:
        region = nuclear_region(sol0.theta(0))
    heavy = heavy_gap_report(field, region, t1_scale, threshold)

    uncertainty = []
    for n in range(nuclear_levels):
        uncertainty.append(uncertainty_product(sol0.theta(n), label=f"theta[{n}]"))
    for st in states:
        uncertainty.append(nuclear_uncertainty(st, label=f"nuclear_reduced[level={st.level}]"))
    slice_products = slice_uncertainty_products(field)
    amin = np.unravel_index(np.argmin(slice_products), slice_products.shape)
    uncertainty.append(uncertainty_product(
        field.state(int(amin[0]), int(amin[1])),
        label=f"slice_min[a={amin[0]},i={amin[1]}]"))
    min_product = min(u.product for u in uncertainty)

    residuals = {}
    res_max = res_mean = 0.0
    for a in range(A):
        rep = adiabatic_residual(field, a)
        residuals[f"surface_{a}"] = {"max": rep.max, "mean": rep.mean}
        if a == 0:
            res_max, res_mean = rep.max, rep.mean

    row = ScalingRow(mass_ratio=spec.M / spec.m, kappa=kappa(spec),
                     bo_energy=float(sol0.energies[0]), rayleigh_quotient=rq,
                     exact_energy=float(exact.energies[0]),
                     relative_error=float(rel_err), heavy=heavy,
                     t1_candidates=t1_cands,
                     min_uncertainty_product=float(min_product),
                     residual_max=res_max, residual_mean=res_mean)
    return SingleRunResult(spec=spec, field=field, hamiltonian=h, nuclear=nuclear,
                           product_states=states, exact_energies=exact.energies,
                           rayleigh=rq, heavy=heavy, t1_candidates=t1_cands,
                           uncertainty=uncertainty, min_uncertainty_product=min_product,
                           residuals=residuals, row=row)


def _model_dict(spec: ModelSpec) -> dict:
    from .model import potential_to_dict
    return {"M": spec.M, "m": spec.m, "potential": potential_to_dict(spec.potential)}


def kappa_scaling_study(spec: ModelSpec, mass_ratios: list, grid1: Grid1D, grid2: Grid1D,
                        A: int, N: int = 1, nuclear_levels: int = 2,
                        threshold: float = 10.0, threads: int = 1,
                        seed: int = DEFAULT_SEED) -> ComparisonReport:
    """Run the full pipeline at each mass ratio and collect the error trend.

    ``spec`` supplies the light mass and potential; the heavy mass is set to
    ratio * m per row. The ratios must be ascending. The per-row heavy region
    and kinetic scale are re-derived from each row's nuclear ground state.
    The compressed-spectrum summary at rank N is attached for the final
    (largest) ratio. Rows run on ``threads`` workers and are collected in
    ratio order, so the report is identical for any worker count.
    """
    ratios = [float(r) for r in mass_ratios]
    if sorted(ratios) != ratios:
        raise ValueError("mass_ratios must be ascending")

    results = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [(ratio, pool.submit(run_pipeline, spec.with_mass_ratio(ratio), grid1, grid2, A,
                                       nuclear_levels=nuclear_levels, threshold=threshold,
                                       seed=seed))
                   for ratio in ratios]
        for ratio, future in futures:
            try:
                results.append(future.result())
            except Exception as exc:
                raise RuntimeError(f"pipeline failed at mass ratio {ratio}: {exc}") from exc

    rows = [r.row for r in results]
    slope = None
    if len(rows) >= 2:
        logs_k = np.log([r.kappa for r in rows])
        logs_e = np.log([max(r.relative_error, 1e-300) for r in rows])
        slope = float(np.polyfit(logs_k, logs_e, 1)[0])
    last = results[-1]
    eff = solve_effective(build_projector(last.field, N), last.hamiltonian, k=1)
    heff = {"ranks": [N], "lowest": [float(eff.energies[0])],
            "gap_to_exact": float(eff.energies[0] - last.exact_energies[0])}
    return ComparisonReport(model=_model_dict(spec), mass_ratios=ratios, rows=rows,
                            heavy=last.heavy, uncertainty=last.uncertainty,
                            residuals=last.residuals, heff=heff, error_kappa_slope=slope)


def compare_report(spec: ModelSpec, grid1: Grid1D, grid2: Grid1D, A: int, N: int,
                   nuclear_levels: int = 2, region=None, t1_scale=None,
                   threshold: float = 10.0, seed: int = DEFAULT_SEED,
                   exact_k: int = 1) -> ComparisonReport:
    """Single-model consolidated report: oracle comparison, projection drift,
    heavy-kinetic coupling summary, residuals, uncertainty suite."""
    result = run_pipeline(spec, grid1, grid2, A, nuclear_levels=nuclear_levels,
                          region=region, t1_scale=t1_scale, threshold=threshold,
                          seed=seed, exact_k=exact_k)
    field, h = result.field, result.hamiltonian

    # compressed-spectrum drift as the retained rank grows
    ranks = list(range(1, N + 1))
    lowest = []
    for rank in ranks:
        eff = solve_effective(build_projector(field, rank), h, k=1)
        lowest.append(float(eff.energies[0]))
    heff = {"ranks": ranks, "lowest": lowest,
            "gap_to_exact": float(lowest[-1] - result.exact_energies[0])}

    # heavy-kinetic couplings between the assembled states of every surface
    nuclear = dict(result.nuclear)
    for a in range(1, A):
        nuclear[a] = solve_nuclear(field, spec, a, 1)
    selection = [(a, 0) for a in range(A)]
    mat = t1_coupling_matrix(field, nuclear, selection, spec.M)
    off = mat - np.diag(np.diag(mat))
    offdiag_max = float(np.max(np.abs(off))) if len(selection) > 1 else 0.0
    gaps = np.diff(field.energies, axis=0)
    min_gap = float(np.min(gaps)) if A > 1 else float("inf")
    t1_summary = {"offdiag_max": offdiag_max, "min_adjacent_gap": min_gap,
                  "suppression_ratio": offdiag_max / min_gap if np.isfinite(min_gap) and min_gap > 0 else None}

    return ComparisonReport(model=_model_dict(spec), mass_ratios=[spec.M / spec.m],
                            rows=[result.row], heavy=result.heavy,
                            uncertainty=result.uncertainty, residuals=result.residuals,
                            t1_coupling=t1_summary, heff=heff)
