"""Uncertainty products, mass-ratio scaling sweeps, and consolidated reports.

Position/momentum moments are evaluated on the sine-series interpolant of a
grid function rather than on the raw samples. A Dirichlet grid vector is an
isometric image of the band-limited function

    F(x) = sum_k c_k sqrt(2/L) sin(k pi (x - x_min) / L),

which is a genuine square-integrable function, so sigma_x * sigma_p >= 1/2
holds for it exactly (mixed states included) and any measured product sits
above the bound up to round-off. Moments of F reduce to small closed-form
matrices in the sine coefficients, which split by parity about the box
centre. One kernel evaluates them for a batch of grid vectors (one folded
sine-transform matmul per parity along the grid axis, then one block product
per moment); a pure state is one column, a reduced heavy state the
h2-weighted sum over its amplitude columns, and the slice states of a
surface one batch, its mirror slices left out where the scan mirrored.
By contrast, second moments built from the 3-point stencil on a discrete
eigenstate land *below* the bound by O(h^2) (the stencil underestimates
kinetic energy), so that route is kept only as a cross-check utility.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .bo import (NuclearSolution, ProductState, adiabatic_residual,
                 assemble_product_state, solve_nuclear, t1_coupling_matrix)
from .clamped import ElectronicField, HeavyReport, heavy_gap_report, scan_pes
from .exact import (DEFAULT_SEED, ExactSolution, FullHamiltonian, assemble_full_hamiltonian,
                    rayleigh_quotient, solve_exact)
from .grid import (Grid1D, GridFunction, central_difference, kinetic_diagonals, ritz_error_bound,
                   second_difference)
from .model import ModelSpec, kappa, potential_to_dict
from .projection import build_projector, solve_effective

UNCERTAINTY_SLACK = 1e-9
NORMALIZATION_TOL = 1e-8
REGION_SIGMA = 2.0
SLICE_TIE_RTOL = 1e-12
SCHEMA_VERSION = 1          # of the run config and of every JSON artifact


@dataclass
class UncertaintyResult:
    label: str
    sigma_x: float
    sigma_p: float
    product: float
    bound_ok: bool


# --------------------------------------------------------------------------
# sine-basis moment machinery

class _SineMoments:
    """Closed-form moment blocks in the orthonormal Dirichlet sine basis, split by parity.

    With u = x - (x_min + x_max)/2 in [-L/2, L/2] and phi_k(u) = sqrt(2/L) sin(k pi (u/L + 1/2)),
    phi_k has parity (-1)^(k+1) about u = 0; subscripts o and e mark odd and even k:

        B[k,l]   = <phi_k| u |phi_l>     = -(8 L/pi^2) k l / (k^2 - l^2)^2    (k odd, l even),
        U2[k,l]  = <phi_k| u^2 |phi_l>   =  (8 L^2/pi^2) k l / (k^2 - l^2)^2  (k != l, same parity),
        U2[k,k]                          =  L^2 (1/12 - 1/(2 pi^2 k^2)),
        Q[k,l]   = <phi_k| d/du |phi_l>  =  (4/L) k l / (k^2 - l^2)            (k odd, l even),

    and every other entry is zero: u and d/du couple only opposite parities, u^2 only
    equal ones (two blocks, ``U2o`` and ``U2e``), and p^2 is diagonal,
    ``q2 = (k pi/L)^2``. d/du is antisymmetric, so <p> = 2 Im(c_o^H Q c_e) and a real state
    has exactly zero mean momentum. Row k of the orthonormal DST-I matrix S, which takes grid
    values to sine coefficients, has the same parity under j -> n-1-j, so only its first
    ceil(n/2) columns are kept: ``So`` (odd rows) and ``Se`` (even rows, without the middle
    column of an odd n, where they are zero). A dense matmul beats an FFT of length 2(n+1) at these
    sizes. Sine arguments are reduced mod 2(n+1) in integers, so they stay exact.
    """

    def __init__(self, n: int, length: float):
        ko, ke = np.arange(1, n + 1, 2), np.arange(2, n + 1, 2)
        self.So = _dst_rows(ko, n - n // 2, n)
        self.Se = _dst_rows(ke, n // 2, n)
        kl, d = np.multiply.outer(ko, ke), np.subtract.outer(ko * ko, ke * ke)
        self.B = -(8.0 * length / np.pi**2) * kl / (d * d)
        self.Q = (4.0 / length) * kl / d
        self.U2o, self.U2e = (_second_moment_block(k, length) for k in (ko, ke))
        self.q2 = (np.arange(1, n + 1) * np.pi / length) ** 2


def _dst_rows(k: np.ndarray, cols: int, n: int) -> np.ndarray:
    """Rows ``k`` (1-based) and the first ``cols`` columns of the orthonormal DST-I of size n."""
    kj = np.multiply.outer(k, np.arange(1, cols + 1)) % (2 * (n + 1))
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * kj / (n + 1))


def _second_moment_block(k: np.ndarray, length: float) -> np.ndarray:
    """<phi_k| u^2 |phi_l> over one parity class ``k``, u centred."""
    kl, d = np.multiply.outer(k, k), np.subtract.outer(k * k, k * k)
    np.fill_diagonal(d, 1)
    block = (8.0 * length**2 / np.pi**2) * kl / (d * d)
    np.fill_diagonal(block, length**2 * (1.0 / 12.0 - 1.0 / (2.0 * np.pi**2 * k**2)))
    return block


@lru_cache(maxsize=8)
def _sine_moments(n: int, length: float) -> _SineMoments:
    return _SineMoments(n, length)


def _column_moments(values: np.ndarray, grid: Grid1D):
    """<u>, <u^2>, <p>, <p^2>, each of shape (r,), for the (n, r) grid vectors ``values``.

    u = x - (x_min + x_max)/2, the box centre; the spreads do not depend on the origin.
    Each column is folded about the centre, its even part giving the odd-k sine
    coefficients and its odd part the even-k ones, and every moment is read from the
    parity blocks of ``_SineMoments``: 1.25 n^2 multiply-adds per real column. Columns
    may be complex; real ones skip <p>, which is exactly zero for them.
    """
    sm = _sine_moments(grid.n, grid.length)
    n, half = grid.n, grid.n // 2
    flipped = values[::-1][:half]
    even = values[:n - half].copy()  # the middle row of an odd n stays as it is
    even[:half] += flipped
    co, ce = sm.So @ even, sm.Se @ (values[:half] - flipped)
    cplx = np.iscomplexobj(values)
    cco, cce = (np.conj(co), np.conj(ce)) if cplx else (co, ce)
    h = grid.h
    mean_u = 2.0 * h * np.real(np.einsum("kr,kr->r", cco, sm.B @ ce))
    mean_u2 = h * np.real(np.einsum("kr,kr->r", cco, sm.U2o @ co)
                          + np.einsum("kr,kr->r", cce, sm.U2e @ ce))
    mean_p = (2.0 * h * np.imag(np.einsum("kr,kr->r", cco, sm.Q @ ce)) if cplx
              else np.zeros(values.shape[1]))
    mean_p2 = h * np.real(np.einsum("k,kr,kr->r", sm.q2[0::2], cco, co)
                          + np.einsum("k,kr,kr->r", sm.q2[1::2], cce, ce))
    return mean_u, mean_u2, mean_p, mean_p2


def _spreads(mean_u, mean_u2, mean_p, mean_p2):
    """sigma_x, sigma_p and their product, elementwise over scalars or arrays."""
    sigma_x = np.sqrt(np.maximum(mean_u2 - mean_u * mean_u, 0.0))
    sigma_p = np.sqrt(np.maximum(mean_p2 - mean_p * mean_p, 0.0))
    return sigma_x, sigma_p, sigma_x * sigma_p


def _result(moments, label) -> UncertaintyResult:
    sigma_x, sigma_p, product = (float(v) for v in _spreads(*moments))
    return UncertaintyResult(sigma_x=sigma_x, sigma_p=sigma_p, product=product,
                             bound_ok=bool(product >= 0.5 - UNCERTAINTY_SLACK), label=label)


def uncertainty_product(f: GridFunction, label: str = "") -> UncertaintyResult:
    """Position/momentum spread product of a pure state (interpolant moments)."""
    if abs(f.norm() - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"state must be normalized (norm = {f.norm()})")
    return _result([m[0] for m in _column_moments(f.values[:, None], f.grid)], label)


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
    return _result((mean_x, mean_x2, mean_p, mean_p2), label)


def nuclear_uncertainty(state: ProductState, label: str = "") -> UncertaintyResult:
    """Heavy-coordinate spreads of a product state via its reduced density operator.

    The light coordinate is traced out, leaving the mixed state
    rho = h2 * sum_j a[:, j] a[:, j]^H over the amplitude columns. Moments are
    linear in the density operator, so each is the h2-weighted sum of the
    column moments. The bound holds for mixed states too.
    """
    h2 = state.grid2.h
    a = state.amplitudes
    tr = float(state.grid1.h * h2 * np.sum(np.abs(a) ** 2))
    if abs(tr - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"product state must be normalized (trace = {tr})")
    return _result([h2 * np.sum(m) for m in _column_moments(a, state.grid1)], label)


def slice_uncertainty_products(field: ElectronicField) -> np.ndarray:
    """sigma_x * sigma_p for every scanned slice state; shape (A, n1), one batch per surface.

    Every slice must be normalized. If the scan mirrored its slices and flagged no
    degenerate slice, slice n1-1-i is slice i reflected up to sign (see ElectronicField),
    and a reflection changes neither spread: only slices 0 .. ceil(n1/2) - 1 are
    evaluated, and their products are copied, reversed, to the rest.
    """
    n1 = field.grid1.n
    half = (n1 + 1) // 2 if field.mirrored and not field.degenerate_flags else n1
    out = np.empty((field.n_surfaces, n1))
    for a, states in enumerate(field.states):
        norms = np.sqrt(field.grid2.h) * np.linalg.norm(states, axis=1)
        if np.any(np.abs(norms - 1.0) > NORMALIZATION_TOL):
            raise ValueError(f"slice states of surface {a} must be normalized")
        out[a, :half] = _spreads(*_column_moments(states[:half].T, field.grid2))[2]
    out[:, half:] = out[:, :n1 - half][:, ::-1]
    return out


# --------------------------------------------------------------------------
# heavy-region and kinetic-scale estimation

def nuclear_region(theta: GridFunction) -> tuple[float, float]:
    """mean +/- max(REGION_SIGMA * sigma, h) of the heavy position density, h its grid spacing."""
    x = theta.grid.points
    density = theta.grid.h * np.abs(theta.values) ** 2
    mean = float(np.sum(x * density))
    sigma = float(np.sqrt(max(np.sum(x * x * density) - mean * mean, 0.0)))
    half = max(REGION_SIGMA * sigma, theta.grid.h)
    return mean - half, mean + half


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
    """The report.json schema: ``to_dict`` writes these fields, nested
    dataclasses included, in declaration order after ``schema_version``."""

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
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}


def _model_dict(spec: ModelSpec) -> dict:
    return {"M": spec.M, "m": spec.m, "potential": potential_to_dict(spec.potential)}


class Run:
    """One model on one pair of grids, as stages computed on first read and then kept,
    so every report of the run reads the same field, H and oracle solve.

    The stages: ``field`` (the scan, or the ``field`` passed in), ``nuclear``
    (nuclear_levels levels on surface 0, one on every other surface),
    ``product_states`` (of surface 0), ``hamiltonian``, ``exact`` (the oracle's
    ExactSolution at exact_k, shifted from the scan's lambda_0, which ``solve_exact``
    certifies; ``row`` and ``heff`` read only E_0, so the reports use the default
    k = 1), ``residuals`` (one per surface),
    ``uncertainty`` and ``row``. The row's heavy report spans ``nuclear_region`` of
    the nuclear ground state, takes its first level spacing as the kinetic scale
    (its kinetic expectation at one level, or where the spacing is within the two
    levels' Ritz error bounds, 2 ``grid.ritz_error_bound``), and needs A >= 2.
    ``heff(ranks)`` and ``report(**fields)`` read the stages. The scan runs on
    ``threads`` threads. It holds no M, so a mass sweep passes one field to every row;
    a field from other grids or with another surface count is a ValueError. The
    oracle's states are kept, k n1 n2 doubles. A Run shares no lock with another.
    """

    def __init__(self, spec: ModelSpec, grid1: Grid1D, grid2: Grid1D, A: int,
                 nuclear_levels: int = 2, seed: int = DEFAULT_SEED, exact_k: int = 1,
                 field: ElectronicField | None = None, threads: int = 1):
        if field is not None and (field.grid1, field.grid2, field.n_surfaces) != (grid1, grid2, A):
            raise ValueError("field was scanned on other grids or with another surface count")
        self.spec, self.grid1, self.grid2, self.A = spec, grid1, grid2, A
        self.nuclear_levels, self.seed, self.exact_k = nuclear_levels, seed, exact_k
        self.threads = threads
        if field is not None:
            self.field = field

    def __getattr__(self, name: str):
        # reached only while a stage is unset: compute it with ``_<name>`` and keep it.
        # Not functools.cached_property: through Python 3.11 its __get__ takes a lock that
        # belongs to the descriptor, one lock for every Run, so each row of the sweep pool
        # would wait on the others' ``row``.
        if not hasattr(Run, "_" + name):
            raise AttributeError(f"Run has no stage {name!r}")
        setattr(self, name, getattr(self, "_" + name)())
        return self.__dict__[name]

    def _field(self) -> ElectronicField:
        return scan_pes(self.spec, self.grid1, self.grid2, self.A, self.threads)

    def _nuclear(self) -> dict:
        return {a: solve_nuclear(self.field, self.spec, a, self.nuclear_levels if a == 0 else 1)
                for a in range(self.A)}

    def _product_states(self) -> list:
        return [assemble_product_state(self.nuclear[0], self.field, n)
                for n in range(self.nuclear_levels)]

    def _hamiltonian(self) -> FullHamiltonian:
        return assemble_full_hamiltonian(self.spec, self.grid1, self.grid2)

    def _exact(self) -> ExactSolution:
        return solve_exact(self.hamiltonian, k=self.exact_k, seed=self.seed,
                           lam0=self.field.energies[0])

    def _residuals(self) -> list:
        return [adiabatic_residual(self.field, a) for a in range(self.A)]

    def _uncertainty(self) -> list:
        field, sol0 = self.field, self.nuclear[0]
        out = [uncertainty_product(sol0.theta(n), label=f"theta[{n}]")
               for n in range(self.nuclear_levels)]
        out += [nuclear_uncertainty(st, label=f"nuclear_reduced[level={st.level}]")
                for st in self.product_states]
        slice_products = slice_uncertainty_products(field)
        # products tie at round-off (identical or shifted slice states), so report
        # the first near-minimal slice in row-major order rather than argmin's pick
        tied = slice_products <= slice_products.min() * (1.0 + SLICE_TIE_RTOL)
        a_min, i_min = np.unravel_index(np.flatnonzero(tied)[0], tied.shape)
        out.append(uncertainty_product(field.state(a_min, i_min),
                                       label=f"slice_min[a={a_min},i={i_min}]"))
        return out

    def _row(self) -> ScalingRow:
        spec, sol0 = self.spec, self.nuclear[0]
        rq = rayleigh_quotient(self.hamiltonian, self.product_states[0].amplitudes)
        e0 = self.exact.energies[0]
        if e0 == 0.0:
            raise RuntimeError("oracle ground energy E_exact = 0.0: its relative error is undefined")
        t1_cands = t1_scale_candidates(sol0, spec.M)
        # the spacing counts only above its two Ritz values' error bound, the solver's gate
        d, e = kinetic_diagonals(self.grid1, spec.M)
        spacing = t1_cands.get("level_spacing", 0.0)
        resolved = spacing > 2.0 * ritz_error_bound(d + self.field.energies[0], e)
        heavy = heavy_gap_report(self.field, nuclear_region(sol0.theta(0)),
                                 spacing if resolved else t1_cands["kinetic_expectation"])
        return ScalingRow(mass_ratio=spec.M / spec.m, kappa=kappa(spec),
                          bo_energy=float(sol0.energies[0]), rayleigh_quotient=rq,
                          exact_energy=float(e0), relative_error=float(abs(rq - e0) / abs(e0)),
                          heavy=heavy, t1_candidates=t1_cands,
                          min_uncertainty_product=min(u.product for u in self.uncertainty),
                          residual_max=self.residuals[0].max, residual_mean=self.residuals[0].mean)

    def heff(self, ranks) -> dict:
        """Lowest compressed-spectrum energy at each rank, and the last one's gap to the oracle."""
        lowest = [float(solve_effective(build_projector(self.field, rank), self.hamiltonian,
                                        k=1).energies[0]) for rank in ranks]
        return {"ranks": list(ranks), "lowest": lowest,
                "gap_to_exact": float(lowest[-1] - self.exact.energies[0])}

    def report(self, **fields) -> ComparisonReport:
        """The report of this run alone; ``fields`` set the optional ones or replace any."""
        residuals = {f"surface_{r.surface}": {"max": r.max, "mean": r.mean} for r in self.residuals}
        return ComparisonReport(**{"model": _model_dict(self.spec), "mass_ratios": [self.row.mass_ratio],
                                   "rows": [self.row], "heavy": self.row.heavy,
                                   "uncertainty": self.uncertainty, "residuals": residuals, **fields})


def run_pipeline(*args, **kwargs) -> Run:
    """``Run(*args, **kwargs)`` with its ``row`` computed: a mass sweep's unit of work."""
    run = Run(*args, **kwargs)
    run.row  # computed here, on the worker thread that runs this call
    return run


def kappa_scaling_study(spec: ModelSpec, mass_ratios: list, grid1: Grid1D, grid2: Grid1D,
                        A: int, N: int = 1, nuclear_levels: int = 2, threads: int = 1,
                        seed: int = DEFAULT_SEED) -> ComparisonReport:
    """A Run at each mass ratio, and the error trend of their rows.

    ``spec`` supplies the light mass and potential; the heavy mass is set to
    ratio * m per row. ``A < 2`` (no gap report) is a ValueError naming
    ``n_surfaces``. The ratios must be strictly ascending (a repeat leaves the
    slope undefined); a ratio that gives no valid row model is a ValueError
    naming it. Both come before the scan. The scan holds no M, so it runs
    once, before the rows, and its failure names no mass ratio; a row's failure
    is a RuntimeError naming its ratio. The compressed-spectrum summary at rank
    N is attached for the final (largest) ratio. The scan and then the rows run on
    ``threads`` workers, rows collected in ratio order: the report is the same for
    any count.
    """
    if A < 2:
        raise ValueError(f"n_surfaces must be at least 2 for the gap report, not {A}")
    ratios = [float(r) for r in mass_ratios]
    if not ratios:
        raise ValueError("mass_ratios is empty: a sweep needs at least one mass ratio")
    if any(b <= a for a, b in zip(ratios, ratios[1:])):
        raise ValueError("mass_ratios must be strictly ascending")

    specs = []
    for ratio in ratios:
        try:
            specs.append(spec.with_mass_ratio(ratio))
        except ValueError as exc:
            raise ValueError(f"mass ratio {ratio}: {exc}") from exc

    field = scan_pes(spec, grid1, grid2, A, threads)
    results = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [(ratio, pool.submit(run_pipeline, row_spec, grid1, grid2, A,
                                       nuclear_levels=nuclear_levels, seed=seed, field=field))
                   for ratio, row_spec in zip(ratios, specs)]
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
    return last.report(model=_model_dict(spec), mass_ratios=ratios, rows=rows,
                       heff=last.heff([N]), error_kappa_slope=slope)


def compare_report(spec: ModelSpec, grid1: Grid1D, grid2: Grid1D, A: int, N: int,
                   nuclear_levels: int = 2, seed: int = DEFAULT_SEED,
                   threads: int = 1) -> ComparisonReport:
    """Single-model consolidated report of one Run, its scan on ``threads`` threads: oracle
    comparison, projection drift, heavy-kinetic coupling summary, residuals, uncertainty
    suite. The report reads the oracle's ground energy alone, so its Run solves for k = 1.
    ``A < 2`` is a ValueError naming ``n_surfaces``, before any compute."""
    if A < 2:
        raise ValueError(f"n_surfaces must be at least 2 for the gap report, not {A}")
    run = Run(spec, grid1, grid2, A, nuclear_levels, seed, threads=threads)
    # heavy-kinetic couplings between the assembled states of every surface
    mat = t1_coupling_matrix(run.field, run.nuclear, [(a, 0) for a in range(A)], spec.M)
    offdiag_max = float(np.max(np.abs(mat - np.diag(np.diag(mat)))))
    min_gap = float(np.min(np.diff(run.field.energies, axis=0)))
    t1_summary = {"offdiag_max": offdiag_max, "min_adjacent_gap": min_gap,
                  "suppression_ratio": offdiag_max / min_gap if min_gap > 0 else None}
    return run.report(t1_coupling=t1_summary, heff=run.heff(range(1, N + 1)))
