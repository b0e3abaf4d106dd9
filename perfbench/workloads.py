"""Workloads of the bolab benchmark: seeded configs, the jobs, and their gate.

Each workload is a fixed cycle of jobs. bolab receives only the config files
written here; the workload seed picks each config's eigensolver start-vector
``seed`` and a small jitter of the masses and potential parameters. Grids
never change with the seed, so the work per job stays the same.

Every job's artifacts pass through ``check_*`` functions that enforce the
inequalities the adiabatic picture implies (see README.md). A failed check
raises ``GateError``.
"""

import copy
import json
import math
from pathlib import Path

import numpy as np

# Relative half-width of the uniform jitter on masses and potential parameters.
JITTER = 0.02
# Round-off allowance on energy orderings, relative to |E|.
ENERGY_SLACK = 1e-10
UNCERTAINTY_BOUND = 0.5 - 1e-9
EXACT_RESIDUAL_RTOL = 1e-9

BASE_CONFIGS = {
    # The bundled oracle configs: both take the shift-invert path
    # (product dimensions 16,384 and 18,432).
    "harmonic_m2000": {
        "model": {"M": 2000.0, "m": 1.0,
                  "potential": {"family": "harmonic_coupling", "k1": 1.0, "k2": 1.0}},
        "grid1": {"x_min": -0.65, "x_max": 0.65, "n": 128},
        "grid2": {"x_min": -5.5, "x_max": 5.5, "n": 128},
        "n_surfaces": 3, "projector_rank": 3, "nuclear_levels": 3, "exact_k": 3,
    },
    "soft_coulomb": {
        "model": {"M": 100.0, "m": 1.0,
                  "potential": {"family": "soft_coulomb", "z": 1.0, "s": 1.0, "k1": 1.0}},
        "grid1": {"x_min": -1.6, "x_max": 1.6, "n": 96},
        "grid2": {"x_min": -10.0, "x_max": 10.0, "n": 192},
        "n_surfaces": 2, "projector_rank": 2, "nuclear_levels": 2, "exact_k": 2,
    },
    "scaling_harmonic": {
        "model": {"M": 10.0, "m": 1.0,
                  "potential": {"family": "harmonic_coupling", "k1": 1.0, "k2": 1.0}},
        "grid1": {"x_min": -2.4, "x_max": 2.4, "n": 192},
        "grid2": {"x_min": -8.5, "x_max": 8.5, "n": 96},
        "n_surfaces": 2, "projector_rank": 1, "nuclear_levels": 2, "exact_k": 1,
        "sweep": [10, 100, 1000, 2000],
    },
    # soft_coulomb refined to the resolution the demos use, with four surfaces.
    "soft_coulomb_fine": {
        "model": {"M": 100.0, "m": 1.0,
                  "potential": {"family": "soft_coulomb", "z": 1.0, "s": 1.0, "k1": 1.0}},
        "grid1": {"x_min": -1.6, "x_max": 1.6, "n": 384},
        "grid2": {"x_min": -10.0, "x_max": 10.0, "n": 256},
        "n_surfaces": 4, "projector_rank": 4, "nuclear_levels": 1, "exact_k": 1,
        "threads": 2,
    },
}

# Grid sizes of the smoke-test configuration (dense eigensolver path).
TINY_GRIDS = {"harmonic_m2000": (24, 24), "soft_coulomb": (16, 32),
              "scaling_harmonic": (32, 16), "soft_coulomb_fine": (32, 24)}


class GateError(AssertionError):
    """A job's artifacts violate the correctness gate."""


class Job:
    """One closed-loop job: a CLI command, or the adiabatic library route."""

    def __init__(self, name, command, config, args=()):
        self.name = name          # unique within the workload
        self.command = command    # a bolab CLI command, or "adiabatic"
        self.config = config      # Path of the generated config
        self.args = list(args)    # extra CLI flags


WORKLOAD_JOBS = {
    "oracle_compare": [
        ("compare_harmonic", "compare", "harmonic_m2000", ()),
        ("compare_soft", "compare", "soft_coulomb", ()),
        ("exact_harmonic", "exact", "harmonic_m2000", ()),
        ("project_harmonic", "project", "harmonic_m2000", ()),
    ],
    "mass_sweep": [("scaling", "scaling", "scaling_harmonic", ("--threads", "2"))],
    "adiabatic_fine": [("adiabatic", "adiabatic", "soft_coulomb_fine", ())],
}


def generate_config(name: str, rng: np.random.Generator, tiny: bool) -> dict:
    """A config for bolab: base parameters, jittered masses and potential,
    and a start-vector seed drawn from ``rng``."""
    cfg = copy.deepcopy(BASE_CONFIGS[name])
    cfg["schema_version"] = 1
    model = cfg["model"]
    for key in ("M", "m"):
        model[key] *= 1.0 + rng.uniform(-JITTER, JITTER)
    for key, value in model["potential"].items():
        if key != "family":
            model["potential"][key] = value * (1.0 + rng.uniform(-JITTER, JITTER))
    cfg["heavy"] = {"region": "auto", "t1_scale": "auto", "ratio_threshold": 10.0}
    cfg["seed"] = int(rng.integers(1, 2**31 - 1))
    if tiny:
        cfg["grid1"]["n"], cfg["grid2"]["n"] = TINY_GRIDS[name]
    return cfg


def build_workload(workload: str, seed: int, config_dir: Path, tiny: bool = False):
    """Write the workload's configs into ``config_dir``; return (jobs, configs)."""
    rng = np.random.default_rng(seed)
    specs = WORKLOAD_JOBS[workload]
    configs = {}
    for _, _, cfg_name, _ in specs:
        if cfg_name not in configs:
            configs[cfg_name] = generate_config(cfg_name, rng, tiny)
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for cfg_name, cfg in configs.items():
        paths[cfg_name] = config_dir / f"{cfg_name}.json"
        paths[cfg_name].write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    jobs = [Job(name, command, paths[cfg_name], args)
            for name, command, cfg_name, args in specs]
    return jobs, configs


# --------------------------------------------------------------------------
# correctness gate


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def _le(a: float, b: float, what: str) -> None:
    """a <= b up to round-off."""
    slack = ENERGY_SLACK * max(abs(a), abs(b), 1.0)
    _require(a <= b + slack, f"{what}: {a!r} > {b!r}")


def harmonic_tolerance(cfg: dict) -> float:
    """Grid discretization error of the coupled-harmonic ground energy.

    The 3-point stencil lowers each oscillator's ground energy by about
    h^2 * (stiffness) / 32; summed over both axes with the diagonal
    stiffnesses k1 + k2 and k2, doubled for margin. On harmonic_m2000 this
    allows 4.7e-4 against a measured gap of 2.3e-4.
    """
    pot = cfg["model"]["potential"]
    h1 = (cfg["grid1"]["x_max"] - cfg["grid1"]["x_min"]) / (cfg["grid1"]["n"] + 1)
    h2 = (cfg["grid2"]["x_max"] - cfg["grid2"]["x_min"]) / (cfg["grid2"]["n"] + 1)
    return 2.0 * (h1 * h1 * (pot["k1"] + pot["k2"]) + h2 * h2 * pot["k2"]) / 32.0


def _check_analytic(cfg: dict, exact_energy: float, ratio: float | None = None) -> None:
    if cfg["model"]["potential"]["family"] != "harmonic_coupling":
        return
    from bolab import analytic_normal_modes
    from bolab.model import ModelSpec, potential_from_dict

    m = cfg["model"]["m"]
    M = ratio * m if ratio is not None else cfg["model"]["M"]
    spec = ModelSpec(M=M, m=m, potential=potential_from_dict(cfg["model"]["potential"]))
    analytic = analytic_normal_modes(spec).ground_energy
    tol = harmonic_tolerance(cfg)
    _require(abs(exact_energy - analytic) <= tol,
             f"exact ground {exact_energy!r} differs from the normal-mode value "
             f"{analytic!r} by more than the discretization error {tol:.3g}")


def _check_row(row: dict, cfg: dict, ratio: float | None = None) -> None:
    _le(row["bo_energy"], row["exact_energy"], "E_BO <= E_exact")
    _le(row["exact_energy"], row["rayleigh_quotient"], "E_exact <= RQ")
    _require(row["min_uncertainty_product"] >= UNCERTAINTY_BOUND,
             f"uncertainty product {row['min_uncertainty_product']!r} below 1/2")
    _check_analytic(cfg, row["exact_energy"], ratio)


def _check_heff(lowest: list, exact_ground: float) -> None:
    for n, energy in enumerate(lowest):
        _le(exact_ground, energy, f"E_exact <= heff(N={n + 1})")
    for a, b in zip(lowest[1:], lowest):
        _le(a, b, "heff non-increasing in N")


def _read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path: Path) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def check_compare(out: Path, cfg: dict) -> None:
    report = _read_json(out / "report.json")
    row = report["rows"][0]
    _check_row(row, cfg)
    for u in report["uncertainty"]:
        _require(u["product"] >= UNCERTAINTY_BOUND, f"{u['label']} product below 1/2")
    _check_heff(report["heff"]["lowest"], row["exact_energy"])


def check_exact(out: Path, cfg: dict) -> None:
    data = _read_json(out / "exact_energies.json")
    energies, residuals = data["energies"], data["residuals"]
    _require(len(energies) == cfg["exact_k"], "wrong number of exact eigenpairs")
    for e, r in zip(energies, residuals):
        _require(r <= EXACT_RESIDUAL_RTOL * max(abs(e), 1e-6),
                 f"exact residual {r!r} exceeds 1e-9 |E| at E = {e!r}")
    for a, b in zip(energies, energies[1:]):
        _le(a, b, "exact energies ascending")
    _check_analytic(cfg, energies[0])


def check_project(out: Path, cfg: dict) -> None:
    data = _read_json(out / "heff_energies.json")
    energies = data["energies"]
    _require(data["N"] == cfg["projector_rank"], "wrong projector rank")
    _require(data["gap_to_exact"] >= -ENERGY_SLACK * abs(energies[0]),
             f"compressed ground below the exact ground ({data['gap_to_exact']!r})")
    for a, b in zip(energies, energies[1:]):
        _le(a, b, "compressed energies ascending")


def check_scaling(out: Path, cfg: dict) -> None:
    report = _read_json(out / "report.json")
    rows = report["rows"]
    _require(len(rows) == len(cfg["sweep"]), "one report row per mass ratio")
    _require(_csv_rows(out / "scaling.csv") == len(cfg["sweep"]), "one csv row per mass ratio")
    for row, ratio in zip(rows, cfg["sweep"]):
        _check_row(row, cfg, float(ratio))
    _check_heff(report["heff"]["lowest"], rows[-1]["exact_energy"])


def check_adiabatic(out: Path, cfg: dict) -> None:
    """No oracle here: E_BO <= heff(N=A) <= ... <= heff(N=1) <= RQ."""
    s = _read_json(out / "summary.json")
    chain = [s["bo_energy"]] + s["heff_lowest"][::-1] + [s["rayleigh_quotient"]]
    for a, b in zip(chain, chain[1:]):
        _le(a, b, "E_BO <= heff(N=A) <= ... <= heff(N=1) <= RQ")
    _require(len(s["heff_lowest"]) == cfg["n_surfaces"], "one heff value per rank")
    _require(s["min_uncertainty_product"] >= UNCERTAINTY_BOUND,
             f"uncertainty product {s['min_uncertainty_product']!r} below 1/2")
    _require(s["slice_states"] == cfg["n_surfaces"] * cfg["grid1"]["n"],
             "every slice state's uncertainty product checked")
    _require(_csv_rows(out / "pes.csv") == cfg["grid1"]["n"], "pes.csv row count")
    _require(_csv_rows(out / "theta.csv") == cfg["grid1"]["n"], "theta.csv row count")
    _require(all(math.isfinite(r) for r in s["residual_max"]), "finite residuals")


CHECKS = {"compare": check_compare, "exact": check_exact, "project": check_project,
          "scaling": check_scaling, "adiabatic": check_adiabatic}
