"""Command-line pipeline driver.

    bolab <command> --config cfg.json [--out DIR] [--threads N] [--seed S]

Commands and their artifacts:

    pes       pes.csv              scanned surfaces, one row per nuclear point
    bo        theta.csv, bo_energies.json
    exact     exact_energies.json  oracle eigenvalues and residuals
    project   heff_energies.json   compressed-spectrum energies and drift
    compare   report.json          consolidated single-model report
    scaling   scaling.csv, report.json

--threads (or BO_LAB_THREADS, or "threads" in the config) sets the number of
sweep workers of ``scaling``; other commands ignore it.

Exit codes: 0 success, 1 unknown command / usage, 2 config error,
3 solver failure. Flags override BO_LAB_* environment variables, which
override config-file values. Identical configs produce byte-identical
files for any --threads value.
"""

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import diagnostics
from .bo import adiabatic_residual, assemble_product_state, solve_nuclear
from .clamped import scan_pes
from .exact import DEFAULT_SEED, SolverError, assemble_full_hamiltonian, rayleigh_quotient, solve_exact
from .grid import Grid1D, build_grid
from .model import ModelSpec, potential_from_dict
from .projection import build_projector, solve_effective
from .serialize import write_csv, write_json

COMMANDS = ("pes", "bo", "exact", "project", "compare", "scaling")
SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    model: ModelSpec
    grid1: Grid1D
    grid2: Grid1D
    n_surfaces: int
    projector_rank: int
    nuclear_levels: int
    exact_k: int
    heavy_region: object        # (alpha, beta) or "auto"
    heavy_t1_scale: object      # float or "auto"
    heavy_threshold: float
    sweep: list | None
    output_dir: Path
    seed: int
    threads: int


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise ConfigError(f"missing field '{key}' in {context}")
    return data[key]


def load_config(path: str) -> RunConfig:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON (line {exc.lineno}): {exc.msg}") from exc

    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")

    try:
        model_data = _require(data, "model", "config")
        spec = ModelSpec(M=float(_require(model_data, "M", "model")),
                         m=float(_require(model_data, "m", "model")),
                         potential=potential_from_dict(_require(model_data, "potential", "model")))
        g1 = _grid_from(_require(data, "grid1", "config"), "grid1")
        g2 = _grid_from(_require(data, "grid2", "config"), "grid2")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    heavy = data.get("heavy", {})
    region = heavy.get("region", "auto")
    if region != "auto":
        if (not isinstance(region, (list, tuple))) or len(region) != 2:
            raise ConfigError("heavy.region must be \"auto\" or a [alpha, beta] pair")
        region = (float(region[0]), float(region[1]))
    t1 = heavy.get("t1_scale", "auto")
    if t1 != "auto":
        t1 = float(t1)
        if t1 <= 0:
            raise ConfigError("heavy.t1_scale must be positive")

    sweep = data.get("sweep")
    if sweep is not None:
        sweep = [float(r) for r in sweep]
        if sweep != sorted(sweep):
            raise ConfigError("sweep mass ratios must be ascending")

    def positive_int(key, default):
        value = int(data.get(key, default))
        if value < 1:
            raise ConfigError(f"{key} must be a positive count")
        return value

    cfg = RunConfig(
        model=spec, grid1=g1, grid2=g2,
        n_surfaces=positive_int("n_surfaces", 2),
        projector_rank=positive_int("projector_rank", 1),
        nuclear_levels=positive_int("nuclear_levels", 2),
        exact_k=positive_int("exact_k", 1),
        heavy_region=region, heavy_t1_scale=t1,
        heavy_threshold=float(heavy.get("ratio_threshold", 10.0)),
        sweep=sweep,
        output_dir=Path(data.get("output_dir", "out")),
        seed=int(data.get("seed", DEFAULT_SEED)),
        threads=positive_int("threads", 1),
    )
    if cfg.n_surfaces > g2.n:
        raise ConfigError("n_surfaces cannot exceed grid2.n")
    if cfg.projector_rank > cfg.n_surfaces:
        raise ConfigError("projector_rank cannot exceed n_surfaces")
    if cfg.nuclear_levels > g1.n:
        raise ConfigError("nuclear_levels cannot exceed grid1.n")
    if not 1 <= cfg.exact_k <= 20:
        raise ConfigError("exact_k must be between 1 and 20")
    return cfg


def _grid_from(data: dict, name: str) -> Grid1D:
    try:
        return build_grid(float(_require(data, "x_min", name)),
                          float(_require(data, "x_max", name)),
                          int(_require(data, "n", name)))
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _grid_dict(g: Grid1D) -> dict:
    return {"x_min": g.x_min, "x_max": g.x_max, "n": g.n, "h": g.h}


def _heavy_inputs(cfg: RunConfig):
    region = None if cfg.heavy_region == "auto" else cfg.heavy_region
    t1 = None if cfg.heavy_t1_scale == "auto" else cfg.heavy_t1_scale
    return region, t1


# --------------------------------------------------------------------------
# command implementations

def run_pes(cfg: RunConfig, out: Path) -> list:
    field = scan_pes(cfg.model, cfg.grid1, cfg.grid2, cfg.n_surfaces)
    header = ["x1"] + [f"lambda_{a}" for a in range(cfg.n_surfaces)]
    rows = [[x] + [field.energies[a, i] for a in range(cfg.n_surfaces)]
            for i, x in enumerate(cfg.grid1.points)]
    write_csv(out / "pes.csv", header, rows)
    return ["pes.csv"]


def run_bo(cfg: RunConfig, out: Path) -> list:
    field = scan_pes(cfg.model, cfg.grid1, cfg.grid2, cfg.n_surfaces)
    sol = solve_nuclear(field, cfg.model, 0, cfg.nuclear_levels)
    h = assemble_full_hamiltonian(cfg.model, cfg.grid1, cfg.grid2)
    residual = adiabatic_residual(field, 0)
    header = ["x1"] + [f"theta_{n}" for n in range(cfg.nuclear_levels)]
    rows = [[x] + [sol.wavefunctions[n, i] for n in range(cfg.nuclear_levels)]
            for i, x in enumerate(cfg.grid1.points)]
    write_csv(out / "theta.csv", header, rows)
    entries = []
    for n in range(cfg.nuclear_levels):
        state = assemble_product_state(sol, field, n)
        entries.append({
            "surface": 0,
            "level": n,
            "energy": float(sol.energies[n]),
            "rayleigh_quotient": rayleigh_quotient(h, state.amplitudes),
            "residual_max": residual.max,
        })
    write_json(out / "bo_energies.json", {"schema_version": SCHEMA_VERSION, "levels": entries})
    return ["theta.csv", "bo_energies.json"]


def run_exact(cfg: RunConfig, out: Path) -> list:
    h = assemble_full_hamiltonian(cfg.model, cfg.grid1, cfg.grid2)
    sol = solve_exact(h, cfg.exact_k, seed=cfg.seed)
    write_json(out / "exact_energies.json", {
        "schema_version": SCHEMA_VERSION,
        "k": cfg.exact_k,
        "energies": [float(e) for e in sol.energies],
        "residuals": [float(r) for r in sol.residuals],
        "grid1": _grid_dict(cfg.grid1),
        "grid2": _grid_dict(cfg.grid2),
    })
    return ["exact_energies.json"]


def run_project(cfg: RunConfig, out: Path) -> list:
    field = scan_pes(cfg.model, cfg.grid1, cfg.grid2, cfg.n_surfaces)
    h = assemble_full_hamiltonian(cfg.model, cfg.grid1, cfg.grid2)
    exact = solve_exact(h, 1, seed=cfg.seed)
    k = min(cfg.exact_k, cfg.projector_rank * cfg.grid1.n)
    eff = solve_effective(build_projector(field, cfg.projector_rank), h, k)
    write_json(out / "heff_energies.json", {
        "schema_version": SCHEMA_VERSION,
        "N": cfg.projector_rank,
        "energies": [float(e) for e in eff.energies],
        "gap_to_exact": float(eff.energies[0] - exact.energies[0]),
    })
    return ["heff_energies.json"]


def run_compare(cfg: RunConfig, out: Path) -> list:
    region, t1 = _heavy_inputs(cfg)
    report = diagnostics.compare_report(
        cfg.model, cfg.grid1, cfg.grid2, cfg.n_surfaces, cfg.projector_rank,
        nuclear_levels=cfg.nuclear_levels, region=region, t1_scale=t1,
        threshold=cfg.heavy_threshold, seed=cfg.seed, exact_k=cfg.exact_k)
    write_json(out / "report.json", report.to_dict())
    return ["report.json"]


def run_scaling(cfg: RunConfig, out: Path) -> list:
    if not cfg.sweep:
        raise ConfigError("scaling requires a non-empty 'sweep' list of mass ratios")
    report = diagnostics.kappa_scaling_study(
        cfg.model, cfg.sweep, cfg.grid1, cfg.grid2, cfg.n_surfaces,
        N=cfg.projector_rank, nuclear_levels=cfg.nuclear_levels,
        threshold=cfg.heavy_threshold, threads=cfg.threads, seed=cfg.seed)
    header = ["ratio", "kappa", "bo_energy", "exact_energy", "relative_error",
              "heavy_ratio", "min_uncertainty_product"]
    rows = [[r.mass_ratio, r.kappa, r.bo_energy, r.exact_energy, r.relative_error,
             r.heavy.ratio, r.min_uncertainty_product] for r in report.rows]
    write_csv(out / "scaling.csv", header, rows)
    write_json(out / "report.json", report.to_dict())
    return ["scaling.csv", "report.json"]


_RUNNERS = {"pes": run_pes, "bo": run_bo, "exact": run_exact,
            "project": run_project, "compare": run_compare, "scaling": run_scaling}

USAGE = f"usage: bolab {{{','.join(COMMANDS)}}} --config CFG [--out DIR] [--threads N] [--seed S]"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE)
        print(__doc__)
        return 0 if argv else 1
    command = argv[0]
    if command not in COMMANDS:
        print(USAGE, file=sys.stderr)
        print(f"unknown command: {command!r}", file=sys.stderr)
        return 1

    parser = argparse.ArgumentParser(prog=f"bolab {command}", add_help=True)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--threads", type=int, default=None,
                        help="sweep workers of 'scaling'; other commands ignore it")
    parser.add_argument("--seed", type=int, default=None, help="eigensolver start-vector seed")
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit:
        return 2

    try:
        cfg = load_config(args.config)
        env = os.environ
        if "BO_LAB_OUT" in env:
            cfg.output_dir = Path(env["BO_LAB_OUT"])
        if "BO_LAB_THREADS" in env:
            cfg.threads = int(env["BO_LAB_THREADS"])
        if "BO_LAB_SEED" in env:
            cfg.seed = int(env["BO_LAB_SEED"])
        if args.out is not None:
            cfg.output_dir = Path(args.out)
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError("--threads must be >= 1")
            cfg.threads = args.threads
        if args.seed is not None:
            cfg.seed = args.seed
        out = cfg.output_dir
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        files = _RUNNERS[command](cfg, out)
    except ValueError as exc:
        # ConfigError and precondition violations from bad field combinations
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    for name in files:
        print(out / name)
    return 0


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
