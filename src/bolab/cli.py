"""Command-line pipeline driver.

    bolab <command> --config cfg.json [--out DIR] [--threads N] [--seed S]

Each command writes its artifacts from the stages of one ``diagnostics.Run``
that it reads; a Run computes each stage once, on first read:

    pes       pes.csv                   field
    bo        theta.csv, bo_energies.json  nuclear, product states, H, residuals
    exact     exact_energies.json       a one-surface field, H, oracle at k = exact_k
    project   heff_energies.json        field, H, oracle at k = 1, compression at rank N
    compare   report.json               every stage, oracle at k = 1; compression at ranks 1..N
    scaling   scaling.csv, report.json  a Run per mass ratio, all sharing one field

--threads (or BO_LAB_THREADS, or "threads" in the config) sets the threads of
every command's scan and the sweep workers of ``scaling``. A config key that no
level of the schema lists exits 2, and a "heavy" block may only restate the
fixed heavy-regime criterion (region and t1_scale "auto", ratio_threshold 10).

Exit codes, by when a failure happens: 0 success, 1 usage, 2 config error (every
input fault, found by ``load_config`` or ``main`` before any compute, or a file that
cannot be read or written), 3 numerical failure (anything later). Flags override BO_LAB_*
environment variables, which override config-file values; all three go
through the same conversion and checks (threads >= 1, seed >= 0). Identical
configs give byte-identical files for any --threads.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import diagnostics
from .clamped import HEAVY_RATIO_THRESHOLD
from .diagnostics import SCHEMA_VERSION, Run
from .exact import DEFAULT_SEED, MAX_PRODUCT_DIM, rayleigh_quotient
from .grid import Grid1D, build_grid
from .model import ModelSpec, potential_from_dict, reject_unknown, sample_potential
from .projection import build_projector, solve_effective
from .serialize import write_csv, write_json


# 1/(2 mass h^2) that the tridiagonal solver takes, from 1/this to this: its Sturm counts
# square that scale, and its pivots on a near-diagonal slice fall to the scale squared
KINETIC_SCALE_MAX = 1e60


class ConfigError(ValueError):
    pass


class RunConfig(SimpleNamespace):
    """A validated config: an attribute per top-level key of ``_CONFIG`` but the fixed
    ``schema_version`` and ``heavy``, with ``model`` a ModelSpec and the grids Grid1D."""


def _convert(kind, value, name: str):
    """kind(value); a value of the wrong type, out of range or non-finite, a boolean for a
    number, or a fractional number for an int, is a ConfigError naming the field."""
    noun = {int: "an integer", float: "a number"}.get(kind)
    if noun and (isinstance(value, bool) or (kind is int and isinstance(value, float)
                                             and not value.is_integer())):
        raise ConfigError(f"{name} must be {noun}, not {value!r}")
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    if isinstance(out, float) and not math.isfinite(out):
        raise ConfigError(f"{name} must be finite, not {out}")
    return out


def _sweep(value, name: str) -> list | None:
    if not isinstance(value, list | None):
        raise ConfigError("sweep must be a list of mass ratios")
    ratios = None if value is None else [_convert(float, r, name) for r in value]
    if ratios and any(b <= a for a, b in zip(ratios, ratios[1:])):
        raise ConfigError("sweep mass ratios must be strictly ascending")
    return ratios


# One table per config level. A key maps to a fixed value, which a config may only
# restate, or to (kind, default, least): kind is a nested table, a type for _convert
# or a function of (value, dotted name); a key without a default is required, and
# least bounds it below. Potential keys are checked against model._FAMILIES.
_GRID = {"x_min": (float,), "x_max": (float,), "n": (int,)}
_CONFIG = {
    "schema_version": SCHEMA_VERSION,
    "model": ({"M": (float,), "m": (float,), "potential": (potential_from_dict,)},),
    "grid1": (_GRID,), "grid2": (_GRID,),
    "heavy": ({"region": "auto", "t1_scale": "auto", "ratio_threshold": HEAVY_RATIO_THRESHOLD}, {}),
    "sweep": (_sweep, None), "output_dir": (Path, "out"),
    "n_surfaces": (int, 2, 1), "projector_rank": (int, 1, 1), "nuclear_levels": (int, 2, 1),
    "exact_k": (int, 1, 1), "seed": (int, DEFAULT_SEED, 0), "threads": (int, 1, 1),
}


def _section(data, table: dict, prefix: str = "") -> dict:
    """Check a config object, whose keys' dotted paths begin with ``prefix``, against
    ``table``; return its converted values, defaults filled in and fixed keys left out."""
    if not isinstance(data, dict):
        raise ConfigError(f"{prefix[:-1] or 'config'} must be a JSON object, not {type(data).__name__}")
    reject_unknown(data, table, prefix)
    out = {}
    for key, entry in table.items():
        name = prefix + key
        if not isinstance(entry, tuple):
            value = data.get(key, entry)
            value = _convert(float, value, name) if isinstance(entry, float) else value
            if value != entry:
                raise ConfigError(f"{name} is fixed at {json.dumps(entry)}, not {value!r}")
            continue
        kind, *rest = entry
        if key not in data and not rest:
            raise ConfigError(f"missing field '{key}' in {prefix[:-1] or 'config'}")
        value = data[key] if key in data else rest[0]
        if isinstance(kind, dict):
            value = _section(value, kind, name + ".")
        else:
            value = _convert(kind, value, name) if isinstance(kind, type) else kind(value, name)
        if len(rest) > 1 and value < rest[1]:
            raise ConfigError(f"{name} must be >= {rest[1]}, not {value}")
        out[key] = value
    return out


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """Read and validate a run configuration; a key no table lists is a ConfigError.

    ``overrides`` maps top-level keys (``output_dir``, ``threads``, ``seed``) to values
    from the environment or the command line; they replace the file's values before
    validation, so every source is checked the same way."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON (line {exc.lineno}): {exc.msg}") from exc

    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, not {type(data).__name__}")
    data = {**data, **(overrides or {})}
    version = data.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    try:
        fields = _section(data, _CONFIG)
        fields["model"] = ModelSpec(**fields["model"])
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # unknown fields, potential, masses
        raise ConfigError(str(exc)) from exc
    for name in ("grid1", "grid2"):
        try:
            fields[name] = build_grid(**fields[name])
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    del fields["heavy"]
    cfg = RunConfig(**fields)
    dim = cfg.grid1.n * cfg.grid2.n
    if dim > MAX_PRODUCT_DIM:
        raise ConfigError(f"product dimension {dim} exceeds the desk-scale guard {MAX_PRODUCT_DIM}")
    masses = [("model.M", cfg.model.M, cfg.grid1), ("model.m", cfg.model.m, cfg.grid2)]
    masses += [(f"sweep[{i}] * model.m", r * cfg.model.m, cfg.grid1)
               for i, r in enumerate(cfg.sweep or [])]
    for name, mass, grid in masses:
        den = 2.0 * mass * grid.h * grid.h  # 1 / kinetic scale
        if not 1.0 / KINETIC_SCALE_MAX <= den <= KINETIC_SCALE_MAX:
            raise ConfigError(f"{name} = {mass!r}: its kinetic scale 1/(2 mass h^2) is "
                              f"{1.0 / den if den else math.inf:.3g}, outside the solver's range "
                              f"[{1.0 / KINETIC_SCALE_MAX:g}, {KINETIC_SCALE_MAX:g}]")
    with np.errstate(all="ignore"):  # named here, not as a numpy warning
        finite = np.isfinite(sample_potential(cfg.model, cfg.grid1, cfg.grid2)).all()
    if not finite:
        raise ConfigError("model.potential: its sampled W is not finite on grid1 x grid2")
    if cfg.n_surfaces > cfg.grid2.n:
        raise ConfigError("n_surfaces cannot exceed grid2.n")
    if cfg.projector_rank > cfg.n_surfaces:
        raise ConfigError("projector_rank cannot exceed n_surfaces")
    if cfg.nuclear_levels > cfg.grid1.n:
        raise ConfigError("nuclear_levels cannot exceed grid1.n")
    if not 1 <= cfg.exact_k <= 20:
        raise ConfigError("exact_k must be between 1 and 20")
    return cfg


def _grid_dict(g: Grid1D) -> dict:
    return {"x_min": g.x_min, "x_max": g.x_max, "n": g.n, "h": g.h}


# --------------------------------------------------------------------------
# command implementations

def _run(cfg: RunConfig) -> Run:
    return Run(cfg.model, cfg.grid1, cfg.grid2, cfg.n_surfaces, cfg.nuclear_levels, cfg.seed,
               threads=cfg.threads)


def run_pes(cfg: RunConfig, out: Path) -> list:
    field = _run(cfg).field
    header = ["x1"] + [f"lambda_{a}" for a in range(cfg.n_surfaces)]
    rows = [[x, *field.energies[:, i]] for i, x in enumerate(cfg.grid1.points)]
    write_csv(out / "pes.csv", header, rows)
    return ["pes.csv"]


def run_bo(cfg: RunConfig, out: Path) -> list:
    run = _run(cfg)
    sol = run.nuclear[0]
    header = ["x1"] + [f"theta_{n}" for n in range(cfg.nuclear_levels)]
    rows = [[x, *sol.wavefunctions[:, i]] for i, x in enumerate(cfg.grid1.points)]
    write_csv(out / "theta.csv", header, rows)
    entries = [{"surface": 0, "level": n, "energy": float(sol.energies[n]),
                "rayleigh_quotient": rayleigh_quotient(run.hamiltonian, state.amplitudes),
                "residual_max": run.residuals[0].max}
               for n, state in enumerate(run.product_states)]
    write_json(out / "bo_energies.json", {"schema_version": SCHEMA_VERSION, "levels": entries})
    return ["theta.csv", "bo_energies.json"]


def run_exact(cfg: RunConfig, out: Path) -> list:
    sol = Run(cfg.model, cfg.grid1, cfg.grid2, 1, seed=cfg.seed, exact_k=cfg.exact_k,
              threads=cfg.threads).exact
    write_json(out / "exact_energies.json", {
        "schema_version": SCHEMA_VERSION, "k": cfg.exact_k,
        "energies": [float(e) for e in sol.energies], "residuals": [float(r) for r in sol.residuals],
        "grid1": _grid_dict(cfg.grid1), "grid2": _grid_dict(cfg.grid2)})
    return ["exact_energies.json"]


def run_project(cfg: RunConfig, out: Path) -> list:
    run = _run(cfg)
    p = build_projector(run.field, cfg.projector_rank)
    eff = solve_effective(p, run.hamiltonian, min(cfg.exact_k, p.subspace_dim - 1))
    write_json(out / "heff_energies.json", {
        "schema_version": SCHEMA_VERSION, "N": cfg.projector_rank,
        "energies": [float(e) for e in eff.energies],
        "gap_to_exact": float(eff.energies[0] - run.exact.energies[0])})
    return ["heff_energies.json"]


def run_compare(cfg: RunConfig, out: Path) -> list:
    report = diagnostics.compare_report(
        cfg.model, cfg.grid1, cfg.grid2, cfg.n_surfaces, cfg.projector_rank,
        nuclear_levels=cfg.nuclear_levels, seed=cfg.seed, threads=cfg.threads)
    write_json(out / "report.json", report.to_dict())
    return ["report.json"]


def run_scaling(cfg: RunConfig, out: Path) -> list:
    report = diagnostics.kappa_scaling_study(
        cfg.model, cfg.sweep, cfg.grid1, cfg.grid2, cfg.n_surfaces,
        N=cfg.projector_rank, nuclear_levels=cfg.nuclear_levels, threads=cfg.threads,
        seed=cfg.seed)
    header = ["ratio", "kappa", "bo_energy", "exact_energy", "relative_error",
              "heavy_ratio", "min_uncertainty_product"]
    rows = [[r.mass_ratio, r.kappa, r.bo_energy, r.exact_energy, r.relative_error,
             r.heavy.ratio, r.min_uncertainty_product] for r in report.rows]
    write_csv(out / "scaling.csv", header, rows)
    write_json(out / "report.json", report.to_dict())
    return ["scaling.csv", "report.json"]


COMMANDS = {"pes": run_pes, "bo": run_bo, "exact": run_exact,
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
    parser.add_argument("--threads", default=None,
                        help="threads of the scan, and sweep workers of 'scaling'")
    parser.add_argument("--seed", default=None,
                        help="exact oracle's start-vector seed (the compressed solve's is fixed)")
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit:
        return 2

    sources = {"output_dir": ("BO_LAB_OUT", args.out), "threads": ("BO_LAB_THREADS", args.threads),
               "seed": ("BO_LAB_SEED", args.seed)}
    overrides = {key: os.environ[var] for key, (var, _) in sources.items() if var in os.environ}
    overrides.update({key: flag for key, (_, flag) in sources.items() if flag is not None})
    try:
        cfg = load_config(args.config, overrides)
        if command == "scaling" and not cfg.sweep:
            raise ConfigError("scaling requires a non-empty 'sweep' list of mass ratios")
        if command in ("compare", "scaling") and cfg.n_surfaces < 2:
            raise ConfigError(f"n_surfaces must be at least 2 for the gap report, not {cfg.n_surfaces}")
        out = cfg.output_dir
        out.mkdir(parents=True, exist_ok=True)
        files = COMMANDS[command](cfg, out)
    except (ConfigError, OSError) as exc:  # the config, or a file the run cannot read or write
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:  # anything a valid config meets
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    for name in files:
        print(out / name)
    return 0


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
