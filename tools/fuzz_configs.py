"""Run every CLI command on random small configs: each config that loads either runs or is refused,
and its scan and nuclear levels are the indexed eigenvalues.

    python tools/fuzz_configs.py --seed S --count N

Draws N configs from seed S and runs ``pes``, ``bo``, ``exact``, ``project``,
``compare`` and ``scaling`` on each, in this process, through ``bolab.cli.main``
of the tree the script sits in (its ``src/``), each command with a fresh output
directory. A config draws:

- the potential family uniformly, and each of its parameters log-uniform in
  10^[-3, 3], six decades;
- ``m`` log-uniform in 10^[-30, 30] and ``M/m`` in 10^[0, 5];
- each grid centred on 0 with a half-width log-uniform in 10^[-1, 1.5], and
  ``n1``, ``n2`` uniform in [4, 40], so some fall below the grid minimum;
- ``n_surfaces`` uniform in [1, 4], ``projector_rank`` in [1, n_surfaces],
  ``nuclear_levels`` and ``exact_k`` in [1, 4], and a two-row ``sweep`` of
  ascending mass ratios log-uniform in 10^[0, 5].

Exit 0 (ran) and exit 2 (refused) are the contract. Any other exit code, 3 for
a numerical failure, or an exception out of ``main`` is a failure: the script
writes one JSON line to stdout for it, with ``config``, ``command``, ``exit``
(null where ``main`` raised) and ``stderr``, the last line that the command
wrote to stderr (the exception where it raised).

Each config that loads also has its answers checked through the library: every
level of every slice of ``scan_pes`` (``n_surfaces`` levels), and every level of
``solve_nuclear`` (``nuclear_levels`` levels) on every scanned surface, against
``scipy.linalg.eigvalsh_tridiagonal`` of the same tridiagonal (the slice rows
of ``model.sample_potential``, or the heavy kinetic operator plus the scanned
surface), within ``grid.ritz_error_bound`` of that tridiagonal. A solve that
raises is left to the commands' exit codes. Each miss is one JSON line with
``config``, ``check`` (``scan`` or ``nuclear``), ``row`` (the slice, or the
surface), ``level``, ``value``, ``reference`` and ``bound``. Exits 1 if it
wrote any line, else 0.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
from scipy.linalg import eigvalsh_tridiagonal  # noqa: E402

from bolab import cli  # noqa: E402
from bolab.bo import solve_nuclear  # noqa: E402
from bolab.clamped import scan_pes  # noqa: E402
from bolab.grid import kinetic_diagonals, ritz_error_bound  # noqa: E402
from bolab.model import _FAMILIES, sample_potential  # noqa: E402


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(lo, hi))


def draw_config(rng) -> dict:
    """One random config, as the JSON object ``cli.load_config`` reads."""
    family = str(rng.choice(sorted(_FAMILIES)))
    m = _log_uniform(rng, -30, 30)
    grids = {}
    for name in ("grid1", "grid2"):
        half = _log_uniform(rng, -1, 1.5)
        grids[name] = {"x_min": -half, "x_max": half, "n": int(rng.integers(4, 41))}
    surfaces = int(rng.integers(1, 5))
    return {
        "schema_version": cli.SCHEMA_VERSION,
        "model": {"M": m * _log_uniform(rng, 0, 5), "m": m,
                  "potential": {"family": family,
                                **{p: _log_uniform(rng, -3, 3) for p in _FAMILIES[family][1]}}},
        **grids,
        "n_surfaces": surfaces, "projector_rank": int(rng.integers(1, surfaces + 1)),
        "nuclear_levels": int(rng.integers(1, 5)), "exact_k": int(rng.integers(1, 5)),
        "sweep": sorted(_log_uniform(rng, 0, 5) for _ in range(2)),
    }


def run_command(command: str, config: dict) -> tuple:
    """(exit code or None if ``main`` raised, last stderr line) of one command on ``config``."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "config.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("always")
            try:
                code = cli.main([command, "--config", str(path), "--out", str(Path(work) / "out")])
            except Exception as exc:  # a traceback is a finding, not the end of the sweep
                code = None
                err.write(f"{type(exc).__name__}: {exc}\n")
    lines = err.getvalue().splitlines()
    return code, lines[-1] if lines else ""


def _misses(check: str, values: np.ndarray, d: np.ndarray, e: np.ndarray) -> list:
    """One dict per level a, row i of ``values`` (A, r) off level a of the tridiagonal
    (``d[i]``, ``e``) by more than its ``ritz_error_bound``."""
    bound = ritz_error_bound(d, e)
    ref = np.array([eigvalsh_tridiagonal(row, e)[:len(values)] for row in d]).T
    return [{"check": check, "row": int(i), "level": int(a), "value": float(values[a, i]),
             "reference": float(ref[a, i]), "bound": float(bound[i])}
            for a, i in zip(*np.nonzero(np.abs(values - ref) > bound))]


def answer_misses(config: dict) -> list:
    """The scan and nuclear levels of ``config`` off their references, as ``_misses`` dicts;
    none if the config is refused at load or a solve raises."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "config.json"
        path.write_text(json.dumps(config))
        try:
            cfg = cli.load_config(path)
        except cli.ConfigError:
            return []
    try:
        field = scan_pes(cfg.model, cfg.grid1, cfg.grid2, cfg.n_surfaces)
        nuclear = np.array([solve_nuclear(field, cfg.model, a, cfg.nuclear_levels).energies
                            for a in range(cfg.n_surfaces)])
    except (ValueError, ArithmeticError, RuntimeError):
        return []
    d2, e2 = kinetic_diagonals(cfg.grid2, cfg.model.m)
    d1, e1 = kinetic_diagonals(cfg.grid1, cfg.model.M)
    w = sample_potential(cfg.model, cfg.grid1, cfg.grid2)
    return (_misses("scan", field.energies, d2 + w, e2)
            + _misses("nuclear", nuclear.T, d1 + field.energies, e1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.count < 0:
        parser.error("--seed and --count must be non-negative")
    rng = np.random.default_rng(args.seed)
    failed = False
    for _ in range(args.count):
        config = draw_config(rng)
        for command in cli.COMMANDS:
            code, last = run_command(command, config)
            if code not in (0, 2):
                failed = True
                print(json.dumps({"config": config, "command": command, "exit": code,
                                  "stderr": last}), flush=True)
        for miss in answer_misses(config):
            failed = True
            print(json.dumps({"config": config, **miss}), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
