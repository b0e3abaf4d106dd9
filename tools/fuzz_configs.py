"""Run every CLI command on random small configs: each config that loads either runs or is refused,
its scan and nuclear levels are the indexed eigenvalues, its scanned states their vectors, and
its oracle levels H's lowest, between the BO bound and the BO state's Rayleigh quotient.

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
writes one JSON line to stdout for it, with ``index`` (the config's 0-based
position in the seed's draw, so "seed S, config i" names it), ``config``,
``command``, ``exit`` (null where ``main`` raised) and ``stderr``, the last line
that the command wrote to stderr (the exception where it raised).

Each config that loads also has its answers checked through the library: every
level of every slice of ``scan_pes`` (``n_surfaces`` levels), and every level of
``solve_nuclear`` (``nuclear_levels`` levels) on every scanned surface, against
``scipy.linalg.eigvalsh_tridiagonal`` of the same tridiagonal (the slice rows
of ``model.sample_potential``, or the heavy kinetic operator plus the scanned
surface), within ``grid.ritz_error_bound`` of that tridiagonal. A solve that
raises is left to the commands' exit codes. Each miss is one JSON line with
``index``, ``config``, ``check`` (``scan`` or ``nuclear``), ``row`` (the slice, or the
surface), ``level``, ``value``, ``reference`` and ``bound``.

Every scanned state is checked too: the residual ``||(T_i - lambda_a(i)) psi||`` of
the unit vector psi of state a at slice i, T_i the slice's tridiagonal, must be
within c s, s its ``ritz_error_bound`` and c = sqrt(A) + 2 (A - 1) + 1, A =
``n_surfaces``. The solver's gate leaves each Ritz pair (theta_b, y_b) of T_i with
residual at most s. ``clamped.phase_fix`` keeps a level that ties no neighbour up
to sign, and replaces the vectors of a tied group of g <= A levels, adjacent gaps
at most 2 s so |theta_b - theta_a| <= 2 (g - 1) s, by psi_a = sum_b Q_ab y_b with Q
orthogonal, keeping theta_a. Then (T_i - theta_a) psi_a = sum_b Q_ab (T_i - theta_b)
y_b + sum_b Q_ab (theta_b - theta_a) y_b: the first term is at most sqrt(g) s, by
Cauchy-Schwarz on a unit row of Q, and the second at most 2 (g - 1) s, the y_b
being orthonormal. The last s is for rounding: the gate's residual and this one
are each computed in floating point, within about 4 eps (|T_i| + |theta_a|) <= s/2
of the exact one, |T_i| being the norm bound that s is 16 eps of. A miss is one
JSON line with ``check`` ``state``, ``row`` (the slice), ``level``, ``residual``
and ``bound`` (c s). A level that is a ``scan`` miss is not checked again: its
residual against a wrong level says nothing new.

The oracle is checked on the same field, through ``diagnostics.Run``'s ``exact``
stage (``exact_k`` levels shifted from the scan's lambda_0, as every command
solves it). Both of its rows allow ``||r_j|| + 64 eps ||H||_G``, ``||r_j||`` the
residual the oracle reports for level j, a bound on its distance to some
eigenvalue of H, and ``||H||_G`` the Gershgorin bound, the largest absolute row
sum of H's five diagonals. The ``oracle`` row holds each level E_j to level j of
dense ``numpy.linalg.eigvalsh`` of H, on product grids of at most 1,600 points
(every drawn config's; a bundled config may be larger); a miss is one line per
level with ``level``, ``value``, ``reference`` and ``bound``. The ``chain`` row
holds E_BO - delta <= E_0 <= RQ, E_BO and delta from ``exact._bo_lower_bound`` at the
scan's lambda_0 and RQ the Rayleigh quotient of the BO product state of surface 0;
a miss is one line with ``lower`` (E_BO - delta), ``value`` (E_0), ``upper`` (RQ) and
``bound``. An oracle that raises is left to the commands' exit codes. Exits 1 if
it wrote any line, else 0.
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
from bolab.diagnostics import Run  # noqa: E402
from bolab.exact import _bo_lower_bound, rayleigh_quotient  # noqa: E402
from bolab.grid import kinetic_diagonals, ritz_error_bound  # noqa: E402
from bolab.model import _FAMILIES, sample_potential  # noqa: E402

DENSE_MAX = 1600  # the largest product grid draw_config makes, 40 x 40


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


def _state_misses(field, d: np.ndarray, e: np.ndarray, skip: set) -> list:
    """One dict per state a of slice i of ``field``, (i, a) not in ``skip``, whose unit vector
    psi has a residual ``||(T_i - lambda_a(i)) psi||`` over c ``ritz_error_bound`` of T_i =
    (``d[i]``, ``e``), c = sqrt(A) + 2 (A - 1) + 1 (see the module docstring)."""
    A = field.n_surfaces
    psi = np.sqrt(field.grid2.h) * field.states
    tpsi = psi * d
    tpsi[..., :-1] += e * psi[..., 1:]
    tpsi[..., 1:] += e * psi[..., :-1]
    residual = np.linalg.norm(tpsi - field.energies[..., None] * psi, axis=2)
    bound = (np.sqrt(A) + 2.0 * (A - 1) + 1.0) * ritz_error_bound(d, e)
    return [{"check": "state", "row": int(i), "level": int(a), "residual": float(residual[a, i]),
             "bound": float(bound[i])}
            for a, i in zip(*np.nonzero(residual > bound)) if (i, a) not in skip]


def _oracle_misses(cfg, field) -> list:
    """The ``oracle`` and ``chain`` rows (see the module docstring) of the oracle solved on
    ``field``, as dicts; none if a solve raises."""
    run = Run(cfg.model, cfg.grid1, cfg.grid2, cfg.n_surfaces, nuclear_levels=1, seed=cfg.seed,
              exact_k=cfg.exact_k, field=field)
    try:
        sol, h = run.exact, run.hamiltonian
        e_bo, delta = _bo_lower_bound(h, field.energies[0])
        rq = rayleigh_quotient(h, run.product_states[0].amplitudes)
    except (ValueError, ArithmeticError, RuntimeError):
        return []
    a = h.sector(0)
    bound = sol.residuals + 64.0 * np.finfo(float).eps * float(abs(a).sum(axis=1).max())
    out = []
    if h.dim <= DENSE_MAX:
        ref = np.linalg.eigvalsh(a.toarray())[:len(sol.energies)]
        out = [{"check": "oracle", "level": int(j), "value": float(sol.energies[j]),
                "reference": float(ref[j]), "bound": float(bound[j])}
               for j in np.flatnonzero(np.abs(sol.energies - ref) > bound)]
    e0, lower = float(sol.energies[0]), e_bo - delta
    if not lower - bound[0] <= e0 <= rq + bound[0]:
        out.append({"check": "chain", "lower": lower, "value": e0, "upper": rq,
                    "bound": float(bound[0])})
    return out


def answer_misses(config: dict) -> list:
    """The scan levels, scanned states and nuclear levels of ``config`` off their references,
    as ``_misses`` and ``_state_misses`` dicts, then ``_oracle_misses``; none if the config is
    refused at load or the scan or a nuclear solve raises."""
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
    levels = _misses("scan", field.energies, d2 + w, e2)
    states = _state_misses(field, d2 + w, e2, {(m["row"], m["level"]) for m in levels})
    return (levels + states + _misses("nuclear", nuclear.T, d1 + field.energies, e1)
            + _oracle_misses(cfg, field))


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
    for index in range(args.count):
        config = draw_config(rng)
        for command in cli.COMMANDS:
            code, last = run_command(command, config)
            if code not in (0, 2):
                failed = True
                print(json.dumps({"index": index, "config": config, "command": command,
                                  "exit": code, "stderr": last}), flush=True)
        for miss in answer_misses(config):
            failed = True
            print(json.dumps({"index": index, "config": config, **miss}), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
