"""One adiabatic_fine job: the library route the demos take, with no exact oracle.

    python perfbench/adiabatic_job.py --config CFG --out DIR

Scans the surfaces, solves the heavy particle on every surface, builds the
product states and their matrix-free Rayleigh quotients, runs the
uncertainty suite over every slice state, the adiabatic residuals and the
heavy-kinetic coupling matrix, and the compressed Hamiltonian at every rank
N = 1..A. Writes pes.csv, theta.csv and summary.json through bolab.serialize.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

import bolab
from bolab import cli, diagnostics, serialize


def run(config_path, out_dir) -> None:
    cfg = cli.load_config(str(config_path))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec, g1, g2, A = cfg.model, cfg.grid1, cfg.grid2, cfg.n_surfaces
    levels = range(cfg.nuclear_levels)

    field = bolab.scan_pes(spec, g1, g2, A, threads=cfg.threads)
    nuclear = {a: bolab.solve_nuclear(field, spec, a, cfg.nuclear_levels) for a in range(A)}
    h = bolab.assemble_full_hamiltonian(spec, g1, g2)
    states = [bolab.assemble_product_state(nuclear[a], field, n) for a in range(A) for n in levels]
    rayleigh = [bolab.rayleigh_quotient(h, s.amplitudes) for s in states]

    slice_products = diagnostics.slice_uncertainty_products(field)
    reduced = [bolab.nuclear_uncertainty(s) for s in states]
    residuals = [bolab.adiabatic_residual(field, a) for a in range(A)]
    coupling = bolab.t1_coupling_matrix(field, nuclear, [(a, n) for a in range(A) for n in levels],
                                        spec.M)
    heff = [float(bolab.solve_effective(bolab.build_projector(field, N), h, k=1).energies[0])
            for N in range(1, A + 1)]

    serialize.write_csv(out / "pes.csv", ["x1"] + [f"lambda_{a}" for a in range(A)],
                        [[x] + list(field.energies[:, i]) for i, x in enumerate(g1.points)])
    serialize.write_csv(out / "theta.csv", ["x1"] + [f"theta_{n}" for n in levels],
                        [[x] + list(nuclear[0].wavefunctions[:, i]) for i, x in enumerate(g1.points)])
    serialize.write_json(out / "summary.json", {
        "bo_energy": float(nuclear[0].energies[0]),
        "rayleigh_quotient": rayleigh[0],
        "rayleigh_quotients": rayleigh,
        "heff_lowest": heff,
        "slice_states": int(slice_products.size),
        "min_uncertainty_product": min(float(slice_products.min()),
                                       min(u.product for u in reduced)),
        "residual_max": [r.max for r in residuals],
        "t1_offdiag_max": float(np.abs(coupling - np.diag(np.diag(coupling))).max()),
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    run(args.config, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
