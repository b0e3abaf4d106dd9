"""Shared fixtures: the expensive pipeline runs are computed once per session."""

import json
from pathlib import Path

import pytest

from bolab import (HarmonicCoupling, ModelSpec, SeparableHarmonic, SoftCoulomb,
                   assemble_full_hamiltonian, build_grid, grid, scan_pes, solve_exact, solve_nuclear)
from bolab.cli import load_config
from bolab.diagnostics import kappa_scaling_study, run_pipeline

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"

# A fuzzed config whose light slices are diagonal to working precision (coupling about
# 1e-25): their lowest levels lie about 4e-6 apart, inside the slice solver's 6e-5 wide
# first-pass brackets, and once came back as higher levels.
SPLIT_SLICES = {
    "schema_version": 1,
    "model": {"M": 5.5155e16, "m": 3.4254e15,
              "potential": {"family": "soft_coulomb", "z": 0.0027062, "s": 0.76656, "k1": 220.12}},
    "grid1": {"x_min": -24.5305, "x_max": 24.5305, "n": 38},
    "grid2": {"x_min": -5.65691, "x_max": 5.65691, "n": 20},
    "n_surfaces": 4, "projector_rank": 4, "nuclear_levels": 4, "exact_k": 3,
    "sweep": [10.75, 84153.4],
}

# A fuzzed config whose light levels lie about 2e-20 apart, over 2e5 times the slice solver's
# gate bound: a tie rule scaled by max(|lambda|, 1) once took every slice's resolved levels
# for ties and rotated them into each other, and the BO state's relative error read 5.7e-5.
CLOSE_LEVELS = {
    "schema_version": 1,
    "model": {"M": 2.222771968706994e+24, "m": 1.3722460818999865e+20,
              "potential": {"family": "soft_coulomb", "z": 0.0076870473461172345,
                            "s": 222.49532289033576, "k1": 0.005233917470220791}},
    "grid1": {"x_min": -2.0269898711413785, "x_max": 2.0269898711413785, "n": 16},
    "grid2": {"x_min": -8.942527704929677, "x_max": 8.942527704929677, "n": 31},
    "n_surfaces": 4, "projector_rank": 4, "nuclear_levels": 3, "exact_k": 3,
    "sweep": [4.565568868652451, 31.698305517703417],
}


def _as_config_file(tmp_path, name, config):
    """``config`` as a file and as ``load_config`` reads it: (path, config)."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    return path, load_config(path)


@pytest.fixture
def split_slices(tmp_path):
    """SPLIT_SLICES as a config file and as ``load_config`` reads it: (path, config)."""
    return _as_config_file(tmp_path, "split_slices", SPLIT_SLICES)


@pytest.fixture
def close_levels(tmp_path):
    """CLOSE_LEVELS as a config file and as ``load_config`` reads it: (path, config)."""
    return _as_config_file(tmp_path, "close_levels", CLOSE_LEVELS)


@pytest.fixture
def solved_rows(monkeypatch):
    """The number of slices each ``grid._lowest_eigenpairs`` call solves, in call order."""
    rows, solve = [], grid._lowest_eigenpairs

    def spy(d, *args, **kwargs):
        rows.append(len(d))
        return solve(d, *args, **kwargs)
    monkeypatch.setattr(grid, "_lowest_eigenpairs", spy)
    return rows


@pytest.fixture(scope="session")
def harmonic2000_setup():
    spec = ModelSpec(M=2000.0, m=1.0, potential=HarmonicCoupling(1.0, 1.0))
    g1 = build_grid(-0.65, 0.65, 128)
    g2 = build_grid(-5.5, 5.5, 128)
    return spec, g1, g2


@pytest.fixture(scope="session")
def harmonic2000(harmonic2000_setup):
    spec, g1, g2 = harmonic2000_setup
    return run_pipeline(spec, g1, g2, A=3, nuclear_levels=3, exact_k=3)


@pytest.fixture(scope="session")
def separable_setup():
    spec = ModelSpec(M=10.0, m=1.0, potential=SeparableHarmonic(1.0, 1.0))
    g1 = build_grid(-3.5, 3.5, 96)
    g2 = build_grid(-4.5, 4.5, 96)
    return spec, g1, g2


@pytest.fixture(scope="session")
def separable_run(separable_setup):
    spec, g1, g2 = separable_setup
    return run_pipeline(spec, g1, g2, A=2, nuclear_levels=2, exact_k=2)


@pytest.fixture(scope="session")
def sweep_report():
    spec = ModelSpec(M=10.0, m=1.0, potential=HarmonicCoupling(1.0, 1.0))
    g1 = build_grid(-2.4, 2.4, 192)
    g2 = build_grid(-8.5, 8.5, 96)
    return kappa_scaling_study(spec, [10.0, 100.0, 1000.0, 2000.0], g1, g2,
                               A=2, nuclear_levels=2)


@pytest.fixture(scope="session")
def soft_coulomb_setup():
    spec = ModelSpec(M=100.0, m=1.0, potential=SoftCoulomb(z=1.0, s=1.0, k1=1.0))
    return spec


@pytest.fixture(scope="session")
def soft_coulomb_oracle(soft_coulomb_setup):
    # the bundled soft_coulomb config grids: shift-invert path, k = 2
    spec = soft_coulomb_setup
    g1 = build_grid(-1.6, 1.6, 96)
    g2 = build_grid(-10.0, 10.0, 192)
    h = assemble_full_hamiltonian(spec, g1, g2)
    bo_energy = solve_nuclear(scan_pes(spec, g1, g2, 1), spec, 0, 1).energies[0]
    return h, bo_energy, solve_exact(h, 2).energies
