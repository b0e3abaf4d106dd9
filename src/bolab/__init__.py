"""bolab: a numerical laboratory for adiabatic separation in 1+1 dimensional
model molecules, verified against an exact two-body diagonalization oracle."""

from .grid import Grid1D, GridFunction, build_grid
from .model import (HarmonicCoupling, ModelSpec, SeparableHarmonic, SoftCoulomb,
                    analytic_normal_modes, evaluate_potential, kappa)
from .clamped import ElectronicField, HeavyReport, heavy_gap_report, scan_pes
from .bo import (NuclearSolution, ProductState, adiabatic_residual,
                 assemble_product_state, solve_nuclear, t1_coupling_matrix)
from .exact import FullHamiltonian, SolverError, assemble_full_hamiltonian, rayleigh_quotient, solve_exact
from .projection import Projector, build_projector, solve_effective
from .diagnostics import (ComparisonReport, UncertaintyResult, compare_report,
                          kappa_scaling_study, nuclear_uncertainty, uncertainty_product)

__version__ = "0.1.0"

__all__ = [
    "Grid1D", "GridFunction", "build_grid",
    "ModelSpec", "HarmonicCoupling", "SoftCoulomb", "SeparableHarmonic",
    "evaluate_potential", "kappa", "analytic_normal_modes",
    "ElectronicField", "HeavyReport", "scan_pes", "heavy_gap_report",
    "NuclearSolution", "ProductState", "solve_nuclear", "assemble_product_state",
    "adiabatic_residual", "t1_coupling_matrix",
    "FullHamiltonian", "SolverError", "assemble_full_hamiltonian", "solve_exact", "rayleigh_quotient",
    "Projector", "build_projector", "solve_effective",
    "UncertaintyResult", "ComparisonReport", "uncertainty_product", "nuclear_uncertainty",
    "compare_report", "kappa_scaling_study",
    "__version__",
]
