"""bolab: a numerical laboratory for adiabatic separation in 1+1 dimensional
model molecules, verified against an exact two-body diagonalization oracle."""

import numpy as _np

# scipy's array-API shim clones numpy on import: ``from numpy import *``, then a getattr of
# every name in dir(numpy). numpy 2 lists its lazy submodules in both, so importing
# scipy.linalg also imports numpy.f2py, numpy.testing (with unittest, email and logging),
# numpy.ma and others that neither bolab nor the scipy routines it calls use: about 150 ms
# and 10 MB per process. Leave them out of numpy's __all__ and __dir__ for that one import;
# the shim's numpy namespace then lacks them. Both objects are restored as they were.
_UNUSED = {"f2py", "testing", "ma", "polynomial", "ctypeslib", "rec", "char", "strings", "test"}
_saved = {k: v for k, v in vars(_np).items() if k in ("__all__", "__dir__")}
try:
    if "__all__" in _saved:
        _np.__all__ = [n for n in _saved["__all__"] if n not in _UNUSED]
    if "__dir__" in _saved:
        _np.__dir__ = lambda: [n for n in _saved["__dir__"]() if n not in _UNUSED]
    import scipy.linalg
    import scipy.sparse.linalg
finally:
    vars(_np).update(_saved)
del _UNUSED, _saved

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
