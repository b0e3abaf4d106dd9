"""The public package surface."""

import ast
from pathlib import Path

import bolab

SOLVER_INTERNALS = {"_lowest_eigenpairs", "_EPS", "_GATE_ULPS"}


def test_every_exported_name_resolves():
    missing = [name for name in bolab.__all__ if not hasattr(bolab, name)]
    assert missing == []
    assert len(set(bolab.__all__)) == len(bolab.__all__)


def test_only_grid_reaches_the_tridiagonal_solver_internals():
    # every other module solves through grid.slice_eigenpairs and reads the solver's
    # bound through grid.ritz_error_bound
    named = {}
    for path in sorted(Path(bolab.__file__).parent.glob("*.py")):
        if path.name == "grid.py":
            continue
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        if names & SOLVER_INTERNALS:
            named[path.name] = sorted(names & SOLVER_INTERNALS)
    assert named == {}
