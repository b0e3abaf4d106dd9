"""The public package surface."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import bolab
from tests.conftest import CONFIG_DIR, REPO

SOLVER_INTERNALS = {"_lowest_eigenpairs", "_EPS", "_GATE_ULPS", "_SYMMETRY_ULPS"}


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


def test_only_grid_and_model_sample_the_potential():
    # the scan, the oracle and the config check read W through model.sample_potential
    sampling = {"even_potential", "evaluate_potential"}
    named = {}
    for path in sorted(Path(bolab.__file__).parent.glob("*.py")):
        if path.name in ("grid.py", "model.py", "__init__.py"):
            continue
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        if names & sampling:
            named[path.name] = sorted(names & sampling)
    assert named == {}


def test_only_grid_imports_from_scipy_linalg_lapack():
    # the slice solver and the slice certificate are grid's, and so are the LAPACK bindings
    # they call: no other module imports LAPACK, its Cython pointers or ctypes
    def imported(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                yield from (f"{node.module}.{alias.name}" for alias in node.names)
    importing = {}
    for path in sorted(Path(bolab.__file__).parent.glob("*.py")):
        names = [name for name in imported(ast.parse(path.read_text()))
                 if name.split(".")[0] == "ctypes"
                 or name.startswith(("scipy.linalg.lapack", "scipy.linalg.cython_lapack"))]
        if names:
            importing[path.name] = names
    assert importing == {"grid.py": ["ctypes", "scipy.linalg.cython_lapack"]}


def _fresh_python(*args):
    """A fresh interpreter with this tree's src/ first on its path."""
    src, path = str(REPO / "src"), os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_import_skips_numpys_unused_lazy_submodules():
    # the scipy imports happen in bolab's import, not later, and numpy is left as it was
    proc = _fresh_python("-c", """
import sys, numpy
all_, dir_ = numpy.__all__, numpy.__dir__
import bolab
assert numpy.__all__ is all_ and numpy.__dir__ is dir_
loaded = [m for m in ("numpy.f2py", "numpy.testing", "numpy.ma", "numpy.polynomial")
          if m in sys.modules]
assert loaded == [], loaded
assert "scipy.linalg" in sys.modules and "scipy.sparse.linalg" in sys.modules
""")
    assert proc.returncode == 0, proc.stderr


def test_import_after_scipy_linalg_runs_compare(tmp_path):
    proc = _fresh_python("-c", "import sys, scipy.linalg, bolab.cli; sys.exit(bolab.cli.main(sys.argv[1:]))",
                         "compare", "--config", str(CONFIG_DIR / "separable.json"), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.json").is_file()


def test_oracle_commands_import_none_of_numpys_unused_submodules(tmp_path):
    # scipy.sparse.diags imported numpy.ma at the first oracle solve (dia_array.__init__ ->
    # np.unique -> np.ma.is_masked); no code path builds a dia matrix now. scaling needs a
    # sweep, so it runs on a copy of the config with two mass ratios
    config = CONFIG_DIR / "separable.json"
    swept = tmp_path / "swept.json"
    swept.write_text(json.dumps({**json.loads(config.read_text()), "sweep": [10, 100]}))
    proc = _fresh_python("-c", """
import sys
from bolab.cli import main
config, swept, out = sys.argv[1:]
for command, path in [("exact", config), ("compare", config), ("scaling", swept)]:
    assert main([command, "--config", path, "--out", out]) == 0, command
loaded = [m for m in ("numpy.ma", "numpy.f2py", "numpy.testing", "numpy.polynomial")
          if m in sys.modules]
assert loaded == [], loaded
""", str(config), str(swept), str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr


def test_failed_scipy_import_restores_numpy():
    proc = _fresh_python("-c", """
import sys, numpy
all_, dir_ = numpy.__all__, numpy.__dir__
sys.modules["scipy.sparse.linalg"] = None
try:
    import bolab
except ImportError:
    pass
else:
    raise AssertionError("import bolab succeeded without scipy.sparse.linalg")
assert numpy.__all__ is all_ and numpy.__dir__ is dir_
""")
    assert proc.returncode == 0, proc.stderr


def test_import_raises_no_warning():
    proc = _fresh_python("-W", "error", "-c", "import bolab, bolab.cli")
    assert proc.returncode == 0, proc.stderr
