"""CLI contract: commands, artifacts, exit codes, overrides."""

import json
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest

from bolab.cli import COMMANDS, ConfigError, load_config, main
from tests.conftest import CONFIG_DIR, REPO


def _run(command, config, out, extra=()):
    return main([command, "--config", str(config), "--out", str(out), *extra])


def test_pes_artifact(tmp_path):
    assert _run("pes", CONFIG_DIR / "harmonic_m2000.json", tmp_path) == 0
    lines = (tmp_path / "pes.csv").read_text().splitlines()
    assert lines[0] == "x1,lambda_0,lambda_1,lambda_2"
    assert len(lines) == 1 + 128
    first = lines[1].split(",")
    assert len(first) == 4
    assert all(np.isfinite(float(cell)) for cell in first)


def test_bo_artifacts(tmp_path):
    assert _run("bo", CONFIG_DIR / "harmonic_m2000.json", tmp_path) == 0
    lines = (tmp_path / "theta.csv").read_text().splitlines()
    assert lines[0] == "x1,theta_0,theta_1,theta_2"
    assert len(lines) == 1 + 128
    data = json.loads((tmp_path / "bo_energies.json").read_text())
    assert len(data["levels"]) == 3
    for entry in data["levels"]:
        assert set(entry) == {"surface", "level", "energy", "rayleigh_quotient", "residual_max"}
    energies = [e["energy"] for e in data["levels"]]
    assert energies == sorted(energies)


def test_exact_artifact(tmp_path):
    assert _run("exact", CONFIG_DIR / "harmonic_equal_mass.json", tmp_path) == 0
    data = json.loads((tmp_path / "exact_energies.json").read_text())
    assert data["k"] == 4
    assert len(data["energies"]) == 4 and len(data["residuals"]) == 4
    assert data["energies"] == sorted(data["energies"])
    assert data["grid1"]["n"] == 96 and "h" in data["grid1"]
    assert data["energies"][0] == pytest.approx(np.sqrt(5.0) / 2.0, rel=1e-3)


def test_project_artifact(tmp_path):
    assert _run("project", CONFIG_DIR / "harmonic_m2000.json", tmp_path) == 0
    data = json.loads((tmp_path / "heff_energies.json").read_text())
    assert data["N"] == 3
    assert len(data["energies"]) == 3
    assert abs(data["gap_to_exact"]) < 1e-9


def test_compare_separable(tmp_path):
    assert _run("compare", CONFIG_DIR / "separable.json", tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["rows"][0]["relative_error"] <= 1e-8
    assert all(u["bound_ok"] for u in report["uncertainty"])


def test_unwritable_artifact_exits_2(tmp_path, capsys):
    (tmp_path / "pes.csv").mkdir()
    assert _run("pes", CONFIG_DIR / "harmonic_m2000.json", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "pes.csv" in err and "Traceback" not in err


@pytest.fixture
def counted_calls(monkeypatch):
    """Names of the pipeline stages each command runs, one entry per call."""
    from bolab import diagnostics, exact, projection

    calls = []

    def count(module, name, label=None):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(label(kwargs) if label else name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    count(diagnostics, "scan_pes")
    count(diagnostics, "assemble_full_hamiltonian")
    count(diagnostics, "solve_exact",
          lambda kwargs: "solve_exact(lam0)" if kwargs.get("lam0") is not None else "solve_exact")
    count(exact, "splu")
    count(projection, "cholesky_banded")
    return calls


@pytest.mark.parametrize("command, config, expected", [
    ("pes", "harmonic_m2000", {"scan_pes": 1}),
    ("bo", "harmonic_m2000", {"scan_pes": 1, "assemble_full_hamiltonian": 1}),
    ("exact", "harmonic_m2000", {"scan_pes": 1, "assemble_full_hamiltonian": 1,
                                 "solve_exact(lam0)": 1, "splu": 2}),
    ("project", "harmonic_m2000", {"scan_pes": 1, "assemble_full_hamiltonian": 1,
                                   "solve_exact(lam0)": 1, "splu": 1, "cholesky_banded": 1}),
    ("compare", "harmonic_m2000", {"scan_pes": 1, "assemble_full_hamiltonian": 1,
                                   "solve_exact(lam0)": 1, "splu": 1, "cholesky_banded": 3}),
    ("scaling", "scaling_harmonic", {"scan_pes": 1, "assemble_full_hamiltonian": 4,
                                     "solve_exact(lam0)": 4, "splu": 4, "cholesky_banded": 1}),
])
def test_stage_calls_per_command(tmp_path, counted_calls, command, config, expected):
    # compare solves the compressed spectrum once per rank (N = 3); scaling scans once
    # and solves each of its 4 rows with the scan's lambda_0, compressing only the last;
    # exact (k = 3) factors both parity sectors, the k = 1 oracles only the even one
    assert _run(command, CONFIG_DIR / f"{config}.json", tmp_path) == 0
    assert Counter(counted_calls) == expected


def test_run_computes_each_stage_once(counted_calls):
    from bolab.diagnostics import Run

    cfg = load_config(str(CONFIG_DIR / "separable.json"))
    run = Run(cfg.model, cfg.grid1, cfg.grid2, cfg.n_surfaces)
    energies = run.exact.energies
    assert run.row.exact_energy == energies[0]
    assert run.heff([1])["ranks"] == [1]
    assert Counter(counted_calls) == {"scan_pes": 1, "assemble_full_hamiltonian": 1,
                                      "solve_exact(lam0)": 1, "splu": 1, "cholesky_banded": 1}


def test_compare_solves_the_oracle_at_k_1(tmp_path, monkeypatch):
    # report.json reads only the ground energy, so exact_k (3 here) must not reach the oracle
    from bolab import diagnostics

    ks = []
    real = diagnostics.solve_exact

    def spy(h, k, **kwargs):
        ks.append(k)
        return real(h, k, **kwargs)
    monkeypatch.setattr(diagnostics, "solve_exact", spy)
    cfg = json.loads((CONFIG_DIR / "harmonic_m2000.json").read_text())
    assert cfg["exact_k"] == 3
    (tmp_path / "k1.json").write_text(json.dumps({**cfg, "exact_k": 1}))
    for name, config in [("k3", CONFIG_DIR / "harmonic_m2000.json"), ("k1", tmp_path / "k1.json")]:
        assert _run("compare", config, tmp_path / name) == 0
    assert ks == [1, 1]
    k3, k1 = ((tmp_path / name / "report.json").read_bytes() for name in ("k3", "k1"))
    assert k3 == k1


def test_compare_with_a_zero_oracle_ground_energy_exits_3(tmp_path, capsys, monkeypatch):
    # the relative error |RQ - E_exact| / |E_exact| is undefined: a named solver failure,
    # not a division warning and a non-finite value at serialization
    from bolab import diagnostics

    real = diagnostics.solve_exact
    monkeypatch.setattr(diagnostics, "solve_exact",
                        lambda h, k, **kwargs: replace(real(h, k, **kwargs), energies=np.zeros(k)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run("compare", CONFIG_DIR / "separable.json", tmp_path) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: oracle ground energy E_exact = 0.0")
    assert "RuntimeWarning" not in err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("heavy", [{}, {"region": "auto", "t1_scale": "auto", "ratio_threshold": 10.0},
                                   {"ratio_threshold": 10}], ids=["absent", "restated", "integer"])
def test_heavy_block_restating_the_criterion_loads(tmp_path, heavy):
    cfg = json.loads((CONFIG_DIR / "separable.json").read_text())
    cfg["heavy"] = heavy
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    load_config(str(path))


@pytest.mark.parametrize("key, value", [("region", [0, 1]), ("t1_scale", 0.5), ("ratio_threshold", 5)])
def test_heavy_value_other_than_the_criterion_exits_2(tmp_path, capsys, key, value):
    # the criterion is fixed; ignoring a value the user set would change their report
    cfg = json.loads((CONFIG_DIR / "separable.json").read_text())
    cfg["heavy"][key] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert _run("compare", path, tmp_path) == 2
    assert capsys.readouterr().err.startswith(f"config error: heavy.{key} is fixed at")
    assert not (tmp_path / "report.json").exists()


TYPOS = {  # dotted path of the misspelled key -> the known key it is close to, if any
    "nuclear_level": "nuclear_levels", "projector_rnak": "projector_rank", "Seed": "seed",
    "sweeps": "sweep", "output-dir": "output_dir", "heavy.ratio_treshold": "heavy.ratio_threshold",
    "grid1.npoints": None, "model.mass": None, "model.potential.k3": None,
}


@pytest.mark.parametrize("typo", [*TYPOS, "leftover k2"])
def test_unknown_field_exits_2_naming_it(tmp_path, capsys, typo):
    cfg = json.loads((CONFIG_DIR / "separable.json").read_text())
    if typo == "leftover k2":  # a soft_coulomb potential keeping separable_harmonic's k2
        cfg["model"]["potential"] = {"family": "soft_coulomb", "z": 1.0, "s": 1.0, "k1": 1.0, "k2": 1.0}
        typo = "model.potential.k2"
    else:
        *parents, key = typo.split(".")
        target = cfg
        for name in parents:
            target = target[name]
        target[key] = 5
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert _run("pes", path, tmp_path / "out") == 2
    err = capsys.readouterr().err
    near = TYPOS.get(typo)
    assert err.startswith(f"config error: unknown field '{typo}'")
    assert (f"(did you mean '{near}'?)" in err) if near else "did you mean" not in err
    assert not (tmp_path / "out").exists()


def test_non_string_potential_family_is_named(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "separable.json").read_text())
    cfg["model"]["potential"]["family"] = ["separable_harmonic"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert _run("pes", path, tmp_path) == 2
    assert "config error: unknown potential family ['separable_harmonic']" in capsys.readouterr().err


def test_readme_config_example_loads(tmp_path):
    readme = (REPO / "README.md").read_text()
    path = tmp_path / "readme.json"
    path.write_text(re.search(r"### Config schema.*?```json\n(.*?)```", readme, re.S).group(1))
    cfg = load_config(str(path))
    assert (cfg.n_surfaces, cfg.sweep, cfg.seed) == (3, [10.0, 100.0, 1000.0, 2000.0], 20240817)


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate", "--config", "x"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and "unknown command" in err


def test_missing_config_flag_exits_2():
    assert main(["pes"]) == 2


def test_unreadable_config_exits_2(tmp_path):
    assert _run("pes", tmp_path / "nope.json", tmp_path) == 2


def test_invalid_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run("pes", bad, tmp_path) == 2


def test_wrong_schema_version_exits_2(tmp_path):
    cfg = json.loads((CONFIG_DIR / "separable.json").read_text())
    cfg["schema_version"] = 99
    bad = tmp_path / "v.json"
    bad.write_text(json.dumps(cfg))
    assert _run("pes", bad, tmp_path) == 2


def test_field_diagnostics_in_config_errors(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "separable.json").read_text())
    del cfg["model"]["potential"]["k2"]
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps(cfg))
    assert _run("pes", bad, tmp_path) == 2
    assert "k2" in capsys.readouterr().err


def test_scaling_without_sweep_exits_2(tmp_path):
    assert _run("scaling", CONFIG_DIR / "separable.json", tmp_path) == 2


@pytest.mark.parametrize("command", ["compare", "scaling"])
def test_single_surface_compare_exits_2(tmp_path, command):
    # the gap report needs two surfaces; a one-surface run is a config error
    cfg = json.loads((CONFIG_DIR / "separable.json").read_text())
    cfg["n_surfaces"] = 1
    cfg["projector_rank"] = 1
    cfg["sweep"] = [10.0, 100.0]
    path = tmp_path / "one.json"
    path.write_text(json.dumps(cfg))
    assert _run(command, path, tmp_path) == 2


def _single_surface_config(tmp_path):
    cfg = json.loads((CONFIG_DIR / "separable.json").read_text())
    cfg.update(n_surfaces=1, projector_rank=1, sweep=[10.0, 100.0])
    path = tmp_path / "one.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("command", ["compare", "scaling"])
def test_single_surface_gap_report_fails_before_any_compute(tmp_path, capsys, counted_calls, command):
    assert _run(command, _single_surface_config(tmp_path), tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("config error: n_surfaces must be at least 2")
    assert counted_calls == []


@pytest.mark.parametrize("command", ["pes", "bo", "exact", "project"])
def test_single_surface_other_commands_run(tmp_path, command):
    assert _run(command, _single_surface_config(tmp_path), tmp_path / "out") == 0


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_bo_level_0_is_the_compare_row(tmp_path, config):
    # bo and compare read the same Run stages, so their shared numbers agree bit for bit
    assert _run("bo", CONFIG_DIR / config, tmp_path) == 0
    assert _run("compare", CONFIG_DIR / config, tmp_path) == 0
    level = json.loads((tmp_path / "bo_energies.json").read_text())["levels"][0]
    row = json.loads((tmp_path / "report.json").read_text())["rows"][0]
    assert (level["energy"], level["rayleigh_quotient"], level["residual_max"]) == (
        row["bo_energy"], row["rayleigh_quotient"], row["residual_max"])


@pytest.mark.parametrize("edit", [
    lambda cfg: [cfg],
    lambda cfg: {**cfg, "heavy": []},
    lambda cfg: {**cfg, "seed": None},
    lambda cfg: {**cfg, "heavy": {"t1_scale": None}},
    lambda cfg: {**cfg, "sweep": 5},
    lambda cfg: {**cfg, "exact_k": 1e400},
    lambda cfg: {**cfg, "model": {**cfg["model"], "M": float("inf")}},
    lambda cfg: {**cfg, "model": {**cfg["model"], "m": float("nan")}},
    lambda cfg: {**cfg, "model": {**cfg["model"],
                                  "potential": {**cfg["model"]["potential"], "k2": float("nan")}}},
    lambda cfg: {**cfg, "model": {**cfg["model"],
                                  "potential": {**cfg["model"]["potential"], "k1": float("inf")}}},
    lambda cfg: {**cfg, "heavy": {"region": [float("nan"), 1.0]}},
    lambda cfg: {**cfg, "heavy": {"t1_scale": float("nan")}},
    lambda cfg: {**cfg, "heavy": {"ratio_threshold": -float("inf")}},
    lambda cfg: {**cfg, "sweep": [10.0, float("nan")]},
    lambda cfg: {**cfg, "sweep": [10.0, 10.0]},
    lambda cfg: {**cfg, "grid1": {**cfg["grid1"], "n": 16.7}},
    lambda cfg: {**cfg, "seed": 1.5},
    lambda cfg: {**cfg, "n_surfaces": True},
], ids=["top_level_list", "heavy_list", "seed_null", "t1_scale_null", "sweep_number",
        "exact_k_overflow", "M_inf", "m_nan", "potential_k2_nan", "potential_k1_inf",
        "region_nan", "t1_scale_nan", "ratio_threshold_minus_inf", "sweep_nan",
        "sweep_duplicate", "grid1_n_fractional", "seed_fractional", "n_surfaces_bool"])
def test_malformed_config_exits_2(tmp_path, capsys, edit):
    cfg = json.loads((CONFIG_DIR / "separable.json").read_text())
    path = tmp_path / "bad.json"
    # json writes float("inf") as Infinity; spell the overflow case as a numeric literal
    path.write_text(json.dumps(edit(cfg)).replace("Infinity", "1e400"))
    assert _run("pes", path, tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err


@pytest.mark.parametrize("key, bad", [("threads", 0), ("seed", -1)])
@pytest.mark.parametrize("source", ["config", "env", "flag"])
def test_threads_and_seed_checked_from_every_source(tmp_path, capsys, monkeypatch, source, key, bad):
    cfg = json.loads((CONFIG_DIR / "separable.json").read_text())
    extra = ()
    if source == "config":
        cfg[key] = bad
    elif source == "env":
        monkeypatch.setenv(f"BO_LAB_{key.upper()}", str(bad))
    else:
        extra = (f"--{key}", str(bad))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert _run("pes", path, tmp_path, extra) == 2
    err = capsys.readouterr().err
    assert f"config error: {key} must be" in err


@pytest.mark.parametrize("key", ["threads", "seed"])
def test_flag_and_env_values_convert_the_same_way(tmp_path, capsys, monkeypatch, key):
    errors = []
    monkeypatch.setenv(f"BO_LAB_{key.upper()}", "5.0")
    assert _run("pes", CONFIG_DIR / "separable.json", tmp_path) == 2
    errors.append(capsys.readouterr().err)
    monkeypatch.delenv(f"BO_LAB_{key.upper()}")
    assert _run("pes", CONFIG_DIR / "separable.json", tmp_path, (f"--{key}", "5.0")) == 2
    errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"config error: {key}: invalid literal for int() with base 10: '5.0'\n"


def test_overrides_replace_config_values(tmp_path):
    cfg = load_config(str(CONFIG_DIR / "separable.json"),
                      {"threads": "3", "seed": 5, "output_dir": str(tmp_path)})
    assert (cfg.threads, cfg.seed, cfg.output_dir) == (3, 5, tmp_path)


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_no_arguments_exits_1():
    assert main([]) == 1


def test_env_override_out(tmp_path, monkeypatch):
    monkeypatch.setenv("BO_LAB_OUT", str(tmp_path / "env_dir"))
    assert main(["pes", "--config", str(CONFIG_DIR / "harmonic_m2000.json")]) == 0
    assert (tmp_path / "env_dir" / "pes.csv").exists()


def test_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("BO_LAB_OUT", str(tmp_path / "env_dir"))
    assert _run("pes", CONFIG_DIR / "harmonic_m2000.json", tmp_path / "flag_dir") == 0
    assert (tmp_path / "flag_dir" / "pes.csv").exists()
    assert not (tmp_path / "env_dir").exists()


def test_solver_failure_exits_3(tmp_path, monkeypatch):
    from bolab import diagnostics
    from bolab.exact import SolverError

    def explode(*args, **kwargs):
        raise SolverError("synthetic non-convergence")

    monkeypatch.setattr(diagnostics, "solve_exact", explode)
    assert _run("exact", CONFIG_DIR / "separable.json", tmp_path) == 3


def test_factorization_failure_exits_3(tmp_path, monkeypatch, capsys):
    from bolab import exact

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(exact, "splu", singular)
    assert _run("exact", CONFIG_DIR / "separable.json", tmp_path) == 3
    assert "exactly singular" in capsys.readouterr().err


def test_compressed_factorization_failure_exits_3(tmp_path, monkeypatch, capsys):
    from scipy.linalg import LinAlgError

    from bolab import projection

    def not_positive_definite(*args, **kwargs):
        raise LinAlgError("1-th leading minor not positive definite")

    monkeypatch.setattr(projection, "cholesky_banded", not_positive_definite)
    assert _run("project", CONFIG_DIR / "separable.json", tmp_path) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure:") and "not positive definite" in err


def test_slice_kernel_linalg_error_exits_3(tmp_path, monkeypatch, capsys):
    # numpy's LinAlgError is a ValueError; raised after load, it is still numerical
    from bolab import grid

    def not_converged(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(grid, "_solve_chunk", not_converged)
    assert _run("pes", CONFIG_DIR / "separable.json", tmp_path) == 3
    assert capsys.readouterr().err == "solver failure: Eigenvalues did not converge\n"


def test_sweep_row_value_error_exits_3(tmp_path, monkeypatch, capsys):
    # a row's failure is a RuntimeError naming its ratio, whatever the row raised
    from bolab import diagnostics

    def no_gap(*args, **kwargs):
        raise ValueError("t1_scale must be positive")

    monkeypatch.setattr(diagnostics, "heavy_gap_report", no_gap)
    assert _run("scaling", CONFIG_DIR / "scaling_harmonic.json", tmp_path) == 3
    assert capsys.readouterr().err.startswith("solver failure: pipeline failed at mass ratio 10.0: "
                                              "t1_scale must be positive")


def test_non_finite_result_exits_3(tmp_path, monkeypatch, capsys):
    from bolab import diagnostics

    real = diagnostics.solve_exact

    def nan_energy(*args, **kwargs):
        sol = real(*args, **kwargs)
        sol.energies[0] = np.nan
        return sol

    monkeypatch.setattr(diagnostics, "solve_exact", nan_energy)
    assert _run("exact", CONFIG_DIR / "separable.json", tmp_path) == 3
    assert "solver failure: cannot serialize non-finite value nan" in capsys.readouterr().err


@pytest.mark.parametrize("config, params", [
    ("separable.json", {"k2": 1e308}), ("separable.json", {"k1": 1e308}),
    ("soft_coulomb.json", {"z": 1e308, "s": 1e-300}),
], ids=["separable_k2", "separable_k1", "soft_coulomb"])
@pytest.mark.parametrize("command", ["pes", "exact", "compare"])
def test_overflowing_potential_exits_2_at_load(tmp_path, capsys, counted_calls, command, config,
                                               params):
    # finite config values, but W overflows to inf on the grid: refused before any compute,
    # and named without a numpy warning
    cfg = json.loads((CONFIG_DIR / config).read_text())
    cfg["model"]["potential"].update(params)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert _run(command, path, tmp_path / "out") == 2
    assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err == ("config error: model.potential: its sampled W is not "
                                       "finite on grid1 x grid2\n")
    assert counted_calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid, bounds, message", [
    ("grid1", (0.0, 1e-300), "grid1: grid spacing h = "),
    ("grid2", (0.0, 1e-300), "grid2: grid spacing h = "),
    ("grid1", (-1e308, 1e308), "grid1: grid length x_max - x_min = inf is not finite"),
], ids=["grid1_spacing", "grid2_spacing", "grid1_length"])
@pytest.mark.parametrize("command", ["pes", "exact", "compare"])
def test_degenerate_grid_exits_2(tmp_path, capsys, command, grid, bounds, message):
    # finite bounds whose spacing squares to zero, or whose length overflows
    cfg = json.loads((CONFIG_DIR / "separable.json").read_text())
    cfg[grid]["x_min"], cfg[grid]["x_max"] = bounds
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert _run(command, path, tmp_path / "out") == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_desk_scale_guard_is_checked_at_config_load(tmp_path, capsys):
    # the scan alone would fit, but no command runs past the product-grid guard
    cfg = json.loads((CONFIG_DIR / "separable.json").read_text())
    cfg["grid1"]["n"] = cfg["grid2"]["n"] = 400
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert _run("pes", path, tmp_path / "out") == 2
    assert ("config error: product dimension 160000 exceeds the desk-scale guard 120000"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "pes.csv").exists()


@pytest.mark.parametrize("grid", ["grid1", "grid2"])
def test_grid_size_beyond_float_range_exits_2_naming_the_grid(tmp_path, capsys, counted_calls,
                                                               grid):
    # n = 10**400 is a valid JSON integer whose spacing (x_max - x_min) / (n + 1) overflows
    cfg = json.loads((CONFIG_DIR / "separable.json").read_text())
    cfg[grid]["n"] = 10**400
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert _run("compare", path, tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith(f"config error: {grid}: ")
    assert counted_calls == []


def _with_masses(tmp_path, config, **masses):
    cfg = json.loads((CONFIG_DIR / config).read_text())
    cfg["model"].update(masses)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("mass", [1e-300, 1e300])
def test_extreme_mass_exits_2_naming_it(tmp_path, capsys, mass):
    # the slice solver's bisection overflows at 1e-300, and its iterates at 1e300
    path = _with_masses(tmp_path, "separable.json", M=mass, m=mass)
    assert _run("pes", path, tmp_path / "out") == 2
    assert f"config error: model.M = {mass!r}: its kinetic scale" in capsys.readouterr().err
    path = _with_masses(tmp_path, "separable.json", m=mass)
    assert _run("pes", path, tmp_path / "out") == 2
    assert f"config error: model.m = {mass!r}: its kinetic scale" in capsys.readouterr().err


def test_mass_sweep_ends_in_a_result_or_a_config_error(tmp_path):
    # every power of ten is either rejected at load or scanned, with no warning leaking
    codes = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-300, 301):
            path = _with_masses(tmp_path, "separable.json", M=10.0 ** k, m=10.0 ** k)
            codes[_run("pes", path, tmp_path / "out")] += 1
    assert set(codes) == {0, 2} and codes[0] > 100


def test_exact_across_the_accepted_masses_never_exits_3(tmp_path):
    # ARPACK's convergence test turns absolute where 1/(E - sigma) is tiny; the oracle
    # solves a scaled operator, so a light or heavy pair the guard accepts converges
    codes = Counter(_run("exact", _with_masses(tmp_path, "separable.json", M=10.0 ** k, m=10.0 ** k),
                         tmp_path / "out") for k in range(-56, 61, 4))
    assert 3 not in codes and codes[0] > 0


@pytest.mark.parametrize("mass", [1e28, 1e40, 1e52, 1e60])
def test_compare_at_vanishing_level_spacing_exits_0(tmp_path, mass):
    # the heavy level spacing is 0.0 here, inside the Ritz error bound, so the
    # kinetic expectation is the kinetic scale
    path = _with_masses(tmp_path, "separable.json", M=mass, m=mass)
    assert _run("compare", path, tmp_path / "out") == 0
    row = json.loads((tmp_path / "out" / "report.json").read_text())["rows"][0]
    assert row["t1_candidates"]["level_spacing"] == 0.0
    assert row["heavy"]["t1_scale"] == row["t1_candidates"]["kinetic_expectation"] > 0.0


def test_scaling_with_exactly_degenerate_nuclear_levels_exits_0(tmp_path):
    # at M = m = 1e20 the first row's two lowest nuclear levels are equal to the last bit
    path = _with_masses(tmp_path, "scaling_harmonic.json", M=1e20, m=1e20)
    assert _run("scaling", path, tmp_path / "out") == 0


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_runs_on_split_slices(tmp_path, split_slices, command):
    # the slice solver once returned higher levels there, and the oracle's lambda_0
    # certificate refused them
    assert _run(command, split_slices[0], tmp_path / "out") == 0


# Fuzzed configs whose spectrum lies far below 1, where the oracle's shift once sat
# 1e-6 max(1, |E_BO|) below E_BO. Soft-Coulomb at s = 771: the six lowest levels lie within
# 1.2e-6 relative of each other, and ARPACK did not converge (tools/fuzz_configs.py seed 4,
# config 108). Harmonic coupling at m = 2.2e26: E_0 = 2.7e-11 came back 0.0 (seed 3, 114).
CLUSTER_FAR_BELOW_ONE = {
    "schema_version": 1,
    "model": {"M": 2.7083497633657486e23, "m": 2.9149814644520197e20,
              "potential": {"family": "soft_coulomb", "z": 0.015510251709040272,
                            "s": 770.9603453016068, "k1": 0.0010307386331159995}},
    "grid1": {"x_min": -0.11958153450039719, "x_max": 0.11958153450039719, "n": 14},
    "grid2": {"x_min": -13.063300208615184, "x_max": 13.063300208615184, "n": 30},
    "n_surfaces": 3, "projector_rank": 2, "nuclear_levels": 2, "exact_k": 4,
    "sweep": [11676.08540276968, 33463.82849294086],
}
HARMONIC_FAR_BELOW_ONE = {
    "schema_version": 1,
    "model": {"M": 4.318107228375731e29, "m": 2.201411267737661e26,
              "potential": {"family": "harmonic_coupling", "k1": 0.34780958039211546,
                            "k2": 578.8135799243449}},
    "grid1": {"x_min": -10.771828379218618, "x_max": 10.771828379218618, "n": 35},
    "grid2": {"x_min": -1.139596854824772, "x_max": 1.139596854824772, "n": 25},
    "n_surfaces": 2, "projector_rank": 2, "nuclear_levels": 2, "exact_k": 4,
    "sweep": [20.10290220456695, 75136.36656353158],
}


@pytest.mark.parametrize("config, command", [(CLUSTER_FAR_BELOW_ONE, "project"),
                                             (CLUSTER_FAR_BELOW_ONE, "compare"),
                                             (CLUSTER_FAR_BELOW_ONE, "scaling"),
                                             (HARMONIC_FAR_BELOW_ONE, "compare")],
                         ids=["cluster-project", "cluster-compare", "cluster-scaling",
                              "harmonic-compare"])
def test_oracle_commands_exit_0_on_a_spectrum_far_below_one(tmp_path, config, command):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert _run(command, path, tmp_path / "out") == 0


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_bundled_configs_load_across_the_benchmark_masses(tmp_path, config):
    for M in (1.0, 2000.0):
        load_config(_with_masses(tmp_path, config, M=M, m=1.0))


def test_sweep_mass_outside_the_solver_range_exits_2(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "scaling_harmonic.json").read_text())
    cfg["sweep"] = [10.0, 1e300]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert _run("scaling", path, tmp_path / "out") == 2
    assert "config error: sweep[1] * model.m = 1e+300: its kinetic scale" in capsys.readouterr().err


def _run_with_blas_threads(command, config, out, threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    env.pop("BO_LAB_OUT", None)
    done = subprocess.run([sys.executable, "-m", "bolab.cli", command, "--config", str(config),
                           "--out", str(out)], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("command", ["compare", "project", "exact", "bo"])
def test_bytes_independent_of_blas_threads(tmp_path, command):
    outputs = {}
    for threads in (1, 2):
        out = tmp_path / f"blas{threads}"
        _run_with_blas_threads(command, CONFIG_DIR / "harmonic_m2000.json", out, threads)
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outputs[1] and outputs[1] == outputs[2]


@pytest.mark.parametrize("command", ["pes", "compare", "exact"])
def test_bytes_independent_of_scan_threads(tmp_path, command):
    # soft_coulomb's 48 solved slices run as two chunks of 32 and 16 on two threads
    outputs = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert _run(command, CONFIG_DIR / "soft_coulomb.json", out, ("--threads", str(threads))) == 0
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outputs[1] and outputs[1] == outputs[2]


@pytest.mark.parametrize("field, value", [(("grid1", "n"), 16.7), (("seed",), 1.5),
                                          (("n_surfaces",), True), (("threads",), False)],
                         ids=["grid1_n_fractional", "seed_fractional", "n_surfaces_bool", "threads_bool"])
def test_integer_field_rejects_fraction_and_bool_by_name(tmp_path, field, value):
    cfg = json.loads((CONFIG_DIR / "separable.json").read_text())
    target = cfg
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match=rf"^{'.'.join(field)} must be an integer"):
        load_config(str(path))
    target[field[-1]] = 16.0  # an integral float still converts
    path.write_text(json.dumps(cfg))
    loaded = load_config(str(path))
    assert attrgetter(".".join(field))(loaded) == 16


@pytest.mark.parametrize("field, value", [(("model", "M"), True),
                                          (("heavy", "ratio_threshold"), False)],
                         ids=["model_M_bool", "ratio_threshold_bool"])
def test_float_field_rejects_bool_by_name(tmp_path, field, value):
    cfg = json.loads((CONFIG_DIR / "separable.json").read_text())
    target = cfg
    for key in field[:-1]:
        target = target.setdefault(key, {})
    target[field[-1]] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match=rf"^{'.'.join(field)} must be a number, not {value}"):
        load_config(str(path))


@pytest.mark.parametrize("value, message", [(True, " must be a finite number, not True"),
                                            (False, " must be a finite number, not False"),
                                            ("abc", ": could not convert"), (None, ": float()"),
                                            (10**400, ": int too large to convert to float")],
                         ids=["true", "false", "string", "null", "overlong_int"])
def test_potential_parameter_rejects_non_numbers_by_name(tmp_path, capsys, value, message):
    cfg = json.loads((CONFIG_DIR / "separable.json").read_text())
    cfg["model"]["potential"]["k2"] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert _run("pes", path, tmp_path) == 2
    assert f"config error: model.potential.k2{message}" in capsys.readouterr().err


def test_load_config_validates_counts(tmp_path):
    cfg = json.loads((CONFIG_DIR / "separable.json").read_text())
    cfg["projector_rank"] = 5  # exceeds n_surfaces
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError):
        load_config(str(path))


@pytest.mark.parametrize("key, value, message", [
    ("n_surfaces", 97, "n_surfaces cannot exceed grid2.n"),
    ("nuclear_levels", 97, "nuclear_levels cannot exceed grid1.n"),
    ("exact_k", 21, "exact_k must be between 1 and 20")])
def test_count_above_its_limit_exits_2_naming_it(tmp_path, capsys, key, value, message):
    cfg = json.loads((CONFIG_DIR / "separable.json").read_text())  # grid1.n = grid2.n = 96
    cfg[key] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert _run("exact", path, tmp_path / "out") == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()
