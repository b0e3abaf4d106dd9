"""tools/fuzz_configs.py: one JSON line per failing command or answer miss, and an exit code that
says whether any."""

import importlib.util
import json
import subprocess
import sys
from dataclasses import replace

import numpy as np

from tests.conftest import CONFIG_DIR, REPO


def test_three_configs_give_well_formed_failure_lines():
    proc = subprocess.run([sys.executable, str(REPO / "tools" / "fuzz_configs.py"), "--seed", "2",
                           "--count", "3"], capture_output=True, text=True, timeout=300)
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert all(set(line) == {"index", "config", "command", "exit", "stderr"} for line in lines)
    assert all(line["exit"] not in (0, 2) for line in lines)
    assert proc.returncode == (1 if lines else 0), proc.stderr


def _answer_lines(monkeypatch, capsys, edit):
    """The fuzz's JSON lines, as dicts, and its config, for one run of its answer checks on
    the bundled ``harmonic_equal_mass`` config with ``edit`` applied to each scanned field."""
    spec = importlib.util.spec_from_file_location("fuzz_configs",
                                                  REPO / "tools" / "fuzz_configs.py")
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    config = json.loads((CONFIG_DIR / "harmonic_equal_mass.json").read_text())
    scan = fuzz.scan_pes

    def edited(*args):
        field = scan(*args)
        edit(field)
        return field
    monkeypatch.setattr(fuzz, "draw_config", lambda rng: config)
    monkeypatch.setattr(fuzz, "run_command", lambda command, config: (0, ""))  # answers only
    monkeypatch.setattr(fuzz, "scan_pes", edited)
    assert fuzz.main(["--seed", "0", "--count", "1"]) == 1
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()], config


def test_a_swapped_scan_level_is_an_answer_miss_line(monkeypatch, capsys):
    def swap(field):
        field.energies[:, 3] = field.energies[::-1, 3]  # levels 0 and 1 of slice 3
    lines, config = _answer_lines(monkeypatch, capsys, swap)
    found = [(line["check"], line["row"], line["level"]) for line in lines]
    assert found == [("scan", 3, 0), ("scan", 3, 1)]
    assert all(abs(line["value"] - line["reference"]) > line["bound"] for line in lines)
    assert lines[0]["config"] == config


def test_two_rotated_resolved_states_are_state_miss_lines(monkeypatch, capsys):
    def rotate(field):
        pair = field.states[:2, 3]  # levels 0 and 1 of slice 3, far apart: 45 degrees
        field.states[:2, 3] = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0) @ pair
    lines, config = _answer_lines(monkeypatch, capsys, rotate)
    found = [(line["check"], line["row"], line["level"]) for line in lines]
    assert found == [("state", 3, 0), ("state", 3, 1)]
    assert all(line["residual"] > line["bound"] for line in lines)
    assert lines[0]["config"] == config


def _oracle_lines(monkeypatch, capsys, patch=lambda fuzz: None):
    """The fuzz's exit code and JSON lines, as dicts, for one run of its answer checks on the
    bundled ``harmonic_equal_mass`` config at 24 x 24 points, small enough for the dense
    oracle reference, after ``patch(fuzz)`` on the loaded script."""
    spec = importlib.util.spec_from_file_location("fuzz_configs",
                                                  REPO / "tools" / "fuzz_configs.py")
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    config = json.loads((CONFIG_DIR / "harmonic_equal_mass.json").read_text())
    config["grid1"]["n"] = config["grid2"]["n"] = 24
    monkeypatch.setattr(fuzz, "draw_config", lambda rng: config)
    monkeypatch.setattr(fuzz, "run_command", lambda command, config: (0, ""))  # answers only
    patch(fuzz)
    code = fuzz.main(["--seed", "0", "--count", "1"])
    return code, [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_a_correct_oracle_passes_the_oracle_and_chain_rows(monkeypatch, capsys):
    assert _oracle_lines(monkeypatch, capsys) == (0, [])


def test_an_oracle_returning_e1_as_e0_is_an_oracle_and_a_chain_miss(monkeypatch, capsys):
    from bolab import diagnostics

    real = diagnostics.solve_exact

    def e1_as_e0(*args, **kwargs):
        sol = real(*args, **kwargs)
        return replace(sol, energies=np.r_[sol.energies[1], sol.energies[1:]])
    monkeypatch.setattr(diagnostics, "solve_exact", e1_as_e0)
    code, lines = _oracle_lines(monkeypatch, capsys)
    assert code == 1
    assert [(line["check"], line.get("level")) for line in lines] == [("oracle", 0), ("chain", None)]
    assert abs(lines[0]["value"] - lines[0]["reference"]) > lines[0]["bound"]
    assert lines[1]["value"] > lines[1]["upper"] + lines[1]["bound"]


def test_a_bo_bound_above_the_oracle_is_a_chain_miss(monkeypatch, capsys):
    def raise_the_bound(fuzz):
        real = fuzz._bo_lower_bound
        monkeypatch.setattr(fuzz, "_bo_lower_bound",
                            lambda h, lam0: (real(h, lam0)[0] + 1.0, real(h, lam0)[1]))
    code, lines = _oracle_lines(monkeypatch, capsys, raise_the_bound)
    assert code == 1 and [line["check"] for line in lines] == ["chain"]
    assert lines[0]["value"] < lines[0]["lower"] - lines[0]["bound"]
