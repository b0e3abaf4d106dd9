"""tools/fuzz_configs.py: one JSON line per failing command or answer miss, and an exit code that
says whether any."""

import importlib.util
import json
import subprocess
import sys

from tests.conftest import CONFIG_DIR, REPO


def test_three_configs_give_well_formed_failure_lines():
    proc = subprocess.run([sys.executable, str(REPO / "tools" / "fuzz_configs.py"), "--seed", "2",
                           "--count", "3"], capture_output=True, text=True, timeout=300)
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert all(set(line) == {"config", "command", "exit", "stderr"} for line in lines)
    assert all(line["exit"] not in (0, 2) for line in lines)
    assert proc.returncode == (1 if lines else 0), proc.stderr


def test_a_swapped_scan_level_is_an_answer_miss_line(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("fuzz_configs",
                                                  REPO / "tools" / "fuzz_configs.py")
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    config = json.loads((CONFIG_DIR / "harmonic_equal_mass.json").read_text())
    scan = fuzz.scan_pes

    def swapped(*args):
        field = scan(*args)
        field.energies[:, 3] = field.energies[::-1, 3]  # levels 0 and 1 of slice 3
        return field
    monkeypatch.setattr(fuzz, "draw_config", lambda rng: config)
    monkeypatch.setattr(fuzz, "run_command", lambda command, config: (0, ""))  # answers only
    monkeypatch.setattr(fuzz, "scan_pes", swapped)
    assert fuzz.main(["--seed", "0", "--count", "1"]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    found = [(line["check"], line["row"], line["level"]) for line in lines]
    assert found == [("scan", 3, 0), ("scan", 3, 1)]
    assert all(abs(line["value"] - line["reference"]) > line["bound"] for line in lines)
    assert lines[0]["config"] == config
