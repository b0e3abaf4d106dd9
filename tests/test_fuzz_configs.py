"""tools/fuzz_configs.py: one JSON line per failing command, and an exit code that says whether any."""

import json
import subprocess
import sys

from tests.conftest import REPO


def test_three_configs_give_well_formed_failure_lines():
    proc = subprocess.run([sys.executable, str(REPO / "tools" / "fuzz_configs.py"), "--seed", "2",
                           "--count", "3"], capture_output=True, text=True, timeout=300)
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert all(set(line) == {"config", "command", "exit", "stderr"} for line in lines)
    assert all(line["exit"] not in (0, 2) for line in lines)
    assert proc.returncode == (1 if lines else 0), proc.stderr
