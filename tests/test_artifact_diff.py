"""tools/artifact_diff.py: runs a command on two trees and reports what differs."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

from tests.conftest import REPO

_spec = importlib.util.spec_from_file_location("artifact_diff", REPO / "tools" / "artifact_diff.py")
artifact_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_diff)


def test_same_tree_twice_is_identical():
    count, lines = artifact_diff.compare_trees(REPO, REPO, [("pes", "separable.json", ())])
    assert lines == []
    assert count == 4  # exit code, stdout, stderr and pes.csv


def test_outputs_are_masked_and_differences_named():
    outputs = artifact_diff.run_job(REPO, "pes", "separable.json")
    assert outputs["exit"] == b"0"
    assert outputs["stdout"] == b"<OUT>/pes.csv\n"
    changed = {**outputs, "file:pes.csv": outputs["file:pes.csv"] + b"1,2,3\n"}
    del changed["stderr"]
    assert artifact_diff.diff_outputs("pes", outputs, changed) == [
        "pes: file:pes.csv differs, length "
        f"{len(outputs['file:pes.csv'])} -> {len(changed['file:pes.csv'])} bytes",
        "pes: stderr only in old tree"]


def test_default_jobs_cover_every_command_and_config():
    jobs = artifact_diff.default_jobs(REPO / "configs")
    configs = sorted(p.name for p in (REPO / "configs").glob("*.json"))
    assert len(configs) == 5
    assert len(jobs) == 7 * len(configs)
    assert {job[0] for job in jobs} == {"pes", "bo", "exact", "project", "compare", "scaling"}
    assert ("scaling", "scaling_harmonic.json", ("--threads", "2")) in jobs


def test_numeric_differences_are_sized():
    old = {"file:theta.csv": b"x1,theta_0,theta_1\n-0.5,0.25,1.5e-3\n0.5,0.25,-1.5e-3\n"}
    moved = {"file:theta.csv": b"x1,theta_0,theta_1\n-0.5,0.2500000001,1.5e-3\n0.5,0.25,-1.5e-3\n"}
    flipped = {"file:theta.csv": b"x1,theta_0,theta_1\n-0.5,0.25,-1.5e-3\n0.5,0.25,1.5e-3\n"}
    renamed = {"file:theta.csv": b"x1,theta_0,theta_2\n-0.5,0.25,1.5e-3\n0.5,0.25,-1.5e-3\n"}
    [line] = artifact_diff.diff_outputs("bo", old, moved)
    assert line.endswith("; numbers only, largest change 1e-10 absolute, 4e-10 relative")
    [line] = artifact_diff.diff_outputs("bo", old, flipped)
    assert line.endswith("; numbers only, largest change 0.003 absolute, 2 relative")
    # a change in the text, here a column name, is not sized
    [line] = artifact_diff.diff_outputs("bo", old, renamed)
    assert line == ("bo: file:theta.csv differs, line 1: b'x1,theta_0,theta_1' -> "
                    "b'x1,theta_0,theta_2'")


def test_summary_bounds_the_numbers_only_differences():
    old = {"file:pes.csv": b"x1,lambda_0\n-0.5,0.25\n", "file:report.json": b'{"a": 2.0}\n',
           "exit": b"0"}
    new = {"file:pes.csv": b"x1,lambda_0\n-0.5,0.2500000001\n", "file:report.json": b'{"a": 2.5}\n',
           "exit": b"0"}
    lines = artifact_diff.diff_outputs("pes", old, new)
    assert artifact_diff.summary(3, 1, lines) == (
        "3 outputs of 1 runs compared: 2 differ (2 numbers only, largest change "
        "0.5 absolute, 0.2 relative)")
    lines += artifact_diff.diff_outputs("bo", {"stdout": b"a"}, {"stdout": b"b"})
    assert artifact_diff.summary(4, 2, lines).endswith("3 differ (2 numbers only, largest change "
                                                       "0.5 absolute, 0.2 relative)")
    assert artifact_diff.summary(1, 1, lines[-1:]) == "1 outputs of 1 runs compared: 1 differ (0 numbers only)"
    assert artifact_diff.summary(4, 2, []) == "4 outputs of 2 runs compared: all identical"


def test_only_the_new_tree_runs_at_the_given_blas_threads(monkeypatch):
    seen = []

    def fake_run(args, env, **kwargs):
        seen.append((Path(env["PYTHONPATH"]).parent.name, env["OPENBLAS_NUM_THREADS"]))
        return subprocess.CompletedProcess(args, 0, b"", b"")
    monkeypatch.setattr(artifact_diff.subprocess, "run", fake_run)
    old, new = REPO / "tools", REPO / "tests"  # any two trees: the run is faked
    artifact_diff.compare_trees(old, new, [("pes", "separable.json", ())], blas_threads=2)
    artifact_diff.compare_trees(old, new, [("pes", "separable.json", ())])
    assert seen == [("tools", "1"), ("tests", "2"), ("tools", "1"), ("tests", "1")]


def test_a_tree_that_is_not_a_source_tree_or_has_no_configs_is_refused(tmp_path, capsys):
    bare = tmp_path / "bare"  # a bolab package but no configs
    (bare / "src" / "bolab").mkdir(parents=True)
    (bare / "src" / "bolab" / "__init__.py").write_text("")
    (bare / "configs").mkdir()
    cases = [([tmp_path / "nonexistent", tmp_path / "nonexist2"], "src/bolab/__init__.py"),
             ([REPO, tmp_path / "nonexistent"], "src/bolab/__init__.py"),
             ([tmp_path / "nonexistent", REPO], "src/bolab/__init__.py"),
             ([REPO, bare], "holds no *.json config")]
    for argv, message in cases:
        with pytest.raises(SystemExit) as exit_info:
            artifact_diff.main([str(tree) for tree in argv])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err
