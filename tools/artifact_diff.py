"""Compare the CLI outputs of two source trees byte for byte.

    python tools/artifact_diff.py OLD_TREE NEW_TREE [--blas-threads N]

Runs ``pes``, ``bo``, ``exact``, ``project`` and ``compare`` on every bundled
config (``configs/*.json`` of NEW_TREE), and ``scaling`` on each of them at
``--threads 1`` and ``--threads 2``. Each tree runs its own ``src/`` and
``configs/`` in a fresh interpreter with ``PYTHONPATH=<tree>/src``, no
``BO_LAB_*`` variables, and a fresh output directory. OLD_TREE runs at
``OPENBLAS_NUM_THREADS=1`` and NEW_TREE at ``--blas-threads`` (default 1), so
``artifact_diff.py T T --blas-threads 2`` checks that tree T writes the same
bytes at one and two BLAS threads. Every artifact file, the exit code,
stderr, and stdout are compared; the output directory is masked in stdout and
stderr. Prints each difference and a summary, and exits 1 if anything
differs. When two versions of an output differ only in the numbers they
spell, the difference line also gives the largest absolute and relative
change of a number, and the summary counts these outputs and gives the
largest changes over all of them. Exits 2 without running anything if either
tree has no ``src/bolab/__init__.py`` or NEW_TREE has no ``configs/*.json``,
so a mistyped path cannot pass as "all identical".
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("pes", "bo", "exact", "project", "compare")
OUT_MASK = b"<OUT>"
# a decimal number, not the digits inside a name such as theta_1
NUMBER = re.compile(rb"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
SIZED = re.compile(r"; numbers only, largest change (\S+) absolute, (\S+) relative$")


def default_jobs(configs_dir: Path) -> list:
    """(command, config file name, extra flags) for every command on every bundled config."""
    names = sorted(p.name for p in configs_dir.glob("*.json"))
    return ([(command, name, ()) for name in names for command in COMMANDS]
            + [("scaling", name, ("--threads", str(t))) for name in names for t in (1, 2)])


def run_job(tree: Path, command: str, config: str, extra=(), blas_threads: int = 1) -> dict:
    """Outputs of one CLI run on ``tree``: ``exit``, ``stdout``, ``stderr`` and ``file:<name>``."""
    tree = Path(tree).resolve()
    env = {k: v for k, v in os.environ.items() if not k.startswith("BO_LAB_")}
    env.update(PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS=str(blas_threads))
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "out"
        done = subprocess.run([sys.executable, "-m", "bolab.cli", command, "--config",
                               str(tree / "configs" / config), "--out", str(out), *extra],
                              cwd=work, env=env, capture_output=True, timeout=600)
        mask = str(out).encode()
        outputs = {"exit": str(done.returncode).encode(),
                   "stdout": done.stdout.replace(mask, OUT_MASK),
                   "stderr": done.stderr.replace(mask, OUT_MASK)}
        if out.is_dir():
            outputs.update({f"file:{p.relative_to(out)}": p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()})
    return outputs


def _first_difference(old: bytes, new: bytes) -> str:
    for i, (a, b) in enumerate(zip(old.splitlines(), new.splitlines()), start=1):
        if a != b:
            return f"line {i}: {a[:120]!r} -> {b[:120]!r}"
    return f"length {len(old)} -> {len(new)} bytes"


def _numeric_change(old: bytes, new: bytes) -> str:
    """``; numbers only, ...`` with the largest changes, if the two differ only in numbers."""
    if NUMBER.split(old) != NUMBER.split(new):
        return ""
    pairs = [(float(a), float(b)) for a, b in zip(NUMBER.findall(old), NUMBER.findall(new))
             if a != b]
    absolute = max(abs(a - b) for a, b in pairs)
    relative = max(abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0 for a, b in pairs)
    return f"; numbers only, largest change {absolute:.3g} absolute, {relative:.3g} relative"


def diff_outputs(label: str, old: dict, new: dict) -> list:
    """One line per output that is missing on one side or differs."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            lines.append(f"{label}: {key} only in {'new' if key not in old else 'old'} tree")
        elif old[key] != new[key]:
            lines.append(f"{label}: {key} differs, {_first_difference(old[key], new[key])}"
                         + _numeric_change(old[key], new[key]))
    return lines


def summary(count: int, runs: int, lines: list) -> str:
    """The closing line over the difference ``lines``: how many outputs differ, how many
    of them only in numbers, and the largest absolute and relative change among those."""
    if not lines:
        return f"{count} outputs of {runs} runs compared: all identical"
    sized = [m.groups() for m in map(SIZED.search, lines) if m]
    text = f"{count} outputs of {runs} runs compared: {len(lines)} differ ({len(sized)} numbers only"
    if sized:
        text += (f", largest change {max(float(a) for a, _ in sized):.3g} absolute, "
                 f"{max(float(r) for _, r in sized):.3g} relative")
    return text + ")"


def compare_trees(old_tree: Path, new_tree: Path, jobs, blas_threads: int = 1) -> tuple[int, list]:
    """(number of outputs compared, difference lines) over ``jobs``, ``new_tree`` at
    ``blas_threads`` BLAS threads."""
    count, lines = 0, []
    for command, config, extra in jobs:
        old = run_job(old_tree, command, config, extra)
        new = run_job(new_tree, command, config, extra, blas_threads)
        count += len(old.keys() | new.keys())
        lines += diff_outputs(" ".join([command, config, *extra]), old, new)
    return count, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path)
    parser.add_argument("--blas-threads", type=int, default=1, help="NEW_TREE's BLAS threads")
    args = parser.parse_args(argv)
    if args.blas_threads < 1:
        parser.error("--blas-threads must be at least 1")
    for tree in (args.old_tree, args.new_tree):
        if not (tree / "src" / "bolab" / "__init__.py").is_file():
            parser.error(f"{tree} is not a bolab source tree: it has no src/bolab/__init__.py")
    jobs = default_jobs(args.new_tree / "configs")
    if not jobs:
        parser.error(f"{args.new_tree / 'configs'} holds no *.json config")
    count, lines = compare_trees(args.old_tree, args.new_tree, jobs, args.blas_threads)
    for line in lines:
        print(line)
    print(summary(count, len(jobs), lines))
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
