#!/usr/bin/env python3
"""bolab benchmark: one workload, closed loop, one client, checked outputs.

    python3 perfbench/run.py --workload oracle_compare --seed 1 --seconds 22 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (see README.md). The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
record, with the environment the run was measured in.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread, in-process and in every child: only bolab's own
# --threads pool adds a thread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("oracle_compare", "mass_sweep", "adiabatic_fine")
SETUP_REPS = 4           # fresh interpreters timed for setup_s
FRESH_JOBS = 4           # at least this many fresh-interpreter jobs for cli_wall_s,
FRESH_CYCLES = 2         # in at least this many whole cycles
IMPORTTIME_REPS = 3      # python -X importtime runs in the traced run
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10         # samples that must lie beyond the reported tail percentile

SETUP_CODE = "import sys, bolab, bolab.cli\nfor p in sys.argv[1:]:\n    bolab.cli.load_config(p)\n"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def kind_median(samples: list) -> float:
    """Mean over job kinds of each kind's median wall time.

    ``samples`` holds (job name, seconds) pairs. With one kind this is the
    plain median. With several it keeps the statistic inside the mix: the
    pooled median of a cycle of fast and slow kinds falls in the gap between
    them and jumps with a single sample. 0 when every job failed."""
    if not samples:
        return 0.0
    by_kind = {}
    for name, seconds in samples:
        by_kind.setdefault(name, []).append(seconds)
    return statistics.fmean(statistics.median(v) for v in by_kind.values())


def tail(samples: list) -> tuple:
    """(value, percentile, samples beyond): the highest whole percentile with
    at least TAIL_BEYOND samples beyond it (nearest rank). Short runs fall
    back to the maximum; 0 when every job failed."""
    s = sorted(samples)
    n = len(s)
    if n == 0:
        return 0.0, 0, 0
    if n <= TAIL_BEYOND:
        return s[-1], 100, 0
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return s[rank - 1], pct, n - rank


class Runner:
    """Runs jobs in-process or in a fresh interpreter and gates every result."""

    def __init__(self, jobs, configs, workdir: Path):
        from bolab import cli
        import adiabatic_job
        import workloads

        self.cli, self.adiabatic_job, self.workloads = cli, adiabatic_job, workloads
        self.jobs = jobs
        self.configs = {job.name: configs[job.config.stem] for job in jobs}
        self.workdir = workdir
        self.attempted = 0
        self.failures = []
        self.reference = {}   # job name -> artifact hashes of its first run

    def _call(self, job, out: Path) -> None:
        if job.command == "adiabatic":
            self.adiabatic_job.run(job.config, out)
            return
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main([job.command, "--config", str(job.config), "--out", str(out)] + job.args)
        if rc != 0:
            raise RuntimeError(f"bolab {job.command} exited with code {rc}")

    def _gate(self, job, out: Path) -> None:
        self.workloads.CHECKS[job.command](out, self.configs[job.name])
        hashes = {p.name: sha256(p) for p in sorted(out.iterdir())}
        ref = self.reference.setdefault(job.name, hashes)
        if hashes != ref:
            raise self.workloads.GateError(f"{job.name}: artifacts differ from the first run")

    def _fail(self, job, exc) -> None:
        self.failures.append(f"{job.name}: {type(exc).__name__}: {exc}")

    def run(self, job, recorder=None):
        """Run one job in-process; return its wall time, or None if it failed."""
        self.attempted += 1
        out = self.workdir / "out" / job.name
        try:
            ctx = recorder.job() if recorder is not None else contextlib.nullcontext()
            t0 = time.perf_counter()
            with ctx:
                self._call(job, out)
            elapsed = time.perf_counter() - t0
            self._gate(job, out)
        except Exception as exc:  # a failed job is counted, and the loop goes on
            self._fail(job, exc)
            return None
        return elapsed

    def run_fresh(self, job, index: int):
        """Run one job in a fresh interpreter; return its wall time, or None."""
        self.attempted += 1
        out = self.workdir / "fresh" / f"{job.name}-{index}"
        if job.command == "adiabatic":
            argv = [sys.executable, str(HERE / "adiabatic_job.py")]
        else:
            argv = [sys.executable, "-m", "bolab.cli", job.command]
        argv += ["--config", str(job.config), "--out", str(out)] + job.args
        try:
            t0 = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            self._gate(job, out)
        except Exception as exc:  # counted like an in-process failure
            self._fail(job, exc)
            return None
        return elapsed

    def closed_loop(self, seconds: float, recorder=None, probes=()):
        """Whole cycles of the workload's jobs for ``seconds`` of loop time.

        ``probes`` are (due fraction, callable) pairs run between cycles once
        that fraction of ``seconds`` has passed. Their time is left out of the
        loop's, so fresh-interpreter measurements sample the same stretch of
        machine time as the in-process jobs instead of a block before or after.
        Returns ((job name, wall time) of the jobs that passed, loop wall time)."""
        samples = []
        pending = sorted(probes, key=lambda probe: probe[0])
        start = time.perf_counter()
        paused = 0.0
        while True:
            for job in self.jobs:
                elapsed = self.run(job, recorder)
                if elapsed is not None:
                    samples.append((job.name, elapsed))
            loop_s = time.perf_counter() - start - paused
            while pending and loop_s >= pending[0][0] * seconds:
                t0 = time.perf_counter()
                pending.pop(0)[1]()
                paused += time.perf_counter() - t0
            if loop_s >= seconds:
                return samples, loop_s


def timed_child(argv, env) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
                   timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def import_times(reps: int) -> tuple:
    """Median (import bolab, all scipy modules) seconds from -X importtime."""
    bolab_s, scipy_s = [], []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bolab"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              check=True, timeout=CHILD_TIMEOUT_S)
        total_bolab = total_scipy = 0
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            self_us, cumulative_us, name = int(parts[0]), int(parts[1]), parts[2].strip()
            if name == "bolab":
                total_bolab = cumulative_us
            if name.split(".")[0] == "scipy":
                total_scipy += self_us
        bolab_s.append(total_bolab * 1e-6)
        scipy_s.append(total_scipy * 1e-6)
    return statistics.median(bolab_s), statistics.median(scipy_s)


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS that numpy and scipy bundle."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        for lib in glob.glob(os.path.join(os.path.dirname(pkg.__file__) + ".libs", "*openblas*")):
            dll = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(dll, symbol, None)
                if fn is not None:
                    found[pkg.__name__] = int(fn())
                    break
    return found


def environment(seed: int, config_paths) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(), "env": BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "config_sha256": {p.name: sha256(p) for p in config_paths},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, config_paths, seconds, reps):
    """The closed loop, with setup and fresh-interpreter runs spread through it."""
    env = child_env()
    setup_argv = [sys.executable, "-c", SETUP_CODE] + [str(p) for p in config_paths]
    setup, fresh = [], []
    cycles = max(reps["fresh_cycles"], math.ceil(reps["fresh"] / len(runner.jobs)))
    fresh_runs = [(job, c) for c in range(cycles) for job in runner.jobs]

    def run_fresh(job, c):
        elapsed = runner.run_fresh(job, c)
        if elapsed is not None:
            fresh.append((job.name, elapsed))

    probes = [((i + 0.5) / reps["setup"], lambda: setup.append(timed_child(setup_argv, env)))
              for i in range(reps["setup"])]
    probes += [((i + 0.5) / len(fresh_runs), lambda job=job, c=c: run_fresh(job, c))
               for i, (job, c) in enumerate(fresh_runs)]
    for job in runner.jobs:  # warm-up, untimed
        runner.run(job)
    samples, wall = runner.closed_loop(seconds, probes=probes)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    tail_s, tail_pct, beyond = tail([t for _, t in samples])
    attempted, failed = runner.attempted, len(runner.failures)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "job_p50_s": metric(kind_median(samples), "s"),
        "job_tail_s": metric(tail_s, "s"),
        "jobs_per_s": metric(len(samples) / wall, "1/s"),
        "cli_wall_s": metric(kind_median(fresh), "s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
        "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
    }
    detail = {"failed_ratio": failed / attempted,
              "job_tail": {"percentile": tail_pct, "samples": len(samples), "samples_beyond": beyond},
              "setup_samples_s": setup, "cli_wall_samples_s": fresh, "loop_wall_s": wall}
    return metrics, detail


def traced(runner, seconds, reps):
    """Untraced then traced closed loops of equal length; per-layer metrics."""
    import adiabatic_job
    import spans

    import_bolab_s, import_scipy_s = import_times(reps["importtime"])
    for job in runner.jobs:  # warm-up, untimed
        runner.run(job)
    plain, _ = runner.closed_loop(seconds / 2)
    recorder = spans.Recorder()
    with spans.Tracer(recorder, extra_namespaces=[adiabatic_job]):
        samples, _ = runner.closed_loop(seconds / 2, recorder)
    n = max(len(samples), 1)
    stats = spans.summarize(recorder)

    def total(name, key="s"):
        return stats[name][key] / n

    counters = recorder.counters
    solves = counters["exact.shift_invert_solves"]
    pairs = counters["exact.eigenpairs_shift_invert"]
    self_total = sum(v["self_s"] for v in stats.values())
    layer_self = {layer: sum(v["self_s"] for k, v in stats.items() if k.split(".")[0] == layer)
                  for layer in spans.LAYERS}
    written = sum(stats["serialize.write_json"]["info"] + stats["serialize.write_csv"]["info"])

    m = {
        "clamped.scan_pes.self_s": metric(total("clamped.scan_pes", "self_s"), "s"),
        "clamped.solve_clamped_slice.calls": metric(total("clamped.solve_clamped_slice", "calls"), "count"),
        "clamped.phase_fix.s": metric(total("clamped.phase_fix"), "s"),
        "bo.solve_nuclear.s": metric(total("bo.solve_nuclear"), "s"),
        "bo.assemble_product_state.s": metric(total("bo.assemble_product_state"), "s"),
        "bo.adiabatic_residual.s": metric(total("bo.adiabatic_residual"), "s"),
        "bo.t1_coupling_matrix.s": metric(total("bo.t1_coupling_matrix"), "s"),
        "exact.solve_exact.self_s": metric(total("exact.solve_exact", "self_s"), "s"),
        "exact.solve_exact.calls": metric(total("exact.solve_exact", "calls"), "count"),
        "exact.factorize_s": metric(total("exact.factorize"), "s"),
        "exact.shift_invert_solves": metric(solves / n, "count"),
        "exact.solves_per_eigenpair": metric(solves / pairs if pairs else 0.0, "count"),
        "exact.assemble_full_hamiltonian.calls_per_job":
            metric(total("exact.assemble_full_hamiltonian", "calls"), "count"),
        "exact.assemble_full_hamiltonian.s": metric(total("exact.assemble_full_hamiltonian"), "s"),
        "exact.rayleigh_quotient.s": metric(total("exact.rayleigh_quotient"), "s"),
        "projection.solve_effective.self_s": metric(total("projection.solve_effective", "self_s"), "s"),
        "projection.effective_matrix.s": metric(total("projection.effective_matrix"), "s"),
        "projection.solve_effective.calls": metric(total("projection.solve_effective", "calls"), "count"),
        "projection.subspace_dim_max": metric(max(stats["projection.solve_effective"]["info"], default=0), "count"),
        "diagnostics.slice_uncertainty_products.s": metric(total("diagnostics.slice_uncertainty_products"), "s"),
        "diagnostics.uncertainty_product.calls": metric(total("diagnostics.uncertainty_product", "calls"), "count"),
        "diagnostics.nuclear_uncertainty.s": metric(total("diagnostics.nuclear_uncertainty"), "s"),
        "diagnostics.run_pipeline.self_s": metric(total("diagnostics.run_pipeline", "self_s"), "s"),
        "diagnostics.compare_report.self_s": metric(total("diagnostics.compare_report", "self_s"), "s"),
        "diagnostics.kappa_scaling_study.self_s": metric(total("diagnostics.kappa_scaling_study", "self_s"), "s"),
        "diagnostics.sweep_parallel_efficiency": metric(spans.sweep_parallel_efficiency(recorder), "ratio"),
        "serialize.write_s": metric(total("serialize.write_json") + total("serialize.write_csv"), "s"),
        "serialize.bytes_written": metric(written / n, "bytes"),
        "cli.load_config.s": metric(total("cli.load_config"), "s"),
        "cli.main.self_s": metric(total("cli.main", "self_s"), "s"),
        "setup.import_bolab_s": metric(import_bolab_s, "s"),
        "setup.import_scipy_s": metric(import_scipy_s, "s"),
        "trace.overhead_s": metric(kind_median(samples) - kind_median(plain), "s"),
    }
    for layer in spans.LAYERS:
        m[f"{layer}.self_share"] = metric(layer_self[layer] / self_total if self_total else 0.0, "ratio")
    detail = {"failed_ratio": len(runner.failures) / runner.attempted,
              "untraced_job_p50_s": kind_median(plain),
              "traced_job_p50_s": kind_median(samples),
              "traced_jobs": len(samples), "spans": len(recorder.spans)}
    return m, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bolab benchmark (closed loop, one client)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale: small grids, one repetition of each fresh run")
    args = parser.parse_args(argv)

    if not (SRC / "bolab" / "__init__.py").is_file():
        print(f"bolab sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    reps = ({"setup": 1, "fresh": 1, "fresh_cycles": 1, "importtime": 1} if args.tiny else
            {"setup": SETUP_REPS, "fresh": FRESH_JOBS, "fresh_cycles": FRESH_CYCLES,
             "importtime": IMPORTTIME_REPS})
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs, configs = workloads.build_workload(args.workload, args.seed, workdir / "configs",
                                                 tiny=args.tiny)
        config_paths = sorted({job.config for job in jobs})
        runner = Runner(jobs, configs, workdir)
        if args.trace:
            metrics, detail = traced(runner, args.seconds, reps)
        else:
            metrics, detail = end_to_end(runner, config_paths, args.seconds, reps)
        env = environment(args.seed, config_paths)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()

    failed = len(runner.failures)
    record = {"benchmark": "bolab", "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
              "environment": env, "detail": detail, "failures": runner.failures[:20]}
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
