"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload batch_daily --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics: set-up is repeated (each
workload's ``SETUP_REPEATS`` times) and its median reported as
``setup_s``, then the timed phase runs for ``--seconds`` and every
output is checked against an independent computation.  ``--trace 1``
runs the timed phase for half of ``--seconds`` untraced, then for the
other half with every serving-path module's public entry points wrapped
in spans (``layers.py``), and reports per-layer metrics, including
``trace.overhead_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report and an environment stamp.  The command
exits 1 when any output mismatches, and 2 when the program's sources
are missing.  ``--workload all`` runs every workload in its own process
and prints their reports.

The program is imported from ``src/`` of the checkout the command runs
in; temporary files go to a ``.perfbench_tmp-*/`` directory there,
removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()




def metric_units(kind: str) -> dict:
    """Name -> unit of every ``kind`` metric (``end_to_end`` or
    ``per_layer``) that BENCHMARK.json declares; the one list of what a
    run reports."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def environment() -> dict:
    """What a result was measured on, so runs compare like with like."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"        # a checkout without git history
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    from workloads import nproc

    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "nproc": nproc(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(workload, env, seconds: float):
    """The timed phase and its wall time.  The set-up's objects are
    frozen out of the cyclic garbage collector first, so its full
    collections cost what the program's own objects cost, not the
    benchmark's inputs."""
    gc.collect()
    gc.freeze()
    try:
        started = time.perf_counter()
        phase = workload.run(env, seconds)
        return phase, time.perf_counter() - started
    finally:
        gc.unfreeze()


def frozen_inputs(workload, seed: int, seconds: float) -> dict:
    """The workload's seeded inputs, frozen out of the cyclic garbage
    collector, so that set-up and timed phase pay for collecting the
    program's objects only."""
    inputs = workload.inputs(seed, seconds)
    gc.collect()
    gc.freeze()
    return inputs


#: Pause between set-up repeats.  A core of a shared host runs at one of
#: two speeds for a fraction of a second at a time; spaced repeats
#: sample several of those periods instead of one.
SETUP_GAP_S = 0.25


def run_untraced(workload, seed: int, seconds: float):
    inputs = frozen_inputs(workload, seed, seconds)
    setups: list = []
    env = None
    for _ in range(workload.SETUP_REPEATS):
        if env is not None:
            workload.close(env)
            env = None
            time.sleep(SETUP_GAP_S)
        gc.collect()
        started = time.perf_counter()
        env = workload.setup(inputs, traced=False)
        setups.append(time.perf_counter() - started)
    try:
        workload.prepare(env)
        phase, _wall = timed(workload, env, seconds)
        # Before the checks, whose oracles are no part of the program.
        rss = peak_rss_mb()
        attempted, failed = workload.check(env, phase)
        metrics, notes = workload.end_to_end(env, phase)
    finally:
        workload.close(env)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = rss
    notes["setup_runs_s"] = setups
    return metrics, notes, attempted, failed


def run_traced(workload, seed: int, seconds: float):
    """An untraced and a traced phase of ``seconds / 2`` each, so a
    traced run takes about as long as an untraced one."""
    from layers import LayerTracer, install_program_wrappers, layer_metrics

    seconds /= 2.0
    inputs = frozen_inputs(workload, seed, seconds)
    env = workload.setup(inputs, traced=False)
    try:
        workload.prepare(env)
        phase, _wall = timed(workload, env, seconds)
        base_wall = workload.primary_wall(env, phase)
        attempted, failed = workload.check(env, phase)
    finally:
        workload.close(env)
    env = None
    gc.collect()

    env = workload.setup(inputs, traced=True)
    tracer = LayerTracer()
    try:
        workload.prepare(env)
        install_program_wrappers(tracer)
        try:
            phase, wall = timed(workload, env, seconds)
        finally:
            tracer.uninstall()
        traced_wall = workload.primary_wall(env, phase)
        more_attempted, more_failed = workload.check(env, phase)
        metrics = layer_metrics(tracer.tracer.spans(), wall)
        metrics.update(workload.layer_counts(env, phase))
    finally:
        workload.close(env)
    metrics["trace.overhead_frac"] = traced_wall / base_wall - 1.0
    notes = {"spans": len(tracer.tracer.spans()), "base_wall_s": base_wall,
             "traced_wall_s": traced_wall}
    return (metrics, notes, attempted + more_attempted,
            failed + more_failed)


def report(name: str, metrics: dict, units: dict, notes: dict,
           attempted: int, failed: int) -> None:
    import benchmath

    print(f"== {name}")
    for key, value in notes.items():
        print(f"   {key}: {value}")
    for key, value in metrics.items():
        print(f"   {key:36s} {value:14.6g} {units[key]}")
    print(f"   failed_frac {benchmath.failed_frac(failed, attempted):.6g} "
          f"({failed} failed of {attempted} attempted)")


def run_one(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.trace:
        units = metric_units("per_layer")
        metrics, notes, attempted, failed = run_traced(
            workload, args.seed, args.seconds)
    else:
        units = metric_units("end_to_end")
        metrics, notes, attempted, failed = run_untraced(
            workload, args.seed, args.seconds)
    undeclared = set(metrics) - set(units)
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: "
                           f"{sorted(undeclared)}")
    # A layer this workload bypasses recorded nothing: its metrics are 0.
    metrics = {name: metrics.get(name, 0.0) for name in units}
    report(args.workload, metrics, units, notes, attempted, failed)
    print("env " + json.dumps(environment(), sort_keys=True))
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process; the exit code is the worst."""
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("batch_daily", "refresh_under_load",
                                 "cluster_batch", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources at {ROOT / 'src' / 'repro'}; run from "
              f"the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload == "all":
        return run_all(args)

    # Per process, so concurrent runs in one checkout never share it.
    tmp_dir = tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT)
    tempfile.tempdir = tmp_dir
    os.environ["TMPDIR"] = tmp_dir
    try:
        return run_one(args)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(tmp_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
