#!/usr/bin/env python3
"""Benchmark of the radclust command line.

Run from the root of a radclust checkout:

    python3 perfbench/run.py --workload cluster-chain --seed 1 --seconds 30 --trace 0

The harness generates the workload's input from ``--seed`` (workloads.py),
computes the correct result with its own checker (check.py), then runs
``python -m radclust`` from the checkout's ``src`` as a child process in a
closed loop: one invocation at a time, back to back, for ``--seconds``.
Every invocation is checked: a non-zero exit, a wrong partition, table,
event list or SVG, or output bytes that differ from the run's first
invocation count as a failure.

``--trace 0`` reports the end-to-end metrics, medians over the invocations:
``wall_s`` (spawn to exit), ``cpu_s`` (user + system CPU of the child),
``peak_rss_mb`` (the child's own peak RSS from ``os.wait4``) and ``setup_s``
(spawn to exit of ``python -m radclust <subcommand> --help``, spawned twice
after every invocation).
``--trace 1`` alternates untraced invocations with traced ones (traced.py)
and reports the per-layer metrics.  ``--workload all`` runs every workload
in both modes.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment, sample counts and ``error_rate``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from check import check_outputs, expected_for
from traced import LAYER_SPANS
from workloads import WORKLOADS, make_case

# One BLAS thread keeps the dense products off the second core, where other
# tenants' load and hypervisor steal make timings jump; it stays below nproc.
BLAS_THREADS = 1
# ``--help`` spawns after each invocation: spreading them over the run makes
# their median see the same host conditions as the invocations'.
SETUP_PER_ROUND = 2
MIN_SAMPLES = 3
# A child still running after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
WORK_DIR = ".perfbench_work"

# Counts that must repeat exactly across the traced invocations of a run.
EXACT_COUNTS = (
    "io.bytes_read",
    "io.bytes_written",
    "geometry.edges",
    "matpower.squarings_planned",
    "matpower.squarings_to_fixpoint",
    "matpower.ops_computed",
    "clustering.clusters",
    "trajectory.frames",
    "trajectory.events",
)


class Child:
    """Spawns children with the program's source on the path and a fixed BLAS thread count."""

    def __init__(self, root: str, work: str) -> None:
        self.root = root
        self.stderr_path = os.path.join(work, "stderr.txt")
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def run(self, argv: list[str]) -> dict:
        """Run ``python argv...`` to completion; return wall, CPU, peak RSS and exit code."""
        with open(self.stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                cwd=self.root,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
            "code": proc.returncode,
        }

    def last_error(self) -> str:
        with open(self.stderr_path, encoding="utf-8", errors="replace") as fh:
            lines = fh.read().strip().splitlines()
        return lines[-1] if lines else ""


def _digest(paths: dict[str, str]) -> dict[str, str] | None:
    try:
        digests = {}
        for role, path in paths.items():
            with open(path, "rb") as fh:
                digests[role] = hashlib.sha256(fh.read()).hexdigest()
        return digests
    except OSError:
        return None


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _environment(seed: int, case) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "n_points": case.n_points,
        "n_frames": len(case.frames),
    }


class Run:
    """One workload, one seed: inputs, the closed loop and its checks."""

    def __init__(self, workload: str, seed: int, tiny: bool, root: str, work: str) -> None:
        self.case = make_case(workload, seed, tiny)
        self.expected = expected_for(self.case)
        self.work = work
        self.input_path = os.path.join(work, "input.csv")
        self.case.write_input(self.input_path)
        self.out_dir = os.path.join(work, "out")
        os.makedirs(self.out_dir)
        self.outputs = self.case.outputs(self.out_dir)
        self.argv = self.case.argv(self.input_path, self.out_dir)
        self.child = Child(root, work)
        self.traced_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced.py")
        self.reference: dict[str, str] | None = None  # digests of verified outputs
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # the first few failure messages

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def spawn_help(self) -> float | None:
        """Spawn-to-exit seconds of ``radclust <subcommand> --help``, or None if it failed."""
        self.attempted += 1
        sample = self.child.run(["-m", "radclust", self.argv[0], "--help"])
        if sample["code"] != 0:
            self._fail(f"--help exit {sample['code']}: {self.child.last_error()}")
            return None
        return sample["wall_s"]

    def invoke(self, trace_path: str | None = None) -> dict | None:
        """One checked invocation; returns its sample, or None if it failed."""
        self.attempted += 1
        for path in [*self.outputs.values(), trace_path]:
            if path and os.path.exists(path):
                os.remove(path)
        if trace_path is None:
            sample = self.child.run(["-m", "radclust", *self.argv])
        else:
            sample = self.child.run([self.traced_py, trace_path, "--", *self.argv])
        if sample["code"] != 0:
            self._fail(f"exit {sample['code']}: {self.child.last_error()}")
            return None
        digests = _digest(self.outputs)
        if digests is None:
            self._fail("an output file is missing")
            return None
        if digests != self.reference:
            if self.reference is not None:
                self._fail("outputs are not byte-identical to the run's first invocation")
                return None
            errors = check_outputs(self.case, self.expected, self.outputs)
            if errors:
                self._fail("; ".join(errors[:3]))
                return None
            self.reference = digests
        return sample

    def _more(self, done: int, minimum: int, start: float, last: float, seconds: float) -> bool:
        """Whether the closed loop runs another round.

        Rounds continue until ``minimum`` succeeded (unless as many failed)
        and then while one more round of the last one's length fits.
        """
        if done < minimum and self.failed < minimum:
            return True
        return time.perf_counter() - start + last <= seconds

    def untraced_loop(self, seconds: float) -> tuple[list[dict], list[float]]:
        """Invocations, each followed by ``--help`` spawns; returns both samples."""
        samples, setup = [], []
        start = time.perf_counter()
        last = 0.0
        while self._more(len(samples), MIN_SAMPLES, start, last, seconds):
            t0 = time.perf_counter()
            sample = self.invoke()
            if sample is not None:
                samples.append(sample)
            for _ in range(SETUP_PER_ROUND):
                wall = self.spawn_help()
                if wall is not None:
                    setup.append(wall)
            last = time.perf_counter() - t0
        return samples, setup

    def traced_loop(self, seconds: float) -> tuple[list[dict], list[dict]]:
        """Alternate untraced and traced invocations; at least two of each."""
        untraced, traced = [], []
        trace_path = os.path.join(self.work, "trace.json")
        start = time.perf_counter()
        last = 0.0
        while self._more(min(len(untraced), len(traced)), 2, start, last, seconds):
            t0 = time.perf_counter()
            plain = self.invoke()
            sample = self.invoke(trace_path)
            last = time.perf_counter() - t0
            if plain is not None:
                untraced.append(plain)
            if sample is not None:
                layers = self._layers(sample, trace_path)
                if layers is not None:
                    traced.append(layers)
        return untraced, traced

    def _layers(self, sample: dict, trace_path: str) -> dict | None:
        """Per-layer times and counts of one traced invocation."""
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        counts = trace["counts"]
        want = {
            "io.bytes_read": os.path.getsize(self.input_path),
            "io.bytes_written": sum(
                os.path.getsize(p) for role, p in self.outputs.items() if role != "svg"
            ),
            "geometry.edges": self.expected.edges,
            "clustering.clusters": self.expected.clusters,
            "trajectory.events": len(self.expected.events),
        }
        wrong = [k for k, v in want.items() if counts.get(k) != v]
        if wrong:
            self._fail(f"traced counts disagree with the checker: {', '.join(wrong)}")
            return None
        durations: dict[str, float] = {}
        top_level = 0.0
        for name, parent, start, end in trace["spans"]:
            durations[name] = durations.get(name, 0.0) + (end - start)
            if parent is None:
                top_level += end - start
        layers = {
            metric: sum(durations.get(name, 0.0) for name in spans)
            for metric, spans in LAYER_SPANS.items()
        }
        wall = sample["wall_s"] - trace["post_main_s"]
        layers["traced_wall_s"] = wall
        layers["cli.self_s"] = wall - top_level
        layers.update(counts)
        return layers


def _units(root: str) -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units, as BENCHMARK.json declares them."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in bench[kind]} for kind in ("end_to_end", "per_layer"))


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def _per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    errors = []
    for key in EXACT_COUNTS:
        values = {t[key] for t in traced}
        if len(values) != 1:
            errors.append(f"{key} does not repeat exactly: {sorted(values)}")
    first = traced[0]
    metrics = {name: _median(traced, name) for name in LAYER_SPANS}
    metrics["cli.self_s"] = _median(traced, "cli.self_s")
    metrics["trace.overhead_s"] = _median(traced, "traced_wall_s") - _median(untraced, "wall_s")
    for key in EXACT_COUNTS:
        if key != "trajectory.frames":
            metrics[key] = first[key]
    metrics["geometry.adjacency_peak_mb"] = _median(traced, "geometry.adjacency_peak_mb")
    planned = first["matpower.squarings_planned"]
    metrics["matpower.useful_squaring_ratio"] = (
        first["matpower.squarings_to_fixpoint"] / planned if planned else 0.0
    )
    power_s = metrics["matpower.power_s"]
    metrics["matpower.gops_per_s"] = (
        first["matpower.ops_computed"] / power_s / 1e9 if power_s else 0.0
    )
    frames = first["trajectory.frames"]
    metrics["trajectory.per_frame_ms"] = (
        metrics["trajectory.frames_s"] / frames * 1e3 if frames else 0.0
    )
    return metrics, errors


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, tiny: bool, root: str, units: dict
) -> dict:
    """Run one workload in one mode; print its report; return the result object.

    ``units`` maps each metric this mode reports to its unit.
    """
    parent = os.path.join(root, WORK_DIR)
    os.makedirs(parent, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=parent)
    try:
        run = Run(workload, seed, tiny, root, work)
        run.spawn_help()  # warms the file and bytecode caches; not timed
        counts_errors: list[str] = []
        if trace:
            untraced, traced = run.traced_loop(seconds)
            metrics, counts_errors = _per_layer(untraced, traced) if untraced and traced else ({}, [])
            samples = {"untraced": len(untraced), "traced": len(traced)}
        else:
            untraced, setup = run.untraced_loop(seconds)
            metrics = {}
            if untraced and setup:
                metrics = {key: _median(untraced, key) for key in ("wall_s", "cpu_s", "peak_rss_mb")}
                metrics["setup_s"] = statistics.median(setup)
            samples = {"invocations": len(untraced), "setup_spawns": len(setup)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(parent)
    failed = run.failed
    errors = run.errors + counts_errors
    complete = set(metrics) == set(units)
    correct = failed == 0 and not counts_errors and complete
    report = {
        "workload": workload,
        "trace": int(trace),
        "environment": _environment(seed, run.case),
        "samples": samples,
        "error_rate": {"value": failed / run.attempted, "unit": "ratio"},
        "errors": errors,
    }
    if metrics and not trace:
        report["quartiles"] = {
            key: _quartiles([s[key] for s in untraced]) for key in ("wall_s", "cpu_s", "peak_rss_mb")
        }
        report["quartiles"]["setup_s"] = _quartiles(setup)
    for name in units:
        if name in metrics:
            print(f"{workload:<20} {name:<32} {metrics[name]:>16.6f} {units[name]}")
    print(f"{workload:<20} {'error_rate':<32} {failed / run.attempted:>16.6f} ratio"
          f" ({failed} of {run.attempted} failed)")
    print(json.dumps(report))
    return {
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "radclust", "__main__.py")):
        print("error: run from the root of a radclust checkout (src/radclust not found)", file=sys.stderr)
        return 2
    units = _units(root)
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.tiny, root, units[args.trace])
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (False, True):
                one = run_workload(workload, args.seed, args.seconds, trace, args.tiny, root,
                                   units[trace])
                result["correct"] &= one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                for name, metric in one["metrics"].items():
                    result["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
