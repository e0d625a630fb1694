"""illushape benchmark: time to a certified shape, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: each job is ``illushape.cli.run_command`` on
the seeded inducer image, in a fresh process, and the next job starts when
the previous one has ended.  Jobs repeat until the next one would end after
``--seconds`` (at least two, so determinism is checked).  Every job's outputs
are checked against the paper's guarantees and the recorded reference.
``attempted`` counts every process started (jobs and set-up probes) and
``failed`` those that crashed or failed a check; ``correct`` is true only
when none failed.

``--trace 0`` reports the end-to-end metrics (medians over the jobs, with
``setup_s`` also sampled by set-up-only processes).  ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics of the traced
ones, plus the tracing overhead.  The last stdout line is one JSON object;
the whole result set, with the environment and every span, is written under
``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 8  # extra set-up-only processes per end-to-end run
DEADLINE_S = 150.0  # no job may end after this, so a run stays under 180 s
MIN_JOBS = 2

if not (SRC / "illushape" / "__init__.py").is_file():
    sys.exit(f"perfbench: no illushape sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))
try:
    import outputs
    import spans
    import workloads
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "outer_steps": "count",
    "cg_iters": "count",
}
PER_LAYER = {
    "elliptic.cg_solve_s": "s",
    "elliptic.cg_solve_calls": "count",
    "elliptic.cg_iter_us": "us",
    "elliptic.cg_cells_per_s": "cells/s",
    "elliptic.apply_operator_us": "us",
    "elliptic.linearize_s": "s",
    "elliptic.linearize_calls": "count",
    "energy.total_energy_s": "s",
    "energy.total_energy_calls": "count",
    "energy.drop_bound_s": "s",
    "energy.drop_bound_calls": "count",
    "grid.rms_diff_s": "s",
    "grid.rms_diff_calls": "count",
    "solver.self_s": "s",
    "solver.run_calls": "count",
    "solver.run_s": "s",
    "solver.step_ms": "ms",
    "solver.el_residual_s": "s",
    "shape.components_s": "s",
    "shape.extract_s": "s",
    "shape.component_count": "count",
    "shape.cells": "count",
    "cli.load_mask_s": "s",
    "canyon.build_s": "s",
    "cli.save_images_s": "s",
    "cli.self_s": "s",
    "solver.energy_increases": "count",
    "solver.drop_bound_misses": "count",
    "solver.range_excursion_max": "phase",
    "trace.overhead_ratio": "ratio",
}


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'d' if kind == 'Data' else 'i' if kind == 'Instruction' else ''}"] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "git_commit": _git_commit(),
    }


def _blas_threads() -> int | str:
    """Thread count of the OpenBLAS that numpy loaded, asked through its own API."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return "unknown"
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def reference(name: str, shift: tuple[int, int]) -> dict:
    """The recorded outcome of a workload at a shift (see ``reference.py``)."""
    table = json.loads((HERE / "reference.json").read_text())
    return table[name][outputs.shift_key(shift)]


class Bench:
    """One run: a workload at a seed, its jobs, and their checks."""

    def __init__(self, w, seed: int, work: Path):
        self.w, self.seed, self.work = w, seed, work
        self.shift = workloads.shift_for_seed(seed)
        self.inducers = workloads.inducers(w, self.shift)
        self.ideal = workloads.ideal_shape(w, self.shift)
        self.image = work / "input.pgm"
        workloads.write_input(w, self.inducers, self.image)
        self.reference = reference(w.name, self.shift)
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        self.t_start = time.monotonic()
        self.jobs: list[dict] = []
        self.first_view = None

    def spawn(self, kind: str) -> dict:
        """Run one job process ("job", "traced" or "setup") and check what it left."""
        i = len(self.jobs)
        result_path, out_dir = self.work / f"job{i}.json", self.work / f"out{i}"
        argv = workloads.job_argv(self.w, self.image, out_dir)
        flags = {"traced": ["--trace"], "setup": ["--setup-only"]}.get(kind, [])
        job = {"kind": kind, "failures": []}
        spawned = time.monotonic()
        cmd = [sys.executable, str(HERE / "job.py"), "--spawned", repr(spawned), "--result", str(result_path),
               "--input", str(self.image), "--run-id", f"{self.w.name}/{self.seed}/{i}", *flags, "--", *argv]
        timeout = max(1.0, DEADLINE_S + 20.0 - (spawned - self.t_start))
        with open(self.work / f"job{i}.log", "wb") as log:
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT, timeout=timeout)
                returncode = proc.returncode
            except subprocess.TimeoutExpired:
                returncode = None
        job["duration_s"] = time.monotonic() - spawned
        self.jobs.append(job)
        if returncode != 0:
            job["failures"].append(f"job process ended with {returncode}; see {log.name}")
            return job
        job.update(json.loads(result_path.read_text()))
        if kind != "setup":
            self._check(job, out_dir)
        return job

    def _check(self, job: dict, out_dir: Path) -> None:
        failures = job["failures"]
        if job["exit_code"] != self.w.exit_status:
            failures.append(f"exit status {job['exit_code']}, want {self.w.exit_status}")
        try:
            out = outputs.read(out_dir)
        except outputs.OutputError as exc:
            failures.append(str(exc))
            return
        job["outer_steps"], job["cg_iters"] = out.outer_steps, out.cg_iters
        job["summary"] = out.summary
        failures += outputs.check(self.w, out, self.inducers, self.ideal, self.reference)
        view = outputs.deterministic_view(out)
        if self.first_view is None:
            self.first_view = view
        elif view != self.first_view:
            failures.append("energy.csv or summary.json differs from the first job of this run")
        if job["kind"] == "traced":
            if "gates" not in job:
                failures.append("traced job captured no IterationReport")
            else:
                failures += outputs.check_report(job["gates"], out.summary.get("parameters", {}).get("cg_tol", 0.0))


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(jobs: list[dict]) -> dict:
    timed = [j for j in jobs if j["kind"] == "job" and "wall_s" in j]
    return {
        "wall_s": _median(j["wall_s"] for j in timed),
        "cpu_s": _median(j["cpu_s"] for j in timed),
        "setup_s": _median(j.get("setup_s") for j in jobs),
        "peak_rss_mb": _median(j["peak_rss_mb"] for j in timed),
        "outer_steps": _median(j.get("outer_steps") for j in timed),
        "cg_iters": _median(j.get("cg_iters") for j in timed),
    }


def layer_metrics(job: dict, interior_cells: int) -> dict:
    """Per-layer metrics of one traced job, from its spans and outputs."""
    span_list = [spans.Span(**s) for s in job["spans"]]
    table = spans.totals(span_list)
    selfs = spans.self_times(span_list)
    root = next(i for i, s in enumerate(span_list) if s.name == "cli.run_command")

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    cg_s, cg_iters = total("elliptic.cg_solve"), job.get("cg_iters") or 0
    el_s, steps = total("solver.euler_lagrange_residual"), job.get("outer_steps") or 0
    summary = job.get("summary", {})
    gates = job.get("gates", {})
    return {
        "elliptic.cg_solve_s": cg_s,
        "elliptic.cg_solve_calls": calls("elliptic.cg_solve"),
        "elliptic.cg_iter_us": cg_s / cg_iters * 1e6 if cg_iters else None,
        "elliptic.cg_cells_per_s": interior_cells * cg_iters / cg_s if cg_s else None,
        "elliptic.apply_operator_us": job.get("apply_operator_us"),
        "elliptic.linearize_s": total("elliptic.linearize"),
        "elliptic.linearize_calls": calls("elliptic.linearize"),
        "energy.total_energy_s": total("energy.total_energy"),
        "energy.total_energy_calls": calls("energy.total_energy"),
        "energy.drop_bound_s": total("energy.energy_drop_bound"),
        "energy.drop_bound_calls": calls("energy.energy_drop_bound"),
        "grid.rms_diff_s": total("grid.rms_diff"),
        "grid.rms_diff_calls": calls("grid.rms_diff"),
        "solver.self_s": table.get("solver.run", {}).get("self_s", 0.0),
        "solver.run_calls": calls("solver.run"),
        "solver.run_s": total("solver.run"),
        "solver.step_ms": (total("solver.run") - el_s) / steps * 1e3 if steps else None,
        "solver.el_residual_s": el_s,
        "shape.components_s": total("shape.connected_components"),
        "shape.extract_s": total("shape.extract_shape"),
        "shape.component_count": summary.get("component_count"),
        "shape.cells": sum(summary.get("component_areas", ())),
        "cli.load_mask_s": total("cli.load_mask"),
        "canyon.build_s": total("canyon.build_canyon"),
        "cli.save_images_s": sum(
            s.end - s.start
            for s in span_list
            if s.parent == root and s.name in ("cli.save_field_image", "cli.write_pgm")
        ),
        "cli.self_s": selfs[root],
        "self_s_by_span": {name: row["self_s"] for name, row in table.items()},
        "solver.energy_increases": gates.get("energy_increases"),
        "solver.drop_bound_misses": gates.get("drop_bound_misses"),
        "solver.range_excursion_max": gates.get("range_excursion_max"),
        "trace.self_sum_s": sum(selfs),
    }


def per_layer(jobs: list[dict], interior_cells: int) -> tuple[dict, dict]:
    traced = [layer_metrics(j, interior_cells) for j in jobs if j["kind"] == "traced" and "spans" in j]
    untraced_wall = _median(j.get("wall_s") for j in jobs if j["kind"] == "job")
    traced_wall = _median(j.get("wall_s") for j in jobs if j["kind"] == "traced")
    metrics = {name: _median(m[name] for m in traced) for name in PER_LAYER if name != "trace.overhead_ratio"}
    ratio = traced_wall / untraced_wall if traced_wall and untraced_wall else None
    metrics["trace.overhead_ratio"] = ratio
    self_sum = _median(m["trace.self_sum_s"] for m in traced)
    accounting = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "self_time_sum_s": self_sum,
        "self_time_sum_over_untraced_wall": self_sum / untraced_wall if self_sum and untraced_wall else None,
        "self_s_by_span": traced[0]["self_s_by_span"] if traced else {},
    }
    return metrics, accounting


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="illushape benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    bench = Bench(w, args.seed, work)
    while True:
        kind = "traced" if args.trace and len(bench.jobs) % 2 == 1 else "job"
        bench.spawn(kind)
        elapsed = time.monotonic() - bench.t_start
        longest = max(j["duration_s"] for j in bench.jobs)
        if elapsed + longest > DEADLINE_S:
            break
        if len(bench.jobs) >= MIN_JOBS and elapsed + longest > args.seconds:
            break
    if not args.trace and time.monotonic() - bench.t_start < DEADLINE_S:
        for _ in range(SETUP_PROBES):
            bench.spawn("setup")

    if args.trace:
        interior = (w.size[0] - 2) * (w.size[1] - 2)
        metrics, accounting = per_layer(bench.jobs, interior)
        units = PER_LAYER
    else:
        metrics, accounting = end_to_end(bench.jobs), {}
        units = END_TO_END
    failed = sum(1 for j in bench.jobs if j["failures"])
    attempted = len(bench.jobs)
    result_set = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "shift": bench.shift,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "fail_ratio": failed / attempted,
        "trace_accounting": accounting,
        "predictions": workloads.PREDICTIONS,
        "jobs": [{k: v for k, v in j.items() if k not in ("spans", "summary")} for j in bench.jobs],
    }
    (work / "result.json").write_text(json.dumps(result_set, indent=1, sort_keys=True) + "\n")
    spans_out = [s for j in bench.jobs for s in j.get("spans", ())]
    (work / "spans.json").write_text(json.dumps(spans_out) + "\n")

    for j in bench.jobs:
        for f in j["failures"]:
            print(f"FAIL {j['kind']}: {f}")
    for name, value in metrics.items():
        print(f"{name:32s} {value!r:>24} {units[name]}")
    print(f"{'fail_ratio':32s} {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0 and all(v is not None for v in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
