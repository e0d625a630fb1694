"""One benchmark job in a fresh process: set up, run the CLI job, report timings.

Usage (spawned by ``run.py``):

    python3 perfbench/job.py --spawned T --result OUT.json --input PGM [--run-id ID]
        [--trace] [--setup-only] -- ARGV...

``--spawned`` is the parent's ``time.monotonic()`` just before the spawn, so
``setup_s`` covers interpreter start, imports, ``cli.load_mask`` and
``solver.default_model``.  Then ``cli.run_command(ARGV)`` is timed as the job.
With ``--trace`` the calls into each layer are recorded as spans, the
solver's ``IterationReport`` is audited, and one ``apply_operator`` call on
the null-hypothesis iterate is timed in isolation after the job.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import outputs  # noqa: E402
import spans  # noqa: E402
from illushape import cli, elliptic, solver  # noqa: E402

# (module, attribute a caller looks up, span name)
TRACED = (
    (cli, "load_mask", "cli.load_mask"),
    (cli, "default_model", "solver.default_model"),
    (solver, "build_canyon", "canyon.build_canyon"),
    (solver, "linearize", "elliptic.linearize"),
    (solver, "cg_solve", "elliptic.cg_solve"),
    (solver, "apply_operator", "elliptic.apply_operator"),
    (solver, "total_energy", "energy.total_energy"),
    (solver, "energy_drop_bound", "energy.energy_drop_bound"),
    (solver, "rms_diff", "grid.rms_diff"),
    (solver, "euler_lagrange_residual", "solver.euler_lagrange_residual"),
    (cli, "extract_shape", "shape.extract_shape"),
    (cli, "connected_components", "shape.connected_components"),
    (cli, "save_field_image", "cli.save_field_image"),
    (cli, "write_pgm", "cli.write_pgm"),
)
APPLY_TIMING_S = 0.2


def traced_job(argv: list[str], run_id: str) -> tuple[int, dict]:
    tracer = spans.Tracer(run_id)
    kept = {}
    for module, attr, name in TRACED:
        tracer.patch(module, attr, name)
    tracer.patch(cli, "run", "solver.run", on_return=lambda out: kept.update(report=out[1]))
    try:
        code = tracer.wrap("cli.run_command", cli.run_command)(argv)
    finally:
        tracer.restore()
    extra = {"spans": [asdict(s) for s in tracer.spans]}
    if "report" in kept:
        extra["gates"] = outputs.report_gates(kept["report"])
    return code, extra


def apply_operator_us(mask, model) -> float:
    """Median microseconds of one matvec at the null-hypothesis iterate."""
    z = solver.null_hypothesis(mask)
    data = elliptic.linearize(z, model)
    samples = []
    stop = time.perf_counter() + APPLY_TIMING_S
    while len(samples) < 10 or time.perf_counter() < stop:
        t0 = time.perf_counter()
        elliptic.apply_operator(z, data, model)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e6


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()

    mask = cli.load_mask(args.input)
    model = solver.default_model(mask)
    result = {"setup_s": time.monotonic() - args.spawned}
    if not args.setup_only:
        cpu0, t0 = time.process_time(), time.perf_counter()
        if args.trace:
            code, extra = traced_job(args.argv, args.run_id)
        else:
            code, extra = cli.run_command(args.argv), {}
        result.update(
            wall_s=time.perf_counter() - t0,
            cpu_s=time.process_time() - cpu0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            exit_code=code,
            **extra,
        )
        if args.trace:
            result["apply_operator_us"] = apply_operator_us(mask, model)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
