"""Record the reference outcome of every workload at every seeded shift.

Runs each job in-process on the current sources and writes
``perfbench/reference.json``: final energy, component count and areas (the
values every benchmark run is checked against), plus the outer-step and CG
counts for information.  Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/reference.py [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import outputs  # noqa: E402
import workloads  # noqa: E402
from illushape.cli import run_command  # noqa: E402

REFERENCE = HERE / "reference.json"


def record(w: workloads.Workload, shift: tuple[int, int], work: Path) -> dict:
    image = work / "input.pgm"
    workloads.write_input(w, workloads.inducers(w, shift), image)
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    code = run_command(workloads.job_argv(w, image, out))
    if code != w.exit_status:
        raise SystemExit(f"{w.name} {shift}: exit status {code}, want {w.exit_status}")
    result = outputs.read(out)
    return {
        "final_energy": result.summary["final_energy"],
        "component_count": result.summary["component_count"],
        "component_areas": result.summary["component_areas"],
        "outer_steps": result.outer_steps,
        "cg_iters": result.cg_iters,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    work = HERE.parent / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    for name in args.workload or list(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name]
        entries = {}
        for shift in workloads.SHIFTS:
            entries[outputs.shift_key(shift)] = record(w, shift, work)
            print(name, shift, entries[outputs.shift_key(shift)], flush=True)
        table[name] = entries
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
