"""Reading a CLI job's output directory and checking it against the paper's guarantees.

Every check returns a list of failure messages; an empty list means the job
passed.  The CSV is read by column name, so added columns do not break it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from illushape.cli import read_pgm

EL_RESIDUAL_MAX = 1e-4
IOU_MIN = 0.6
ENERGY_RTOL = 1e-9  # equivalence gate for fast paths: same final energy to 1e-9 relative
# Allowed pre-clamp excursion outside [0, 1], per unit of inner CG tolerance.  The
# solver clamps excursions up to 10x its tolerance and raises beyond; at the
# default tolerance 1e-10 this is the acceptance suite's 1e-9.
RANGE_SLACK_PER_TOL = 10.0
TIMING_FIELDS = ("elapsed_seconds",)


class OutputError(ValueError):
    """A job output is missing or malformed."""


@dataclass(frozen=True)
class JobOutput:
    energy_csv: bytes
    summary: dict
    energies: tuple[float, ...]
    cg_iters_per_step: tuple[int, ...]
    shape: np.ndarray  # bool, True inside the extracted shape

    @property
    def outer_steps(self) -> int:
        return len(self.energies)

    @property
    def cg_iters(self) -> int:
        return sum(self.cg_iters_per_step)


def shift_key(shift: tuple[int, int]) -> str:
    return f"{shift[0]},{shift[1]}"


def read(out_dir: Path) -> JobOutput:
    try:
        csv = (out_dir / "energy.csv").read_bytes()
        summary = json.loads((out_dir / "summary.json").read_text(encoding="ascii"))
        _, _, shape = read_pgm(out_dir / "shape.pgm")
        read_pgm(out_dir / "final_phase.pgm")
        lines = csv.decode("ascii").splitlines()
        header = lines[0].split(",")
        e_col, cg_col = header.index("energy"), header.index("cg_iters")
        rows = [line.split(",") for line in lines[1:]]
        energies = tuple(float(r[e_col]) for r in rows)
        cg = tuple(int(r[cg_col]) for r in rows)
    except (OSError, ValueError, IndexError) as exc:
        raise OutputError(f"unreadable outputs in {out_dir.name}: {exc}") from exc
    if not energies:
        raise OutputError("energy.csv has no rows")
    return JobOutput(csv, summary, energies, cg, shape > 0)


def check(w, out: JobOutput, inducers: np.ndarray, ideal: np.ndarray | None, ref: dict) -> list[str]:
    """The output checks of one job; ``w`` is a ``workloads.Workload``."""
    failures = []
    s = out.summary
    e = np.array(out.energies)
    slack = 1e-9 * (1.0 + e[0])
    if np.any(np.diff(e) > slack):
        failures.append(f"energy rises by {np.diff(e).max():.3e} > slack {slack:.3e}")
    if s.get("iterations") != out.outer_steps:
        failures.append(f"summary iterations {s.get('iterations')} != {out.outer_steps} CSV rows")
    if w.converged and not s.get("el_residual", np.inf) <= EL_RESIDUAL_MAX:
        failures.append(f"el_residual {s.get('el_residual')} > {EL_RESIDUAL_MAX}")
    if s.get("component_count") != w.components:
        failures.append(f"{s.get('component_count')} components, want {w.components}")
    if int(out.shape.sum()) != sum(s.get("component_areas", ())):
        failures.append("shape.pgm cell count differs from the summed component areas")
    if ideal is not None:
        if np.any(out.shape & inducers):
            failures.append("shape overlaps the inducers")
        union = np.logical_or(out.shape, ideal).sum()
        overlap = np.logical_and(out.shape, ideal).sum() / union if union else 1.0
        if overlap < IOU_MIN:
            failures.append(f"IoU {overlap:.3f} < {IOU_MIN} against the ideal triangle")
    failures += check_reference(w, s, ref)
    return failures


def check_reference(w, summary: dict, ref: dict) -> list[str]:
    failures = []
    energy, want = summary.get("final_energy", np.nan), ref["final_energy"]
    tol = ENERGY_RTOL * abs(want)
    ok = abs(energy - want) <= tol if w.converged else energy <= want + tol
    if not ok:
        failures.append(f"final energy {energy!r} vs reference {want!r}")
    if list(summary.get("component_areas", ())) != ref["component_areas"]:
        failures.append(f"component areas {summary.get('component_areas')} != {ref['component_areas']}")
    if summary.get("component_count") != ref["component_count"]:
        failures.append(f"component count {summary.get('component_count')} != {ref['component_count']}")
    return failures


def check_report(gates: dict, cg_tol: float) -> list[str]:
    """Runtime guarantees read from the solver's IterationReport (traced jobs)."""
    failures = []
    if gates["energy_increases"]:
        failures.append(f"{gates['energy_increases']} energy increases beyond slack")
    if gates["drop_bound_misses"]:
        failures.append(f"{gates['drop_bound_misses']} steps with rho < drop_bound - slack")
    limit = RANGE_SLACK_PER_TOL * cg_tol
    if gates["range_excursion_max"] > limit:
        failures.append(f"pre-clamp excursion {gates['range_excursion_max']:.3e} > {limit:.1e}")
    return failures


def report_gates(report) -> dict:
    """Counts of broken per-step guarantees in a ``solver.IterationReport``."""
    steps = report.steps
    slack = 1e-9 * (1.0 + steps[0].energy)
    rises = np.diff([s.energy for s in steps])
    return {
        "energy_increases": int(np.sum(rises > slack)),
        "drop_bound_misses": sum(1 for s in steps[:-1] if not s.rho >= s.drop_bound - slack),
        "range_excursion_max": max(max(0.0, -s.pre_clamp_min, s.pre_clamp_max - 1.0) for s in steps),
    }


def deterministic_view(out: JobOutput) -> tuple[bytes, dict]:
    """What two runs of one input must reproduce byte for byte."""
    summary = {k: v for k, v in out.summary.items() if k not in TIMING_FIELDS}
    return out.energy_csv, summary
