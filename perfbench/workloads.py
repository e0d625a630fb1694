"""The benchmark's workloads, their seeded inputs, and the prediction table.

A workload is one inducer image plus the CLI flags it runs with.  Seed 0 is
the stock fixture; any other seed translates the inducers (and the ideal
shape used for the overlap check) sideways by up to ``MAX_SHIFT`` cells,
which stays inside every fixture's margin.  Shifts are horizontal only: each
cell of vertical shift changes the ellipse-triangle step count by about 1.4%,
which would mix input difficulty into the run-to-run spread of the timings.
The program only ever sees the generated PGM and the argv.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from illushape.canyon import ConfigurationMask
from illushape.fixtures import (
    ellipse_triangle,
    ideal_triangle_shape,
    kanizsa_triangle,
    mask_to_pixels,
)
from illushape.grid import GridGeometry

MAX_SHIFT = 2
SHIFTS = tuple((0, dx) for dx in range(-MAX_SHIFT, MAX_SHIFT + 1))  # (rows, cols)
CONVERGED, BUDGET = 0, 2  # CLI exit statuses the workloads expect


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: tuple[int, int]  # (width, height)
    inducers: Callable  # (width, height) -> ConfigurationMask
    plain_pgm: bool  # P2 text instead of raw P5
    flags: tuple[str, ...]
    exit_status: int
    components: int
    ideal: Callable | None = None  # (width, height) -> ShapeMask of a converged figure

    @property
    def converged(self) -> bool:
        return self.exit_status == CONVERGED


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="kanizsa-128",
            why="README example: 499 cache-resident outer steps where cg_solve is ~90% "
            "of wall time, so outer-step and per-CG-iteration changes show here",
            size=(128, 128),
            inducers=kanizsa_triangle,
            plain_pgm=False,
            flags=(),
            exit_status=CONVERGED,
            components=1,
            ideal=ideal_triangle_shape,
        ),
        Workload(
            name="ellipse-triangle-192x128-cgtol6",
            why="non-square splitting case with loose inner solves (~29 CG iterations "
            "per step), so fixed per-step work weighs twice as much as on kanizsa-128",
            size=(192, 128),
            inducers=ellipse_triangle,
            plain_pgm=False,
            flags=("--cg-tol", "1e-6"),
            exit_status=CONVERGED,
            components=2,
        ),
        Workload(
            name="kanizsa-512-p2-budget10",
            why="large plain-P2 preview pinned at 10 outer steps: arrays spill L2, and "
            "P2 parsing and labeling carry ~16% of the job; step cuts must not move it",
            size=(512, 512),
            inducers=kanizsa_triangle,
            plain_pgm=True,
            flags=("--max-outer", "10"),
            exit_status=BUDGET,
            components=1,  # after 10 steps the shape still covers the inducers: no IoU check
        ),
    )
}

# Which end-to-end metric each traced layer metric should move, and where.
# A perf change names the rows it expects to move; the rest predict "no change".
PREDICTIONS = (
    ("elliptic.cg_solve_s, elliptic.cg_iter_us, elliptic.cg_cells_per_s",
     "wall_s, cpu_s", "all three; most at stake on kanizsa-128 (~90%), "
     "memory-bound case on kanizsa-512-p2-budget10"),
    ("elliptic.apply_operator_us", "wall_s", "most on kanizsa-512-p2-budget10 (512^2 vs 128^2)"),
    ("elliptic.linearize_s, energy.total_energy_s, energy.drop_bound_s, "
     "grid.rms_diff_s, solver.self_s", "wall_s",
     "mostly ellipse-triangle-192x128-cgtol6 (~12%); little on kanizsa-512-p2-budget10 (~3%)"),
    ("solver.run_s, solver.step_ms, solver.el_residual_s", "wall_s via outer_steps",
     "the two converged workloads; nothing on kanizsa-512-p2-budget10 (budget pins steps)"),
    ("shape.components_s, shape.extract_s", "wall_s",
     "kanizsa-512-p2-budget10 only; below 0.1% at 128^2"),
    ("cli.load_mask_s, canyon.build_s", "setup_s",
     "kanizsa-512-p2-budget10 (P2 parse); P5 128^2 inputs take under 5 ms"),
    ("cli.save_images_s, cli.self_s", "wall_s", "kanizsa-512-p2-budget10"),
    ("solver.energy_increases, solver.drop_bound_misses, solver.range_excursion_max",
     "failed / attempted", "all three"),
)


def shift_for_seed(seed: int) -> tuple[int, int]:
    """(rows, cols) translation of the inducers; seed 0 is the stock fixture."""
    if seed == 0:
        return (0, 0)
    return SHIFTS[int(np.random.default_rng(abs(seed)).integers(len(SHIFTS)))]


def _shifted(inside: np.ndarray, shift: tuple[int, int]) -> np.ndarray:
    return np.roll(inside, shift, axis=(0, 1))


def inducers(w: Workload, shift: tuple[int, int]) -> np.ndarray:
    """Boolean inducer mask of the workload, translated by ``shift``."""
    inside = _shifted(w.inducers(*w.size).inside, shift)
    if inside[0].any() or inside[-1].any() or inside[:, 0].any() or inside[:, -1].any():
        raise ValueError(f"shift {shift} pushes the {w.name} inducers onto the border")
    return inside


def ideal_shape(w: Workload, shift: tuple[int, int]) -> np.ndarray | None:
    return None if w.ideal is None else _shifted(w.ideal(*w.size).inside, shift)


def write_input(w: Workload, inside: np.ndarray, path: Path) -> None:
    """Write dark-inducers-on-white as P5, or as P2 with lines under 70 characters."""
    pixels = mask_to_pixels(ConfigurationMask(GridGeometry(*w.size), inside))
    height, width = pixels.shape
    magic = "P2" if w.plain_pgm else "P5"
    header = f"{magic}\n{width} {height}\n255\n".encode("ascii")
    if not w.plain_pgm:
        path.write_bytes(header + pixels.tobytes())
        return
    flat = [str(v) for v in pixels.ravel()]
    lines = (" ".join(flat[i : i + 16]) for i in range(0, len(flat), 16))
    path.write_bytes(header + "\n".join(lines).encode("ascii") + b"\n")


def job_argv(w: Workload, image: Path, out_dir: Path) -> list[str]:
    return ["--input", str(image), "--out-dir", str(out_dir), *w.flags]
