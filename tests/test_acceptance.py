"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
measurements.
"""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from illushape import (
    CgParams,
    PhaseField,
    SolverConfig,
    cg_solve,
    connected_components,
    default_model,
    extract_shape,
    iou,
    null_hypothesis,
    run,
    step,
)
from illushape.cli import run_command, write_pgm
from illushape.fixtures import (
    ellipse_triangle,
    ideal_triangle_shape,
    kanizsa_triangle,
    kanizsa_vertices,
    mask_to_pixels,
)

from helpers import (
    dense_solve_oracle,
    first_variation,
    profile_measure_1d,
    random_instance,
    random_phase,
    surrogate_energy,
)


@pytest.fixture(scope="module")
def kanizsa():
    mask = kanizsa_triangle(128, 128)
    cfg = SolverConfig(model=default_model(mask))
    # process CPU time, so other jobs sharing the machine do not count against the run
    t0 = time.process_time()
    field, report = run(cfg)
    elapsed = time.process_time() - t0
    return SimpleNamespace(mask=mask, cfg=cfg, field=field, report=report, elapsed=elapsed)


@pytest.fixture(scope="module")
def split_run():
    mask = ellipse_triangle()
    cfg = SolverConfig(model=default_model(mask))
    field, report = run(cfg)
    return SimpleNamespace(mask=mask, field=field, report=report)


def test_criterion_01_one_sixth_law():
    t0 = time.perf_counter()
    value = profile_measure_1d(1.0 / 64.0, 0.5, 8192)
    elapsed = time.perf_counter() - t0
    assert 0.1650 <= value <= 0.1683
    assert elapsed < 1.0
    print(f"criterion 1 PASS: 1-D profile measure {value:.6f} in [0.1650, 0.1683] "
          f"({elapsed * 1e3:.1f} ms)")


def test_criterion_02_cg_matches_dense_oracle():
    from illushape import GridGeometry

    rng = np.random.default_rng(2024)
    geom = GridGeometry(16, 16)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        data, model = random_instance(geom, rng)
        solution, _ = cg_solve(data, model, CgParams())
        reference = dense_solve_oracle(data, model)
        worst = max(worst, float(np.abs(solution.values - reference.values).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 10.0
    print(f"criterion 2 PASS: max |cg - dense| = {worst:.3e} over 50 instances "
          f"({elapsed:.2f} s)")


def test_criterion_03_range_preservation(kanizsa):
    lo = min(s.pre_clamp_min for s in kanizsa.report.steps)
    hi = max(s.pre_clamp_max for s in kanizsa.report.steps)
    assert lo >= -1e-9
    assert hi <= 1.0 + 1e-9
    print(f"criterion 3 PASS: pre-clamp iterate range [{lo:.3e}, {hi:.10f}] "
          f"within [-1e-9, 1+1e-9]")


def test_criterion_04_energy_monotonicity_and_drop_bound(kanizsa):
    energies = kanizsa.report.energies()
    slack = 1e-9 * (1.0 + energies[0])
    diffs = np.diff(energies)
    assert np.all(diffs <= slack)
    worst_gap = 0.0
    for record in kanizsa.report.steps[:-1]:
        gap = record.drop_bound - record.rho
        worst_gap = max(worst_gap, gap)
        assert record.rho >= record.drop_bound - slack
    print(f"criterion 4 PASS: energy non-increasing over {len(energies)} steps "
          f"(max rise {diffs.max():.3e}); decrease bound met (worst slack "
          f"{worst_gap:.3e})")


def test_criterion_05_surrogate_stationarity(kanizsa):
    rng = np.random.default_rng(5)
    cfg = kanizsa.cfg
    sampled = {1, 3, 7, 15, 25}
    z = null_hypothesis(kanizsa.mask)
    worst = 0.0
    for n in range(1, max(sampled) + 1):
        z_next, _ = step(z, cfg)
        if n in sampled:
            scale = 1e-8 * (1.0 + abs(surrogate_energy(z_next, z, cfg.model)))
            for _ in range(10):
                u = random_phase(kanizsa.mask.geometry, rng, lo=-1.0, hi=1.0)
                j = abs(first_variation(z_next, u, z, cfg.model))
                worst = max(worst, j / scale)
                assert j <= scale
        z = z_next
    print(f"criterion 5 PASS: |first variation| at steps {sorted(sampled)} at most "
          f"{worst:.3f} of the 1e-8 budget")


def test_criterion_06_euler_lagrange_residual(kanizsa):
    assert kanizsa.report.status == "converged"
    assert kanizsa.report.el_residual <= 1e-4
    print(f"criterion 6 PASS: interior RMS nonlinear residual "
          f"{kanizsa.report.el_residual:.3e} <= 1e-4")


def test_criterion_07_nonempty_illusory_shape(kanizsa):
    report = kanizsa.report
    assert report.status == "converged"
    assert len(report.steps) < 3000
    assert kanizsa.elapsed < 60.0
    assert np.any(kanizsa.field.values > 0.0)

    shape = extract_shape(kanizsa.field)
    assert shape.count() > 0
    assert not np.any(shape.inside & kanizsa.mask.inside)

    geom = kanizsa.mask.geometry
    verts = kanizsa_vertices(geom)
    cx = sum(v[0] for v in verts) / 3.0
    cy = sum(v[1] for v in verts) / 3.0
    ci, cj = int(cy / geom.h), int(cx / geom.h)
    assert shape.inside[ci, cj]

    overlap = iou(shape, ideal_triangle_shape(128, 128))
    assert overlap >= 0.6
    print(f"criterion 7 PASS: converged in {len(report.steps)} iterations "
          f"({kanizsa.elapsed:.1f} s CPU); shape {shape.count()} cells, disjoint from Q, "
          f"contains the notch-apex centroid, IoU {overlap:.3f} >= 0.6")


def test_criterion_08_topological_splitting(split_run):
    assert split_run.report.status == "converged"
    shape = extract_shape(split_run.field)
    components = connected_components(shape)
    assert components.count == 2
    print(f"criterion 8 PASS: ellipse+triangle run split into exactly 2 components "
          f"(areas {components.areas})")


def test_criterion_09_zero_fixed_point(kanizsa):
    field, report = run(kanizsa.cfg, initial=PhaseField.zeros(kanizsa.mask.geometry))
    assert report.status == "converged"
    assert len(report.steps) == 1
    assert report.steps[0].energy == 0.0
    assert extract_shape(field).count() == 0
    print("criterion 9 PASS: zero start converged in 1 step with zero energy "
          "and empty shape")


def test_criterion_10_cli_determinism(tmp_path):
    image = tmp_path / "kanizsa.pgm"
    write_pgm(image, mask_to_pixels(kanizsa_triangle(128, 128)))
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = run_command(["--input", str(image), "--out-dir", str(out)])
        assert code == 0
        outs.append(out)

    csv_a = (outs[0] / "energy.csv").read_bytes()
    csv_b = (outs[1] / "energy.csv").read_bytes()
    assert csv_a == csv_b

    summaries = []
    for out in outs:
        data = json.loads((out / "summary.json").read_text())
        data.pop("elapsed_seconds")
        summaries.append(data)
    assert summaries[0] == summaries[1]
    print(f"criterion 10 PASS: two CLI runs byte-identical "
          f"({len(csv_a)} bytes of energy.csv; summaries match minus wall time)")
