import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import illushape
from illushape import (
    CgParams,
    PhaseField,
    RangePreservationError,
    SolverConfig,
    StartSubspace,
    default_model,
    extract_shape,
    null_hypothesis,
    presmooth,
    run,
    step,
    total_energy,
)
from illushape import solver
from illushape.fixtures import ellipse_triangle, illusory_disk, kanizsa_triangle

from helpers import above_one, plain_run, random_phase, surrogate_energy


@pytest.fixture(scope="module")
def small_setup():
    mask = kanizsa_triangle(32, 32)
    return mask, SolverConfig(model=default_model(mask))


def test_null_hypothesis_values(small_setup):
    mask, _ = small_setup
    z0 = null_hypothesis(mask)
    inside = mask.inside
    assert np.all(z0.values[inside] == 0.0)
    interior_out = ~inside
    interior_out[0, :] = interior_out[-1, :] = False
    interior_out[:, 0] = interior_out[:, -1] = False
    assert np.all(z0.values[interior_out] == 1.0)
    assert np.all(z0.values[0, :] == 0.0)
    assert np.all(z0.values[:, -1] == 0.0)


def test_presmooth_identity_and_fixed_point(small_setup):
    mask, _ = small_setup
    z0 = null_hypothesis(mask)
    assert presmooth(z0, 0) is z0
    zeros = PhaseField.zeros(mask.geometry)
    out = presmooth(zeros, 25)
    assert np.all(out.values == 0.0)


def test_presmooth_stays_in_unit_range():
    rng = np.random.default_rng(3)
    from illushape import GridGeometry

    geom = GridGeometry(20, 20)
    for _ in range(5):
        z = random_phase(geom, rng)
        out = presmooth(z, 30)
        assert out.values.min() >= 0.0
        assert out.values.max() <= 1.0
        assert np.all(out.values[0, :] == 0.0)


def test_step_zero_is_exact_fixed_point(small_setup):
    mask, cfg = small_setup
    z1, stats = step(PhaseField.zeros(mask.geometry), cfg)
    assert np.all(z1.values == 0.0)
    assert stats.cg_iters == 0
    assert stats.cg_residual == 0.0


def test_step_preserves_unit_range(small_setup):
    mask, cfg = small_setup
    rng = np.random.default_rng(7)
    for _ in range(3):
        z = random_phase(mask.geometry, rng)
        z1, stats = step(z, cfg)
        assert z1.values.min() >= 0.0
        assert z1.values.max() <= 1.0
        excursion = max(-stats.pre_clamp_min, stats.pre_clamp_max - 1.0, 0.0)
        assert excursion <= 10.0 * cfg.cg.rel_tol


def test_step_minimizes_surrogate(small_setup):
    mask, cfg = small_setup
    rng = np.random.default_rng(11)
    z_n = null_hypothesis(mask)
    z1, _ = step(z_n, cfg)
    base = surrogate_energy(z1, z_n, cfg.model)
    for _ in range(20):
        u = random_phase(mask.geometry, rng, lo=-1.0, hi=1.0)
        t = rng.uniform(-0.1, 0.1)
        w = PhaseField(mask.geometry, z1.values + t * u.values)
        assert base <= surrogate_energy(w, z_n, cfg.model) + 1e-12


def test_run_converges_and_decreases_energy(small_setup):
    _, cfg = small_setup
    z, report = run(cfg)
    assert report.status == "converged"
    energies = report.energies()
    slack = 1e-9 * (1.0 + energies[0])
    assert np.all(np.diff(energies) <= slack)
    for record in report.steps[:-1]:
        assert record.rho >= record.drop_bound - 1e-8 * (1.0 + energies[0])
    assert math.isnan(report.steps[-1].rho)
    assert report.el_residual <= 100.0 * cfg.delta
    # iterates keep the zero trace
    assert np.all(z.values[0, :] == 0.0)
    assert np.all(z.values[:, 0] == 0.0)


def _same_record(a, b) -> bool:
    """Field-by-field equality of two step records, NaN matching NaN."""
    return all(
        x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))
        for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b), strict=True)
    )


def test_run_is_deterministic(small_setup):
    _, cfg = small_setup
    _, first = run(cfg)
    _, second = run(cfg)
    assert first.status == second.status
    assert first.el_residual == second.el_residual
    assert len(first.steps) == len(second.steps)
    assert all(_same_record(a, b) for a, b in zip(first.steps, second.steps))


RUN_BYTES = """
import hashlib
from illushape import SolverConfig, default_model, run
from illushape.fixtures import kanizsa_triangle
mask = kanizsa_triangle(128, 128)
z, report = run(SolverConfig(model=default_model(mask), max_outer=8))
assert len(report.steps) == 8 and report.steps[-1].start_rank > 0
print(hashlib.sha256(z.values.tobytes()).hexdigest())
"""


def test_step_does_not_depend_on_blas_threads():
    # a threaded BLAS dot splits its sum by thread count; the solve must not use
    # one, and eight steps cover the projected start and its small solve
    src = str(Path(illushape.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", RUN_BYTES], env=env, capture_output=True, text=True, check=True
        )
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


@pytest.mark.parametrize(
    "make_mask, rel_tol",
    [
        (lambda: kanizsa_triangle(128, 128), 1e-10),
        (ellipse_triangle, 1e-10),
        (illusory_disk, 1e-10),
        (lambda: kanizsa_triangle(128, 128), 1e-6),
        (illusory_disk, 1e-6),
    ],
    ids=["kanizsa-128", "ellipse-triangle", "disk", "kanizsa-128-cgtol6", "disk-cgtol6"],
)
def test_predicted_start_keeps_the_plain_trajectory(make_mask, rel_tol):
    # the projected start changes the work, not the result: at the default tolerance
    # the same steps and final energy to 1e-12, at a loose one steps within 1 and
    # final energy to 1e-9
    loose = rel_tol > CgParams().rel_tol
    mask = make_mask()
    cfg = SolverConfig(model=default_model(mask), cg=CgParams(rel_tol=rel_tol))
    z, report = run(cfg)
    z_plain, plain = plain_run(cfg)
    assert report.status == plain.status == "converged"
    assert abs(len(report.steps) - len(plain.steps)) <= (1 if loose else 0)
    energy, want = report.steps[-1].energy, plain.steps[-1].energy
    assert abs(energy - want) <= (1e-9 if loose else 1e-12) * abs(want)
    assert np.array_equal(extract_shape(z).inside, extract_shape(z_plain).inside)
    slack = 1e-9 * (1.0 + report.steps[0].energy)
    assert all(s.rho >= s.drop_bound - slack for s in report.steps[:-1])
    excursion = max(max(-s.pre_clamp_min, s.pre_clamp_max - 1.0, 0.0) for s in report.steps)
    assert excursion <= 10.0 * rel_tol
    assert report.steps[0].start_rank == 0
    assert any(s.start_rank > 0 for s in report.steps)
    assert sum(s.cg_iters for s in report.steps) < sum(s.cg_iters for s in plain.steps)


def test_step_retries_a_projected_start_that_leaves_the_range(small_setup, monkeypatch):
    mask, cfg = small_setup
    z0 = null_hypothesis(mask)
    z1, _ = step(z0, cfg)
    z2, _ = step(z1, cfg)
    ring = StartSubspace(solver.START_DIRECTIONS)
    ring.push(z1.values, z0.values)
    ring.push(z2.values, z1.values)
    want, plain = step(z2, cfg)

    real_cg_solve = solver.cg_solve
    solves = []

    def projected_out_of_range(*args, subspace=None, **kwargs):
        solution, stats = real_cg_solve(*args, subspace=subspace, **kwargs)
        solves.append(stats)
        return (above_one(solution) if subspace is not None and subspace.count else solution), stats

    monkeypatch.setattr(solver, "cg_solve", projected_out_of_range)
    z3, record = step(z2, cfg, ring)
    first, second = solves
    assert first.start_rank > 0 and second.start_rank == 0
    # the retry solves from z_n as a step without a subspace does, and keeps its outcome
    assert np.array_equal(z3.values, want.values)
    assert record.retried == 1 and plain.retried == 0
    assert record.cg_iters == first.iterations + second.iterations == first.iterations + plain.cg_iters
    assert record.full_applications == first.full_applications + plain.full_applications
    assert record.reduced_applications == first.reduced_applications + plain.reduced_applications
    assert (record.cg_residual, record.start_rank) == (plain.cg_residual, 0)
    assert (record.pre_clamp_min, record.pre_clamp_max) == (plain.pre_clamp_min, plain.pre_clamp_max)

    # when the retry leaves the range as well, the step raises
    def out_of_range(*args, **kwargs):
        solution, stats = real_cg_solve(*args, **kwargs)
        solves.append(stats)
        return above_one(solution), stats

    solves.clear()
    monkeypatch.setattr(solver, "cg_solve", out_of_range)
    with pytest.raises(RangePreservationError, match="pre-clamp excursion 1.000e-03"):
        step(z2, cfg, ring)
    assert len(solves) == 2


def test_run_from_zero_field_stops_immediately(small_setup):
    mask, cfg = small_setup
    z, report = run(cfg, initial=PhaseField.zeros(mask.geometry))
    assert report.status == "converged"
    assert len(report.steps) == 1
    assert report.steps[0].energy == 0.0
    assert extract_shape(z).count() == 0


def test_run_respects_outer_budget(small_setup):
    mask, _ = small_setup
    cfg = SolverConfig(model=default_model(mask), max_outer=3)
    _, report = run(cfg)
    assert report.status == "max_outer_reached"
    assert len(report.steps) == 3


def test_run_emits_read_only_snapshots(small_setup):
    # the one step hook sees every step in order, with its record and iterate
    mask, _ = small_setup
    cfg = SolverConfig(model=default_model(mask), max_outer=5)
    seen = []

    def sink(record, field):
        seen.append(record.index)
        assert record.energy == total_energy(field, cfg.model)
        with pytest.raises(ValueError):
            field.values[1, 1] = 2.0

    _, report = run(cfg, step_sink=sink)
    assert seen == [s.index for s in report.steps] == list(range(1, 6))


def test_run_energy_matches_recomputation(small_setup):
    # the recorded final energy equals total_energy of the returned field
    _, cfg = small_setup
    z, report = run(cfg)
    assert report.steps[-1].energy == total_energy(z, cfg.model)


def test_config_validation(small_setup):
    mask, _ = small_setup
    model = default_model(mask)
    with pytest.raises(ValueError):
        SolverConfig(model=model, delta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(model=model, max_outer=0)
    with pytest.raises(ValueError):
        presmooth(null_hypothesis(mask), -1)
