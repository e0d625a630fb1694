import csv
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import illushape
from illushape import (
    CgParams,
    PhaseField,
    RangePreservationError,
    SolverConfig,
    default_model,
    energy_drop_bound,
    euler_lagrange_residual,
    extract_shape,
    null_hypothesis,
    rms_diff,
    run,
    total_energy,
)
from illushape import elliptic, solver
from illushape.cli import load_mask, run_command, write_pgm
from illushape.fixtures import ellipse_triangle, illusory_disk, kanizsa_triangle

from helpers import (
    above_one,
    plain_run,
    random_phase,
    reference_run,
    reference_step,
    rhs_doubled_after,
    surrogate_energy,
    true_range_bound,
    true_relative_residual,
)


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


def test_step_preserves_unit_range(small_setup):
    mask, cfg = small_setup
    rng = np.random.default_rng(7)
    for _ in range(3):
        z = random_phase(mask.geometry, rng)
        z1, stats = reference_step(z, cfg, None)
        assert z1.values.min() >= 0.0
        assert z1.values.max() <= 1.0
        excursion = max(-stats.pre_clamp_min, stats.pre_clamp_max - 1.0, 0.0)
        assert excursion <= 10.0 * cfg.cg.rel_tol


def test_step_minimizes_surrogate(small_setup):
    mask, cfg = small_setup
    rng = np.random.default_rng(11)
    z_n = null_hypothesis(mask)
    z1, _ = reference_step(z_n, cfg, None)
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
    energies = [s.energy for s in report.steps]
    slack = 1e-9 * (1.0 + energies[0])
    assert np.all(np.diff(energies) <= slack)
    # every step, the first included, carries its own drop and bound
    for record in report.steps:
        assert record.rho >= -slack
        assert record.rho >= record.drop_bound - 1e-8 * (1.0 + energies[0])
    assert report.el_residual <= 100.0 * cfg.delta
    # iterates keep the zero trace
    assert np.all(z.values[0, :] == 0.0)
    assert np.all(z.values[:, 0] == 0.0)


def test_run_is_deterministic(small_setup):
    _, cfg = small_setup
    _, first = run(cfg)
    _, second = run(cfg)
    assert first.status == second.status
    assert first.el_residual == second.el_residual
    assert first.steps == second.steps  # no field is NaN


RUN_BYTES = """
import hashlib
from illushape import SolverConfig, StartSubspace, default_model, run
from illushape.fixtures import kanizsa_triangle
push, slots = StartSubspace.push, []
def logged_push(self, new, old):
    slots.append((self.evict, self.newest))
    push(self, new, old)
StartSubspace.push = logged_push
mask = kanizsa_triangle(128, 128)
z, report = run(SolverConfig(model=default_model(mask), max_outer=110))
assert len(report.steps) == 110 and report.steps[-1].start_rank > 0
# every push on the full ring follows a start that chose its row, and the
# first choice other than the row after the newest comes at step 103
assert all(evict is not None for evict, _ in slots[6:])
assert any(evict not in (None, (newest + 1) % 6) for evict, newest in slots[:-1])
print(hashlib.sha256(z.values.tobytes()).hexdigest(), slots)
"""


def test_step_does_not_depend_on_blas_threads():
    # a threaded BLAS dot splits its sum by thread count; the solve must not use
    # one, and 110 steps cover the projected start, its small solve, and the
    # ring's choice of the row to overwrite, read from eigh's eigenvectors
    src = str(Path(illushape.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", RUN_BYTES], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(done.stdout.strip())
    assert len(outputs[0].split()[0]) == 64
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "make_mask, rel_tol",
    [
        (lambda: kanizsa_triangle(128, 128), 1e-10),
        (ellipse_triangle, 1e-10),
        (illusory_disk, 1e-10),
        (lambda: kanizsa_triangle(128, 128), 1e-6),
        (illusory_disk, 1e-6),
        # odd widths pad every other row of the compact red-black arrays
        (lambda: illusory_disk(101, 97), 1e-10),
        (lambda: illusory_disk(101, 97), 1e-6),
    ],
    ids=[
        "kanizsa-128", "ellipse-triangle", "disk", "kanizsa-128-cgtol6", "disk-cgtol6",
        "disk-101x97", "disk-101x97-cgtol6",
    ],
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
    assert all(s.rho >= s.drop_bound - slack for s in report.steps)
    excursion = max(max(-s.pre_clamp_min, s.pre_clamp_max - 1.0, 0.0) for s in report.steps)
    assert excursion <= 10.0 * rel_tol
    assert report.steps[0].start_rank == 0
    assert any(s.start_rank > 0 for s in report.steps)
    assert sum(s.cg_iters for s in report.steps) < sum(s.cg_iters for s in plain.steps)


def _assert_same_run(got, want) -> None:
    """Two runs' records, final fields and stationarity residuals, bit for bit."""
    (z, report), (z_want, wanted) = got, want
    assert report.status == wanted.status
    assert [repr(dataclasses.astuple(s)) for s in report.steps] == [
        repr(dataclasses.astuple(s)) for s in wanted.steps
    ]
    assert z.values.tobytes() == z_want.values.tobytes()
    assert repr(report.el_residual) == repr(wanted.el_residual)


@pytest.mark.parametrize(
    "make_mask, rel_tol, max_outer",
    [
        (lambda: kanizsa_triangle(64, 64), 1e-10, 5000),
        (ellipse_triangle, 1e-6, 40),
        # the odd width pads every other row of the compact red-black arrays
        (lambda: illusory_disk(101, 97), 1e-10, 5000),
    ],
    ids=["kanizsa-64", "ellipse-triangle-cgtol6", "disk-101x97"],
)
def test_run_workspace_matches_the_allocating_reference(make_mask, rel_tol, max_outer):
    # the run reuses one workspace for every step; a loop of the public functions,
    # each allocating its own arrays, takes the same steps bit for bit
    cfg = SolverConfig(model=default_model(make_mask()), cg=CgParams(rel_tol=rel_tol), max_outer=max_outer)
    got = run(cfg)
    _assert_same_run(got, reference_run(cfg))
    assert any(s.start_rank > 0 for s in got[1].steps)


@pytest.mark.parametrize(
    "make_mask",
    [lambda: kanizsa_triangle(64, 64), lambda: illusory_disk(101, 97)],
    ids=["kanizsa-64", "disk-101x97"],
)
def test_run_with_one_row_bands_matches_the_default_run(make_mask, monkeypatch):
    # the default band covers these grids whole; one compact row a band gives the
    # reduced loop's S d a band edge at every row, and the run the same steps bit for bit
    cfg = SolverConfig(model=default_model(make_mask()))
    want = run(cfg)
    monkeypatch.setattr(elliptic, "BAND_CELLS", 1)
    _assert_same_run(run(cfg), want)


@pytest.mark.parametrize(
    "make_mask, rel_tol",
    [
        (lambda: kanizsa_triangle(64, 64), 1e-10),
        (lambda: kanizsa_triangle(64, 64), 1e-6),
        (lambda: illusory_disk(101, 97), 1e-10),
        (lambda: illusory_disk(101, 97), 1e-6),
    ],
    ids=["kanizsa-64", "kanizsa-64-cgtol6", "disk-101x97", "disk-101x97-cgtol6"],
)
def test_range_bound_certifies_every_step(make_mask, rel_tol, monkeypatch):
    # every step's excursion lies within the solve's bound, which agrees with
    # the true residual's bound to 1e-3, and the recorded relative residual
    # agrees with the true one to 1e-3, both within the tolerance; that holds
    # near a zero right-hand side too, where a start far above the solution
    # would leave its rounding in the true residual alone: Kanizsa 64^2 fades
    # to zero, its last steps' right-hand sides fall below 1e-16, and their
    # solves drop the warm start for zero.  Every solve, however good its
    # start, is one pass ending in the reduced system: one reduced
    # application for its elimination and back-substitution beside one per
    # iteration
    cfg = SolverConfig(model=default_model(make_mask()), cg=CgParams(rel_tol=rel_tol))
    real_cg_solve = solver.cg_solve
    seen = []

    def measured(data, p, *args, **kwargs):
        solution, record = real_cg_solve(data, p, *args, **kwargs)
        excursion = max(-float(solution.min()), float(solution.max()) - 1.0, 0.0)
        residual = true_relative_residual(solution, data, p)
        seen.append((excursion, record.range_bound, true_range_bound(solution, data, p), record.cg_residual, residual))
        return solution, record

    monkeypatch.setattr(solver, "cg_solve", measured)
    _, report = run(cfg)
    assert report.status == "converged" and len(seen) == len(report.steps)
    assert [s.range_bound for s in report.steps] == [bound for _, bound, *_ in seen]
    assert all(excursion <= bound for excursion, bound, *_ in seen)
    assert all(max(-s.pre_clamp_min, s.pre_clamp_max - 1.0) <= s.range_bound for s in report.steps)
    assert all(abs(bound - true) <= 1e-3 * true for _, bound, true, *_ in seen)
    assert all(abs(residual - true) <= 1e-3 * true and true <= rel_tol for *_, residual, true in seen)
    assert max(bound for _, bound, *_ in seen) > 10.0 * rel_tol  # not all at the rounding floor
    assert all(s.reduced_applications == s.cg_iters + 1 for s in report.steps)


def _solve_counter(monkeypatch, patch=None):
    """Patch ``solver.cg_solve`` to count its calls, passing each outcome
    through ``patch(n, solution, record)`` for the n-th call when given."""
    real_cg_solve = solver.cg_solve
    calls = []

    def counted(*args, **kwargs):
        solution, record = real_cg_solve(*args, **kwargs)
        calls.append(record)
        return (solution, record) if patch is None else patch(len(calls), solution, record)

    monkeypatch.setattr(solver, "cg_solve", counted)
    return calls


def _operator_counter(monkeypatch):
    real_apply = solver.apply_operator
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return real_apply(*args, **kwargs)

    monkeypatch.setattr(solver, "apply_operator", counted)
    return calls


def test_run_keeps_an_excursion_inside_the_certified_bound(monkeypatch):
    # step 2's bound (1.4e-8) lies past 10 x rel_tol (1e-9); a solution pushed 5e-9
    # above 1 is kept after one solve, without a look at the true residual (the
    # sink counts the operator applications; the final residual makes one more)
    cfg = SolverConfig(model=default_model(kanizsa_triangle(64, 64)), max_outer=4)
    _, plain = run(cfg)
    bound = plain.steps[1].range_bound
    assert 10.0 * cfg.cg.rel_tol < 5e-9 < bound

    def pushed_at_step_2(by):
        return lambda n, solution, record: ((above_one(solution, by) if n == 2 else solution), record)

    solves = _solve_counter(monkeypatch, pushed_at_step_2(5e-9))
    looks = _operator_counter(monkeypatch)
    seen = []
    _, report = run(cfg, step_sink=lambda record, field: seen.append(len(looks)))
    assert len(solves) == len(report.steps) == 4 and seen == [0, 0, 0, 0]
    assert report.steps[1].pre_clamp_max == 1.0 + 5e-9 and report.steps[1].range_bound == bound

    # a push of 1e-3 exceeds the solve's bound, but not the true residual's: by
    # Varah's bound no solution leaves [0, 1] by more than its own residual
    # certifies, so one look at it keeps the step
    solves = _solve_counter(monkeypatch, pushed_at_step_2(1e-3))
    looks = _operator_counter(monkeypatch)
    seen = []
    _, report = run(cfg, step_sink=lambda record, field: seen.append(len(looks)))
    assert len(solves) == len(report.steps) == 4 and seen == [0, 1, 1, 1]
    assert report.steps[1].pre_clamp_max == 1.0 + 1e-3


def test_run_raises_when_a_broken_linearization_leaves_the_range(monkeypatch):
    # step 3's right-hand side is doubled, so its exact solution reaches about 2:
    # the step raises after exactly one solve, with the sink having seen steps 1-2
    cfg = SolverConfig(model=default_model(kanizsa_triangle(64, 64)), max_outer=4)
    monkeypatch.setattr(solver, "linearize", rhs_doubled_after(2))
    solves = _solve_counter(monkeypatch)
    seen = []
    with pytest.raises(RangePreservationError, match=r"pre-clamp excursion \S+ exceeds its certified bound"):
        run(cfg, step_sink=lambda record, field: seen.append(record.iter))
    assert seen == [1, 2] and len(solves) == 3
    assert solves[2].range_bound < 1e-7


def test_run_checks_an_excursion_past_the_recorded_bound_on_the_true_residual(monkeypatch):
    # with every recorded bound patched to 0, a sound run still keeps every step:
    # each excursion is looked at again, on the true residual, and passes, and
    # its record then carries the true residual's bound, which covers it
    cfg = SolverConfig(model=default_model(illusory_disk(101, 97)), cg=CgParams(rel_tol=1e-6))
    want = run(cfg)
    real_cg_solve = solver.cg_solve
    true_bounds = []

    def no_bound(data, p, *args, **kwargs):
        solution, record = real_cg_solve(data, p, *args, **kwargs)
        true_bounds.append(true_range_bound(solution, data, p))
        record.range_bound = 0.0
        return solution, record

    monkeypatch.setattr(solver, "cg_solve", no_bound)
    looks = _operator_counter(monkeypatch)
    z, report = run(cfg)
    excursions = [max(-s.pre_clamp_min, s.pre_clamp_max - 1.0, 0.0) for s in report.steps]
    looked = [e > 0.0 for e in excursions]
    assert len(looks) - 1 == sum(looked) > 0  # and the final residual
    assert z.values.tobytes() == want[0].values.tobytes()
    assert [s.range_bound for s in report.steps] == [b if seen else 0.0 for b, seen in zip(true_bounds, looked)]
    assert all(e <= s.range_bound for e, s in zip(excursions, report.steps))
    assert [s.energy for s in report.steps] == [s.energy for s in want[1].steps]


def test_kernels_take_arrays_or_fields_alike(small_setup):
    # one calling convention: a kernel takes a field where it takes a grid array
    # and returns grid arrays, the same bits with or without a workspace
    mask, cfg = small_setup
    p = cfg.model
    z, w = null_hypothesis(mask), random_phase(mask.geometry, np.random.default_rng(71))

    def kept(x):
        # a plain array, copied as it comes, before a workspace reuses it
        assert type(x) is np.ndarray
        return x.copy()

    def ring():
        space = elliptic.StartSubspace()
        space.push(w.values, z.values)
        space.push(np.square(w.values), w.values)
        return space

    def results(a, b, work):
        data = elliptic.linearize(a, p, work=work)
        arrays = [kept(data.g_n), kept(data.f_n), kept(elliptic.apply_operator(a, data, p, work=work))]
        arrays += [kept(elliptic.cg_solve(data, p, cfg.cg, warm_start=x0, work=work)[0]) for x0 in (None, b)]
        # a projected start, on a reused workspace whose fourth grid array still
        # holds the D_b and D_r^-1 of the solves above
        solution, record = elliptic.cg_solve(data, p, cfg.cg, warm_start=b, subspace=ring(), work=work)
        assert record.start_rank > 0
        arrays.append(kept(solution))
        scalars = [
            total_energy(a, p, work=work),
            energy_drop_bound(a, b, p, work=work),
            rms_diff(a, b, work=work),
            euler_lagrange_residual(a, p, work=work),
        ]
        return [np.array(x, dtype=float).view(np.uint64) for x in (*arrays, *scalars)]

    want = results(z, w, None)
    for (a, b), work in itertools.product(((z, w), (z.values, w.values), (z, w.values)), (None, 1)):
        got = results(a, b, None if work is None else elliptic.Workspace(p))
        assert all(np.array_equal(x, y) for x, y in zip(got, want))

    # the benchmark's matvec: linearize, then apply_operator, on the null hypothesis field
    data = elliptic.linearize(z, p)
    bench = elliptic.apply_operator(z, data, p)
    assert np.array_equal(bench.view(np.uint64), elliptic.apply_operator(z.values, data, p).view(np.uint64))

    # the best iterate of a failed solve is a copy, not the workspace's array
    work = elliptic.Workspace(p)
    with pytest.raises(elliptic.CgConvergenceError) as err:
        elliptic.cg_solve(data, p, CgParams(max_iters=1), work=work)
    assert type(err.value.best) is np.ndarray and not np.shares_memory(err.value.best, work.z_next)


def test_step_kernels_write_only_their_outputs_and_the_scratch(small_setup):
    # outside cg_solve a kernel writes its own outputs and work.grids only:
    # linearize writes g and f, the residual leaves the iterate and z_next as
    # they were, and the energy, drop bound and update leave every array but
    # the scratch
    mask, cfg = small_setup
    p = cfg.model
    rng = np.random.default_rng(37)
    work = elliptic.Workspace(p)
    own = [work.z, work.z_next, work.g, work.f]
    for a in (work.g, work.f, *work.compact):
        a[...] = rng.uniform(0.0, 1.0, a.shape)
    work.z[...] = random_phase(mask.geometry, rng).values
    work.z_next[...] = random_phase(mask.geometry, rng).values

    def written(call, arrays):
        before = [a.copy() for a in arrays]
        call()
        return [i for i, (a, b) in enumerate(zip(arrays, before)) if not np.array_equal(a.view(np.uint64), b.view(np.uint64))]

    assert written(lambda: elliptic.linearize(work.z, p, work=work), [*own, *work.grids]) == [2, 3]
    assert written(lambda: euler_lagrange_residual(work.z, p, work=work), own[:2]) == []
    for kernel in (
        lambda: total_energy(work.z_next, p, work=work),
        lambda: energy_drop_bound(work.z, work.z_next, p, work=work),
        lambda: rms_diff(work.z_next, work.z, work=work),
    ):
        assert written(kernel, own) == []


def test_run_rejects_a_non_finite_iterate(small_setup, monkeypatch):
    # the clamp keeps a NaN, whose energy is NaN: the run raises as a field would
    _, cfg = small_setup
    real_cg_solve = solver.cg_solve

    def nan_in_the_middle(*args, **kwargs):
        solution, stats = real_cg_solve(*args, **kwargs)
        solution[solution.shape[0] // 2, solution.shape[1] // 2] = math.nan
        return solution, stats

    monkeypatch.setattr(solver, "cg_solve", nan_in_the_middle)
    seen = []
    with pytest.raises(ValueError, match="non-finite"):
        run(cfg, step_sink=lambda record, field: seen.append(record))
    assert seen == []


def test_run_allocates_its_workspace_and_ring_only():
    # past the operator, a run holds its workspace, the ring's six differences
    # or one field (the start before it is copied, the result once the ring is
    # released), and its report, which grows by a record a step
    mask = kanizsa_triangle(64, 64)
    cfg = SolverConfig(model=default_model(mask))
    cfg.model.operator  # built once per model, outside the measurement
    height, width = mask.geometry.shape
    grid = 8 * height * width
    workspace = 8 * (4 * height * width + 9 * height * ((width + 1) // 2))
    tracemalloc.start()
    try:
        _, report = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert workspace == 8.5 * grid
    assert peak <= workspace + 6 * grid + len(report.steps) * 1024 + 16384


FAULTS_PER_STEP = """
import resource
from illushape import CgParams, SolverConfig, default_model, run
from illushape.fixtures import ellipse_triangle
cfg = SolverConfig(model=default_model(ellipse_triangle()), cg=CgParams(rel_tol=1e-6), max_outer=120)
faults = {}
def sink(record, field):
    if record.iter in (20, 120):
        faults[record.iter] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run(cfg, step_sink=sink)
print((faults[120] - faults[20]) / 100)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
def test_run_steps_take_no_fresh_pages():
    # a step that allocated its grid arrays would have the C library hand them back
    # to the kernel and fault them in again, zeroed, every step
    src = str(Path(illushape.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_STEP], env=env, capture_output=True, text=True, check=True
    )
    assert float(done.stdout) < 10.0


def test_run_from_zero_field_stops_immediately(tmp_path):
    # an image dark all over inside its rim has the zero field for its null
    # hypothesis: the first step meets a zero right-hand side and moves nothing
    pixels = np.full((16, 16), 255, dtype=np.uint8)
    pixels[1:-1, 1:-1] = 0
    image = tmp_path / "dark.pgm"
    write_pgm(image, pixels)
    cfg = SolverConfig(model=default_model(load_mask(image)))
    assert not null_hypothesis(cfg.model.mask).values.any()
    z, report = run(cfg)
    assert report.status == "converged"
    assert len(report.steps) == 1
    step = report.steps[0]
    assert step.energy == 0.0
    assert (step.cg_iters, step.full_applications, step.reduced_applications, step.range_bound) == (0, 0, 0, 0.0)
    assert report.audit() == {"energy_increases": 0, "drop_bound_misses": 0, "range_excursion_max": 0.0}
    assert report.rho_ratio() is None
    assert extract_shape(z).count() == 0
    assert run_command(["--input", str(image), "--out-dir", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "energy.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 1


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
        seen.append(record.iter)
        assert record.energy == total_energy(field, cfg.model)
        with pytest.raises(ValueError):
            field.values[1, 1] = 2.0

    _, report = run(cfg, step_sink=sink)
    assert seen == [s.iter for s in report.steps] == list(range(1, 6))


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
