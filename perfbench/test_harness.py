"""Tests of the benchmark harness itself, on tiny inputs.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py
"""

import json
import shutil
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import outputs
import run
import spans
import workloads
from illushape.cli import run_command
from illushape.fixtures import kanizsa_triangle

ROOT = Path(__file__).resolve().parent.parent

# A 32x32 Kanizsa figure stopped after 3 outer steps: a real job that takes milliseconds.
TINY = workloads.Workload(
    name="tiny",
    why="harness test",
    size=(32, 32),
    inducers=kanizsa_triangle,
    plain_pgm=True,
    flags=("--max-outer", "3"),
    exit_status=workloads.BUDGET,
    components=1,
)


def test_self_times_on_a_synthetic_tree():
    tree = [
        spans.Span("root", 0.0, 10.0, -1, "r"),
        spans.Span("a", 1.0, 4.0, 0, "r"),
        spans.Span("a.inner", 2.0, 3.0, 1, "r"),
        spans.Span("b", 5.0, 9.0, 0, "r"),
        spans.Span("b", 9.0, 9.5, 0, "r"),
    ]
    assert spans.self_times(tree) == pytest.approx([2.5, 2.0, 1.0, 4.0, 0.5])
    assert sum(spans.self_times(tree)) == pytest.approx(10.0)  # self times tile the root
    table = spans.totals(tree)
    assert table["b"] == pytest.approx({"total_s": 4.5, "self_s": 4.5, "calls": 2})


def test_self_time_counts_overlapping_children_once():
    tree = [
        spans.Span("root", 0.0, 10.0, -1, "r"),
        spans.Span("x", 2.0, 6.0, 0, "r"),
        spans.Span("y", 4.0, 8.0, 0, "r"),
        spans.Span("z", 9.0, 12.0, 0, "r"),  # runs past its parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_nests_spans_through_module_lookups_and_restores():
    module = SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    original_inner = module.inner
    seen = []
    tracer = spans.Tracer("run-7")
    tracer.patch(module, "inner", "m.inner", on_return=seen.append)
    tracer.patch(module, "outer", "m.outer")
    assert module.outer(1) == 4
    tracer.restore()
    assert module.inner is original_inner
    assert [(s.name, s.parent, s.run_id) for s in tracer.spans] == [
        ("m.outer", -1, "run-7"),
        ("m.inner", 0, "run-7"),
    ]
    assert seen == [2]


@pytest.fixture(scope="module")
def tiny_job(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    inside = workloads.inducers(TINY, (1, -1))
    image = work / "input.pgm"
    workloads.write_input(TINY, inside, image)
    out = work / "out"
    assert run_command(workloads.job_argv(TINY, image, out)) == TINY.exit_status
    summary = json.loads((out / "summary.json").read_text())
    ref = {k: summary[k] for k in ("final_energy", "component_count", "component_areas")}
    return SimpleNamespace(out=out, inside=inside, ref=ref)


def corrupted_copy(job, tmp_path, name, corrupt):
    out = tmp_path / name
    shutil.copytree(job.out, out)
    corrupt(out)
    return out


def failures_of(job, out, w=TINY):
    try:
        result = outputs.read(out)
    except outputs.OutputError as exc:
        return [str(exc)]
    return outputs.check(w, result, job.inside, None, job.ref)


def truncate_csv(out):
    lines = (out / "energy.csv").read_text().splitlines(keepends=True)
    (out / "energy.csv").write_text("".join(lines[:-1]))


def raise_last_energy(out):
    lines = (out / "energy.csv").read_text().splitlines()
    fields = lines[-1].split(",")
    fields[1] = repr(float(fields[1]) + 1.0)
    (out / "energy.csv").write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")


def edit_summary(**changes):
    def corrupt(out):
        data = json.loads((out / "summary.json").read_text())
        data.update(changes)
        (out / "summary.json").write_text(json.dumps(data))

    return corrupt


def test_intact_tiny_outputs_pass(tiny_job):
    assert failures_of(tiny_job, tiny_job.out) == []


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("truncated_csv", truncate_csv),
        ("rising_energy", raise_last_energy),
        ("missing_summary", lambda out: (out / "summary.json").unlink()),
        ("garbled_shape", lambda out: (out / "shape.pgm").write_bytes(b"P5\n32 32\n255\n")),
        ("wrong_areas", edit_summary(component_areas=[1])),
        ("energy_above_reference", edit_summary(final_energy=10.0)),
    ],
)
def test_corrupted_outputs_fail(tiny_job, tmp_path, name, corrupt):
    assert failures_of(tiny_job, corrupted_copy(tiny_job, tmp_path, name, corrupt))


def test_converged_workload_rejects_a_large_el_residual(tiny_job, tmp_path):
    out = corrupted_copy(tiny_job, tmp_path, "el", edit_summary(el_residual=1.0))
    assert failures_of(tiny_job, out, replace(TINY, exit_status=workloads.CONVERGED))


def test_report_gates_flag_broken_guarantees():
    def step(energy, rho, bound, lo=0.0, hi=1.0):
        return SimpleNamespace(energy=energy, rho=rho, drop_bound=bound, pre_clamp_min=lo, pre_clamp_max=hi)

    good = SimpleNamespace(steps=[step(2.0, 1.0, 0.5), step(1.0, float("nan"), float("nan"))])
    assert outputs.check_report(outputs.report_gates(good), 1e-10) == []
    bad = SimpleNamespace(steps=[step(1.0, -1.0, 0.5, lo=-1e-6), step(2.0, float("nan"), float("nan"))])
    gates = outputs.report_gates(bad)
    assert gates["energy_increases"] == 1 and gates["drop_bound_misses"] == 1
    assert gates["range_excursion_max"] == pytest.approx(1e-6)
    assert len(outputs.check_report(gates, 1e-10)) == 3
    # The range gate scales with the inner tolerance: 1e-6 is within 10 x 1e-6.
    assert len(outputs.check_report(gates, 1e-6)) == 2


def test_a_run_counts_every_failed_job(monkeypatch, capsys):
    # The tiny job exits 2; expecting 0 makes every job a failure the run must count.
    wrong = replace(TINY, name="tiny-wrong-status", exit_status=workloads.CONVERGED)
    monkeypatch.setitem(workloads.WORKLOADS, wrong.name, wrong)
    monkeypatch.setattr(run, "reference", lambda name, shift: {
        "final_energy": 0.0, "component_count": 1, "component_areas": []})
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    assert run.main(["--workload", wrong.name, "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    shutil.rmtree(ROOT / ".perfbench_work" / f"{wrong.name}-seed3-trace0")
    assert result["correct"] is False
    assert result["attempted"] == run.MIN_JOBS + 1
    assert result["failed"] == run.MIN_JOBS
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_seeds_are_reproducible_and_seed_zero_is_the_stock_fixture():
    assert workloads.shift_for_seed(0) == (0, 0)
    assert workloads.shift_for_seed(11) == workloads.shift_for_seed(11)
    assert {workloads.shift_for_seed(s) for s in range(50)} == set(workloads.SHIFTS)


def test_benchmark_json_names_the_harness_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_reference_covers_every_shift_of_every_workload():
    table = json.loads((Path(run.HERE) / "reference.json").read_text())
    for name in workloads.WORKLOADS:
        assert set(table[name]) == {outputs.shift_key(s) for s in workloads.SHIFTS}
