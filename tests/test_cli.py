import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illushape import GridField, GridGeometry, SolverConfig, cli, default_model, run
from illushape.grid import rim_any
from illushape.cli import (
    BoundaryContactError,
    EmptyConfigurationError,
    PgmFormatError,
    load_mask,
    read_pgm,
    run_command,
    save_field_image,
    write_pgm,
)
from illushape.fixtures import ellipse_triangle, illusory_disk, kanizsa_triangle, mask_to_pixels

from helpers import reference_p2_raster, rhs_doubled_after


def test_p5_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    pixels = rng.integers(0, 256, size=(13, 17), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, pixels)
    w, h, back = read_pgm(path)
    assert (w, h) == (17, 13)
    assert np.array_equal(back, pixels)


def test_p2_parsing_with_comments(tmp_path):
    path = tmp_path / "plain.pgm"
    path.write_text(
        "P2 # magic\n# a comment line\n3 2\n255\n0 64 128\n192 255 7\n",
        encoding="ascii",
    )
    w, h, pixels = read_pgm(path)
    assert (w, h) == (3, 2)
    assert np.array_equal(pixels, np.array([[0, 64, 128], [192, 255, 7]], dtype=np.uint8))
    # a comment between raster samples, and one straight after the last sample at EOF
    for raster in (
        "0 64 # mid-raster\n128\n192 255 7\n",
        "0 64 128\n192 255 7 # at EOF, no newline",
        "0 64 128\n192 255 7 x#y -3\n",  # tokens after the last sample are not read
    ):
        path.write_text(f"P2\n3 2\n255\n{raster}", encoding="ascii")
        assert np.array_equal(read_pgm(path)[2], pixels)
    # leading zeros beyond int()'s 4,300-digit limit, in a sample and in the height
    for data in (
        b"P2\n2 2\n255\n0 1 2 " + b"0" * 5000 + b"7\n",
        b"P2\n2 " + b"0" * 5000 + b"2\n255\n0 1 2 7\n",
    ):
        path.write_bytes(data)
        assert np.array_equal(read_pgm(path)[2], np.array([[0, 1], [2, 7]], dtype=np.uint8))


def _read_with_reference(path):
    """``read_pgm`` with the P2 raster read by the per-token reference."""
    with mock.patch.object(cli, "_p2_raster", reference_p2_raster):
        return read_pgm(path)


def _outcome(read, path):
    try:
        return read(path)
    except PgmFormatError as exc:
        return str(exc)


def test_p2_raster_across_blocks(tmp_path):
    """A long raster, with a comment of over 64 KiB, CRLF pairs and a zero-padded
    sample, and a small one with comments, CRLFs and a tab, read like the reference."""
    rng = np.random.default_rng(3)
    samples = rng.integers(0, 256, size=(200, 256))
    tokens = iter(str(v).encode() for v in samples.ravel())
    body = bytearray()

    def fill_to(offset):  # samples until the next would pass raster offset ``offset``
        while len(body) + 5 < offset:
            body.extend(b" " + next(tokens))

    long_comment = 1 << 16
    fill_to(long_comment)
    body.extend(b" #" + b"c" * long_comment + b" comment\r\n")
    fill_to(3 * long_comment)
    body.extend(b" " + b"0" * long_comment + next(tokens).rjust(3, b"0") + b"\r\n")
    body.extend(b"".join(b"\n" + t for t in tokens) + b"\n")
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P2\n256 200\n255" + bytes(body))
    assert np.array_equal(read_pgm(path)[2], samples)
    assert np.array_equal(_read_with_reference(path)[2], samples)
    small = tmp_path / "small.pgm"
    small.write_bytes(b"P2 # a\r\n3 2\n255\r\n0 64 # mid-raster #\r\n\r\n# 9\n128\t192\r\n255 7 # end")
    for read in (read_pgm, _read_with_reference):
        assert np.array_equal(read(small)[2], [[0, 64, 128], [192, 255, 7]])


def test_rejects_non_pgm_and_wide_samples(tmp_path):
    bad_magic = tmp_path / "img.ppm"
    bad_magic.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(PgmFormatError):
        read_pgm(bad_magic)
    deep = tmp_path / "deep.pgm"
    deep.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(PgmFormatError):
        read_pgm(deep)
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(PgmFormatError):
        read_pgm(short)
    above_maxval = tmp_path / "above.pgm"
    above_maxval.write_bytes(b"P5\n2 2\n100\n" + bytes([0, 200, 0, 0]))
    with pytest.raises(PgmFormatError):
        read_pgm(above_maxval)
    plain = tmp_path / "plain.pgm"
    for data in (
        b"P2\n2 2\n255\n0 1#2 3 4\n",  # "#" inside a token does not start a comment
        b"P2\n2 2\n255\n0 1 2 3#\n",  # not even in the last sample
        b"P2\n2 2\n255\n0 1 2\n",  # truncated raster
        b"P2\n2 2\n255\n0 -1 2 3\n",
        b"P2\n2 2\n255\n0 1 2 " + str(10**25).encode() + b"\n",
        b"P2\n4294967296 4294967296\n255\n0 1 2 3\n",
        # int() reads these as 16, 16, 255 and 25; a graymap has digits only
        b"P2\n1_6 2\n255\n" + b"0 " * 32,
        b"P2\n2 +16\n255\n" + b"0 " * 32,
        b"P2\n2 2\n2_55\n0 1 2 3\n",
        b"P2\n2 2\n255\n0 1 2_5 3\n",
        # more digits than int() reads by default
        b"P2\n2 " + b"1" * 5000 + b"\n255\n0 1 2 3\n",
        b"P2\n2 2\n255\n0 1 2 " + b"1" * 5000 + b"\n",
        # beyond 64 bits, where a wrapping parse would read a negative sample or 7
        b"P2\n2 2\n255\n0 1 2 " + str(2**63 + 7).encode() + b"\n",
        b"P2\n2 2\n255\n0 1 2 " + str(2**64 + 7).encode() + b"\n",
        # a raster of whitespace only is truncated, not one sample 0; so is none at all
        b"P2\n1 1\n255\n \t\r\n",
        b"P2\n1 1\n255",
    ):
        plain.write_bytes(data)
        with pytest.raises(PgmFormatError):
            read_pgm(plain)


def test_rejects_a_zero_graymap_dimension(tmp_path, capsys):
    # a zero width, height or maxval, raw or plain: the reader's message, and
    # the command exits 1 with it and no traceback
    path = tmp_path / "zero.pgm"
    out = tmp_path / "out"
    for magic in (b"P5", b"P2"):
        for header in (b"0 2 255", b"2 0 255", b"2 2 0"):
            path.write_bytes(magic + b"\n" + header + b"\n" + bytes(4))
            with pytest.raises(PgmFormatError, match=r"^graymap width, height and maxval must be positive, "):
                read_pgm(path)
            assert run_command(["--input", str(path), "--out-dir", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("illushape: graymap width, height and maxval must be positive, ")
            assert "Traceback" not in err and not out.exists()


def test_load_mask_counts_dark_pixels(tmp_path):
    mask = kanizsa_triangle(64, 64)
    pixels = mask_to_pixels(mask)
    path = tmp_path / "kanizsa.pgm"
    write_pgm(path, pixels)
    loaded = load_mask(path)
    # independent count straight from the pixel array we wrote
    assert loaded.count() == int(np.sum(pixels < 128))
    assert np.array_equal(loaded.inside, mask.inside)
    # the threshold is on the 0..255 scale whatever the maxval: 0 is dark, maxval light
    binary = tmp_path / "binary.pgm"
    samples = (~mask.inside).astype(int)
    rows = "\n".join(" ".join(map(str, row)) for row in samples)
    binary.write_text(f"P2\n64 64\n1\n{rows}\n", encoding="ascii")
    assert np.array_equal(load_mask(binary).inside, mask.inside)


def test_load_mask_invert_hits_border(tmp_path):
    path = tmp_path / "kanizsa.pgm"
    write_pgm(path, mask_to_pixels(kanizsa_triangle(64, 64)))
    with pytest.raises(BoundaryContactError):
        load_mask(path, invert=True)


def test_load_mask_rejects_blank_image(tmp_path):
    path = tmp_path / "white.pgm"
    write_pgm(path, np.full((16, 16), 255, dtype=np.uint8))
    with pytest.raises(EmptyConfigurationError):
        load_mask(path)


def test_load_mask_rejects_border_contact(tmp_path):
    pixels = np.full((16, 16), 255, dtype=np.uint8)
    pixels[0, 5] = 0
    path = tmp_path / "edge.pgm"
    write_pgm(path, pixels)
    with pytest.raises(BoundaryContactError):
        load_mask(path)


def test_save_field_quantization(tmp_path):
    geom = GridGeometry(4, 3)
    for value, expected in ((0.0, 0), (1.0, 255), (0.5, 128)):
        path = tmp_path / f"v{expected}.pgm"
        save_field_image(GridField.full(geom, value), path)
        _, _, pixels = read_pgm(path)
        assert np.all(pixels == expected)


def test_save_field_round_trip_on_quantized_values(tmp_path):
    rng = np.random.default_rng(7)
    geom = GridGeometry(9, 6)
    levels = rng.integers(0, 256, size=geom.shape)
    field = GridField(geom, levels / 255.0)
    path = tmp_path / "f.pgm"
    save_field_image(field, path)
    _, _, pixels = read_pgm(path)
    assert np.array_equal(pixels, levels.astype(np.uint8))


def test_run_command_missing_input_creates_nothing(tmp_path):
    out = tmp_path / "out"
    code = run_command(["--input", str(tmp_path / "nope.pgm"), "--out-dir", str(out)])
    assert code == 1
    assert not out.exists()


def test_run_command_rejects_bad_flags(tmp_path):
    path = tmp_path / "kanizsa.pgm"
    write_pgm(path, mask_to_pixels(kanizsa_triangle(48, 48)))
    out = tmp_path / "out"
    base = ["--input", str(path), "--out-dir", str(out)]
    assert run_command(base + ["--delta", "-1"]) == 1
    assert run_command(base + ["--delta", "nan"]) == 1
    assert run_command(base + ["--lambda", "nan"]) == 1
    assert run_command(base + ["--lambda", "inf"]) == 1
    for flag in ("--sigma-factor", "--alpha", "--beta", "--gain"):
        for bad in ("nan", "inf"):
            assert run_command(base + [flag, bad]) == 1
    assert run_command(base + ["--threshold", "1.5"]) == 1
    assert run_command(base + ["--epsilon-factor", "0.1"]) == 1
    # a diffusion time past 1/2: sigma above 1
    assert run_command(base + ["--sigma-factor", "1e200"]) == 1
    assert run_command(base + ["--sigma-factor", "100"]) == 1
    # a CG tolerance below machine epsilon, which double precision cannot reach
    assert run_command(base + ["--cg-tol", "1e-300"]) == 1
    assert run_command(base + ["--cg-tol", "5e-324"]) == 1
    assert run_command(base + ["--snapshot-every", "-1"]) == 1
    assert run_command(base + ["--unknown-flag"]) == 1
    assert not out.exists()


def test_run_command_usage_contract(tmp_path, capsys):
    # --help prints the usage on stdout and exits 0; a usage error prints
    # argparse's usage line and one error line on stderr and exits 1
    assert run_command(["--help"]) == 0
    printed = capsys.readouterr()
    assert printed.out.startswith("usage: illushape ") and "--input INPUT" in printed.out
    assert printed.err == ""
    path = tmp_path / "kanizsa.pgm"
    write_pgm(path, mask_to_pixels(kanizsa_triangle(48, 48)))
    out = tmp_path / "out"
    for argv, message in (
        (["--input", str(path), "--out-dir", str(out), "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
        (["--out-dir", str(out)], "the following arguments are required: --input"),
    ):
        assert run_command(argv) == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        lines = printed.err.splitlines()
        assert lines[0].startswith("usage: illushape ")
        assert lines[-1] == f"illushape: error: {message}"
        assert not out.exists()


def test_run_command_unwritable_out_dir(tmp_path):
    img = tmp_path / "kanizsa.pgm"
    write_pgm(img, mask_to_pixels(kanizsa_triangle(48, 48)))
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = run_command(["--input", str(img), "--out-dir", str(blocker / "sub")])
    assert code == 1


def test_run_command_end_to_end(tmp_path):
    path = tmp_path / "kanizsa.pgm"
    write_pgm(path, mask_to_pixels(kanizsa_triangle(48, 48)))
    out = tmp_path / "run"
    code = run_command(["--input", str(path), "--out-dir", str(out)])
    assert code == 0
    for name in ("energy.csv", "final_phase.pgm", "shape.pgm", "summary.json"):
        assert (out / name).exists()

    lines = (out / "energy.csv").read_text().strip().splitlines()
    assert lines[0] == (
        "iter,energy,rho,rms_update,cg_iters,cg_residual,"
        "drop_bound,pre_clamp_min,pre_clamp_max,start_rank,full_applications,reduced_applications,"
        "range_bound"
    )
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    energies = [row[1] for row in rows]
    slack = 1e-9 * (1.0 + energies[0])
    assert all(b <= a + slack for a, b in zip(energies, energies[1:]))
    # rho and drop_bound describe the step to the next row, so the last row has neither
    assert all(row[2] >= row[6] - slack for row in rows[:-1])
    assert math.isnan(rows[-1][2]) and math.isnan(rows[-1][6])
    assert all(-1e-9 <= row[7] <= row[8] <= 1.0 + 1e-9 for row in rows)
    # the first inner solve has no earlier iterates to start from, and the
    # ring holds at most six differences
    assert rows[0][9] == 0.0 and any(row[9] > 0.0 for row in rows)
    assert all(row[9] in range(7) for row in rows)
    # every excursion lies within the solve's certified bound
    assert all(max(-row[7], row[8] - 1.0) <= row[12] for row in rows)

    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert summary["iterations"] == len(energies)
    assert summary["parameters"]["alpha"] == 0.1
    assert summary["parameters"]["epsilon"] == pytest.approx(3.0 / 48.0)
    assert summary["final_energy"] == energies[-1]
    # work totals: every solve applies the full operator for its start residual,
    # its diffusion part once to the ring's newest difference and the full one
    # once more to a projected step, and the reduced one per iteration plus
    # once for the elimination and back-substitution
    assert summary["cg_iterations"] == sum(int(row[4]) for row in rows)
    assert summary["full_operator_applications"] == sum(int(row[10]) for row in rows)
    assert summary["reduced_operator_applications"] == sum(int(row[11]) for row in rows)
    assert all(row[10] in (0.0, 1.0, 2.0, 3.0) and row[11] in (0.0, row[4] + 1.0) for row in rows)
    assert all(row[10] == 3.0 for row in rows if row[9] > 0.0)
    assert summary["empty_shape"] is (summary["component_count"] == 0)
    assert summary["audit"]["energy_increases"] == 0
    assert summary["audit"]["drop_bound_misses"] == 0
    assert 0.0 <= summary["audit"]["range_excursion_max"] <= 1e-9
    assert set(summary["audit"]) == {"energy_increases", "drop_bound_misses", "range_excursion_max"}


def test_run_command_starts_where_the_library_does(tmp_path):
    # the command and a plain library run both start from the null hypothesis,
    # so they take the same steps, bit for bit
    mask = kanizsa_triangle(48, 48)
    path = tmp_path / "kanizsa.pgm"
    write_pgm(path, mask_to_pixels(mask))
    assert run_command(["--input", str(path), "--out-dir", str(tmp_path / "run")]) == 0
    _, report = run(SolverConfig(default_model(mask)))
    cli._write_energy_csv(tmp_path / "library.csv", report)
    assert (tmp_path / "run" / "energy.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()


def test_run_command_warns_on_empty_shape(tmp_path, capsys):
    # at 64^2 the default band of 3h is too wide for the figure; 1.5h finds it
    path = tmp_path / "kanizsa.pgm"
    write_pgm(path, mask_to_pixels(kanizsa_triangle(64, 64)))
    for factor, empty in (("3", True), ("1.5", False)):
        out = tmp_path / f"eps{factor}"
        code = run_command(["--input", str(path), "--out-dir", str(out), "--epsilon-factor", factor])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["empty_shape"] is empty
        assert (summary["component_count"] == 0) is empty
        err = capsys.readouterr().err
        if empty:
            assert len(err.splitlines()) == 1 and "--epsilon-factor" in err
        else:
            assert err == ""


def test_run_command_progress_lines(tmp_path, capsys):
    path = tmp_path / "kanizsa.pgm"
    write_pgm(path, mask_to_pixels(kanizsa_triangle(64, 64)))
    base = ["--input", str(path), "--epsilon-factor", "1.5"]
    assert run_command(base + ["--out-dir", str(tmp_path / "quiet")]) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""
    assert run_command(base + ["--out-dir", str(tmp_path / "loud"), "--progress", "10"]) == 0
    loud = capsys.readouterr()
    # stdout differs only in its wall time, the outputs only in theirs
    assert loud.out.rsplit(",", 1)[0] == quiet.out.rsplit(",", 1)[0]
    csv = (tmp_path / "loud" / "energy.csv").read_bytes()
    assert csv == (tmp_path / "quiet" / "energy.csv").read_bytes()
    summaries = [json.loads((tmp_path / d / "summary.json").read_text()) for d in ("quiet", "loud")]
    for summary in summaries:
        del summary["elapsed_seconds"], summary["input"]
    assert summaries[0] == summaries[1]

    rows = [line.split(",") for line in csv.decode().splitlines()[1:]]
    lines = [json.loads(line) for line in loud.err.splitlines()]
    assert len(lines) == len(rows) // 10 > 0
    elapsed = 0.0
    for k, line in enumerate(lines, start=1):
        assert sorted(line) == ["cg_iters", "elapsed_s", "energy", "rms_update", "step"]
        row = rows[line["step"] - 1]
        assert line["step"] == 10 * k
        assert line["energy"] == float(row[1]) and line["rms_update"] == float(row[3])
        assert line["cg_iters"] == sum(int(r[4]) for r in rows[: line["step"]])
        assert line["elapsed_s"] >= elapsed
        elapsed = line["elapsed_s"]

    out = tmp_path / "bad"
    assert run_command(base + ["--out-dir", str(out), "--progress", "-1"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "--progress" in err
    assert not out.exists()


def test_run_command_reports_rho_ratio(tmp_path):
    # with the band of 1.5h the run closes in on the figure linearly (ratio
    # about 0.95); at the default 3h it collapses to the empty shape with
    # growing drops, and the ratio, a diagnostic, reads above 1
    path = tmp_path / "kanizsa.pgm"
    write_pgm(path, mask_to_pixels(kanizsa_triangle(64, 64)))
    ratios = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert run_command(["--input", str(path), "--out-dir", out, "--epsilon-factor", "1.5"]) == 0
        ratios.append(json.loads((tmp_path / name / "summary.json").read_text())["rho_ratio"])
    assert ratios[0] == ratios[1]
    assert 0.0 < ratios[0] < 1.0


def test_run_command_audit_exits_3_on_energy_rise(tmp_path, monkeypatch, capsys):
    from illushape import solver

    real_total_energy = solver.total_energy
    calls = []

    def rising_total_energy(z, p, **kwargs):
        calls.append(None)
        return real_total_energy(z, p, **kwargs) + (1.0 if len(calls) == 3 else 0.0)

    monkeypatch.setattr(solver, "total_energy", rising_total_energy)
    path = tmp_path / "kanizsa.pgm"
    write_pgm(path, mask_to_pixels(kanizsa_triangle(48, 48)))
    out = tmp_path / "run"
    code = run_command(["--input", str(path), "--out-dir", str(out), "--max-outer", "6"])
    assert code == 3
    summary = json.loads((out / "summary.json").read_text())
    # step 3 rises above step 2, so step 2 also falls short of its drop bound
    assert summary["audit"]["energy_increases"] == 1
    assert summary["audit"]["drop_bound_misses"] == 1
    assert summary["status"] == "max_outer_reached"
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("illushape: audit failed: 1 energy increase")


def test_run_command_reports_a_range_failure(tmp_path, monkeypatch, capsys):
    # every right-hand side is doubled, so the first solution leaves [0, 1]
    # far beyond its certified bound
    from illushape import solver

    monkeypatch.setattr(solver, "linearize", rhs_doubled_after(0))
    mask = kanizsa_triangle(48, 48)
    cfg = solver.SolverConfig(model=solver.default_model(mask))
    with pytest.raises(solver.RangePreservationError):
        solver.run(cfg)
    path = tmp_path / "kanizsa.pgm"
    write_pgm(path, mask_to_pixels(mask))
    assert run_command(["--input", str(path), "--out-dir", str(tmp_path / "run")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("illushape: solver failure: pre-clamp excursion")
    assert "Traceback" not in captured.err



@pytest.mark.parametrize(
    "flags",
    [
        ["--beta", "1e308"],
        ["--alpha", "1e308"],
        ["--alpha", "1e200", "--beta", "1e200"],
        ["--lambda", "1e308"],
    ],
    ids=["beta-1e308", "alpha-1e308", "alpha-beta-1e200", "lambda-1e308"],
)
def test_run_command_reports_an_overflow(tmp_path, capsys, flags):
    # a canyon this deep overflows the solve, and a confinement this strong
    # breaks CG down: exit 1 with a message, no traceback and no summary,
    # whose "Infinity" would not be JSON
    path = tmp_path / "disk.pgm"
    write_pgm(path, mask_to_pixels(illusory_disk(32, 32)))
    out = tmp_path / "run"
    assert run_command(["--input", str(path), "--out-dir", str(out), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("illushape: solver failure: ")
    assert not (out / "summary.json").exists()
    assert not out.exists()  # the run made the directory and left it empty, so it goes


def test_run_command_keeps_an_output_directory_it_did_not_make_or_wrote_to(tmp_path, monkeypatch, capsys):
    # a solver failure removes only a directory it made and left empty
    path = tmp_path / "disk.pgm"
    write_pgm(path, mask_to_pixels(illusory_disk(32, 32)))
    existing = tmp_path / "existing"
    existing.mkdir()
    assert run_command(["--input", str(path), "--out-dir", str(existing), "--lambda", "1e308"]) == 1
    assert existing.is_dir() and not any(existing.iterdir())

    # every right-hand side after step 1's is doubled, so step 2 raises after step 1's snapshot
    from illushape import solver

    monkeypatch.setattr(solver, "linearize", rhs_doubled_after(1))
    snaps = tmp_path / "snaps"
    assert run_command(["--input", str(path), "--out-dir", str(snaps), "--snapshot-every", "1"]) == 1
    assert [f.name for f in snaps.iterdir()] == ["snap_000001.pgm"]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("illushape: solver failure: ") for line in err)


def test_summary_parameters_echo_every_flag(tmp_path):
    # light inducers on a dark ground, which --invert reads
    path = tmp_path / "disk.pgm"
    write_pgm(path, 255 - mask_to_pixels(illusory_disk(32, 32)))
    out = tmp_path / "run"
    values = {
        "--alpha": "0.2", "--beta": "2.0", "--lambda": "2.0", "--epsilon-factor": "2.5",
        "--sigma-factor": "1.5", "--gain": "2.0", "--g": "rational", "--delta": "1e-05",
        "--max-outer": "4", "--cg-tol": "1e-08", "--threshold": "0.4",
        "--snapshot-every": "3", "--progress": "2", "--bin-threshold": "100",
    }
    declared = {a.option_strings[0] for a in cli.build_parser()._actions}
    assert declared == {"-h", "--input", "--out-dir", "--invert", *values}
    argv = ["--input", str(path), "--out-dir", str(out), "--invert", *(x for kv in values.items() for x in kv)]
    assert run_command(argv) == 2
    h = 1.0 / 32
    assert json.loads((out / "summary.json").read_text())["parameters"] == {
        "alpha": 0.2, "beta": 2.0, "lambda": 2.0, "epsilon": 2.5 * h, "epsilon_factor": 2.5,
        "sigma": 1.5 * h, "sigma_factor": 1.5, "gain": 2.0, "g_kind": "rational", "delta": 1e-5,
        "max_outer": 4, "cg_tol": 1e-8, "threshold": 0.4, "snapshot_every": 3,
        "invert": True, "bin_threshold": 100, "width": 32, "height": 32, "h": h,
    }


def _fuzz_values(action):
    """Values for one flag: extreme floats and its default, small ints and two
    larger ones, each choice, or a switch on or off."""
    if action.type is float:
        extremes = (5e-324, 1e-300, -1.0, 0.0, 1e300, 1e308, math.inf, -math.inf, math.nan)
        return st.sampled_from((action.default, *extremes))
    if action.type is int:
        return st.integers(-1, 3) | st.sampled_from((512, 513))
    if action.choices:
        return st.sampled_from(action.choices)
    return st.booleans()


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


_FUZZED_FLAGS = {
    a.option_strings[0]: _fuzz_values(a)
    for a in cli.build_parser()._actions
    if a.dest not in ("help", "input", "out_dir")
}


@settings(max_examples=80, deadline=None)
@given(st.fixed_dictionaries({}, optional=_FUZZED_FLAGS))
def test_run_command_survives_fuzzed_flags(values):
    # every declared flag: a documented exit status, no exception, strict JSON
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "disk.pgm", Path(tmp) / "run"
        write_pgm(path, mask_to_pixels(illusory_disk(16, 16)))
        argv = ["--input", str(path), "--out-dir", str(out), "--max-outer", "3"]
        for option, value in values.items():
            if value is True:
                argv.append(option)
            elif value is not False:  # "=" keeps "-inf" from reading as an option
                argv.append(f"{option}={value}")
        assert run_command(argv) in (0, 1, 2, 3)
        if (out / "summary.json").exists():
            json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)


def test_run_command_budget_exit_code(tmp_path):
    path = tmp_path / "kanizsa.pgm"
    write_pgm(path, mask_to_pixels(kanizsa_triangle(48, 48)))
    out = tmp_path / "short"
    code = run_command(
        ["--input", str(path), "--out-dir", str(out), "--max-outer", "3"]
    )
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "max_outer_reached"
    assert summary["iterations"] == 3


def test_run_command_writes_snapshots(tmp_path):
    path = tmp_path / "kanizsa.pgm"
    write_pgm(path, mask_to_pixels(kanizsa_triangle(48, 48)))
    out = tmp_path / "snaps"
    run_command(
        [
            "--input",
            str(path),
            "--out-dir",
            str(out),
            "--max-outer",
            "5",
            "--snapshot-every",
            "2",
        ]
    )
    assert (out / "snap_000002.pgm").exists()
    assert (out / "snap_000004.pgm").exists()
    assert not (out / "snap_000003.pgm").exists()


def test_run_command_passes_a_sink_only_for_progress_or_snapshots(tmp_path, monkeypatch, capsys):
    # a sink costs a field copy a step, so a run without either flag gets none
    path = tmp_path / "kanizsa.pgm"
    write_pgm(path, mask_to_pixels(kanizsa_triangle(48, 48)))
    sinks = []
    real_run = cli.run

    def spy(cfg, **kwargs):
        sinks.append(kwargs["step_sink"])
        return real_run(cfg, **kwargs)

    monkeypatch.setattr(cli, "run", spy)
    for flags, wanted in (([], False), (["--progress", "2"], True), (["--snapshot-every", "2"], True)):
        out = tmp_path / f"out{len(sinks)}"
        assert run_command(["--input", str(path), "--out-dir", str(out), "--max-outer", "3", *flags]) == 2
        assert callable(sinks[-1]) if wanted else sinks[-1] is None
    capsys.readouterr()


def test_fixture_writer_cli(tmp_path, capsys):
    from illushape.fixtures import main as fixtures_main

    path = tmp_path / "disk.pgm"
    assert fixtures_main(["disk", str(path), "--width", "64", "--height", "64"]) == 0
    w, h, pixels = read_pgm(path)
    assert (w, h) == (64, 64)
    assert np.any(pixels == 0)
    capsys.readouterr()
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    for argv in (
        ["kanizsa", str(tmp_path / "tiny.pgm"), "--width", "2"],
        ["ellipse-triangle", str(tmp_path / "cramped.pgm"), "--width", "40", "--height", "20"],
        ["disk", str(blocker / "disk.pgm")],
        ["kanizsa", str(tmp_path / "huge.pgm"), "--width", "1000000000", "--height", "1000000000"],
        ["kanizsa", str(tmp_path / "empty.pgm"), "--width", "4", "--height", "4"],
    ):
        assert fixtures_main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("illushape.fixtures: ")
    assert "empty configuration" in err  # the 4x4 Kanizsa's
    for name in ("tiny", "cramped", "huge", "empty"):
        assert not (tmp_path / f"{name}.pgm").exists()
    for make, size in ((kanizsa_triangle, (4, 4)), (illusory_disk, (4, 4)), (ellipse_triangle, (3, 3))):
        with pytest.raises(ValueError, match="empty configuration"):
            make(*size)


_SEPARATORS = st.sampled_from([" ", "\n", "\t", "\r\n", "  \n "])
_COMMENTS = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)


@st.composite
def _separators(draw) -> str:
    """Whitespace between tokens, optionally with a comment line."""
    sep = draw(_SEPARATORS)
    if draw(st.booleans()):
        sep += "#" + draw(_COMMENTS) + "\n" + draw(st.sampled_from(["", " "]))
    return sep


@st.composite
def _graymaps(draw) -> tuple[bytes, np.ndarray, int]:
    """A valid P2 or P5 file, its samples and its maxval."""
    width, height = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    maxval = draw(st.integers(1, 255))
    samples = np.array(
        draw(st.lists(st.integers(0, maxval), min_size=width * height, max_size=width * height)),
        dtype=np.uint8,
    ).reshape(height, width)
    if draw(st.booleans()):  # light frame, so the inducers may clear the border
        samples[[0, -1], :] = samples[:, [0, -1]] = maxval
    plain = draw(st.booleans())
    header = "P2" if plain else "P5"
    for value in (width, height, maxval):
        header += draw(_separators()) + str(value)
    if plain:
        body = "".join(draw(_separators()) + str(v) for v in samples.ravel())
        data = (header + body + draw(st.sampled_from(["", "\n"]))).encode()
    else:  # exactly one whitespace byte ends a raw header
        data = (header + draw(st.sampled_from(" \t\r\n"))).encode() + samples.tobytes()
    return data, samples, maxval


_EDITS = st.lists(st.tuples(st.integers(0, 400), st.integers(0, 255)), max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    graymap=_graymaps(),
    cut=st.none() | st.integers(0, 400),
    edits=_EDITS,
    threshold=st.integers(-1, 300),
)
def test_pgm_reader_fuzz(tmp_path_factory, graymap, cut, edits, threshold):
    """Valid files round-trip; a truncated or overwritten file fails only with a documented error."""
    data, samples, maxval = graymap
    valid = cut is None and not edits
    raw = bytearray(data[:cut])
    for i, value in edits:
        if i < len(raw):
            raw[i] = value
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    path.write_bytes(bytes(raw))
    # the same pixels as the per-token reference, or the same error
    outcome, reference = _outcome(read_pgm, path), _outcome(_read_with_reference, path)
    if isinstance(reference, str):
        assert outcome == reference
    else:
        assert not isinstance(outcome, str), outcome
        assert outcome[:2] == reference[:2] and np.array_equal(outcome[2], reference[2])
    try:
        width, height, pixels = read_pgm(path)
    except PgmFormatError:
        assert not valid
        return
    if valid:
        assert (width, height) == (samples.shape[1], samples.shape[0])
        assert np.array_equal(pixels, samples)
    expected = samples.astype(int) * 255 < threshold * maxval if valid else None
    try:
        mask = load_mask(path, bin_threshold=threshold)
    except EmptyConfigurationError:
        assert expected is None or not expected.any()
        return
    except BoundaryContactError:
        assert expected is None or rim_any(expected)
        return
    except PgmFormatError:
        raise AssertionError("read_pgm accepted what load_mask rejects") from None
    except ValueError as exc:  # GridGeometry: fewer than 3 cells across
        assert min(width, height) < 3, exc
        return
    if expected is not None:
        assert np.array_equal(mask.inside, expected)


def test_a_hypothesis_failure_reports_its_example(tmp_path):
    # with warnings as errors, an import on hypothesis's failure path must not
    # turn the report of a falsifying example into a pytest internal error
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    argv = ["-m", "pytest", "-c", str(config), "-p", "no:cacheprovider", "test_fails.py"]
    done = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert "Falsifying example" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
