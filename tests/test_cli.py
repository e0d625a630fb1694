import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illushape import GridField, GridGeometry
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
from illushape.fixtures import kanizsa_triangle, mask_to_pixels


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
    assert run_command(base + ["--threshold", "1.5"]) == 1
    assert run_command(base + ["--epsilon-factor", "0.1"]) == 1
    assert run_command(base + ["--unknown-flag"]) == 1
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
    assert lines[0] == "iter,energy,rho,rms_update,cg_iters,cg_residual"
    energies = [float(line.split(",")[1]) for line in lines[1:]]
    slack = 1e-9 * (1.0 + energies[0])
    assert all(b <= a + slack for a, b in zip(energies, energies[1:]))

    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert summary["iterations"] == len(energies)
    assert summary["parameters"]["alpha"] == 0.1
    assert summary["parameters"]["epsilon"] == pytest.approx(3.0 / 48.0)
    assert summary["final_energy"] == energies[-1]


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


def test_fixture_writer_cli(tmp_path):
    from illushape.fixtures import main as fixtures_main

    path = tmp_path / "disk.pgm"
    assert fixtures_main(["disk", str(path), "--width", "64", "--height", "64"]) == 0
    w, h, pixels = read_pgm(path)
    assert (w, h) == (64, 64)
    assert np.any(pixels == 0)


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
