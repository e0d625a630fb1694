import numpy as np
import pytest

from illushape import GridField, GridGeometry, gradient_magnitude, rms_diff
from illushape.grid import GridMask


def test_spacing_is_inverse_longest_side():
    assert GridGeometry(128, 96).h == 1.0 / 128
    assert GridGeometry(64, 200).h == 1.0 / 200
    assert GridGeometry(7, 7).h == 1.0 / 7


def test_rejects_degenerate_grids():
    for w, h in [(2, 8), (8, 2), (1, 1)]:
        with pytest.raises(ValueError):
            GridGeometry(w, h)


def test_field_shape_and_finiteness_checks():
    geom = GridGeometry(4, 3)
    with pytest.raises(ValueError, match="different grids"):
        GridField(geom, np.zeros((4, 4)))
    with pytest.raises(ValueError, match="different grids"):
        GridMask(geom, np.zeros((3, 3), dtype=bool))
    bad = np.zeros(geom.shape)
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        GridField(geom, bad)


def test_fields_are_read_only():
    f = GridField.zeros(GridGeometry(5, 5))
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_field_array_protocol_gives_read_only_values_or_copies():
    # numpy 2's __array__(dtype, copy): a signature without copy would warn,
    # which the suite's warning filter turns into a failure
    f = GridField(GridGeometry(5, 4), np.arange(20.0).reshape(4, 5))
    view = np.asarray(f)
    assert np.shares_memory(view, f.values) and not view.flags.writeable
    copy = np.array(f)
    assert not np.shares_memory(copy, f.values) and copy.flags.writeable
    assert np.array_equal(copy, f.values)
    single = np.asarray(f, dtype=np.float32)
    assert single.dtype == np.float32 and np.array_equal(single, f.values)
    with pytest.raises(ValueError):
        np.array(f, dtype=np.float32, copy=False)


def test_gradient_of_constant_is_zero():
    geom = GridGeometry(9, 7)
    g = gradient_magnitude(np.full(geom.shape, 3.25), geom.h)
    assert np.all(g == 0.0)


def test_gradient_of_ramp_is_one_on_interior():
    geom = GridGeometry(9, 9)
    ramp = np.tile(np.arange(9) * geom.h, (9, 1))
    g = gradient_magnitude(ramp, geom.h)
    assert np.allclose(g[:, 1:-1], 1.0, rtol=0, atol=1e-13)
    assert np.all(g >= 0.0)
    # a field goes in where a grid array does, and the same bits come out
    assert np.array_equal(gradient_magnitude(GridField(geom, ramp), geom.h), g)


def test_gradient_exact_for_quadratic_columns():
    # central difference of (j h)^2 at interior column j is exactly 2 j h:
    # ((j+1)^2 - (j-1)^2) h^2 / (2 h) = 2 j h
    geom = GridGeometry(9, 9)
    h = geom.h
    x = np.arange(9) * h
    g = gradient_magnitude(np.tile(x * x, (9, 1)), h)
    for j in range(1, 8):
        assert g[:, j] == pytest.approx(2.0 * j * h, rel=1e-12)


def test_gradient_exact_on_affine_fields():
    rng = np.random.default_rng(7)
    geom = GridGeometry(12, 10)
    X, Y = np.meshgrid(np.arange(12) * geom.h, np.arange(10) * geom.h)
    for _ in range(20):
        a, b, c = rng.uniform(-5, 5, size=3)
        g = gradient_magnitude(a + b * X + c * Y, geom.h)
        assert np.allclose(g, np.hypot(b, c), rtol=1e-12, atol=1e-12)


def test_rms_diff_identity_and_uniform():
    geom = GridGeometry(6, 5)
    ones = GridField.full(geom, 1.0)
    zeros = GridField.zeros(geom)
    assert rms_diff(ones, ones) == 0.0
    assert rms_diff(ones, zeros) == 1.0


def test_rms_diff_half_the_cells():
    geom = GridGeometry(4, 4)
    v = np.zeros(geom.shape)
    v[:2, :] = 1.0
    got = rms_diff(GridField(geom, v), GridField.zeros(geom))
    assert got == pytest.approx(np.sqrt(0.5), rel=1e-15)


def test_rms_diff_requires_matching_grids():
    with pytest.raises(ValueError):
        rms_diff(GridField.zeros(GridGeometry(4, 4)), GridField.zeros(GridGeometry(5, 4)))


def test_rms_diff_triangle_inequality_and_definiteness():
    rng = np.random.default_rng(11)
    geom = GridGeometry(8, 6)
    for _ in range(50):
        a, b, c = (GridField(geom, rng.normal(size=geom.shape)) for _ in range(3))
        assert rms_diff(a, c) <= rms_diff(a, b) + rms_diff(b, c) + 1e-14
        assert rms_diff(a, b) > 0.0
    f = GridField(geom, rng.normal(size=geom.shape))
    assert rms_diff(f, GridField(geom, f.values.copy())) == 0.0
