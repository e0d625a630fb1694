import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from illushape import (
    GridField,
    GridGeometry,
    ShapeMask,
    connected_components,
    extract_shape,
)

from helpers import iou


def flood_oracle(inside):
    """Independent stack-based flood fill; returns the list of components."""
    H, W = inside.shape
    seen = np.zeros(inside.shape, dtype=bool)
    comps = []
    for i in range(H):
        for j in range(W):
            if not inside[i, j] or seen[i, j]:
                continue
            stack = [(i, j)]
            seen[i, j] = True
            cells = []
            while stack:
                a, b = stack.pop()
                cells.append((a, b))
                for na, nb in ((a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1)):
                    if 0 <= na < H and 0 <= nb < W and inside[na, nb] and not seen[na, nb]:
                        seen[na, nb] = True
                        stack.append((na, nb))
            comps.append(cells)
    return comps


def shape_of(geom, inside):
    return ShapeMask(geom, inside)


def test_extract_zero_field_is_empty():
    geom = GridGeometry(8, 8)
    assert extract_shape(GridField.zeros(geom)).count() == 0


def test_extract_indicator_block():
    geom = GridGeometry(16, 16)
    v = np.zeros(geom.shape)
    v[3:13, 4:14] = 1.0
    mask = extract_shape(GridField(geom, v))
    assert np.array_equal(mask.inside, v == 1.0)


def test_extract_uses_strict_inequality():
    geom = GridGeometry(8, 8)
    assert extract_shape(GridField.full(geom, 0.5)).count() == 0
    assert extract_shape(GridField.full(geom, 0.5 + 1e-12)).count() == geom.cells


def test_extract_validates_threshold():
    geom = GridGeometry(8, 8)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            extract_shape(GridField.zeros(geom), bad)


def test_extract_monotone_in_threshold():
    rng = np.random.default_rng(2)
    geom = GridGeometry(12, 12)
    z = GridField(geom, rng.uniform(0, 1, geom.shape))
    low = extract_shape(z, 0.3)
    high = extract_shape(z, 0.7)
    assert np.all(high.inside <= low.inside)


def test_components_empty_mask():
    geom = GridGeometry(8, 8)
    comps = connected_components(shape_of(geom, np.zeros(geom.shape, bool)))
    assert comps.count == 0
    assert comps.areas == ()


def test_components_full_interior_block():
    geom = GridGeometry(10, 10)
    inside = np.zeros(geom.shape, bool)
    inside[1:-1, 1:-1] = True
    comps = connected_components(shape_of(geom, inside))
    assert comps.count == 1
    assert comps.areas == (64,)


def test_components_two_blocks_counted():
    geom = GridGeometry(14, 12)
    inside = np.zeros(geom.shape, bool)
    inside[2:5, 2:5] = True
    inside[8:11, 6:10] = True
    comps = connected_components(shape_of(geom, inside))
    oracle = flood_oracle(inside)
    assert comps.count == len(oracle) == 2
    assert sorted(comps.areas) == sorted(len(c) for c in oracle)


def _serpentine(height, width):
    """One path winding down the grid: full rows joined at alternating ends."""
    inside = np.zeros((height, width), bool)
    inside[::2] = True
    inside[1::4, -1] = True
    inside[3::4, 0] = True
    return inside


def _special_masks():
    rng = np.random.default_rng(5)
    rows, cols = np.indices((17, 23))
    masks = [rng.random((16, 20)) < p for p in (0.2, 0.4, 0.6)]
    masks += [
        np.zeros((9, 7), bool),
        np.ones((9, 7), bool),
        (rows + cols) % 2 == 0,
        (rows + cols) % 2 == 1,
        _serpentine(17, 23),
        _serpentine(23, 17).T,
    ]
    line = np.zeros((3, 40), bool)  # one row of cells at random, then one column
    line[1] = rng.random(40) < 0.5
    return masks + [line, line.T]


@st.composite
def _random_masks(draw):
    height, width = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random((height, width)) < density


def _with_special_masks(test):
    for inside in _special_masks():
        test = example(inside=inside)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(inside=_random_masks())
@_with_special_masks
def test_components_match_oracle_on_random_masks(inside):
    comps = connected_components(shape_of(GridGeometry(inside.shape[1], inside.shape[0]), inside))
    # the oracle finds components from their first cell in raster order, so
    # its list is in the order the areas must follow
    oracle = flood_oracle(inside)
    assert comps.count == len(oracle)
    assert comps.areas == tuple(len(cells) for cells in oracle)


def test_components_diagonal_blocks_stay_separate():
    # diagonal adjacency must not merge under 4-connectivity
    geom = GridGeometry(8, 8)
    inside = np.zeros(geom.shape, bool)
    inside[2, 2] = True
    inside[3, 3] = True
    comps = connected_components(shape_of(geom, inside))
    assert comps.count == 2


def test_components_transpose_invariance():
    rng = np.random.default_rng(9)
    geom = GridGeometry(15, 11)
    geom_t = GridGeometry(11, 15)
    inside = rng.random(geom.shape) < 0.35
    a = connected_components(shape_of(geom, inside))
    b = connected_components(shape_of(geom_t, inside.T))
    assert a.count == b.count
    assert sorted(a.areas) == sorted(b.areas)


def test_iou_cases():
    geom = GridGeometry(10, 10)
    block = np.zeros(geom.shape, bool)
    block[2:6, 2:6] = True
    other = np.zeros(geom.shape, bool)
    other[7:9, 7:9] = True
    assert iou(shape_of(geom, block), shape_of(geom, block.copy())) == 1.0
    assert iou(shape_of(geom, block), shape_of(geom, other)) == 0.0
    empty = np.zeros(geom.shape, bool)
    assert iou(shape_of(geom, empty), shape_of(geom, empty)) == 1.0


def test_iou_half_overlap():
    geom = GridGeometry(10, 10)
    full = np.zeros(geom.shape, bool)
    full[2:4, 2:8] = True  # 12 cells
    left = np.zeros(geom.shape, bool)
    left[2:4, 2:5] = True  # left half, 6 cells
    assert iou(shape_of(geom, left), shape_of(geom, full)) == 0.5


def test_iou_geometry_mismatch():
    a = shape_of(GridGeometry(8, 8), np.zeros((8, 8), bool))
    b = shape_of(GridGeometry(9, 8), np.zeros((8, 9), bool))
    with pytest.raises(ValueError):
        iou(a, b)
