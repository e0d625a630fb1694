import math

import numpy as np
import pytest

from illushape import (
    CanyonField,
    CanyonParams,
    ConfigurationMask,
    GridGeometry,
    NoBoundaryError,
    build_canyon,
    edge_response,
    mollify,
)
from illushape.fixtures import kanizsa_triangle

from helpers import random_mask


def block_mask(geom, rows, cols):
    inside = np.zeros(geom.shape, dtype=bool)
    inside[rows, cols] = True
    return ConfigurationMask(geom, inside)


def test_mollify_zero_sigma_is_identity():
    geom = GridGeometry(16, 16)
    mask = block_mask(geom, slice(4, 8), slice(5, 11))
    out = mollify(mask, 0.0)
    assert np.array_equal(out, mask.indicator())


def test_mollify_constant_masks_are_fixed_points():
    geom = GridGeometry(12, 9)
    for fill in (False, True):
        mask = ConfigurationMask(geom, np.full(geom.shape, fill))
        for sigma in (0.0, 2 * geom.h, 10 * geom.h):
            out = mollify(mask, sigma)
            assert np.array_equal(out, np.full(geom.shape, float(fill)))


def test_mollify_step_edge_splits_evenly():
    # vertical step edge; the two cells flanking it straddle 1/2 by odd symmetry
    geom = GridGeometry(96, 5)
    inside = np.zeros(geom.shape, dtype=bool)
    inside[:, :48] = True
    mask = ConfigurationMask(geom, inside)
    out = mollify(mask, 16 * geom.h)
    mid = geom.height // 2
    assert abs(out[mid, 47] - 0.5) <= 0.02
    assert abs(out[mid, 48] - 0.5) <= 0.02
    assert out[mid, 47] + out[mid, 48] == pytest.approx(1.0, abs=1e-12)


def test_mollify_preserves_unit_range():
    rng = np.random.default_rng(2)
    geom = GridGeometry(24, 18)
    for _ in range(5):
        out = mollify(random_mask(geom, rng, p=0.3), 3 * geom.h)
        assert out.min() >= 0.0
        assert out.max() <= 1.0


def test_mollify_rejects_negative_sigma():
    geom = GridGeometry(8, 8)
    with pytest.raises(ValueError):
        mollify(block_mask(geom, slice(2, 4), slice(2, 4)), -1.0)


def test_mollify_bounds_the_diffusion_time():
    # sigma = 1, the longest side, is a diffusion time of 1/2: 2 * 16^2 heat steps
    mask = block_mask(GridGeometry(16, 16), slice(4, 8), slice(5, 11))
    out = mollify(mask, 1.0)
    assert 0.0 <= out.min() <= out.max() <= 1.0
    with pytest.raises(ValueError, match="sigma"):
        mollify(mask, math.nextafter(1.0, 2.0))


def test_edge_response_limits():
    assert edge_response(0.0, "exp_square") == 1.0
    assert edge_response(0.0, "rational") == 1.0
    assert edge_response(1e6, "rational") < 1e-6
    assert edge_response(1e6, "exp_square") == 0.0  # underflows
    for kind in ("exp_square", "rational"):
        assert edge_response(1e200, kind) == 0.0  # the square overflows to inf, silently


def test_edge_response_exp_at_one():
    assert edge_response(1.0, "exp_square") == pytest.approx(0.36787944117144233, rel=1e-15)


def test_edge_response_unknown_kind():
    with pytest.raises(ValueError):
        edge_response(1.0, "linear")


def test_build_canyon_range_and_floor():
    mask = kanizsa_triangle(64, 64)
    params = CanyonParams(sigma=2 * mask.geometry.h)
    canyon = build_canyon(mask, params)
    assert canyon.values.min() >= params.alpha
    assert canyon.values.max() <= params.alpha + params.beta
    # the strongest edge sits at normalized strength 1, so gain 3 gives
    # g = exp(-9) there and the canyon floor is alpha + beta * exp(-9)
    assert canyon.values.min() == pytest.approx(0.1 + np.exp(-9.0), rel=1e-12)


def test_build_canyon_far_cells_near_ceiling():
    mask = kanizsa_triangle(64, 64)
    h = mask.geometry.h
    params = CanyonParams(sigma=2 * h)
    canyon = build_canyon(mask, params)
    ceiling = params.alpha + params.beta
    # the inducers live within radius 0.4 of the center; the corners are
    # far beyond 5 sigma from any inducer boundary
    for i, j in [(2, 2), (2, 61), (61, 2), (61, 61)]:
        assert canyon.values[i, j] >= params.alpha + 0.95 * params.beta
        assert canyon.values[i, j] >= 0.99 * ceiling


def test_build_canyon_drops_within_sigma_of_inducer_boundary():
    mask = kanizsa_triangle(64, 64)
    h = mask.geometry.h
    params = CanyonParams(sigma=2 * h)
    canyon = build_canyon(mask, params)
    inside = mask.inside
    rim = inside & ~(
        np.roll(inside, 1, 0) & np.roll(inside, -1, 0)
        & np.roll(inside, 1, 1) & np.roll(inside, -1, 1)
    )
    band = rim.copy()
    for _ in range(2):  # dilate by sigma = 2 cells
        band = (
            band
            | np.roll(band, 1, 0) | np.roll(band, -1, 0)
            | np.roll(band, 1, 1) | np.roll(band, -1, 1)
        )
    assert canyon.values[band].min() <= params.alpha + 0.1 * params.beta


def test_build_canyon_rejects_empty_and_full():
    geom = GridGeometry(16, 16)
    for fill in (False, True):
        mask = ConfigurationMask(geom, np.full(geom.shape, fill))
        with pytest.raises(NoBoundaryError):
            build_canyon(mask, CanyonParams(sigma=2 * geom.h))


def test_build_canyon_rejects_unresolved_sigma():
    geom = GridGeometry(16, 16)
    mask = block_mask(geom, slice(5, 9), slice(5, 9))
    with pytest.raises(ValueError):
        build_canyon(mask, CanyonParams(sigma=0.5 * geom.h))


def test_build_canyon_beta_zero_is_flat():
    geom = GridGeometry(20, 20)
    mask = block_mask(geom, slice(6, 12), slice(7, 14))
    canyon = build_canyon(mask, CanyonParams(sigma=2 * geom.h, alpha=0.4, beta=0.0))
    assert np.all(canyon.values == 0.4)


def test_gain_monotonicity():
    geom = GridGeometry(32, 32)
    mask = block_mask(geom, slice(10, 20), slice(12, 24))
    h = geom.h
    low = build_canyon(mask, CanyonParams(sigma=2 * h, gain=2.0))
    high = build_canyon(mask, CanyonParams(sigma=2 * h, gain=4.0))
    assert np.all(high.values <= low.values + 1e-15)


def test_translation_equivariance():
    geom = GridGeometry(64, 64)
    h = geom.h
    di, dj = 3, 2
    base = np.zeros(geom.shape, dtype=bool)
    base[24:34, 20:31] = True
    shifted = np.roll(np.roll(base, di, axis=0), dj, axis=1)
    g1 = build_canyon(ConfigurationMask(geom, base), CanyonParams(sigma=2 * h)).values
    g2 = build_canyon(ConfigurationMask(geom, shifted), CanyonParams(sigma=2 * h)).values
    margin = 10  # 5 sigma in cells
    for i in range(margin, 64 - margin - di):
        for j in range(margin, 64 - margin - dj):
            assert abs(g2[i + di, j + dj] - g1[i, j]) <= 1e-10


def test_params_validation():
    with pytest.raises(ValueError):
        CanyonParams(sigma=0.1, alpha=0.0)
    with pytest.raises(ValueError):
        CanyonParams(sigma=0.1, beta=-0.5)
    with pytest.raises(ValueError):
        CanyonParams(sigma=-0.1)
    with pytest.raises(ValueError):
        CanyonParams(sigma=0.1, gain=0.0)
    with pytest.raises(ValueError):
        CanyonParams(sigma=0.1, g_kind="nope")
    for name in ("sigma", "alpha", "beta", "gain"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                CanyonParams(**{"sigma": 0.1, name: bad})
    # each finite, but the ceiling overflows: the build would warn, then fail
    with pytest.raises(ValueError, match="ceiling"):
        CanyonParams(sigma=0.1, alpha=1e308, beta=1e308)
    # a canyon value below the floor or above the ceiling
    geom = GridGeometry(4, 4)
    for value in (0.05, 1.15):
        with pytest.raises(ValueError, match=r"leave \[alpha, alpha \+ beta\]"):
            CanyonField(geom, np.full(geom.shape, value), alpha=0.1, beta=1.0)


def test_mask_geometry_checked():
    with pytest.raises(ValueError):
        ConfigurationMask(GridGeometry(4, 4), np.zeros((3, 4), dtype=bool))
