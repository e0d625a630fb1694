import numpy as np
import pytest

from illushape import (
    CanyonField,
    CgParams,
    ConfigurationMask,
    GridField,
    GridGeometry,
    ModelParams,
    PhaseField,
    StartSubspace,
    apply_operator,
    cg_solve,
    double_well,
    energy_drop_bound,
    linearize,
    total_energy,
)

from helpers import (
    first_variation,
    flat_model,
    profile_measure_1d,
    random_model,
    random_phase,
    surrogate_energy,
    surrogate_target,
)


def energy_loop(zv, G, chi, h, eps, lam):
    """Straight-loop reference for the discrete total energy."""
    H, W = zv.shape
    total = 0.0
    for i in range(H):
        for j in range(W - 1):
            gf = 0.5 * (G[i, j] + G[i, j + 1])
            dz = (zv[i, j + 1] - zv[i, j]) / h
            total += 0.5 * eps * gf * dz * dz * h * h
    for i in range(H - 1):
        for j in range(W):
            gf = 0.5 * (G[i, j] + G[i + 1, j])
            dz = (zv[i + 1, j] - zv[i, j]) / h
            total += 0.5 * eps * gf * dz * dz * h * h
    for i in range(H):
        for j in range(W):
            phi = (1.0 - zv[i, j]) ** 2 * zv[i, j] ** 2
            total += phi / (2.0 * eps) * G[i, j] * h * h
            total += lam * chi[i, j] * zv[i, j] ** 2 / (2.0 * eps) * h * h
    return total


def quadratic_form_loop(uv, zn, G, chi, h, eps, lam):
    """Straight-loop reference for the homogeneous quadratic part of the surrogate."""
    H, W = uv.shape
    total = 0.0
    for i in range(H):
        for j in range(W - 1):
            gf = 0.5 * (G[i, j] + G[i, j + 1])
            du = (uv[i, j + 1] - uv[i, j]) / h
            total += 0.5 * eps * gf * du * du * h * h
    for i in range(H - 1):
        for j in range(W):
            gf = 0.5 * (G[i, j] + G[i + 1, j])
            du = (uv[i + 1, j] - uv[i, j]) / h
            total += 0.5 * eps * gf * du * du * h * h
    for i in range(H):
        for j in range(W):
            w = 1.0 + 2.0 * zn[i, j] ** 2
            total += w * uv[i, j] ** 2 / (2.0 * eps) * G[i, j] * h * h
            total += lam * chi[i, j] * uv[i, j] ** 2 / (2.0 * eps) * h * h
    return total


def test_double_well_values():
    assert double_well(0.0) == 0.0
    assert double_well(1.0) == 0.0
    assert double_well(0.5) == pytest.approx(0.0625, rel=1e-15)


def test_double_well_symmetry():
    rng = np.random.default_rng(1)
    z = rng.uniform(-1.0, 2.0, size=100)
    assert np.allclose(double_well(z), double_well(1.0 - z), rtol=1e-13, atol=1e-16)


def test_surrogate_target_fixed_points():
    # solutions of 3 z^2 / (1 + 2 z^2) = z, i.e. roots of z (2z - 1)(z - 1)
    for z in (0.0, 0.5, 1.0):
        assert surrogate_target(z) == z


def test_phase_field_requires_zero_rim():
    geom = GridGeometry(6, 6)
    v = np.zeros(geom.shape)
    v[0, 3] = 0.5
    with pytest.raises(ValueError):
        PhaseField(geom, v)


def test_model_params_validation():
    geom = GridGeometry(16, 16)
    h = geom.h
    with pytest.raises(ValueError):
        flat_model(geom, epsilon=0.5 * h)
    with pytest.raises(ValueError):
        flat_model(geom, epsilon=0.3)
    with pytest.raises(ValueError):
        flat_model(geom, lam=0.0)
    with pytest.raises(ValueError):
        flat_model(geom, lam=float("nan"))
    with pytest.raises(ValueError):
        flat_model(geom, lam=float("inf"))


def test_total_energy_zero_field():
    geom = GridGeometry(12, 12)
    p = flat_model(geom)
    assert total_energy(PhaseField.zeros(geom), p) == 0.0


def test_total_energy_scales_linearly_in_canyon():
    rng = np.random.default_rng(4)
    geom = GridGeometry(10, 10)
    z = random_phase(geom, rng)
    e1 = total_energy(z, flat_model(geom, g_value=1.0))
    e25 = total_energy(z, flat_model(geom, g_value=2.5))
    assert e25 == pytest.approx(2.5 * e1, rel=1e-12)


def test_total_energy_single_cell_matches_loop_oracle():
    geom = GridGeometry(8, 8)
    p = flat_model(geom)
    v = np.zeros(geom.shape)
    v[3, 4] = 1.0
    z = PhaseField(geom, v)
    expected = energy_loop(v, p.canyon.values, p.mask.indicator(), geom.h, p.epsilon, p.lam)
    assert total_energy(z, p) == pytest.approx(expected, rel=1e-12)


def test_total_energy_matches_loop_oracle_random():
    # the kernel's row-wrap faces, odd widths, and tall and wide grids
    rng = np.random.default_rng(9)
    for size in ((3, 3), (4, 3), (3, 6), (9, 7), (12, 5)):
        geom = GridGeometry(*size)
        for _ in range(5):
            p = random_model(geom, rng)
            z = random_phase(geom, rng)
            expected = energy_loop(
                z.values, p.canyon.values, p.mask.indicator(), geom.h, p.epsilon, p.lam
            )
            assert total_energy(z, p) == pytest.approx(expected, rel=1e-12)


def test_total_energy_rejects_a_nonzero_rim():
    # the operator kernel zeroes its output rim, so it would drop those faces
    geom = GridGeometry(10, 8)
    p = flat_model(geom)
    v = np.zeros(geom.shape)
    v[3, 0] = 0.5
    with pytest.raises(ValueError, match="boundary ring"):
        total_energy(GridField(geom, v), p)


def test_energy_lower_bound_by_floor_weighted_gradient():
    rng = np.random.default_rng(14)
    geom = GridGeometry(11, 9)
    for _ in range(10):
        p = random_model(geom, rng)
        z = random_phase(geom, rng)
        dx = np.diff(z.values, axis=1)
        dy = np.diff(z.values, axis=0)
        bound = 0.5 * p.epsilon * p.canyon.alpha * (np.sum(dx * dx) + np.sum(dy * dy))
        assert total_energy(z, p) >= bound - 1e-12


def test_surrogate_energy_zero_inputs():
    geom = GridGeometry(8, 8)
    p = flat_model(geom)
    z0 = PhaseField.zeros(geom)
    assert surrogate_energy(z0, z0, p) == 0.0


def test_surrogate_strict_convexity():
    rng = np.random.default_rng(21)
    geom = GridGeometry(9, 9)
    for _ in range(10):
        p = random_model(geom, rng)
        zn = random_phase(geom, rng)
        z = random_phase(geom, rng)
        w = random_phase(geom, rng)
        mid = PhaseField(geom, 0.5 * (z.values + w.values))
        lhs = surrogate_energy(mid, zn, p)
        rhs = 0.5 * (surrogate_energy(z, zn, p) + surrogate_energy(w, zn, p))
        assert lhs < rhs


def test_first_variation_vanishes_for_zero_direction():
    rng = np.random.default_rng(23)
    geom = GridGeometry(8, 8)
    p = random_model(geom, rng)
    z = random_phase(geom, rng)
    zn = random_phase(geom, rng)
    assert first_variation(z, PhaseField.zeros(geom), zn, p) == 0.0


def test_first_variation_matches_finite_differences():
    rng = np.random.default_rng(29)
    geom = GridGeometry(9, 8)
    t = 1e-6
    for _ in range(5):
        p = random_model(geom, rng)
        z = random_phase(geom, rng)
        zn = random_phase(geom, rng)
        u = random_phase(geom, rng, lo=-1.0, hi=1.0)
        plus = PhaseField(geom, z.values + t * u.values)
        minus = PhaseField(geom, z.values - t * u.values)
        fd = (surrogate_energy(plus, zn, p) - surrogate_energy(minus, zn, p)) / (2.0 * t)
        exact = first_variation(z, u, zn, p)
        assert exact == pytest.approx(fd, rel=1e-5)


def test_expansion_identity_against_quadratic_form():
    # E[z+u|zn] - E[z|zn] - J[z,u|zn] equals the nonnegative quadratic form in u
    rng = np.random.default_rng(31)
    geom = GridGeometry(8, 9)
    for _ in range(5):
        p = random_model(geom, rng)
        z = random_phase(geom, rng)
        zn = random_phase(geom, rng)
        u = random_phase(geom, rng, lo=-0.5, hi=0.5)
        total = surrogate_energy(PhaseField(geom, z.values + u.values), zn, p)
        gap = total - surrogate_energy(z, zn, p) - first_variation(z, u, zn, p)
        expected = quadratic_form_loop(
            u.values, zn.values, p.canyon.values, p.mask.indicator(), geom.h, p.epsilon, p.lam
        )
        assert expected >= 0.0
        assert gap == pytest.approx(expected, rel=1e-10, abs=1e-14)


def test_first_variation_vanishes_at_inner_solution():
    rng = np.random.default_rng(37)
    geom = GridGeometry(16, 16)
    p = random_model(geom, rng)
    zn = random_phase(geom, rng)
    data = linearize(zn, p)
    solution, _ = cg_solve(data, p, CgParams())
    z1 = PhaseField(geom, solution)
    e_ref = 1.0 + abs(surrogate_energy(z1, zn, p))
    for _ in range(10):
        u = random_phase(geom, rng, lo=-1.0, hi=1.0)
        assert abs(first_variation(z1, u, zn, p)) <= 1e-8 * e_ref


def test_energies_invariant_under_transposition():
    rng = np.random.default_rng(41)
    geom = GridGeometry(10, 7)
    geom_t = GridGeometry(7, 10)
    p = random_model(geom, rng)
    p_t = ModelParams(
        epsilon=p.epsilon,
        lam=p.lam,
        canyon=CanyonField(geom_t, p.canyon.values.T, p.canyon.alpha, p.canyon.beta),
        mask=type(p.mask)(geom_t, p.mask.inside.T),
    )
    z = random_phase(geom, rng)
    zn = random_phase(geom, rng)
    u = random_phase(geom, rng, lo=-1.0, hi=1.0)
    z_t = PhaseField(geom_t, z.values.T)
    zn_t = PhaseField(geom_t, zn.values.T)
    u_t = PhaseField(geom_t, u.values.T)
    assert total_energy(z, p) == pytest.approx(total_energy(z_t, p_t), rel=1e-12)
    assert surrogate_energy(z, zn, p) == pytest.approx(surrogate_energy(z_t, zn_t, p_t), rel=1e-12)
    assert first_variation(z, u, zn, p) == pytest.approx(
        first_variation(z_t, u_t, zn_t, p_t), rel=1e-12
    )


def test_energy_drop_bound_nonnegative_in_unit_range():
    rng = np.random.default_rng(43)
    geom = GridGeometry(9, 9)
    p = random_model(geom, rng)
    for _ in range(10):
        a = random_phase(geom, rng)
        b = random_phase(geom, rng)
        assert energy_drop_bound(a, b, p) >= 0.0


def test_profile_measure_matches_one_sixth():
    value = profile_measure_1d(1.0 / 64.0, 0.5, 8192)
    assert abs(value - 1.0 / 6.0) <= 0.01 / 6.0


def test_profile_measure_insensitive_to_epsilon():
    a = profile_measure_1d(1.0 / 32.0, 0.5, 8192)
    b = profile_measure_1d(1.0 / 64.0, 0.5, 8192)
    assert abs(b - a) / a < 1e-3


def test_profile_measure_against_dense_quadrature():
    # independent high-resolution trapezoid reference
    eps = 1.0 / 64.0
    t = np.linspace(-0.5, 0.5, 200001)
    z = 1.0 / (1.0 + np.exp(-t / eps))
    dz = z * (1.0 - z) / eps
    dense = np.trapezoid(0.5 * eps * dz * dz + (1 - z) ** 2 * z**2 / (2 * eps), t)
    value = profile_measure_1d(eps, 0.5, 8192)
    assert value == pytest.approx(dense, abs=5e-4)
    assert value == pytest.approx(1.0 / 6.0, abs=5e-4)


def test_profile_measure_validates_inputs():
    with pytest.raises(ValueError):
        profile_measure_1d(0.0, 0.5, 8192)
    with pytest.raises(ValueError):
        profile_measure_1d(0.1, 0.5, 8192)  # window under 8 epsilon
    with pytest.raises(ValueError):
        profile_measure_1d(1.0 / 64.0, 0.5, 512)


def test_model_indicator_built_once_and_read_only(monkeypatch):
    # the linearization and the energies read the mask's own read-only cells,
    # so no float indicator is built for them, neither once nor per call
    rng = np.random.default_rng(89)
    geom = GridGeometry(9, 8)
    p = random_model(geom, rng)
    calls = []
    real_indicator = ConfigurationMask.indicator

    def counted_indicator(mask):
        calls.append(mask)
        return real_indicator(mask)

    monkeypatch.setattr(ConfigurationMask, "indicator", counted_indicator)
    z, z_n, u = (random_phase(geom, rng) for _ in range(3))
    for _ in range(2):
        linearize(z_n, p)
        total_energy(z, p)
        surrogate_energy(z, z_n, p)
        first_variation(z, u, z_n, p)
    assert calls == []
    inside = p.mask.inside
    assert inside.dtype == bool
    assert not inside.flags.writeable
    with pytest.raises(ValueError):
        inside[1, 1] = True


def test_geometry_mismatch_rejected():
    rng = np.random.default_rng(47)
    geom = GridGeometry(8, 8)
    p = random_model(geom, rng)
    data = linearize(random_phase(geom, rng), p)
    z_other = PhaseField.zeros(GridGeometry(9, 9))
    wrong_ring = StartSubspace(2)
    wrong_ring.push(np.ones(z_other.geometry.shape), 0.0)
    for call in (
        lambda: total_energy(z_other, p),
        lambda: apply_operator(z_other, data, p),
        lambda: cg_solve(data, p, warm_start=z_other),
        lambda: cg_solve(data, p, subspace=wrong_ring),
    ):
        with pytest.raises(ValueError, match="different grids"):
            call()
