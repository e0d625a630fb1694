import dataclasses
import tracemalloc

import numpy as np
import pytest

from illushape import (
    CgConvergenceError,
    CgParams,
    GridField,
    GridGeometry,
    LinearizedData,
    StartSubspace,
    apply_operator,
    cg_solve,
    linearize,
    total_energy,
)
from illushape import elliptic
from illushape.grid import zero_rim

from helpers import (
    dense_matrix,
    dense_solve_oracle,
    face_coefficients,
    first_variation,
    flux_apply,
    flat_model,
    random_instance,
    random_model,
    random_phase,
    surrogate_target,
    textbook_reduced_pcg,
)


def zero_rim_field(geom, rng, lo=-1.0, hi=1.0):
    v = rng.uniform(lo, hi, size=geom.shape)
    v[0, :] = v[-1, :] = 0.0
    v[:, 0] = v[:, -1] = 0.0
    return GridField(geom, v)


def test_linearize_at_zero():
    rng = np.random.default_rng(0)
    geom = GridGeometry(10, 10)
    from helpers import random_model

    p = random_model(geom, rng)
    data = linearize(GridField.zeros(geom), p)
    chi = p.mask.indicator()
    assert np.allclose(data.g_n.values, p.canyon.values + p.lam * chi, rtol=0, atol=0)
    assert np.all(data.f_n.values == 0.0)


def test_linearize_at_one():
    rng = np.random.default_rng(1)
    geom = GridGeometry(10, 10)
    from helpers import random_model

    p = random_model(geom, rng)
    data = linearize(GridField.full(geom, 1.0), p)
    chi = p.mask.indicator()
    assert np.allclose(data.g_n.values, 3.0 * p.canyon.values + p.lam * chi, rtol=1e-15)
    assert np.allclose(data.f_n.values, 3.0 * p.canyon.values, rtol=1e-15)


def test_linearize_consistency_identity():
    # f equals g * gamma minus the confinement part, cell by cell, with
    # gamma the surrogate target at the frozen iterate
    rng = np.random.default_rng(2)
    geom = GridGeometry(8, 8)
    p = random_model(geom, rng)
    z_n = GridField(geom, rng.uniform(0.0, 1.0, size=geom.shape))
    data = linearize(z_n, p)
    gamma = surrogate_target(z_n.values)
    chi = p.mask.indicator()
    for i in range(geom.height):
        for j in range(geom.width):
            lhs = data.f_n.values[i, j]
            rhs = data.g_n.values[i, j] * gamma[i, j] - p.lam * chi[i, j] * gamma[i, j]
            assert lhs == pytest.approx(rhs, abs=1e-12)
    assert np.all(data.g_n.values >= p.canyon.alpha)
    assert np.all(data.f_n.values >= 0.0)


def test_operator_on_zero_field():
    rng = np.random.default_rng(3)
    geom = GridGeometry(9, 9)
    data, p = random_instance(geom, rng)
    out = apply_operator(GridField.zeros(geom), data, p)
    assert np.all(out.values == 0.0)


def test_flat_kernel_matches_flux_form_bitwise():
    rng = np.random.default_rng(47)
    for geom in (GridGeometry(4, 3), GridGeometry(12, 9), GridGeometry(7, 16), GridGeometry(33, 31)):
        for _ in range(10):
            data, p = random_instance(geom, rng)
            z = zero_rim_field(geom, rng)
            cx, cy = face_coefficients(p)
            expected = flux_apply(z.values, cx, cy, data.g_n.values)
            got = apply_operator(z, data, p).values
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_operator_built_once_per_model(monkeypatch):
    # one face-mean pass per model, whether the energy or a solve uses it first
    rng = np.random.default_rng(53)
    geom = GridGeometry(10, 8)
    calls = []
    real_face_means = elliptic.face_means

    def counted_face_means(values):
        calls.append(values)
        return real_face_means(values)

    monkeypatch.setattr(elliptic, "face_means", counted_face_means)
    for energy_first in (True, False):
        data, p = random_instance(geom, rng)
        assert "operator" not in vars(p)
        z = random_phase(geom, rng)
        if energy_first:
            total_energy(z, p)
        cg_solve(data, p)
        op = p.operator
        apply_operator(zero_rim_field(geom, rng), data, p)
        cg_solve(data, p)
        total_energy(z, p)
        assert p.operator is op
    assert len(calls) == 2


def subspace_of(columns, size=None):
    """A ring holding the given grid arrays, in slot order."""
    space = StartSubspace(size or len(columns))
    for c in columns:
        space.push(c, 0.0)
    return space


def galerkin_start(data, p, warm, space):
    """The ring's theta, rank and L applications at ``warm``, from the residual
    ``cg_solve`` computes."""
    n = warm.geometry.cells
    x = zero_rim(warm.values.copy()).ravel()
    ax = np.empty(n)
    p.operator.apply(x, data.g_n.values.ravel(), ax, np.empty(n - 1))
    r = zero_rim(data.f_n.values.copy()).ravel() - ax
    return space.galerkin(p.operator, data.g_n.values.ravel(), r, np.empty(n), np.empty(n - 1))


def interior(a):
    return a[1:-1, 1:-1].ravel()


def assert_same_solve(got, expected):
    (x, stats), (x_ref, stats_ref) = got, expected
    assert np.array_equal(x.values.view(np.uint64), x_ref.values.view(np.uint64))
    assert repr(stats) == repr(stats_ref)  # an int/float drift in a field fails too


def test_cg_matches_textbook_pcg_bitwise():
    rng = np.random.default_rng(59)
    for geom in (GridGeometry(16, 16), GridGeometry(21, 13)):
        for _ in range(10):
            data, p = random_instance(geom, rng)
            cg = CgParams(rel_tol=float(rng.choice([1e-6, 1e-10])))
            assert_same_solve(cg_solve(data, p, cg), textbook_reduced_pcg(data, p, cg))
            warm = zero_rim_field(geom, rng, 0.0, 1.0)
            expected = textbook_reduced_pcg(data, p, cg, warm_start=warm)
            assert_same_solve(cg_solve(data, p, cg, warm_start=warm), expected)
            # a zero subspace keeps no direction: the plain warm start, bit for bit,
            # for one more application (of L) per difference
            zeros = subspace_of([np.zeros(geom.shape)] * 2)
            x, stats = cg_solve(data, p, cg, warm_start=warm, subspace=zeros)
            assert_same_solve(
                (x, dataclasses.replace(stats, full_applications=stats.full_applications - 2)),
                expected,
            )


def test_operator_symmetry():
    rng = np.random.default_rng(5)
    geom = GridGeometry(12, 9)
    for _ in range(10):
        data, p = random_instance(geom, rng)
        z = zero_rim_field(geom, rng)
        w = zero_rim_field(geom, rng)
        az_w = float(np.sum(apply_operator(z, data, p).values * w.values))
        aw_z = float(np.sum(apply_operator(w, data, p).values * z.values))
        assert az_w == pytest.approx(aw_z, rel=1e-12)


def test_operator_matches_dirichlet_laplacian_eigenpair():
    # with a flat unit canyon and constant reaction c the operator reduces to
    # -eps^2 Lap + c; sine modes pinned at the rim are exact eigenvectors with
    # Lap eigenvalue (4/h^2)(sin^2(pi k / (2(H-1))) + sin^2(pi l / (2(W-1))))
    geom = GridGeometry(18, 14)
    h = geom.h
    p = flat_model(geom, g_value=1.0, epsilon=2 * h)
    c = 0.7
    data = LinearizedData(GridField.full(geom, c), GridField.zeros(geom))
    k, l = 3, 2
    rows = np.sin(np.pi * k * np.arange(geom.height) / (geom.height - 1))
    cols = np.sin(np.pi * l * np.arange(geom.width) / (geom.width - 1))
    v = np.outer(rows, cols)
    v[0, :] = v[-1, :] = 0.0
    v[:, 0] = v[:, -1] = 0.0
    lam = (4.0 / h**2) * (
        np.sin(np.pi * k / (2 * (geom.height - 1))) ** 2
        + np.sin(np.pi * l / (2 * (geom.width - 1))) ** 2
    )
    expected = (p.epsilon**2 * lam + c) * v
    got = apply_operator(GridField(geom, v), data, p).values
    assert np.allclose(got, expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())


def test_operator_is_gradient_of_surrogate():
    # J[z, u | z_n] = h^2/eps <u, A z - f_n>: energy and operator share one face form
    rng = np.random.default_rng(43)
    for geom in (GridGeometry(9, 7), GridGeometry(16, 16)):
        for _ in range(5):
            p = random_model(geom, rng)
            z, z_n = random_phase(geom, rng), random_phase(geom, rng)
            u = random_phase(geom, rng, lo=-1.0, hi=1.0)
            data = linearize(z_n, p)
            residual = apply_operator(z, data, p).values - data.f_n.values
            expected = geom.h**2 / p.epsilon * float(np.sum(u.values * residual))
            assert first_variation(z, u, z_n, p) == pytest.approx(expected, rel=1e-12)


def test_operator_positive_definite():
    rng = np.random.default_rng(7)
    geom = GridGeometry(10, 10)
    for _ in range(10):
        data, p = random_instance(geom, rng)
        z = zero_rim_field(geom, rng)
        quad = float(np.sum(apply_operator(z, data, p).values * z.values))
        floor = float(data.g_n.values[1:-1, 1:-1].min()) * float(np.sum(z.values**2))
        assert quad >= floor - 1e-12


def test_cg_zero_rhs_short_circuits():
    rng = np.random.default_rng(11)
    geom = GridGeometry(12, 12)
    data, p = random_instance(geom, rng)
    zero_data = LinearizedData(data.g_n, GridField.zeros(geom))
    solution, stats = cg_solve(zero_data, p)
    assert np.all(solution.values == 0.0)
    assert stats.iterations == 0
    assert stats.residual == 0.0


def test_cg_matches_dense_oracle():
    rng = np.random.default_rng(13)
    geom = GridGeometry(8, 8)
    for _ in range(10):
        data, p = random_instance(geom, rng)
        solution, _ = cg_solve(data, p, CgParams())
        reference = dense_solve_oracle(data, p)
        assert np.abs(solution.values - reference.values).max() <= 1e-8


def test_reduced_cg_on_small_and_odd_grids():
    # odd widths pad every other compact row; 3x3 has no black interior cell
    rng = np.random.default_rng(67)
    for width, height in ((3, 3), (4, 3), (3, 4), (5, 4), (9, 14), (14, 9), (13, 8)):
        geom = GridGeometry(width, height)
        for _ in range(5):
            data, p = random_instance(geom, rng)
            reference = dense_solve_oracle(data, p)
            f = zero_rim(data.f_n.values.copy())
            for warm in (None, zero_rim_field(geom, rng, 0.0, 1.0)):
                solution, stats = cg_solve(data, p, CgParams(), warm_start=warm)
                assert np.abs(solution.values - reference.values).max() <= 1e-8
                r = f - apply_operator(solution, data, p).values
                assert np.linalg.norm(r) <= CgParams().rel_tol * np.linalg.norm(f)
                assert stats.residual <= CgParams().rel_tol


def test_cg_warm_start_at_solution_takes_no_iterations():
    rng = np.random.default_rng(17)
    geom = GridGeometry(10, 10)
    data, p = random_instance(geom, rng)
    exact = dense_solve_oracle(data, p)
    solution, stats = cg_solve(data, p, CgParams(rel_tol=1e-7), warm_start=exact)
    assert stats.iterations == 0
    assert np.array_equal(solution.values, exact.values)
    # so does a start elsewhere from a subspace that contains the solution
    warm = zero_rim_field(geom, rng, 0.0, 1.0)
    other = zero_rim_field(geom, rng).values
    space = subspace_of([other, exact.values - warm.values, other + exact.values - warm.values])
    solution, stats = cg_solve(data, p, CgParams(rel_tol=1e-7), warm_start=warm, subspace=space)
    assert stats.iterations == 0
    assert stats.start_rank == 2
    assert np.abs(solution.values - exact.values).max() <= 1e-9


def test_projected_start_is_the_galerkin_minimizer():
    # theta solves (D'KD) theta = D'(b - K x0) against the dense oracle K, so
    # z_n + D theta minimizes the inner quadratic over z_n + span(D)
    rng = np.random.default_rng(61)
    for geom in (GridGeometry(12, 10), GridGeometry(9, 14)):
        for k in (1, 3, 6):
            for _ in range(5):
                data, p = random_instance(geom, rng)
                K = dense_matrix(data, p)
                b = interior(data.f_n.values)

                def q(x):
                    return 0.5 * x @ K @ x - b @ x

                warm = zero_rim_field(geom, rng, 0.0, 1.0)
                # the ring zeroes the rim the interior-only oracle does not see
                columns = [rng.uniform(-1.0, 1.0, size=geom.shape) for _ in range(k)]
                space = subspace_of(columns, size=6)
                theta, rank, applied = galerkin_start(data, p, warm, space)
                assert rank == applied == k
                D = np.stack([interior(c) for c in columns], axis=1)
                x0 = interior(warm.values)
                want = np.linalg.solve(D.T @ K @ D, D.T @ (b - K @ x0))
                assert np.allclose(theta, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())
                start = q(x0 + D @ theta)
                assert start <= q(x0) + 1e-12 * (1.0 + abs(q(x0)))
                for _ in range(3):
                    perturbed = theta * (1.0 + 0.1 * rng.standard_normal(k))
                    assert start <= q(x0 + D @ perturbed) + 1e-12 * (1.0 + abs(start))
                # the solve starts there; the ring kept its L Gram, so the solve
                # applies A only to the start and to the step
                _, stats = cg_solve(data, p, CgParams(), warm_start=warm, subspace=space)
                assert stats.start_rank == k
                assert stats.full_applications == 2


def test_ring_keeps_the_last_differences():
    # eight pushes into a ring of six: the two oldest are overwritten, and the
    # Gram of the rows they left is rebuilt, so theta still matches the oracle
    rng = np.random.default_rng(71)
    geom = GridGeometry(10, 9)
    data, p = random_instance(geom, rng)
    K = dense_matrix(data, p)
    b = interior(data.f_n.values)
    warm = zero_rim_field(geom, rng, 0.0, 1.0)
    x0 = interior(warm.values)
    iterates = [zero_rim_field(geom, rng).values for _ in range(9)]
    space = StartSubspace(6)
    for n in range(8):
        space.push(iterates[n + 1], iterates[n])
        if n == 3:
            galerkin_start(data, p, warm, space)  # the Gram of the first four
    assert space.count == 6
    last = [iterates[n + 1] - iterates[n] for n in range(2, 8)]
    held = [row.reshape(geom.shape) for row in space.rows]
    assert all(any(np.array_equal(h, d) for h in held) for d in last)
    theta, rank, applied = galerkin_start(data, p, warm, space)
    assert rank == 6 and applied == 4
    D = np.stack([interior(h) for h in held], axis=1)
    want = np.linalg.solve(D.T @ K @ D, D.T @ (b - K @ x0))
    assert np.allclose(theta, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


def test_rank_deficient_subspaces_start_no_worse():
    # a zero column, a duplicate and two nearly parallel columns: the Gram is
    # singular or nearly so, and the start must neither fail nor lose to z_n;
    # the near-null direction of u and u + 1e-6 v is kept (theta ~ 1e4), that
    # of u and u + 1e-9 v dropped
    rng = np.random.default_rng(79)
    geom = GridGeometry(11, 13)
    for _ in range(5):
        data, p = random_instance(geom, rng)
        K = dense_matrix(data, p)
        b = interior(data.f_n.values)
        reference = dense_solve_oracle(data, p)
        warm = zero_rim_field(geom, rng, 0.0, 1.0)
        u, v, w = (zero_rim_field(geom, rng).values for _ in range(3))
        for columns, want_rank in (
            ([u, np.zeros(geom.shape), v], 2),
            ([u, v, u.copy()], 2),
            ([u, zero_rim(u + 1e-6 * v), w], 3),
            ([u, zero_rim(u + 1e-9 * v), w], 2),
            ([np.zeros(geom.shape)], 0),
        ):
            space = subspace_of(columns, size=6)
            theta, rank, _ = galerkin_start(data, p, warm, space)
            assert np.all(np.isfinite(theta))
            assert rank == want_rank
            D = np.stack([interior(c) for c in columns], axis=1)
            x0 = interior(warm.values)

            def q(x):
                return 0.5 * x @ K @ x - b @ x

            solution, stats = cg_solve(data, p, CgParams(), warm_start=warm, subspace=space)
            assert np.abs(solution.values - reference.values).max() <= 1e-8
            # a kept start is never worse than z_n; a worse one is dropped
            assert stats.start_rank in (0, rank)
            if stats.start_rank:
                assert q(x0 + D @ theta) <= q(x0)


def test_start_that_raises_the_quadratic_is_dropped(monkeypatch):
    # theta reversed raises the quadratic by 3/2 theta'D'r0 > 0: the safeguard
    # sees it from the applied A D theta and starts at z_n instead
    rng = np.random.default_rng(83)
    geom = GridGeometry(12, 12)
    data, p = random_instance(geom, rng)
    warm = zero_rim_field(geom, rng, 0.0, 1.0)
    space = subspace_of([zero_rim_field(geom, rng).values for _ in range(3)])
    galerkin = StartSubspace.galerkin

    def reversed_galerkin(self, *args):
        theta, rank, applied = galerkin(self, *args)
        return -theta, rank, applied

    monkeypatch.setattr(StartSubspace, "galerkin", reversed_galerkin)
    x, stats = cg_solve(data, p, warm_start=warm, subspace=space)
    assert stats.start_rank == 0
    # three applications of L and one of A to the dropped step
    expected = textbook_reduced_pcg(data, p, warm_start=warm)
    assert_same_solve((x, dataclasses.replace(stats, full_applications=stats.full_applications - 4)), expected)


def test_cg_subspace_adds_no_grid_array():
    rng = np.random.default_rng(73)
    geom = GridGeometry(64, 64)
    data, p = random_instance(geom, rng)
    warm = zero_rim_field(geom, rng, 0.0, 1.0)
    space = subspace_of([rng.uniform(-0.01, 0.01, size=geom.shape) for _ in range(6)])
    p.operator  # built once per model, outside the measurement

    def peak(**kw):
        tracemalloc.start()
        try:
            _, stats = cg_solve(data, p, warm_start=warm, **kw)
            return tracemalloc.get_traced_memory()[1], stats
        finally:
            tracemalloc.stop()

    with_space, stats = peak(subspace=space)
    assert stats.start_rank == 6
    # the small system's few arrays only; one grid array here is 32 KiB
    assert with_space <= peak()[0] + 4096


def test_cg_residual_contract_on_random_instances():
    rng = np.random.default_rng(19)
    geom = GridGeometry(16, 16)
    cg = CgParams()
    for _ in range(100):
        data, p = random_instance(geom, rng)
        solution, stats = cg_solve(data, p, cg)
        r = data.f_n.values.copy()
        r[0, :] = r[-1, :] = 0.0
        r[:, 0] = r[:, -1] = 0.0
        r -= apply_operator(solution, data, p).values
        rel = np.linalg.norm(r.ravel()) / np.linalg.norm(
            np.where(
                np.pad(np.ones((14, 14), dtype=bool), 1), data.f_n.values, 0.0
            ).ravel()
        )
        assert rel <= cg.rel_tol
        assert stats.residual <= cg.rel_tol


def test_cg_budget_exhaustion_raises_with_best_iterate():
    rng = np.random.default_rng(23)
    geom = GridGeometry(16, 16)
    for max_iters, warm in ((2, None), (1, zero_rim_field(geom, rng, 0.0, 1.0)), (7, None)):
        data, p = random_instance(geom, rng)
        cg = CgParams(rel_tol=1e-12, max_iters=max_iters)
        with pytest.raises(CgConvergenceError) as err:
            cg_solve(data, p, cg, warm_start=warm)
        assert err.value.iterations == max_iters
        assert err.value.residual > 0.0
        assert err.value.best.values.shape == geom.shape
        # the same iterate, bit for bit, as the textbook loop when it runs out
        with pytest.raises(CgConvergenceError) as ref:
            textbook_reduced_pcg(data, p, cg, warm_start=warm)
        assert err.value.residual == ref.value.residual
        assert np.array_equal(err.value.best.values.view(np.uint64), ref.value.best.values.view(np.uint64))


def test_cg_params_validation():
    with pytest.raises(ValueError):
        CgParams(rel_tol=0.0)
    with pytest.raises(ValueError):
        CgParams(rel_tol=1e-3)
    with pytest.raises(ValueError):
        CgParams(max_iters=0)


def test_dense_oracle_single_unknown_closed_form():
    # 3x3 grid has one interior cell; the solve reduces to
    # z = f / (eps^2/h^2 * sum of face means + g)
    geom = GridGeometry(3, 3)
    h = geom.h
    p = flat_model(geom, g_value=1.0, epsilon=h)
    rng = np.random.default_rng(29)
    G = rng.uniform(0.5, 1.5, size=geom.shape)
    from illushape import CanyonField, ModelParams

    p = ModelParams(
        epsilon=h,
        lam=1.0,
        canyon=CanyonField(geom, G, alpha=0.5, beta=1.0),
        mask=p.mask,
    )
    g = rng.uniform(1.0, 2.0, size=geom.shape)
    f = rng.uniform(0.0, 1.0, size=geom.shape)
    data = LinearizedData(GridField(geom, g), GridField(geom, f))
    faces = (
        0.5 * (G[1, 1] + G[1, 0])
        + 0.5 * (G[1, 1] + G[1, 2])
        + 0.5 * (G[1, 1] + G[0, 1])
        + 0.5 * (G[1, 1] + G[2, 1])
    )
    expected = f[1, 1] / ((p.epsilon / h) ** 2 * faces + g[1, 1])
    got = dense_solve_oracle(data, p)
    assert got.values[1, 1] == pytest.approx(expected, rel=1e-14)
    assert np.all(got.values[0, :] == 0.0)


def test_dense_solution_satisfies_equation():
    rng = np.random.default_rng(31)
    geom = GridGeometry(9, 9)
    data, p = random_instance(geom, rng)
    sol = dense_solve_oracle(data, p)
    back = apply_operator(sol, data, p)
    residual = np.abs(back.values - data.f_n.values)[1:-1, 1:-1].max()
    assert residual <= 1e-10


def test_dense_matrix_matches_operator_columns():
    # the oracle is built from the operator's kernel, so it is checked
    # against the independent 2-D flux form, bit for bit
    rng = np.random.default_rng(37)
    for geom in (GridGeometry(6, 5), GridGeometry(6, 6), GridGeometry(9, 4)):
        data, p = random_instance(geom, rng)
        K = dense_matrix(data, p)
        cx, cy = face_coefficients(p)
        rows, cols = geom.height - 2, geom.width - 2
        for k in range(rows * cols):
            unit = np.zeros(geom.shape)
            unit[1 + k // cols, 1 + k % cols] = 1.0
            column = flux_apply(unit, cx, cy, data.g_n.values)[1:-1, 1:-1].ravel()
            assert np.array_equal(K[:, k].view(np.uint64), column.view(np.uint64))


def test_dense_oracle_size_limit():
    geom = GridGeometry(80, 80)
    data = LinearizedData(GridField.full(geom, 1.0), GridField.zeros(geom))
    p = flat_model(geom)
    with pytest.raises(ValueError):
        dense_solve_oracle(data, p)


def test_dense_solution_nonnegative_for_nonnegative_rhs():
    # discrete maximum principle of the M-matrix stencil
    rng = np.random.default_rng(41)
    geom = GridGeometry(10, 10)
    for _ in range(10):
        data, p = random_instance(geom, rng)
        f = rng.uniform(0.0, 1.0, size=geom.shape)
        nonneg = LinearizedData(data.g_n, GridField(geom, f))
        sol = dense_solve_oracle(nonneg, p)
        assert sol.values.min() >= -1e-12
