import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from illushape import (
    CanyonField,
    CgConvergenceError,
    CgParams,
    GridField,
    GridGeometry,
    LinearizedData,
    ModelParams,
    StartSubspace,
    Workspace,
    apply_operator,
    cg_solve,
    linearize,
    total_energy,
)
from illushape import elliptic
from illushape.grid import zero_rim

from helpers import (
    START_DIRECTIONS,
    dense_matrix,
    dense_solve_oracle,
    face_coefficients,
    first_variation,
    flux_apply,
    flux_diagonal,
    flat_model,
    random_instance,
    random_mask,
    random_model,
    random_phase,
    surrogate_target,
    textbook_reduced_pcg,
    true_range_bound,
    true_relative_residual,
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
    data = linearize(np.zeros(geom.shape), p)
    chi = p.mask.indicator()
    assert np.allclose(data.g_n, p.canyon.values + p.lam * chi, rtol=0, atol=0)
    assert np.all(data.f_n == 0.0)


def test_linearize_at_one():
    rng = np.random.default_rng(1)
    geom = GridGeometry(10, 10)
    from helpers import random_model

    p = random_model(geom, rng)
    data = linearize(np.ones(geom.shape), p)
    chi = p.mask.indicator()
    assert np.allclose(data.g_n, 3.0 * p.canyon.values + p.lam * chi, rtol=1e-15)
    assert np.allclose(data.f_n, 3.0 * p.canyon.values, rtol=1e-15)


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
            lhs = data.f_n[i, j]
            rhs = data.g_n[i, j] * gamma[i, j] - p.lam * chi[i, j] * gamma[i, j]
            assert lhs == pytest.approx(rhs, abs=1e-12)
    assert np.all(data.g_n >= p.canyon.alpha)
    assert np.all(data.f_n >= 0.0)


def test_operator_on_zero_field():
    rng = np.random.default_rng(3)
    geom = GridGeometry(9, 9)
    data, p = random_instance(geom, rng)
    out = apply_operator(np.zeros(geom.shape), data, p)
    assert np.all(out == 0.0)


def test_flat_kernel_matches_flux_form_bitwise():
    # A, its diffusion part L (no reaction coefficient) and its diagonal
    def same_bits(a, b):
        return np.array_equal(a.ravel().view(np.uint64), b.ravel().view(np.uint64))

    rng = np.random.default_rng(47)
    for geom in (GridGeometry(4, 3), GridGeometry(12, 9), GridGeometry(7, 16), GridGeometry(33, 31)):
        n = geom.cells
        for _ in range(10):
            data, p = random_instance(geom, rng)
            z = zero_rim_field(geom, rng)
            cx, cy = face_coefficients(p)
            expected = flux_apply(z.values, cx, cy, data.g_n)
            got = apply_operator(z, data, p)
            assert same_bits(got, expected)
            diffusion = np.empty(n)
            p.operator.apply(z.values.ravel(), None, diffusion, np.empty(n - 1))
            assert same_bits(diffusion, flux_apply(z.values, cx, cy, np.zeros(geom.shape)))
            diagonal = np.empty(n)
            p.operator.diagonal(data.g_n.ravel(), diagonal)
            assert same_bits(diagonal, flux_diagonal(cx, cy, data.g_n))


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


def subspace_of(columns):
    """A ring holding the given grid arrays, in slot order."""
    space = StartSubspace()
    for c in columns:
        space.push(c, 0.0)
    return space


def galerkin_start(data, p, warm, space):
    """The ring's theta, rank and L applications at ``warm``, from the residual
    ``cg_solve`` computes."""
    n = warm.geometry.cells
    x = zero_rim(warm.values.copy()).ravel()
    ax = np.empty(n)
    p.operator.apply(x, data.g_n.ravel(), ax, np.empty(n - 1))
    r = zero_rim(data.f_n.copy()).ravel() - ax
    return space.galerkin(p.operator, data.g_n.ravel(), r, np.empty(n), np.empty(n - 1))


def interior(a):
    return a[1:-1, 1:-1].ravel()


def near_start(data, p, rng):
    """A start that beats zero: the dense solution, each cell off by up to 10%."""
    u = dense_solve_oracle(data, p)
    return GridField(p.geometry, zero_rim(u * rng.uniform(0.9, 1.1, size=u.shape)))


def assert_same_solve(got, expected):
    (x, stats), (x_ref, stats_ref) = got, expected
    assert np.array_equal(x.view(np.uint64), x_ref.view(np.uint64))
    assert repr(stats) == repr(stats_ref)  # an int/float drift in a field fails too


def test_cg_matches_textbook_pcg_bitwise(monkeypatch):
    # the default band covers these grids whole; one and three compact rows a band
    # split the reduced loop's S d into many
    rng = np.random.default_rng(59)
    default = elliptic.BAND_CELLS
    for geom in (GridGeometry(16, 16), GridGeometry(21, 13)):
        for band, _ in itertools.product((default, 1, 3 * ((geom.width + 1) // 2)), range(10)):
            monkeypatch.setattr(elliptic, "BAND_CELLS", band)
            data, p = random_instance(geom, rng)
            cg = CgParams(rel_tol=float(rng.choice([1e-6, 1e-10])))
            cold = cg_solve(data, p, cg)
            assert_same_solve(cold, textbook_reduced_pcg(data, p, cg))
            # a uniform [0, 1] start is worse than zero here and is dropped for it;
            # one near the solution beats zero and is kept
            for warm, kept in ((zero_rim_field(geom, rng, 0.0, 1.0), False), (near_start(data, p, rng), True)):
                expected = textbook_reduced_pcg(data, p, cg, warm_start=warm)
                got = cg_solve(data, p, cg, warm_start=warm)
                assert_same_solve(got, expected)
                if kept:
                    assert not np.array_equal(got[0], cold[0])
                else:
                    assert_same_solve(got, cold)
                # a zero subspace keeps no direction: the plain warm start, bit for
                # bit, for one more application (of L) per difference
                zeros = subspace_of([np.zeros(geom.shape)] * 2)
                x, stats = cg_solve(data, p, cg, warm_start=warm, subspace=zeros)
                assert_same_solve(
                    (x, dataclasses.replace(stats, full_applications=stats.full_applications - 2)),
                    expected,
                )


def test_banded_schur_product_matches_the_whole_array_chain():
    # 256 x 160 is 20,480 compact entries, two bands of BAND_CELLS; every cell of
    # S d gets the whole-array chain's products and sums in the same order
    rng = np.random.default_rng(61)
    geom = GridGeometry(256, 160)
    _, p = random_instance(geom, rng)
    op = p.operator
    m = geom.height * ((geom.width + 1) // 2)
    d, drinv, d_black = (rng.uniform(0.5, 2.0, size=m) for _ in range(3))
    out, u, tmp = np.empty(m), np.empty(m), np.empty(m)
    plan = op.schur_plan(d, out, u, tmp, drinv, d_black)
    assert sum(f is np.subtract for f, *_ in plan) == 2  # one D_b d - . per band
    elliptic._run(plan)

    want, red, scratch = np.empty(m), np.empty(m), np.empty(m)
    elliptic._run(op.couple(d, red, scratch, elliptic.RED, 0, m))
    red *= drinv
    elliptic._run(op.couple(red, want, scratch, elliptic.BLACK, 0, m))
    np.subtract(d_black * d, want, out=want)
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


def test_schur_plan_holds_views_only(monkeypatch):
    # every array of a workspace's three plans (the fold, S d and the back-
    # substitution) is a view of its compact scratch or of the operator's
    # couplings, so the plans add no grid data; they are built on the first
    # solve, once per workspace and operator
    rng = np.random.default_rng(67)
    geom = GridGeometry(256, 160)
    data, p = random_instance(geom, rng)
    work = Workspace(p)
    assert work.schur is None
    cg_solve(data, p, CgParams(rel_tol=1e-6), work=work)
    op, *plans = work.schur
    assert op is p.operator and len(plans) == 3
    owners = [*work.compact, op.c_same, *(c for c, _, _ in op.links)]
    for plan in plans:
        for call in plan:
            for a in call[1:]:
                assert any(np.shares_memory(a, owner) for owner in owners)
    # a second solve runs the kept plans and builds no call
    for name in ("couple", "schur_plan"):
        monkeypatch.setattr(elliptic.Operator, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    cg_solve(data, p, CgParams(rel_tol=1e-6), work=work)
    assert all(kept is plan for kept, plan in zip(work.schur[1:], plans))
    monkeypatch.undo()
    # a model of the same grid has other couplings, so a solve with it builds its own
    _, other = random_instance(geom, rng)
    cg_solve(data, other, CgParams(rel_tol=1e-6), work=work)
    assert work.schur[0] is other.operator


def test_operator_symmetry():
    rng = np.random.default_rng(5)
    geom = GridGeometry(12, 9)
    for _ in range(10):
        data, p = random_instance(geom, rng)
        z = zero_rim_field(geom, rng)
        w = zero_rim_field(geom, rng)
        az_w = float(np.sum(apply_operator(z, data, p) * w.values))
        aw_z = float(np.sum(apply_operator(w, data, p) * z.values))
        assert az_w == pytest.approx(aw_z, rel=1e-12)


def test_operator_matches_dirichlet_laplacian_eigenpair():
    # with a flat unit canyon and constant reaction c the operator reduces to
    # -eps^2 Lap + c; sine modes pinned at the rim are exact eigenvectors with
    # Lap eigenvalue (4/h^2)(sin^2(pi k / (2(H-1))) + sin^2(pi l / (2(W-1))))
    geom = GridGeometry(18, 14)
    h = geom.h
    p = flat_model(geom, g_value=1.0, epsilon=2 * h)
    c = 0.7
    data = LinearizedData(np.full(geom.shape, c), np.zeros(geom.shape))
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
    got = apply_operator(v, data, p)
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
            residual = apply_operator(z, data, p) - data.f_n
            expected = geom.h**2 / p.epsilon * float(np.sum(u.values * residual))
            assert first_variation(z, u, z_n, p) == pytest.approx(expected, rel=1e-12)


def test_operator_positive_definite():
    rng = np.random.default_rng(7)
    geom = GridGeometry(10, 10)
    for _ in range(10):
        data, p = random_instance(geom, rng)
        z = zero_rim_field(geom, rng)
        quad = float(np.sum(apply_operator(z, data, p) * z.values))
        floor = float(data.g_n[1:-1, 1:-1].min()) * float(np.sum(z.values**2))
        assert quad >= floor - 1e-12


def test_cg_zero_rhs_short_circuits():
    rng = np.random.default_rng(11)
    geom = GridGeometry(12, 12)
    data, p = random_instance(geom, rng)
    zero_data = LinearizedData(data.g_n, np.zeros(geom.shape))
    solution, stats = cg_solve(zero_data, p)
    assert np.all(solution == 0.0)
    assert stats.cg_iters == 0
    assert stats.cg_residual == 0.0
    # on a full ring, as in a run: a start chose a row, a push wrote it, and the
    # zero right-hand side leaves the ring untouched, so the next push, with no
    # choice pending, writes the row after the newest
    space = subspace_of([zero_rim_field(geom, rng).values for _ in range(START_DIRECTIONS)])
    cg_solve(data, p, subspace=space)
    chosen = space.evict
    space.push(zero_rim_field(geom, rng).values, 0.0)
    assert space.newest == chosen and space.evict is None and space.stale == [chosen]
    solution, stats = cg_solve(zero_data, p, subspace=space)
    assert np.all(solution == 0.0)
    assert stats.full_applications == stats.reduced_applications == stats.start_rank == 0
    assert space.evict is None and space.stale == [chosen]
    space.push(zero_rim_field(geom, rng).values, 0.0)
    assert space.newest == (chosen + 1) % START_DIRECTIONS


def test_cg_matches_dense_oracle():
    rng = np.random.default_rng(13)
    geom = GridGeometry(8, 8)
    for _ in range(10):
        data, p = random_instance(geom, rng)
        solution, _ = cg_solve(data, p, CgParams())
        reference = dense_solve_oracle(data, p)
        assert np.abs(solution - reference).max() <= 1e-8


def test_reduced_cg_on_small_and_odd_grids():
    # odd widths pad every other compact row; 3x3 has no black interior cell
    rng = np.random.default_rng(67)
    for width, height in ((3, 3), (4, 3), (3, 4), (5, 4), (9, 14), (14, 9), (13, 8)):
        geom = GridGeometry(width, height)
        for _ in range(5):
            data, p = random_instance(geom, rng)
            reference = dense_solve_oracle(data, p)
            f = zero_rim(data.f_n.copy())
            for warm in (None, zero_rim_field(geom, rng, 0.0, 1.0)):
                solution, stats = cg_solve(data, p, CgParams(), warm_start=warm)
                assert np.abs(solution - reference).max() <= 1e-8
                r = f - apply_operator(solution, data, p)
                assert np.linalg.norm(r) <= CgParams().rel_tol * np.linalg.norm(f)
                assert stats.cg_residual <= CgParams().rel_tol


def test_reduced_cg_is_cg_on_the_unit_diagonal_reduced_system():
    # an oracle independent of the textbook loop: dense S = K_bb - K_br K_rr^-1 K_rb
    # scaled by D_b^-1/2 on both sides, k plain CG steps from 0, unscaled and
    # back-substituted, is cg_solve's iterate after k steps
    rng = np.random.default_rng(71)
    for width, height in ((12, 12), (13, 9)):
        geom = GridGeometry(width, height)
        data, p = random_instance(geom, rng)
        K = dense_matrix(data, p)
        f = data.f_n[1:-1, 1:-1].ravel()
        rows, cols = np.indices(geom.shape)
        black = ((rows + cols) % 2 == 1)[1:-1, 1:-1].ravel()
        red = ~black
        k_rr_inv = 1.0 / np.diag(K)[red]  # red cells couple to black cells only
        schur = K[np.ix_(black, black)] - K[np.ix_(black, red)] @ (k_rr_inv[:, None] * K[np.ix_(red, black)])
        rhs = f[black] - K[np.ix_(black, red)] @ (k_rr_inv * f[red])
        scale = 1.0 / np.sqrt(np.diag(K)[black])
        unit = scale[:, None] * schur * scale[None, :]
        y, r = np.zeros_like(rhs), scale * rhs
        d = r.copy()
        for k in range(1, 6):
            ud = unit @ d
            alpha = (r @ r) / (d @ ud)
            y = y + alpha * d
            r_next = r - alpha * ud
            d = r_next + ((r_next @ r_next) / (r @ r)) * d
            r = r_next
            expected = np.empty(len(f))
            expected[black] = scale * y
            expected[red] = k_rr_inv * (f[red] - K[np.ix_(red, black)] @ expected[black])
            with pytest.raises(CgConvergenceError) as err:
                cg_solve(data, p, CgParams(rel_tol=1e-14, max_iters=k))
            best = err.value.best[1:-1, 1:-1].ravel()
            assert np.abs(best - expected).max() <= 1e-12 * np.abs(best).max()


def test_cg_warm_start_at_solution_takes_no_iterations():
    rng = np.random.default_rng(17)
    geom = GridGeometry(10, 10)
    data, p = random_instance(geom, rng)
    exact = dense_solve_oracle(data, p)
    # the start meets the tolerance: the reduced loop takes no iteration, and the
    # red cells are back-substituted like any solve's
    solution, stats = cg_solve(data, p, CgParams(rel_tol=1e-7), warm_start=exact)
    assert stats.cg_iters == 0 and stats.reduced_applications == 1
    assert_same_solve((solution, stats), textbook_reduced_pcg(data, p, CgParams(rel_tol=1e-7), warm_start=exact))
    assert np.abs(solution - exact).max() <= 1e-12
    # so does a start elsewhere from a subspace that contains the solution
    warm = zero_rim_field(geom, rng, 0.0, 1.0)
    other = zero_rim_field(geom, rng).values
    columns = [other, exact - warm.values, other + exact - warm.values]
    solution, stats = cg_solve(data, p, CgParams(rel_tol=1e-7), warm_start=warm, subspace=subspace_of(columns))
    assert stats.cg_iters == 0
    assert stats.start_rank == 2
    assert np.abs(solution - exact).max() <= 1e-9
    # the reduced system starts from the accepted start, the rim-zeroed warm start
    # plus D theta: the solution is the textbook's solve from there, bit for bit
    twin = subspace_of(columns)
    theta, _, _ = galerkin_start(data, p, warm, twin)
    start = zero_rim(warm.values.copy()).ravel() + np.einsum("j,jn->n", theta, twin.rows)
    want, record = textbook_reduced_pcg(data, p, CgParams(rel_tol=1e-7), warm_start=start.reshape(geom.shape))
    assert record.cg_iters == 0
    assert np.array_equal(solution.view(np.uint64), want.view(np.uint64))


def test_projected_start_is_the_galerkin_minimizer():
    # theta solves (D'KD) theta = D'(b - K x0) against the dense oracle K, so
    # x0 + D theta minimizes the inner quadratic over x0 + span(D); the solve
    # starts there when that is below zero's quadratic, 0, and from zero
    # otherwise.  A random warm start in [0, 1] is far worse than zero here,
    # and from zero itself the projection always beats it
    rng = np.random.default_rng(61)
    kept = set()
    for geom in (GridGeometry(12, 10), GridGeometry(9, 14)):
        for k in (1, 3, 6):
            for _ in range(5):
                data, p = random_instance(geom, rng)
                K = dense_matrix(data, p)
                b = interior(data.f_n)

                def q(x):
                    return 0.5 * x @ K @ x - b @ x

                warm = zero_rim_field(geom, rng, 0.0, 1.0)
                # the ring zeroes the rim the interior-only oracle does not see
                columns = [rng.uniform(-1.0, 1.0, size=geom.shape) for _ in range(k)]
                for x0_field in (warm, GridField(geom, np.zeros(geom.shape))):
                    space = subspace_of(columns)
                    theta, rank, applied = galerkin_start(data, p, x0_field, space)
                    assert rank == applied == k
                    D = np.stack([interior(c) for c in columns], axis=1)
                    x0 = interior(x0_field.values)
                    want = np.linalg.solve(D.T @ K @ D, D.T @ (b - K @ x0))
                    assert np.allclose(theta, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())
                    start = q(x0 + D @ theta)
                    assert start <= q(x0) + 1e-12 * (1.0 + abs(q(x0)))
                    for _ in range(3):
                        perturbed = theta * (1.0 + 0.1 * rng.standard_normal(k))
                        assert start <= q(x0 + D @ perturbed) + 1e-12 * (1.0 + abs(start))
                    # the ring kept its L Gram, so the solve applies A only to the
                    # start and to the step
                    _, stats = cg_solve(data, p, CgParams(), warm_start=x0_field, subspace=space)
                    assert stats.start_rank == (k if start < 0.0 else 0)
                    assert stats.full_applications == 2
                    kept.add(stats.start_rank > 0)
    assert kept == {True, False}


def test_ring_holds_one_grid_shape():
    # a 16x8 ring's flat rows have the 128 cells of an 8x16 grid too: the ring
    # keeps its first push's shape, a push of another shape raises and leaves
    # the ring as it was, and so does a solve on another grid
    rng = np.random.default_rng(97)
    wide, tall = GridGeometry(16, 8), GridGeometry(8, 16)
    space = subspace_of([zero_rim_field(wide, rng).values for _ in range(2)])
    with pytest.raises(ValueError, match="different grids"):
        space.push(zero_rim_field(tall, rng).values, 0.0)
    assert space.diffs.shape[1:] == wide.shape and space.count == 2 and space.newest == 1
    data, p = random_instance(tall, rng)
    with pytest.raises(ValueError, match="different grids"):
        cg_solve(data, p, subspace=space)


def test_ring_keeps_the_last_differences():
    # eight pushes into a ring of six: the two oldest are overwritten, and the
    # Gram of the rows they left is rebuilt, so theta still matches the oracle
    rng = np.random.default_rng(71)
    geom = GridGeometry(10, 9)
    data, p = random_instance(geom, rng)
    K = dense_matrix(data, p)
    b = interior(data.f_n)
    warm = zero_rim_field(geom, rng, 0.0, 1.0)
    x0 = interior(warm.values)
    iterates = [zero_rim_field(geom, rng).values for _ in range(9)]
    space = StartSubspace()
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


def test_full_ring_replaces_a_nearly_dependent_row():
    # row 2 is the sum of the five others to 1e-9: the near-null eigenvector
    # weighs each row by its norm, the sum's the largest, so the next push
    # overwrites row 2 and only its L-Gram entries are rebuilt
    rng = np.random.default_rng(89)
    geom = GridGeometry(10, 9)
    data, p = random_instance(geom, rng)
    K = dense_matrix(data, p)
    b = interior(data.f_n)
    warm = zero_rim_field(geom, rng, 0.0, 1.0)
    others = [zero_rim_field(geom, rng).values for _ in range(5)]
    dependent = zero_rim(sum(others) + 1e-9 * zero_rim_field(geom, rng).values)
    space = subspace_of(others[:2] + [dependent] + others[2:])
    assert space.evict is None
    _, rank, _ = galerkin_start(data, p, warm, space)
    assert rank == 5
    assert space.evict == 2
    new = zero_rim_field(geom, rng).values
    space.push(new, 0.0)
    assert space.evict is None and space.newest == 2
    held = [row.reshape(geom.shape) for row in space.rows]
    assert np.array_equal(held[2], new)
    assert all(np.array_equal(h, c) for h, c in zip(held[:2] + held[3:], others))
    theta, rank, applied = galerkin_start(data, p, warm, space)
    assert rank == 6 and applied == 1
    D = np.stack([interior(h) for h in held], axis=1)
    want = np.linalg.solve(D.T @ K @ D, D.T @ (b - K @ interior(warm.values)))
    assert np.allclose(theta, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


def test_full_ring_replaces_its_least_used_row_never_the_newest():
    # the start x0 + D theta reaches the exact solution on rows 0-4 alone, so the
    # newest row, 5, carries none of it, and of the others row 3, weighted
    # least, carries the least A-norm |theta_i| sqrt(d_i'K d_i)
    rng = np.random.default_rng(97)
    geom = GridGeometry(11, 10)
    data, p = random_instance(geom, rng)
    K = dense_matrix(data, p)
    exact = dense_solve_oracle(data, p)
    columns = [zero_rim_field(geom, rng).values for _ in range(6)]
    weights = [1.0, -0.5, 2.0, 0.01, 0.7]
    warm = GridField(geom, exact - sum(c * w for c, w in zip(columns, weights)))
    space = subspace_of(columns)
    assert space.newest == 5
    theta, rank, _ = galerkin_start(data, p, warm, space)
    assert rank == 6
    D = np.stack([interior(c) for c in columns], axis=1)
    used = np.abs(theta) * np.sqrt(np.einsum("ni,nm,mi->i", D, K, D))
    assert np.allclose(theta[:5], weights, rtol=1e-8)
    assert used[5] < 1e-6 * used[:5].min()
    assert space.evict == int(np.argmin(used[:5])) == 3
    space.push(zero_rim_field(geom, rng).values, 0.0)
    assert space.newest == 3 and space.evict is None
    # the next start may not pick the row just written, however little it carries
    galerkin_start(data, p, warm, space)
    assert space.evict not in (None, 3)


def test_ring_stays_first_in_first_out_without_a_choice():
    # a ring still filling chooses nothing and fills its rows in order, and a
    # push with no choice pending writes the row after the newest: on a full
    # ring pushed to twice without a start between, the row after the chosen one
    rng = np.random.default_rng(104)
    geom = GridGeometry(9, 8)
    data, p = random_instance(geom, rng)
    warm = zero_rim_field(geom, rng, 0.0, 1.0)
    space = StartSubspace()
    size = START_DIRECTIONS
    written, chosen = [], []
    for n in range(size + 4):
        if n in (2, size + 1):
            galerkin_start(data, p, warm, space)
        chosen.append(space.evict)
        space.push(zero_rim_field(geom, rng).values, 0.0)
        written.append(space.newest)
    choice = chosen[size + 1]
    assert [n for n, c in enumerate(chosen) if c is not None] == [size + 1]
    assert written[: size + 1] == [*range(size), 0]
    assert written[size + 1] == choice != 0
    # a pointer advanced by every push that did not choose would write row 1 next
    assert choice > 1
    assert written[size + 2 :] == [(choice + 1) % size, (choice + 2) % size]


def test_rank_deficient_subspaces_start_no_worse():
    # a zero column, a duplicate and two nearly parallel columns: the Gram is
    # singular or nearly so, and the start must neither fail nor lose to z_n;
    # the near-null direction of u and u + 1e-6 v is kept (theta ~ 1e4), that
    # of u and u + 1e-9 v dropped.  From a start near the solution, which
    # beats zero, every projected start is kept; from a uniform [0, 1] one it
    # may be dropped for zero
    rng = np.random.default_rng(79)
    geom = GridGeometry(11, 13)
    for _ in range(5):
        data, p = random_instance(geom, rng)
        K = dense_matrix(data, p)
        b = interior(data.f_n)
        reference = dense_solve_oracle(data, p)
        u, v, w = (zero_rim_field(geom, rng).values for _ in range(3))
        for warm, near in ((zero_rim_field(geom, rng, 0.0, 1.0), False), (near_start(data, p, rng), True)):
            for columns, want_rank in (
                ([u, np.zeros(geom.shape), v], 2),
                ([u, v, u.copy()], 2),
                ([u, zero_rim(u + 1e-6 * v), w], 3),
                ([u, zero_rim(u + 1e-9 * v), w], 2),
                ([np.zeros(geom.shape)], 0),
            ):
                space = subspace_of(columns)
                theta, rank, _ = galerkin_start(data, p, warm, space)
                assert np.all(np.isfinite(theta))
                assert rank == want_rank
                D = np.stack([interior(c) for c in columns], axis=1)
                x0 = interior(warm.values)

                def q(x):
                    return 0.5 * x @ K @ x - b @ x

                solution, stats = cg_solve(data, p, CgParams(), warm_start=warm, subspace=space)
                assert np.abs(solution - reference).max() <= 1e-8
                # a kept start is never worse than z_n; a worse one is dropped
                assert stats.start_rank == rank if near else stats.start_rank in (0, rank)
                if stats.start_rank:
                    assert q(x0 + D @ theta) <= q(x0)


def test_start_that_raises_the_quadratic_is_dropped(monkeypatch):
    # theta reversed raises the quadratic by 3/2 theta'D'r0 > 0: the safeguard
    # sees it from the applied A D theta and starts at z_n instead.  Near the
    # solution z_n and the reversed start both beat zero, so only the
    # safeguard keeps the solve from the reversed start, and it runs from z_n,
    # not from zero; a uniform [0, 1] z_n is worse than zero and dropped for it
    rng = np.random.default_rng(83)
    geom = GridGeometry(12, 12)
    data, p = random_instance(geom, rng)
    columns = [zero_rim_field(geom, rng).values for _ in range(3)]
    far, near = zero_rim_field(geom, rng, 0.0, 1.0), near_start(data, p, rng)
    K, b = dense_matrix(data, p), interior(data.f_n)
    theta, _, _ = galerkin_start(data, p, near, subspace_of(columns))
    reversed_start = interior(near.values) - np.stack([interior(c) for c in columns], axis=1) @ theta
    assert 0.5 * reversed_start @ K @ reversed_start < b @ reversed_start
    galerkin = StartSubspace.galerkin

    def reversed_galerkin(self, *args):
        theta, rank, applied = galerkin(self, *args)
        return -theta, rank, applied

    monkeypatch.setattr(StartSubspace, "galerkin", reversed_galerkin)
    cold = textbook_reduced_pcg(data, p)
    for warm, kept in ((near, True), (far, False)):
        x, stats = cg_solve(data, p, warm_start=warm, subspace=subspace_of(columns))
        assert stats.start_rank == 0
        # three applications of L and one of A to the dropped step
        expected = textbook_reduced_pcg(data, p, warm_start=warm)
        assert_same_solve((x, dataclasses.replace(stats, full_applications=stats.full_applications - 4)), expected)
        assert np.array_equal(expected[0], cold[0]) != kept


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
    assert stats.full_applications == 8  # the start, six new differences' L, and the step
    # the small system's few arrays only; one grid array here is 32 KiB
    assert with_space <= peak()[0] + 4096


def test_cg_residual_contract_on_random_instances():
    rng = np.random.default_rng(19)
    geom = GridGeometry(16, 16)
    cg = CgParams()
    for _ in range(100):
        data, p = random_instance(geom, rng)
        solution, stats = cg_solve(data, p, cg)
        r = data.f_n.copy()
        r[0, :] = r[-1, :] = 0.0
        r[:, 0] = r[:, -1] = 0.0
        r -= apply_operator(solution, data, p)
        rel = np.linalg.norm(r.ravel()) / np.linalg.norm(
            np.where(
                np.pad(np.ones((14, 14), dtype=bool), 1), data.f_n, 0.0
            ).ravel()
        )
        assert rel <= cg.rel_tol
        assert stats.cg_residual <= cg.rel_tol


def test_a_start_far_above_a_tiny_right_hand_side_meets_the_tolerance():
    # a right-hand side near 1e-16 and a start near 1e-9, as on a fading run's
    # last step: the start's residual would carry rounding far above
    # rel_tol ||f||, which the recursive residual does not see, but its
    # quadratic is far above zero's, so the solve drops it and is the cold
    # solve bit for bit, in one pass; the recorded and the true relative
    # residual both meet the tolerance and agree to 1e-3
    rng = np.random.default_rng(89)
    geom = GridGeometry(32, 32)
    cg = CgParams()
    for _ in range(5):
        data, p = random_instance(geom, rng)
        tiny = LinearizedData(data.g_n, data.f_n * 1e-16)
        warm = zero_rim_field(geom, rng, 0.0, 1e-9)
        solution, stats = cg_solve(tiny, p, cg, warm_start=warm)
        assert_same_solve((solution, stats), cg_solve(tiny, p, cg))
        assert stats.full_applications == 1 and stats.reduced_applications == stats.cg_iters + 1
        rel = true_relative_residual(solution, tiny, p)
        assert rel <= cg.rel_tol and stats.cg_residual <= cg.rel_tol
        assert abs(stats.cg_residual - rel) <= 1e-3 * rel
        assert stats.range_bound == pytest.approx(true_range_bound(solution, tiny, p), rel=1e-3)
    assert np.array_equal(cg_solve(tiny, p, CgParams(max_iters=stats.cg_iters), warm_start=warm)[0], solution)
    for max_iters in range(1, stats.cg_iters):
        with pytest.raises(CgConvergenceError):
            cg_solve(tiny, p, CgParams(max_iters=max_iters), warm_start=warm)


def test_a_kept_start_large_against_the_solution_meets_the_tolerance():
    # the rule keeps a start x with Q(x) < 0, that is ||x - u||_A < ||u||_A,
    # which still lets x be large against u: u + e, e a smooth bump of A-norm
    # 0.99 ||u||_A, with u rough (a checkerboard right-hand side) and a canyon
    # floor of 1e-4 (kappa(A) near 650), makes x 5.9-7.0 times u.  Its
    # rounding stays below 2 eps kappa(A) ||f||, so at rel_tol 1e-10 and 1e-12,
    # at f's own scale and at 1e-16 of it, the recorded residual and bound
    # agree with the true ones to 1% (measured: 1.5e-4 and 9.8e-4 at most)
    rng = np.random.default_rng(101)
    geom = GridGeometry(48, 48)
    i, j = np.indices(geom.shape)
    mode = (i * (geom.height - 1 - i) * j * (geom.width - 1 - j)).astype(float)
    for _ in range(3):
        canyon = CanyonField(geom, rng.uniform(1e-4, 1.0001, size=geom.shape), alpha=1e-4, beta=1.0)
        p = ModelParams(epsilon=0.25, lam=1.0, canyon=canyon, mask=random_mask(geom, rng))
        g_n = linearize(np.zeros(geom.shape), p).g_n
        f_n = np.where((i + j) % 2, 1.0, -1.0) * rng.uniform(0.5, 1.0, size=geom.shape)
        for scale in (1.0, 1e-16):
            data = LinearizedData(g_n, scale * f_n)

            def a_dot(x, y):
                return float(np.sum(x * apply_operator(y, data, p)))

            u = cg_solve(data, p, CgParams(rel_tol=1e-15))[0].copy()
            x = u + 0.99 * math.sqrt(a_dot(u, u) / a_dot(mode, mode)) * mode
            assert a_dot(x, x) < 2.0 * np.sum(data.f_n * x)  # Q(x) < 0
            assert np.linalg.norm(x) >= 5.0 * np.linalg.norm(u)
            for rel_tol in (1e-10, 1e-12):
                cg = CgParams(rel_tol=rel_tol)
                cold = cg_solve(data, p, cg)[0].copy()
                solution, stats = cg_solve(data, p, cg, warm_start=x)
                assert not np.array_equal(solution, cold)  # the start was kept
                rel = true_relative_residual(solution, data, p)
                assert stats.cg_residual <= rel_tol
                assert abs(stats.cg_residual - rel) <= 0.01 * rel
                assert stats.range_bound == pytest.approx(true_range_bound(solution, data, p), rel=0.01)


def test_cg_budget_exhaustion_raises_with_best_iterate():
    # a uniform [0, 1] start is worse than zero and dropped for it, one near
    # the solution is kept: the best iterate is then not the cold solve's
    rng = np.random.default_rng(23)
    geom = GridGeometry(16, 16)
    for max_iters, start in ((2, None), (1, "far"), (1, "near"), (7, None)):
        data, p = random_instance(geom, rng)
        warm = None
        if start == "far":
            warm = zero_rim_field(geom, rng, 0.0, 1.0)
        elif start == "near":
            warm = near_start(data, p, rng)
        cg = CgParams(rel_tol=1e-12, max_iters=max_iters)
        with pytest.raises(CgConvergenceError) as err:
            cg_solve(data, p, cg, warm_start=warm)
        with pytest.raises(CgConvergenceError) as cold:
            cg_solve(data, p, cg)
        assert np.array_equal(err.value.best, cold.value.best) == (start != "near")
        assert err.value.iterations == max_iters
        assert err.value.residual > 0.0
        assert err.value.best.shape == geom.shape
        # the same iterate, bit for bit, as the textbook loop when it runs out
        with pytest.raises(CgConvergenceError) as ref:
            textbook_reduced_pcg(data, p, cg, warm_start=warm)
        assert err.value.residual == ref.value.residual
        assert np.array_equal(err.value.best.view(np.uint64), ref.value.best.view(np.uint64))


@pytest.mark.parametrize("width", [64, 63])
def test_workspace_layout(width):
    # 8.5 grid arrays on even widths, each array on a 64-byte boundary, and the
    # scratch's grid arrays over compact arrays 2i and 2i + 1 only
    geom = GridGeometry(width, 48)
    work = Workspace(flat_model(geom))
    own = [work.z, work.z_next, work.g, work.f]
    arrays = [*own, *work.compact, *work.grids]
    assert all(a.ctypes.data % 64 == 0 and a.flags.c_contiguous for a in arrays)
    assert all(a.shape == geom.shape for a in (*own, *work.grids))
    assert [c.size for c in work.compact] == [48 * ((width + 1) // 2)] * 9
    for i, grid in enumerate(work.grids):
        assert [np.shares_memory(grid, c) for c in work.compact] == [k in (2 * i, 2 * i + 1) for k in range(9)]
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations([*own, *work.compact], 2))
    z, z_next = work.z, work.z_next
    work.swap()
    assert work.z is z_next and work.z_next is z


def test_cg_params_validation():
    eps = np.finfo(float).eps
    assert CgParams(rel_tol=eps).rel_tol == eps
    for tight in (0.0, eps / 2, 1e-300, 5e-324, math.nan):
        with pytest.raises(ValueError, match="machine epsilon"):
            CgParams(rel_tol=tight)
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
    data = LinearizedData(g, f)
    faces = (
        0.5 * (G[1, 1] + G[1, 0])
        + 0.5 * (G[1, 1] + G[1, 2])
        + 0.5 * (G[1, 1] + G[0, 1])
        + 0.5 * (G[1, 1] + G[2, 1])
    )
    expected = f[1, 1] / ((p.epsilon / h) ** 2 * faces + g[1, 1])
    got = dense_solve_oracle(data, p)
    assert got[1, 1] == pytest.approx(expected, rel=1e-14)
    assert np.all(got[0, :] == 0.0)


def test_dense_solution_satisfies_equation():
    rng = np.random.default_rng(31)
    geom = GridGeometry(9, 9)
    data, p = random_instance(geom, rng)
    sol = dense_solve_oracle(data, p)
    back = apply_operator(sol, data, p)
    residual = np.abs(back - data.f_n)[1:-1, 1:-1].max()
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
            column = flux_apply(unit, cx, cy, data.g_n)[1:-1, 1:-1].ravel()
            assert np.array_equal(K[:, k].view(np.uint64), column.view(np.uint64))


def test_dense_oracle_size_limit():
    geom = GridGeometry(80, 80)
    data = LinearizedData(np.ones(geom.shape), np.zeros(geom.shape))
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
        nonneg = LinearizedData(data.g_n, f)
        sol = dense_solve_oracle(nonneg, p)
        assert sol.min() >= -1e-12
