"""Shared builders for the test suite."""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from illushape import (
    CanyonField,
    CgConvergenceError,
    CgParams,
    CgStats,
    ConfigurationMask,
    GridField,
    GridGeometry,
    IterationReport,
    LinearizedData,
    ModelParams,
    PhaseField,
    SolverConfig,
    double_well,
    energy_drop_bound,
    euler_lagrange_residual,
    linearize,
    null_hypothesis,
    step,
    total_energy,
)
from illushape.cli import _TOKEN, PgmFormatError
from illushape.energy import _surrogate_weight
from illushape.grid import _dot, face_means, require_same_geometry, rms_diff, zero_rim

DENSE_ORACLE_LIMIT = 4096


def empty_mask(geom: GridGeometry) -> ConfigurationMask:
    return ConfigurationMask(geom, np.zeros(geom.shape, dtype=bool))


def flat_canyon(geom: GridGeometry, value: float = 1.0) -> CanyonField:
    return CanyonField(geom, np.full(geom.shape, value), alpha=value, beta=0.0)


def flat_model(
    geom: GridGeometry,
    g_value: float = 1.0,
    epsilon: float | None = None,
    lam: float = 1.0,
    mask: ConfigurationMask | None = None,
) -> ModelParams:
    """Model with a constant canyon; epsilon defaults to 2h."""
    if epsilon is None:
        epsilon = 2.0 * geom.h
    if mask is None:
        mask = empty_mask(geom)
    return ModelParams(epsilon=epsilon, lam=lam, canyon=flat_canyon(geom, g_value), mask=mask)


def random_canyon(geom: GridGeometry, rng: np.random.Generator) -> CanyonField:
    values = rng.uniform(0.1, 1.1, size=geom.shape)
    return CanyonField(geom, values, alpha=0.1, beta=1.0)


def random_mask(geom: GridGeometry, rng: np.random.Generator, p: float = 0.2) -> ConfigurationMask:
    return ConfigurationMask(geom, rng.random(geom.shape) < p)


def random_model(geom: GridGeometry, rng: np.random.Generator, lam: float = 1.0) -> ModelParams:
    """Random canyon and mask; epsilon is 2h capped at 0.25, but at least h on tiny grids."""
    return ModelParams(
        epsilon=max(geom.h, min(2.0 * geom.h, 0.25)),
        lam=lam,
        canyon=random_canyon(geom, rng),
        mask=random_mask(geom, rng),
    )


def random_phase(geom: GridGeometry, rng: np.random.Generator, lo: float = 0.0, hi: float = 1.0) -> PhaseField:
    values = rng.uniform(lo, hi, size=geom.shape)
    values[0, :] = 0.0
    values[-1, :] = 0.0
    values[:, 0] = 0.0
    values[:, -1] = 0.0
    return PhaseField(geom, values)


def random_instance(
    geom: GridGeometry, rng: np.random.Generator
) -> tuple[LinearizedData, ModelParams]:
    """Random linearized inner problem: z_n in [0,1], G in [0.1, 1.1], random mask."""
    model = random_model(geom, rng)
    z_n = GridField(geom, rng.uniform(0.0, 1.0, size=geom.shape))
    return linearize(z_n, model), model


def surrogate_target(z):
    """Cellwise target 3 z^2 / (1 + 2 z^2) of the convex surrogate.

    Fixed points of the map are 0, 1/2, and 1, matching the critical points
    of the double well.
    """
    zz = np.square(z)
    return 3.0 * zz / (1.0 + 2.0 * zz)


def diffusion_form(u: PhaseField, z: PhaseField, p: ModelParams) -> float:
    """u'Lz with L the diffusion part of the model's operator kernel."""
    lz = np.empty(p.geometry.cells)
    p.operator.apply(z.values.ravel(), None, lz, np.empty(lz.size - 1))
    return _dot(u.values.ravel(), lz)


def surrogate_energy(z: PhaseField, z_n: PhaseField, p: ModelParams) -> float:
    """Strictly convex quadratic majorant of the total energy at iterate z_n,
    from the package's operator kernel and surrogate weight."""
    require_same_geometry(z, p)
    zv = z.values
    h = p.geometry.h
    weight = _surrogate_weight(z_n, p)
    target = surrogate_target(z_n.values)
    cell_scale = h * h / (2.0 * p.epsilon)
    grad = cell_scale * diffusion_form(z, z, p)
    cell = cell_scale * float(np.sum(weight * np.square(zv - target)))
    pin = p.lam * cell_scale * float(np.sum(p.mask.inside * zv * zv))
    return grad + cell + pin


def first_variation(z: PhaseField, u: PhaseField, z_n: PhaseField, p: ModelParams) -> float:
    """Directional derivative of the surrogate at z in direction u.

    Vanishes for every zero-trace direction exactly when z solves the
    linearized elliptic equation assembled from z_n.
    """
    require_same_geometry(z, p)
    require_same_geometry(u, p)
    zv = z.values
    uv = u.values
    h = p.geometry.h
    weight = _surrogate_weight(z_n, p)
    target = surrogate_target(z_n.values)
    cell_scale = h * h / p.epsilon
    grad = cell_scale * diffusion_form(u, z, p)
    cell = cell_scale * float(np.sum(weight * (zv - target) * uv))
    pin = p.lam * cell_scale * float(np.sum(p.mask.inside * zv * uv))
    return grad + cell + pin


def profile_measure_1d(epsilon: float, half_length: float, n_points: int) -> float:
    """Transition-layer measure of the 1-D logistic profile.

    Samples z(t) = S(t / epsilon) with the logistic S on
    [-half_length, half_length], using the analytic derivative
    z' = z (1 - z) / epsilon, and integrates
    epsilon/2 z'^2 + Phi(z) / (2 epsilon) by the trapezoid rule.  As the
    window widens the value tends to 1/6, the total variation of
    z^2/2 - z^3/3 across the well.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if half_length < 8.0 * epsilon:
        raise ValueError("half_length must cover at least 8 epsilon")
    if n_points < 1024:
        raise ValueError("need at least 1024 sample points")
    t = np.linspace(-half_length, half_length, n_points)
    z = 0.5 * (1.0 + np.tanh(0.5 * t / epsilon))
    dz = z * (1.0 - z) / epsilon
    integrand = 0.5 * epsilon * dz * dz + double_well(z) / (2.0 * epsilon)
    return float(np.trapezoid(integrand, t))


def dense_matrix(data: LinearizedData, p: ModelParams) -> np.ndarray:
    """Dense interior system matrix, row-major over interior cells.

    Column j is the package's operator kernel applied to the j-th interior
    unit vector, so the matrix is ``apply_operator`` written out; bounded by
    ``DENSE_ORACLE_LIMIT`` unknowns.
    """
    geom = data.f_n.geometry
    cells = np.arange(geom.cells).reshape(geom.shape)[1:-1, 1:-1].ravel()
    n = len(cells)
    if n > DENSE_ORACLE_LIMIT:
        raise ValueError(f"dense oracle limited to {DENSE_ORACLE_LIMIT} interior unknowns")
    g = data.g_n.values.ravel()
    unit, out, face = np.zeros(geom.cells), np.empty(geom.cells), np.empty(geom.cells - 1)
    K = np.empty((n, n))
    for j, k in enumerate(cells):
        unit[k] = 1.0
        p.operator.apply(unit, g, out, face)
        unit[k] = 0.0
        K[:, j] = out[cells]
    return K


def dense_solve_oracle(data: LinearizedData, p: ModelParams) -> GridField:
    """Direct dense solve of the interior system for small grids: LU
    elimination with partial pivoting on ``dense_matrix``."""
    geom = data.f_n.geometry
    K = dense_matrix(data, p)
    b = data.f_n.values[1:-1, 1:-1].ravel()
    full = np.zeros(geom.shape)
    full[1:-1, 1:-1] = np.linalg.solve(K, b).reshape(geom.height - 2, geom.width - 2)
    return GridField(geom, full)


def face_coefficients(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(eps/h)^2 times the face means of the canyon, as 2-D x- and y-face arrays."""
    scale = (p.epsilon / p.geometry.h) ** 2
    gx, gy = face_means(p.canyon.values)
    return scale * gx, scale * gy


def flux_apply(z: np.ndarray, cx: np.ndarray, cy: np.ndarray, g: np.ndarray) -> np.ndarray:
    """A z in the 2-D flux form for a zero-rim z; the output rim is zeroed as well."""
    fx = cx * (z[:, 1:] - z[:, :-1])
    fy = cy * (z[1:, :] - z[:-1, :])
    out = g * z
    out[:, :-1] -= fx
    out[:, 1:] += fx
    out[:-1, :] -= fy
    out[1:, :] += fy
    return zero_rim(out)


def flux_diagonal(cx: np.ndarray, cy: np.ndarray, g: np.ndarray) -> np.ndarray:
    d = g.copy()
    d[:, :-1] += cx
    d[:, 1:] += cx
    d[:-1, :] += cy
    d[1:, :] += cy
    return d


def textbook_reduced_pcg(
    data: LinearizedData,
    p: ModelParams,
    cg: CgParams = CgParams(),
    warm_start: GridField | None = None,
) -> tuple[GridField, CgStats]:
    """Jacobi PCG on the red-black reduced system as written in the textbooks,
    allocating on 2-D arrays.

    The reference for ``cg_solve``: the same full-space start, stopping rule,
    work counts and ``CgConvergenceError``.  With red cells i + j even and
    black cells i + j odd, A = [[D_r, -N_rb], [-N_br, D_b]]; CG runs on the
    Schur complement S = D_b - N_br D_r^-1 N_rb, preconditioned by its
    diagonal, and x_r = D_r^-1 (f_r + N_rb x_b) follows.  The couplings are
    the faces of ``face_coefficients`` between two interior cells; every
    neighbour sum runs west and east, then north, then south.  Inner
    products run over the black cells packed row by row into an
    (H, ceil(W/2)) array with zero pads, the order ``cg_solve`` keeps.
    """
    geom = data.f_n.geometry
    height, width = geom.shape
    cx, cy = face_coefficients(p)
    g = data.g_n.values
    inner = zero_rim(np.ones(geom.shape, dtype=bool))
    rows, cols = np.indices(geom.shape)
    black = (rows + cols) % 2 == 1
    fx = np.where(inner[:, :-1] & inner[:, 1:], cx, 0.0)
    fy = np.where(inner[:-1, :] & inner[1:, :], cy, 0.0)

    def neighbour_sum(v, sx=fx, sy=fy):
        west, east, north, south = (np.zeros(geom.shape) for _ in range(4))
        west[:, 1:] = sx * v[:, :-1]
        east[:, :-1] = sx * v[:, 1:]
        north[1:, :] = sy * v[:-1, :]
        south[:-1, :] = sy * v[1:, :]
        return ((west + east) + north) + south

    def pack(v):
        out = np.zeros((height, (width + 1) // 2))
        for i in range(height):
            cells = v[i, (i + 1) % 2 :: 2]
            out[i, : len(cells)] = cells
        return out.ravel()

    def dot(a, b):
        return _dot(pack(a), pack(b))

    f = zero_rim(data.f_n.values.copy())
    f_norm = math.sqrt(_dot(f.ravel(), f.ravel()))
    if f_norm == 0.0:
        return GridField.zeros(geom), CgStats(0, 0.0)
    x = np.zeros(geom.shape) if warm_start is None else zero_rim(warm_start.values.copy())
    max_iters = cg.max_iters if cg.max_iters is not None else 10 * geom.cells
    tol = cg.rel_tol * f_norm
    r = f - flux_apply(x, cx, cy, g)
    r_norm = math.sqrt(_dot(r.ravel(), r.ravel()))
    if r_norm <= tol:
        return GridField(geom, x), CgStats(0, r_norm / f_norm, 0, 1, 0)

    diag = flux_diagonal(cx, cy, g)
    dinv_red = np.where(inner & ~black, 1.0 / diag, 0.0)
    minv = np.zeros(geom.shape)
    schur_diag = diag - neighbour_sum(dinv_red, fx * fx, fy * fy)
    minv[inner & black] = 1.0 / schur_diag[inner & black]

    def schur(v):
        return diag * v - neighbour_sum(dinv_red * neighbour_sum(v))

    x = np.where(black, x, 0.0)
    r = np.where(black, r + neighbour_sum(dinv_red * r), 0.0)
    r_norm = math.sqrt(dot(r, r))
    k = 0
    if r_norm > tol:
        z = minv * r
        d = z.copy()
        rz = dot(r, z)
        for k in range(1, max_iters + 1):
            ad = schur(d)
            alpha = rz / dot(d, ad)
            x = x + alpha * d
            r = r - alpha * ad
            r_norm = math.sqrt(dot(r, r))
            if r_norm <= tol:
                break
            z = minv * r
            rz_next = dot(r, z)
            d = z + (rz_next / rz) * d
            rz = rz_next
    x_red = (neighbour_sum(x) + data.f_n.values) * dinv_red
    solution = GridField(geom, zero_rim(np.where(black, x, x_red)))
    if r_norm > tol:
        raise CgConvergenceError(solution, r_norm / f_norm, max_iters)
    return solution, CgStats(k, r_norm / f_norm, 0, 1, k + 1)


def above_one(solution: GridField) -> GridField:
    """``solution`` with its middle cell set 1e-3 above 1, far past the step's range limit."""
    values = solution.values.copy()
    values[values.shape[0] // 2, values.shape[1] // 2] = 1.0 + 1e-3
    return GridField(solution.geometry, values)


def plain_run(cfg: SolverConfig) -> tuple[PhaseField, IterationReport]:
    """``solver.run`` with every inner solve started at z_n, never at a projection.

    The reference for the projected start and for the step's retry from z_n:
    the same loop and bookkeeping, calling ``step`` without a subspace, so
    no step is retried.
    """
    z = null_hypothesis(cfg.model.mask)
    report = IterationReport()
    for n in range(1, cfg.max_outer + 1):
        z_next, record = step(z, cfg)
        record.index = n
        record.energy = total_energy(z_next, cfg.model)
        record.rms_update = rms_diff(z_next, z)
        if report.steps:
            prev = report.steps[-1]
            prev.rho = prev.energy - record.energy
            prev.drop_bound = energy_drop_bound(z, z_next, cfg.model)
        report.steps.append(record)
        z = z_next
        if record.rms_update <= cfg.delta:
            report.status = "converged"
            break
    report.el_residual = euler_lagrange_residual(z, cfg.model)
    return z, report


def reference_p2_raster(data: bytes, pos: int, n: int, maxval: int) -> np.ndarray:
    """``cli._p2_raster`` as a loop of one ``_TOKEN`` match and one ``int`` per sample.

    The reference for the blocked numpy reader: the same samples, and a
    ``PgmFormatError`` with the same message for a bad sample, a truncated
    raster or a sample above ``maxval``.
    """
    # empty tokens come only at the end, so dropping them leaves a short list
    samples = filter(None, (m[1] for m in islice(_TOKEN.finditer(data, pos), n)))
    values = []
    while chunk := list(islice(samples, 4096)):  # a bounded number of token objects at once
        if not all(map(bytes.isdigit, chunk)):  # int() would also take a sign or "_"
            bad = next(t for t in chunk if not t.isdigit())
            raise PgmFormatError(f"bad P2 sample: {bad!r}")
        try:  # leading zeros do not count against int()'s digit limit
            values += (int(t.lstrip(b"0") or b"0") for t in chunk)
        except ValueError:  # more digits than int() reads
            raise PgmFormatError(f"P2 sample outside [0, {maxval}]") from None
    if len(values) < n:
        raise PgmFormatError("truncated P2 raster")
    if max(values) > maxval:
        raise PgmFormatError(f"P2 sample outside [0, {maxval}]")
    return np.array(values, dtype=np.uint8)
