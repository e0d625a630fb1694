"""Shared builders for the test suite."""

from __future__ import annotations

import math

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
    energy_drop_bound,
    euler_lagrange_residual,
    linearize,
    null_hypothesis,
    presmooth,
    step,
    total_energy,
)
from illushape.elliptic import _dot
from illushape.grid import face_means, rms_diff, zero_rim


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
    return ModelParams(
        epsilon=min(2.0 * geom.h, 0.25),
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


def textbook_pcg(
    data: LinearizedData,
    p: ModelParams,
    cg: CgParams = CgParams(),
    warm_start: GridField | None = None,
) -> tuple[GridField, CgStats]:
    """Jacobi-preconditioned CG as written in the textbooks, allocating on 2-D arrays.

    The reference for ``cg_solve``: same stopping rule, same reductions, same
    ``CgConvergenceError`` when the budget runs out.
    """
    geom = data.f_n.geometry
    cx, cy = face_coefficients(p)
    g = data.g_n.values

    def dot(a, b):
        return _dot(a.ravel(), b.ravel())

    f = zero_rim(data.f_n.values.copy())
    f_norm = math.sqrt(dot(f, f))
    if f_norm == 0.0:
        return GridField.zeros(geom), CgStats(0, 0.0)
    x = np.zeros(geom.shape) if warm_start is None else zero_rim(warm_start.values.copy())
    max_iters = cg.max_iters if cg.max_iters is not None else 10 * geom.cells
    minv = np.zeros(geom.shape)
    minv[1:-1, 1:-1] = 1.0 / flux_diagonal(cx, cy, g)[1:-1, 1:-1]

    r = f - flux_apply(x, cx, cy, g)
    r_norm = math.sqrt(dot(r, r))
    if r_norm <= cg.rel_tol * f_norm:
        return GridField(geom, x), CgStats(0, r_norm / f_norm)
    z = minv * r
    d = z.copy()
    rz = dot(r, z)
    for k in range(1, max_iters + 1):
        ad = flux_apply(d, cx, cy, g)
        alpha = rz / dot(d, ad)
        x = x + alpha * d
        r = r - alpha * ad
        r_norm = math.sqrt(dot(r, r))
        if r_norm <= cg.rel_tol * f_norm:
            return GridField(geom, x), CgStats(k, r_norm / f_norm)
        z = minv * r
        rz_next = dot(r, z)
        d = z + (rz_next / rz) * d
        rz = rz_next
    raise CgConvergenceError(GridField(geom, x), r_norm / f_norm, max_iters)


def plain_run(mask: ConfigurationMask, cfg: SolverConfig) -> tuple[PhaseField, IterationReport]:
    """``solver.run`` with every inner solve started at z_n, never at a prediction.

    The reference for the predicted start: the same loop and bookkeeping,
    calling ``step`` without a direction.
    """
    z = presmooth(null_hypothesis(mask), cfg.presmooth_steps)
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
