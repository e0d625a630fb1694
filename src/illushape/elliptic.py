"""Linearized inner problem: coefficients, matrix-free operator, PCG, dense oracle.

The operator is the 5-point variable-coefficient stencil
A z = -div(eps^2 G grad z) + g_n z with arithmetic face averages of the
canyon weight and Dirichlet-zero data folded in on the boundary ring, i.e.
unknowns are interior cells only.  It is the exact gradient of the discrete
surrogate energy, which is what makes the outer scheme's decrease guarantees
hold on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import ModelParams, _check_field, _surrogate_cell
from .grid import GridField, face_means, zero_rim

__all__ = [
    "LinearizedData",
    "CgParams",
    "CgStats",
    "CgConvergenceError",
    "linearize",
    "apply_operator",
    "cg_solve",
    "dense_matrix",
    "dense_solve_oracle",
    "DENSE_ORACLE_LIMIT",
]

DENSE_ORACLE_LIMIT = 4096


@dataclass(frozen=True, eq=False)
class LinearizedData:
    """Reaction coefficient, right-hand side, and surrogate target fields."""

    g_n: GridField
    f_n: GridField
    gamma_n: GridField


@dataclass(frozen=True)
class CgParams:
    """Inner-solver knobs; ``max_iters`` defaults to 10x the cell count."""

    rel_tol: float = 1e-10
    max_iters: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol <= 1e-6):
            raise ValueError("rel_tol must lie in (0, 1e-6]")
        if self.max_iters is not None and self.max_iters <= 0:
            raise ValueError("max_iters must be positive")


@dataclass(frozen=True)
class CgStats:
    iterations: int
    residual: float


class CgConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the best iterate and its residual."""

    def __init__(self, best: GridField, residual: float, iterations: int):
        super().__init__(
            f"conjugate gradient did not converge in {iterations} iterations "
            f"(relative residual {residual:.3e})"
        )
        self.best = best
        self.residual = residual
        self.iterations = iterations


def linearize(z_n: GridField, p: ModelParams) -> LinearizedData:
    """Coefficients of the inner linear problem frozen at iterate z_n."""
    weight, gamma = _surrogate_cell(z_n, p)
    g = weight + p.lam * p.mask.indicator()
    f = 3.0 * p.canyon.values * np.square(z_n.values)
    geom = z_n.geometry
    return LinearizedData(GridField(geom, g), GridField(geom, f), GridField(geom, gamma))


def _face_coefficients(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    scale = (p.epsilon / p.geometry.h) ** 2
    gx, gy = face_means(p.canyon.values)
    return scale * gx, scale * gy


def _apply_raw(z: np.ndarray, cx: np.ndarray, cy: np.ndarray, g: np.ndarray) -> np.ndarray:
    """A z for a zero-rim array z; the output rim is zeroed as well."""
    fx = cx * (z[:, 1:] - z[:, :-1])
    fy = cy * (z[1:, :] - z[:-1, :])
    out = g * z
    out[:, :-1] -= fx
    out[:, 1:] += fx
    out[:-1, :] -= fy
    out[1:, :] += fy
    return zero_rim(out)


def _diagonal(cx: np.ndarray, cy: np.ndarray, g: np.ndarray) -> np.ndarray:
    d = g.copy()
    d[:, :-1] += cx
    d[:, 1:] += cx
    d[:-1, :] += cy
    d[1:, :] += cy
    return d


def apply_operator(z: GridField, data: LinearizedData, p: ModelParams) -> GridField:
    """Matrix-free application of the symmetric positive definite operator.

    Boundary entries of the argument are treated as Dirichlet zeros and the
    result is zero on the rim.
    """
    _check_field(z, p)
    cx, cy = _face_coefficients(p)
    zi = zero_rim(z.values.copy())
    return GridField(z.geometry, _apply_raw(zi, cx, cy, data.g_n.values))


def cg_solve(
    data: LinearizedData,
    p: ModelParams,
    cg: CgParams = CgParams(),
    warm_start: GridField | None = None,
) -> tuple[GridField, CgStats]:
    """Jacobi-preconditioned conjugate gradient solve of A z = f_n.

    Stops when the relative residual drops to ``rel_tol``; a zero right-hand
    side short-circuits to the zero field.  All reductions run in a fixed
    order, so repeated solves are bit-identical.
    """
    geom = data.f_n.geometry
    cx, cy = _face_coefficients(p)
    g = data.g_n.values
    f = zero_rim(data.f_n.values.copy())
    f_norm = float(np.linalg.norm(f.ravel()))
    if f_norm == 0.0:
        return GridField.zeros(geom), CgStats(0, 0.0)

    if warm_start is None:
        x = np.zeros(geom.shape)
    else:
        if warm_start.geometry != geom:
            raise ValueError("warm start does not match the grid")
        x = zero_rim(warm_start.values.copy())

    max_iters = cg.max_iters if cg.max_iters is not None else 10 * geom.cells
    minv = np.zeros(geom.shape)
    diag = _diagonal(cx, cy, g)
    minv[1:-1, 1:-1] = 1.0 / diag[1:-1, 1:-1]

    r = f - _apply_raw(x, cx, cy, g)
    r_norm = float(np.linalg.norm(r.ravel()))
    if r_norm <= cg.rel_tol * f_norm:
        return GridField(geom, x), CgStats(0, r_norm / f_norm)

    z = minv * r
    d = z.copy()
    rz = float(np.dot(r.ravel(), z.ravel()))
    for k in range(1, max_iters + 1):
        ad = _apply_raw(d, cx, cy, g)
        dad = float(np.dot(d.ravel(), ad.ravel()))
        alpha = rz / dad
        x += alpha * d
        r -= alpha * ad
        r_norm = float(np.linalg.norm(r.ravel()))
        if r_norm <= cg.rel_tol * f_norm:
            return GridField(geom, x), CgStats(k, r_norm / f_norm)
        z = minv * r
        rz_next = float(np.dot(r.ravel(), z.ravel()))
        d = z + (rz_next / rz) * d
        rz = rz_next
    raise CgConvergenceError(GridField(geom, x), r_norm / f_norm, max_iters)


def dense_matrix(data: LinearizedData, p: ModelParams) -> np.ndarray:
    """Dense interior system matrix, row-major over interior cells.

    Same stencil and boundary convention as ``apply_operator``; bounded by
    ``DENSE_ORACLE_LIMIT`` unknowns.
    """
    geom = data.f_n.geometry
    rows, cols = geom.height - 2, geom.width - 2
    n = rows * cols
    if n > DENSE_ORACLE_LIMIT:
        raise ValueError(f"dense oracle limited to {DENSE_ORACLE_LIMIT} interior unknowns")
    cx, cy = _face_coefficients(p)
    diag = _diagonal(cx, cy, data.g_n.values)

    def idx(i: int, j: int) -> int:
        return (i - 1) * cols + (j - 1)

    K = np.zeros((n, n))
    for i in range(1, geom.height - 1):
        for j in range(1, geom.width - 1):
            k = idx(i, j)
            K[k, k] = diag[i, j]
            if j > 1:
                K[k, idx(i, j - 1)] = -cx[i, j - 1]
            if j < geom.width - 2:
                K[k, idx(i, j + 1)] = -cx[i, j]
            if i > 1:
                K[k, idx(i - 1, j)] = -cy[i - 1, j]
            if i < geom.height - 2:
                K[k, idx(i + 1, j)] = -cy[i, j]
    return K


def dense_solve_oracle(data: LinearizedData, p: ModelParams) -> GridField:
    """Direct dense solve of the interior system for small grids.

    LU elimination with partial pivoting on the assembled matrix.  Intended
    as a test oracle for the matrix-free path.
    """
    geom = data.f_n.geometry
    rows, cols = geom.height - 2, geom.width - 2
    K = dense_matrix(data, p)
    b = data.f_n.values[1:-1, 1:-1].ravel()
    sol = np.linalg.solve(K, b)
    full = np.zeros(geom.shape)
    full[1:-1, 1:-1] = sol.reshape(rows, cols)
    return GridField(geom, full)
