"""Linearized inner problem: coefficients, matrix-free operator, PCG, dense oracle.

The operator is the 5-point variable-coefficient stencil
A z = -div(eps^2 G grad z) + g_n z with arithmetic face averages of the
canyon weight and Dirichlet-zero data folded in on the boundary ring, i.e.
unknowns are interior cells only.  It is the exact gradient of the discrete
surrogate energy, which is what makes the outer scheme's decrease guarantees
hold on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import ModelParams, _surrogate_weight
from .grid import GridField, require_same_geometry, zero_rim

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
    """Reaction coefficient and right-hand side of the inner problem."""

    g_n: GridField
    f_n: GridField


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
    """Outcome of one solve; ``theta`` is the line-search step along a
    predicted direction, 0 when none was given or it was rejected."""

    iterations: int
    residual: float
    theta: float = 0.0


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
    g = _surrogate_weight(z_n, p) + p.lam * p.mask.indicator()
    f = 3.0 * p.canyon.values * np.square(z_n.values)
    return LinearizedData(GridField(z_n.geometry, g), GridField(z_n.geometry, f))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two flat arrays in numpy's own single-threaded loop.

    BLAS stays off the solve path: a threaded BLAS dot splits the sum by its
    thread count, so its rounding would depend on the machine.
    """
    return float(np.einsum("i,i->", a, b))


class Operator:
    """Scaled face coefficients (eps/h)^2 G_face of one model and its 5-point kernel.

    Fields are handled flattened row-major: cell k couples to cell k + 1
    through x-face k and to cell k + W through y-face k, so the x-faces have
    N - 1 entries and the y-faces N - W.  The x-face entries at k = W - 1
    (mod W) wrap from the last cell of one row to the first of the next;
    both are rim cells, the coefficient there is zero, and the rim of every
    argument is zero anyway.  Built once per model, on its first solve.
    """

    def __init__(self, p: ModelParams):
        geom = p.geometry
        self.shape = geom.shape
        self.width = geom.width
        scale = (p.epsilon / geom.h) ** 2
        gx, gy = p.faces
        cx = np.zeros(geom.cells)
        np.multiply(gx, scale, out=cx.reshape(geom.shape)[:, :-1])
        self.cx = cx[:-1]
        self.cy = (gy * scale).ravel()

    def apply(self, z: np.ndarray, g: np.ndarray, out: np.ndarray, face: np.ndarray) -> None:
        """``out = A z`` for a flat zero-rim ``z``; ``face`` is scratch of length N - 1.

        The output rim is zeroed.  Each cell takes its reaction term, then
        its east, west, south and north fluxes, the order of the 2-D flux
        form, so the two agree bit for bit.
        """
        w = self.width
        np.multiply(g, z, out=out)
        fx = face
        np.subtract(z[1:], z[:-1], out=fx)
        fx *= self.cx
        out[:-1] -= fx
        out[1:] += fx
        fy = face[: len(self.cy)]
        np.subtract(z[w:], z[:-w], out=fy)
        fy *= self.cy
        out[:-w] -= fy
        out[w:] += fy
        zero_rim(out.reshape(self.shape))

    def diagonal(self, g: np.ndarray, out: np.ndarray) -> None:
        """Flat diagonal of the operator with reaction coefficient ``g``, into ``out``.

        Every cell, rim included, has faces with positive coefficients, so
        the diagonal is positive wherever ``g`` is nonnegative.
        """
        w = self.width
        np.copyto(out, g)
        out[:-1] += self.cx
        out[1:] += self.cx
        out[:-w] += self.cy
        out[w:] += self.cy


def apply_operator(z: GridField, data: LinearizedData, p: ModelParams) -> GridField:
    """Matrix-free application of the symmetric positive definite operator.

    Boundary entries of the argument are treated as Dirichlet zeros and the
    result is zero on the rim.
    """
    require_same_geometry(z, p)
    n = z.geometry.cells
    out = np.empty(n)
    zi = zero_rim(z.values.copy()).ravel()
    p.operator.apply(zi, data.g_n.values.ravel(), out, np.empty(n - 1))
    return GridField(z.geometry, out.reshape(z.geometry.shape))


def cg_solve(
    data: LinearizedData,
    p: ModelParams,
    cg: CgParams = CgParams(),
    warm_start: GridField | None = None,
    direction: np.ndarray | None = None,
) -> tuple[GridField, CgStats]:
    """Jacobi-preconditioned conjugate gradient solve of A z = f_n.

    Stops when the relative residual drops to ``rel_tol``; a zero right-hand
    side short-circuits to the zero field.  With a ``direction`` s (a
    writable float array of the grid's shape, taken over as the search
    direction buffer), the start x0 moves to x0 + theta s with theta =
    r0's / s'As, the exact minimizer of the inner quadratic along s, so the
    start is never worse in the A-norm; theta is 0 when s'As <= 0.  That
    costs one matvec.  The loop works in place on flat buffers: the
    right-hand side is written into the residual, the preconditioned
    residual doubles as the operator's face scratch, and every reduction is
    ``_dot``, so repeated solves are bit-identical whatever the BLAS thread
    count.
    """
    geom = data.f_n.geometry
    n = geom.cells
    op = p.operator
    g = data.g_n.values.ravel()
    r = zero_rim(data.f_n.values.copy()).ravel()
    f_norm = math.sqrt(_dot(r, r))
    if f_norm == 0.0:
        return GridField.zeros(geom), CgStats(0, 0.0)

    if warm_start is None:
        x = np.zeros(n)
    else:
        require_same_geometry(warm_start, data.f_n)
        x = zero_rim(warm_start.values.copy()).ravel()

    max_iters = cg.max_iters if cg.max_iters is not None else 10 * geom.cells
    # z is free whenever the operator runs, so its head is the face scratch
    z, ad = np.empty(n), np.empty(n)
    face = z[:-1]
    minv = np.empty(n)
    op.diagonal(g, out=ad)
    # flat, because ufuncs on a 2-D interior view allocate iteration buffers
    np.divide(1.0, ad, out=minv)
    zero_rim(minv.reshape(geom.shape))

    op.apply(x, g, ad, face)
    r -= ad
    theta = 0.0
    if direction is None:
        d = np.empty(n)
    else:
        if direction.shape != geom.shape:
            raise ValueError(f"direction {direction.shape} and grid {geom.shape} are different grids")
        d = zero_rim(direction).ravel()
        op.apply(d, g, ad, face)
        sas = _dot(d, ad)
        if sas > 0.0:
            theta = _dot(r, d) / sas
            np.multiply(d, theta, out=z)
            x += z
            np.multiply(ad, theta, out=z)
            r -= z
    tol = cg.rel_tol * f_norm
    r_norm = math.sqrt(_dot(r, r))
    k = 0
    if r_norm > tol:
        np.multiply(minv, r, out=z)
        np.copyto(d, z)
        rz = _dot(r, z)
        while k < max_iters:
            k += 1
            op.apply(d, g, ad, face)
            alpha = rz / _dot(d, ad)
            # z is free until the preconditioner refills it: use it for the updates
            np.multiply(d, alpha, out=z)
            x += z
            np.multiply(ad, alpha, out=z)
            r -= z
            r_norm = math.sqrt(_dot(r, r))
            if r_norm <= tol:
                break
            np.multiply(minv, r, out=z)
            rz_next = _dot(r, z)
            d *= rz_next / rz
            d += z
            rz = rz_next
    # freed before the result is copied out, so the copy does not raise the peak
    del r, z, d, ad, minv, face
    solution = GridField(geom, x.reshape(geom.shape))
    if r_norm > tol:
        raise CgConvergenceError(solution, r_norm / f_norm, max_iters)
    return solution, CgStats(k, r_norm / f_norm, theta)


def dense_matrix(data: LinearizedData, p: ModelParams) -> np.ndarray:
    """Dense interior system matrix, row-major over interior cells.

    Column j is the operator's kernel applied to the j-th interior unit
    vector, so the matrix is ``apply_operator`` written out; bounded by
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
