"""Linearized inner problem: coefficients, matrix-free operator, PCG.

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
from .grid import GridField, _dot, face_means, require_same_geometry, zero_rim

__all__ = [
    "LinearizedData",
    "CgParams",
    "StepRecord",
    "CgConvergenceError",
    "linearize",
    "apply_operator",
    "cg_solve",
    "StartSubspace",
]

RED, BLACK = 0, 1  # checkerboard colours: cells with i + j even, odd

# The projected start keeps the directions of the Jacobi-scaled Galerkin
# matrix whose eigenvalues exceed this much of its largest.
RANK_RTOL = 1e-15


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


@dataclass
class StepRecord:
    """One outer iteration, one ``energy.csv`` row: the fields are its columns.

    ``cg_solve`` sets the inner solve's outcome: ``cg_iters``, the
    iterations on the reduced system, ``cg_residual``, ``start_rank``, the
    number of subspace directions the projected start kept (0 when none ran
    or it was rejected), and ``full_applications`` and
    ``reduced_applications``, its applications of the full operator A (and
    of its diffusion part L) and of the reduced operator S.  ``solver.step``
    sets the pre-clamp range and ``retried``, 1 when the step solved again
    from z_n because the projected start's solve left the range limit; the
    three work counts then add up both solves, every other field describes
    the solve that was kept.  ``solver.run`` sets the rest.  ``rho`` and
    ``drop_bound`` compare this iterate with its successor, so they stay NaN
    on the final record.
    """

    iter: int = 0
    energy: float = math.nan
    rho: float = math.nan
    rms_update: float = math.nan
    cg_iters: int = 0
    cg_residual: float = 0.0
    drop_bound: float = math.nan
    pre_clamp_min: float = math.nan
    pre_clamp_max: float = math.nan
    start_rank: int = 0
    full_applications: int = 0
    reduced_applications: int = 0
    retried: int = 0


class CgConvergenceError(RuntimeError):
    """Iteration budget exhausted, or a breakdown: a curvature or a
    preconditioned residual norm outside (0, inf).  Carries the best iterate
    and its residual."""

    def __init__(self, best: GridField, residual: float, iterations: int, breakdown: bool = False):
        what = f"broke down at iteration {iterations}" if breakdown else f"did not converge in {iterations} iterations"
        super().__init__(f"conjugate gradient {what} (relative residual {residual:.3e})")
        self.best = best
        self.residual = residual
        self.iterations = iterations


def linearize(z_n: GridField, p: ModelParams) -> LinearizedData:
    """Coefficients of the inner linear problem frozen at iterate z_n."""
    f = 3.0 * p.canyon.values * np.square(z_n.values)
    g = _surrogate_weight(z_n, p)
    np.add(g, p.lam, out=g, where=p.mask.inside)
    return LinearizedData(GridField(z_n.geometry, g), GridField(z_n.geometry, f))


class Operator:
    """Scaled face coefficients (eps/h)^2 G_face of one model and its 5-point kernel.

    Fields are handled flattened row-major: cell k couples to cell k + 1
    through x-face k and to cell k + W through y-face k, so the x-faces have
    N - 1 entries and the y-faces N - W.  The x-face entries at k = W - 1
    (mod W) wrap from the last cell of one row to the first of the next;
    both are rim cells, the coefficient there is zero, and the rim of every
    argument is zero anyway.  Built once per model, on its first use, from
    the canyon's face means, of which only these scaled copies are kept.

    The reduced solve splits the grid like a checkerboard into red cells
    (i + j even) and black cells (i + j odd); the stencil couples every
    cell only to cells of the other colour.  A colour's compact array holds
    its cells of grid row i, left to right, in row i of an (H, ceil(W/2))
    array, flattened; on odd widths every other row ends in a pad entry.
    Black cell k then couples to red cells k, k - 1 (its west neighbour,
    on odd rows only), k + 1 (its east neighbour, on even rows only), k - w
    and k + w, with w = ceil(W/2).  Each such
    coupling is stored once, indexed by the lower compact index of its two
    cells like the flat faces: ``c_same`` (black k, red k), ``c_rb`` (red
    k, black k + 1), ``c_br`` (black k, red k + 1), ``c_rbw`` (red k,
    black k + w) and ``c_brw`` (black k, red k + w).  Every coupling that
    touches the rim or a pad is zero, so rim and pad entries of a compact
    argument never reach an interior one.
    """

    def __init__(self, p: ModelParams):
        geom = p.geometry
        self.shape = geom.shape
        self.width = geom.width
        scale = (p.epsilon / geom.h) ** 2
        gx, gy = face_means(p.canyon.values)
        cx = np.zeros(geom.cells)
        np.multiply(gx, scale, out=cx.reshape(geom.shape)[:, :-1])
        self.cx = cx[:-1]
        self.cy = (gy * scale).ravel()

        self.half = w = (geom.width + 1) // 2
        # faces between two interior cells, each at the cell east or south of it,
        # one direction at a time to keep the build's peak down
        west = np.zeros((geom.height, geom.width + 1))
        np.multiply(gx[1:-1, 1:-1], scale, out=west[1:-1, 2:-2])
        cw, ce = self.split(west[:, :-1], BLACK), self.split(west[:, 1:], BLACK)
        del west
        north = np.zeros((geom.height + 1, geom.width))
        np.multiply(gy[1:-1, 1:-1], scale, out=north[2:-2, 1:-1])
        cn, cs = self.split(north[:-1], BLACK), self.split(north[1:], BLACK)
        del north
        same = ce.copy()
        same[0::2] = cw[0::2]  # even rows: red cell k is the west neighbour
        cw[0::2] = 0.0  # red k - 1 is west on odd rows only
        ce[1::2] = 0.0  # red k + 1 is east on even rows only
        self.c_same = same.ravel()
        self.c_rb = cw.ravel()[1:]
        self.c_br = ce.ravel()[:-1]
        self.c_rbw = cn.ravel()[w:]
        self.c_brw = cs.ravel()[:-w]
        # the other four as (coupling, its black cells, its red cells), slices of
        # the compact arrays: red k - 1, k + 1, k - w (north), k + w (south)
        self.links = (
            (self.c_rb, slice(1, None), slice(None, -1)),
            (self.c_br, slice(None, -1), slice(1, None)),
            (self.c_rbw, slice(w, None), slice(None, -w)),
            (self.c_brw, slice(None, -w), slice(w, None)),
        )

    def apply(
        self, z: np.ndarray, g: np.ndarray | None, out: np.ndarray, face: np.ndarray
    ) -> None:
        """``out = A z`` for a flat zero-rim ``z``; ``face`` is scratch of length N - 1.

        The output rim is zeroed.  Each cell takes its reaction term, then
        its east, west, south and north fluxes, the order of the 2-D flux
        form, so the two agree bit for bit.  Without a reaction coefficient
        ``g`` this is the diffusion part L alone.
        """
        w = self.width
        if g is None:
            out.fill(0.0)
        else:
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

    def split(self, a: np.ndarray, colour: int) -> np.ndarray:
        """The ``colour`` (``RED`` or ``BLACK``) cells of grid array ``a``, as a new
        compact 2-D array with zero pads."""
        out = np.zeros((self.shape[0], self.half))
        for r in (0, 1):
            cells = a[r::2, (r + colour) % 2 :: 2]
            out[r::2, : cells.shape[1]] = cells
        return out

    def join(self, compact: np.ndarray, colour: int, out: np.ndarray) -> None:
        """Write a flat compact array into the ``colour`` cells of grid array ``out``."""
        compact = compact.reshape(self.shape[0], self.half)
        for r in (0, 1):
            cells = out[r::2, (r + colour) % 2 :: 2]
            cells[...] = compact[r::2, : cells.shape[1]]

    def to_black(self, y: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
        """``out = N_br y``: each black cell's couplings times its red neighbours' ``y``.

        ``tmp`` is scratch.  Each sum runs west and east, then north, then south.
        """
        np.multiply(self.c_same, y, out=out)
        for c, black, red in self.links:
            np.multiply(c, y[red], out=tmp[black])
            out[black] += tmp[black]

    def to_red(self, x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
        """``out = N_rb x``, the transpose of ``to_black``, in the same order."""
        np.multiply(self.c_same, x, out=out)
        west_east, north_of_black, south_of_black = self.links[:2], self.links[2], self.links[3]
        for c, black, red in (*west_east, south_of_black, north_of_black):
            np.multiply(c, x[black], out=tmp[red])
            out[red] += tmp[red]

    def reduced_diagonal(
        self, d_black: np.ndarray, drinv: np.ndarray, out: np.ndarray, tmp: np.ndarray
    ) -> None:
        """``out`` = the diagonal of D_b - N_br D_r^-1 N_rb, given D_b and D_r^-1.

        Each black cell's ``d_black`` less c^2 / D_r over its red neighbours,
        summed in ``to_black``'s order; ``tmp`` is scratch.
        """
        np.multiply(self.c_same, self.c_same, out=out)
        out *= drinv
        for c, black, red in self.links:
            np.multiply(c, c, out=tmp[black])
            tmp[black] *= drinv[red]
            out[black] += tmp[black]
        np.subtract(d_black, out, out=out)


class StartSubspace:
    """The last ``size`` iterate differences of an outer run, for ``cg_solve``'s start.

    The differences are held flat with a zero rim, one per row of a (size, N)
    array: row i holds the i-th one pushed until the ring is full, and then
    each push overwrites the oldest.  The inner operator is A_n = L +
    diag(g_n), and L, the model's diffusion part, is the same at every step,
    so the Gram d_i'L d_j is kept here: a new difference costs one
    application of L, on the next solve, and only d_i' diag(g_n) d_j is
    recomputed per step.
    """

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size
        self.diffs: np.ndarray | None = None
        self.count = 0
        self.head = 0  # the row the next push writes
        self.l_gram = np.zeros((size, size))
        self.stale: list[int] = []  # rows whose L-Gram entries are yet to be computed

    @property
    def rows(self) -> np.ndarray:
        """The differences held, one flat array per row."""
        return self.diffs[: self.count]

    def push(self, new: np.ndarray, old) -> None:
        """Enter ``new - old`` for a grid array ``new`` (the rim is zeroed)."""
        if self.diffs is None:
            self.diffs = np.empty((self.size, new.size))
        row = self.diffs[self.head].reshape(new.shape)  # raises on another grid size
        zero_rim(np.subtract(new, old, out=row))
        if self.head not in self.stale:
            self.stale.append(self.head)
        self.head = (self.head + 1) % self.size
        self.count = min(self.count + 1, self.size)

    def galerkin(
        self, op: Operator, g: np.ndarray, r: np.ndarray, work: np.ndarray, face: np.ndarray
    ) -> tuple[np.ndarray, int, int]:
        """theta of the best start x0 + D theta in the A-norm, its rank, and the
        applications of L it took.

        theta solves (D'AD) theta = D'r, r = f - A x0 the residual at x0, on
        the eigenvectors of the Jacobi-scaled Gram whose eigenvalues exceed
        ``RANK_RTOL`` times the largest; the rank counts those.  ``work``
        (length N) and ``face`` (N - 1) are scratch.  The inner products go
        through ``np.einsum``; only the small system uses ``numpy.linalg``.
        """
        rows = self.rows
        k = len(rows)
        applied = len(self.stale)
        for i in self.stale:
            op.apply(rows[i], None, work, face)
            self.l_gram[i, :k] = self.l_gram[:k, i] = np.einsum("n,jn->j", work, rows)
        self.stale.clear()
        gram = self.l_gram[:k, :k].copy()
        for i in range(k):
            np.multiply(g, rows[i], out=work)
            gram[i, i:] += np.einsum("n,jn->j", work, rows[i:])
            gram[i + 1 :, i] = gram[i, i + 1 :]
        diag = np.diagonal(gram)
        scale = np.zeros(k)  # a zero difference keeps a zero row and column
        scale[diag > 0.0] = 1.0 / np.sqrt(diag[diag > 0.0])
        lam, v = np.linalg.eigh(gram * np.outer(scale, scale))
        keep = lam > RANK_RTOL * lam[-1]
        v = v[:, keep]
        rhs = scale * np.einsum("n,jn->j", r, rows)
        theta = scale * (v @ ((v.T @ rhs) / lam[keep]))
        return theta, int(keep.sum()), applied


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
    subspace: StartSubspace | None = None,
) -> tuple[GridField, StepRecord]:
    """Solve A z = f_n by Jacobi-preconditioned CG on the red-black reduced system.

    Stops when the relative residual drops to ``rel_tol``; a zero right-hand
    side short-circuits to the zero field.  The start is set in the full
    space.  With a nonempty ``subspace`` D, the start x0 moves to x0 + s, s =
    D theta, the best point of x0 + span(D) in the A-norm (``StartSubspace.
    galerkin``), when s lowers the inner quadratic x'Ax/2 - f'x, that is
    when s'As/2 < s'r0 with r0 = f - A x0; otherwise it stays at x0.  That
    costs one application of A, one of L per new difference, and no grid
    array.  A start that already meets the tolerance is returned as it is.

    Otherwise the red cells are eliminated: with A = [[D_r, -N_rb],
    [-N_br, D_b]], CG solves the Schur complement S x_b = f_b + N_br D_r^-1
    f_r, S = D_b - N_br D_r^-1 N_rb, on the black cells, preconditioned by
    the exact diagonal of S, and the back-substitution x_r = D_r^-1 (f_r +
    N_rb x_b) leaves no red residual.  The reduced residual is then the full
    one, and S converges in about half the iterations of A, each on
    half-length vectors.  The loop works in place on compact flat buffers,
    the preconditioned residual doubling as the products' scratch, and every
    reduction is ``_dot``, so repeated solves are bit-identical whatever the
    BLAS thread count.  The returned record has the solve's fields set
    (see ``StepRecord``); its reduced applications count the elimination and
    the back-substitution together as one.
    """
    geom = data.f_n.geometry
    n = geom.cells
    op = p.operator
    g = data.g_n.values.ravel()
    r = zero_rim(data.f_n.values.copy()).ravel()
    f_norm = math.sqrt(_dot(r, r))
    if f_norm == 0.0:
        return GridField.zeros(geom), StepRecord()
    if warm_start is not None:
        require_same_geometry(warm_start, data.f_n)
    if subspace is not None and subspace.count and subspace.rows.shape[1] != n:
        raise ValueError(f"subspace of {subspace.rows.shape[1]} cells and grid {geom.shape} are different grids")

    max_iters = cg.max_iters if cg.max_iters is not None else 10 * geom.cells
    # z is free whenever the operator runs, so its head is the face scratch
    x, z, ad = np.empty(n), np.empty(n), np.empty(n)
    face = z[:-1]
    x0 = 0.0 if warm_start is None else warm_start.values.ravel()

    def start(step=None) -> None:
        """x = x0, the warm start or zero, plus ``step`` if given, with its rim zeroed."""
        if step is None:
            np.copyto(x, x0)
        else:
            np.add(x0, step, out=x)
        zero_rim(x.reshape(geom.shape))

    start()
    op.apply(x, g, ad, face)
    r -= ad
    rank, full = 0, 1
    if subspace is not None and subspace.count:
        rows = subspace.rows
        theta, rank, applied = subspace.galerkin(op, g, r, ad, face)
        full += applied
        if rank:
            # the step s = D theta in ad, and A s in x until x0 + s replaces it
            np.einsum("j,jn->n", theta, rows, out=ad)
            op.apply(ad, g, x, face)
            full += 1
            if 0.5 * _dot(ad, x) < _dot(ad, r):  # s lowers the quadratic
                r -= x
                start(ad)
            else:
                start()
                rank = 0
    tol = cg.rel_tol * f_norm
    r_norm = math.sqrt(_dot(r, r))
    del z, face
    if r_norm <= tol:
        del r, ad
        record = StepRecord(cg_residual=r_norm / f_norm, start_rank=rank, full_applications=full)
        return GridField(geom, x.reshape(geom.shape)), record

    # each full array is freed once split, so the compact ones take its place
    op.diagonal(g, out=ad)
    diag = zero_rim(ad.reshape(geom.shape))
    db_diag = op.split(diag, BLACK).ravel()
    drinv = op.split(diag, RED).ravel()
    del ad, diag
    np.divide(1.0, drinv, out=drinv, where=drinv > 0.0)  # rim and pad entries stay 0
    rb = op.split(r.reshape(geom.shape), BLACK).ravel()
    u = op.split(r.reshape(geom.shape), RED).ravel()
    del r
    xb = op.split(x.reshape(geom.shape), BLACK).ravel()
    del x
    m = len(rb)
    q, zb, minv = np.empty(m), np.empty(m), np.zeros(m)
    # the start's reduced residual r_b + N_br D_r^-1 r_r = f_b + N_br D_r^-1 f_r - S x_b
    u *= drinv
    op.to_black(u, q, zb)
    rb += q
    op.reduced_diagonal(db_diag, drinv, q, zb)
    np.divide(1.0, q, out=minv, where=q > 0.0)  # rim and pad entries stay 0

    r_norm = math.sqrt(_dot(rb, rb))
    k = 0
    breakdown = False
    if r_norm > tol:
        np.multiply(minv, rb, out=zb)
        db = zb.copy()
        rz = _dot(rb, zb)
        while k < max_iters:
            k += 1
            # q = S db; zb is free until the preconditioner refills it
            op.to_red(db, u, zb)
            u *= drinv
            op.to_black(u, q, zb)
            np.multiply(db_diag, db, out=zb)
            np.subtract(zb, q, out=q)
            curvature = _dot(db, q)
            if not 0.0 < curvature < math.inf:
                breakdown = True
                break
            alpha = rz / curvature
            np.multiply(db, alpha, out=zb)
            xb += zb
            np.multiply(q, alpha, out=zb)
            rb -= zb
            r_norm = math.sqrt(_dot(rb, rb))
            if r_norm <= tol:
                break
            np.multiply(minv, rb, out=zb)
            rz_next = _dot(rb, zb)
            if not 0.0 < rz_next < math.inf:
                breakdown = True
                break
            db *= rz_next / rz
            db += zb
            rz = rz_next
        del db
    # back-substitute x_r = D_r^-1 (f_r + N_rb x_b), after freeing what it does not need
    del rb, q, minv, db_diag
    op.to_red(xb, u, zb)
    u += op.split(data.f_n.values, RED).ravel()
    u *= drinv
    out = np.empty(geom.shape)
    op.join(xb, BLACK, out)
    op.join(u, RED, out)
    del xb, u, zb, drinv
    solution = GridField(geom, zero_rim(out))
    if breakdown or r_norm > tol:
        raise CgConvergenceError(solution, r_norm / f_norm, k, breakdown)
    return solution, StepRecord(
        cg_iters=k, cg_residual=r_norm / f_norm, start_rank=rank,
        full_applications=full, reduced_applications=k + 1,
    )
