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
from .grid import _dot, _grid_array, _scratch, face_means, zero_rim

__all__ = [
    "LinearizedData",
    "CgParams",
    "StepRecord",
    "CgConvergenceError",
    "linearize",
    "apply_operator",
    "cg_solve",
    "StartSubspace",
    "Workspace",
]

RED, BLACK = 0, 1  # checkerboard colours: cells with i + j even, odd

# The projected start keeps the directions of the Jacobi-scaled Galerkin
# matrix whose eigenvalues exceed this much of its largest.
RANK_RTOL = 1e-15

# A full ring whose scaled Galerkin matrix has an eigenvalue below this much
# of its largest holds a nearly dependent row, which the next push replaces.
EVICT_RTOL = 1e-13

EPS = float(np.finfo(float).eps)

# The reduced CG's product S d runs over bands of this many compact entries,
# rounded down to whole rows (``Operator.schur_plan``): 64 rows, 128 KB an
# array, at 512^2, so a band's arrays stay in a 2 MB L2 between its passes.
BAND_CELLS = 2**14


@dataclass(frozen=True, eq=False)
class LinearizedData:
    """Reaction coefficient and right-hand side of the inner problem, as grid
    arrays."""

    g_n: np.ndarray
    f_n: np.ndarray


@dataclass(frozen=True)
class CgParams:
    """Inner-solver knobs; ``max_iters`` defaults to 10x the cell count.

    ``rel_tol`` is at least machine epsilon: a tighter tolerance is out of
    double precision's reach and would only run CG into a breakdown.
    """

    rel_tol: float = 1e-10
    max_iters: int | None = None

    def __post_init__(self) -> None:
        if not (EPS <= self.rel_tol <= 1e-6):
            raise ValueError(f"rel_tol must lie in [{EPS:.3g}, 1e-6], machine epsilon to 1e-6")
        if self.max_iters is not None and self.max_iters <= 0:
            raise ValueError("max_iters must be positive")


@dataclass
class StepRecord:
    """One outer iteration, one ``energy.csv`` row: the fields are its columns.

    ``cg_solve`` sets the inner solve's outcome: ``cg_iters``, the
    iterations on the reduced system, ``cg_residual``, ``start_rank``, the
    number of subspace directions the projected start kept (0 when none ran,
    it was rejected, or the start was dropped for zero), and
    ``full_applications`` and ``reduced_applications``, its applications
    of the full operator A (and of its diffusion part L) and of the reduced
    operator S.
    ``range_bound`` bounds the solution's error in the max norm: the
    solve's bound (see ``cg_solve``), or the true residual's where
    ``solver.run`` looked at it.  ``solver.run``'s step sets the pre-clamp
    range and then the rest.  ``rho`` and ``drop_bound`` compare this
    iterate with its successor: NaN on the final record.
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
    range_bound: float = 0.0


class CgConvergenceError(RuntimeError):
    """Iteration budget exhausted, or a breakdown: a curvature or a
    preconditioned residual norm outside (0, inf).  Carries a copy of the
    best iterate, a grid array, and its residual."""

    def __init__(self, best: np.ndarray, residual: float, iterations: int, breakdown: bool = False):
        what = f"broke down at iteration {iterations}" if breakdown else f"did not converge in {iterations} iterations"
        super().__init__(f"conjugate gradient {what} (relative residual {residual:.3e})")
        self.best = best
        self.residual = residual
        self.iterations = iterations


def linearize(z_n: np.ndarray, p: ModelParams, work: Workspace | None = None) -> LinearizedData:
    """Coefficients of the inner linear problem frozen at the grid array z_n.

    With a workspace ``work`` they are written into ``work.g`` and
    ``work.f`` and returned as those arrays; without one they are new.
    """
    z = _grid_array(z_n, p.geometry.shape)
    g, f = (np.empty(z.shape), np.empty(z.shape)) if work is None else (work.g, work.f)
    np.square(z, out=g)
    np.multiply(p.canyon.values, 3.0, out=f)
    f *= g
    _surrogate_weight(g, p)
    np.add(g, p.lam, out=g, where=p.mask.inside)
    return LinearizedData(g, f)


class Operator:
    """Scaled face coefficients (eps/h)^2 G_face of one model and its 5-point kernel.

    Fields are handled flattened row-major: cell k couples to cell k + 1
    through x-face k and to cell k + W through y-face k, so the x-faces have
    N - 1 entries and the y-faces N - W; ``faces`` pairs them with their
    strides, ((x-faces, 1), (y-faces, W)).  The x-face entries at k = W - 1
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
    cells like the flat faces: ``c_same`` (black k, red k), and ``links``,
    the other four as (coupling, black offset, red offset), whose entry i
    couples black cell i + its black offset to red cell i + its red offset:
    red k - 1, k + 1, k - w (north) and k + w (south) of black cell k.
    Every coupling that touches the rim or a pad is zero, so rim and pad
    entries of a compact argument never reach an interior one.
    """

    def __init__(self, p: ModelParams):
        geom = p.geometry
        self.shape = geom.shape
        scale = (p.epsilon / geom.h) ** 2
        gx, gy = face_means(p.canyon.values)
        cx = np.zeros(geom.cells)
        np.multiply(gx, scale, out=cx.reshape(geom.shape)[:, :-1])
        self.faces = ((cx[:-1], 1), ((gy * scale).ravel(), geom.width))

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
        offsets = ((cw, 1, 0), (ce, 0, 1), (cn, w, 0), (cs, 0, w))
        self.links = tuple((c.ravel()[b : c.size - r], b, r) for c, b, r in offsets)

    def apply(
        self, z: np.ndarray, g: np.ndarray | None, out: np.ndarray, face: np.ndarray
    ) -> None:
        """``out = A z`` for a flat zero-rim ``z``; ``face`` is scratch of length N - 1.

        The output rim is zeroed.  Each cell takes its reaction term, then
        its east, west, south and north fluxes, the order of the 2-D flux
        form, so the two agree bit for bit.  Without a reaction coefficient
        ``g`` this is the diffusion part L alone.
        """
        if g is None:
            out.fill(0.0)
        else:
            np.multiply(g, z, out=out)
        for c, s in self.faces:
            flux = face[: len(c)]
            np.subtract(z[s:], z[:-s], out=flux)
            flux *= c
            out[:-s] -= flux
            out[s:] += flux
        zero_rim(out.reshape(self.shape))

    def diagonal(self, g: np.ndarray, out: np.ndarray) -> None:
        """Flat diagonal of the operator with reaction coefficient ``g``, into ``out``.

        Every cell, rim included, has faces with positive coefficients, so
        the diagonal is positive wherever ``g`` is nonnegative.
        """
        np.copyto(out, g)
        for c, s in self.faces:
            out[:-s] += c
            out[s:] += c

    def split(self, a: np.ndarray, colour: int, out: np.ndarray | None = None) -> np.ndarray:
        """The ``colour`` (``RED`` or ``BLACK``) cells of grid array ``a``, as a
        compact 2-D array with zero pads: new, or a view of the flat ``out``."""
        shape = (self.shape[0], self.half)
        compact = np.empty(shape) if out is None else out.reshape(shape)
        for r in (0, 1):
            cells = a[r::2, (r + colour) % 2 :: 2]
            compact[r::2, : cells.shape[1]] = cells
            compact[r::2, cells.shape[1] :] = 0.0
        return compact

    def join(self, compact: np.ndarray, colour: int, out: np.ndarray) -> None:
        """Write a flat compact array into the ``colour`` cells of grid array ``out``."""
        compact = compact.reshape(self.shape[0], self.half)
        for r in (0, 1):
            cells = out[r::2, (r + colour) % 2 :: 2]
            cells[...] = compact[r::2, : cells.shape[1]]

    def couple(self, x: np.ndarray, out: np.ndarray, tmp: np.ndarray, colour: int, lo: int, hi: int) -> list:
        """The calls of ``out = N x`` on entries [lo, hi) of ``out``, as
        ``(ufunc, a, b, out)`` tuples for ``_run``.

        N is N_br, black cells from red ones, for ``colour`` ``BLACK`` and its
        transpose N_rb for ``RED``; ``tmp`` is scratch over the same entries.
        Each sum runs over the horizontal neighbours, then north, then south:
        the link table's order for black cells, its two vertical links swapped
        for red ones.  A cell's products and sums are the same whatever range
        [lo, hi) holds it.
        """
        calls = [(np.multiply, self.c_same[lo:hi], x[lo:hi], out[lo:hi])]
        links = self.links if colour == BLACK else (*self.links[:2], self.links[3], self.links[2])
        for c, black, red in links:
            to, source = (black, red) if colour == BLACK else (red, black)
            i, j = max(lo - to, 0), min(hi - to, len(c))  # empty where [lo, hi) misses the link
            o, t = out[i + to : j + to], tmp[i + to : j + to]
            calls += [(np.multiply, c[i:j], x[i + source : j + source], t), (np.add, o, t, o)]
        return calls

    def schur_plan(
        self, d: np.ndarray, out: np.ndarray, u: np.ndarray, tmp: np.ndarray, drinv: np.ndarray, d_black: np.ndarray
    ) -> list:
        """The calls of ``out = S d = D_b d - N_br D_r^-1 N_rb d``, band by band.

        A band is ``BAND_CELLS`` compact entries rounded down to whole rows of
        w = ceil(W/2), at least one row.  For black rows [a, b) it computes
        ``u = D_r^-1 N_rb d`` on red rows [a - w, b + w), the ones their sums
        read, then ``out = D_b d - N_br u`` on [a, b), with ``tmp`` as scratch,
        so a band's arrays stay in cache between the steps.  Every cell gets
        the products and sums of the whole-array chain in the same order, so
        ``out`` is the same bit for bit; the red rows next to a band's edge
        are computed for both bands they touch.
        """
        m, w = len(d), self.half
        rows = max(BAND_CELLS // w, 1) * w
        plan = []
        for a in range(0, m, rows):
            b = min(a + rows, m)
            lo, hi = max(a - w, 0), min(b + w, m)
            plan += self.couple(d, u, tmp, RED, lo, hi)
            plan.append((np.multiply, u[lo:hi], drinv[lo:hi], u[lo:hi]))
            plan += self.couple(u, out, tmp, BLACK, a, b)
            plan += [(np.multiply, d_black[a:b], d[a:b], tmp[a:b]), (np.subtract, tmp[a:b], out[a:b], out[a:b])]
        return plan


class StartSubspace:
    """Recent iterate differences of an outer run, for ``cg_solve``'s start.

    The differences are held with a zero rim, one per row of a (size, H, W)
    array, the grid of the first push: row i holds the i-th one pushed until
    the ring is full.  After
    that a push overwrites the row that ``galerkin`` chose at the last
    start: the row that weighs most in a near-null direction of the
    Galerkin matrix when it has one, otherwise the row, never the newest,
    that carried the least of the start.  A push with no choice pending
    writes the row after the newest: row ``count`` while the ring fills, and
    in ``run`` on a full ring only after a zero right-hand side.
    The inner operator is A_n = L + diag(g_n), and L, the model's diffusion
    part, is the same at every step, so the Gram d_i'L d_j is kept here: a
    new difference costs one application of L, on the next solve, and only
    d_i' diag(g_n) d_j is recomputed per step.
    """

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size
        self.diffs: np.ndarray | None = None
        self.count = 0
        self.newest = -1  # the row the last push wrote
        self.evict: int | None = None  # the row the next push writes, chosen by galerkin
        self.l_gram = np.zeros((size, size))
        self.stale: list[int] = []  # rows whose L-Gram entries are yet to be computed

    @property
    def rows(self) -> np.ndarray:
        """The differences held, one flat array per row."""
        return self.diffs[: self.count].reshape(self.count, -1)

    def push(self, new: np.ndarray, old) -> None:
        """Enter ``new - old`` for a grid array ``new`` (the rim is zeroed) of
        the first push's shape; another shape raises ``ValueError``."""
        if self.diffs is None:
            self.diffs = np.empty((self.size, *new.shape))
        elif new.shape != self.diffs.shape[1:]:
            raise ValueError(f"difference of shape {new.shape} and ring of shape {self.diffs.shape[1:]} are different grids")
        slot = (self.newest + 1) % self.size if self.evict is None else self.evict
        zero_rim(np.subtract(new, old, out=self.diffs[slot]))
        if slot not in self.stale:
            self.stale.append(slot)
        self.newest, self.evict = slot, None
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

        A full ring also chooses the row the next push overwrites.  When the
        smallest eigenvalue is below ``EVICT_RTOL`` times the largest, it is
        the row whose entry in that eigenvector is the largest in magnitude.
        Otherwise it is the row, other than the newest, whose part of the
        start has the least A-norm, |theta_i| sqrt(G_ii).
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
        rhs = scale * np.einsum("n,jn->j", r, rows)
        kept = v[:, keep]
        theta = scale * (kept @ ((kept.T @ rhs) / lam[keep]))
        if k == self.size:
            if lam[0] < EVICT_RTOL * lam[-1]:
                self.evict = int(np.argmax(np.abs(v[:, 0])))
            else:
                used = np.abs(theta) * np.sqrt(diag)
                used[self.newest] = math.inf
                self.evict = int(np.argmin(used))
        return theta, int(keep.sum()), applied


class Workspace:
    """The buffers of a run's outer steps, allocated once per run and reused
    by every step.

    ``z`` and ``z_next`` hold the iterate z_n and its successor, and
    ``swap`` exchanges them; ``g`` and ``f`` hold the linearization.  These
    four are (H, W) arrays.  The scratch is nine compact arrays of length
    H ceil(W/2), ``compact[k]``, whose first eight also hold four grid
    arrays, ``grids[i]`` over ``compact[2i]`` and ``compact[2i + 1]``.  In
    all that is 8.5 grid arrays on even widths (4 + 4.5 (W + 1) / W on odd
    ones), in two allocations, and every array starts on a 64-byte
    boundary (``_aligned_rows``).  The scratch aliases by phase:
    ``cg_solve`` keeps its residual, A x and face scratch in ``grids[0:3]``,
    the projected start's A s in ``grids[3]`` and its iterate in ``z_next``
    while it works in the full space, and its nine compact arrays, eight of
    them over those four dead grid arrays, in the reduced loop;
    ``total_energy``, ``energy_drop_bound``, ``grid.rms_diff``,
    ``apply_operator`` and ``solver.euler_lagrange_residual`` take their
    temporaries from ``grids`` before or after the solve.  Outside
    ``cg_solve`` a function writes no other array of the workspace but its
    outputs: ``linearize`` writes ``g`` and ``f`` only.
    ``schur`` holds ``cg_solve``'s three plans over ``compact``, views
    only, with the operator they were built for: the fold of the red
    residual into the black one, the product S d (``Operator.schur_plan``)
    and the back-substitution; the first solve builds them.

    Each of those functions takes it as ``work`` and then allocates no grid
    array; without one they allocate their scratch as they go.  Either way
    they take and return grid arrays, and take a field where they take a
    grid array (``GridField.__array__``).
    """

    def __init__(self, p: ModelParams):
        geom = p.geometry
        n, m = geom.cells, geom.height * ((geom.width + 1) // 2)
        grid, slot = _aligned_rows(4, n), _aligned_rows(9, m)
        self.z, self.z_next, self.g, self.f = (row[:n].reshape(geom.shape) for row in grid)
        self.compact = tuple(row[:m] for row in slot)
        pairs = slot[:8].reshape(4, -1)
        self.grids = tuple(pair[:n].reshape(geom.shape) for pair in pairs)
        self.schur: tuple[Operator, list, list, list] | None = None  # cg_solve's plans and their operator

    def swap(self) -> None:
        """Make ``z_next`` the iterate, and the old iterate's array the next one's."""
        self.z, self.z_next = self.z_next, self.z


def _run(calls: list) -> None:
    """Run the ``(ufunc, a, b, out)`` calls of an ``Operator`` plan in order."""
    for f, a, b, o in calls:
        f(a, b, out=o)


def _aligned_rows(rows: int, length: int) -> np.ndarray:
    """An uninitialized (rows, L) array, L = ``length`` rounded up to 8, whose
    rows start on 64-byte boundaries.

    The allocator aligns to 16 bytes only, and numpy's elementwise loops
    slow down on vectors that straddle cache lines: on a 2-vCPU Xeon VM a
    product of two 24,576-cell arrays took 6.8 us aligned and 15.7 us at a
    16-byte offset, and a step of the 192x128 ellipse-triangle 14-19% more
    with the workspace at an offset.  Reductions sum in the same order at
    any alignment, so the results do not change.
    """
    stride = -(-length // 8) * 8
    raw = np.empty(rows * stride + 7)
    skip = (-raw.ctypes.data % 64) // 8
    return raw[skip : skip + rows * stride].reshape(rows, stride)


def apply_operator(
    z: np.ndarray, data: LinearizedData, p: ModelParams, work: Workspace | None = None
) -> np.ndarray:
    """Matrix-free application of the symmetric positive definite operator
    to the grid array ``z``.

    Boundary entries of the argument are treated as Dirichlet zeros and the
    result is zero on the rim.  The result is one of ``work.grids`` with a
    workspace ``work``, and new without one.
    """
    z = _grid_array(z, p.geometry.shape)
    zi, out, face = _scratch(work, z.shape, 3)
    np.copyto(zi, z)
    zero_rim(zi)
    p.operator.apply(zi.ravel(), data.g_n.ravel(), out.ravel(), face.ravel()[:-1])
    return out


def cg_solve(
    data: LinearizedData,
    p: ModelParams,
    cg: CgParams = CgParams(),
    warm_start: np.ndarray | None = None,
    subspace: StartSubspace | None = None,
    work: Workspace | None = None,
) -> tuple[np.ndarray, StepRecord]:
    """Solve A z = f_n by Jacobi-preconditioned CG on the red-black reduced system.

    Stops when the relative residual drops to ``rel_tol``; a zero right-hand
    side short-circuits to zero.  The start is set in the full
    space.  With a nonempty ``subspace`` D, the start x0 moves to x0 + s, s =
    D theta, the best point of x0 + span(D) in the A-norm (``StartSubspace.
    galerkin``), when s lowers the inner quadratic x'Ax/2 - f'x, that is
    when s'As/2 < s'r0 with r0 = f - A x0; otherwise it stays at x0.  That
    costs one application of A, one of L per new difference, and no grid
    array.  A start x worse than zero, Q(x) = x'Ax/2 - f'x =
    -(x'f + x'r)/2 > 0 with r = f - A x, is dropped for zero (two dots),
    so the solve starts from the best of x0 + s, x0 and 0 in the A-norm.
    The start's residual carries rounding, about eps ||A|| ||x||, that the
    recursive residual does not see and the true one keeps.  A kept start
    has ||x - u||_A <= ||u||_A, u the exact solution, so ||x|| <= 2 ||f|| /
    lambda_min(A) and its rounding is at most about 2 eps kappa(A) ||f||,
    twice the bound on the exact solution's own; a start far above the
    solution near a zero right-hand side, as on a fading run's last steps,
    is dropped.  The rule covers starts worse than zero only: where
    ``rel_tol`` is below that bound, a kept start's rounding can exceed
    ``rel_tol`` ||f||, and the solve does not detect it.

    Every solve with a nonzero right-hand side then eliminates the red
    cells: with A = [[D_r, -N_rb], [-N_br, D_b]], CG solves the Schur
    complement S x_b = f_b + N_br D_r^-1 f_r, S = D_b - N_br D_r^-1 N_rb, on
    the black cells, preconditioned by D_b, the black block of A's diagonal
    (the reduced-system CG of Hageman & Young 1981; no iteration when the
    start meets the tolerance there), and the back-substitution
    x_r = D_r^-1 (f_r + N_rb x_b) leaves no red residual.  The reduced
    residual is then the full one, and S converges in about half the
    iterations of A, each on half-length vectors.  The loop works in place
    on compact flat buffers, the preconditioned residual doubling as the
    products' scratch.  The fold N_br D_r^-1 r_r, each product S d (band by
    band, ``Operator.schur_plan``) and the back-substitution run the
    workspace's plans, built on its first solve.  Every reduction is
    ``_dot``, so repeated solves are bit-identical whatever the BLAS thread
    count.  The returned record has the solve's fields set (see
    ``StepRecord``); its reduced applications count the elimination and the
    back-substitution together as one.

    The record's ``range_bound`` is ||r||_inf / alpha, alpha the canyon
    floor and r the reduced residual the solve ends with (0 for a zero
    right-hand side).  It bounds ||x - u||_inf, u the exact solution: A = L +
    diag(g_n) is diagonally dominant by g_i >= G >= alpha in each interior
    row, so ||A^-1||_inf <= 1 / alpha (Varah 1975).  ``cg_residual`` and
    ``range_bound`` are read off the recursively updated residual.
    ``solver.run`` puts the true residual's bound in the record when a
    step's excursion passes this one.

    The solve runs in the workspace ``work``, or in a new one without it,
    and the solution is written into its ``z_next`` and returned as that
    array.
    """
    geom = p.geometry
    if warm_start is not None:
        warm_start = _grid_array(warm_start, geom.shape)
    if subspace is not None and subspace.count and subspace.diffs.shape[1:] != geom.shape:
        raise ValueError(f"subspace of shape {subspace.diffs.shape[1:]} and grid {geom.shape} are different grids")
    if work is None:
        work = Workspace(p)
    op = p.operator
    g = data.g_n.ravel()
    r_grid, ad_grid, face_grid = work.grids[:3]
    r, ad, face = r_grid.ravel(), ad_grid.ravel(), face_grid.ravel()[:-1]
    np.copyto(r_grid, data.f_n)
    zero_rim(r_grid)
    f_norm = math.sqrt(_dot(r, r))
    out = work.z_next
    if f_norm == 0.0:
        out.fill(0.0)
        return out, StepRecord()

    max_iters = cg.max_iters if cg.max_iters is not None else 10 * geom.cells
    x = out.ravel()
    np.copyto(out, 0.0 if warm_start is None else warm_start)
    zero_rim(out)
    op.apply(x, g, ad, face)
    r -= ad
    rank, full = 0, 1
    if subspace is not None and subspace.count:
        theta, rank, applied = subspace.galerkin(op, g, r, ad, face)
        full += applied
        if rank:
            # the step s = D theta in ad, A s in grids[3], free until D_b and D_r^-1
            a_s = work.grids[3].ravel()
            np.einsum("j,jn->n", theta, subspace.rows, out=ad)
            op.apply(ad, g, a_s, face)
            full += 1
            if 0.5 * _dot(ad, a_s) < _dot(ad, r):  # s lowers the quadratic
                r -= a_s
                x += ad
            else:
                rank = 0
    # Q(x) = x'Ax/2 - f'x = -(x'f + x'r)/2; f's rim meets x's zero one
    if _dot(x, data.f_n.ravel()) + _dot(x, r) < 0.0:  # x is worse than 0: start there
        x.fill(0.0)
        np.copyto(r_grid, data.f_n)
        zero_rim(r_grid)
        rank = 0
    tol = cg.rel_tol * f_norm

    # the nine compact arrays: xb and q over r, rb and u over ad, zb and minv
    # over face, D_b and D_r^-1 over A s, and db; each pair is taken once its
    # grid array is split or dead
    xb, q, rb, u, zb, minv, db_diag, drinv, db = work.compact
    op.diagonal(g, out=ad)
    diag = zero_rim(ad_grid)
    op.split(diag, BLACK, out=db_diag)
    op.split(diag, RED, out=drinv)
    np.divide(1.0, drinv, out=drinv, where=drinv > 0.0)  # rim and pad entries stay 0
    op.split(r_grid, BLACK, out=rb)  # over ad, whose diagonal is split
    op.split(r_grid, RED, out=u)
    op.split(out, BLACK, out=xb)  # over r, split above
    if work.schur is None or work.schur[0] is not op:
        m = len(db)
        fold = [(np.multiply, u, drinv, u), *op.couple(u, q, zb, BLACK, 0, m), (np.add, rb, q, rb)]
        back = [*op.couple(xb, u, zb, RED, 0, m), (np.add, u, q, u), (np.multiply, u, drinv, u)]
        work.schur = op, fold, op.schur_plan(db, q, u, zb, drinv, db_diag), back
    _, fold, plan, back = work.schur
    # the start's reduced residual r_b + N_br D_r^-1 r_r = f_b + N_br D_r^-1 f_r - S x_b
    _run(fold)
    minv.fill(0.0)
    np.divide(1.0, db_diag, out=minv, where=db_diag > 0.0)  # rim and pad entries stay 0

    r_norm = math.sqrt(_dot(rb, rb))
    k = 0
    breakdown = False
    if r_norm > tol:
        np.multiply(minv, rb, out=zb)
        np.copyto(db, zb)
        rz = _dot(rb, zb)
        while k < max_iters:
            k += 1
            # q = S db; zb is free until the preconditioner refills it
            _run(plan)
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
    # back-substitute x_r = D_r^-1 (f_r + N_rb x_b), f_r over q
    op.split(data.f_n, RED, out=q)
    _run(back)
    op.join(xb, BLACK, out)
    op.join(u, RED, out)
    zero_rim(out)
    if breakdown or r_norm > tol:
        raise CgConvergenceError(out.copy(), r_norm / f_norm, k, breakdown)
    return out, StepRecord(
        cg_iters=k, cg_residual=r_norm / f_norm, start_rank=rank,
        full_applications=full, reduced_applications=k + 1,
        range_bound=float(max(rb.max(), -rb.min())) / p.canyon.alpha,
    )
