"""Outer fixed-point iteration with convergence monitoring.

Starts from the null hypothesis (phase one everywhere outside the inducers),
repeatedly solves the linearized elliptic problem, and stops once the RMS
update falls below the outer tolerance.  Each step records energy, decrease,
inner-solver work, and pre-clamp range so the scheme's guarantees (monotone
energy, range preservation, stationarity) are observable from the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .canyon import CanyonParams, ConfigurationMask, build_canyon
from .elliptic import CgParams, StartSubspace, apply_operator, cg_solve, linearize
from .energy import ModelParams, PhaseField, energy_drop_bound, total_energy
from .grid import heat_step, require_same_geometry, rms_diff, zero_rim

__all__ = [
    "SolverConfig",
    "StepRecord",
    "IterationReport",
    "RangePreservationError",
    "default_model",
    "null_hypothesis",
    "presmooth",
    "step",
    "run",
    "euler_lagrange_residual",
]


# The projected start searches the span of this many last iterate differences.
START_DIRECTIONS = 6

# Relative slack of the energy audit: a step may raise the energy, or drop it
# short of its bound, by this much times 1 + the first energy (rounding).
AUDIT_RTOL = 1e-9


class RangePreservationError(RuntimeError):
    """The inner solve left [0, 1] by more than the allowed solver slack."""


@dataclass(frozen=True)
class SolverConfig:
    model: ModelParams
    cg: CgParams = CgParams()
    delta: float = 1e-6
    max_outer: int = 5000

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if self.max_outer <= 0:
            raise ValueError("max_outer must be positive")


@dataclass
class StepRecord:
    """One outer iteration.  ``step`` sets the inner-solver outcome and the
    pre-clamp range, ``run`` the rest.  ``rho`` and ``drop_bound`` compare
    this iterate with its successor, so they stay NaN on the final record.
    ``start_rank`` is the number of directions the inner solve's projected
    start kept, 0 when no start ran.  ``retried`` is 1 when the step solved
    again from z_n because the projected start's solve left the range
    limit, else 0.  ``cg_iters`` counts the inner solves' iterations on the
    reduced system; ``full_applications`` and ``reduced_applications`` their
    applications of the full and the reduced operator.  These three work
    counts add up both solves of a retried step; every other field
    describes the solve that was kept."""

    cg_iters: int
    cg_residual: float
    pre_clamp_min: float
    pre_clamp_max: float
    start_rank: int = 0
    full_applications: int = 0
    reduced_applications: int = 0
    retried: int = 0
    index: int = 0
    energy: float = math.nan
    rho: float = math.nan
    rms_update: float = math.nan
    drop_bound: float = math.nan


@dataclass
class IterationReport:
    steps: list[StepRecord] = field(default_factory=list)
    status: str = "max_outer_reached"
    el_residual: float = math.nan

    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.steps])

    def audit(self) -> dict:
        """The run's guarantees, checked step by step.

        Counts the energy rises and the steps whose energy drop ``rho``
        falls short of ``drop_bound``, each beyond the slack
        ``AUDIT_RTOL * (1 + E_1)`` with E_1 the first step's energy,
        gives the largest pre-clamp excursion outside [0, 1], and counts the
        retried steps, which are no failure.
        """
        slack = AUDIT_RTOL * (1.0 + self.steps[0].energy)
        return {
            "energy_increases": int(np.sum(np.diff(self.energies()) > slack)),
            "drop_bound_misses": sum(1 for s in self.steps[:-1] if not s.rho >= s.drop_bound - slack),
            "range_excursion_max": max(
                max(0.0, -s.pre_clamp_min, s.pre_clamp_max - 1.0) for s in self.steps
            ),
            "retries": sum(s.retried for s in self.steps),
        }

    def rho_ratio(self) -> float | None:
        """Observed contraction of the energy drops near the end of the run.

        The median of rho_{n+1} / rho_n over consecutive pairs among the last
        20 drops (the final step has none) where both drops are positive;
        None with fewer than two such pairs.  A diagnostic only.
        """
        rhos = [s.rho for s in self.steps[:-1]][-20:]
        ratios = [b / a for a, b in zip(rhos, rhos[1:]) if a > 0.0 and b > 0.0]
        return float(np.median(ratios)) if len(ratios) >= 2 else None


def default_model(
    mask: ConfigurationMask,
    *,
    alpha: float = 0.1,
    beta: float = 1.0,
    lam: float = 1.0,
    epsilon_factor: float = 3.0,
    sigma_factor: float = 2.0,
    gain: float = 3.0,
    g_kind: str = "exp_square",
) -> ModelParams:
    """Model assembly with the stock parameter choices.

    Bandwidth and mollification scale are given in grid spacings; the
    defaults are epsilon = 3h and sigma = 2h.
    """
    h = mask.geometry.h
    canyon = build_canyon(
        mask,
        CanyonParams(
            sigma=sigma_factor * h,
            alpha=alpha,
            beta=beta,
            g_kind=g_kind,
            gain=gain,
        ),
    )
    return ModelParams(epsilon=epsilon_factor * h, lam=lam, canyon=canyon, mask=mask)


def null_hypothesis(mask: ConfigurationMask) -> PhaseField:
    """Initial guess: phase one everywhere outside the inducers.

    The domain rim is forced to zero so the guess has a zero trace.
    """
    return PhaseField(mask.geometry, zero_rim(1.0 - mask.indicator()))


def presmooth(z0: PhaseField, steps: int) -> PhaseField:
    """Explicit heat steps (size h^2/4) with the rim pinned at zero."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if steps == 0:
        return z0
    u = z0.values.copy()
    for _ in range(steps):
        # zero padding of the interior reproduces the rim, which a PhaseField pins at zero
        u[1:-1, 1:-1] = heat_step(u[1:-1, 1:-1], 0.25, "constant")
    return PhaseField(z0.geometry, u)


def step(
    z_n: PhaseField, cfg: SolverConfig, subspace: StartSubspace | None = None
) -> tuple[PhaseField, StepRecord]:
    """One outer update: linearize at z_n, solve, clamp to [0, 1].

    ``subspace`` is passed to ``cg_solve``: the inner solve then starts from
    the best point of z_n + span(subspace) in the inner operator's norm.

    The exact inner solution of an iterate in [0, 1] stays in [0, 1]; the
    finite solver tolerance may overshoot by a sliver, which is clamped.  An
    excursion beyond 10x the inner tolerance is treated as a defect and
    raises instead of being silently clamped away.  A solve from a projected
    start can leave that limit where the plain start from z_n does not, so
    such a solve is first repeated on the same linearization from z_n, and
    the step raises only if that solve leaves the limit too.
    """
    data = linearize(z_n, cfg.model)
    solution, stats = cg_solve(data, cfg.model, cfg.cg, warm_start=z_n, subspace=subspace)
    pre_min, pre_max = float(solution.values.min()), float(solution.values.max())
    checked = 0.0 <= float(z_n.values.min()) and float(z_n.values.max()) <= 1.0
    limit = 10.0 * cfg.cg.rel_tol
    spent = None
    if checked and stats.start_rank > 0 and max(-pre_min, pre_max - 1.0) > limit:
        spent = stats
        solution, stats = cg_solve(data, cfg.model, cfg.cg, warm_start=z_n)
        pre_min, pre_max = float(solution.values.min()), float(solution.values.max())
    excursion = max(-pre_min, pre_max - 1.0, 0.0)
    if checked and excursion > limit:
        raise RangePreservationError(
            f"pre-clamp excursion {excursion:.3e} exceeds 10 * rel_tol = {limit:.3e}"
        )
    record = StepRecord(
        stats.iterations, stats.residual, pre_min, pre_max, stats.start_rank,
        stats.full_applications, stats.reduced_applications,
    )
    if spent is not None:
        record.retried = 1
        record.cg_iters += spent.iterations
        record.full_applications += spent.full_applications
        record.reduced_applications += spent.reduced_applications
    return PhaseField(z_n.geometry, np.clip(solution.values, 0.0, 1.0)), record


def euler_lagrange_residual(z: PhaseField, p: ModelParams) -> float:
    """Interior RMS residual of the nonlinear stationarity equation at z."""
    data = linearize(z, p)
    az = apply_operator(z, data, p)
    r = (az.values - data.f_n.values)[1:-1, 1:-1]
    return float(np.sqrt(np.mean(r * r)))


def run(
    cfg: SolverConfig,
    *,
    initial: PhaseField | None = None,
    step_sink=None,
) -> tuple[PhaseField, IterationReport]:
    """Iterate until the RMS update drops below delta or the budget runs out.

    The run starts from ``initial``, or from the null hypothesis of the
    model's mask when it is None.  ``step_sink``, when given, is called as
    ``step_sink(record, field)`` after every step, with the step's record
    (its energy and update set) and the new read-only iterate.
    Returns the final iterate and the per-step report, including the
    nonlinear stationarity residual of the final iterate.

    Each inner solve after the first starts from a projection: the last
    ``START_DIRECTIONS`` iterate differences (fewer while the run is young)
    span a subspace, and ``cg_solve`` starts from the best point of z_n
    plus that span; ``step`` falls back to z_n when that solve leaves the
    range limit.
    """
    z = initial if initial is not None else null_hypothesis(cfg.model.mask)
    del initial  # so the first iterate is freed once the second replaces it
    require_same_geometry(z, cfg.model)

    ring = StartSubspace(START_DIRECTIONS)
    report = IterationReport()
    for n in range(1, cfg.max_outer + 1):
        z_next, record = step(z, cfg, ring)
        record.index = n
        record.energy = total_energy(z_next, cfg.model)
        record.rms_update = rms_diff(z_next, z)
        if report.steps:
            prev = report.steps[-1]
            prev.rho = prev.energy - record.energy
            prev.drop_bound = energy_drop_bound(z, z_next, cfg.model)
        report.steps.append(record)
        if step_sink is not None:
            step_sink(record, z_next)
        ring.push(z_next.values, z.values)
        z = z_next
        if record.rms_update <= cfg.delta:
            report.status = "converged"
            break
    report.el_residual = euler_lagrange_residual(z, cfg.model)
    return z, report
