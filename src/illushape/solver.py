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
from .elliptic import CgParams, apply_operator, cg_solve, linearize
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


class RangePreservationError(RuntimeError):
    """The inner solve left [0, 1] by more than the allowed solver slack."""


@dataclass(frozen=True)
class SolverConfig:
    model: ModelParams
    cg: CgParams = CgParams()
    delta: float = 1e-6
    max_outer: int = 5000
    presmooth_steps: int = 0
    snapshot_every: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if self.max_outer <= 0:
            raise ValueError("max_outer must be positive")
        if self.presmooth_steps < 0 or self.snapshot_every < 0:
            raise ValueError("step counts must be nonnegative")


@dataclass
class StepRecord:
    """One outer iteration.  ``step`` sets the inner-solver outcome and the
    pre-clamp range, ``run`` the rest.  ``rho`` and ``drop_bound`` compare
    this iterate with its successor, so they stay NaN on the final record."""

    cg_iters: int
    cg_residual: float
    pre_clamp_min: float
    pre_clamp_max: float
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


def step(z_n: PhaseField, cfg: SolverConfig) -> tuple[PhaseField, StepRecord]:
    """One outer update: linearize at z_n, solve, clamp to [0, 1].

    The exact inner solution of an iterate in [0, 1] stays in [0, 1]; the
    finite solver tolerance may overshoot by a sliver, which is clamped.  An
    excursion beyond 10x the inner tolerance is treated as a defect and
    raises instead of being silently clamped away.
    """
    data = linearize(z_n, cfg.model)
    solution, cg_stats = cg_solve(data, cfg.model, cfg.cg, warm_start=z_n)
    pre_min = float(solution.values.min())
    pre_max = float(solution.values.max())
    zn_min = float(z_n.values.min())
    zn_max = float(z_n.values.max())
    excursion = max(-pre_min, pre_max - 1.0, 0.0)
    if 0.0 <= zn_min and zn_max <= 1.0 and excursion > 10.0 * cfg.cg.rel_tol:
        raise RangePreservationError(
            f"pre-clamp excursion {excursion:.3e} exceeds 10 * rel_tol "
            f"= {10.0 * cfg.cg.rel_tol:.3e}"
        )
    clamped = np.clip(solution.values, 0.0, 1.0)
    record = StepRecord(cg_stats.iterations, cg_stats.residual, pre_min, pre_max)
    return PhaseField(z_n.geometry, clamped), record


def euler_lagrange_residual(z: PhaseField, p: ModelParams) -> float:
    """Interior RMS residual of the nonlinear stationarity equation at z."""
    data = linearize(z, p)
    az = apply_operator(z, data, p)
    r = (az.values - data.f_n.values)[1:-1, 1:-1]
    return float(np.sqrt(np.mean(r * r)))


def run(
    mask: ConfigurationMask,
    cfg: SolverConfig,
    snapshot_sink=None,
    initial: PhaseField | None = None,
) -> tuple[PhaseField, IterationReport]:
    """Iterate until the RMS update drops below delta or the budget runs out.

    ``initial`` overrides the null-hypothesis start (testing hook).  When a
    sink is given and ``snapshot_every`` is positive, the sink receives
    ``(iteration, field)`` every that many steps; fields are read-only.
    Returns the final iterate and the per-step report, including the
    nonlinear stationarity residual of the final iterate.
    """
    z = initial if initial is not None else null_hypothesis(mask)
    require_same_geometry(z, cfg.model)
    if cfg.presmooth_steps:
        z = presmooth(z, cfg.presmooth_steps)

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
        if snapshot_sink is not None and cfg.snapshot_every and n % cfg.snapshot_every == 0:
            snapshot_sink(n, z)
        if record.rms_update <= cfg.delta:
            report.status = "converged"
            break
    report.el_residual = euler_lagrange_residual(z, cfg.model)
    return z, report
