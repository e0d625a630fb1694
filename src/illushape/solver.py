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
from .elliptic import CgParams, StartSubspace, StepRecord, Workspace, apply_operator, cg_solve, linearize
from .energy import ModelParams, PhaseField, energy_drop_bound, total_energy
from .grid import rms_diff, zero_rim

__all__ = [
    "SolverConfig",
    "StepRecord",
    "IterationReport",
    "RangePreservationError",
    "default_model",
    "null_hypothesis",
    "run",
    "euler_lagrange_residual",
]

# Relative slack of the energy audit: a step may raise the energy, or drop it
# short of its bound, by this much times 1 + E_1, the first step's energy (rounding).
AUDIT_RTOL = 1e-9


class RangePreservationError(RuntimeError):
    """A step's solution left [0, 1] beyond the solve's certified error bound:
    from an iterate in [0, 1], only a broken linearization or operator does."""


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
class IterationReport:
    steps: list[StepRecord] = field(default_factory=list)
    status: str = "max_outer_reached"
    el_residual: float = math.nan

    def audit(self) -> dict:
        """The run's guarantees, audited step by step.

        Counts the steps, the first included, whose energy drop ``rho`` is
        below zero or short of ``drop_bound``, each beyond the slack
        ``AUDIT_RTOL * (1 + E_1)`` with E_1 the first step's energy, and
        gives the largest pre-clamp excursion outside [0, 1].
        """
        slack = AUDIT_RTOL * (1.0 + self.steps[0].energy)
        return {
            "energy_increases": sum(1 for s in self.steps if s.rho < -slack),
            "drop_bound_misses": sum(1 for s in self.steps if not s.rho >= s.drop_bound - slack),
            "range_excursion_max": max(
                max(0.0, -s.pre_clamp_min, s.pre_clamp_max - 1.0) for s in self.steps
            ),
        }

    def rho_ratio(self) -> float | None:
        """Observed contraction of the energy drops near the end of the run.

        The median of rho_{n+1} / rho_n over consecutive pairs among the
        drops of the last 20 steps where both drops are positive; None with
        fewer than two such pairs.  A diagnostic only.
        """
        rhos = [s.rho for s in self.steps[-20:]]
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


def euler_lagrange_residual(z: np.ndarray, p: ModelParams, work: Workspace | None = None) -> float:
    """Interior RMS residual of the nonlinear stationarity equation at the
    grid array z.

    It takes its temporaries from the workspace ``work``, or allocates them
    without one.
    """
    data = linearize(z, p, work=work)
    az = apply_operator(z, data, p, work=work)
    r = np.subtract(az, data.f_n, out=az)[1:-1, 1:-1]
    return float(np.sqrt(np.mean(np.square(r))))


def run(cfg: SolverConfig, *, step_sink=None) -> tuple[PhaseField, IterationReport]:
    """Iterate until the RMS update drops below delta or the budget runs out.

    The run starts from the null hypothesis of the model's mask.
    ``step_sink``, when given, is called as ``step_sink(record, field)``
    after every step, with the step's record, every field set, and a
    read-only copy of the new iterate.  Returns the final iterate and the
    per-step report, including the nonlinear stationarity residual of the
    final iterate.

    The steps run on one ``Workspace``, into which the null hypothesis is
    copied, so a step allocates no grid array; the iterate is a plain array
    there, and a field is built only for ``step_sink`` and the return value.
    A NaN in the clamped solution raises ``ValueError``, since it makes the
    step's energy NaN.

    A step linearizes at z_n, solves the inner problem once and clamps its
    solution to [0, 1].  Each solve after the first starts from a
    projection: a ring of up to ``elliptic.START_DIRECTIONS`` recent iterate
    differences (``StartSubspace``) spans a subspace, and ``cg_solve``
    starts from the best point of z_n plus that span.  From z_n in [0, 1]
    the exact inner solution lies in [0, 1] (f_n >= 0 and A_n 1 >= f_n), so
    the pre-clamp excursion is within the solve's ``range_bound``.  That
    bound is read off the recursively updated residual, which drifts from
    the true one, so an excursion past it is measured against the same
    bound on the true residual f_n - A_n x, which the record then carries,
    and raises ``RangePreservationError`` only beyond that too.  The ring
    is released before the final residual and field.
    """
    z0 = null_hypothesis(cfg.model.mask)  # before the workspace, so its temporaries do not raise the peak
    work = Workspace(cfg.model)
    np.copyto(work.z, z0.values)
    del z0  # the run's copy is the only one it keeps
    energy = total_energy(work.z, cfg.model, work=work)  # E_0, which step 1's rho drops from
    geom = cfg.model.geometry

    ring = StartSubspace()
    report = IterationReport()
    for n in range(1, cfg.max_outer + 1):
        z, z_next = work.z, work.z_next
        data = linearize(z, cfg.model, work=work)
        solution, record = cg_solve(data, cfg.model, cfg.cg, warm_start=z, subspace=ring, work=work)
        record.pre_clamp_min, record.pre_clamp_max = float(solution.min()), float(solution.max())
        excursion = max(-record.pre_clamp_min, record.pre_clamp_max - 1.0, 0.0)
        if excursion > record.range_bound:  # the recursive residual behind it drifts: look at the true one
            az = apply_operator(solution, data, cfg.model, work=work)
            r = np.subtract(data.f_n, az, out=az)[1:-1, 1:-1]
            bound = record.range_bound = float(max(r.max(), -r.min())) / cfg.model.canyon.alpha
            if excursion > bound:
                raise RangePreservationError(f"pre-clamp excursion {excursion:.3e} exceeds its certified bound {bound:.3e}")
        np.clip(solution, 0.0, 1.0, out=z_next)
        record.iter = n
        record.energy = total_energy(z_next, cfg.model, work=work)
        if not math.isfinite(record.energy):
            raise ValueError("field has non-finite entries")
        record.rms_update = rms_diff(z_next, z, work=work)
        record.rho = energy - record.energy
        energy = record.energy
        record.drop_bound = energy_drop_bound(z, z_next, cfg.model, work=work)
        report.steps.append(record)
        if step_sink is not None:
            step_sink(record, PhaseField(geom, z_next))
        ring.push(z_next, z)
        work.swap()
        if record.rms_update <= cfg.delta:
            report.status = "converged"
            break
    del ring  # so the returned field does not sit on top of its differences
    report.el_residual = euler_lagrange_residual(work.z, cfg.model, work=work)
    return PhaseField(geom, work.z), report
