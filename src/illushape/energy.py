"""Energy functionals of the phase-transition model.

The total energy charges canyon-weighted gradient and double-well terms plus
a soft confinement that pins the phase to zero on the inducers.  The convex
surrogate built around a frozen iterate majorizes the total energy; its
minimizer is the next iterate of the outer scheme, and its first variation is
the weak form of the linearized elliptic equation.  Energy and operator share
one face stencil and one quadrature so the discrete decrease bound holds
exactly, not merely in the continuum limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .canyon import CanyonField, ConfigurationMask
from .grid import GridField, face_diffs, face_means, require_same_geometry, rim_any

__all__ = [
    "PhaseField",
    "ModelParams",
    "double_well",
    "surrogate_target",
    "total_energy",
    "surrogate_energy",
    "first_variation",
    "energy_drop_bound",
    "profile_measure_1d",
]


@dataclass(frozen=True, eq=False)
class PhaseField(GridField):
    """Scalar phase iterate with zero trace on the domain rim."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if rim_any(self.values):
            raise ValueError("phase field must vanish on the boundary ring")


@dataclass(frozen=True)
class ModelParams:
    """Transition bandwidth, confinement weight, canyon, and inducer mask."""

    epsilon: float
    lam: float
    canyon: CanyonField
    mask: ConfigurationMask

    def __post_init__(self) -> None:
        require_same_geometry(self.canyon, self.mask)
        h = self.canyon.geometry.h
        hi = max(0.25, h)  # grids under 4 cells have h > 0.25; allow epsilon = h there
        if not (h <= self.epsilon <= hi):
            raise ValueError(
                f"epsilon must lie in [h, {hi:g}] = [{h:g}, {hi:g}], got {self.epsilon:g}"
            )
        if not 0.0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")

    @property
    def geometry(self):
        return self.canyon.geometry

    @cached_property
    def faces(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only x- and y-face means of the canyon, built on first use."""
        gx, gy = face_means(self.canyon.values)
        gx.setflags(write=False)
        gy.setflags(write=False)
        return gx, gy

    @cached_property
    def operator(self):
        """The elliptic operator's face coefficients, built on the first solve."""
        from .elliptic import Operator  # elliptic builds on this module

        return Operator(self)


def double_well(z):
    """Double-well potential (1 - z)^2 z^2 with minima at the pure phases."""
    return np.square(1.0 - z) * np.square(z)


def surrogate_target(z):
    """Cellwise target 3 z^2 / (1 + 2 z^2) of the convex surrogate.

    Fixed points of the map are 0, 1/2, and 1, matching the critical points
    of the double well.
    """
    zz = np.square(z)
    return 3.0 * zz / (1.0 + 2.0 * zz)


def _face_form(a: np.ndarray, b: np.ndarray, p: ModelParams) -> float:
    """Face sum of G_face * da * db, the stencil shared with the elliptic operator.

    Note (dz/h)^2 h^2 = dz^2, so face sums need no explicit h factors.
    """
    dax, day = face_diffs(a)
    dbx, dby = (dax, day) if b is a else face_diffs(b)
    gx, gy = p.faces
    return float(np.sum(gx * dax * dbx)) + float(np.sum(gy * day * dby))


def total_energy(z: PhaseField, p: ModelParams) -> float:
    """Discrete total energy of a zero-trace phase field.

    Face-gradient term (epsilon/2) G |grad z|^2, cell double-well term
    G Phi(z) / (2 epsilon), and confinement lam chi z^2 / (2 epsilon), all
    under midpoint quadrature.
    """
    require_same_geometry(z, p)
    zv = z.values
    h = p.geometry.h
    grad = 0.5 * p.epsilon * _face_form(zv, zv, p)
    cell_scale = h * h / (2.0 * p.epsilon)
    well = cell_scale * float(np.sum(p.canyon.values * double_well(zv)))
    pin = p.lam * cell_scale * float(np.sum(p.mask.indicator() * zv * zv))
    return grad + well + pin


def _surrogate_cell(z_n: PhaseField, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Cell weight G (1 + 2 z_n^2) and target of the surrogate frozen at z_n.

    The linearized operator is assembled from the same pair.
    """
    require_same_geometry(z_n, p)
    zn = z_n.values
    return p.canyon.values * (1.0 + 2.0 * np.square(zn)), surrogate_target(zn)


def surrogate_energy(z: PhaseField, z_n: PhaseField, p: ModelParams) -> float:
    """Strictly convex quadratic majorant of the total energy at iterate z_n."""
    require_same_geometry(z, p)
    zv = z.values
    h = p.geometry.h
    weight, target = _surrogate_cell(z_n, p)
    grad = 0.5 * p.epsilon * _face_form(zv, zv, p)
    cell_scale = h * h / (2.0 * p.epsilon)
    cell = cell_scale * float(np.sum(weight * np.square(zv - target)))
    pin = p.lam * cell_scale * float(np.sum(p.mask.indicator() * zv * zv))
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
    weight, target = _surrogate_cell(z_n, p)
    grad = p.epsilon * _face_form(zv, uv, p)
    cell_scale = h * h / p.epsilon
    cell = cell_scale * float(np.sum(weight * (zv - target) * uv))
    pin = p.lam * cell_scale * float(np.sum(p.mask.indicator() * zv * uv))
    return grad + cell + pin


def energy_drop_bound(prev: PhaseField, new: PhaseField, p: ModelParams) -> float:
    """Guaranteed per-step energy decrease of the majorize-minimize update.

    For iterates in [0, 1] the decrease is at least the canyon-weighted
    quadrature of (new - prev)^2 (2 prev + 4 m (1 - m)) / (2 epsilon) with m
    the midpoint of the two iterates; nonnegative whenever both lie in [0, 1].
    """
    require_same_geometry(prev, p)
    require_same_geometry(new, p)
    a = prev.values
    b = new.values
    m = 0.5 * (a + b)
    h = p.geometry.h
    factor = 2.0 * a + 4.0 * m * (1.0 - m)
    integrand = p.canyon.values * np.square(b - a) * factor
    return float(h * h / (2.0 * p.epsilon) * np.sum(integrand))


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
