"""Energy functionals of the phase-transition model.

The total energy charges canyon-weighted gradient and double-well terms plus
a soft confinement that pins the phase to zero on the inducers.  Its
gradient term is (h^2 / 2 epsilon) z'Lz, with L the diffusion part of the
model's elliptic operator, so energy and operator share one face stencil
and one quadrature and the discrete decrease bound holds exactly, not
merely in the continuum limit.  The convex surrogate built around a frozen
iterate majorizes the total energy; its minimizer is the next iterate of
the outer scheme, and its first variation is the weak form of the
linearized elliptic equation.  A run needs only the surrogate's cell
weight, from which the linearization is assembled; the test suite
evaluates the surrogate and its first variation from the same operator and
weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .canyon import CanyonField, ConfigurationMask
from .grid import GridField, _dot, _grid_array, _scratch, require_same_geometry, rim_any

__all__ = [
    "PhaseField",
    "ModelParams",
    "double_well",
    "total_energy",
    "energy_drop_bound",
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
    def operator(self):
        """The elliptic operator's face coefficients, built on first use."""
        from .elliptic import Operator  # elliptic builds on this module

        return Operator(self)


def double_well(z):
    """Double-well potential (1 - z)^2 z^2 with minima at the pure phases."""
    return np.square(1.0 - z) * np.square(z)


def total_energy(z: np.ndarray, p: ModelParams, work=None) -> float:
    """Discrete total energy of a grid array that vanishes on the boundary ring.

    Face-gradient term (epsilon/2) G |grad z|^2, cell double-well term
    G Phi(z) / (2 epsilon), and confinement lam chi z^2 / (2 epsilon), all
    under midpoint quadrature.  The diffusion part L of ``p.operator`` has
    face coefficients (epsilon/h)^2 G_face, so the gradient term, the face
    sum (epsilon/2) G_face dz^2, is evaluated as (h^2 / 2 epsilon) z'Lz.
    That kernel zeroes its output rim, so an array with a nonzero rim is
    rejected.  The temporaries are ``work``'s (``elliptic.Workspace``), or
    new without one.
    """
    z = _grid_array(z, p.geometry.shape)
    if rim_any(z):
        raise ValueError("the energy takes a field that vanishes on the boundary ring")
    h = p.geometry.h
    cell_scale = h * h / (2.0 * p.epsilon)
    lz, face, cell = _scratch(work, z.shape, 3)
    flat = z.ravel()
    p.operator.apply(flat, None, lz.ravel(), face.ravel()[:-1])
    grad = cell_scale * _dot(flat, lz.ravel())
    # in place, rounding as G Phi(z) and chi z^2, both from the one z^2 in lz
    np.subtract(1.0, z, out=cell)
    np.square(cell, out=cell)
    cell *= np.square(z, out=lz)
    cell *= p.canyon.values
    well = cell_scale * float(np.sum(cell))
    np.multiply(p.mask.inside, lz, out=cell)
    pin = p.lam * cell_scale * float(np.sum(cell))
    return grad + well + pin


def _surrogate_weight(weight: np.ndarray, p: ModelParams) -> np.ndarray:
    """Cell weight G (1 + 2 z_n^2) of the surrogate frozen at z_n, made in
    place from the array z_n^2 and returned.

    The linearized operator is assembled from the same weight.
    """
    weight *= 2.0
    weight += 1.0
    weight *= p.canyon.values
    return weight


def energy_drop_bound(prev: np.ndarray, new: np.ndarray, p: ModelParams, work=None) -> float:
    """Guaranteed per-step energy decrease of the majorize-minimize update.

    For iterates in [0, 1] the decrease is at least the canyon-weighted
    quadrature of (new - prev)^2 (2 prev + 4 m (1 - m)) / (2 epsilon) with m
    the midpoint of the two iterates, grid arrays; nonnegative whenever both
    lie in [0, 1].  The temporaries are ``work``'s (``elliptic.Workspace``),
    or new without one.
    """
    shape = p.geometry.shape
    a, b = _grid_array(prev, shape), _grid_array(new, shape)
    h = p.geometry.h
    # in place, rounding as G (b - a)^2 (2 a + 4 m (1 - m)) with m = (a + b) / 2
    m, factor = _scratch(work, a.shape, 2)
    np.add(a, b, out=m)
    m *= 0.5
    np.subtract(1.0, m, out=factor)
    m *= 4.0
    factor *= m
    factor += np.multiply(a, 2.0, out=m)
    integrand = np.subtract(b, a, out=m)
    np.square(integrand, out=integrand)
    integrand *= p.canyon.values
    integrand *= factor
    return float(h * h / (2.0 * p.epsilon) * np.sum(integrand))
