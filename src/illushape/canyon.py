"""Canyon weights: mollify the inducer indicator, measure edges, apply the decay.

The weight field is expensive (close to ``alpha + beta``) over most of the
domain and drops to its floor ``alpha`` along the inducer boundary, so that
transition layers prefer to hug the inducers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridField, GridMask, gradient_magnitude, heat_step, rim_any

__all__ = [
    "ConfigurationMask",
    "CanyonParams",
    "CanyonField",
    "NoBoundaryError",
    "EDGE_RESPONSE_KINDS",
    "mollify",
    "edge_response",
    "build_canyon",
]

EDGE_RESPONSE_KINDS = ("exp_square", "rational")


class NoBoundaryError(ValueError):
    """The configuration is empty or fills the grid, so it has no boundary."""


@dataclass(frozen=True, eq=False)
class ConfigurationMask(GridMask):
    """Binary indicator of the inducer configuration on the pixel grid."""

    def touches_boundary(self) -> bool:
        """True when any inducer cell lies on the domain rim."""
        return rim_any(self.inside)

    def indicator(self) -> np.ndarray:
        """The mask as a writable 0/1 float array."""
        return self.inside.astype(float)


@dataclass(frozen=True)
class CanyonParams:
    """Parameters of the canyon construction.

    ``alpha`` is the floor, ``beta`` the drop, ``sigma`` the mollification
    scale in domain-length units, and ``gain`` scales the normalized edge
    strength fed to the decay function.  Salient canyons want
    ``beta >> alpha``; ``beta = 0`` is allowed and yields a flat field.
    """

    sigma: float
    alpha: float = 0.1
    beta: float = 1.0
    g_kind: str = "exp_square"
    gain: float = 3.0

    def __post_init__(self) -> None:
        for name in ("sigma", "alpha", "beta", "gain"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.gain <= 0:
            raise ValueError("gain must be positive")
        if self.g_kind not in EDGE_RESPONSE_KINDS:
            raise ValueError(f"unknown edge response {self.g_kind!r}")


@dataclass(frozen=True, eq=False)
class CanyonField(GridField):
    """Weight field with floor ``alpha`` and ceiling ``alpha + beta``."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.values.min() < self.alpha or self.values.max() > self.alpha + self.beta:
            raise ValueError("canyon values leave [alpha, alpha + beta]")


def mollify(mask: ConfigurationMask, sigma: float) -> GridField:
    """Heat-smooth the 0/1 indicator up to total diffusion time sigma^2 / 2.

    Explicit stepping with zero-flux walls; the step size stays at or below
    h^2/4 so every update is a convex combination and the output remains in
    [0, 1].  ``sigma = 0`` returns the indicator unchanged.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    geom = mask.geometry
    u = mask.indicator()
    total = 0.5 * sigma * sigma
    if total > 0.0:
        h2 = geom.h * geom.h
        n_steps = max(1, math.ceil(total / (0.25 * h2)))
        r = (total / n_steps) / h2
        for _ in range(n_steps):
            u = heat_step(u, r, "edge")
        u = np.clip(u, 0.0, 1.0)
    return GridField(geom, u)


def edge_response(p, g_kind: str = "exp_square"):
    """Edge decay: 1 at zero edge strength, vanishing in the strong-edge limit.

    Accepts scalars or arrays.
    """
    if g_kind == "exp_square":
        return np.exp(-np.square(p))
    if g_kind == "rational":
        return 1.0 / (1.0 + np.square(p))
    raise ValueError(f"unknown edge response {g_kind!r}")


def build_canyon(mask: ConfigurationMask, params: CanyonParams) -> CanyonField:
    """Assemble the canyon weight from a configuration mask.

    The smoothed indicator's gradient magnitude is normalized by its maximum,
    scaled by ``gain``, passed through the decay, and mapped to
    ``alpha + beta * g``.  Fails when the mask has no boundary.
    """
    if not mask.inside.any() or mask.inside.all():
        raise NoBoundaryError("no configuration boundary")
    if params.sigma < mask.geometry.h:
        raise ValueError("sigma must be at least one grid spacing")
    smooth = mollify(mask, params.sigma)
    strength = gradient_magnitude(smooth).values
    peak = float(strength.max())
    if peak <= 0.0:
        raise NoBoundaryError("no configuration boundary")
    g = edge_response(params.gain * (strength / peak), params.g_kind)
    return CanyonField(mask.geometry, params.alpha + params.beta * g, params.alpha, params.beta)
