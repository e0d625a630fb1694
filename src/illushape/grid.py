"""Uniform 2-D grids: scalar fields, difference stencils, norms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridGeometry",
    "GridField",
    "GridMask",
    "zero_rim",
    "rim_any",
    "gradient_magnitude",
    "rms_diff",
    "face_means",
]


@dataclass(frozen=True)
class GridGeometry:
    """Pixel grid covering a rectangle whose longest side spans unit length."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 3 or self.height < 3:
            raise ValueError("grid must be at least 3x3")

    @property
    def h(self) -> float:
        """Grid spacing; the longest side is normalized to length 1."""
        return 1.0 / max(self.width, self.height)

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape (rows, cols) = (height, width)."""
        return (self.height, self.width)

    @property
    def cells(self) -> int:
        return self.width * self.height


def _read_only_copy(values, geometry: GridGeometry, dtype) -> np.ndarray:
    """A read-only copy of ``values`` as ``dtype``, validated against the grid shape."""
    a = _grid_array(np.array(values, dtype=dtype), geometry.shape)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class GridField:
    """Immutable scalar field sampled at cell centers, stored row-major.

    The value array is copied on construction and marked read-only so fields
    can be shared freely across threads and snapshot consumers.
    """

    geometry: GridGeometry
    values: np.ndarray

    def __post_init__(self) -> None:
        v = _read_only_copy(self.values, self.geometry, float)
        if not np.isfinite(v).all():
            raise ValueError("field has non-finite entries")
        object.__setattr__(self, "values", v)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The read-only values, so that a kernel takes a field as a grid array."""
        return np.array(self.values, dtype=dtype, copy=copy)

    @classmethod
    def zeros(cls, geometry: GridGeometry):
        return cls(geometry, np.zeros(geometry.shape))

    @classmethod
    def full(cls, geometry: GridGeometry, value: float):
        return cls(geometry, np.full(geometry.shape, float(value)))


@dataclass(frozen=True, eq=False)
class GridMask:
    """Immutable boolean cell mask on the pixel grid."""

    geometry: GridGeometry
    inside: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "inside", _read_only_copy(self.inside, self.geometry, bool))

    def count(self) -> int:
        return int(self.inside.sum())


def zero_rim(a: np.ndarray) -> np.ndarray:
    """Zero the boundary ring of ``a`` in place; returns ``a``."""
    a[0, :] = 0
    a[-1, :] = 0
    a[:, 0] = 0
    a[:, -1] = 0
    return a


def rim_any(a: np.ndarray) -> bool:
    """True when any cell on the boundary ring of ``a`` is nonzero."""
    return bool(a[0, :].any() or a[-1, :].any() or a[:, 0].any() or a[:, -1].any())


def require_same_geometry(a, b) -> None:
    """Reject two objects with a ``.geometry`` (fields, masks, models) on different grids."""
    if a.geometry != b.geometry:
        raise ValueError(f"{type(a).__name__} and {type(b).__name__} live on different grids")


def gradient_magnitude(values: np.ndarray, h: float) -> np.ndarray:
    """Cellwise gradient magnitude of a grid array with spacing ``h``: central
    differences inside, one-sided on the rim."""
    gy, gx = np.gradient(values, h, edge_order=1)
    return np.hypot(gx, gy)


def rms_diff(a: np.ndarray, b: np.ndarray, work=None) -> float:
    """Root-mean-square difference of two grid arrays; the outer stopping norm.

    The temporary is ``work``'s (``elliptic.Workspace``), or new without one.
    """
    a = np.asarray(a)
    b = _grid_array(b, a.shape)
    (d,) = _scratch(work, a.shape, 1)
    np.subtract(a, b, out=d)
    d *= d
    return float(np.sqrt(np.mean(d)))


def _grid_array(a, shape: tuple[int, int]) -> np.ndarray:
    """``a``, a grid array or a field, as an array; rejects any other shape."""
    a = np.asarray(a)
    if a.shape != shape:
        raise ValueError(f"an array of shape {a.shape} and a grid of shape {shape} are different grids")
    return a


def _scratch(work, shape: tuple[int, int], count: int) -> list[np.ndarray]:
    """``count`` arrays of grid ``shape`` for a function's temporaries: the first
    of ``work.grids`` (``elliptic.Workspace``), or new ones without a workspace."""
    if work is None:
        return [np.empty(shape) for _ in range(count)]
    return list(work.grids[:count])


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two flat arrays in numpy's own single-threaded loop.

    BLAS stays off the solve path: a threaded BLAS dot splits the sum by its
    thread count, so its rounding would depend on the machine.
    """
    return float(np.einsum("i,i->", a, b))


def face_means(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arithmetic means on x-faces and y-faces between adjacent cells.

    Face arrays have shape (H, W-1) and (H-1, W).  The elliptic operator's
    coefficients are built from these, and the energy's gradient term is
    that operator's quadratic form.
    """
    fx = 0.5 * (values[:, 1:] + values[:, :-1])
    fy = 0.5 * (values[1:, :] + values[:-1, :])
    return fx, fy
