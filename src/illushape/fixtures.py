"""Synthetic inducer images for the classic illusory-figure experiments.

Coordinates are in domain-length units: x runs along columns, y along rows,
cell centers at ((j + 0.5) h, (i + 0.5) h).  All generators keep the inducers
away from the image border so the configurations are valid inputs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .canyon import ConfigurationMask
from .grid import GridGeometry
from .shape import ShapeMask

__all__ = [
    "kanizsa_triangle",
    "kanizsa_vertices",
    "ideal_triangle_shape",
    "ellipse_triangle",
    "illusory_disk",
    "mask_to_pixels",
]


# Largest grid a generator builds (2048 x 2048); enforced before any array exists.
MAX_FIXTURE_CELLS = 2048 * 2048

# Kanizsa: pac-man centers on a circle of this radius about the domain center,
# and the pac-man radius, in domain-length units.
CIRCUMRADIUS = 0.28
PAC_RADIUS = 0.12

# Illusory disk: this many spokes of this length and width, starting this far
# from the domain center.
N_SPOKES = 12
DISK_RADIUS = 0.24
SPOKE_LENGTH = 0.16
SPOKE_WIDTH = 0.022


def _cell_centers(geom: GridGeometry) -> tuple[np.ndarray, np.ndarray]:
    if geom.cells > MAX_FIXTURE_CELLS:
        raise ValueError(
            f"{geom.width}x{geom.height} grid has {geom.cells} cells, "
            f"above the fixture ceiling of {MAX_FIXTURE_CELLS}"
        )
    h = geom.h
    x = (np.arange(geom.width) + 0.5) * h
    y = (np.arange(geom.height) + 0.5) * h
    return np.meshgrid(x, y)


def _disk(X, Y, cx, cy, r) -> np.ndarray:
    return (X - cx) ** 2 + (Y - cy) ** 2 <= r * r


def _triangle(X, Y, v0, v1, v2) -> np.ndarray:
    def half_plane(a, b):
        return (b[0] - a[0]) * (Y - a[1]) - (b[1] - a[1]) * (X - a[0])

    s0 = half_plane(v0, v1)
    s1 = half_plane(v1, v2)
    s2 = half_plane(v2, v0)
    pos = (s0 >= 0) & (s1 >= 0) & (s2 >= 0)
    neg = (s0 <= 0) & (s1 <= 0) & (s2 <= 0)
    return pos | neg


def _finish(geom: GridGeometry, inside: np.ndarray) -> ConfigurationMask:
    mask = ConfigurationMask(geom, inside)
    if mask.touches_boundary():
        raise ValueError("fixture parameters push inducers onto the border")
    if not mask.inside.any():
        raise ValueError("fixture parameters produce an empty configuration")
    return mask


def kanizsa_vertices(geom: GridGeometry) -> tuple[tuple[float, float], ...]:
    """Pac-man centers: vertices of an upright triangle around the domain center."""
    cx = 0.5 * geom.width * geom.h
    cy = 0.5 * geom.height * geom.h
    angles = (-np.pi / 2, np.pi / 6, 5 * np.pi / 6)
    return tuple(
        (cx + CIRCUMRADIUS * np.cos(a), cy + CIRCUMRADIUS * np.sin(a)) for a in angles
    )


def kanizsa_triangle(width: int = 128, height: int = 128) -> ConfigurationMask:
    """Three pac-man disks whose mouths carve out an upright triangle."""
    geom = GridGeometry(width, height)
    X, Y = _cell_centers(geom)
    v = kanizsa_vertices(geom)
    disks = _disk(X, Y, *v[0], PAC_RADIUS)
    for vx, vy in v[1:]:
        disks |= _disk(X, Y, vx, vy, PAC_RADIUS)
    inside = disks & ~_triangle(X, Y, *v)
    return _finish(geom, inside)


def ideal_triangle_shape(width: int = 128, height: int = 128) -> ShapeMask:
    """Filled triangle on the pac-man centers; reference region for overlap scores."""
    geom = GridGeometry(width, height)
    X, Y = _cell_centers(geom)
    v = kanizsa_vertices(geom)
    return ShapeMask(geom, _triangle(X, Y, *v))


def ellipse_triangle(width: int = 192, height: int = 128) -> ConfigurationMask:
    """Two separated inducer groups: one rings an ellipse, one carves a triangle.

    A converged run splits into two disjoint shapes, one per group.  Feature
    sizes keep the inducers around 15 grid cells wide; much below that the
    canyon is too narrow to pin the shrinking front and a group dies out.
    """
    geom = GridGeometry(width, height)
    X, Y = _cell_centers(geom)
    span_y = height * geom.h

    ecx, ecy = 0.25, 0.5 * span_y
    ea, eb = 0.14, 0.10
    ellipse = ((X - ecx) / ea) ** 2 + ((Y - ecy) / eb) ** 2 <= 1.0
    ring_disks = np.zeros(geom.shape, dtype=bool)
    for t in np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False):
        ring_disks |= _disk(X, Y, ecx + ea * np.cos(t), ecy + eb * np.sin(t), 0.062)
    group_a = ring_disks & ~ellipse

    tcx, tcy = 0.725, 0.5 * span_y + 0.01
    tr = 0.175
    angles = (-np.pi / 2, np.pi / 6, 5 * np.pi / 6)
    tv = tuple((tcx + tr * np.cos(a), tcy + tr * np.sin(a)) for a in angles)
    tri_disks = np.zeros(geom.shape, dtype=bool)
    for vx, vy in tv:
        tri_disks |= _disk(X, Y, vx, vy, 0.08)
    group_b = tri_disks & ~_triangle(X, Y, *tv)

    return _finish(geom, group_a | group_b)


def illusory_disk(width: int = 128, height: int = 128) -> ConfigurationMask:
    """Radial spokes stopping short of the center, inducing a disk."""
    geom = GridGeometry(width, height)
    X, Y = _cell_centers(geom)
    cx = 0.5 * geom.width * geom.h
    cy = 0.5 * geom.height * geom.h
    dx = X - cx
    dy = Y - cy
    r = np.hypot(dx, dy)
    inside = np.zeros(geom.shape, dtype=bool)
    for t in np.linspace(0.0, 2.0 * np.pi, N_SPOKES, endpoint=False):
        along = dx * np.cos(t) + dy * np.sin(t)
        across = -dx * np.sin(t) + dy * np.cos(t)
        inside |= (
            (along >= DISK_RADIUS)
            & (along <= DISK_RADIUS + SPOKE_LENGTH)
            & (np.abs(across) <= 0.5 * SPOKE_WIDTH)
        )
    inside &= r <= DISK_RADIUS + SPOKE_LENGTH
    return _finish(geom, inside)


def mask_to_pixels(mask: ConfigurationMask) -> np.ndarray:
    """Dark inducers on a white background, as 8-bit pixels."""
    return np.where(mask.inside, 0, 255).astype(np.uint8)


_GENERATORS = {
    "kanizsa": kanizsa_triangle,
    "ellipse-triangle": ellipse_triangle,
    "disk": illusory_disk,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="illushape.fixtures", description="Write a synthetic inducer image."
    )
    parser.add_argument("kind", choices=sorted(_GENERATORS))
    parser.add_argument("output", help="destination PGM path")
    parser.add_argument("--width", type=int, default=None)
    parser.add_argument("--height", type=int, default=None)
    args = parser.parse_args(argv)

    from .cli import write_pgm

    kwargs = {}
    if args.width is not None:
        kwargs["width"] = args.width
    if args.height is not None:
        kwargs["height"] = args.height
    try:
        mask = _GENERATORS[args.kind](**kwargs)
        write_pgm(args.output, mask_to_pixels(mask))
    except (OSError, ValueError) as exc:
        print(f"illushape.fixtures: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.output} ({mask.geometry.width}x{mask.geometry.height}, "
          f"{mask.count()} inducer pixels)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
