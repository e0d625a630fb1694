"""From converged phase fields to shapes: thresholding and component counting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridField, GridMask

__all__ = [
    "ShapeMask",
    "ComponentSet",
    "extract_shape",
    "connected_components",
]


class ShapeMask(GridMask):
    """Cells whose phase value strictly exceeds the threshold."""


@dataclass(frozen=True, eq=False)
class ComponentSet:
    """The number of 4-connected components and their areas, in the raster
    order of each component's first cell."""

    count: int
    areas: tuple[int, ...]


def extract_shape(z: GridField, threshold: float = 0.5) -> ShapeMask:
    """Strict-inequality thresholding; cells exactly at the threshold stay out."""
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie strictly between 0 and 1")
    return ShapeMask(z.geometry, z.values > threshold)


def connected_components(mask: ShapeMask) -> ComponentSet:
    """Count 4-connected components by joining the row runs of the mask.

    Each row's runs of shape cells are joined, in a union-find over runs,
    to the runs of the row above that they overlap.  Every component's root
    is its first run in raster order, so the components are numbered in the
    raster order of their first cells and the result is deterministic.
    """
    stride = mask.inside.shape[1] + 2
    # Flat positions in the mask padded by an empty column on each side, so
    # no run crosses a row: a run is [start, end) with a rise at start and a
    # fall at end.
    flat = np.pad(mask.inside, ((0, 0), (1, 1))).ravel()
    edges = np.flatnonzero(np.diff(flat)) + 1
    starts, ends = edges[0::2], edges[1::2]
    # the runs of the row above that overlap run k are runs above_lo[k] up to
    # above_hi[k] (exclusive)
    above_lo = np.searchsorted(ends, starts - stride, side="right")
    above_hi = np.searchsorted(starts, ends - stride, side="left")
    overlaps = above_hi - above_lo
    below = np.repeat(np.arange(len(starts)), overlaps)
    above = np.repeat(above_lo - np.cumsum(overlaps) + overlaps, overlaps) + np.arange(len(below))
    # union-find over runs: hook every root onto the smallest root it touches,
    # then compress the paths, until every join lies inside one tree
    parent = np.arange(len(starts))
    while True:
        a, b = parent[above], parent[below]
        joins = a != b
        if not joins.any():
            break
        np.minimum.at(parent, np.maximum(a, b)[joins], np.minimum(a, b)[joins])
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand
    root = parent == np.arange(len(starts))
    run_label = np.cumsum(root)[parent]
    count = int(root.sum())
    areas = np.bincount(run_label, weights=ends - starts, minlength=count + 1)[1:]
    return ComponentSet(count, tuple(int(a) for a in areas))
