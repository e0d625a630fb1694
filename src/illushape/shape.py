"""From converged phase fields to shapes: thresholding, labeling, comparison."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridField, GridMask, require_same_geometry

__all__ = [
    "ShapeMask",
    "ComponentSet",
    "extract_shape",
    "connected_components",
    "iou",
]


@dataclass(frozen=True, eq=False)
class ShapeMask(GridMask):
    """Cells whose phase value strictly exceeds the threshold."""

    threshold: float


@dataclass(frozen=True, eq=False)
class ComponentSet:
    """4-connected components labeled 1..count in raster first-encounter order."""

    count: int
    labels: np.ndarray
    areas: tuple[int, ...]
    centroids: tuple[tuple[float, float], ...]


def extract_shape(z: GridField, threshold: float = 0.5) -> ShapeMask:
    """Strict-inequality thresholding; cells exactly at the threshold stay out."""
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie strictly between 0 and 1")
    return ShapeMask(z.geometry, z.values > threshold, threshold)


def connected_components(mask: ShapeMask) -> ComponentSet:
    """Label 4-connected components by joining the row runs of the mask.

    Each row's runs of shape cells are joined, in a union-find over runs,
    to the runs of the row above that they overlap.  Every component's root
    is its first run in raster order, so labels are assigned in the raster
    order of each component's first cell and the labeling is deterministic.
    Centroids are mean (row, col) cell indices.
    """
    rows, cols = mask.inside.shape
    stride = cols + 2
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
    # exact integer sums per component; float64 holds them exactly below 2^53
    length = ends - starts
    row = starts // stride
    first_col = starts % stride - 1
    areas = np.bincount(run_label, weights=length, minlength=count + 1)[1:]
    row_sums = np.bincount(run_label, weights=row * length, minlength=count + 1)[1:]
    col_sums = np.bincount(
        run_label, weights=(2 * first_col + length - 1) * length // 2, minlength=count + 1
    )[1:]
    marks = np.zeros(rows * stride, dtype=int)  # a run's fall lands at most on its row's pad
    marks[starts] = run_label
    marks[ends] -= run_label
    labels = np.cumsum(marks).reshape(rows, stride)[:, 1:-1]
    labels.setflags(write=False)
    return ComponentSet(
        count,
        labels,
        tuple(int(a) for a in areas),
        tuple(zip((row_sums / areas).tolist(), (col_sums / areas).tolist())),
    )


def iou(a: ShapeMask, b: ShapeMask) -> float:
    """Intersection over union; two empty masks count as identical."""
    require_same_geometry(a, b)
    union = int(np.logical_or(a.inside, b.inside).sum())
    if union == 0:
        return 1.0
    inter = int(np.logical_and(a.inside, b.inside).sum())
    return inter / union
