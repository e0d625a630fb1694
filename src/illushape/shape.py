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
    """Label 4-connected components by breadth-first flood fill.

    Labels are assigned in the raster order of each component's first cell,
    so the labeling is deterministic.  Centroids are mean (row, col) cell
    indices.
    """
    rows, cols = mask.inside.shape
    stride = cols + 2
    # Flat list over the mask padded by one empty cell: neighbours of k are
    # k +- 1 and k +- stride with no bounds checks.  Cells are cleared as
    # they are queued, so ``todo`` also marks what is still unlabeled.
    todo = np.pad(mask.inside, 1).ravel().tolist()
    labels = np.zeros((rows + 2) * stride, dtype=int)
    areas: list[int] = []
    centroids: list[tuple[float, float]] = []
    for k0, unlabeled in enumerate(todo):
        if not unlabeled:
            continue
        todo[k0] = False
        queue = [k0]
        for k in queue:
            for n in (k - stride, k + stride, k - 1, k + 1):
                if todo[n]:
                    todo[n] = False
                    queue.append(n)
        area = len(queue)
        labels[queue] = len(areas) + 1
        row_sum = sum(k // stride for k in queue) - area
        col_sum = sum(k % stride for k in queue) - area
        areas.append(area)
        centroids.append((row_sum / area, col_sum / area))
    labels = labels.reshape(rows + 2, stride)[1:-1, 1:-1]
    labels.setflags(write=False)
    return ComponentSet(len(areas), labels, tuple(areas), tuple(centroids))


def iou(a: ShapeMask, b: ShapeMask) -> float:
    """Intersection over union; two empty masks count as identical."""
    require_same_geometry(a, b)
    union = int(np.logical_or(a.inside, b.inside).sum())
    if union == 0:
        return 1.0
    inter = int(np.logical_and(a.inside, b.inside).sum())
    return inter / union
