"""Axis-aligned box geometry: areas, overlaps, intersection over union.

Boxes are stored corner-form (x_min, y_min, x_max, y_max) in continuous
pixel coordinates, with no pixel-inclusive "+1" convention. All arithmetic
is double precision.
"""

import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np

__all__ = ["Box", "area", "intersection_area", "iou", "corners", "detection_rows", "clip_corners", "box_columns",
           "iou_columns", "iou_matrix"]


@dataclass(frozen=True, init=False)
class Box:
    """Axis-aligned rectangle. Zero-area boxes are allowed; negative
    extents and non-finite coordinates are rejected."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    # written out rather than generated, so a box is built in one call frame
    def __init__(self, x_min: float, y_min: float, x_max: float, y_max: float):
        setattr_ = object.__setattr__
        setattr_(self, "x_min", x_min)
        setattr_(self, "y_min", y_min)
        setattr_(self, "x_max", x_max)
        setattr_(self, "y_max", y_max)
        if -math.inf < x_min <= x_max < math.inf and -math.inf < y_min <= y_max < math.inf:
            return  # the common case in one pass; else a value is not finite or an extent is negative
        for v in (x_min, y_min, x_max, y_max):
            if not math.isfinite(v):
                raise ValueError(f"box coordinates must be finite: {self!r}")
        raise ValueError(f"box extents must be non-negative: {self!r}")

    @classmethod
    def from_xywh(cls, x, y, w, h) -> "Box":
        """Build from the annotation-file (x, y, width, height) convention; a
        negative width or height is refused before it is added."""
        if w < 0 or h < 0:
            raise ValueError(f"negative box extent {w if w < 0 else h}")
        return cls(x, y, x + w, y + h)

    def to_xywh(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.width, self.height)

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))


def area(box: Box) -> float:
    """Area in square pixels; zero for degenerate boxes."""
    return box.width * box.height


def intersection_area(a: Box, b: Box) -> float:
    """Overlap area; zero when disjoint or touching only along an edge."""
    w = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    h = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    return w * h


def iou(a: Box, b: Box) -> float:
    """Intersection over union, in [0, 1].

    Union is computed as area(a) + area(b) - intersection. When both boxes
    have zero area the result is defined as 0 so scoring stays total over
    degenerate annotations.
    """
    inter = intersection_area(a, b)
    union = area(a) + area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


_CORNERS = attrgetter("x_min", "y_min", "x_max", "y_max")


def corners(boxes) -> np.ndarray:
    """Boxes (any iterable) as an (N, 4) float64 array of (x_min, y_min,
    x_max, y_max) rows, read in one pass; a coordinate too large for a float
    raises OverflowError."""
    return np.fromiter(chain.from_iterable(map(_CORNERS, boxes)), float).reshape(-1, 4)


def detection_rows(detections) -> np.ndarray:
    """Detections (any iterable) as an (N, 5) float64 array of score, x_min,
    y_min, x_max, y_max rows, read in one pass; a value too large for a float
    raises OverflowError."""
    values = chain.from_iterable((d.score, d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max) for d in detections)
    return np.fromiter(values, float).reshape(-1, 5)


def clip_corners(rows: np.ndarray, w: float, h: float) -> np.ndarray:
    """Clip a :func:`corners` array to [0, w] x [0, h] in place and return it.

    One clip per axis: the bounds are scalars, so a -0.0 corner keeps its
    sign, as ``max(-0.0, 0.0)`` does.
    """
    np.clip(rows[:, 0::2], 0.0, w, out=rows[:, 0::2])
    np.clip(rows[:, 1::2], 0.0, h, out=rows[:, 1::2])
    return rows


def box_columns(boxes: np.ndarray) -> np.ndarray:
    """A :func:`corners` array as a (5, N) array of rows x_min, y_min, x_max,
    y_max and area, each area taken as :func:`area` takes it."""
    cols = np.empty((5, len(boxes)))
    cols[:4] = boxes.T
    with np.errstate(all="ignore"):  # huge boxes have infinite (or nan) area, as in area
        np.multiply(cols[2] - cols[0], cols[3] - cols[1], out=cols[4])
    return cols


def iou_columns(a, b) -> np.ndarray:
    """IoU between two broadcastable :func:`box_columns` forms (any sequences of
    five columns or scalars), in :func:`iou`'s operation order, so it equals
    ``iou`` bit for bit.

    Huge boxes overflow to inf and nan exactly as in ``iou``; silencing numpy's
    warnings about it is left to the caller, which may wrap many calls at once.
    """
    ax0, ay0, ax1, ay1, a_area = a
    bx0, by0, bx1, by1, b_area = b
    w = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    h = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    inter = np.where(np.minimum(w, h) > 0.0, w * h, 0.0)  # w > 0 and h > 0; a nan fails both
    union = a_area + b_area - inter
    return np.where(union <= 0.0, 0.0, inter / union)  # x/0 is discarded


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, M) IoU between the rows of two :func:`corners` arrays; equals ``iou`` bit for bit."""
    with np.errstate(all="ignore"):
        return iou_columns(box_columns(a)[:, :, None], box_columns(b)[:, None, :])
