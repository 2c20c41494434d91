"""Deterministic building blocks of a two-stage lung-opacity detector:
box geometry, anchor machinery, RoI pooling, (soft-)NMS, grayscale
preprocessing, and the multi-threshold competition scoring metric.

A public name is declared once, in the ``__all__`` of the module that
defines it, and the package re-exports each of those lists. The one name a
module shares with the package is ``nms``: ``cxrdet.nms`` is the function,
and ``importlib.import_module("cxrdet.nms")`` is its module."""

from .anchors import *
from .formats import *
from .geometry import *
from .metrics import *
from .nms import *
from .preprocess import *
from .roipool import *

__version__ = "0.1.0"
