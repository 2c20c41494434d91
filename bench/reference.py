"""A fixed reference computation, timed beside every op and every set-up
sample, so that timings can be given at one host speed.

On a shared host the CPU speed a process gets changes by 1.5x or more, over
seconds and over minutes, and wall time and CPU time move together. An op's
time divided by the time of this kernel, measured right before and right
after it, moves much less when the host speeds up or slows down, and moves
as much when the program does. The kernel calls nothing from cxrdet. It
runs the kinds of work the program does: scalar overlaps through small
functions and properties of frozen dataclasses, a keyed ``min`` that pops
the best entry of a list, numpy slices of a feature map and a whole-image
numpy pass. Its arrays are kept small, so it adds about 11 MB to a run's
peak resident set.

``REFERENCE_S`` turns the ratio back into seconds: a timing "at reference
speed" is what the op would take on a host that runs the kernel in
``REFERENCE_S``.
"""

import random
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 0.020  # the kernel's time beside an op, in the faster spells of the machine in bench/README.md


@dataclass(frozen=True)
class _Box:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    @property
    def area(self):
        return max(0.0, self.x_max - self.x_min) * max(0.0, self.y_max - self.y_min)


def _overlap(a, b):
    w = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    h = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if w <= 0 or h <= 0:
        return 0.0
    inter = w * h
    return inter / (a.area + b.area - inter)


_rng = random.Random(5)
_BOXES = []
for _ in range(400):
    _x, _y = _rng.uniform(0, 700), _rng.uniform(0, 700)
    _BOXES.append(_Box(_x, _y, _x + _rng.uniform(20, 300), _y + _rng.uniform(20, 300)))
_PENDING = [[k, box, _rng.random()] for k, box in enumerate(_BOXES)]
_STACK = np.random.default_rng(0).standard_normal((64, 128, 128), dtype=np.float32)
_FILM = np.random.default_rng(1).integers(0, 256, (1024, 1024), dtype=np.uint8)


def _scalar_overlaps():
    return sum(_overlap(a, b) for a in _BOXES[:20] for b in _BOXES)


def _keyed_pops():
    pending = list(_PENDING)
    while len(pending) > 340:
        pending.pop(min(range(len(pending)), key=lambda j: (-pending[j][2], pending[j][0])))
    return len(pending)


def _map_slices():
    return sum(float(_STACK[:, r : r + 8, r // 2 : r // 2 + 9].max()) for r in range(120))


def _image_pass():
    scaled = _FILM.astype(np.float32)
    scaled *= 0.5
    scaled += 3.0
    np.maximum.accumulate(scaled, axis=1, out=scaled)
    return float(scaled[::2, ::2].sum())


def measure():
    """Run the kernel once and return its (wall, cpu) time in seconds."""
    c0, t0 = time.process_time(), time.perf_counter()
    _scalar_overlaps()
    _keyed_pops()
    _map_slices()
    _image_pass()
    t1, c1 = time.perf_counter(), time.process_time()
    return t1 - t0, c1 - c0
