"""Host-speed calibration: a fixed kernel timed next to every command.

On a shared host the CPU speed a process gets drifts by tens of percent
over minutes, with the load of other tenants, and that drift, not the
program, made most of the run-to-run spread of raw wall times. So the
benchmark times this kernel before and after every command it measures
and scales the command's times by ``REFERENCE_S / kernel_s``, where
``kernel_s`` is the mean of the two kernel times around it.

The kernel uses numpy, scipy's ``ndimage`` and the interpreter, the mix
emcurate's hot paths run on, but nothing of emcurate itself: a change to
the program moves the command's time and not the kernel's, while a slower
host moves both. ``REFERENCE_S`` is the kernel's median on the machine
the benchmark was defined on (a 2-vCPU Intel Xeon VM), so scaled times
read as seconds on that machine.
"""

from __future__ import annotations

import time
from typing import Callable, TypeVar

import numpy as np
from scipy import ndimage

REFERENCE_S = 0.30

T = TypeVar("T")


class Calibrator:
    """Times the kernel around each call; the kernel after one call is the
    kernel before the next."""

    def __init__(self):
        field = np.random.default_rng(0).random((64, 64, 64))
        self.mask = field > 0.7
        self.ids, _ = ndimage.label(ndimage.gaussian_filter(field, 2) > 0.53)
        self.kernel_s()   # warm-up: first-touch page faults, lazy imports
        self.last = self.kernel_s()

    def kernel_s(self) -> float:
        """Seconds the fixed kernel takes now: labelling, EDTs, scans, bytecode."""
        start = time.perf_counter()
        for _ in range(16):
            ndimage.label(self.mask)
        for _ in range(2):
            ndimage.distance_transform_edt(self.mask)
        for k in range(1, 400):
            int((self.ids == k).sum())
        counts: dict[int, int] = {}
        for i in range(700_000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        return time.perf_counter() - start

    def around(self, call: Callable[[], T]) -> tuple[T, float]:
        """Run ``call``; returns its result and the factor that scales its times."""
        before = self.last
        result = call()
        self.last = self.kernel_s()
        return result, REFERENCE_S / ((before + self.last) / 2)
