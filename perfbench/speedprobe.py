"""CPU-speed probe for benchmark children.

The host this benchmark was written on is a 2-vCPU VM whose vCPUs switch
between a fast and a slow state every few seconds, independently of each
other; one and the same operation took anywhere from 1x to 1.8x its fast
time.  So each child times a fixed Fraction loop from a SIGALRM handler
every 10 ms, on the vCPU it actually runs on, while it works.  The parent
rescales the child's wall time to the reference speed at which the loop
takes ``REFERENCE_S``: a time measured in slow periods and one measured in
fast periods then agree.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.01
# probe-loop time at the reference speed: about this host's fast state
REFERENCE_S = 1.2e-4


class SpeedProbe:
    """Times ``_loop`` every INTERVAL_S of wall time while started."""

    def __init__(self):
        self.samples: list[float] = []

    def start(self) -> None:
        _loop()  # the first call is slower than the loop's steady speed
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _probe(self, _signum, _frame) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not CPU speed
        start = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - start)
        if enabled:
            gc.enable()

    def summary(self, since: int = 0) -> dict:
        """Sample count, total probe time and mean speed relative to the
        reference (the mean of REFERENCE_S / sample, one per interval),
        over the samples from index ``since`` on."""
        window = self.samples[since:]
        n = len(window)
        speed = sum(REFERENCE_S / s for s in window) / n if n else 0.0
        return {"n": n, "probe_s": sum(window), "speed": speed}


def _loop() -> Fraction:
    x = Fraction(0)
    for i in range(1, 40):
        x += Fraction(1, i)
    return x


def reference_seconds(wall_s: float, summary: dict | None) -> float | None:
    """Wall time minus probe time, at the reference speed; None without samples."""
    if not summary or not summary["n"]:
        return None
    return (wall_s - summary["probe_s"]) * summary["speed"]
