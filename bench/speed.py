"""How fast the machine runs right now, measured with a fixed loop.

The benchmark was written on a shared machine whose speed changes by up
to 1.75x, in stretches from about a second to over a minute, with
co-tenants' load.  run.py therefore scales every timing to a reference
speed.  The speed is sampled by timing a short subtraction-game DP that
is written out here, so no change to cumsub can move it:

* ``calibrate()`` times the loop a few dozen times in a row (around the
  set-up, which is too short to sample while it runs);
* ``SpeedProbe`` times it once per 50 ms of wall time while a pass runs,
  from a SIGALRM handler, so that the samples cover the pass evenly.
"""

from __future__ import annotations

import signal
import time

PROBE_HEAPS = 500
PROBE_INTERVAL_S = 0.05
CALIBRATION_REPEATS = 25


def _loop() -> int:
    actions = (3, 7, 11, 16, 20)
    o = [0] * (PROBE_HEAPS + 1)
    for x in range(actions[0], PROBE_HEAPS + 1):
        best = None
        for s in actions:
            if s > x:
                break
            v = s - o[x - s]
            if best is None or v >= best:
                best = v
        o[x] = best
    return o[-1]


def probe() -> float:
    """Seconds one run of the fixed loop takes."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median of CALIBRATION_REPEATS back-to-back probes, in seconds."""
    times = sorted(probe() for _ in range(CALIBRATION_REPEATS))
    return times[len(times) // 2]


class SpeedProbe:
    """Probe samples taken every PROBE_INTERVAL_S while the block runs.

    The handler runs between bytecodes of the timed work, so each sample
    adds its own duration to the work's wall time; run.py subtracts it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe())
