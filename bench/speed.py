"""Machine-speed sampling, so that runs on a shared host stay comparable.

On a host shared with other tenants the speed of one core drifts by tens of
percent within seconds to minutes, and every op slows with it.  ``kernel``
times a fixed piece of work made of the same small-array numpy calls the
library's hot paths make (stack, matmul, solve, reductions on 3-vectors),
independent of btzgeo.  ``SpeedProbe`` runs a short slice of it from a timer
signal every 50 ms, during ops and between them, so even a 5 s op is
sampled throughout.  An op's wall time, minus the probe's own time inside
it, is scaled by ``REFERENCE_S / mean kernel time during the op``: the
result is the op time on a machine where the kernel takes ``REFERENCE_S``.
A change to btzgeo cannot change the kernel, so it moves the scaled times
as it moves the raw ones; raw wall times are reported next to them.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.010  # about the kernel time on a quiet 2-core Xeon VM
FULL_REPS = 300
_U = np.array([[1.0, 0.6, 0.8], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0]])
_STEP = np.array([1.0, 0.01, -0.02])
_BASE = np.array([0.2, 0.3, 0.5])
_SHIFT = 3.0 * np.eye(3)


def kernel(reps: int = FULL_REPS) -> float:
    """Seconds that ``reps`` repetitions of the fixed kernel take now."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(reps):
        s = np.linspace(0.0, 1.0, 3)
        a = _BASE + s[:, None] * 0.01
        jac = np.stack([a @ _U, (a * 2.0) @ _U, (a - 0.1) @ _U], axis=-1)
        v = jac @ _STEP
        q = -v[:, 0] ** 2 + v[:, 1] ** 2 + v[:, 2] ** 2
        acc += float(np.linalg.solve(jac[0] + _SHIFT, v[0])[0]) + bool(np.all(q < 0))
    if not np.isfinite(acc):
        raise ArithmeticError("speed kernel produced a non-finite value")
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager that samples ``kernel`` from a SIGALRM timer.

    Each sample is (start, end, kernel seconds scaled to FULL_REPS).  The
    handler runs between Python bytecodes of whatever is executing.
    """

    reference_s = REFERENCE_S

    def __init__(self, interval: float = 0.05, reps: int = 20):
        self.interval = interval
        self.reps = reps
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            k = kernel(self.reps)
            self.starts.append(t0)
            self.ends.append(t0 + k)
            self.kernel_s.append(k * FULL_REPS / self.reps)
        finally:
            self._busy = False

    def __enter__(self):
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float, min_samples: int = 5) -> tuple[float, float]:
        """(scaled seconds, mean kernel seconds) for the interval [t0, t1].

        The probe's own time inside the interval is removed first.  The
        kernel time is the mean over the samples taken in the interval,
        widened on both sides until there are ``min_samples`` of them.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = sum(min(e, t1) - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        while hi - lo < min_samples and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        k = statistics.fmean(self.kernel_s[lo:hi])
        return (t1 - t0 - inside) * self.reference_s / k, k
