"""Machine-speed reference for the end-to-end timings.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes.  On a 2-vCPU VM with Python 3.11 and numpy 2.4, one
``sphere`` suite took between 21 and 34 ms within 45 s.  The kernels below
do fixed work of the kinds a verify does, without pcretract:

- ``array_kernel``: numpy arithmetic on 2000 x 3 arrays and creation of
  small frozen dataclasses, like the norm, sampler and rule calls of the
  radial and operator checks;
- ``object_kernel``: building a few hundred small frozen intervals and
  testing a few hundred points against them one at a time, like the
  ``FiniteUnion`` witness pieces of the diagonal maps.

The drift does not move every kind of work alike.  Over 3 minutes on the VM
above, cases timed in the slowest third of the time (by ``array_kernel``)
took, relative to ``array_kernel``, 12 % longer for a ``fractional`` suite
and 5 % longer for an ``open-ball`` suite than in the fastest third.
Relative to ``array_kernel`` plus ``object_kernel`` the two figures were
+4 % and -2 %.  So each workload names its reference (``KERNELS``): the
diagonal workload uses both kernels, the others ``array_kernel``.

``run.py`` samples the reference between cases, at most every
``INTERVAL_S``, and once more after the last case.  It scales each case's
time by ``REFERENCE_S`` of the reference over the mean of the two samples
that bracket the case: the last one before it and the first one after it.
The timings then read as seconds on a machine where the reference takes
``REFERENCE_S``.  The reference is this local because the speed changes
within a run too: ``array_kernel`` jumps between about 2.0 and 3.2 ms and
stays for seconds at a time.  On five ``operator-cli`` runs, bracketing
instead of the median of the last five samples cut the spread (interquartile
range over median, across seeds) of ``verify_s.p50`` from 4.8 to 2.5 % and
of ``verify_s.p90`` from 8.4 to 5.5 %.

Set-up is mostly interpreter start and imports, which follow the drift less
than computation does, so ``setup_s`` has a reference of its own: a fresh
interpreter that only imports numpy, started right before each set-up
measurement.  Each set-up time is scaled by ``SETUP_REFERENCE_S`` over the
time of its reference process.  The raw timings and all reference samples go
to the run's record.
"""

from __future__ import annotations

import bisect
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.1
SETUP_REFERENCE_S = 0.15

_POINTS = np.random.default_rng(0).normal(size=(2000, 3))
_LINE = np.random.default_rng(1).uniform(0.0, 300.0, size=400)


@dataclass(frozen=True)
class _Box:
    lo: float
    hi: float


@dataclass(frozen=True)
class _Interval:
    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))


def array_kernel() -> None:
    for i in range(12):
        r = np.sqrt((_POINTS * _POINTS).sum(axis=1))
        inside = (r > 0.5) & (r < 1.5 + 0.01 * i)
        float(np.abs(_POINTS[inside] / r[inside, None]).max())
        sum(b.hi - b.lo for b in [_Box(float(j), j + 0.5) for j in range(100)])


def object_kernel() -> None:
    for _ in range(2):
        members = tuple(_Interval(j, j + 0.5) for j in range(300))
        found = np.zeros(len(_LINE), dtype=bool)
        for m in members:
            rest = ~found
            if not rest.any():
                break
            sub = _LINE[rest]
            found[rest] = (sub >= m.lo - 1e-9) & (sub <= m.hi + 1e-9)


# Reference name -> (kernels run one after another, REFERENCE_S).
KERNELS = {
    "array": ((array_kernel,), 3e-3),
    "array+objects": ((array_kernel, object_kernel), 9e-3),
}


def interpreter_seconds() -> float:
    """Time from starting a fresh interpreter until it has imported numpy,
    timed like a set-up: up to a ``time.monotonic()`` reading it prints."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", "import time, numpy; print(time.monotonic())"],
                         check=True, capture_output=True, text=True, stdin=subprocess.DEVNULL, timeout=120)
    return float(out.stdout) - t0


class Calibration:
    """Samples of one reference (a key of ``KERNELS``) as (time at the end
    of the sample, seconds the reference took)."""

    def __init__(self, reference: str):
        self.kernels, self.reference_s = KERNELS[reference]
        self.samples = []

    def sample(self, force=False) -> None:
        if force or not self.samples or time.perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            t0 = time.perf_counter()
            for kernel in self.kernels:
                kernel()
            t1 = time.perf_counter()
            self.samples.append((t1, t1 - t0))

    def scale(self, start: float) -> float:
        """Factor that turns the duration of a case that started at ``start``
        (a ``time.perf_counter`` reading) into reference seconds.  Cases and
        samples alternate, so the first sample that ends after ``start`` was
        taken after the case."""
        i = bisect.bisect_right([t for t, _ in self.samples], start)
        around = self.samples[max(0, i - 1):i + 1]
        return self.reference_s / (sum(s for _, s in around) / len(around))
