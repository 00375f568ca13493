"""Reference work that puts timings on a steady scale.

The machines this benchmark runs on are shared.  Measured over a
minute, a fixed Python loop ran at 0.6 to 0.9 of its best speed,
switching every few seconds and staying slow for 20 s and more; thread
CPU time moved with wall time and no time was stolen, so neither clock
nor picking the fastest stretch of a run removes it.  What does remove
it is timing a fixed piece of reference work next to every sample and
rescaling:

    reference seconds = wall seconds * nominal / reference work seconds

Two references, because the slowdown is not the same on every CPU and a
child process need not run where its parent does:

- ``IN_PROCESS`` times work written like ccplane's own code (frozen
  dataclasses, 3-tuples, Minkowski products, acosh), in the process
  that runs the ops, so it slows down the way the program does;
- ``for_processes`` times a bare ``python -c pass``, a process started
  the same way as the ones it scales.

Neither imports ccplane, so no change to the program moves them.  On a
machine where the reference takes its nominal time, reference seconds
are wall seconds.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable


@dataclass(frozen=True)
class _Point:
    v: tuple[float, float, float]

    def __post_init__(self) -> None:
        if not self.v[0] >= 1.0:
            raise ValueError(f"not on the upper sheet: {self.v}")


def _minner(x, y) -> float:
    return -x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _dist(p, q) -> float:
    return math.acosh(max(1.0, -_minner(p, q)))


def _mid(p, q):
    s = (p[0] + q[0], p[1] + q[1], p[2] + q[2])
    n = math.sqrt(-_minner(s, s))
    return (s[0] / n, s[1] / n, s[2] / n)


def _point(t: float, theta: float) -> _Point:
    return _Point((math.cosh(t), math.sinh(t) * math.cos(theta), math.sinh(t) * math.sin(theta)))


_POINTS = tuple(_point(0.1 + 0.05 * i, 0.7 * i) for i in range(40))


def _work() -> float:
    total = 0.0
    for _ in range(7):
        for a, b in zip(_POINTS, _POINTS[1:]):
            m = _Point(_mid(a.v, b.v))
            total += _dist(a.v, m.v) + _dist(m.v, b.v)
    return total


def _time_work() -> float:
    # Best of three back-to-back runs, so a cold cache or one interrupt
    # does not count.
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


def _time_bare_process(env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                   capture_output=True, timeout=120)
    return time.perf_counter() - start


@dataclass(frozen=True)
class Yardstick:
    measure: Callable[[], float]  # wall seconds of the reference work now
    nominal_s: float  # what it takes on a quiet machine

    def scale(self, seconds: float, before: float, after: float) -> float:
        """Wall ``seconds`` in reference seconds, given the reference
        times measured just before and just after them."""
        return seconds * self.nominal_s * 2.0 / (before + after)


IN_PROCESS = Yardstick(_time_work, 5e-4)


def for_processes(env: dict) -> Yardstick:
    return Yardstick(partial(_time_bare_process, env), 0.075)
