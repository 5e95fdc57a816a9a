"""How fast this host runs right now, from a fixed probe sampled all through a run.

On a shared virtual machine the same work can take twice as long from one
minute to the next, for reasons outside the process (CPU time follows wall
time, so it is not waiting), which swamps any change to nullplane.  The probe is fixed numpy work that belongs to the
benchmark, so no change to nullplane moves it; its cost next to a job says
how slow the host was while the job ran.  A job's time divided by that
slowdown is its time at the reference speed: the speed at which the probe
takes REF_PROBE_MS.

The probe copies the shape of nullplane's hot kernel (gather two
coefficient arrays by index tables, multiply, contract with a table by
einsum) at two sizes: twenty small calls, where Python call overhead
dominates as on cli_scan, and two calls over 1000 points, where array work
dominates as on walker_bulk.  Of the probes tried (numpy sin over 1 MB, a
pure-Python loop, each size alone, both sizes), the two sizes together
followed the host best on both kinds of job.  It is not exact: when the host
is much slower than usual the probe slows more than a walker_bulk job does,
so that job then reads a little fast (README.md has the figures).

While a Sampler is active, a SIGALRM timer runs the probe every interval_s
seconds, also in the middle of a long job (the handler runs between Python
bytecodes, so at the latest when the running numpy call returns).  The
probes' own time is subtracted from the job that contains them.  The probe
allocates nothing and warms its own data before it is timed, so the heap and
cache state that nullplane leaves behind do not change what it costs.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

REF_PROBE_MS = 8.0
INTERVAL_S = 0.25
WINDOW_S = 1.0  # a job's slowdown also uses the probes this close to it


def _operands(rng, lead: tuple, n_in: int, n_terms: int, n_out: int, points: int) -> tuple:
    a = rng.random(lead + (n_in, points))
    i, j = rng.integers(0, n_in, n_terms), rng.integers(0, n_in, n_terms)
    table = rng.random((n_out, n_terms))
    ga, gb = np.empty(lead + (n_terms, points)), np.empty(lead + (n_terms, points))
    return a, i, j, table, ga, gb, np.empty(lead + (n_out, points))


_rng = np.random.default_rng(0)
_SMALL = _operands(_rng, (4,), 35, 120, 35, 20)
_LARGE = _operands(_rng, (), 35, 200, 35, 1000)


def _kernel(a, i, j, table, ga, gb, out) -> None:
    np.take(a, i, axis=-2, out=ga, mode="clip")
    np.take(a, j, axis=-2, out=gb, mode="clip")
    np.multiply(ga, gb, out=ga)
    np.einsum("kt,...tp->...kp", table, ga, out=out)


def probe() -> float:
    """Seconds that the fixed probe work takes now."""
    # an untimed pass first brings the probe's data back into the caches, so
    # that how much of them the program's last call used does not count
    _kernel(*_SMALL)
    _kernel(*_LARGE)
    t0 = perf_counter()
    for _ in range(20):
        _kernel(*_SMALL)
    for _ in range(2):
        _kernel(*_LARGE)
    return perf_counter() - t0


class Sampler:
    """Probe costs stamped with the time they were taken."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.stamps: list = []
        self.costs: list = []
        self._previous = None

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t = perf_counter()
            self.costs.append(probe())
            self.stamps.append(t)

    def _tick(self, signum, frame) -> None:
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _span(self, t0: float, t1: float) -> tuple:
        return bisect.bisect_left(self.stamps, t0), bisect.bisect_right(self.stamps, t1)

    def probe_seconds(self, t0: float, t1: float) -> float:
        """Time the probes started within [t0, t1] took."""
        lo, hi = self._span(t0, t1)
        return sum(self.costs[lo:hi])

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean probe cost near [t0, t1] over its cost at the reference speed."""
        lo, hi = self._span(t0 - WINDOW_S, t1 + WINDOW_S)
        if hi == lo:
            raise RuntimeError("no speed probe near the job")
        return statistics.fmean(self.costs[lo:hi]) / (REF_PROBE_MS / 1e3)
