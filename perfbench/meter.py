"""Serving clock, reference-speed normalisation and latency samples.

A :class:`Meter` owns one measured window.  Its clock is wall time
minus the time spent calibrating, so a calibration pause taken between
two pumps never shows up in a query's latency.  The window is cut into
short slices; at each cut the stdlib reference loop runs, and every
slice's wall time is rescaled by the machine speed read at its two
ends (see :mod:`calib`).  Timestamps are recorded raw and mapped to
reference-speed time only when the window closes.
"""

from __future__ import annotations

import bisect
import time

from calib import NOMINAL_MS, reference_ms

#: serving time between two calibration points, in raw seconds
SLICE_S = 0.25


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (the definition the service uses)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def timed_setup(build, ref=None):
    """Run ``build()`` between two reference readings (taken by
    ``ref``, default :func:`calib.reference_ms`).

    Returns ``(result, raw_seconds, reference_seconds, refs_ms)``.
    """
    ref = ref or reference_ms
    before = ref()
    t0 = time.perf_counter()
    result = build()
    raw = time.perf_counter() - t0
    after = ref()
    return result, raw, raw * NOMINAL_MS / ((before + after) / 2), [
        before, after,
    ]


class Meter:
    """One measured serving window with sliced calibration."""

    def __init__(self, slice_s: float = SLICE_S, ref=None) -> None:
        self.slice_s = slice_s
        #: the reference reading (default :func:`calib.reference_ms`)
        self._ref = ref
        self._paused = 0.0
        #: serving-clock times of the calibration cuts
        self.cuts: list = []
        #: reference reading (ms) at each cut
        self.refs: list = []
        self._norm_at_cut: list = []

    def now(self) -> float:
        """Serving clock: wall seconds minus calibration pauses."""
        return time.perf_counter() - self._paused

    def _calibrate(self, at: float) -> None:
        t0 = time.perf_counter()
        self.refs.append((self._ref or reference_ms)())
        self._paused += time.perf_counter() - t0
        self.cuts.append(at)

    def begin(self) -> None:
        self._calibrate(self.now())

    def maybe_calibrate(self) -> None:
        """Cut a slice if the current one is long enough.  Call only
        between pumps, while no program code runs."""
        now = self.now()
        if now - self.cuts[-1] >= self.slice_s:
            self._calibrate(now)

    def close(self, end: float) -> None:
        """Close the window at serving-clock time ``end``."""
        self._calibrate(max(end, self.cuts[-1]))
        norm = [0.0]
        for i in range(len(self.cuts) - 1):
            norm.append(
                norm[-1] + (self.cuts[i + 1] - self.cuts[i])
                * self._factor(i)
            )
        self._norm_at_cut = norm

    def _factor(self, i: int) -> float:
        return NOMINAL_MS / ((self.refs[i] + self.refs[i + 1]) / 2)

    def norm(self, t: float) -> float:
        """Reference-speed seconds since the window began."""
        i = bisect.bisect_right(self.cuts, t) - 1
        i = min(max(i, 0), len(self.cuts) - 2)
        return self._norm_at_cut[i] + (t - self.cuts[i]) * self._factor(i)

    @property
    def raw_seconds(self) -> float:
        return self.cuts[-1] - self.cuts[0]

    @property
    def norm_seconds(self) -> float:
        return self._norm_at_cut[-1]


class Probe:
    """Times one in-process :class:`Service` from the outside.

    Shadows the instance's ``submit``, ``pump`` and ``submit_mutation``
    so that any load loop (``run_closed_loop``,
    ``run_update_stream``) records, per ticket, when it was submitted
    and when the pump that completed it returned.  Calibration cuts
    are taken just before a pump, when no query code is running.
    """

    def __init__(self, service, meter: Meter) -> None:
        self.meter = meter
        self.submitted: dict = {}
        self.finished: dict = {}
        self.mutations: list = []  # [ticket, submitted, applied_at]
        self.last = None
        self.last_wall = None
        submit, pump = service.submit, service.pump
        submit_mutation = service.submit_mutation

        def timed_submit(*args, **kwargs):
            t0 = meter.now()
            ticket = submit(*args, **kwargs)
            self.submitted[ticket.id] = t0
            if ticket.done:
                self.finished[ticket.id] = meter.now()
            return ticket

        def timed_pump():
            meter.maybe_calibrate()
            done = pump()
            t = meter.now()
            for ticket in done:
                self.finished.setdefault(ticket.id, t)
            for row in self.mutations:
                if row[2] is None and (row[0].applied or row[0].rejected):
                    row[2] = t
            self.last = t
            self.last_wall = time.perf_counter()
            return done

        def timed_submit_mutation(*args, **kwargs):
            t0 = meter.now()
            ticket = submit_mutation(*args, **kwargs)
            self.mutations.append([ticket, t0, None])
            return ticket

        service.submit = timed_submit
        service.pump = timed_pump
        service.submit_mutation = timed_submit_mutation

    def latencies_s(self) -> dict:
        """ticket id -> reference-speed latency in seconds."""
        norm = self.meter.norm
        return {
            tid: norm(self.finished[tid]) - norm(t0)
            for tid, t0 in self.submitted.items()
            if tid in self.finished
        }

    def write_latencies_s(self) -> list:
        norm = self.meter.norm
        return [
            norm(done) - norm(t0)
            for ticket, t0, done in self.mutations
            if done is not None and ticket.applied
        ]
