"""Stdlib-only reference loop used to normalise wall times.

The machine this benchmark runs on speeds up and slows down in phases
that last seconds, and CPU time tracks wall time through them, so the
spread is machine speed rather than preemption.  Timing a fixed
interpreter workload right next to each measured slice gives that
speed, and dividing by it turns wall seconds into *reference-speed*
seconds: the time the slice would have taken on a machine where
:func:`reference_ms` reads :data:`NOMINAL_MS`.

This module must not import the program under test: a change to the
program must never change the yardstick.
"""

from __future__ import annotations

import gc
import time

#: the reference loop's time on the machine the bounds were set on;
#: normalised times are wall times scaled to this speed
NOMINAL_MS = 2.5

_WORDS = tuple(f"k{i}" for i in range(64))


def _workload(rounds: int) -> int:
    """Dict/set/tuple churn, small-int arithmetic and calls — the
    operation mix of a pure-Python graph matcher, in miniature."""
    acc = 0
    for r in range(rounds):
        table: dict = {}
        seen = set()
        for i, word in enumerate(_WORDS):
            key = (word, i & 7)
            table[key] = table.get(key, 0) + i * r
            if i % 3:
                seen.add(i ^ r)
        stack = [(i, i & 3) for i in range(32)]
        while stack:
            a, b = stack.pop()
            acc = (acc + a * 31 + b) & 0xFFFFFF
        acc ^= len(seen) + sum(table.values()) & 0xFFFF
    return acc


#: workload rounds per timed repetition
_ROUNDS = 96


def reference_ms(reps: int = 3) -> float:
    """Median wall time of ``reps`` reference repetitions, in ms.

    One repetition takes about :data:`NOMINAL_MS`.  Runs with the
    garbage collector paused; callers invoke it only while no program
    thread runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            _workload(_ROUNDS)
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    times.sort()
    return times[len(times) // 2] * 1e3
