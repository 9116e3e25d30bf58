"""Timing that stays steady on a host whose speed drifts.

The benchmark runs on shared hosts whose speed changes by tens of percent
over seconds to minutes as other tenants' load comes and goes.  No
statistic taken within one run removes that: a whole run can fall in a
slow stretch.  So every timing is scaled by the host's speed at the time
it was taken.  A calibration loop (a fixed mix of interpreter work that
never touches the package) is timed before a pass's first call, after
its last, and between calls whenever ``CHUNK_S`` of call time has gone by
since the last calibration.  A call's scaled latency is its wall time
times ``NOMINAL_S`` over the median of the last ``SPEED_WINDOW``
calibrations, the one just after it included: the time the call would
take on a host where the calibration loop takes ``NOMINAL_S``.  One 10 ms
sample is noisier than a call that lasts a tenth of a second or more,
hence the median; the drift it follows takes seconds.  A change to the package leaves the loop alone, so it
moves scaled times exactly as it moves wall times at a steady speed.
"""

from __future__ import annotations

import statistics
import traceback
from dataclasses import dataclass
from time import perf_counter

NOMINAL_S = 0.010  # about what the loop takes on a 2.1 GHz Xeon vCPU, Python 3.11
CHUNK_S = 0.2
CALIBRATION_ROUNDS = 10_000
SPEED_WINDOW = 5


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) % 1009


def _pairs(k: int):
    for i in range(k):
        yield i, i * i


def calibration_loop(rounds: int = CALIBRATION_ROUNDS) -> int:
    """Tuples, dict stores and lookups, small calls, int arithmetic, a generator."""
    table = {}
    acc = 0
    for i in range(rounds):
        key = (i, i + 1, i % 7)
        table[key] = _mix(i, key[2])
        acc += table.get((i - 1, i, (i - 1) % 7), 0)
    for a, b in _pairs(rounds):
        acc ^= a + b
    return acc


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    start = perf_counter()
    calibration_loop()
    return perf_counter() - start


@dataclass
class Op:
    """One timed call: its wall and scaled latency and what it returned (or raised)."""

    latency_s: float
    result: object
    out_bytes: int = 0
    scaled_s: float = 0.0


class Clock:
    """Times a pass's calls and scales each by the host's speed around it."""

    def __init__(self):
        self._chunk: list[Op] = []
        self._since = 0.0
        self._in_pass = False
        self.calibrations: list[float] = []

    def timed(self, fn, *args) -> Op:
        if not self._in_pass:
            self.calibrations.append(calibrate())
            self._in_pass = True
        elif self._since >= CHUNK_S:
            self._close_chunk()
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as err:  # a raising call is a failed one; the run goes on
            result = err
        op = Op(perf_counter() - start, result)
        if isinstance(result, Exception):
            traceback.print_exception(result)
        self._chunk.append(op)
        self._since += op.latency_s
        return op

    def end_pass(self) -> None:
        """Scale the pass's last calls; the next pass calibrates afresh."""
        if self._chunk:
            self._close_chunk()
        self._in_pass = False

    def _close_chunk(self) -> None:
        self.calibrations.append(calibrate())
        scale = NOMINAL_S / statistics.median(self.calibrations[-SPEED_WINDOW:])
        for op in self._chunk:
            op.scaled_s = op.latency_s * scale
        self._chunk = []
        self._since = 0.0
