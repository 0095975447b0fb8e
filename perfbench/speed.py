"""Host speed, sampled on the benchmark's CPU while each timed process runs.

The CPUs this benchmark runs on are shared with other tenants, and their
speed swings by up to ~50% in both directions: each vCPU flips between a
fast and a slow state every few hundred milliseconds, and the share of
time spent slow drifts over minutes. The same CLI invocation on the same
inputs took from 1.6 to 3.5 s within five minutes, and the median of a
20-second run moved by 20% between runs of the same code. More samples
do not average that out, because the drift is slower than a run.

So every timed process is measured together with a reference. The
benchmark pins itself, and with it every process it starts, to one CPU,
and forks a child at nice 19 that runs a fixed pure-Python loop there
and publishes how many rounds it has done and its CPU time. The
scheduler gives that child about 1% of the CPU, in short slices spread
over the whole invocation, so its loop rate samples the speed the CLI
process sees at the same moments on the same CPU. Timings are reported
at the reference speed: ``seconds * rate / REFERENCE_RATE``, the seconds
the run would take on a CPU where the loop runs ``REFERENCE_RATE``
rounds per CPU-second. A slower program still reads slower by the same
factor; only the host's swings are divided out. The reference loop is
benchmark code, so a change to the program cannot move it.
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
import time

# Rounds per CPU-second of the loop below: about its rate in the fast
# state of a 2-vCPU cloud host under Python 3.11, where it ran between
# 23,000 and 67,000 rounds per CPU-second. Reported times are scaled to
# this speed; it is a fixed unit, so any value would do.
REFERENCE_RATE = 60000.0
# A window in which the loop ran fewer rounds than this (a few ms of
# its CPU time) is too short to give its own rate; the rate since the
# probe started is used instead.
MIN_ROUNDS = 200
_LAYOUT = "qq"  # rounds done, CPU ns of the loop


class SpeedProbe:
    """Fork the reference loop; ``read()`` marks a point, ``scale(a, b)`` rates a window."""

    def __init__(self):
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self.cpu = cpu
        self._shared = mmap.mmap(-1, struct.calcsize(_LAYOUT))
        parent = os.getpid()
        self._pid = os.fork()
        if self._pid == 0:
            try:
                _reference_loop(self._shared, parent)
            finally:
                os._exit(0)
        while self.read()[0] == 0:
            if os.waitpid(self._pid, os.WNOHANG)[0]:
                raise RuntimeError("the speed reference loop exited at start")
            time.sleep(0.001)
        self._start = self.read()

    def read(self):
        return struct.unpack_from(_LAYOUT, self._shared, 0)

    def scale(self, before, after) -> float:
        """Speed of the host over a window as a share of the reference speed."""
        if after[0] - before[0] < MIN_ROUNDS:
            before = self._start
        rate = (after[0] - before[0]) / ((after[1] - before[1]) / 1e9)
        return rate / REFERENCE_RATE

    def close(self):
        os.kill(self._pid, signal.SIGKILL)
        os.waitpid(self._pid, 0)


def _reference_loop(shared, parent):
    """Dict and tuple work like the program's own; exits when the parent is gone."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.nice(19)
    squares = list(range(64))
    table = {}
    rounds = 0
    while True:
        for square in squares:
            key = (square, (square * 7 + rounds) & 63)
            table[key] = table.get(key, 0) + 1
        rounds += 1
        struct.pack_into(_LAYOUT, shared, 0, rounds, time.process_time_ns())
        if rounds % 1024 == 0 and os.getppid() != parent:
            return
