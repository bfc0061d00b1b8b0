"""Correct measured times for the changing speed of a shared host.

On a shared virtual machine the same work can take up to twice as long from
one minute to the next.  Two things slow it down:
- the host takes the virtual CPU away for a while (steal time in
  ``/proc/stat``); the process then waits, and its wall time grows while
  its CPU time does not;
- the host runs the virtual CPU slower, for seconds to minutes at a time,
  because other guests share its core and caches; then CPU time grows too.

The meter removes the first by measuring CPU time of this process instead
of wall time, and the second by measuring the host's speed while the
program runs.  Every ``PERIOD_S`` seconds a timer signal interrupts the
program between two bytecodes, and the handler times ``probe``, fixed
work that does not touch frobstab, in two halves of about equal time:
- pure-Python work: dict updates and a product of two small polynomials
  stored as dicts of exponent tuples, like the library's Python code;
- native work (``hostprobe.c``): a product of two polynomials stored as
  int64 arrays, like the library's compiled term kernel.
The host slows the two kinds of code by different amounts (interpreted
code more), so a probe of one kind alone over- or under-corrects the
workloads dominated by the other.  The probes run in the program's own
thread, so load still comes from one single-threaded process.

``Meter.seconds(a, b)`` turns the CPU time between two marks into reference
seconds:
- it takes the CPU time and removes the CPU time spent inside probes;
- it multiplies the rest by the host's mean speed over the probes taken in
  between, where speed is ``REFERENCE_S`` divided by a probe's CPU time
  (the latest ``MIN_WINDOW`` probes stand in when an interval holds fewer).

So a reference second is a second of CPU time on a host on which
``probe`` takes ``REFERENCE_S``, about this module's measuring host at
its fast speed.  A change to frobstab moves the corrected time just as it
moves the CPU time, because the probe's work never changes.  A change that
makes frobstab wait (for a disk, say) does not show in CPU time; the wall
time of every pass is kept beside it for that reason.
"""

import contextlib
import signal
import statistics
import time
from array import array

PERIOD_S = 0.01
REFERENCE_S = 4.0e-4
MIN_WINDOW = 32
NATIVE_CALLS = 10
_WARM_UP = 50

# two fixed 12-term polynomials in three variables, coefficients mod 101
_P = 101
_F = tuple(((i * 5) % 9, (i * 7) % 9, (i * 2) % 9, (i * 37) % 100 + 1) for i in range(12))
_G = tuple(((i * 4) % 9, (i * 8) % 9, (i * 5) % 9, (i * 53) % 100 + 1) for i in range(12))


def probe(native):
    """Fixed work: dict, tuple and integer operations in Python, then
    NATIVE_CALLS calls of `native`."""
    table = {}
    for i in range(300):
        key = (i & 15, i >> 4)
        table[key] = (table.get(key, 0) + i * 7) % 32003
    product = {}
    for a0, a1, a2, ca in _F:
        for b0, b1, b2, cb in _G:
            e = (a0 + b0, a1 + b1, a2 + b2)
            product[e] = (product.get(e, 0) + ca * cb) % _P
    for _ in range(NATIVE_CALLS):
        native()
    return table, sorted(product.items(), reverse=True)


class Meter:
    """Probe times taken on a timer signal, and corrected intervals."""

    def __init__(self, native):
        self.native = native
        self.probe_s = array("d")
        self.spent_s = 0.0
        self._running = False

    def _tick(self, _signum=None, _frame=None):
        start = time.process_time()
        probe(self.native)
        took = time.process_time() - start
        if took > 0.0:
            self.probe_s.append(took)
            self.spent_s += took

    def start(self):
        if not self.probe_s:
            for _ in range(_WARM_UP):
                probe(self.native)
            while len(self.probe_s) < MIN_WINDOW:
                self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._running = True

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._running = False

    def mark(self):
        """A point in time: (CPU time, CPU seconds spent in probes, probes
        taken, wall clock)."""
        return time.process_time(), self.spent_s, len(self.probe_s), time.perf_counter()

    def seconds(self, since, until=None):
        """Reference seconds between two marks (`until` defaults to now)."""
        cpu0, spent0, n0, _ = since
        cpu1, spent1, n1, _ = until if until is not None else self.mark()
        window = self.probe_s[min(n0, max(0, n1 - MIN_WINDOW)):n1]
        speed = statistics.fmean(REFERENCE_S / t for t in window)
        return (cpu1 - cpu0 - (spent1 - spent0)) * speed

    def wall_seconds(self, since, until=None):
        """Wall seconds between two marks, probe time included."""
        until = until if until is not None else self.mark()
        return until[3] - since[3]

    @contextlib.contextmanager
    def paused(self):
        """Stop the probes for a while, e.g. while a child process runs."""
        running = self._running
        if running:
            self.stop()
        try:
            yield self
        finally:
            if running:
                self.start()
