"""Host-speed calibration: a fixed pure-Python kernel, timed all through a
run, that the benchmark's times are scaled by.

The machines this benchmark runs on are shared virtual machines whose
speed drifts by up to a factor of two within a minute (measured on a
2-vCPU Xeon guest; both vCPUs drift together, and CPU time drifts as much
as wall time).  Averaging over a longer run does not remove drift of that
period, so every time the benchmark reports is scaled to a nominal host
speed: a time t measured while the kernel took c is reported as
t * NOMINAL_NS / c.  The kernel runs every 50 ms from a timer signal, also
in the middle of an operation, and its own time is subtracted from what
it interrupts.  A change to the program moves the scaled time just as
it moves the raw one; a change of host speed moves both t and c and
cancels out.  The raw values are kept in the result file next to the
scaled ones.

The kernel does the kinds of work qblock does: small-int arithmetic, dict
lookups, tuple and string building, and a big-int Fibonacci recurrence.
It uses nothing from the package, so no change to the package can change
it.
"""

import bisect
import signal
import statistics
import time

NOMINAL_NS = 500_000  # the kernel's time on a typical host; a fixed reference, never re-tuned
_TABLE = {chr(65 + i): i for i in range(26)}


def kernel():
    acc = 0
    words = []
    for i in range(300):
        t = (i, i * 3, i % 7)
        acc += _TABLE[chr(65 + i % 26)] * t[1] - t[2]
        words.append(str(acc % 1000))
    a, b = 0, 1
    for _ in range(3000):  # up to ~2000-bit integers, like the key matrices
        a, b = b, a + b
    return len(",".join(words).split(",")) + a % 7


def measure():
    """Nanoseconds one kernel call takes now."""
    start = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - start


class Clock:
    """Times the kernel every `every_s` of wall time, from a SIGALRM
    handler, so that samples fall inside long operations too.  The kernel's
    own time is taken out of every operation and span it lands in."""

    def __init__(self, every_s=0.05):
        self.every_ns = int(every_s * 1e9)
        self.at = []
        self.took = []

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        every = self.every_ns / 1e9
        signal.setitimer(signal.ITIMER_REAL, every, every)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, signum, frame):
        self.at.append(time.perf_counter_ns())
        self.took.append(measure())

    def spent(self, start_ns, end_ns):
        """Kernel time inside [start_ns, end_ns)."""
        i = bisect.bisect_left(self.at, start_ns)
        j = bisect.bisect_left(self.at, end_ns)
        return sum(self.took[i:j])

    def factor(self, start_ns, end_ns):
        """NOMINAL_NS over the median kernel time from one period before
        `start_ns` to one after `end_ns` (at least the three samples nearest
        to the middle)."""
        if not self.at:
            return NOMINAL_NS / measure()
        i = bisect.bisect_left(self.at, start_ns - self.every_ns)
        j = bisect.bisect_right(self.at, end_ns + self.every_ns)
        if j - i < 3:
            middle = (start_ns + end_ns) // 2
            k = bisect.bisect_left(self.at, middle)
            near = sorted(range(max(0, k - 3), min(len(self.at), k + 3)),
                          key=lambda n: abs(self.at[n] - middle))[:3]
            return NOMINAL_NS / statistics.median(self.took[n] for n in near)
        return NOMINAL_NS / statistics.median(self.took[i:j])

    def run_factor(self):
        return NOMINAL_NS / statistics.median(self.took or [measure()])
