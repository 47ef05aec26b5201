"""Spans recorded around the benchmark's calls into the package.

A span has a name (the layer and function called, as ``codec.decode``), a
tag (such as ``dim128``), a unit count (blocks, trials, calls), a start and
an end on the monotonic clock, the span that was open when it started, and
the request it belongs to.  Spans are kept in memory and written out when
the run ends.  A span's self time is its duration minus the part covered
by its child spans.

The untraced run uses ``NullTracer``, which calls straight through.
"""

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass

_NULL = contextlib.nullcontext()


class NullTracer:
    """Records nothing; used for the runs that give end-to-end metrics."""

    request = 0

    def call(self, name, fn, *args, tag="", units=1, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, tag="", units=1):
        return _NULL


@dataclass
class Span:
    id: int
    parent: int
    request: int
    name: str
    tag: str
    units: int
    start_ns: int
    end_ns: int = 0


class Tracer:
    """Keeps every span in memory, in start order."""

    def __init__(self):
        self.spans = []
        self.request = 0
        self._open = []

    def call(self, name, fn, *args, tag="", units=1, **kwargs):
        with self.span(name, tag, units):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def span(self, name, tag="", units=1):
        span = Span(len(self.spans), self._open[-1] if self._open else -1, self.request,
                    name, tag, units, time.perf_counter_ns())
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._open.pop()

    def add(self, name, start_ns, end_ns, tag="", units=1):
        """Record a span timed elsewhere, such as inside a child process
        (perf_counter is the system-wide monotonic clock on Linux)."""
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(len(self.spans), parent, self.request, name, tag, units,
                               start_ns, end_ns))

    def self_ns(self, clock):
        """Self time of every span, indexed like ``spans``, leaving out the
        time the calibration kernel ran inside it."""
        net = [s.end_ns - s.start_ns - clock.spent(s.start_ns, s.end_ns) for s in self.spans]
        own = list(net)
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= net[s.id]
        return own

    def write(self, path, clock):
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\trequest\tname\ttag\tunits\tstart_ns\tend_ns\tself_ns\n")
            for s, own in zip(self.spans, self.self_ns(clock)):
                out.write(f"{s.id}\t{s.parent}\t{s.request}\t{s.name}\t{s.tag}\t{s.units}"
                          f"\t{s.start_ns}\t{s.end_ns}\t{own}\n")


@dataclass
class Stat:
    count: int = 0
    units: int = 0
    self_ns: int = 0


def aggregate(tracer, clock):
    """Self time, scaled to the nominal host speed at the time of each span,
    with call count and units, per (name, tag)."""
    table = defaultdict(Stat)
    for s, own in zip(tracer.spans, tracer.self_ns(clock)):
        stat = table[(s.name, s.tag)]
        stat.count += 1
        stat.units += s.units
        stat.self_ns += own * clock.factor(s.start_ns, s.end_ns)
    return table
