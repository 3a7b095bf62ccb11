"""Closed-loop passes through the engine, the host-speed clock and the
statistics the benchmark reports.

One process, one thread: the source hands the engine its next packet as
soon as the engine asks, so the offered rate is the rate the engine drains.
The engine has no queue and never drops for overload, so the measured rate
is the rate at zero loss.
"""

import math
import os
import random
import struct
from array import array
from bisect import bisect_right
from time import perf_counter_ns

_PAGE = os.sysconf("SC_PAGE_SIZE")

# Pulls between two clock marks inside a stream: 8 vectors of 256.
MARK_EVERY = 2048


def rss_bytes():
    """Resident set size of this process."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending sequence, 0 < q <= 1."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


_rng = random.Random(0x5EED)
_REF_PACKETS = [bytes(_rng.randrange(256) for _ in range(576)) for _ in range(32)]
_REF_TABLE = {_rng.randrange(1 << 16): i for i in range(4096)}
_REF_OPTIONS = bytes((2, 4, 5, 180, 3, 3, 7, 8, 10) + tuple(range(8)) + (4, 2, 1, 1))


class _RefView:
    __slots__ = ("data", "window", "opts")

    def __init__(self, data):
        self.data = data
        self.window = int.from_bytes(data[:80], "big")
        self.opts = None


def _ref_options(view):
    """A TCP-option-style walk in Python: kind, length, value slices."""
    opts = {}
    area = _REF_OPTIONS
    i = 0
    while i < len(area):
        kind = area[i]
        if kind == 1:
            i += 1
            continue
        length = area[i + 1]
        opts[kind] = bytes(area[i + 2:i + length])
        i += length
    view.opts = opts
    return opts


def _reference_work():
    """Fixed interpreter work shaped like a packet path: copy, window read,
    hash probes, an option walk, attribute access, a byte edit, a checksum
    sum, an output copy. It never changes and never calls midbox, so its
    duration measures the host's speed, not midbox's."""
    out = []
    for pkt in _REF_PACKETS:
        view = _RefView(bytearray(pkt))
        for shift in (0, 128, 256, 384):
            _REF_TABLE.get((view.window >> shift) & 0xFFFF)
        if _ref_options(view).get(8) is not None:
            view.data[8] -= 1
        s = sum(struct.unpack("!288H", view.data))
        view.data[10:12] = (s & 0xFFFF).to_bytes(2, "big")
        out.append(bytes(view.data))
    return out


class Clock:
    """Durations in reference-host nanoseconds.

    The host's speed drifts by up to half again over seconds to minutes
    as other tenants come and go: the reference work below took 320 us to
    560 us here, in long stretches, and one build of midbox ran fw-min at
    72k to 128k pps over a few minutes. `mark()` times the reference work;
    a duration between two marks is scaled by REF_NS over their mean, and
    the time spent in marks is left out. A stretch before the first or
    after the last mark uses that mark alone.
    """

    REF_NS = 320_000  # the reference work on the uncontended 2-vCPU host

    def __init__(self):
        self.starts = array("q")
        self.ends = array("q")
        self.costs = array("q")

    def mark(self):
        """Time the reference work. The first runs after other work find
        cold caches and read up to twice the warm cost, so the mark keeps
        the fastest of five."""
        t0 = perf_counter_ns()
        cost = None
        for _ in range(5):
            t = perf_counter_ns()
            _reference_work()
            t = perf_counter_ns() - t
            cost = t if cost is None else min(cost, t)
        self.starts.append(t0)
        self.ends.append(perf_counter_ns())
        self.costs.append(cost)

    def _factor(self, j):
        """Scale of the stretch after mark j (j = -1: before mark 0)."""
        c = self.costs
        lo, hi = max(j, 0), min(j + 1, len(c) - 1)
        return 2 * self.REF_NS / (c[lo] + c[hi])

    def scaled(self, a, b):
        """Reference nanoseconds of the wall-clock interval [a, b]."""
        starts, ends = self.starts, self.ends
        m = len(ends)
        j = bisect_right(ends, a) - 1
        total = 0.0
        while True:
            lo = ends[j] if j >= 0 else a
            hi = starts[j + 1] if j + 1 < m else b
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                total += overlap * self._factor(j)
            j += 1
            if j >= m or starts[j] >= b:
                return total


class Recorder:
    """Per-packet timestamps of one engine call. Allocated once per run,
    before the memory baseline, so they do not count as engine memory.

    pull[i]: when the engine asked the source for input packet i.
    recv[k], ids[k]: when the sink received its k-th packet, and which input
    packet that was (the engine numbers the records it parses in pull order).
    """

    def __init__(self, capacity):
        self.pull = array("q", bytes(8 * capacity))
        self.recv = array("q", bytes(8 * capacity))
        self.ids = array("q", bytes(8 * capacity))
        self.out = [None] * capacity


class Stream:
    """What one engine call did, as the benchmark saw it."""

    __slots__ = ("report", "ns", "raw_ns", "latencies", "outputs", "ids")

    def __init__(self, report, ns, raw_ns, latencies, outputs, ids):
        self.report = report        # the engine's RunReport
        self.ns = ns                # first pull to last sink call, scaled
        self.raw_ns = raw_ns        # the same, wall clock
        self.latencies = latencies  # scaled ns per forwarded packet
        self.outputs = outputs      # forwarded bytes, or None with a writer
        self.ids = ids              # input index of each forwarded packet


def drive(engine, records, rec, clock, write=None, between=None, period=0,
          tracer=None):
    """One closed-loop pass of `records` through Engine.run_stream.

    Forwarded packets go to `write(bytes, ts_sec, ts_usec)`, the CLI's pcap
    sink, when given, else into `rec.out` as bytes. `between()` runs before
    every `period`-th pull; with `period` a multiple of the vector size that
    is between two vectors. The timed region runs from the first pull to
    the last sink call; a packet's latency from its pull to its sink call.
    """
    pull, recv, ids, out = rec.pull, rec.recv, rec.ids, rec.out
    mark = clock.mark if tracer is None else tracer.wrap("bench.clock_mark", clock.mark)
    it = iter(records)
    k = 0

    def source():
        i = 0
        while True:
            if i and i % MARK_EVERY == 0:
                mark()
            if period and i and i % period == 0:
                between()
            t = perf_counter_ns()
            item = next(it, None)
            if item is None:
                return
            pull[i] = t
            i += 1
            yield item

    if write is not None:
        def sink(pkt):
            nonlocal k
            recv[k] = perf_counter_ns()
            ids[k] = pkt.trace_id
            ts = pkt.ts
            write(pkt.to_bytes(), int(ts), int(round((ts % 1) * 1e6)))
            k += 1
    else:
        def sink(pkt):
            nonlocal k
            recv[k] = perf_counter_ns()
            ids[k] = pkt.trace_id
            out[k] = pkt.to_bytes()
            k += 1

    if tracer is not None:
        sink = tracer.wrap("bench.sink", sink)
    mark()
    report = engine.run_stream(source(), sink)
    mark()
    if not k:
        return Stream(report, 0, 0, array("d"), [], [])
    lat = array("d", (clock.scaled(pull[ids[j]], recv[j]) for j in range(k)))
    outputs = None
    if write is None:
        outputs = out[:k]
        out[:k] = [None] * k  # so the next pass's sink frees nothing
    return Stream(report, clock.scaled(pull[0], recv[k - 1]), recv[k - 1] - pull[0],
                  lat, outputs, ids[:k])
