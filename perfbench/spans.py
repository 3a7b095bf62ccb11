"""Spans around calls into each engine layer, and what they add up to.

`Tracer.install` replaces the layer entry points the engine calls (module
globals of midbox.pipeline and midbox.rewrite, methods of ConnTable,
PacketBuffer and Engine) with wrappers that record one span per call:
name, start, end, parent span and an outcome value. Nothing in midbox is
edited; `uninstall` puts the originals back. Spans stay in memory until the
run ends and are then written to a gzip'd TSV file.

A layer's self time is its span's duration minus the durations of its
direct child spans.
"""

import gzip
from array import array
from time import perf_counter_ns

import midbox.pipeline
import midbox.rewrite
from midbox import ConnTable, Engine, PacketBuffer
from midbox.classifier import DROP, MATCH

FAILED = -1  # outcome of a call that raised


def _verdict_matched(result, args):
    return int(result.kind in (DROP, MATCH))


def _lookup_hit(result, args):
    return int(result[0] is not None)


def _len_of_first_arg(result, args):
    """Table size for ConnTable.insert, rule count for RuleSetSnapshot."""
    return len(args[0])


def _vector_size(result, args):
    return len(args[1])


def _changed(result, args):
    return int(bool(result))


# (owner, attribute, span name, outcome of a call)
ENTRY_POINTS = [
    (midbox.pipeline, "parse_packet", "packet.parse", None),
    (PacketBuffer, "to_bytes", "packet.to_bytes", None),
    (midbox.rewrite, "fix_checksums", "packet.fix_checksums", None),
    (midbox.pipeline, "classify", "classifier.classify", _verdict_matched),
    (midbox.pipeline, "RuleSetSnapshot", "classifier.snapshot_build", _len_of_first_arg),
    (midbox.pipeline, "parse_command", "rules.parse_command", None),
    (ConnTable, "lookup", "conntrack.lookup", _lookup_hit),
    (ConnTable, "insert", "conntrack.insert", _len_of_first_arg),
    (ConnTable, "update_state", "conntrack.update_state", None),
    (ConnTable, "purge", "conntrack.purge", None),
    (midbox.pipeline, "rewrite_packet", "rewrite.rewrite_packet", _changed),
    (Engine, "run_stream", "pipeline.run_stream", None),
    (Engine, "run_vector", "pipeline.run_vector", _vector_size),
]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.value = array("q")
        self._stack = [-1]
        self._saved = []

    def wrap(self, span_name, fn, outcome=None):
        """`fn` recording one span per call. `outcome(result, args)` gives
        the span's value; a call that raises gets FAILED."""
        nid = self._name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        name, start, end, parent, value = (self.name, self.start, self.end,
                                           self.parent, self.value)
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            value.append(0)
            stack.append(i)
            start[i] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[i] = perf_counter_ns()
                stack.pop()
                value[i] = FAILED
                raise
            end[i] = perf_counter_ns()
            stack.pop()
            if outcome is not None:
                value[i] = outcome(result, args)
            return result
        return traced

    def install(self):
        for owner, attr, span_name, outcome in ENTRY_POINTS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span_name, original, outcome))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self):
        """{span name: [calls, total ns, self ns, sum of values, failures,
        largest value]}."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {s: [0, 0, 0, 0, 0, 0] for s in self.names}
        names = self.names
        for i in range(n):
            agg = out[names[self.name[i]]]
            v = self.value[i]
            agg[0] += 1
            agg[1] += dur[i]
            agg[2] += dur[i] - child[i]
            if v == FAILED:
                agg[4] += 1
            else:
                agg[3] += v
                agg[5] = max(agg[5], v)
        return out

    def dump(self, path):
        """Every span as a gzip'd TSV row: id, name, start_ns, end_ns,
        parent id (-1 for none), outcome value."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tname\tstart_ns\tend_ns\tparent\tvalue\n")
            names = self.names
            for i in range(len(self.start)):
                f.write(f"{i}\t{names[self.name[i]]}\t{self.start[i]}\t"
                        f"{self.end[i]}\t{self.parent[i]}\t{self.value[i]}\n")


def layer_metrics(tracer, packets):
    """Per-layer metrics from the spans of one traced pass of `packets`
    offered packets."""
    summary = tracer.summary()

    def agg(span):
        return summary.get(span, [0, 0, 0, 0, 0, 0])

    def mean(span, i=1):
        a = agg(span)
        return a[i] / a[0] if a[0] else 0.0

    def ratio(span):
        a = agg(span)
        return a[3] / a[0] if a[0] else 0.0

    pipeline_self = agg("pipeline.run_stream")[2] + agg("pipeline.run_vector")[2]
    vectors = agg("pipeline.run_vector")
    return {
        "packet.parse_ns": (mean("packet.parse"), "ns"),
        "packet.parse_errors": (agg("packet.parse")[4], "count"),
        "packet.to_bytes_ns": (mean("packet.to_bytes"), "ns"),
        "packet.fix_checksums_ns": (mean("packet.fix_checksums"), "ns"),
        "packet.fix_checksums_calls": (agg("packet.fix_checksums")[0], "count"),
        "classifier.classify_self_ns": (mean("classifier.classify", 2), "ns"),
        "classifier.match_ratio": (ratio("classifier.classify"), "ratio"),
        "classifier.snapshot_build_ms": (_snapshot_build_ms(tracer), "ms"),
        "rules.parse_command_us": (mean("rules.parse_command") / 1e3, "us"),
        "conntrack.lookup_ns": (mean("conntrack.lookup"), "ns"),
        "conntrack.insert_ns": (mean("conntrack.insert"), "ns"),
        "conntrack.update_state_ns": (mean("conntrack.update_state"), "ns"),
        "conntrack.purge_ns": (mean("conntrack.purge"), "ns"),
        "conntrack.lookup_hit_ratio": (ratio("conntrack.lookup"), "ratio"),
        "conntrack.entries": (agg("conntrack.insert")[5], "count"),
        "rewrite.self_ns": (mean("rewrite.rewrite_packet", 2), "ns"),
        "rewrite.changed_ratio": (ratio("rewrite.rewrite_packet"), "ratio"),
        "pcap.read_ns": (mean("pcap.read"), "ns"),
        "pcap.write_ns": (mean("pcap.write"), "ns"),
        "pipeline.self_ns": (pipeline_self / packets if packets else 0.0, "ns"),
        "pipeline.vectors": (vectors[0], "count"),
        "pipeline.pkts_per_vector": (vectors[3] / vectors[0] if vectors[0] else 0.0,
                                     "count"),
    }


def _snapshot_build_ms(tracer):
    """Mean build time of snapshots holding at least one rule; Engine()
    also builds an empty one, which would only dilute the mean."""
    if "classifier.snapshot_build" not in tracer.names:
        return 0.0
    nid = tracer.names.index("classifier.snapshot_build")
    builds = [tracer.end[i] - tracer.start[i] for i in range(len(tracer.start))
              if tracer.name[i] == nid and tracer.value[i] > 0]
    return sum(builds) / len(builds) / 1e6 if builds else 0.0
