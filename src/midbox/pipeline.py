"""Vector pipeline and engine.

Packets flow in vectors (up to 256 by default) through a small node graph:
input (parse/validate) -> classify -> {error-drop | rewrite -> output |
output}. The rewrite node is one `rewrite_packet` call per matched packet,
which picks and runs its rules' writers and writes its connection's
translation. The engine is single-threaded: rule commands run between
`run_vector` calls and change the one compiled rule set in place, so one
vector never sees two rule sets. One connection table serves every
vector.
"""

import time
from dataclasses import dataclass, field

# classify is not called here, but stays a name of this module, where
# tracers look up the engine's entry points
from .classifier import (DROP as V_DROP, MATCH as V_MATCH, RuleSetSnapshot, classify,  # noqa: F401
                         classify_vector, match_tables)
from .conntrack import ConnTable, TimeoutPolicy
from .errors import CommandError, MidboxError, NoSuchRule, NotIPv4, PacketError
from .packet import ETHERNET, RAW_IP, PacketBuffer, parse_packet
from .rewrite import rewrite_packet
from .rules import format_rule, parse_command

# per-packet dispositions
DISP_DROP = "drop"
DISP_FORWARD = "forward"
DISP_REWRITTEN = "rewritten"

NODE_NAMES = ("input", "classify", "rewrite", "drop", "output")

# every counter a RunReport carries, zero when it never fired.
# table_probes: tables times classified packets (every packet, IP options
# and fragments included, probes every mask table); conn_full_drops: new
# flows the full connection table could not track (those of translating
# rules are dropped and also counted in verdict_drops, the others pass
# untracked); out_of_ports: new flows dropped because a shuffle pool was
# empty (also counted in verdict_drops).
COUNTERS = ("table_probes", "verdict_drops", "parse_error_drops",
            "bypass_non_ip", "malformed_options", "rewrite_skipped",
            "opt_add_skipped", "missing_binding", "conn_full_drops",
            "out_of_ports")


class NodeStats:
    __slots__ = ("name", "vectors", "packets", "ns")

    def __init__(self, name):
        self.name = name
        self.vectors = 0
        self.packets = 0
        self.ns = 0

    def observe(self, packets, ns):
        self.vectors += 1
        self.packets += packets
        self.ns += ns

    @property
    def ns_per_packet(self):
        return self.ns / self.packets if self.packets else 0.0


@dataclass
class EngineConfig:
    vector_size: int = 256
    link_type: int = RAW_IP
    shuffle_seed: int = 0
    shuffle_range: tuple = (1024, 65535)
    conn_capacity: int = 2 ** 20
    timeouts: TimeoutPolicy = field(default_factory=TimeoutPolicy)


class RunReport:
    """Counts and per-node costs of one stream run."""

    def __init__(self, packets_in, forwarded, dropped, rewritten, duration_ns,
                 node_stats, counters):
        self.packets_in = packets_in
        self.forwarded = forwarded
        self.dropped = dropped
        self.rewritten = rewritten
        self.duration_ns = duration_ns
        self.node_stats = node_stats
        self.counters = counters

    @property
    def pps(self):
        secs = self.duration_ns / 1e9
        return self.packets_in / secs if secs > 0 else 0.0

    @property
    def engine_ns_per_packet(self):
        """classify+rewrite cost per classified packet."""
        c = self.node_stats["classify"]
        r = self.node_stats["rewrite"]
        return (c.ns + r.ns) / c.packets if c.packets else 0.0

    def to_text(self):
        lines = [
            f"packets in={self.packets_in} forwarded={self.forwarded} "
            f"dropped={self.dropped} rewritten={self.rewritten} "
            f"pps={self.pps:.0f}",
            f"{'node':<10} {'vectors':>9} {'packets':>10} {'ns/packet':>10}",
        ]
        for name in NODE_NAMES:
            s = self.node_stats[name]
            lines.append(f"{name:<10} {s.vectors:>9} {s.packets:>10} "
                         f"{s.ns_per_packet:>10.1f}")
        for k in sorted(self.counters):
            lines.append(f"counter {k}={self.counters[k]}")
        return "\n".join(lines)

    def to_json_dict(self):
        return {
            "totals": {
                "packets_in": self.packets_in,
                "forwarded": self.forwarded,
                "dropped": self.dropped,
                "rewritten": self.rewritten,
                "duration_ns": self.duration_ns,
                "pps": self.pps,
            },
            "nodes": [
                {
                    "name": name,
                    "vectors": self.node_stats[name].vectors,
                    "packets": self.node_stats[name].packets,
                    "ns_per_packet": self.node_stats[name].ns_per_packet,
                }
                for name in NODE_NAMES
            ],
            "counters": dict(self.counters),
        }


class Engine:
    """Rule store, compiled rule set, connection table, and the vector
    loop."""

    def __init__(self, config=None):
        self.config = config or EngineConfig()
        self.rules = {}
        self._next_id = 1
        self.enabled = True
        self.snapshot = RuleSetSnapshot([])
        c = self.config
        self.conn = ConnTable(c.timeouts, c.conn_capacity, c.shuffle_seed,
                              c.shuffle_range)
        self.reset_stats()

    # ------------------------------------------------------------- rules

    def install(self, rule):
        """Assign an id (never reused) and add the rule to the compiled
        set, compiling only it."""
        self._assign_id(rule)
        self.snapshot.add(rule)
        return rule.id

    def _assign_id(self, rule):
        rule.id = self._next_id
        self._next_id += 1
        self.rules[rule.id] = rule
        return rule.id

    def remove(self, rule_id):
        if rule_id not in self.rules:
            raise NoSuchRule(f"no such rule {rule_id}")
        self.conn.forget_rule(self.rules.pop(rule_id))
        self.snapshot.remove(rule_id)

    def flush(self):
        n = len(self.rules)
        for rule in self.rules.values():
            self.conn.forget_rule(rule)
        self.rules.clear()
        self._rebuild()
        return n

    def add_commands(self, lines):
        """Install `mmb add ...` lines in bulk: one full build at the
        end, so large rule sets load in linear time. Every line is parsed
        before any is installed, so a bad line installs nothing; its error
        keeps its class and byte position and names the line, counting
        from 1 over every line given, blank and `#` lines too. Returns
        assigned ids."""
        rules = []
        for n, line in enumerate(lines, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                cmd = parse_command(line)
            except CommandError as e:
                raise type(e)(f"line {n}: {e.args[0]}", e.position) from None
            if cmd.verb not in ("add", "add-stateful"):
                raise CommandError(f"line {n}: expected an add command, got {cmd.verb!r}")
            rules.append(cmd.rule)
        ids = [self._assign_id(rule) for rule in rules]
        self._rebuild()
        return ids

    def _rebuild(self):
        """Full build: compiles every installed rule."""
        self.snapshot = RuleSetSnapshot([self.rules[k] for k in sorted(self.rules)])

    # ------------------------------------------------------------ command

    def apply_command(self, cmd):
        if cmd.verb in ("add", "add-stateful"):
            rid = self.install(cmd.rule)
            return f"added rule {rid}"
        if cmd.verb == "del":
            self.remove(cmd.rule_id)
            return f"deleted rule {cmd.rule_id}"
        if cmd.verb == "list":
            return self.list_rules_text()
        if cmd.verb == "flush":
            return f"flushed {self.flush()} rules"
        if cmd.verb == "enable":
            self.enabled = True
            return "classification enabled"
        if cmd.verb == "disable":
            self.enabled = False
            return "classification disabled"
        raise CommandError(f"unhandled verb {cmd.verb!r}")

    def execute_line(self, line):
        """One REPL line -> output text. Errors never raise out of here."""
        line = line.strip()
        if not line:
            return ""
        if line == "list connections":
            return self.list_connections_text()
        if line == "list tables":
            return self.list_tables_text()
        try:
            return self.apply_command(parse_command(line))
        except MidboxError as e:
            return f"error: {e}"

    def list_rules_text(self):
        """One line per rule, tagged by where the rule set placed it:
        `[fast-path]` in a mask table, `[never]` nowhere (its equalities
        contradict each other), no tag among the maskless rules."""
        if not self.rules:
            return "no rules"
        lines = []
        for rid in sorted(self.rules):
            r = self.rules[rid]
            cr = self.snapshot.by_id[rid]
            verb = "add-stateful" if r.stateful else "add"
            tag = " [never]" if cr.never else " [fast-path]" if cr.mask else ""
            lines.append(f"{rid}: mmb {verb} {format_rule(r)}{tag} hits={r.hits}")
        return "\n".join(lines)

    def list_tables_text(self):
        return "\n".join(self.snapshot.stats_lines())

    def list_connections_text(self):
        now = time.monotonic()
        lines = [e.describe(now) for e in self.conn.entries()]
        return "\n".join(lines) if lines else "no connections"

    # ------------------------------------------------------------- packets

    def run_vector(self, pkts, now=None):
        """Process one vector; returns [(pkt, disposition)] in input order."""
        if now is None:
            now = time.monotonic()
        stats = self.node_stats
        snap = self.snapshot
        counters = self.counters

        if not self.enabled:
            return [(p, DISP_FORWARD) for p in pkts]

        t0 = time.perf_counter_ns()
        conn = self.conn
        full_drops, out_of_ports = conn.full_drops, conn.out_of_ports
        # the sweep runs at the vector's time before its packets, so a flow
        # that expired before the vector is gone for all of them, whatever
        # the vector size
        conn.purge(now)
        # no packet can have or open a connection while the table is empty
        # and no rule is stateful, so none is looked up
        tracked = conn if snap.stateful or len(conn) else None
        results = classify_vector(pkts, snap, tracked, now, match_tables(pkts, snap))
        t1 = time.perf_counter_ns()
        stats["classify"].observe(len(pkts), t1 - t0)
        counters["table_probes"] += len(snap.tables) * len(pkts)
        counters["conn_full_drops"] += conn.full_drops - full_drops
        counters["out_of_ports"] += conn.out_of_ports - out_of_ports

        to_rewrite = [(p, r) for p, r in zip(pkts, results)
                      if r is not None and r[0] is V_MATCH]
        t2 = time.perf_counter_ns()
        for p, (_, crs, entry, direction) in to_rewrite:
            rewrite_packet(p, crs, entry, direction, counters)
        t3 = time.perf_counter_ns()
        if to_rewrite:
            stats["rewrite"].observe(len(to_rewrite), t3 - t2)

        # the drop node is the disposition pass that takes dropped packets
        # out of the vector
        t4 = time.perf_counter_ns()
        out = []
        ndrop = 0
        for p, r in zip(pkts, results):
            if r is None:
                out.append((p, DISP_FORWARD))
            elif r[0] is V_DROP:
                out.append((p, DISP_DROP))
                ndrop += 1
            else:
                out.append((p, DISP_REWRITTEN))
        if ndrop:
            stats["drop"].observe(ndrop, time.perf_counter_ns() - t4)
            counters["verdict_drops"] += ndrop
        return out

    def run_stream(self, source, sink=None):
        """Drain a packet source in vectors; returns a RunReport of this
        run alone.

        Source items are (bytes, ts_sec, ts_usec) records. `sink`
        receives forwarded packets: a list collects raw bytes, a callable
        gets the PacketBuffer.
        """
        self.reset_stats()
        stats = self.node_stats
        counters = self.counters
        V = self.config.vector_size
        link_type = self.config.link_type
        # the module's parser, read once per stream and not at import, so a
        # tracer that wraps it is the one called
        parse = parse_packet
        vec = []
        packets_in = forwarded = dropped = rewritten = 0

        if sink is None:
            put = None
        elif isinstance(sink, list):
            def put(pkt):
                sink.append(pkt.to_bytes())
        else:
            put = sink

        t_start = time.perf_counter_ns()

        def output(pkts):
            nonlocal forwarded
            t0 = time.perf_counter_ns()
            if put is not None:
                for pkt in pkts:
                    put(pkt)
            forwarded += len(pkts)
            stats["output"].observe(len(pkts), time.perf_counter_ns() - t0)

        def flush():
            nonlocal vec, dropped, rewritten
            if not vec:
                return
            pkts, vec = vec, []
            fwd = []
            for pkt, disp in self.run_vector(pkts):
                if disp == DISP_DROP:
                    dropped += 1
                else:
                    if disp == DISP_REWRITTEN:
                        rewritten += 1
                    fwd.append(pkt)
            if fwd:
                output(fwd)

        # the input node is timed once per vector: from the pull of its
        # first source item until the vector is full, the stream
        # ends or a bypassed frame leaves it
        t0 = time.perf_counter_ns()
        n = 0
        for data, ts_sec, ts_usec in source:
            packets_in += 1
            n += 1
            ts = ts_sec + ts_usec / 1e6
            try:
                pkt = parse(data, link_type, packets_in - 1, ts)
            except NotIPv4:
                if link_type == ETHERNET:
                    # non-IP frames never enter the engine; they pass
                    # through unparsed, in arrival order, after the
                    # packets already waiting in vectors
                    stats["input"].observe(n, time.perf_counter_ns() - t0)
                    counters["bypass_non_ip"] += 1
                    flush()
                    output([PacketBuffer(bytes(data), 0, 0, 0, 0,
                                         trace_id=packets_in - 1, ts=ts)])
                    n = 0
                    t0 = time.perf_counter_ns()
                    continue
                counters["parse_error_drops"] += 1
                dropped += 1
                continue
            except PacketError:
                counters["parse_error_drops"] += 1
                dropped += 1
                continue
            vec.append(pkt)
            if len(vec) >= V:
                stats["input"].observe(n, time.perf_counter_ns() - t0)
                flush()
                n = 0
                t0 = time.perf_counter_ns()
        if n:
            stats["input"].observe(n, time.perf_counter_ns() - t0)

        flush()

        duration = time.perf_counter_ns() - t_start
        return RunReport(packets_in, forwarded, dropped, rewritten, duration,
                         dict(self.node_stats), dict(self.counters))

    def reset_stats(self):
        self.node_stats = {n: NodeStats(n) for n in NODE_NAMES}
        self.counters = dict.fromkeys(COUNTERS, 0)
