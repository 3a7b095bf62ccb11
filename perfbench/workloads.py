"""The four workloads: seeded inputs, one engine set-up, one timed pass, and
the correctness check of that pass.

Every workload builds its traffic and rules before anything is timed and
talks to the engine only through its public API: `Engine()`,
`Engine.add_commands`, `Engine.run_stream`, `Engine.execute_line`, and
`PcapReader`/`PcapWriter` on `fw-min`. None sets `EngineConfig.workers`,
and all use the default vector size of 256. README.md says why each
workload exists and which layers it stresses.
"""

import gc
import itertools
import os
import random
import re
from collections import Counter
from time import perf_counter_ns

from midbox import Engine
from midbox.pcap import PcapReader, PcapWriter
from midbox.rulegen import (SNAT_RULE, STRIP_EXCEPT_RULE, firewall_rules,
                            tcp_option_rules)

import wire
from measure import drive
from wire import ACK, FIN, PSH, SYN, quad, tcp_packet

VECTOR = 256  # the engine's default vector size, which the benchmark keeps

CLIENTS = (0x0A000000, 16)   # 10.0.0.0/16: fw-min, acl-churn and tcp-opts
SERVERS = (0x0A800000, 16)   # 10.128.0.0/16
RULE_NET = 0xC6120000  # 198.18.0.0/15, where generated rules live


def _rule_addr(rng):
    return RULE_NET + rng.randrange(1 << 17)


def _five_tuple_rule(saddr, daddr, sport, dport):
    """The field combination of rulegen.firewall_rules, so the rule lands in
    the same classification table."""
    return (f"mmb add ip-saddr {quad(saddr)} ip-daddr {quad(daddr)} "
            f"ip-proto tcp tcp-sport {sport} tcp-dport {dport} drop")


def _flows(rng, n, clients, servers, dports):
    """n (client, server, sport, dport) tuples with distinct client
    endpoints; `clients` and `servers` are (network, host bits)."""
    seen = set()
    out = []
    while len(out) < n:
        c = clients[0] + rng.randrange(1, (1 << clients[1]) - 1)
        sport = rng.randint(1024, 65535)
        if (c, sport) in seen:
            continue
        seen.add((c, sport))
        s = servers[0] + rng.randrange(1, (1 << servers[1]) - 1)
        out.append((c, s, sport, dports[rng.randrange(len(dports))]))
    return out


_ADDED = re.compile(r"added rule (\d+)")
_DELETED = re.compile(r"deleted rule \d+")


class Churn:
    """Alternating `mmb add` / `mmb del` of rules through execute_line. Each
    call is timed until it returns, by which point the new snapshot is
    published; the replies are checked after the timed pass."""

    def __init__(self, engine, lines, clock, tracer=None):
        self.execute = engine.execute_line
        if tracer is not None:
            self.execute = tracer.wrap("engine.execute_line", self.execute)
        self.lines = lines
        self.clock = clock
        self.next_line = 0
        self.pending = None  # id of the rule added by the previous step
        self.intervals = []  # wall-clock (start, end) of each update
        self.failures = []

    def step(self):
        if self.pending is None:
            line = self.lines[self.next_line % len(self.lines)]
            self.next_line += 1
        else:
            line = f"mmb del {self.pending}"
        t0 = perf_counter_ns()
        reply = self.execute(line)
        self.intervals.append((t0, perf_counter_ns()))
        if self.pending is None:
            m = _ADDED.fullmatch(reply)
            self.pending = int(m.group(1)) if m else None
            ok = m is not None
        else:
            self.pending = None
            ok = _DELETED.fullmatch(reply) is not None
        if not ok:
            self.failures.append((line, reply))

    def run_idle(self, min_steps=8, budget_s=0.25, max_steps=200):
        """Updates on an idle engine: at least `min_steps`,
        more while the budget lasts; always an even count, so the rule set
        ends as it began."""
        t_end = perf_counter_ns() + int(budget_s * 1e9)
        while len(self.intervals) < min_steps or (
                len(self.intervals) < max_steps and perf_counter_ns() < t_end):
            for _ in range(2):
                gc.collect()  # each update starts from the same collector state
                self.clock.mark()
                self.step()
        self.clock.mark()

    def ms(self):
        """Reference-host milliseconds of each update."""
        return [self.clock.scaled(a, b) / 1e6 for a, b in self.intervals]


def tables_and_slow_rules(engine):
    """(classification tables, maskless rules) from the `list tables` view."""
    m = re.match(r"(\d+) tables, (\d+) maskless rules",
                 engine.execute_line("list tables"))
    return (int(m.group(1)), int(m.group(2))) if m else (0, 0)


def _records(packets):
    return [(p, 0, i) for i, p in enumerate(packets)]


def _mismatches(expected, got):
    """Packets wrongly handled: each expected packet missing from `got` and
    each packet in `got` not expected, or, when both hold the same packets
    in another order, each position that differs."""
    if expected == got:
        return 0
    want, have = Counter(expected), Counter(got)
    wrong = sum((want - have).values()) + sum((have - want).values())
    return wrong or sum(a != b for a, b in zip(expected, got))


def _tally_errors(stream, n_in, n_forward):
    """How far the engine's RunReport totals are from the benchmark's own
    tally of the same pass."""
    r = stream.report
    return (abs(r.packets_in - n_in) + abs(r.forwarded - n_forward)
            + abs(r.dropped - (n_in - n_forward))
            + abs(len(stream.latencies) - n_forward))


class Trial:
    """One engine's timed pass: its streams and its rule updates."""

    def __init__(self, engine):
        self.engine = engine
        self.streams = []
        self.churn = None  # set by a workload that updates rules in-stream
        self.rss = 0       # resident bytes right after the traffic

    @property
    def packets(self):
        return sum(s.report.packets_in for s in self.streams)

    @property
    def pps(self):
        """Packets offered per reference-host second of timed region."""
        return self.packets * 1e9 / max(1, sum(s.ns for s in self.streams))

    @property
    def wall_clock_pps(self):
        return self.packets * 1e9 / max(1, sum(s.raw_ns for s in self.streams))


class FwMin:
    """Minimum-size TCP packets over a RAW pcap round trip against ~10K
    one-mask 5-tuple drop rules."""

    name = "fw-min"
    RULES = 10_000
    HIT_RULES = 200        # rules built from the benchmark's own flows
    FLOWS = 4096
    PACKETS = 120_000
    CORRUPT = 0.01         # share of packets with a bad IPv4 header checksum

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        flows = _flows(rng, self.FLOWS, CLIENTS, SERVERS, (22, 53, 80, 443))
        hit = sorted(rng.sample(range(self.FLOWS), self.HIT_RULES))
        generated = firewall_rules(self.RULES - self.HIT_RULES + 16, seed)
        self.rules = generated[:-16] + [_five_tuple_rule(*flows[f]) for f in hit]
        self.churn_lines = generated[-16:]
        hit = set(hit)
        seq = [rng.randrange(1 << 32) for _ in flows]
        packets = []
        self.expected = []
        corrupted = 0
        for i in range(self.PACKETS):
            f = rng.randrange(self.FLOWS)
            seq[f] += 1
            p = tcp_packet(*flows[f], seq=seq[f], ack=1, ip_id=i)
            if rng.random() < self.CORRUPT:
                p = wire.corrupt_ip_checksum(p)
                corrupted += 1
            elif f not in hit:
                self.expected.append(p)
            packets.append(p)
        self.pcap_in = os.path.join(workdir, "fw-min-in.pcap")
        self.pcap_out = os.path.join(workdir, "fw-min-out.pcap")
        wire.write_pcap(self.pcap_in, packets)
        self.counts = {"packets": self.PACKETS, "packet_bytes": 40,
                       "rules": len(self.rules), "hit_rules": self.HIT_RULES,
                       "flows": self.FLOWS, "corrupted": corrupted,
                       "expected_forwarded": len(self.expected)}
        self.stream_capacity = self.PACKETS

    def setup(self):
        engine = Engine()
        engine.add_commands(self.rules)
        return engine

    def run(self, engine, rec, clock, tracer=None):
        trial = Trial(engine)
        reader = PcapReader(self.pcap_in)
        engine.config.link_type = reader.link_type  # as the CLI does
        writer = PcapWriter(self.pcap_out, reader.link_type)
        records, write = reader, writer.write
        if tracer is not None:
            records = iter(tracer.wrap("pcap.read", reader.__next__), None)
            write = tracer.wrap("pcap.write", write)
        try:
            trial.streams.append(drive(engine, records, rec, clock, write=write,
                                       tracer=tracer))
        finally:
            reader.close()
            writer.close()
        return trial

    def check(self, trial):
        s = trial.streams[0]
        return (_mismatches(self.expected, wire.read_pcap(self.pcap_out))
                + _tally_errors(s, self.PACKETS, len(self.expected)))


# Full-byte fixed fields with disjoint spans: every 5-subset is its own mask.
MASK_FIELDS = [("ip-saddr", "addr"), ("ip-daddr", "addr"), ("ip-proto", "proto"),
               ("ip-ttl", 8), ("ip-id", 16), ("ip-len", 16),
               ("tcp-sport", 16), ("tcp-dport", 16), ("tcp-seq", 32),
               ("tcp-ack-num", 32), ("tcp-win", 16)]


class AclChurn:
    """576 B packets that miss 64 masks of rules, with a rule added or
    deleted through execute_line every few vectors."""

    name = "acl-churn"
    MASKS = 64
    RULES_PER_MASK = 16
    FLOWS = 1024
    PACKETS = 60_000
    PACKET_BYTES = 576
    CHURN_VECTORS = 8      # one rule update per this many vectors

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        # Each combination holds an address in 198.18.0.0/15, which the
        # 10.0.0.0/8 traffic never carries, so no rule can match. The masks
        # are the same for every seed; the seed picks the rules' values.
        combos = [c for c in itertools.combinations(MASK_FIELDS, 5)
                  if any(kind == "addr" for _, kind in c)]
        combos = combos[::len(combos) // self.MASKS][:self.MASKS]
        self.rules = [self._rule(rng, c) for c in combos
                      for _ in range(self.RULES_PER_MASK)]
        self.churn_lines = [self._rule(rng, c) for c in combos]
        flows = _flows(rng, self.FLOWS, CLIENTS, SERVERS, (80, 443, 8080))
        seq = [rng.randrange(1 << 32) for _ in flows]
        payload = bytes(self.PACKET_BYTES - 40)
        self.packets = []
        for i in range(self.PACKETS):
            f = rng.randrange(self.FLOWS)
            self.packets.append(tcp_packet(*flows[f], seq=seq[f], ack=1,
                                           flags=ACK | PSH, payload=payload,
                                           ip_id=i))
            seq[f] += len(payload)
        self.records = _records(self.packets)
        self.counts = {"packets": self.PACKETS, "packet_bytes": self.PACKET_BYTES,
                       "rules": len(self.rules), "masks": self.MASKS,
                       "flows": self.FLOWS,
                       "update_every_packets": self.CHURN_VECTORS * VECTOR}
        self.stream_capacity = self.PACKETS

    @staticmethod
    def _rule(rng, combo):
        has_tcp = any(name.startswith("tcp-") for name, _ in combo)
        parts = ["mmb add"]
        for name, kind in combo:
            if kind == "addr":
                parts.append(f"{name} {quad(_rule_addr(rng))}")
            elif kind == "proto":
                parts.append(f"{name} {'tcp' if has_tcp else 47}")
            else:
                parts.append(f"{name} {rng.randrange(1 << kind)}")
        parts.append("drop")
        return " ".join(parts)

    def setup(self):
        engine = Engine()
        engine.add_commands(self.rules)
        return engine

    def run(self, engine, rec, clock, tracer=None):
        trial = Trial(engine)
        trial.churn = Churn(engine, self.churn_lines, clock, tracer)
        trial.streams.append(drive(engine, self.records, rec, clock,
                                   between=trial.churn.step,
                                   period=self.CHURN_VECTORS * VECTOR,
                                   tracer=tracer))
        if trial.churn.pending is not None:
            trial.churn.step()  # delete the last added rule
        return trial

    def check(self, trial):
        s = trial.streams[0]
        failed = _mismatches(self.packets, s.outputs)
        failed += _tally_errors(s, self.PACKETS, self.PACKETS)
        return failed + abs(tables_and_slow_rules(trial.engine)[0] - self.MASKS)


NAT_PUBLIC = 0xC8000001          # 200.0.0.1, the address in rulegen.SNAT_RULE
NAT_PORTS = (1024, 65535)        # EngineConfig's default shuffle range
NAT_CLIENTS = (0x0A000000, 8)    # 10.0.0.0/24, the SNAT rule's match
NAT_SERVERS = (0xC6336400, 8)    # 198.51.100.0/24


class Nat:
    """The paper's SNAT rule over thousands of concurrent flows; the
    benchmark plays both endpoints in phases."""

    name = "nat"
    FLOWS = 4096
    DATA_PACKETS = 2       # client data packets per flow, each acked
    PACKET_BYTES = 1500

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.flows = _flows(rng, self.FLOWS, NAT_CLIENTS, NAT_SERVERS, (80,))
        # Same mask as the SNAT rule, for a client network with no traffic.
        self.churn_lines = [SNAT_RULE.replace("10.0.0.0/24", "10.0.1.0/24")]
        self.isn = [(rng.randrange(1 << 31), rng.randrange(1 << 31))
                    for _ in self.flows]
        payload = bytes(rng.randrange(256) for _ in range(self.PACKET_BYTES - 40))
        d = len(payload)
        # Client-side packets do not depend on the engine; server replies
        # carry the translated port and are built between phases.
        self.phases = [("fwd", self._client(SYN, 0, 0))]
        self.phases.append(("rev", (SYN | ACK, 0, 1)))
        self.phases.append(("fwd", self._client(ACK, 1, 1)))
        for j in range(self.DATA_PACKETS):
            self.phases.append(("fwd", self._client(ACK | PSH, 1 + j * d, 1, payload)))
            self.phases.append(("rev", (ACK, 1, 1 + (j + 1) * d)))
        end = 1 + self.DATA_PACKETS * d
        self.phases.append(("fwd", self._client(FIN | ACK, end, 1)))
        self.phases.append(("rev", (FIN | ACK, 1, end + 1)))
        self.phases.append(("fwd", self._client(ACK, end + 1, 2)))
        self.counts = {"flows": self.FLOWS, "phases": len(self.phases),
                       "packets": self.FLOWS * len(self.phases),
                       "data_packet_bytes": self.PACKET_BYTES,
                       "data_packets_per_flow": self.DATA_PACKETS, "rules": 1}
        self.stream_capacity = self.FLOWS

    def _client(self, flags, seq_off, ack_off, payload=b""):
        return [tcp_packet(c, s, sp, dp, seq=isc + seq_off,
                           ack=iss + ack_off if flags != SYN else 0,
                           flags=flags, payload=payload)
                for (c, s, sp, dp), (isc, iss) in zip(self.flows, self.isn)]

    def _server(self, flags, seq_off, ack_off, ports):
        return [tcp_packet(s, NAT_PUBLIC, dp, port or 0, seq=iss + seq_off,
                           ack=isc + ack_off, flags=flags)
                for (c, s, sp, dp), (isc, iss), port
                in zip(self.flows, self.isn, ports)]

    def setup(self):
        engine = Engine()
        engine.add_commands([SNAT_RULE])
        return engine

    def run(self, engine, rec, clock, tracer=None):
        trial = Trial(engine)
        trial.inputs = []
        ports = [None] * self.FLOWS
        for direction, spec in self.phases:
            packets = spec if direction == "fwd" else self._server(*spec, ports)
            records = _records(packets)
            s = drive(engine, records, rec, clock, tracer=tracer)
            trial.streams.append(s)
            trial.inputs.append((direction, packets))
            if len(trial.streams) == 1:  # the SYNs: learn each flow's port
                for i, out in zip(s.ids, s.outputs):
                    ports[i] = wire.tuple4(out)[2]
        trial.ports = ports
        return trial

    def check(self, trial):
        ports = trial.ports
        lo, hi = NAT_PORTS
        failed = sum(1 for p in ports if p is None or not lo <= p <= hi)
        failed += len(ports) - len(set(ports))
        for (direction, packets), s in zip(trial.inputs, trial.streams):
            failed += _tally_errors(s, len(packets), len(packets))
            for i, out in zip(s.ids, s.outputs):
                c, _, sport, _ = self.flows[i]
                if direction == "fwd":
                    want = wire.with_tuple(packets[i], saddr=NAT_PUBLIC,
                                           sport=ports[i])
                else:
                    want = wire.with_tuple(packets[i], daddr=c, dport=sport)
                failed += out != want
        return failed


# (kind, payload length) of the options tcp-opts traffic carries; values
# come from the low half of each option's value space, and
# rulegen.tcp_option_rules draws its values from the high half.
OPTIONS = [(2, 2), (3, 1), (4, 0), (8, 8), (6, 4), (7, 4),
           (11, 2), (12, 2), (13, 2), (30, 4), (34, 4)]
STRIP_TRIGGER = 8                # tcp-opt-timestamp
STRIP_KEEP = frozenset((2, 3))   # tcp-opt-mss, tcp-opt-wscale


class TcpOpts:
    """Option-carrying 200 B packets against 100 maskless option-value
    rules and the timestamp-triggered whitelist strip."""

    name = "tcp-opts"
    RULES = 100
    FLOWS = 256
    PACKETS = 20_000
    PACKET_BYTES = 200
    MAX_OPTIONS = 5

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.rules = tcp_option_rules(self.RULES, seed) + [STRIP_EXCEPT_RULE]
        self.churn_lines = tcp_option_rules(16, seed + 1)
        flows = _flows(rng, self.FLOWS, CLIENTS, SERVERS, (80, 443))
        seq = [rng.randrange(1 << 32) for _ in flows]
        self.packets = []
        self.expected = []
        stripped = 0
        for i in range(self.PACKETS):
            f = rng.randrange(self.FLOWS)
            opts = self._options(rng)
            room = self.PACKET_BYTES - 40 - len(opts) - (-len(opts)) % 4
            p = tcp_packet(*flows[f], seq=seq[f], ack=1, flags=ACK | PSH,
                           options=opts, payload=bytes(room), ip_id=i)
            seq[f] += room
            self.packets.append(p)
            if any(k == STRIP_TRIGGER for k, _ in wire.tcp_options(p)):
                self.expected.append(wire.strip_options_except(p, STRIP_KEEP))
                stripped += 1
            else:
                self.expected.append(p)
        self.records = _records(self.packets)
        self.counts = {"packets": self.PACKETS, "packet_bytes": self.PACKET_BYTES,
                       "rules": len(self.rules), "flows": self.FLOWS,
                       "stripped": stripped}
        self.stream_capacity = self.PACKETS

    def _options(self, rng):
        out = b""
        for kind, plen in rng.sample(OPTIONS, rng.randint(1, self.MAX_OPTIONS)):
            value = rng.randrange(1 << (8 * plen - 1)) if plen else 0
            out += bytes((kind, 2 + plen)) + value.to_bytes(plen, "big")
        return out

    def setup(self):
        engine = Engine()
        engine.add_commands(self.rules)
        return engine

    def run(self, engine, rec, clock, tracer=None):
        trial = Trial(engine)
        trial.streams.append(drive(engine, self.records, rec, clock, tracer=tracer))
        return trial

    def check(self, trial):
        s = trial.streams[0]
        failed = _mismatches(self.expected, s.outputs)
        failed += sum(not wire.well_formed(p) for p in s.outputs)
        return failed + _tally_errors(s, self.PACKETS, self.PACKETS)


WORKLOADS = {w.name: w for w in (FwMin, AclChurn, Nat, TcpOpts)}
