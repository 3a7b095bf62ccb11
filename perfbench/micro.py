"""Layer micro-benchmarks: one layer function called in a tight loop on
fixed inputs, reported as the median over a few repeats."""

import random
from time import perf_counter_ns

from midbox import ConnTable, RuleSetSnapshot, parse_command, parse_packet
from midbox.packet import checksum16
from midbox.rulegen import SNAT_RULE, firewall_rules

import wire

REPEATS = 5


def _ns_per_call(fn, args_list):
    """Median over REPEATS of the mean ns per call of fn(*args)."""
    samples = []
    for _ in range(REPEATS):
        t0 = perf_counter_ns()
        for args in args_list:
            fn(*args)
        samples.append((perf_counter_ns() - t0) / len(args_list))
    return sorted(samples)[REPEATS // 2]


def _packet(rng, size):
    return wire.tcp_packet(0x0A000001, 0xC6336401, 40000, 80,
                           seq=rng.randrange(1 << 32), payload=bytes(size - 40))


def micro_metrics(seed):
    rng = random.Random(seed)
    out = {}
    for size in (64, 576, 1500):
        data = [(bytes(rng.randrange(256) for _ in range(size)),)] * 2000
        out[f"packet.checksum16_ns.{size}"] = (_ns_per_call(checksum16, data), "ns")
    for size in (40, 576, 1500):
        data = [(_packet(rng, size),)] * 2000
        out[f"packet.parse_packet_ns.{size}"] = (_ns_per_call(parse_packet, data), "ns")

    # A few thousand SNAT flows: inserts into fresh tables, then lookups of
    # the same packets, which all hit.
    rule = parse_command(SNAT_RULE).rule
    rule.id = 1
    flows = rng.sample(range(1 << 16), 4096)
    syns = [parse_packet(wire.tcp_packet(0x0A000000 + 1 + f % 254, 0xC6336401,
                                         1024 + f // 254, 80, flags=wire.SYN))
            for f in flows]
    samples = []
    for _ in range(REPEATS):
        table = ConnTable()
        t0 = perf_counter_ns()
        for p in syns:
            table.insert(p, rule, 0.0)
        samples.append((perf_counter_ns() - t0) / len(syns))
    out["conntrack.insert_micro_ns"] = (sorted(samples)[REPEATS // 2], "ns")
    out["conntrack.lookup_micro_ns"] = (
        _ns_per_call(table.lookup, [(p, 0.0) for p in syns]), "ns")

    for n, repeats in ((1000, 3), (10_000, 1)):
        rules = []
        for i, line in enumerate(firewall_rules(n, seed), 1):
            r = parse_command(line).rule
            r.id = i
            rules.append(r)
        samples = []
        for _ in range(repeats):
            t0 = perf_counter_ns()
            RuleSetSnapshot(rules, 1)
            samples.append((perf_counter_ns() - t0) / 1e6)
        out[f"classifier.snapshot_build_ms.{n}"] = (sorted(samples)[repeats // 2], "ms")
    return out
