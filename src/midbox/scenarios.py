"""Benchmark scenarios: forward, firewall, stateful, nat, tcp-opts,
mask-limit. Each builds a deterministic rule set and traffic profile, runs
the pipeline, and reports per-node costs plus scenario-specific checks.
"""

import inspect
from dataclasses import dataclass, field
from itertools import islice
from statistics import median

from .errors import MalformedOption
from .fields import ACK, FIN, SYN
from .packet import parse_packet, tcp_options, verify_checksums
from .pipeline import DISP_DROP, Engine, EngineConfig
from .rulegen import (SNAT_RULE, STRIP_EXCEPT_RULE, firewall_rules,
                      mask_limit_rules, stateful_rules, tcp_option_rules)
from .traffic import TrafficProfile, build_ipv4_tcp, generate_traffic, make_flows

NAT_PUBLIC_ADDR = 0xC8000001  # 200.0.0.1
NAT_SPORT_RANGE = (1024, 65535)
# packets per mask-limit round, rounded down to whole vectors
_ROUND_PACKETS = 2048


@dataclass
class ScenarioReport:
    scenario: str
    seed: int
    checks: dict
    run: dict | None = None
    curve: list | None = None
    artifacts: dict = field(default_factory=dict)

    @property
    def ok(self):
        return all(ok for ok, _ in self.checks.values())

    def to_text(self):
        lines = [f"scenario {self.scenario} seed={self.seed} "
                 f"{'PASS' if self.ok else 'FAIL'}"]
        for name, (ok, detail) in self.checks.items():
            lines.append(f"  check {name}: {'ok' if ok else 'FAIL'} ({detail})")
        if self.curve is not None:
            for n, cost in self.curve:
                lines.append(f"  masks={n} ns/packet={cost:.0f}")
        if self.run is not None:
            t = self.run["totals"]
            lines.append(f"  packets={t['packets_in']} forwarded={t['forwarded']} "
                         f"dropped={t['dropped']} pps={t['pps']:.0f}")
            for n in self.run["nodes"]:
                lines.append(f"  node {n['name']}: packets={n['packets']} "
                             f"ns/packet={n['ns_per_packet']:.1f}")
        return "\n".join(lines)

    def to_json_dict(self):
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "ok": self.ok,
            "checks": {k: {"ok": ok, "detail": d}
                       for k, (ok, d) in self.checks.items()},
            "run": self.run,
            "curve": self.curve,
        }


def _engine(vector_size, seed):
    return Engine(EngineConfig(vector_size=vector_size, shuffle_seed=seed))


def scenario_forward(packets=2000, flows=7, seed=0, vector_size=256):
    engine = _engine(vector_size, seed)
    profile = TrafficProfile(flows=flows, seed=seed)
    inputs = list(generate_traffic(profile, packets))
    out = []
    report = engine.run_stream(iter(inputs), out)
    checks = {
        "all_forwarded": (report.forwarded == report.packets_in,
                          f"{report.forwarded}/{report.packets_in}"),
        "no_drops": (report.dropped == 0, f"dropped={report.dropped}"),
        "passthrough_identical": ([b for b, _, _ in inputs] == out,
                                  "output bytes vs input bytes"),
    }
    return ScenarioReport("forward", seed, checks, report.to_json_dict(),
                          artifacts={"outputs": out})


def scenario_firewall(rule_count=1000, packets=20000, flows=7, seed=0,
                      vector_size=256):
    engine = _engine(vector_size, seed)
    engine.add_commands(firewall_rules(rule_count, seed))
    profile = TrafficProfile(flows=flows, seed=seed)
    report = engine.run_stream(generate_traffic(profile, packets))
    checks = {
        "single_table": (len(engine.snapshot.tables) == 1,
                         f"tables={len(engine.snapshot.tables)}"),
        "zero_matches": (report.rewritten == 0 and
                         report.counters["verdict_drops"] == 0,
                         f"rewritten={report.rewritten} "
                         f"drops={report.counters['verdict_drops']}"),
        "all_forwarded": (report.forwarded == report.packets_in,
                          f"{report.forwarded}/{report.packets_in}"),
    }
    return ScenarioReport("firewall", seed, checks, report.to_json_dict())


def scenario_stateful(rule_count=1000, packets=20000, flows=7, seed=0,
                      vector_size=256):
    engine = _engine(vector_size, seed)
    engine.add_commands(stateful_rules(rule_count, seed))
    profile = TrafficProfile(flows=flows, seed=seed)
    report = engine.run_stream(generate_traffic(profile, packets))
    tracked = len(engine.conn)
    checks = {
        "all_matched": (report.rewritten == report.packets_in,
                        f"{report.rewritten}/{report.packets_in}"),
        "flows_tracked": (tracked >= min(flows, packets),
                          f"entries={tracked}"),
        "no_drops": (report.dropped == 0, f"dropped={report.dropped}"),
    }
    return ScenarioReport("stateful", seed, checks, report.to_json_dict())


def _run_phase(engine, raw_packets, vector_size):
    """Parse and push one choreography phase through the pipeline in
    vectors; returns [(pkt, disposition)]."""
    results = []
    for i in range(0, len(raw_packets), vector_size):
        chunk = [parse_packet(b) for b in raw_packets[i:i + vector_size]]
        results.extend(engine.run_vector(chunk))
    return results


def scenario_nat(flows=1000, data_packets=2, seed=0, vector_size=256):
    """SNAT with port translation driven by the canonical single rule; the
    scenario plays both endpoints and bounces each flow's packets through
    the engine in phases."""
    engine = _engine(vector_size, seed)
    engine.add_commands([SNAT_RULE])
    profile = TrafficProfile(flows=flows, seed=seed,
                             client_net=(0x0A000000, 24),
                             server_net=(0xC6336400, 24),  # 198.51.100.0/24
                             server_port=80, options="none")
    specs = make_flows(profile)

    lo, hi = NAT_SPORT_RANGE
    payload = b"\x42" * 100
    emitted = []
    state = [{"f": f, "seq_c": f.isn_c, "seq_s": f.isn_s, "tsp": None}
             for f in specs]
    fwd_total = fwd_ok = rev_total = rev_ok = 0
    csum_ok = 0
    drops = 0

    def run_fwd(builder):
        nonlocal fwd_total, fwd_ok, csum_ok, drops
        raw = [builder(st) for st in state]
        for st, (pkt, disp) in zip(state, _run_phase(engine, raw, vector_size)):
            if disp == DISP_DROP:
                drops += 1
                continue
            fwd_total += 1
            t5 = pkt.five_tuple()
            if st["tsp"] is None and t5[2] != st["f"].sport:
                st["tsp"] = t5[2]
            if (t5[0] == NAT_PUBLIC_ADDR and lo <= t5[2] <= hi
                    and t5[2] == st["tsp"]
                    and t5[1] == st["f"].server and t5[3] == st["f"].dport):
                fwd_ok += 1
            if verify_checksums(pkt):
                csum_ok += 1
            emitted.append(pkt.to_bytes())

    def run_rev(builder):
        nonlocal rev_total, rev_ok, csum_ok, drops
        raw = [builder(st) for st in state]
        for st, (pkt, disp) in zip(state, _run_phase(engine, raw, vector_size)):
            if disp == DISP_DROP:
                drops += 1
                continue
            rev_total += 1
            t5 = pkt.five_tuple()
            f = st["f"]
            if (t5[0] == f.server and t5[1] == f.client
                    and t5[2] == f.dport and t5[3] == f.sport):
                rev_ok += 1
            if verify_checksums(pkt):
                csum_ok += 1
            emitted.append(pkt.to_bytes())

    # handshake
    run_fwd(lambda st: build_ipv4_tcp(
        st["f"].client, st["f"].server, st["f"].sport, st["f"].dport,
        st["seq_c"], 0, SYN))
    run_rev(lambda st: build_ipv4_tcp(
        st["f"].server, NAT_PUBLIC_ADDR, st["f"].dport, st["tsp"],
        st["seq_s"], st["seq_c"] + 1, SYN | ACK))
    for st in state:
        st["seq_c"] += 1
        st["seq_s"] += 1
    run_fwd(lambda st: build_ipv4_tcp(
        st["f"].client, st["f"].server, st["f"].sport, st["f"].dport,
        st["seq_c"], st["seq_s"], ACK))

    # client data, server acks
    for _ in range(data_packets):
        run_fwd(lambda st: build_ipv4_tcp(
            st["f"].client, st["f"].server, st["f"].sport, st["f"].dport,
            st["seq_c"], st["seq_s"], ACK, payload=payload))
        for st in state:
            st["seq_c"] += len(payload)
        run_rev(lambda st: build_ipv4_tcp(
            st["f"].server, NAT_PUBLIC_ADDR, st["f"].dport, st["tsp"],
            st["seq_s"], st["seq_c"], ACK))

    # teardown
    run_fwd(lambda st: build_ipv4_tcp(
        st["f"].client, st["f"].server, st["f"].sport, st["f"].dport,
        st["seq_c"], st["seq_s"], FIN | ACK))
    run_rev(lambda st: build_ipv4_tcp(
        st["f"].server, NAT_PUBLIC_ADDR, st["f"].dport, st["tsp"],
        st["seq_s"], st["seq_c"] + 1, FIN | ACK))
    run_fwd(lambda st: build_ipv4_tcp(
        st["f"].client, st["f"].server, st["f"].sport, st["f"].dport,
        st["seq_c"] + 1, st["seq_s"] + 1, ACK))

    ports = [st["tsp"] for st in state]
    total = fwd_total + rev_total
    checks = {
        "forward_translated": (fwd_ok == fwd_total and fwd_total > 0,
                               f"{fwd_ok}/{fwd_total}"),
        "reverse_restored": (rev_ok == rev_total and rev_total > 0,
                             f"{rev_ok}/{rev_total}"),
        "checksums_valid": (csum_ok == total, f"{csum_ok}/{total}"),
        "ports_unique": (None not in ports and len(set(ports)) == len(ports),
                         f"{len(set(p for p in ports if p is not None))}/{len(ports)}"),
        "no_drops": (drops == 0, f"dropped={drops}"),
    }
    return ScenarioReport("nat", seed, checks,
                          artifacts={"emitted": emitted, "ports": ports})


def _option_kinds(data):
    pkt = parse_packet(data)
    if pkt.l4_kind != "TCP":
        return None
    opts = tcp_options(pkt)
    if opts is None:
        raise MalformedOption("malformed TCP option area")
    return [kind for kind, _ in opts]


def scenario_tcp_opts(rule_count=100, packets=10000, flows=7, seed=0,
                      vector_size=256, include_strip=True, packet_bytes=200):
    """TCP option matching and mangling: random option-valued rules (drawn
    from the opposite value space as the traffic, so they never match) plus
    the timestamp-triggered whitelist strip rule."""
    engine = _engine(vector_size, seed)
    rules = tcp_option_rules(rule_count, seed)
    if include_strip:
        rules.append(STRIP_EXCEPT_RULE)
    engine.add_commands(rules)
    profile = TrafficProfile(flows=flows, seed=seed, options="all",
                             option_value_space="lo",
                             packet_bytes=packet_bytes)
    inputs = [b for b, _, _ in generate_traffic(profile, packets)]
    out = []
    report = engine.run_stream(((b, 0, i) for i, b in enumerate(inputs)), out)

    strip_ok = strip_seen = untouched_ok = untouched_total = reparse_ok = 0
    for inp, outp in zip(inputs, out):
        kinds_in = _option_kinds(inp)
        try:
            kinds_out = _option_kinds(outp)
            reparse_ok += 1
        except MalformedOption:
            continue
        if include_strip and kinds_in is not None and 8 in kinds_in:
            strip_seen += 1
            if kinds_out == [k for k in kinds_in if k in (2, 3)]:
                strip_ok += 1
        else:
            untouched_total += 1
            if outp == inp:
                untouched_ok += 1

    checks = {
        "no_drops": (report.dropped == 0, f"dropped={report.dropped}"),
        "reparse_valid": (reparse_ok == len(out), f"{reparse_ok}/{len(out)}"),
        "strip_whitelist": (strip_ok == strip_seen,
                            f"{strip_ok}/{strip_seen} timestamp packets"),
        "others_untouched": (untouched_ok == untouched_total,
                             f"{untouched_ok}/{untouched_total}"),
    }
    return ScenarioReport("tcp-opts", seed, checks, report.to_json_dict(),
                          artifacts={"inputs": inputs, "outputs": out})


def scenario_mask_limit(mask_counts=(1, 8, 26, 40, 64), packets=30000,
                        flows=7, seed=0, vector_size=256):
    """Cost curve over the number of distinct masks, one table per rule.
    Every engine is built first; then each round of traffic (whole vectors,
    about _ROUND_PACKETS packets) goes through all of them, the engine that
    goes first rotating from round to round, so host noise falls on every
    mask count alike. A mask count's cost is its median round cost."""
    engines = []
    for n in mask_counts:
        engine = _engine(vector_size, seed)
        engine.add_commands(mask_limit_rules(n, seed))
        engines.append(engine)
    tables_ok = all(len(e.snapshot.tables) == n
                    for e, n in zip(engines, mask_counts))
    costs = [[] for _ in engines]
    per_round = vector_size * max(1, _ROUND_PACKETS // vector_size)
    traffic = generate_traffic(TrafficProfile(flows=flows, seed=seed), packets)
    first = 0
    while chunk := list(islice(traffic, per_round)):
        for k in range(len(engines)):
            i = (first + k) % len(engines)
            costs[i].append(engines[i].run_stream(iter(chunk)).engine_ns_per_packet)
        first += 1
    curve = [(n, median(c) if c else 0.0) for n, c in zip(mask_counts, costs)]
    checks = {
        "one_table_per_rule": (tables_ok, f"counts={list(mask_counts)}"),
    }
    return ScenarioReport("mask-limit", seed, checks, curve=curve)


_SCENARIOS = {"forward": scenario_forward, "firewall": scenario_firewall,
              "stateful": scenario_stateful, "nat": scenario_nat,
              "tcp-opts": scenario_tcp_opts, "mask-limit": scenario_mask_limit}
SCENARIO_NAMES = tuple(_SCENARIOS)


def run_scenario(name, rule_count=None, packets=None, flows=None, seed=0,
                 vector_size=256, **kw):
    """Dispatch by scenario name. A count left None takes the scenario's
    own default, and one the scenario does not take is ignored."""
    scenario = _SCENARIOS.get(name)
    if scenario is None:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    takes = inspect.signature(scenario).parameters
    given = dict(kw, rule_count=rule_count, packets=packets, flows=flows)
    return scenario(seed=seed, vector_size=vector_size,
                    **{k: v for k, v in given.items() if v is not None and k in takes})
