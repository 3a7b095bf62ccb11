"""Harness: traffic shapes, rule generators, scenario checks, CLI."""

import json
import os
import subprocess
import sys

import pytest

import refbuild as ref
from midbox import parse_command, parse_packet
from midbox.rulegen import (firewall_rules, mask_limit_rules,
                            stateful_rules, tcp_option_rules)
from midbox.scenarios import run_scenario
from midbox.traffic import (TrafficProfile, flow_packets, generate_traffic,
                            make_flows)


def test_single_flow_choreography():
    profile = TrafficProfile(flows=1, data_packets=10, seed=1)
    (flow,) = make_flows(profile)
    pkts = flow_packets(flow, profile)
    assert len(pkts) == 3 + 10 + 4
    flags = [ref.ref_read(p, "tcp-flags") for p in pkts]
    assert flags[0] & ref.SYN and not flags[0] & ref.ACK
    assert flags[1] & ref.SYN and flags[1] & ref.ACK
    assert flags[2] == ref.ACK
    assert all(f & ref.ACK for f in flags[3:13])
    assert flags[13] & ref.FIN and flags[15] & ref.FIN
    # data packets are MTU sized
    assert all(ref.ref_read(p, "ip-len") == 1500 for p in pkts[3:13])


def test_seven_flows_interleaved_and_wellformed():
    profile = TrafficProfile(flows=7, data_packets=5, seed=2)
    records = list(generate_traffic(profile))
    assert len(records) == 7 * (5 + 7)
    tuples = set()
    for data, _, _ in records:
        pkt = parse_packet(data)  # no parse errors
        t5 = pkt.five_tuple()
        tuples.add((min(t5[0], t5[1]), max(t5[0], t5[1]), t5[2] + t5[3]))
    assert len(tuples) == 7


def test_generated_traffic_reparses_and_verifies():
    profile = TrafficProfile(flows=3, data_packets=4, seed=3, options="all",
                             packet_bytes=300)
    for data, _, _ in generate_traffic(profile, 200):
        pkt = parse_packet(data)
        assert pkt.l4_kind == "TCP"
        assert ref.verify_packet_checksums(data)


def test_traffic_deterministic_under_seed():
    p = TrafficProfile(flows=4, data_packets=3, seed=9, options="syn")
    a = [r for r in generate_traffic(p, 100)]
    b = [r for r in generate_traffic(p, 100)]
    assert a == b


def test_firewall_rules_disjoint_from_traffic_space():
    lines = firewall_rules(200, seed=4)
    assert len(lines) == len(set(lines)) == 200
    for line in lines:
        rule = parse_command(line).rule
        for m in rule.matches:
            if m.field.name in ("ip-saddr", "ip-daddr"):
                addr = m.value[0]
                assert (addr >> 17) == (0xC6120000 >> 17)  # 198.18.0.0/15
                assert (addr >> 24) != 10


def test_stateful_rules_have_catchall():
    lines = stateful_rules(10, seed=5)
    assert len(lines) == 11
    assert all(line.startswith("mmb add-stateful") for line in lines)
    assert "10.0.0.0/8" in lines[-1]


def test_rule_generators_deterministic():
    assert firewall_rules(50, seed=6) == firewall_rules(50, seed=6)
    assert tcp_option_rules(50, seed=6) == tcp_option_rules(50, seed=6)
    assert mask_limit_rules(30, seed=6) == mask_limit_rules(30, seed=6)


def test_option_rule_values_disjoint_from_traffic_values():
    # traffic decorates with low-half values, rules draw from the high half
    for line in tcp_option_rules(100, seed=7):
        value = int(line.split()[-2])
        rule = parse_command(line).rule
        width = 0
        from midbox.traffic import OPTION_CATALOG
        kind = rule.matches[0].field.opt_kind
        width = dict(OPTION_CATALOG)[kind] * 8
        assert value >= 1 << (width - 1)


def test_mask_limit_rules_all_parse_distinct_masks():
    from midbox import RuleSetSnapshot
    rules = [parse_command(line).rule for line in mask_limit_rules(64, seed=8)]
    for i, rule in enumerate(rules, start=1):
        rule.id = i
    masks = set()
    for cr in RuleSetSnapshot(rules).by_id.values():
        masks.add((cr.shift, cr.mask))
    assert len(masks) == 64


def test_scenario_forward():
    rep = run_scenario("forward", packets=500, seed=1)
    assert rep.ok, rep.to_text()


def test_scenario_firewall():
    rep = run_scenario("firewall", rule_count=300, packets=2000, seed=2)
    assert rep.ok, rep.to_text()


def test_scenario_stateful():
    rep = run_scenario("stateful", rule_count=100, packets=2000, seed=3)
    assert rep.ok, rep.to_text()


def test_scenario_nat_small():
    rep = run_scenario("nat", flows=50, seed=4)
    assert rep.ok, rep.to_text()


def test_scenario_tcp_opts_small():
    rep = run_scenario("tcp-opts", rule_count=40, packets=1500, seed=5)
    assert rep.ok, rep.to_text()


def test_scenario_mask_limit_small():
    rep = run_scenario("mask-limit", packets=1200, seed=6,
                       mask_counts=(1, 4, 8))
    assert rep.ok, rep.to_text()
    assert len(rep.curve) == 3


def test_zero_counts_are_taken_as_given():
    """A count of 0 is 0, not the scenario's default; a count the scenario
    does not take is ignored."""
    rep = run_scenario("firewall", rule_count=0, packets=0, seed=2)
    assert rep.run["totals"]["packets_in"] == 0
    assert rep.checks["single_table"] == (False, "tables=0")
    rep = run_scenario("forward", packets=0, rule_count=5)
    assert rep.ok and rep.run["totals"]["packets_in"] == 0
    rep = run_scenario("forward", packets=10, flows=0)
    assert rep.ok and rep.run["totals"]["packets_in"] == 0
    rep = run_scenario("nat", flows=3, packets=0, rule_count=0, seed=4)
    assert rep.ok and len(rep.artifacts["ports"]) == 3


def test_traffic_count_zero_yields_nothing():
    assert list(generate_traffic(TrafficProfile(seed=1), 0)) == []
    assert len(list(generate_traffic(TrafficProfile(seed=1), 1))) == 1


def test_traffic_without_flows_ends(monkeypatch):
    """A profile without flows emits nothing and returns after its first
    generation, with a count or without one."""
    import midbox.traffic
    made = []
    real = midbox.traffic.make_flows

    def counted(profile):
        made.append(profile.seed)
        assert len(made) <= 3, "generations repeat without emitting a packet"
        return real(profile)
    monkeypatch.setattr(midbox.traffic, "make_flows", counted)
    assert list(generate_traffic(TrafficProfile(flows=0, seed=9), 5)) == []
    assert list(generate_traffic(TrafficProfile(flows=0, seed=9))) == []
    assert made == [9, 9]


def test_cli_scenario_with_report(tmp_path):
    from midbox.cli import main
    report = tmp_path / "rep.json"
    rc = main(["--scenario", "forward", "--packets", "300", "--seed", "3",
               "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["scenario"] == "forward" and data["ok"]


@pytest.mark.parametrize("run", ["scenario", "pcap"])
def test_cli_survives_a_reader_that_closed_early(tmp_path, run):
    """stdout is a pipe whose read end closed before the process started
    (`midbox ... | head` once head has exited): the run exits with its own
    status, and no traceback reaches stderr."""
    import midbox
    from midbox.pcap import write_pcap
    if run == "scenario":
        args = ["--scenario", "forward", "--packets", "10"]
    else:
        src = tmp_path / "in.pcap"
        write_pcap(src, 101, [(ref.tcp_packet(), 0, 0), (ref.udp_packet(), 0, 1)])
        args = ["--pcap-in", str(src)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(midbox.__file__)))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "midbox.cli", *args],
                              stdout=w, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(w)
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr


def test_cli_rules_file_and_pcap(tmp_path):
    from midbox.cli import main
    from midbox.pcap import read_pcap, write_pcap
    rules = tmp_path / "rules.txt"
    rules.write_text("mmb add tcp-dport 80 mod tcp-dport 443\n")
    src = tmp_path / "in.pcap"
    blobs = [ref.tcp_packet(dport=80), ref.tcp_packet(dport=99),
             ref.udp_packet()]
    write_pcap(src, 101, [(b, 0, i) for i, b in enumerate(blobs)])
    out = tmp_path / "out.pcap"
    rc = main(["--pcap-in", str(src), "--pcap-out", str(out),
               "--rules", str(rules)])
    assert rc == 0
    _, records = read_pcap(out)
    assert ref.ref_read(records[0][0], "tcp-dport") == 443
    assert records[1][0] == blobs[1]
    assert records[2][0] == blobs[2]
    assert ref.verify_packet_checksums(records[0][0])

@pytest.mark.parametrize("fault", ["link-type-113", "bad-magic", "truncated-record",
                                   "missing-file"])
def test_cli_bad_pcap_is_an_error_not_a_traceback(tmp_path, capsys, fault):
    from midbox.cli import main
    from midbox.pcap import write_pcap
    src = tmp_path / "in.pcap"
    write_pcap(src, 113 if fault == "link-type-113" else 101,
               [(ref.tcp_packet(), 0, 0), (ref.udp_packet(), 0, 1)])
    raw = src.read_bytes()
    if fault == "bad-magic":
        src.write_bytes(b"\x00" * 4 + raw[4:])
    elif fault == "truncated-record":
        src.write_bytes(raw[:-10])
    elif fault == "missing-file":
        src.unlink()
    rc = main(["--pcap-in", str(src), "--pcap-out", str(tmp_path / "out.pcap")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
