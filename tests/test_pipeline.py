"""Pipeline: vector dispatch, snapshots, conservation, reports, REPL glue."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import refbuild as ref
from midbox import CommandError, ETHERNET, RAW_IP, Engine, EngineConfig, parse_packet
from midbox.pcap import write_pcap
from midbox.pipeline import COUNTERS, DISP_DROP, DISP_FORWARD, DISP_REWRITTEN
from midbox.rulegen import SNAT_RULE, firewall_rules


def fresh_engine(**kw):
    return Engine(EngineConfig(**kw))


def corpus(seed, n):
    rng = random.Random(seed)
    return [oracle.random_pool_packet(rng) for _ in range(n)]


def as_source(blobs):
    return ((b, 0, i) for i, b in enumerate(blobs))


def test_nonmatching_vector_all_forward():
    engine = fresh_engine()
    engine.add_commands(firewall_rules(50, seed=1))
    pkts = [parse_packet(b) for b in corpus(2, 256)]
    results = engine.run_vector(pkts)
    assert len(results) == 256
    assert all(d == DISP_FORWARD for _, d in results)


def test_batch_single_equivalence():
    blobs = corpus(3, 600)
    lines = oracle.random_ruleset(random.Random(4), 80)
    outputs = {}
    for V in (1, 4, 64, 256):
        engine = fresh_engine(vector_size=V)
        engine.add_commands(lines)
        out = []
        report = engine.run_stream(as_source(blobs), out)
        outputs[V] = (out, report.forwarded, report.dropped, report.rewritten)
    baseline = outputs[1]
    for V in (4, 64, 256):
        assert outputs[V] == baseline, f"vector size {V} diverged"


def test_snapshot_swaps_between_vectors():
    engine = fresh_engine(vector_size=4)
    data = ref.tcp_packet(dport=80)
    before = engine.run_vector([parse_packet(data) for _ in range(4)])
    assert all(d == DISP_FORWARD for _, d in before)
    snap_before = engine.snapshot
    engine.add_commands(["mmb add tcp-dport 80 drop"])
    assert engine.snapshot is not snap_before
    after = engine.run_vector([parse_packet(data) for _ in range(4)])
    assert all(d == DISP_DROP for _, d in after)


@pytest.mark.parametrize("V", [1, 4, 256])
def test_rule_changes_from_the_source_land_between_vectors(V):
    """Commands the source runs between pulls take effect for whole
    vectors: each vector follows the rule set in force when it ran, even
    when some of its packets were pulled before the change."""
    engine = fresh_engine(vector_size=V)
    data = ref.tcp_packet(dport=80)
    ran = []  # (drop rule installed, dispositions) of each vector
    run_vector = engine.run_vector

    def recording_run_vector(pkts, now=None):
        installed = bool(engine.rules)
        out = run_vector(pkts, now)
        ran.append((installed, [d for _, d in out]))
        return out
    engine.run_vector = recording_run_vector

    def source():
        for i in range(600):
            if i == 200:
                reply = engine.execute_line("mmb add tcp-dport 80 drop")
                rid = int(reply.rsplit(" ", 1)[1])
            elif i == 450:
                assert engine.execute_line(f"mmb del {rid}") == f"deleted rule {rid}"
            yield data, 0, i

    report = engine.run_stream(source())
    assert report.packets_in == 600
    assert sum(len(d) for _, d in ran) == 600
    for installed, disps in ran:
        assert disps == [DISP_DROP if installed else DISP_FORWARD] * len(disps)
    assert {installed for installed, _ in ran} == {True, False}
    assert report.dropped == sum(len(d) for installed, d in ran if installed)


def test_packet_conservation_and_node_invariant():
    engine = fresh_engine()
    engine.add_commands([
        "mmb add tcp-dport 80 drop",
        "mmb add tcp-dport 443 mod tcp-win 99",
    ])
    blobs = corpus(5, 3000)
    report = engine.run_stream(as_source(blobs))
    assert report.packets_in == 3000
    assert report.forwarded + report.dropped == report.packets_in
    c = report.node_stats["classify"]
    miss_forward = report.forwarded - report.rewritten
    assert c.packets == report.counters["verdict_drops"] + report.rewritten \
        + miss_forward
    assert c.packets == report.node_stats["drop"].packets + \
        report.node_stats["rewrite"].packets + miss_forward


def test_input_and_output_time_once_per_vector():
    engine = fresh_engine()
    engine.add_commands(["mmb add tcp-dport 443 mod tcp-win 99"])
    report = engine.run_stream(as_source(corpus(5, 3000)))
    assert report.counters["parse_error_drops"] == 0
    nodes = report.node_stats
    assert nodes["classify"].vectors == -(-3000 // 256)
    assert nodes["input"].vectors == nodes["output"].vectors == \
        nodes["classify"].vectors
    assert nodes["input"].packets == report.packets_in
    assert nodes["output"].packets == report.forwarded


def test_lowest_id_stateful_rule_owns_new_connection():
    # rule 1 is maskless, rule 2 sits in a table that is probed first
    engine = fresh_engine()
    engine.execute_line("mmb add-stateful tcp-dport >= 1 mod ip-saddr 1.1.1.1")
    engine.execute_line("mmb add-stateful ip-proto tcp tcp-dport 80 "
                        "mod ip-saddr 2.2.2.2")
    out = []
    engine.run_stream(as_source([ref.tcp_packet(dport=80, flags=ref.SYN)]), out)
    assert ref.ref_read(out[0], "ip-saddr") == 0x01010101
    assert engine.list_connections_text().endswith("rule=1")


def test_translating_stateful_rule_owns_the_connection_over_a_lower_id():
    # rule 1 only tracks (a TTL rewrite); rule 2 translates. The flow is
    # rule 2's, so its SYN leaves shuffled and the reply comes back
    engine = fresh_engine()
    engine.add_commands(["mmb add-stateful ip-saddr 10.0.0.0/8 mod ip-ttl 63",
                         SNAT_RULE])
    syn = ref.tcp_packet(saddr=0x0A000001, daddr=0xC6336401, sport=5000,
                         dport=80, flags=ref.SYN)
    out = []
    report = engine.run_stream(as_source([syn]), out)
    assert report.counters["missing_binding"] == 0
    assert ref.ref_read(out[0], "ip-saddr") == 0xC8000001
    assert ref.ref_read(out[0], "ip-ttl") == 63
    port = ref.ref_read(out[0], "tcp-sport")
    assert port != 5000 and port >= engine.config.shuffle_range[0]
    assert engine.list_connections_text().endswith("rule=2")
    reply = ref.tcp_packet(saddr=0xC6336401, daddr=0xC8000001, sport=80,
                           dport=port, flags=ref.SYN | ref.ACK)
    back = []
    report = engine.run_stream(as_source([reply]), back)
    assert ref.ref_read(back[0], "ip-daddr") == 0x0A000001
    assert ref.ref_read(back[0], "tcp-dport") == 5000
    assert ref.verify_packet_checksums(back[0])
    assert report.counters["missing_binding"] == 0


def test_failed_bulk_load_installs_nothing():
    engine = fresh_engine()
    with pytest.raises(CommandError):
        engine.add_commands(["mmb add tcp-dport 80 drop", "mmb del 1"])
    assert engine.rules == {}
    assert engine.execute_line("mmb add tcp-dport 81 drop") == "added rule 1"
    assert list(engine.snapshot.by_id) == [1]


def test_probe_count_is_tables_times_packets():
    engine = fresh_engine()
    engine.add_commands(firewall_rules(500, seed=6))  # one shared mask
    ntables = len(engine.snapshot.tables)
    assert ntables == 1
    blobs = corpus(7, 2000)
    report = engine.run_stream(as_source(blobs))
    assert report.counters["table_probes"] == ntables * len(blobs)


def test_every_packet_probes_the_tables():
    engine = fresh_engine()
    engine.add_commands(firewall_rules(50, seed=6))
    assert len(engine.snapshot.tables) == 1
    frag_hdr = ref.ipv4_header(0x0A000001, 0x0A000002, ref.UDP, 16,
                               flags_frag=0x2000)
    blobs = [ref.tcp_packet(sport=1000 + i) for i in range(3)]
    blobs += [ref.tcp_packet(ihl=6, ip_options=bytes([1] * 4)),
              ref.udp_packet(ihl=8, ip_options=bytes([1] * 12)),
              frag_hdr + bytes(16), frag_hdr + b"x" * 16]
    report = engine.run_stream(as_source(blobs))
    assert report.forwarded == len(blobs)
    assert report.counters["table_probes"] == len(engine.snapshot.tables) * 7


MALFORMED_OPTS = bytes([8, 1, 0, 0])  # timestamp kind with length 1


@pytest.mark.parametrize("rule, ttl", [
    ("mmb add ! tcp-opt-mss mod ip-ttl 64", 64),  # rewrite changes no byte
    ("mmb add ! tcp-opt-mss mod ip-ttl 64", 63),
    ("mmb add ! tcp-opt-mss mod ip-ttl 64 strip tcp-opt-timestamp", 64),
])
def test_malformed_options_counted_once(rule, ttl):
    engine = fresh_engine()
    engine.add_commands([rule])
    data = ref.tcp_packet(ttl=ttl, options=MALFORMED_OPTS)
    report = engine.run_stream(as_source([data, ref.tcp_packet()]))
    assert report.forwarded == report.rewritten == 2
    assert report.counters["malformed_options"] == 1


def _frame(ip, ethertype=b"\x08\x00"):
    return b"\xaa" * 6 + b"\xbb" * 6 + ethertype + ip


ARP = _frame(bytes(28), b"\x08\x06")


def test_ethernet_bypass_list_sink_keeps_order():
    engine = fresh_engine(link_type=ETHERNET)
    engine.add_commands(["mmb add tcp-dport 80 mod tcp-dport 443"])
    frames = [_frame(ref.tcp_packet(dport=80)), ARP,
              _frame(ref.udp_packet()), ARP]
    out = []
    report = engine.run_stream(as_source(frames), out)
    assert report.counters["bypass_non_ip"] == 2
    assert report.forwarded == 4 and report.dropped == 0
    assert out[1] == out[3] == ARP
    assert out[2] == frames[2]
    assert ref.ref_read(out[0], "tcp-dport", l3=14) == 443


def test_pcap_out_round_trip_keeps_arp(tmp_path):
    records = [(_frame(ref.tcp_packet(sport=1000 + i)), i, 250)
               for i in range(3)]
    records.insert(1, (ARP, 7, 125))
    src = tmp_path / "in.pcap"
    out = tmp_path / "out.pcap"
    write_pcap(src, ETHERNET, records)
    from midbox.cli import main
    assert main(["--pcap-in", str(src), "--pcap-out", str(out)]) == 0
    from midbox.pcap import read_pcap
    assert read_pcap(out) == (ETHERNET, records)


def test_parse_errors_become_drops():
    engine = fresh_engine()
    bad = bytearray(ref.tcp_packet())
    bad[10] ^= 0xFF  # break the header checksum
    report = engine.run_stream(iter([(bytes(bad), 0, 0),
                                     (ref.tcp_packet(), 0, 1)]))
    assert report.dropped == 1 and report.forwarded == 1
    assert report.counters["parse_error_drops"] == 1


def test_pcap_passthrough_byte_identical(tmp_path):
    blobs = corpus(8, 400)
    src = tmp_path / "in.pcap"
    write_pcap(src, 101, [(b, 0, i) for i, b in enumerate(blobs)])
    from midbox.cli import main
    out = tmp_path / "out.pcap"
    rc = main(["--pcap-in", str(src), "--pcap-out", str(out)])
    assert rc == 0
    from midbox.pcap import read_pcap
    link, records = read_pcap(out)
    assert link == 101
    assert [r[0] for r in records] == blobs


def test_disable_enable():
    engine = fresh_engine()
    engine.add_commands(["mmb add tcp-dport 80 drop"])
    data = ref.tcp_packet(dport=80)
    assert engine.run_vector([parse_packet(data)])[0][1] == DISP_DROP
    assert engine.execute_line("mmb disable") == "classification disabled"
    assert engine.run_vector([parse_packet(data)])[0][1] == DISP_FORWARD
    engine.execute_line("mmb enable")
    assert engine.run_vector([parse_packet(data)])[0][1] == DISP_DROP


def test_rule_ids_never_reused():
    engine = fresh_engine()
    engine.execute_line("mmb add tcp-dport 80 drop")
    engine.execute_line("mmb add tcp-dport 81 drop")
    engine.execute_line("mmb del 2")
    out = engine.execute_line("mmb add tcp-dport 82 drop")
    assert out == "added rule 3"
    engine.execute_line("mmb flush")
    assert engine.execute_line("mmb add tcp-dport 83 drop") == "added rule 4"


def test_execute_line_errors_keep_session():
    engine = fresh_engine()
    assert engine.execute_line("mmb del 1").startswith("error:")
    assert engine.execute_line("mmb add bogus-field 1 drop").startswith("error:")
    assert engine.execute_line("nonsense").startswith("error:")
    assert engine.execute_line("mmb add tcp-dport 80 drop") == "added rule 1"
    assert "tcp-dport 80" in engine.execute_line("mmb list")


def test_hit_counters_in_list():
    engine = fresh_engine()
    engine.execute_line("mmb add tcp-dport 80 mod tcp-win 9")
    engine.run_vector([parse_packet(ref.tcp_packet(dport=80))
                       for _ in range(3)])
    assert "hits=3" in engine.execute_line("mmb list")


@pytest.mark.parametrize("removal", ["mmb del 1", "mmb flush"])
def test_removed_rule_stops_translating_its_connections(removal):
    engine = fresh_engine()
    engine.add_commands([SNAT_RULE])
    syn = ref.tcp_packet(saddr=0x0A000001, dport=80, flags=ref.SYN)
    ack = ref.tcp_packet(saddr=0x0A000001, dport=80, flags=ref.ACK)
    out = []
    engine.run_stream(as_source([syn]), out)
    assert ref.ref_read(out[0], "ip-saddr") == 0xC8000001
    assert "rule=1" in engine.list_connections_text()
    engine.execute_line(removal)
    assert engine.conn._allocs == {}
    assert engine.list_connections_text() == "no connections"
    out = []
    report = engine.run_stream(as_source([ack]), out)
    assert out == [ack] and report.rewritten == 0
    assert len(engine.conn) == 0


def test_exhausted_port_pool_drops_and_counts_new_flow():
    engine = fresh_engine(shuffle_range=(1024, 1025))
    engine.add_commands([SNAT_RULE])
    syns = [ref.tcp_packet(saddr=0x0A000001, sport=5000 + i, dport=80,
                           flags=ref.SYN) for i in range(3)]
    out = []
    report = engine.run_stream(as_source(syns), out)
    assert [ref.ref_read(o, "ip-saddr") for o in out] == [0xC8000001] * 2
    assert sorted(ref.ref_read(o, "tcp-sport") for o in out) == [1024, 1025]
    assert report.dropped == report.counters["verdict_drops"] == 1
    assert report.counters["out_of_ports"] == 1
    assert len(engine.conn) == 2


def test_flow_opened_and_answered_within_one_vector():
    """A SYN, the client's next packet and the server's reply in one vector:
    the second lookup sees the first packet's insert, so all three are
    translated, as when each packet is a vector of its own."""
    syn = ref.tcp_packet(saddr=0x0A000001, sport=5000, dport=80, flags=ref.SYN)
    ack = ref.tcp_packet(saddr=0x0A000001, sport=5000, dport=80, flags=ref.ACK)
    probe = []
    engine = fresh_engine()
    engine.add_commands([SNAT_RULE])
    engine.run_stream(as_source([syn]), probe)
    port = ref.ref_read(probe[0], "tcp-sport")
    reply = ref.tcp_packet(saddr=0x0A000002, daddr=0xC8000001, sport=80,
                           dport=port, flags=ref.SYN | ref.ACK)
    outs = []
    for V in (1, 2, 256):
        engine = fresh_engine(vector_size=V)
        engine.add_commands([SNAT_RULE])
        out = []
        report = engine.run_stream(as_source([syn, ack, reply]), out)
        assert report.rewritten == 3 and len(engine.conn) == 1
        (e,) = engine.conn.entries()
        assert e.pkts == [2, 1]
        outs.append(out)
    out = outs[0]
    assert outs[1] == outs[2] == out
    assert [ref.ref_read(o, "ip-saddr") for o in out[:2]] == [0xC8000001] * 2
    assert [ref.ref_read(o, "tcp-sport") for o in out[:2]] == [port] * 2
    assert ref.ref_read(out[2], "ip-daddr") == 0x0A000001
    assert ref.ref_read(out[2], "tcp-dport") == 5000
    assert all(ref.verify_packet_checksums(o) for o in out)


def test_new_flow_onto_a_live_translated_tuple_is_dropped():
    # without a port shuffle both clients translate to 200.0.0.1:1234; the
    # second would take over the first one's replies
    engine = fresh_engine()
    engine.add_commands(["mmb add-stateful ip-saddr 10.0.0.0/24 ip-proto tcp "
                         "mod ip-saddr 200.0.0.1"])
    syns = [ref.tcp_packet(saddr=saddr, daddr=0xC6336401, sport=1234, dport=80,
                           flags=ref.SYN) for saddr in (0x0A000001, 0x0A000002)]
    synack = ref.tcp_packet(saddr=0xC6336401, daddr=0xC8000001, sport=80,
                            dport=1234, flags=ref.SYN | ref.ACK)
    out = []
    report = engine.run_stream(as_source(syns + [synack]), out)
    assert len(out) == 2 and len(engine.conn) == 1
    assert ref.ref_read(out[0], "ip-saddr") == 0xC8000001
    assert ref.ref_read(out[1], "ip-daddr") == 0x0A000001  # the first client
    assert report.dropped == report.counters["verdict_drops"] == 1
    assert report.counters["out_of_ports"] == 1


@pytest.mark.parametrize("field,width", [("ip-ttl", 8), ("ip-dscp", 6)])
def test_shuffle_of_field_narrower_than_range_draws_its_whole_space(field, width):
    # the default shuffle range starts at 1024, above both fields' maximum
    engine = Engine()
    engine.add_commands([f"mmb add-stateful ip-proto tcp shuffle {field}"])
    syns = [ref.tcp_packet(saddr=0x0A000001, sport=5000 + i, flags=ref.SYN)
            for i in range(20)]
    out = []
    report = engine.run_stream(as_source(syns), out)
    assert len(out) == 20 and report.counters["out_of_ports"] == 0
    values = [ref.ref_read(o, field) for o in out]
    assert len(set(values)) == 20
    assert max(values) < 1 << width
    assert all(ref.verify_packet_checksums(o) for o in out)


def test_full_connection_table_is_counted():
    engine = fresh_engine(conn_capacity=1)
    engine.add_commands([SNAT_RULE])
    syns = [ref.tcp_packet(saddr=0x0A000001, sport=5000 + i, dport=80,
                           flags=ref.SYN) for i in range(3)]
    report = engine.run_stream(as_source(syns))
    assert report.counters["conn_full_drops"] == 2
    assert len(engine.conn) == 1


def test_full_table_drops_new_flow_of_translating_rule():
    engine = fresh_engine(conn_capacity=1)
    engine.add_commands([SNAT_RULE])
    syns = [ref.tcp_packet(saddr=0x0A000001, sport=5000 + i, dport=80,
                           flags=ref.SYN) for i in range(2)]
    out = []
    report = engine.run_stream(as_source(syns), out)
    assert len(out) == 1 and ref.ref_read(out[0], "tcp-sport") != 5000
    assert report.dropped == report.counters["verdict_drops"] == 1
    assert report.counters["conn_full_drops"] == 1
    assert report.counters["missing_binding"] == 0


def test_full_table_passes_new_flow_of_non_translating_rule():
    engine = fresh_engine(conn_capacity=1)
    engine.add_commands(["mmb add-stateful ip-proto tcp mod ip-ttl 63"])
    syns = [ref.tcp_packet(saddr=0x0A000001, sport=5000 + i, dport=80,
                           flags=ref.SYN) for i in range(2)]
    out = []
    report = engine.run_stream(as_source(syns), out)
    assert [ref.ref_read(o, "ip-ttl") for o in out] == [63, 63]
    assert report.counters["conn_full_drops"] == 1
    assert report.dropped == 0


def test_deleted_rule_connections_free_their_slots():
    engine = fresh_engine(conn_capacity=1)
    engine.add_commands([SNAT_RULE])
    first = ref.tcp_packet(saddr=0x0A000001, sport=5000, dport=80,
                           flags=ref.SYN)
    engine.run_stream(as_source([first]))
    assert engine.execute_line("mmb del 1") == "deleted rule 1"
    assert len(engine.conn) == 0
    engine.execute_line(SNAT_RULE)
    second = ref.tcp_packet(saddr=0x0A000001, sport=5003, dport=80,
                            flags=ref.SYN)
    out = []
    report = engine.run_stream(as_source([second]), out)
    assert len(out) == 1 and report.counters["conn_full_drops"] == 0
    assert ref.ref_read(out[0], "ip-saddr") == 0xC8000001
    assert ref.ref_read(out[0], "tcp-sport") != 5003
    assert len(engine.conn) == 1
    assert "rule=2" in engine.list_connections_text()


def test_deleted_rules_leave_no_per_rule_state():
    """Adds and deletes of a stateful rule beside an open flow leave the
    table's per-rule state (plans, shuffle pools, flows by rule) holding
    only the live rule."""
    engine = fresh_engine()
    engine.add_commands([SNAT_RULE])
    engine.run_stream(as_source([_snat_syn(5000, daddr=0xC6336401)]))
    for _ in range(1000):
        added = engine.execute_line(
            "mmb add-stateful ip-saddr 192.0.2.1 shuffle tcp-sport "
            "mod ip-saddr 200.0.0.2")
        rid = int(added.rsplit(" ", 1)[1])
        assert engine.execute_line(f"mmb del {rid}") == f"deleted rule {rid}"
    conn = engine.conn
    ids = ({rid for rid, _ in conn._plans} | {rid for rid, _ in conn._allocs}
           | set(conn._by_rule))
    assert ids == set(engine.rules) == {1}
    assert len(conn) == 1


def test_expiry_is_independent_of_vector_size():
    """The sweep before each vector removes every expired flow, however the
    stream is cut. At t=0 64 ESTABLISHED and 136 NEW SNAT flows fill a
    table of 200; at t=10, past tcp_new, 100 untracked packets and then a
    new SNAT SYN come, and the SYN finds room at every vector size."""
    from midbox.conntrack import TimeoutPolicy
    server = 0xC6336401
    opened = [_snat_syn(2000 + i, server) for i in range(200)]
    acks = [ref.tcp_packet(saddr=0x0A000001, daddr=server, sport=2000 + i,
                           dport=80, flags=ref.ACK) for i in range(64)]
    untracked = [ref.tcp_packet(saddr=0xC0000201, daddr=server,
                                sport=3000 + i, dport=80) for i in range(100)]
    phases = ((0.0, opened + acks), (10.0, untracked + [_snat_syn(9000, server)]))
    seen = []
    for V in (1, 7, 256):
        engine = fresh_engine(vector_size=V, conn_capacity=200,
                              timeouts=TimeoutPolicy(tcp_new=5.0))
        engine.add_commands([SNAT_RULE])
        for now, blobs in phases:
            for i in range(0, len(blobs), V):
                chunk = [parse_packet(b) for b in blobs[i:i + V]]
                results = engine.run_vector(chunk, now=now)
        pkt, disp = results[-1]
        seen.append((len(engine.conn), engine.counters["conn_full_drops"],
                     disp, pkt.to_bytes()))
    assert seen[1] == seen[0]
    assert seen[2] == seen[0]
    entries, full_drops, disp, data = seen[0]
    assert (entries, full_drops, disp) == (65, 0, DISP_REWRITTEN)
    assert ref.ref_read(data, "ip-saddr") == 0xC8000001


def test_report_json_shape():
    engine = fresh_engine()
    report = engine.run_stream(as_source(corpus(11, 50)))
    assert {"conn_full_drops", "out_of_ports"} <= set(COUNTERS)
    assert set(report.counters) == set(COUNTERS)
    d = report.to_json_dict()
    js = json.loads(json.dumps(d))
    assert js["totals"]["packets_in"] == 50
    assert set(js["counters"]) == set(COUNTERS)
    assert {n["name"] for n in js["nodes"]} == \
        {"input", "classify", "rewrite", "drop", "output"}
    text = report.to_text()
    assert "classify" in text and "packets" in text


def test_repl_scripted_replay_is_deterministic():
    from midbox.cli import repl
    script = [
        "mmb add tcp-dport 80 mod tcp-dport 443",
        "mmb add-stateful ip-saddr 10.0.0.0/24 ip-proto tcp tcp-syn "
        "shuffle tcp-sport mod ip-saddr 200.0.0.1",
        "mmb list",
        "mmb del 1",
        "mmb list",
        "list tables",
        "quit",
    ]
    out1 = repl(Engine(), script, out=None)
    out2 = repl(Engine(), script, out=None)
    assert out1 == out2
    assert any("added rule 1" in o for o in out1)


ETH_HEADER = b"\xaa" * 6 + b"\xbb" * 6


@st.composite
def engine_inputs(draw):
    """(link type, rule lines, frames): arbitrary bytes mixed with pool
    packets (on Ethernet, framed as IPv4 or as a non-IP ethertype), against
    a random rule set that may carry the SNAT rule."""
    link = draw(st.sampled_from([RAW_IP, ETHERNET]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    lines = oracle.random_ruleset(rng, draw(st.integers(0, 30)))
    if draw(st.booleans()):
        lines.append(SNAT_RULE)
    frames = []
    kinds = st.sampled_from(["bytes", "ipv4", "ipv4", "non-ip"])
    for kind in draw(st.lists(kinds, max_size=40)):
        if kind == "bytes":
            frames.append(draw(st.binary(max_size=80)))
            continue
        raw = oracle.random_pool_packet(rng)
        if link == ETHERNET:
            raw = ETH_HEADER + (b"\x08\x00" if kind == "ipv4" else b"\x08\x06") + raw
        frames.append(raw)
    return link, lines, frames


@given(engine_inputs())
@settings(max_examples=300)
def test_run_stream_is_total_and_independent_of_vector_size(inputs):
    """No input makes run_stream raise; every packet is forwarded or dropped
    for a counted reason; the vector size changes nothing."""
    link, lines, frames = inputs
    results = []
    for V in (1, 7, 256):
        engine = fresh_engine(vector_size=V, link_type=link)
        engine.add_commands(lines)
        out = []
        report = engine.run_stream(as_source(frames), out)
        assert report.packets_in == len(frames)
        assert report.forwarded + report.dropped == report.packets_in
        assert report.counters["verdict_drops"] + \
            report.counters["parse_error_drops"] == report.dropped
        results.append((out, report.forwarded, report.dropped,
                        report.rewritten, report.counters))
    assert results[1] == results[0]
    assert results[2] == results[0]


# ------------------------------------------ a dropped packet opens no flow

DROP_SERVER = 0xC6336409  # 198.51.100.9
DROP_RULE = "mmb add ip-daddr 198.51.100.9 drop"


def _snat_syn(sport, daddr=DROP_SERVER):
    return ref.tcp_packet(saddr=0x0A000001, daddr=daddr, sport=sport, dport=80,
                          flags=ref.SYN)


def _first_shuffled_port():
    """The port the SNAT rule's pool draws first, seen on an engine whose
    rule 1 is the same rule and which drops nothing."""
    engine = fresh_engine()
    engine.add_commands([SNAT_RULE])
    out = []
    engine.run_stream(as_source([_snat_syn(5000, daddr=0xC6336401)]), out)
    return ref.ref_read(out[0], "tcp-sport")


def test_dropped_syn_opens_no_connection():
    engine = fresh_engine()
    engine.add_commands([SNAT_RULE, DROP_RULE])
    report = engine.run_stream(as_source([_snat_syn(5000)]))
    assert report.dropped == report.counters["verdict_drops"] == 1
    assert len(engine.conn) == 0
    assert engine.list_connections_text() == "no connections"


def test_reply_to_a_dropped_syn_is_not_translated():
    port = _first_shuffled_port()
    engine = fresh_engine()
    engine.add_commands([SNAT_RULE, DROP_RULE])
    reply = ref.tcp_packet(saddr=DROP_SERVER, daddr=0xC8000001, sport=80,
                           dport=port, flags=ref.SYN | ref.ACK)
    out = []
    report = engine.run_stream(as_source([_snat_syn(5000), reply]), out)
    assert out == [reply]
    assert report.rewritten == 0


def test_dropped_syns_do_not_fill_the_table():
    engine = fresh_engine(conn_capacity=4)
    engine.add_commands([SNAT_RULE, DROP_RULE])
    dropped = [_snat_syn(5000 + i) for i in range(4)]
    legit = _snat_syn(6000, daddr=0xC6336401)
    out = []
    report = engine.run_stream(as_source(dropped + [legit]), out)
    assert report.dropped == 4 and report.counters["conn_full_drops"] == 0
    assert len(out) == 1 and ref.ref_read(out[0], "ip-saddr") == 0xC8000001
    assert len(engine.conn) == 1


# ------------------------- connection lookups at any vector size

STAGE_RULES = (
    SNAT_RULE,
    # TCP and UDP SNAT
    "mmb add-stateful ip-saddr 10.0.0.0/24 shuffle udp-sport "
    "shuffle tcp-sport mod ip-saddr 200.0.0.1",
    # DNAT
    "mmb add-stateful ip-daddr 198.51.100.0/24 ip-proto tcp tcp-dport 80 "
    "mod ip-daddr 10.1.0.5 mod tcp-dport 8080",
    # a maskless catch-all that translates nothing
    "mmb add-stateful ip-saddr 0.0.0.0/0 mod ip-ttl 63",
    # a drop overlapping the SNAT match
    "mmb add ip-saddr 10.0.0.2 drop",
)
STAGE_TIMEOUTS = dict(tcp_new=3.0, tcp_established=20.0, tcp_fin_wait=2.0,
                      tcp_closed=1.0, udp=5.0)
STAGE_CLIENTS = (0x0A000001, 0x0A000002)
STAGE_SERVERS = (0xC6336401, 0xC6336402)
STAGE_PORTS = (1024, 5000)
STAGE_FLAGS = (ref.SYN, ref.SYN | ref.ACK, ref.ACK, ref.FIN | ref.ACK, ref.RST)

# a packet: a client's (fwd) or a server's (rev) packet of a flow, or a
# reply to one of the engine's earlier outputs ("answer": of this batch,
# so for vectors above 1 usually one of this vector; "reply": of any)
stage_packets = st.tuples(
    st.sampled_from(["fwd", "fwd", "rev", "answer", "reply"]),
    st.sampled_from([ref.TCP, ref.UDP]),
    st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
    st.sampled_from(STAGE_FLAGS), st.sampled_from([5, 6]), st.booleans(),
    st.integers(0, 63))
stage_ops = st.one_of(
    st.tuples(st.just("batch"), st.lists(stage_packets, min_size=1, max_size=12)),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 2.5, 3.5, 6.0, 25.0])),
    st.tuples(st.just("del"), st.integers(0, 4)))


def _stage_packet(proto, t4, flags, ihl, udp_zero):
    """A refbuild packet; a UDP one carries no checksum when `udp_zero`."""
    opts = dict(ihl=ihl, ip_options=b"\x01" * 4 * (ihl - 5))
    if proto == ref.TCP:
        return ref.tcp_packet(*t4, flags=flags, **opts)
    data = ref.udp_packet(*t4, payload=b"stage", **opts)
    if udp_zero:
        at = 4 * ihl + 6
        data = data[:at] + b"\x00\x00" + data[at + 2:]
    return data


def _reversed(data, flags, ihl, udp_zero):
    """A packet answering `data`: its tuple reversed, same protocol."""
    l3 = 4 * (data[0] & 0x0F)
    t4 = (int.from_bytes(data[16:20], "big"), int.from_bytes(data[12:16], "big"),
          int.from_bytes(data[l3 + 2:l3 + 4], "big"),
          int.from_bytes(data[l3:l3 + 2], "big"))
    return _stage_packet(data[9], t4, flags, ihl, udp_zero)


def _conn_state(engine):
    return sorted((e.pre_q, e.post_q, e.proto, e.state, e.pkts, e.octets)
                  for e in engine.conn.entries())


@given(rules=st.lists(st.integers(0, len(STAGE_RULES) - 1), min_size=1,
                      max_size=4, unique=True),
       capacity=st.integers(1, 4), ports=st.sampled_from([2, 3, 64]),
       ops=st.lists(stage_ops, min_size=1, max_size=12))
@settings(max_examples=300)
def test_connection_stage_is_independent_of_vector_size(rules, capacity, ports,
                                                        ops):
    """The same batches through run_vector in vectors of 1, 7 and 256, with
    clock jumps and rule deletions between them: identical output bytes,
    dispositions, counters and connection tables. The inputs are built on
    the vector-of-1 engine, so replies carry what it emitted, and replayed
    on the others."""
    from midbox.conntrack import TimeoutPolicy
    engines = {}
    for V in (1, 7, 256):
        engines[V] = fresh_engine(conn_capacity=capacity,
                                  shuffle_range=(1024, 1023 + ports),
                                  timeouts=TimeoutPolicy(**STAGE_TIMEOUTS))
        engines[V].add_commands([STAGE_RULES[i] for i in rules])
    emitted = []  # every packet the vector-of-1 engine forwarded
    now = 0.0
    for op in ops:
        if op[0] == "advance":
            now += op[1]
            continue
        if op[0] == "del":
            ids = sorted(engines[1].rules)
            if ids:
                line = f"mmb del {ids[op[1] % len(ids)]}"
                for engine in engines.values():
                    assert engine.execute_line(line).startswith("deleted")
            continue
        inputs, results = [], {V: [] for V in engines}
        batch_out = []
        for kind, proto, ci, si, pi, flags, ihl, udp_zero, n in op[1]:
            t4 = (STAGE_CLIENTS[ci], STAGE_SERVERS[si], STAGE_PORTS[pi], 80)
            pool = batch_out if kind == "answer" else emitted
            if kind in ("answer", "reply") and pool:
                data = _reversed(pool[n % len(pool)], flags, ihl, udp_zero)
            elif kind == "rev":
                data = _stage_packet(proto, (t4[1], t4[0], t4[3], t4[2]),
                                     flags, ihl, udp_zero)
            else:
                data = _stage_packet(proto, t4, flags, ihl, udp_zero)
            inputs.append(data)
            ((pkt, disp),) = engines[1].run_vector([parse_packet(data)], now=now)
            results[1].append((disp, pkt.to_bytes()))
            if disp != DISP_DROP:
                batch_out.append(pkt.to_bytes())
        emitted.extend(batch_out)
        for V in (7, 256):
            for i in range(0, len(inputs), V):
                chunk = [parse_packet(d) for d in inputs[i:i + V]]
                results[V].extend((disp, pkt.to_bytes())
                                  for pkt, disp in engines[V].run_vector(chunk, now=now))
        assert results[7] == results[1]
        assert results[256] == results[1]
        for V in (7, 256):
            assert engines[V].counters == engines[1].counters
            assert _conn_state(engines[V]) == _conn_state(engines[1])
