"""Rewrite stage: compiled writers (masked static writes, option edits),
dynamic bindings."""

import random

import pytest

import oracle
import refbuild as ref
from midbox import (compile_targets, parse_command, parse_packet, serialize,
                    verify_checksums)
from midbox.conntrack import ConnTable
from midbox.fields import L4, REGISTRY, byte_span, fold
from midbox.packet import fix_checksums, tcp_options
from midbox.pipeline import COUNTERS
from midbox.rewrite import FULL, rewrite_packet, translate_session


def no_counts():
    """A counter dict as the engine keeps it."""
    return dict.fromkeys(COUNTERS, 0)


def program_of(line, session=False):
    r = parse_command(line).rule
    r.id = 1
    return r, compile_targets(r, session)


def run_writers(pkt, writers, counters=None):
    """Each writer's result on `pkt`, in order; checksums are left as the
    writers leave them."""
    counters = no_counts() if counters is None else counters
    return [w(pkt, counters) for w in writers]


def changed_at(before, after):
    return [i for i, (a, b) in enumerate(zip(before, after)) if a != b]


def test_compile_port_rewrite_span_and_wellformedness():
    # (base, lo, hi, keep, key): tcp-dport is transport bytes 2-3, all
    # replaced
    assert byte_span(*fold(REGISTRY["tcp-dport"], 443)) == (L4, 2, 4, 0, 0x01BB)
    _, writers = program_of("mmb add tcp-dport 80 mod tcp-dport 443")
    data = ref.tcp_packet(dport=80)
    pkt = parse_packet(data)
    assert len(writers) == 1 and run_writers(pkt, writers) != [None]
    assert changed_at(data, pkt.data) == [22, 23]  # tcp-dport 80 -> 443
    assert ref.ref_read(bytes(pkt.data), "tcp-dport") == 443


def test_compile_drop_rule_is_empty_program():
    _, writers = program_of("mmb add tcp-dport 80 drop")
    assert writers == ()


def test_compile_snat_static_and_dynamic_split():
    """The rule's writers write the static source address and leave the
    shuffled port to the connection; its own flows' writers leave both."""
    line = ("mmb add-stateful ip-saddr 10.0.0.0/24 ip-proto tcp tcp-syn "
            "shuffle tcp-sport mod ip-saddr 200.0.0.1")
    r, writers = program_of(line)
    assert r.stateful
    data = ref.tcp_packet(0x0A000005, 0xC6336401, 40000, 80, flags=ref.SYN)
    pkt = parse_packet(data)
    counters = no_counts()
    run_writers(pkt, writers, counters)
    assert set(changed_at(data, pkt.data)) <= {12, 13, 14, 15}  # ip-saddr
    assert ref.ref_read(bytes(pkt.data), "ip-saddr") == 0xC8000001
    assert not any(counters.values())  # a TCP packet is no missing binding
    _, own = program_of(line, session=True)
    assert own == ()


def test_static_key_disjoint_from_mask_randomized():
    """Random mods folded per header as compile_targets folds them: each
    header's span keeps every byte it does not write and its key sets no
    kept bit."""
    rng = random.Random(41)
    fields = ["ip-ttl", "ip-dscp", "ip-id", "tcp-sport", "tcp-dport",
              "tcp-win", "tcp-seq"]
    for _ in range(200):
        folded = {}
        for name in rng.sample(fields, rng.randint(1, 4)):
            base, bits, val = fold(REGISTRY[name], rng.randrange(50))
            acc = folded.setdefault(base, [0, 0])
            acc[0] |= bits
            acc[1] |= val
        assert 1 <= len(folded) <= 2
        for base, (bits, val) in folded.items():
            _, lo, hi, keep, key = byte_span(base, bits, val)
            assert key & keep == 0 and 0 <= lo < hi <= 20
            assert keep.bit_length() <= 8 * (hi - lo)
            assert key.bit_length() <= 8 * (hi - lo)


def test_transport_mods_not_folded_without_transport_match():
    # `ip-proto tcp` alone also matches TCP fragments, which have no
    # transport header: tcp-* writes must go through checked per-field
    # writes, never a blind masked span
    _, writers = program_of("mmb add ip-proto tcp mod tcp-win 7 mod ip-ttl 3")
    frag_hdr = ref.ipv4_header(0x0A000001, 0x0A000002, ref.TCP, 24,
                               flags_frag=0x2000)
    frag = frag_hdr + bytes(24)
    pkt = parse_packet(frag)
    counters = no_counts()
    run_writers(pkt, writers, counters)
    assert changed_at(frag, pkt.data) == [8]  # only the ttl byte
    assert pkt.data[8] == 3
    assert counters["rewrite_skipped"] == 1  # tcp-win
    # an unfragmented TCP packet takes the checked tcp-win write
    data = ref.tcp_packet(ttl=3, window=1000)
    pkt = parse_packet(data)
    run_writers(pkt, writers)
    assert changed_at(data, pkt.data) == [34, 35]
    assert ref.ref_read(bytes(pkt.data), "tcp-win") == 7


def test_identity_program_leaves_packet_alone():
    _, writers = program_of("mmb add tcp-dport 80 drop")  # no writers
    data = ref.tcp_packet(dport=80)
    pkt = parse_packet(data)
    assert not rewrite_packet(pkt, writers, None, None, no_counts())
    assert serialize(pkt) == data


def test_port_80_to_443():
    _, writers = program_of("mmb add tcp-dport 80 mod tcp-dport 443")
    data = ref.tcp_packet(dport=80, payload=b"req")
    pkt = parse_packet(data)
    assert rewrite_packet(pkt, writers, None, None, no_counts())
    out = serialize(pkt)
    assert ref.ref_read(out, "tcp-dport") == 443
    # every other field is untouched
    for name in ("ip-saddr", "ip-daddr", "tcp-sport", "tcp-seq", "ip-ttl"):
        assert ref.ref_read(out, name) == ref.ref_read(data, name)
    assert ref.verify_packet_checksums(out)


def test_static_writers_random_vs_byte_loop():
    """Masked-write result equals a per-byte (b & mask) | key loop over
    each field's span."""
    rng = random.Random(42)
    for _ in range(300):
        values = {"ip-ttl": rng.randrange(256), "tcp-win": rng.randrange(1 << 16),
                  "tcp-seq": rng.randrange(1 << 32)}
        _, writers = program_of("mmb add tcp-syn " + " ".join(
            f"mod {name} {v}" for name, v in values.items()))
        data = ref.random_valid_packet(rng)
        pkt = parse_packet(data)
        if pkt.ip_proto != ref.TCP or pkt.is_fragment:
            continue
        run_writers(pkt, writers)
        expect = bytearray(data)
        for name, v in values.items():
            base, lo, hi, keep, key = byte_span(*fold(REGISTRY[name], v))
            at = 4 * pkt.ihl if base == L4 else 0
            mask = keep.to_bytes(hi - lo, "big")
            key = key.to_bytes(hi - lo, "big")
            for i in range(lo, hi):
                expect[at + i] = (data[at + i] & mask[i - lo]) | key[i - lo]
        assert bytes(pkt.data) == bytes(expect)


def _udp_without_checksum(**kw):
    data = bytearray(ref.udp_packet(**kw))
    at = 4 * (data[0] & 0x0F) + 6
    data[at:at + 2] = b"\x00\x00"
    return bytes(data)


def _without_ip_options(data):
    """`data` as an IHL-5 packet: options dropped, total length and header
    checksum made to fit, every other byte as it was."""
    hlen = 4 * (data[0] & 0x0F)
    hdr = bytearray(data[:20])
    hdr[0] = 0x45
    hdr[2:4] = (len(data) - hlen + 20).to_bytes(2, "big")
    hdr[10:12] = b"\x00\x00"
    hdr[10:12] = ref.rfc1071_checksum(bytes(hdr)).to_bytes(2, "big")
    return bytes(hdr) + data[hlen:]


@pytest.mark.parametrize("line,build,kw,changes", [
    ("mmb add ip-proto udp mod ip-ttl 64", _udp_without_checksum,
     dict(ttl=64), False),
    ("mmb add ip-proto udp mod ip-ttl 64", _udp_without_checksum,
     dict(ttl=10), True),
    # a checked write of the value the packet carries is no change either
    ("mmb add ip-ttl >= 0 mod udp-dport 53", _udp_without_checksum,
     dict(dport=53), False),
    ("mmb add tcp-syn mod tcp-syn 1", ref.tcp_packet, dict(flags=ref.SYN), False),
    ("mmb add tcp-syn mod tcp-ack 1 mod ip-ttl 5", ref.tcp_packet,
     dict(flags=ref.SYN), True),
    ("mmb add udp-dport 53 mod udp-sport 1234 mod ip-dscp 0", ref.udp_packet,
     dict(), False),
    ("mmb add udp-dport 53 mod udp-sport 5353 mod ip-dscp 10", ref.udp_packet,
     dict(), True),
], ids=["udp-nocsum-same", "udp-nocsum-ttl", "udp-nocsum-checked-same",
        "tcp-flag-same", "tcp-flag-ttl", "udp-l3l4-same", "udp-l3l4"])
def test_static_mod_is_the_same_at_ihl_5_and_6(line, build, kw, changes):
    """IP options move the transport header, not what a static mod does:
    the same bytes come out and a change is reported only when bytes
    change."""
    _, writers = program_of(line)
    results = []
    for ihl in (5, 6):
        data = build(ihl=ihl, ip_options=bytes([1] * 4 * (ihl - 5)), **kw)
        pkt = parse_packet(data)
        changed = rewrite_packet(pkt, writers, None, None, no_counts())
        results.append((changed, _without_ip_options(bytes(pkt.data)),
                        _without_ip_options(data)))
    assert results[0] == results[1]
    changed, out, data = results[0]
    assert changed == changes == (out != data)


def test_rewrite_touches_only_program_bytes():
    rng = random.Random(43)
    _, writers = program_of("mmb add tcp-syn mod tcp-win 777 mod ip-ttl 9")
    for _ in range(100):
        data = ref.tcp_packet(payload=rng.randbytes(rng.randrange(40)))
        pkt = parse_packet(data)
        run_writers(pkt, writers)
        out = bytes(pkt.data)
        spans = [(8, 9), (34, 36)]  # ttl, tcp-win
        for i, (a, b) in enumerate(zip(data, out)):
            if a != b:
                assert any(lo <= i < hi for lo, hi in spans), i


def test_strip_except_keeps_whitelist():
    _, writers = program_of(
        "mmb add tcp-opt-timestamp strip ! tcp-opt-mss strip ! tcp-opt-wscale")
    opts = ref.make_options((2, (1460).to_bytes(2, "big")), (4, b""),
                            (8, bytes(8)), (1,), (3, b"\x07"))
    pkt = parse_packet(ref.tcp_packet(flags=ref.SYN, options=opts,
                                      payload=b"PAY"))
    assert run_writers(pkt, writers) == [FULL]
    fix_checksums(pkt)
    assert tcp_options(pkt) == [(2, (1460).to_bytes(2, "big")), (3, b"\x07")]
    assert verify_checksums(pkt)
    assert bytes(pkt.data[pkt.payload_offset:]) == b"PAY"
    assert pkt.total_length == len(pkt.data)


def test_strip_absent_option_is_byte_identical():
    _, writers = program_of("mmb add tcp-syn strip tcp-opt-timestamp")
    opts = ref.make_options((2, (1460).to_bytes(2, "big")), (1,), (3, b"\x07"))
    data = ref.tcp_packet(flags=ref.SYN, options=opts)
    pkt = parse_packet(data)
    assert run_writers(pkt, writers) == [None]
    assert serialize(pkt) == data


def test_add_option_appends_before_padding():
    _, writers = program_of("mmb add tcp-syn add tcp-opt-mss 1460")
    pkt = parse_packet(ref.tcp_packet(flags=ref.SYN,
                                      options=ref.make_options((3, b"\x07"))))
    assert run_writers(pkt, writers) == [FULL]
    assert tcp_options(pkt) == [(3, b"\x07"), (2, (1460).to_bytes(2, "big"))]


def test_add_without_room_is_skipped():
    _, writers = program_of("mmb add tcp-syn add tcp-opt 66 0x" + "ab" * 39)
    data = ref.tcp_packet(flags=ref.SYN)
    pkt = parse_packet(data)
    counters = no_counts()
    assert run_writers(pkt, writers, counters) == [None]
    assert serialize(pkt) == data
    assert counters["opt_add_skipped"] == 1


def test_option_edits_random_reparse_closure():
    rng = random.Random(44)
    r, writers = program_of(
        "mmb add tcp-syn strip tcp-opt-timestamp add tcp-opt-wscale 9 "
        "mod tcp-opt-mss 1400")
    for _ in range(500):
        data = ref.random_valid_packet(rng, allow_frag=False)
        pkt = parse_packet(data)
        if pkt.ip_proto != ref.TCP:
            continue
        before = tcp_options(pkt)
        if before is None:
            continue
        changed = run_writers(pkt, writers) == [FULL]
        after = tcp_options(pkt)
        expect = [(k, (1400).to_bytes(2, "big") if k == 2 and len(p) == 2 else p)
                  for k, p in before if k != 8]
        expect = expect + [(3, b"\x09")] if _fits(expect, (3, b"\x09")) else expect
        assert after == expect, (before, after)
        if changed:
            fix_checksums(pkt)
            assert verify_checksums(pkt)
            assert pkt.total_length == len(pkt.data)


def _fits(opts, add):
    return sum(2 + len(p) for _, p in opts) + 2 + len(add[1]) <= 40


def test_option_area_is_walked_once_per_packet(monkeypatch):
    """tcp-opts traffic against 100 option-match rules and the whitelist
    strip: the option edits read the walk the option matches cached, so
    each packet's option area is walked once."""
    import midbox.packet
    import midbox.rewrite
    from midbox.pipeline import Engine
    from midbox.rulegen import STRIP_EXCEPT_RULE, tcp_option_rules
    from midbox.traffic import TrafficProfile, generate_traffic
    engine = Engine()
    engine.add_commands(tcp_option_rules(100, seed=0) + [STRIP_EXCEPT_RULE])
    profile = TrafficProfile(flows=7, seed=0, options="all",
                             option_value_space="lo", packet_bytes=200)
    packets = list(generate_traffic(profile, 5000))
    walks = []
    walker = midbox.packet.tcp_options

    def counted(pkt):
        walks.append(pkt)
        return walker(pkt)
    # every module of the packet path that could bind the walker's name
    for module in (midbox.packet, midbox.rewrite):
        monkeypatch.setattr(module, "tcp_options", counted, raising=False)
    report = engine.run_stream(iter(packets))
    assert report.packets_in == 5000 and report.rewritten > 1000
    assert len(walks) == 5000


def test_dynamic_forward_and_reverse_roundtrip():
    conn = ConnTable(shuffle_seed=3)
    rule = parse_command(
        "mmb add-stateful ip-saddr 10.0.0.0/24 ip-proto tcp tcp-syn "
        "shuffle tcp-sport mod ip-saddr 200.0.0.1").rule
    rule.id = 1
    writers = compile_targets(rule)
    failures = 0
    for i in range(1000):
        client = 0x0A000001 + (i % 250)
        sport = 1024 + i
        server = 0xC6336401 + (i % 200)
        syn = parse_packet(ref.tcp_packet(client, server, sport, 80,
                                          flags=ref.SYN))
        entry = conn.insert(syn, rule, float(i))
        assert entry is not None
        run_writers(syn, writers)
        translate_session(syn, entry, "fwd", ())
        fix_checksums(syn)
        t5 = syn.five_tuple()
        assert t5[0] == 0xC8000001 and 1024 <= t5[2] <= 65535
        # reverse: a reply to the translated tuple is restored
        reply = parse_packet(ref.tcp_packet(server, 0xC8000001, 80, t5[2],
                                            flags=ref.SYN | ref.ACK))
        e2, d2 = conn.lookup(reply, float(i))
        assert e2 is entry and d2 == "rev"
        translate_session(reply, e2, d2, ())
        fix_checksums(reply)
        r5 = reply.five_tuple()
        if r5 != (server, client, 80, sport, 6):
            failures += 1
        assert ref.verify_packet_checksums(serialize(reply))
    assert failures == 0


def _snat_flow(engine):
    """A SYN and a data packet of one client flow, then the server's two
    answers to the translated tuple; returns every emitted packet."""
    client = (0x0A000005, 0xC6336401, 40000, 80)
    fwd = []
    engine.run_stream(iter([(ref.tcp_packet(*client, flags=ref.SYN), 0, 0),
                            (ref.tcp_packet(*client, payload=b"GET"), 0, 0)]),
                      fwd)
    post = (ref.ref_read(fwd[0], "ip-saddr"), ref.ref_read(fwd[0], "tcp-sport"))
    server = (client[1], post[0], client[3], post[1])
    rev = []
    engine.run_stream(iter([(ref.tcp_packet(*server, flags=ref.SYN | ref.ACK), 0, 0),
                            (ref.tcp_packet(*server, payload=b"OK"), 0, 0)]),
                      rev)
    return fwd + rev


def test_session_writer_is_the_one_tuple_writer(monkeypatch):
    """Every packet of a two-way SNAT flow, the SYN whose rule's program
    also runs included, has its addresses and ports written by
    translate_session exactly once, and never field by field."""
    import midbox.rewrite as rw
    from midbox.pipeline import Engine
    from midbox.rules import TUPLE_FIELDS
    from midbox.rulegen import SNAT_RULE
    calls = []
    fields = []
    writer, field_writer = rw.translate_session, rw.write_field

    def counted(pkt, entry, direction, *args):
        calls.append(direction)
        return writer(pkt, entry, direction, *args)

    def recorded(pkt, fd, value):
        fields.append(fd.name)
        return field_writer(pkt, fd, value)

    monkeypatch.setattr(rw, "translate_session", counted)
    monkeypatch.setattr(rw, "write_field", recorded)
    engine = Engine()
    engine.add_commands([SNAT_RULE])
    out = _snat_flow(engine)
    assert len(out) == 4
    assert calls == ["fwd", "fwd", "rev", "rev"]
    assert ref.ref_read(out[0], "ip-saddr") == 0xC8000001
    assert [ref.ref_read(p, "ip-daddr") for p in out[2:]] == [0x0A000005] * 2
    assert [ref.ref_read(p, "tcp-dport") for p in out[2:]] == [40000] * 2
    assert all(ref.verify_packet_checksums(p) for p in out)
    assert not set(fields) & TUPLE_FIELDS


def test_program_write_to_an_unbound_tuple_field_stays():
    """A port redirect beside SNAT: the redirect rule's dport write on the
    SYN is not undone by the connection translation, which binds the
    source address and port only."""
    from midbox.pipeline import Engine
    from midbox.rulegen import SNAT_RULE
    engine = Engine()
    engine.add_commands([SNAT_RULE, "mmb add tcp-syn tcp-dport 80 mod tcp-dport 8080"])
    syn, data = _snat_flow(engine)[:2]
    assert ref.ref_read(syn, "tcp-dport") == 8080
    assert ref.ref_read(data, "tcp-dport") == 80
    assert ref.ref_read(syn, "ip-saddr") == ref.ref_read(data, "ip-saddr") == 0xC8000001
    assert ref.verify_packet_checksums(syn)


def test_missing_binding_counted():
    """A shuffle rule's match on a packet that gets no connection entry (an
    ICMP one) counts once in missing_binding and leaves unchanged."""
    from midbox.pipeline import Engine
    engine = Engine()
    engine.add_commands(["mmb add-stateful ip-proto icmp shuffle ip-id"])
    data = ref.icmp_packet()
    out = []
    report = engine.run_stream(iter([(data, 0, 0)]), out)
    assert report.counters["missing_binding"] == 1
    assert report.rewritten == 1 and out == [data]
    assert len(engine.conn) == 0


def test_engine_rewrite_matches_linear_oracle():
    """Full engine output bytes vs the oracle's naive rewriter."""
    from midbox.pipeline import Engine, EngineConfig
    for seed in (45, 46):
        rng = random.Random(seed)
        engine = Engine(EngineConfig(vector_size=64))
        lines = oracle.random_ruleset(rng, 120)
        engine.add_commands(lines)
        orc = oracle.LinearOracle(
            [engine.rules[k] for k in sorted(engine.rules)])
        batch = [oracle.random_pool_packet(rng) for _ in range(1200)]
        for i in range(0, len(batch), 64):
            chunk = batch[i:i + 64]
            results = engine.run_vector([parse_packet(b) for b in chunk])
            for data, (pkt, disp) in zip(chunk, results):
                kind, _ = orc.verdict(data)
                if kind == "drop":
                    assert disp == "drop"
                    continue
                assert serialize(pkt) == orc.rewrite(data), data.hex()
