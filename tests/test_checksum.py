"""Checksum kernel and incremental (RFC 1624) checksum updates, against the
RFC 1071 word loop and the full recompute."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import refbuild as ref
import midbox.rewrite as rw
from bits import write_bits
from flows import tuple_of
from midbox import (Engine, EngineConfig, parse_command, parse_packet,
                    verify_checksums)
from midbox.classifier import CompiledRule
from midbox.conntrack import FWD
from midbox.fields import FIXED, FLAG, L4, REGISTRY, byte_span, fold
from midbox.packet import checksum16, fix_checksums
from midbox.pipeline import COUNTERS
from midbox.rulegen import SNAT_RULE

# the IPv4 field whose writes change the pseudo-header's protocol; a
# rule writing it recomputes in full. No rule writes ip-len.
STRUCTURE_FIELDS = {"ip-proto"}
SAME_LENGTH_FIELDS = sorted(n for n, fd in REGISTRY.items()
                            if fd.kind in (FIXED, FLAG) and n != "ip-len")
# a match on each protocol that every packet of it passes
PROTO_GUARD = {ref.TCP: "tcp-sport >= 0", ref.UDP: "udp-sport >= 0",
               ref.ICMP: "icmp-type >= 0"}


@given(st.binary(max_size=1600))
@settings(max_examples=1000)
@example(b"")
@example(b"\x45")
@example(b"\x00" * 20)
@example(b"\x00" * 21)
@example(b"\xff" * 20)
@example(b"\xff" * 1499)
def test_checksum16_equals_rfc1071(data):
    assert checksum16(data) == ref.rfc1071_checksum(data)


def _match(data, writes, guaranteed=True):
    """The match of the `mod` rule of `writes` for packet `data`. With
    `guaranteed`, and when every transport field written is of the packet's
    protocol, the match implies that protocol, so the writes fold into
    spans; otherwise it is `ip-ttl >= 0` and transport writes are checked
    spans."""
    pkt = parse_packet(data)
    protos = {REGISTRY[name].proto for name, _ in writes} - {None}
    if guaranteed and not pkt.is_fragment and protos <= {pkt.ip_proto}:
        return PROTO_GUARD.get(pkt.ip_proto, "ip-ttl >= 0")
    return "ip-ttl >= 0"


def _program(data, writes, guaranteed=True):
    """The matched rules rewrite_packet takes for the `mod` rule of
    `writes` and packet `data` (see _match): that rule, compiled."""
    mods = " ".join(f"mod {name} {value}" for name, value in writes)
    return (CompiledRule(parse_command(
        f"mmb add {_match(data, writes, guaranteed)} {mods}").rule),)


def _incremental_and_full(data, writes, guaranteed=True):
    """(bytes after the `mod` rule of `writes` ran through rewrite_packet,
    bytes after the same writes field by field and fix_checksums, whether
    the writer path kept to the incremental update) for one packet."""
    inc = parse_packet(data)
    full = parse_packet(data)
    calls = []
    real = rw.fix_checksums
    rw.fix_checksums = lambda pkt: calls.append(pkt) or real(pkt)
    try:
        rw.rewrite_packet(inc, _program(data, writes, guaranteed), None, FWD,
                          dict.fromkeys(COUNTERS, 0))
    finally:
        rw.fix_checksums = real
    for name, value in writes:
        write_bits(full, REGISTRY[name], value)
    fix_checksums(full)
    return bytes(inc.data), bytes(full.data), not calls


@st.composite
def field_writes(draw):
    out = []
    for name in draw(st.lists(st.sampled_from(SAME_LENGTH_FIELDS),
                              min_size=1, max_size=3)):
        fd = REGISTRY[name]
        bits = 1 if fd.kind == FLAG else fd.width
        out.append((name, draw(st.integers(0, (1 << bits) - 1))))
    return out


@given(st.integers(0, 2 ** 32), field_writes())
@settings(max_examples=1000)
@example(0, [("ip-ttl", 1)])
@example(1, [("udp-len", 0), ("ip-dscp", 63)])
@example(2, [("ip-saddr", 0xC8000001), ("tcp-sport", 40000)])
@example(3, [("ip-proto", 17), ("ip-ttl", 3)])
def test_incremental_update_equals_full_recompute(seed, writes):
    """Odd seeds take checked spans, even ones guaranteed spans where the
    packet's protocol allows."""
    data = ref.random_valid_packet(random.Random(seed))
    inc, full, used = _incremental_and_full(data, writes, seed % 2 == 0)
    assert inc == full
    if any(name in STRUCTURE_FIELDS for name, _ in writes):
        assert not used or inc == data
    else:
        assert used


def _tcp_with_csum(pkt_bytes):
    return (pkt_bytes[36] << 8) | pkt_bytes[37]


def test_update_landing_on_zero_tcp():
    data = ref.tcp_packet(window=1000, payload=b"abc")
    hc = _tcp_with_csum(data)
    # the update gives (hc + old - new) mod 0xFFFF, so this window lands on 0
    win = (hc + 1000) % 0xFFFF
    inc, full, used = _incremental_and_full(data, [("tcp-win", win)])
    assert used and inc == full
    assert _tcp_with_csum(inc) == 0x0000


def test_update_landing_on_zero_ip_header():
    data = ref.tcp_packet(ident=1000)
    hic = (data[10] << 8) | data[11]
    inc, full, used = _incremental_and_full(
        data, [("ip-id", (hic + 1000) % 0xFFFF)])
    assert used and inc == full
    assert inc[10:12] == b"\x00\x00"


def test_update_from_negative_zero_tcp():
    # a TCP checksum of 0xFFFF is the other form of 0 and still valid;
    # the update gives the form a full recompute gives
    data = ref.tcp_packet(window=1000, payload=b"abc")
    hc = _tcp_with_csum(data)
    data = ref.tcp_packet(window=(hc + 1000) % 0xFFFF, payload=b"abc")
    assert _tcp_with_csum(data) == 0
    data = data[:36] + b"\xff\xff" + data[38:]
    assert verify_checksums(parse_packet(data))
    inc, full, used = _incremental_and_full(data, [("ip-ttl", 9)])
    assert used and inc == full
    assert _tcp_with_csum(inc) == 0x0000


def test_update_landing_on_zero_udp_stores_ffff():
    data = ref.udp_packet(dport=53, payload=b"q")
    hc = (data[26] << 8) | data[27]
    port = (hc + 53) % 0xFFFF
    inc, full, used = _incremental_and_full(data, [("udp-dport", port)])
    assert used and inc == full
    assert inc[26:28] == b"\xff\xff"


def test_udp_zero_checksum_takes_full_recompute():
    data = bytearray(ref.udp_packet(dport=53, payload=b"q"))
    data[26:28] = b"\x00\x00"  # "no checksum"
    inc, full, used = _incremental_and_full(bytes(data), [("udp-dport", 5353)])
    assert not used
    assert inc == full and inc[26:28] != b"\x00\x00"
    assert ref.verify_packet_checksums(inc)


def test_program_path_keeps_a_wrong_transport_checksum_wrong():
    """Random same-length `mod` rules' writers through rewrite_packet over
    random valid packets, one seeded stream of cases: output checksums
    equal fix_checksums', and a transport checksum that arrived wrong leaves
    wrong by the same amount. The cases cover guaranteed and checked spans,
    IHL above 5 and spans that end on a word's high byte."""
    rng = random.Random(1624)
    names = [n for n in SAME_LENGTH_FIELDS if n not in STRUCTURE_FIELDS]
    seen = dict.fromkeys(("guaranteed", "checked", "ihl>5", "high byte",
                          "wrong"), 0)
    for _ in range(1500):
        data = ref.random_valid_packet(rng)
        writes = []
        for name in rng.sample(names, rng.randint(1, 3)):
            fd = REGISTRY[name]
            writes.append((name, rng.randrange(1 << fd.width)))
        guaranteed = rng.random() < 0.5
        out, want, used = _incremental_and_full(data, writes, guaranteed)
        assert out == want and used
        if out == data:
            continue
        pkt = parse_packet(data)
        transport = pkt.ip_proto in (ref.TCP, ref.UDP) and not pkt.is_fragment
        # the spans compile_targets folds the writes into: one per header
        # over the guaranteed fields, one per checked field
        folds = [fold(REGISTRY[name], value) for name, value in writes]
        if _match(data, writes, guaranteed) == "ip-ttl >= 0":
            checked = [REGISTRY[name].proto for name, _ in writes]
            folds = [f for f, proto in zip(folds, checked) if proto is None]
        else:
            checked = []
        bits = {}
        for base, b, _ in folds:
            bits[base] = bits.get(base, 0) | b
        spans = [byte_span(base, b, 0) for base, b in bits.items()]
        seen["guaranteed"] += any(base == L4 for base, *_ in spans)
        seen["checked"] += pkt.ip_proto in checked and transport
        seen["ihl>5"] += pkt.ihl > 5
        seen["high byte"] += any(hi & 1 for _, _, hi, _, _ in spans)
        if not transport:
            continue
        at = pkt.l4_offset + (16 if pkt.ip_proto == ref.TCP else 6)
        good = (data[at] << 8) | data[at + 1]
        wrong = good ^ rng.randrange(1, 1 << 16)
        if wrong == 0:  # a UDP 0 would mean "no checksum"
            continue
        bad = data[:at] + wrong.to_bytes(2, "big") + data[at + 2:]
        out_bad, _, used = _incremental_and_full(bad, writes, guaranteed)
        assert used
        assert out_bad[:at] == out[:at] and out_bad[at + 2:] == out[at + 2:]
        err_out = (out_bad[at] << 8 | out_bad[at + 1]) - (out[at] << 8 | out[at + 1])
        assert err_out % 0xFFFF == (wrong - good) % 0xFFFF
        seen["wrong"] += 1
    assert all(seen.values()), seen


def _snat(data):
    engine = Engine()
    engine.add_commands([SNAT_RULE])
    (pkt, disp), = engine.run_vector([parse_packet(data)])
    assert disp == "rewritten"
    return bytes(pkt.data)


def test_snat_carries_a_wrong_tcp_checksum_through():
    """Incremental update keeps the error of a TCP checksum that arrived
    wrong (as Linux and VPP NAT do); a full recompute would repair it."""
    good = ref.tcp_packet(0x0A000005, 0xC6336401, 40000, 80, flags=ref.SYN,
                          payload=b"hello")
    bad = bytearray(good)
    bad[36:38] = (((bad[36] << 8) | bad[37]) ^ 0x0101).to_bytes(2, "big")
    bad = bytes(bad)
    out_good, out_bad = _snat(good), _snat(bad)
    assert ref.verify_packet_checksums(out_good)
    assert not ref.verify_packet_checksums(out_bad)
    assert ref.rfc1071_checksum(out_bad[:20]) == 0  # IPv4 header still valid
    assert out_bad[:36] == out_good[:36] and out_bad[38:] == out_good[38:]
    err_in = (_tcp_with_csum(bad) - _tcp_with_csum(good)) % 0xFFFF
    err_out = (_tcp_with_csum(out_bad) - _tcp_with_csum(out_good)) % 0xFFFF
    assert err_out == err_in


def test_same_length_rewrites_skip_full_recompute(monkeypatch):
    import midbox.rewrite
    calls = []
    original = midbox.rewrite.fix_checksums
    monkeypatch.setattr(midbox.rewrite, "fix_checksums",
                        lambda pkt: calls.append(pkt) or original(pkt))
    syn = ref.tcp_packet(0x0A000005, 0xC6336401, 40000, 80, flags=ref.SYN,
                         payload=bytes(1460))
    out = _snat(syn)
    assert calls == []
    assert ref.verify_packet_checksums(out)
    assert ref.ref_read(out, "ip-saddr") == 0xC8000001

    # a length-changing option edit and a payload write recompute in full
    engine = Engine()
    engine.add_commands(["mmb add tcp-opt-timestamp strip tcp-opt-timestamp",
                         "mmb add udp-dport 53 mod udp-payload 0x6162"])
    opts = ref.make_options((8, bytes(8)))
    results = engine.run_vector([parse_packet(ref.tcp_packet(options=opts)),
                                 parse_packet(ref.udp_packet(payload=b"xyz"))])
    assert len(calls) == 2
    for pkt, _ in results:
        assert ref.verify_packet_checksums(bytes(pkt.data))
    assert bytes(results[1][0].data).endswith(b"abz")


def test_a_payload_rule_recomputes_in_full_when_its_payload_write_is_skipped():
    """`full` holds for a whole rule: its TTL write recomputes both
    checksums in full even when its payload write does not fit, so a UDP
    checksum that arrived wrong leaves valid."""
    engine = Engine()
    engine.add_commands(["mmb add udp-dport 53 mod ip-ttl 9 mod udp-payload 0x616263"])
    data = bytearray(ref.udp_packet(dport=53, payload=b"q"))
    data[26:28] = (((data[26] << 8) | data[27]) ^ 0x0101).to_bytes(2, "big")
    out = []
    report = engine.run_stream(iter([(bytes(data), 0, 0)]), out)
    assert report.counters["rewrite_skipped"] == 1
    assert ref.ref_read(out[0], "ip-ttl") == 9
    assert out[0][28:] == b"q"
    assert ref.verify_packet_checksums(out[0])


# ------------------------------------------- connection (session) rewrites

TUPLE_FIELD_NAMES = ("ip-saddr", "ip-daddr", "tcp-sport", "tcp-dport",
                     "udp-sport", "udp-dport")
MOD_VALUES = {"ip-saddr": 0xC8000001, "ip-daddr": 0xC6336409,
              "tcp-sport": 4242, "tcp-dport": 8080,
              "udp-sport": 4343, "udp-dport": 5353}
TUPLE_POS = {"ip-saddr": 0, "ip-daddr": 1, "tcp-sport": 2, "udp-sport": 2,
             "tcp-dport": 3, "udp-dport": 3}
CLIENT = (0x0A000005, 0xC6336401, 40000, 80)
FIRST_IDENT = 1  # the rule matches the flow's first packet only


def _build(proto, t4, ttl, ident, payload, ihl, csum=None):
    """A refbuild packet with tuple t4; `csum` replaces the valid transport
    checksum."""
    opts = dict(ihl=ihl, ip_options=bytes([1] * 4 * (ihl - 5)), ttl=ttl,
                ident=ident)
    if proto == ref.TCP:
        flags = ref.SYN if ident == FIRST_IDENT else ref.ACK
        data = ref.tcp_packet(*t4, flags=flags, payload=payload, **opts)
    else:
        data = ref.udp_packet(*t4, payload=payload, **opts)
    if csum is not None:
        at = _csum_at(data)
        data = data[:at] + csum.to_bytes(2, "big") + data[at + 2:]
    return data


def _csum_at(data):
    return 4 * (data[0] & 0x0F) + (16 if data[9] == ref.TCP else 6)


def _csum(data):
    at = _csum_at(data)
    return (data[at] << 8) | data[at + 1]


def _expected(proto, t4_in, ttl_in, t4_out, ttl_out, ident, payload, ihl,
              csum_in, bound):
    """What the engine must emit: the input when the flow has no bindings;
    else the new tuple and TTL (the same ones for an already translated
    packet) with a valid IPv4 header and a transport checksum recomputed
    from scratch when it arrived valid or absent (UDP 0), and off by the
    same amount when it arrived wrong."""
    if not bound:
        return _build(proto, t4_in, ttl_in, ident, payload, ihl, csum_in)
    valid_in = _csum(_build(proto, t4_in, ttl_in, ident, payload, ihl))
    out = _build(proto, t4_out, ttl_out, ident, payload, ihl)
    if proto == ref.UDP and csum_in == 0:
        return out
    c = (_csum(out) + csum_in - valid_in) % 0xFFFF
    if c == 0 and proto == ref.UDP:
        c = 0xFFFF
    return _build(proto, t4_out, ttl_out, ident, payload, ihl, c)


def _swap(t4):
    return (t4[1], t4[0], t4[3], t4[2])


# how a played packet's transport checksum arrives: valid, wrong, 0xFFFF
# (one form of 0 for TCP, whose results the update normalises to 0x0000;
# wrong for most packets) or 0 (UDP: no checksum)
FAULTS = ("valid", "wrong", "ffff", "zero")


def _fault(proto, fault, flip, valid):
    if fault == "zero" and proto == ref.UDP:
        return 0
    if fault == "wrong":
        return valid ^ flip
    if fault == "ffff":
        return 0xFFFF
    return valid


@st.composite
def session_cases(draw):
    proto = draw(st.sampled_from((ref.TCP, ref.UDP)))
    names = draw(st.lists(st.sampled_from(TUPLE_FIELD_NAMES), min_size=1,
                          max_size=4, unique=True))
    targets = [f"mod {n} {MOD_VALUES[n]}" if draw(st.booleans())
               else f"shuffle {n}" for n in names]
    if draw(st.booleans()):
        targets.append("shuffle ip-ttl")
    kind = st.sampled_from(("fwd", "rev", "fwd-done", "rev-done"))
    events = draw(st.lists(st.tuples(
        kind, st.sampled_from(FAULTS),
        st.integers(1, 0xFFFF), st.binary(max_size=24)),
        min_size=1, max_size=8))
    return (proto, draw(st.integers(5, 7)), draw(st.integers(2, 255)),
            targets, draw(st.sampled_from(FAULTS)),
            events)


@given(session_cases())
@settings(max_examples=300)
def test_connection_rewrites_match_reference(case):
    """Forward, reverse and already-translated packets of one tracked flow,
    at IHL 5-7, with valid, wrong and (UDP) absent transport checksums:
    the bytes are _expected's, whether the entry binds tuple fields only
    or also the TTL."""
    proto, ihl, ttl0, targets, first_fault, events = case
    engine = Engine(EngineConfig(shuffle_range=(1, 255)))
    engine.add_commands([f"mmb add-stateful ip-id {FIRST_IDENT} "
                         + " ".join(targets)])
    valid = _csum(_build(proto, CLIENT, ttl0, FIRST_IDENT, b"", ihl))
    csum = _fault(proto, first_fault, 0x5A5A, valid)
    first = _build(proto, CLIENT, ttl0, FIRST_IDENT, b"", ihl, csum)
    out = []
    engine.run_stream(iter([(first, 0, 0)]), out)
    (entry,) = engine.conn.entries()
    assert tuple_of(entry.pre_q) == CLIENT
    post = tuple_of(entry.post_q)
    present = ("ip-", "tcp-" if proto == ref.TCP else "udp-")
    for name in TUPLE_FIELD_NAMES:
        pos = TUPLE_POS[name]
        if not name.startswith(present):
            continue
        if f"mod {name} {MOD_VALUES[name]}" in targets:
            assert post[pos] == MOD_VALUES[name]
        elif f"shuffle {name}" in targets:
            assert 1 <= post[pos] <= 255
        else:
            assert post[pos] == CLIENT[pos]
    ttl_bound = "shuffle ip-ttl" in targets
    ttl_fwd = entry.extra[-1].rewritten if ttl_bound else None
    bound = entry.plan is not None
    assert len(entry.extra) == ttl_bound
    assert out == [_expected(proto, CLIENT, ttl0, post, ttl_fwd or ttl0,
                             FIRST_IDENT, b"", ihl, csum, bound)]

    played, expected = [], []
    for i, (kind, fault, flip, payload) in enumerate(events):
        ident = FIRST_IDENT + 1 + i
        t4_in = {"fwd": CLIENT, "fwd-done": post, "rev": _swap(post),
                 "rev-done": _swap(CLIENT)}[kind]
        t4_out = post if kind.startswith("fwd") else _swap(CLIENT)
        ttl_in = ttl_out = 64
        if ttl_bound:
            ttl_out = ttl_fwd if kind.startswith("fwd") else ttl0
            if kind.endswith("done"):
                ttl_in = ttl_out
        valid = _csum(_build(proto, t4_in, ttl_in, ident, payload, ihl))
        csum = _fault(proto, fault, flip, valid)
        played.append((_build(proto, t4_in, ttl_in, ident, payload, ihl,
                              csum), 0, 0))
        expected.append(_expected(proto, t4_in, ttl_in, t4_out, ttl_out,
                                  ident, payload, ihl, csum, bound))
    out = []
    report = engine.run_stream(iter(played), out)
    assert report.rewritten == len(played)
    assert out == expected


@pytest.mark.parametrize("direction", ["fwd", "rev"])
@pytest.mark.parametrize("proto", [ref.TCP, ref.UDP])
def test_session_checksum_landing_on_zero(proto, direction, monkeypatch):
    """A session rewrite whose TCP/UDP checksum lands on 0 stores 0x0000 for
    TCP and 0xFFFF for UDP, as a full recompute does."""
    import midbox.rewrite
    engine = Engine()
    engine.add_commands([f"mmb add-stateful ip-id {FIRST_IDENT} "
                         "mod ip-saddr 200.0.0.1 mod tcp-sport 4242 "
                         "mod udp-sport 4242"])
    first = _build(proto, CLIENT, 64, FIRST_IDENT, b"", 5)
    engine.run_stream(iter([(first, 0, 0)]))
    post = (0xC8000001, CLIENT[1], 4242, CLIENT[3])
    t4_in, t4_out = (CLIENT, post) if direction == "fwd" else \
        (_swap(post), _swap(CLIENT))
    # a payload word chosen so the output's checksum sums to 0
    word = (_csum(_build(proto, t4_out, 64, 2, b"\x03\xe8", 5)) + 1000) \
        % 0xFFFF
    payload = word.to_bytes(2, "big")
    want = _build(proto, t4_out, 64, 2, payload, 5)
    assert _csum(want) == (0 if proto == ref.TCP else 0xFFFF)
    calls = []
    monkeypatch.setattr(midbox.rewrite, "fix_checksums",
                        lambda *a: calls.append(a))
    out = []
    engine.run_stream(iter([(_build(proto, t4_in, 64, 2, payload, 5), 0, 0)]),
                      out)
    assert out == [want] and calls == []
