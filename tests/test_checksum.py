"""Checksum kernel and incremental (RFC 1624) checksum updates, against the
RFC 1071 word loop and the full recompute."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

import refbuild as ref
from midbox import Engine, parse_packet, verify_checksums, write_field
from midbox.fields import FIXED, FLAG, REGISTRY
from midbox.packet import checksum16, fix_checksums, update_checksums
from midbox.rulegen import SNAT_RULE

# IPv4 fields whose writes change the packet's structure or pseudo-header
# protocol/length; update_checksums leaves these to the full recompute
STRUCTURE_FIELDS = {"ip-len", "ip-proto"}
SAME_LENGTH_FIELDS = sorted(n for n, fd in REGISTRY.items()
                            if fd.kind in (FIXED, FLAG))


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


def _incremental_and_full(data, writes):
    """(bytes after update_checksums or its fallback, bytes after
    fix_checksums, whether the incremental path ran) for the same writes on
    two copies of one packet."""
    inc = parse_packet(data)
    full = parse_packet(data)
    before = bytes(inc.data[inc.l3_offset:inc.l4_offset + 20])
    for name, value in writes:
        write_field(inc, REGISTRY[name], value)
        write_field(full, REGISTRY[name], value)
    used = update_checksums(inc, before)
    if not used:
        fix_checksums(inc)
    fix_checksums(full)
    return bytes(inc.data), bytes(full.data), used


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
def test_incremental_update_equals_full_recompute(seed, writes):
    data = ref.random_valid_packet(random.Random(seed))
    inc, full, used = _incremental_and_full(data, writes)
    assert inc == full
    if not any(name in STRUCTURE_FIELDS for name, _ in writes):
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
