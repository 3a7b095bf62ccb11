"""Packet model vs the independent reference builder."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import refbuild as ref
from bits import write_bits
from midbox import (ABSENT, BadChecksum, MalformedOption, NotIPv4,
                    TruncatedPacket, fix_checksums, parse_packet,
                    parse_tcp_options, read_field, serialize,
                    verify_checksums)
from midbox.fields import REGISTRY
from midbox.packet import ETHERNET, RAW_IP, checksum16

ETH_IPV4 = b"\xaa" * 6 + b"\xbb" * 6 + b"\x08\x00"


def test_min_ipv4_tcp_without_transport_header_is_truncated():
    data = ref.ipv4_header(0x0A000001, 0x0A000002, ref.TCP, 0)
    assert len(data) == 20
    with pytest.raises(TruncatedPacket):
        parse_packet(data)


def test_ihl5_tcp_l4_offset():
    pkt = parse_packet(ref.tcp_packet())
    assert pkt.l4_offset == pkt.l3_offset + 20
    assert pkt.ihl == 5
    assert pkt.l4_kind == "TCP"


def test_parse_rejects_bad_checksum():
    data = bytearray(ref.tcp_packet())
    data[10] ^= 0xFF
    with pytest.raises(BadChecksum):
        parse_packet(bytes(data))


def test_parse_rejects_non_ipv4():
    data = bytearray(ref.tcp_packet())
    data[0] = 0x65  # version 6
    with pytest.raises(NotIPv4):
        parse_packet(bytes(data))


def test_parse_rejects_short_declared_length():
    data = ref.tcp_packet(payload=b"hello")
    with pytest.raises(TruncatedPacket):
        parse_packet(data[:-3])


def test_ethernet_link_strips_and_reattaches():
    ip = ref.tcp_packet()
    frame = b"\xaa" * 6 + b"\xbb" * 6 + b"\x08\x00" + ip
    pkt = parse_packet(frame, ETHERNET)
    assert pkt.l3_offset == 14
    assert serialize(pkt) == frame


def test_ethernet_non_ip_rejected():
    frame = b"\xaa" * 6 + b"\xbb" * 6 + b"\x08\x06" + bytes(28)  # ARP
    with pytest.raises(NotIPv4):
        parse_packet(frame, ETHERNET)


def test_trailer_preserved():
    ip = ref.tcp_packet()
    data = ip + b"\x00" * 7  # capture padding past IP total length
    pkt = parse_packet(data)
    assert serialize(pkt) == data


def test_roundtrip_corpus():
    rng = random.Random(1)
    for _ in range(1000):
        data = ref.random_valid_packet(rng)
        pkt = parse_packet(data)
        assert serialize(pkt) == data
        again = parse_packet(serialize(pkt))
        assert serialize(again) == data
        assert (again.l3_offset, again.l4_offset, again.ip_proto) == \
            (pkt.l3_offset, pkt.l4_offset, pkt.ip_proto)


def test_read_field_examples():
    pkt = parse_packet(ref.tcp_packet(dport=80))
    assert read_field(pkt, REGISTRY["tcp-dport"]) == 80
    assert read_field(pkt, REGISTRY["tcp-opt-mss"]) is ABSENT
    udp = parse_packet(ref.udp_packet())
    assert read_field(udp, REGISTRY["tcp-dport"]) is ABSENT


def test_read_field_matches_reference_on_random_packets():
    rng = random.Random(2)
    names = list(REGISTRY)
    for _ in range(400):
        data = ref.random_valid_packet(rng)
        pkt = parse_packet(data)
        for name in names:
            got = read_field(pkt, REGISTRY[name])
            want = ref.ref_read(data, name)
            if want is None:
                assert got is ABSENT, name
            else:
                assert got == want, (name, got, want)


def test_parse_tcp_options_empty():
    pkt = parse_packet(ref.tcp_packet())
    assert parse_tcp_options(pkt) == []


def test_parse_tcp_options_syn_mss_nop_wscale():
    opts = ref.make_options((2, (1460).to_bytes(2, "big")), (1,),
                            (3, bytes([7])))
    pkt = parse_packet(ref.tcp_packet(flags=ref.SYN, options=opts))
    views = parse_tcp_options(pkt)
    assert [(v.kind, v.length) for v in views] == [(2, 4), (1, 1), (3, 3)]
    assert pkt.data[views[0].value_offset:views[0].value_offset + 2] == \
        (1460).to_bytes(2, "big")


def test_parse_tcp_options_overrun_is_malformed():
    # kind 2 claims 40 bytes inside a 20-byte option area
    area = bytes([2, 40]) + bytes(18)
    pkt = parse_packet(ref.tcp_packet(options=area))
    with pytest.raises(MalformedOption):
        parse_tcp_options(pkt)


def test_parse_tcp_options_never_reads_past_header():
    opts = ref.make_options((8, bytes(8)))
    payload = b"\x02\x28" * 30  # looks like options, but is payload
    pkt = parse_packet(ref.tcp_packet(options=opts, payload=payload))
    views = parse_tcp_options(pkt)
    end = pkt.l4_offset + 4 * pkt.tcp_data_offset
    assert all(v.value_offset + max(v.length - 2, 0) <= end for v in views)
    assert [v.kind for v in views] == [8]


def test_fix_checksums_idempotent_on_valid_packet():
    data = ref.tcp_packet(payload=b"abc")
    pkt = parse_packet(data)
    fix_checksums(pkt)
    assert serialize(pkt) == data
    assert verify_checksums(pkt)


def test_fix_checksums_after_rewrite_matches_reference():
    pkt = parse_packet(ref.tcp_packet(payload=b"xyz"))
    write_bits(pkt, REGISTRY["ip-saddr"], 0xC8000001)
    fix_checksums(pkt)
    assert ref.verify_packet_checksums(serialize(pkt))
    assert verify_checksums(pkt)


def test_fix_checksums_random_mutations():
    rng = random.Random(3)
    # protocol and length fields define the packet's structure; rewriting
    # them changes what "valid" means, so they stay out of the pool
    mutable = [n for n, fd in REGISTRY.items()
               if fd.kind == 0 and n not in ("ip-len", "ip-proto", "udp-len")]
    for _ in range(1000):
        data = ref.random_valid_packet(rng, allow_frag=False)
        pkt = parse_packet(data)
        name = rng.choice(mutable)
        fd = REGISTRY[name]
        write_bits(pkt, fd, rng.randrange(1 << fd.width))
        fix_checksums(pkt)
        assert ref.verify_packet_checksums(serialize(pkt)), name
        assert verify_checksums(pkt)


def test_checksum16_agrees_with_rfc1071_loop():
    rng = random.Random(4)
    for _ in range(200):
        blob = rng.randbytes(rng.randrange(1, 100))
        assert checksum16(blob) == ref.rfc1071_checksum(blob)


def test_flag_write_and_read():
    pkt = parse_packet(ref.tcp_packet(flags=ref.ACK))
    assert read_field(pkt, REGISTRY["tcp-syn"]) == 0
    write_bits(pkt, REGISTRY["tcp-syn"], 1)
    assert read_field(pkt, REGISTRY["tcp-syn"]) == 1
    assert read_field(pkt, REGISTRY["tcp-ack"]) == 1


def test_five_tuple_ports_zero_for_icmp():
    pkt = parse_packet(ref.icmp_packet())
    t5 = pkt.five_tuple()
    assert t5[2] == 0 and t5[3] == 0 and t5[4] == ref.ICMP


# --- zero-copy input: a packet keeps its input bytes until its first write

def test_untouched_packet_returns_its_input_object():
    data = ref.tcp_packet(payload=b"abc")
    pkt = parse_packet(data)
    assert pkt.data is data
    assert pkt.to_bytes() is data


def test_ethernet_frame_with_padding_trailer_comes_back_identical():
    frame = ETH_IPV4 + ref.udp_packet(payload=b"x")
    frame += bytes(60 - len(frame))  # Ethernet minimum-frame padding
    pkt = parse_packet(frame, ETHERNET)
    assert pkt.trailer == bytes(60 - 14 - pkt.total_length)
    assert pkt.to_bytes() == frame
    fix_checksums(pkt)  # a write keeps the trailer too
    assert pkt.to_bytes() == frame


def test_bytearray_input_is_copied_not_aliased():
    buf = bytearray(ref.tcp_packet(dport=80))
    want = bytes(buf)
    pkt = parse_packet(buf)
    win = pkt.window()
    buf[:] = bytes(len(buf))
    assert pkt.to_bytes() == want
    assert read_field(pkt, REGISTRY["tcp-dport"]) == 80
    pkt.invalidate()
    assert pkt.window() == win


def test_fresh_packet_data_is_read_only():
    pkt = parse_packet(ref.tcp_packet())
    with pytest.raises(TypeError):
        pkt.data[0] = 0


def test_writes_go_through_writable():
    data = ref.tcp_packet(payload=b"xyz")
    pkt = parse_packet(data)
    buf = pkt.writable()
    assert isinstance(buf, bytearray) and pkt.data is buf
    assert pkt.writable() is buf
    write_bits(pkt, REGISTRY["ip-saddr"], 0xC8000001)
    fix_checksums(pkt)
    out = pkt.to_bytes()
    assert type(out) is bytes and out == bytes(buf) and out != data
    assert ref.ref_read(out, "ip-saddr") == 0xC8000001
    assert ref.verify_packet_checksums(out)
    assert data == ref.tcp_packet(payload=b"xyz")  # the input is untouched


# --- the one-read header check: IHL-5 headers of 20-60 byte datagrams, so
# windows shorter than 40 bytes are covered

def _ihl5_packet(fields, total_len, body, mode, bit):
    """A version-4, IHL-5 header (TOS then bytes 4-19 from `fields`) over
    `body` cut to total_len - 20 bytes. `mode` keeps the checksum field as
    drawn, recomputes it, or recomputes it and flips `bit` of the header
    outside the version/IHL and total length bytes."""
    hdr = bytearray(20)
    hdr[0] = 0x45
    hdr[1] = fields[0]
    hdr[2:4] = total_len.to_bytes(2, "big")
    hdr[4:20] = fields[1:]
    if mode != "as-is":
        hdr[10:12] = bytes(2)
        hdr[10:12] = checksum16(hdr).to_bytes(2, "big")
    if mode == "flipped":
        at = (1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19)[bit // 8]
        hdr[at] ^= 1 << bit % 8
    return bytes(hdr) + body[:total_len - 20]


@given(fields=st.binary(min_size=17, max_size=17),
       total_len=st.integers(20, 60),
       body=st.binary(min_size=40, max_size=40),
       mode=st.sampled_from(["as-is", "recomputed", "flipped"]),
       bit=st.integers(0, 17 * 8 - 1),
       trailer=st.binary(max_size=8),
       link=st.sampled_from([RAW_IP, ETHERNET]))
@settings(max_examples=500)
@example(fields=bytes(17), total_len=20, body=bytes(40), mode="as-is", bit=0,
         trailer=b"", link=RAW_IP)
@example(fields=bytes(17), total_len=20, body=bytes(40), mode="recomputed",
         bit=0, trailer=b"", link=RAW_IP)
@example(fields=bytes(17), total_len=39, body=bytes(40), mode="flipped",
         bit=75, trailer=b"\x01", link=ETHERNET)
def test_one_read_header_check_and_cached_window(fields, total_len, body, mode,
                                                 bit, trailer, link):
    ip = _ihl5_packet(fields, total_len, body, mode, bit)
    data = (ETH_IPV4 if link == ETHERNET else b"") + ip + trailer
    bad = checksum16(ip[:20]) != 0
    try:
        pkt = parse_packet(data, link)
    except BadChecksum:
        assert bad
        return
    except TruncatedPacket:  # a TCP/UDP/ICMP header that does not fit
        assert not bad
        return
    assert not bad
    want = int.from_bytes((ip + bytes(40))[:40], "big")
    assert pkt._win == want
    assert pkt.window() == want
    pkt.invalidate()
    assert pkt.window() == want
    assert pkt.to_bytes() == data
