"""Differential tests of the input path: `parse_packet` against the verbatim
reference parser in parse_reference.py, and the pcap reader and writer
against struct-level readers and writers of the same file format.

On a tagged Ethernet frame the reference is run on the frame with its
first two VLAN tags cut out: the parser must give the same outcome, with
the tags kept in `data` and every offset moved past them.
"""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import refbuild as ref
from midbox import TruncatedPacket, parse_packet
from midbox.packet import ETHERNET, RAW_IP, checksum16
from midbox.pcap import MAGIC, PcapFormatError, PcapReader, PcapWriter
from parse_reference import parse_packet as reference_parse

MACS = b"\x02\x00\x00\x00\x00\x01\x02\x00\x00\x00\x00\x02"
TPIDS = (b"\x81\x00", b"\x88\xa8")


def _untagged(frame):
    """(`frame` without its first two VLAN tags, the tag bytes cut), or
    None when a tag it would cut is itself cut short."""
    tags = b""
    while len(tags) < 8 and frame[12:14] in TPIDS:
        if len(frame) < 18:
            return None
        tags += frame[12:16]
        frame = frame[:12] + frame[16:]
    return frame, tags


def _outcome(parse, data, link):
    try:
        return parse(data, link, 7, 1.5)
    except Exception as e:  # the error itself is what is compared
        return e


def _assert_same(data, link):
    """parse_packet on `data` matches the reference on its untagged form."""
    got = _outcome(parse_packet, data, link)
    tags = b""
    if link == ETHERNET:
        cut = _untagged(data)
        if cut is None:
            assert type(got) is TruncatedPacket and str(got) == "short VLAN tag"
            return
        data, tags = cut
    want = _outcome(reference_parse, data, link)
    if isinstance(want, Exception):
        assert type(got) is type(want) and got.args == want.args
        return
    assert not isinstance(got, Exception), got
    k = len(tags)
    assert got.data == (want.data[:12] + tags + want.data[12:] if k else want.data)
    assert got.trailer == want.trailer
    assert (got.l3_offset, got.l4_offset) == (want.l3_offset + k, want.l4_offset + k)
    assert (got.ihl, got.ip_proto, got.is_fragment) == \
        (want.ihl, want.ip_proto, want.is_fragment)
    assert (got.trace_id, got.ts) == (want.trace_id, want.ts)
    assert got.window() == want.window()


def _valid(proto, ihl, doff_words, payload):
    """A valid packet of `proto` with `ihl`, TCP options of `doff_words`
    words, and `payload`."""
    opts = dict(ihl=ihl, ip_options=b"\x01" * 4 * (ihl - 5), payload=payload)
    if proto == ref.TCP:
        return ref.tcp_packet(options=b"\x01" * 4 * doff_words, **opts)
    if proto == ref.UDP:
        return ref.udp_packet(**opts)
    return ref.icmp_packet(**opts)


def _set(data, at, value, mask=0xFF):
    """`data` with the bits `mask` of byte `at` set to `value`."""
    if at >= len(data):
        return data
    b = data[at] & ~mask & 0xFF | value & mask
    return data[:at] + bytes((b,)) + data[at + 1:]


def _mutated(data, kind, value, fix):
    """`data` with one field of its IPv4 or TCP header changed; with `fix`
    the header checksum over the (new) IHL is made valid again, so the
    change reaches the checks behind it."""
    ihl = data[0] & 0x0F
    if kind == "truncate":
        data = data[:value % (len(data) + 1)]
    elif kind == "version":
        data = _set(data, 0, value << 4, 0xF0)
    elif kind == "ihl":
        data = _set(data, 0, value, 0x0F)
    elif kind == "total-length":
        n = value % (len(data) + 12)
        data = data[:2] + n.to_bytes(2, "big") + data[4:]
    elif kind == "more-fragments":  # MF with offset 0, or with `value`'s
        data = _set(_set(data, 6, 0x20 | (value >> 8) * (value & 1), 0x3F), 7,
                     value * (value & 1))
    elif kind == "fragment-offset":
        data = _set(_set(data, 6, value >> 8, 0x1F), 7, value)
    elif kind == "tcp-data-offset":
        data = _set(data, 4 * ihl + 12, value << 4, 0xF0)
    elif kind == "bad-checksum":
        data = _set(data, 10, data[10] ^ (1 << value % 8) if len(data) > 10 else 0)
    hdr_len = 4 * (data[0] & 0x0F) if data else 0
    if fix and 20 <= hdr_len <= len(data):
        data = data[:10] + b"\x00\x00" + data[12:]
        data = data[:10] + checksum16(data[:hdr_len]).to_bytes(2, "big") + data[12:]
    return data


MUTATIONS = ("none", "truncate", "version", "ihl", "total-length",
             "more-fragments", "fragment-offset", "tcp-data-offset", "bad-checksum")

link_prefix = st.tuples(
    st.lists(st.sampled_from(TPIDS), max_size=3),
    st.sampled_from([b"\x08\x00", b"\x08\x00", b"\x08\x06", b"\x86\xdd"]))


@given(link=st.sampled_from([RAW_IP, ETHERNET]),
       proto=st.sampled_from([ref.TCP, ref.UDP, ref.ICMP, 47]),
       ihl=st.sampled_from([5, 6, 15]), doff_words=st.integers(0, 10),
       payload=st.binary(max_size=24),
       mutation=st.sampled_from(MUTATIONS), value=st.integers(0, 0xFFFF),
       fix=st.booleans(), trailer=st.binary(max_size=6), prefix=link_prefix,
       as_bytearray=st.booleans())
@settings(max_examples=1500)
@example(link=ETHERNET, proto=ref.TCP, ihl=5, doff_words=0, payload=b"",
         mutation="none", value=0, fix=False, trailer=b"",
         prefix=([b"\x81\x00", b"\x88\xa8", b"\x81\x00"], b"\x08\x00"),
         as_bytearray=False)
def test_parse_matches_reference_on_mutated_packets(link, proto, ihl, doff_words,
                                                    payload, mutation, value, fix,
                                                    trailer, prefix, as_bytearray):
    if proto == 47:  # GRE: a protocol the parser checks nothing of
        data = ref.ipv4_header(0x0A000001, 0x0A000002, 47, len(payload), ihl=ihl,
                               options=b"\x01" * 4 * (ihl - 5)) + payload
    else:
        data = _valid(proto, ihl, doff_words, payload)
    if mutation != "none":
        data = _mutated(data, mutation, value, fix)
    data += trailer
    if link == ETHERNET:
        tpids, ethertype = prefix
        data = MACS + b"".join(t + b"\x00\x0a" for t in tpids) + ethertype + data
    _assert_same(bytearray(data) if as_bytearray else data, link)


@given(link=st.sampled_from([RAW_IP, ETHERNET]), data=st.binary(max_size=80),
       tags=st.lists(st.sampled_from(TPIDS), max_size=2))
@settings(max_examples=800)
@example(link=ETHERNET, data=b"", tags=[b"\x81\x00"])
@example(link=ETHERNET, data=b"\x00\x0a", tags=[b"\x88\xa8"])
def test_parse_matches_reference_on_arbitrary_bytes(link, data, tags):
    if link == ETHERNET and tags:
        # arbitrary bytes behind a tag header, often cut inside a tag
        data = MACS + b"".join(t + b"\x00\x01" for t in tags)[:-2] + data
    _assert_same(data, link)


@pytest.mark.parametrize("data", [b"", b"\x45" + bytes(39)])
def test_parse_unsupported_link_type_matches_reference(data):
    got = _outcome(parse_packet, data, 113)
    want = _outcome(reference_parse, data, 113)
    assert type(got) is type(want) and got.args == want.args


# ------------------------------------------------------------------ pcap

def _pcap_bytes(endian, records, link=101):
    """A pcap file written field by field with struct."""
    out = struct.pack(endian + "IHHiIII", MAGIC, 2, 4, 0, 0, 65535, link)
    for data, ts_sec, ts_usec in records:
        out += struct.pack(endian + "IIII", ts_sec, ts_usec, len(data), len(data))
        out += data
    return out


def _expected_records(raw):
    """(records, error message or None) of a little- or big-endian pcap
    file, read field by field with struct."""
    endian = "<" if struct.unpack("<I", raw[:4])[0] == MAGIC else ">"
    at = 24
    records = []
    while len(raw) - at >= 16:
        ts_sec, ts_usec, incl, _ = struct.unpack(endian + "IIII", raw[at:at + 16])
        if ts_usec >= 1_000_000:
            return records, (f"record timestamp {ts_sec} s {ts_usec} us: "
                             "microseconds past 999999")
        data = raw[at + 16:at + 16 + incl]
        if len(data) < incl:
            return records, "truncated pcap record"
        records.append((data, ts_sec, ts_usec))
        at += 16 + incl
    return records, None


def _read_all(path, by_next):
    """Every record of the file at `path` and the PcapFormatError message
    that ended them, or None; through next() or through iteration."""
    records = []
    with PcapReader(path) as r:
        try:
            if by_next:
                while True:
                    try:
                        records.append(r.__next__())
                    except StopIteration:
                        break
            else:
                for rec in r:
                    records.append(rec)
        except PcapFormatError as e:
            return records, str(e)
    return records, None


pcap_records = st.lists(st.tuples(st.binary(max_size=40),
                                  st.integers(0, 2 ** 32 - 1),
                                  st.integers(0, 999_999)), max_size=6)


@given(endian=st.sampled_from(["<", ">"]), records=pcap_records,
       tail=st.sampled_from(["none", "short-header", "short-record", "bad-usec"]),
       cut=st.integers(0, 15), usec=st.integers(1_000_000, 2 ** 32 - 1))
@settings(max_examples=300)
def test_pcap_reader_matches_struct_reader(tmp_path_factory, endian, records,
                                           tail, cut, usec):
    raw = _pcap_bytes(endian, records)
    if tail == "short-header":
        raw += struct.pack(endian + "IIII", 1, 2, 3, 3)[:cut]
    elif tail == "short-record":
        raw += struct.pack(endian + "IIII", 1, 2, 16, 16) + bytes(cut)
    elif tail == "bad-usec":
        raw += _pcap_bytes(endian, [(b"late", 9, usec)] + records)[24:]
    path = tmp_path_factory.mktemp("pcap") / "in.pcap"
    path.write_bytes(raw)
    want = _expected_records(raw)
    assert want[1] is None or tail in ("short-record", "bad-usec")
    assert _read_all(path, by_next=False) == want
    assert _read_all(path, by_next=True) == want


def test_pcap_reader_iter_and_next_share_one_stream(tmp_path):
    path = tmp_path / "in.pcap"
    records = [(bytes([i]) * i, i, i) for i in range(5)]
    path.write_bytes(_pcap_bytes("<", records))
    with PcapReader(path) as r:
        assert iter(r) is iter(r)
        first = next(r)
        rest = list(r)
        assert [first] + rest == records
        with pytest.raises(StopIteration):
            next(r)


@given(records=pcap_records, link=st.sampled_from([RAW_IP, ETHERNET]))
@settings(max_examples=100)
def test_pcap_writer_matches_struct_writer(tmp_path_factory, records, link):
    path = tmp_path_factory.mktemp("pcap") / "out.pcap"
    with PcapWriter(path, link) as w:
        for data, ts_sec, ts_usec in records:
            w.write(data, ts_sec, ts_usec)
    assert path.read_bytes() == _pcap_bytes("<", records, link)
