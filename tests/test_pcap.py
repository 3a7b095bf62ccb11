import struct

import pytest

import refbuild as ref
from midbox.pcap import (MAGIC, PcapFormatError, PcapReader, PcapWriter,
                         read_pcap, write_pcap)


def test_write_read_roundtrip(tmp_path):
    path = tmp_path / "t.pcap"
    records = [(ref.tcp_packet(dport=80), 1, 500),
               (ref.udp_packet(), 2, 0),
               (ref.icmp_packet(), 3, 999999)]
    write_pcap(path, 101, records)
    link, back = read_pcap(path)
    assert link == 101
    assert back == records


def test_magic_and_header_layout(tmp_path):
    path = tmp_path / "t.pcap"
    write_pcap(path, 1, [(b"\x00" * 60, 0, 0)])
    raw = path.read_bytes()
    assert struct.unpack("<I", raw[:4])[0] == MAGIC
    assert struct.unpack("<I", raw[20:24])[0] == 1  # link type


def test_big_endian_file_readable(tmp_path):
    path = tmp_path / "be.pcap"
    data = ref.tcp_packet()
    with open(path, "wb") as f:
        f.write(struct.pack(">IHHiIII", MAGIC, 2, 4, 0, 0, 65535, 101))
        f.write(struct.pack(">IIII", 7, 8, len(data), len(data)))
        f.write(data)
    link, records = read_pcap(path)
    assert link == 101
    assert records == [(data, 7, 8)]


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.pcap"
    path.write_bytes(b"\x00" * 24)
    with pytest.raises(PcapFormatError):
        PcapReader(path)


def test_truncated_record_rejected(tmp_path):
    path = tmp_path / "short.pcap"
    with PcapWriter(path, 101) as w:
        w.write(b"x" * 40)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with PcapReader(path) as r:
        with pytest.raises(PcapFormatError):
            list(r)


def test_unsupported_link_type_rejected(tmp_path):
    path = tmp_path / "sll.pcap"
    write_pcap(path, 113, [(ref.tcp_packet(), 0, 0)])
    with pytest.raises(PcapFormatError, match="link type 113"):
        PcapReader(path)
