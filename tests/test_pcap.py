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


def _one_record_file(path, ts_sec, ts_usec):
    data = ref.tcp_packet()
    with open(path, "wb") as f:
        f.write(struct.pack("<IHHiIII", MAGIC, 2, 4, 0, 0, 65535, 101))
        f.write(struct.pack("<IIII", ts_sec, ts_usec, len(data), len(data)))
        f.write(data)


@pytest.mark.parametrize("ts_sec,ts_usec", [(2 ** 32 - 1, 1_500_000), (5, 1_000_000)])
def test_out_of_range_microseconds_are_a_format_error(tmp_path, capsys, ts_sec,
                                                      ts_usec):
    # the engine carries a timestamp as one float and the writer splits it
    # again, so such a record could only leave altered, or not be written
    from midbox.cli import main
    src = tmp_path / "in.pcap"
    _one_record_file(src, ts_sec, ts_usec)
    with PcapReader(src) as r:
        with pytest.raises(PcapFormatError, match="999999"):
            list(r)
    rc = main(["--pcap-in", str(src), "--pcap-out", str(tmp_path / "out.pcap")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("rules", [
    pytest.param("mmb add tcp-dport 80 drop\nmmb add no-such-field 1 drop\n",
                 id="unknown-field"),
    pytest.param("mmb del 1\n", id="not-an-add"),
    pytest.param(b"mmb add tcp-dport 80 drop\n\xff\xfe\n", id="not-utf8"),
    pytest.param(None, id="missing-file"),
])
def test_bad_rules_file_is_an_error_not_a_traceback(tmp_path, capsys, rules):
    from midbox.cli import main
    src, out, path = tmp_path / "in.pcap", tmp_path / "out.pcap", tmp_path / "rules.txt"
    _one_record_file(src, 5, 0)
    if isinstance(rules, str):
        path.write_text(rules)
    elif rules is not None:
        path.write_bytes(rules)
    rc = main(["--rules", str(path), "--pcap-in", str(src), "--pcap-out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("rules,err", [
    ("mmb add tcp-dport 80 drop\nmmb add no-such-field 1 drop\n",
     "error: line 2: unknown field 'no-such-field' (at byte 8)\n"),
    ("# web\n\n  mmb add tcp-dport 80 drop\n mmb add\ttcp-dport 80000 drop\n",
     "error: line 4: value 80000 too wide for tcp-dport (16 bits) (at byte 19)\n"),
    ("mmb add tcp-dport 80 drop\nmmb del 1\n",
     "error: line 2: expected an add command, got 'del'\n"),
])
def test_bad_rules_line_is_named(tmp_path, capsys, rules, err):
    from midbox.cli import main
    path = tmp_path / "rules.txt"
    path.write_text(rules)
    assert main(["--rules", str(path)]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("ts_sec,ts_usec", [(2 ** 32 - 1, 999_999), (5, 0), (0, 1)])
def test_in_range_timestamps_pass_through_unchanged(tmp_path, ts_sec, ts_usec):
    from midbox.cli import main
    src, out = tmp_path / "in.pcap", tmp_path / "out.pcap"
    _one_record_file(src, ts_sec, ts_usec)
    assert main(["--pcap-in", str(src), "--pcap-out", str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()
