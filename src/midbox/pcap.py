"""Classic pcap file reading and writing.

Supports magic 0xa1b2c3d4 in either byte order and the two link types the
engine ingests: LINKTYPE_RAW (101, bytes start at the IP header) and
LINKTYPE_EN10MB (1, Ethernet frames).
"""

import struct

from .packet import ETHERNET, RAW_IP

MAGIC = 0xA1B2C3D4
GLOBAL_HEADER_LEN = 24
RECORD_HEADER_LEN = 16
_RECORD_LE = struct.Struct("<IIII")  # the writer's record header


class PcapFormatError(ValueError):
    pass


class PcapReader:
    """Iterates (data, ts_sec, ts_usec) records of a pcap file of one of the
    two link types the engine ingests, from one generator that iter() and
    next() both use. A record whose ts_usec is not below 10^6 is
    malformed: the engine carries a timestamp as one float and the writer
    splits it again, so such a record could not leave as it came."""

    def __init__(self, path):
        self.f = open(path, "rb")
        hdr = self.f.read(GLOBAL_HEADER_LEN)
        if len(hdr) < GLOBAL_HEADER_LEN:
            self.f.close()
            raise PcapFormatError("truncated pcap global header")
        magic = struct.unpack("<I", hdr[:4])[0]
        if magic == MAGIC:
            self.endian = "<"
        elif struct.unpack(">I", hdr[:4])[0] == MAGIC:
            self.endian = ">"
        else:
            self.f.close()
            raise PcapFormatError(f"bad pcap magic 0x{magic:08x}")
        (_, _, _, _, self.snaplen, self.link_type) = struct.unpack(
            self.endian + "HHiIII", hdr[4:])
        if self.link_type not in (RAW_IP, ETHERNET):
            self.f.close()
            raise PcapFormatError(f"unsupported link type {self.link_type}")
        self._records = _records(self.f, struct.Struct(self.endian + "IIII"))

    def __iter__(self):
        return self._records

    def __next__(self):
        return next(self._records)

    def close(self):
        self.f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _records(f, record):
    """The records of the open file `f`, read from just past its global
    header; `record` is the record header's struct in the file's byte
    order. A header cut short ends the records."""
    read, unpack = f.read, record.unpack
    while True:
        hdr = read(RECORD_HEADER_LEN)
        if len(hdr) < RECORD_HEADER_LEN:
            return
        ts_sec, ts_usec, incl_len, _orig = unpack(hdr)
        if ts_usec >= 1_000_000:
            raise PcapFormatError(f"record timestamp {ts_sec} s {ts_usec} us: "
                                  "microseconds past 999999")
        data = read(incl_len)
        if len(data) < incl_len:
            raise PcapFormatError("truncated pcap record")
        yield data, ts_sec, ts_usec


class PcapWriter:
    """Writes a little-endian microsecond pcap file."""

    def __init__(self, path, link_type, snaplen=65535):
        self.f = open(path, "wb")
        self.f.write(struct.pack("<IHHiIII", MAGIC, 2, 4, 0, 0, snaplen, link_type))

    def write(self, data, ts_sec=0, ts_usec=0):
        """One buffered write per record: its header, then its bytes."""
        n = len(data)
        self.f.write(_RECORD_LE.pack(ts_sec, ts_usec, n, n) + data)

    def close(self):
        self.f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_pcap(path):
    """(link_type, [(data, ts_sec, ts_usec), ...]) for a whole file."""
    with PcapReader(path) as r:
        return r.link_type, list(r)


def write_pcap(path, link_type, records):
    """Write (data, ts_sec, ts_usec) records to a new pcap file."""
    with PcapWriter(path, link_type) as w:
        for data, ts_sec, ts_usec in records:
            w.write(data, ts_sec, ts_usec)
