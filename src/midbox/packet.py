"""IPv4 packet model: parsing, field access, TCP options, checksums.

PacketBuffer holds the raw bytes of one packet (optionally prefixed by an
Ethernet header, with up to two VLAN tags, that is carried through
untouched) plus the parsed header offsets. All field reads/writes go
through FieldDescriptors so the matching and rewrite stages never hardcode
wire offsets.

Input is zero-copy: a packet keeps the bytes it was parsed from until its
first write (PacketBuffer.writable), and parse_packet reads the fixed
IPv4 fields it checks in one struct read and an IHL-5 packet's 40-byte
probe window once, for the header checksum and the classifier both.

TCP options are walked once per packet, until a write changes them, by one
function (tcp_options): options_map caches a map of each option's payload
and integer, for matches, beside the walk in wire order, for edits.
"""

import struct

from .errors import BadChecksum, NotIPv4, PacketError, TruncatedPacket
from .fields import HDR, L4, OPT, PAYLOAD, PROTO_ICMP, PROTO_TCP, PROTO_UDP

RAW_IP = 101  # pcap LINKTYPE_RAW
ETHERNET = 1  # pcap LINKTYPE_EN10MB

ETHERTYPE_IPV4 = 0x0800
# the tag protocol ids of 802.1Q (VLAN) and 802.1ad (its outer, QinQ tag)
_VLAN_TPIDS = (0x8100, 0x88A8)

# the fixed IPv4 fields parse_packet checks, read at once: version and
# IHL, total length, flags and fragment offset, protocol
_IPV4_FIXED = struct.Struct("!BxHxxHxB")

# a checksum's wire layout
_WORD = struct.Struct("!H")

TCP_OPT_EOL = 0
TCP_OPT_NOP = 1

# sentinel for "field not present in this packet"
class _Absent:
    __slots__ = ()

    def __repr__(self):
        return "ABSENT"

    def __bool__(self):
        return False


ABSENT = _Absent()


def checksum16(data):
    """Internet checksum (RFC 1071): the complement of the ones'-complement
    sum of the 16-bit big-endian words of `data`, an odd last byte padded
    with zero.

    Read as one big-endian integer n, the data is a base-65536 number whose
    digits are its words. 65536 is 1 modulo 0xFFFF and ones'-complement
    addition is addition modulo 0xFFFF, so n is congruent to the word sum.
    For nonzero data that sum lies in 1..0xFFFF and its complement is
    -n mod 0xFFFF; all-zero data sums to 0, whose complement is 0xFFFF.
    """
    n = int.from_bytes(data, "big")
    if len(data) & 1:
        n <<= 8
    return -n % 0xFFFF if n else 0xFFFF


class PacketBuffer:
    """One packet flowing through the pipeline.

    `data` covers the link prefix (if any) plus exactly the IPv4 datagram;
    any capture/Ethernet trailer past the IP total length is kept aside and
    re-attached verbatim on serialization.

    `data` is the input `bytes` until the first write, and writable() is
    the only way to write: it swaps in a `bytearray` once. A writer that
    skips it raises TypeError instead of writing into bytes the caller holds.
    """

    __slots__ = (
        "data",
        "trailer",
        "l3_offset",
        "l4_offset",
        "ihl",
        "ip_proto",
        "is_fragment",
        "trace_id",
        "ts",
        "_win",
        "_opts",
        "_walk",
        "_opts_bad",
    )

    def __init__(self, data, l3_offset, l4_offset, ihl, ip_proto, is_fragment=False,
                 trailer=b"", trace_id=None, ts=0.0):
        self.data = data
        self.trailer = trailer
        self.l3_offset = l3_offset
        self.l4_offset = l4_offset
        self.ihl = ihl
        self.ip_proto = ip_proto
        self.is_fragment = is_fragment
        self.trace_id = trace_id
        self.ts = ts
        self._win = None
        self._opts = None
        self._walk = None
        self._opts_bad = False

    @property
    def l4_kind(self):
        if self.is_fragment:
            return "OTHER"
        return {PROTO_TCP: "TCP", PROTO_UDP: "UDP", PROTO_ICMP: "ICMP"}.get(
            self.ip_proto, "OTHER")

    @property
    def total_length(self):
        l3 = self.l3_offset
        return (self.data[l3 + 2] << 8) | self.data[l3 + 3]

    @property
    def tcp_data_offset(self):
        return self.data[self.l4_offset + 12] >> 4

    @property
    def payload_offset(self):
        """Start of the transport payload (after L4 header for TCP/UDP)."""
        if self.is_fragment:
            return self.l4_offset
        if self.ip_proto == PROTO_TCP:
            return self.l4_offset + 4 * self.tcp_data_offset
        if self.ip_proto == PROTO_UDP:
            return self.l4_offset + 8
        return self.l4_offset

    def window(self):
        """The first HDR bytes of the IPv4 header, then the first HDR bytes
        at the L4 offset, as one big-endian integer of 2 * HDR bytes; bytes
        past the end of the packet read as zero."""
        w = self._win
        if w is None:
            d, l3, l4 = self.data, self.l3_offset, self.l4_offset
            if l4 == l3 + HDR:
                raw = d[l3:l3 + 2 * HDR]
            else:
                raw = d[l3:l3 + HDR] + d[l4:l4 + HDR]
            w = int.from_bytes(raw, "big") << 8 * (2 * HDR - len(raw))
            self._win = w
        return w

    def writable(self):
        """`data` as a bytearray, made from the input bytes on the first call;
        every write into the packet goes through the buffer it returns."""
        d = self.data
        if type(d) is not bytearray:
            d = self.data = bytearray(d)
        return d

    def invalidate(self):
        """Drop cached derived views after a mutation. `_opts_bad` stays, as
        no write reaches a malformed option area."""
        self._win = None
        self._opts = None
        self._walk = None

    def five_tuple(self):
        """(src_addr, dst_addr, src_port, dst_port, proto); ports are 0 for
        protocols without them."""
        d = self.data
        l3 = self.l3_offset
        saddr = int.from_bytes(d[l3 + 12:l3 + 16], "big")
        daddr = int.from_bytes(d[l3 + 16:l3 + 20], "big")
        sport = dport = 0
        if not self.is_fragment and self.ip_proto in (PROTO_TCP, PROTO_UDP):
            l4 = self.l4_offset
            sport = (d[l4] << 8) | d[l4 + 1]
            dport = (d[l4 + 2] << 8) | d[l4 + 3]
        return (saddr, daddr, sport, dport, self.ip_proto)

    def to_bytes(self):
        d = self.data
        if type(d) is bytes and not self.trailer:
            return d  # never written: the input object itself
        return bytes(d) + self.trailer

    def __repr__(self):
        return (f"PacketBuffer(id={self.trace_id}, proto={self.l4_kind}, "
                f"len={len(self.data)})")


def parse_packet(data, link_type=RAW_IP, trace_id=None, ts=0.0):
    """Parse raw capture bytes into a PacketBuffer.

    An Ethernet frame may carry up to two 802.1Q/802.1ad tags before its
    IPv4 ethertype; they move the IPv4 header to byte 18 or 22 and leave
    as they came. Raises NotIPv4 / TruncatedPacket / BadChecksum; callers
    turn these into drop or bypass dispositions instead of passing bad
    packets downstream. Behind an IPv4 ethertype a version other than 4 is
    a plain PacketError, a drop: only a frame that claims no IPv4 bypasses.
    """
    n = len(data)
    if not n:
        raise TruncatedPacket("empty packet")
    if link_type == RAW_IP:
        l3 = 0
    elif link_type == ETHERNET:
        if n < 14:
            raise TruncatedPacket("short ethernet header")
        ethertype = (data[12] << 8) | data[13]
        l3 = 14
        while ethertype in _VLAN_TPIDS and l3 < 22:
            if n < l3 + 4:
                raise TruncatedPacket("short VLAN tag")
            ethertype = (data[l3 + 2] << 8) | data[l3 + 3]
            l3 += 4
        if ethertype != ETHERTYPE_IPV4:
            raise NotIPv4(f"ethertype 0x{ethertype:04x}")
    else:
        raise ValueError(f"unsupported link type {link_type}")

    if n < l3 + 20:
        raise TruncatedPacket("short IPv4 header")
    vh, total_len, frag_field, proto = _IPV4_FIXED.unpack_from(data, l3)
    if vh >> 4 != 4:
        raise (PacketError if l3 else NotIPv4)(f"version {vh >> 4}")
    ihl = vh & 0x0F
    if ihl < 5:
        raise TruncatedPacket(f"IHL {ihl} below minimum")
    hdr_len = 4 * ihl
    if total_len < hdr_len:
        raise TruncatedPacket("total length below header length")
    end = l3 + total_len
    if n < end:
        raise TruncatedPacket("packet shorter than IPv4 total length")
    win = None
    if ihl == 5:
        # the probe window, read once. The header is its top 160 bits and,
        # by checksum16's argument, valid iff that integer is a nonzero
        # multiple of 0xFFFF; its version nibble 4 makes it nonzero.
        raw = data[l3:l3 + 2 * HDR] if total_len >= 2 * HDR else data[l3:end]
        win = int.from_bytes(raw, "big") << 8 * (2 * HDR - len(raw))
        if (win >> 8 * HDR) % 0xFFFF:
            raise BadChecksum("IPv4 header checksum")
    elif checksum16(data[l3:l3 + hdr_len]) != 0:
        raise BadChecksum("IPv4 header checksum")

    if type(data) is bytes and n == end:
        buf, trailer = data, b""
    else:
        buf, trailer = bytes(data[:end]), bytes(data[end:])
    l4 = l3 + hdr_len
    is_fragment = (frag_field & 0x3FFF) != 0  # MF + offset

    if not is_fragment:
        l4_len = total_len - hdr_len
        if proto == PROTO_TCP:
            if l4_len < 20:
                raise TruncatedPacket("short TCP header")
            doff = data[l4 + 12] >> 4
            if doff < 5:
                raise TruncatedPacket(f"TCP data offset {doff} below minimum")
            if l4_len < 4 * doff:
                raise TruncatedPacket("TCP header overruns packet")
        elif proto == PROTO_UDP:
            if l4_len < 8:
                raise TruncatedPacket("short UDP header")
        elif proto == PROTO_ICMP:
            if l4_len < 8:
                raise TruncatedPacket("short ICMP header")

    pkt = PacketBuffer(buf, l3, l4, ihl, proto, is_fragment, trailer, trace_id, ts)
    pkt._win = win
    return pkt


def serialize(pkt):
    """Wire bytes for a packet, link prefix and trailer included."""
    return pkt.to_bytes()


def tcp_options(pkt):
    """The TCP options of `pkt` as (kind, payload bytes) pairs in wire
    order, in one walk of the option area: NOPs are skipped and the walk
    stops at EOL or the header's end. None when the area is malformed: a
    length byte below 2, missing, or running past the header."""
    l4 = pkt.l4_offset
    a = bytes(pkt.data[l4 + 20:l4 + 4 * pkt.tcp_data_offset])
    end = len(a)
    out = []
    i = 0
    while i < end:
        kind = a[i]
        if kind == TCP_OPT_NOP:
            i += 1
            continue
        if kind == TCP_OPT_EOL:
            break
        if i + 1 == end:
            return None
        n = a[i + 1]
        if n < 2 or i + n > end:
            return None
        out.append((kind, a[i + 2:i + n]))
        i += n
    return out


def options_map(pkt):
    """kind -> (payload bytes, payload as a big-endian integer) for the
    packet's TCP options, the first of a repeated kind winning; built by
    one tcp_options walk, which it keeps in pkt._walk for option edits,
    and cached, so no option match decodes a payload again.

    A malformed option area yields an empty map and sets pkt._opts_bad.
    """
    opts = pkt._opts
    if opts is None:
        opts = {}
        if pkt.ip_proto == PROTO_TCP and not pkt.is_fragment:
            walked = pkt._walk = tcp_options(pkt)
            if walked is None:
                pkt._opts_bad = True
            else:
                for kind, b in reversed(walked):
                    opts[kind] = (b, int.from_bytes(b, "big"))
        pkt._opts = opts
    return opts


def read_field(pkt, fd):
    """Value of a field in a packet, or ABSENT.

    Bit spans (flags included, as 0/1) are read big-endian; OPT returns the
    option payload bytes; PAYLOAD returns the payload bytes. A protocol
    mismatch (e.g. tcp-dport on a UDP packet) reads as ABSENT.
    """
    if fd.proto is not None and (pkt.ip_proto != fd.proto or pkt.is_fragment):
        return ABSENT
    kind = fd.kind
    d = pkt.data
    if kind == OPT:
        v = options_map(pkt).get(fd.opt_kind)
        return ABSENT if v is None else v[0]
    if kind == PAYLOAD:
        if fd.payload_base == "udp":
            start = pkt.l4_offset + 8
        else:
            start = pkt.payload_offset
        return bytes(d[start:])
    base = pkt.l4_offset if fd.base == L4 else pkt.l3_offset
    start = base + fd.offset
    stop = start + fd.span_bytes
    if stop > len(d):
        return ABSENT
    v = int.from_bytes(d[start:stop], "big")
    return (v >> fd.shift) & ((1 << fd.width) - 1)


def write_field(pkt, fd, value):
    """Write a payload field's bytes in place, over the start of the
    payload. Returns False and writes nothing when the packet cannot hold
    them (callers count these skips). Fixed fields and flags are written as
    spans by the rewrite stage (rewrite._write_span), TCP options by
    rewrite.apply_option_edits."""
    if fd.proto is not None and (pkt.ip_proto != fd.proto or pkt.is_fragment):
        return False
    start = pkt.l4_offset + 8 if fd.payload_base == "udp" else pkt.payload_offset
    if start + len(value) > len(pkt.data):
        return False
    pkt.writable()[start:start + len(value)] = value
    pkt.invalidate()
    return True


def _transport_csum_at(pkt, seg_len):
    """Offset of the TCP/UDP checksum field, or None when the packet carries
    no transport checksum this engine maintains (fragments, other protocols,
    segments too short for their header)."""
    if pkt.is_fragment:
        return None
    if pkt.ip_proto == PROTO_TCP and seg_len >= 20:
        return pkt.l4_offset + 16
    if pkt.ip_proto == PROTO_UDP and seg_len >= 8:
        return pkt.l4_offset + 6
    return None


def _transport_sum(pkt, seg_len):
    """An integer congruent modulo 0xFFFF to the ones'-complement sum of the
    pseudo-header and the segment as stored; never 0, since the protocol
    word is not."""
    d = pkt.data
    l3 = pkt.l3_offset
    l4 = pkt.l4_offset
    seg = d[l4:l4 + seg_len]
    n = int.from_bytes(seg, "big")
    if len(seg) & 1:
        n <<= 8
    return int.from_bytes(d[l3 + 12:l3 + 20], "big") + pkt.ip_proto + seg_len + n


def fix_checksums(pkt):
    """Recompute the IPv4 header checksum and, for TCP/UDP, the transport
    checksum over the pseudo-header. Idempotent.

    Recomputing from scratch makes both checksums valid whatever they held
    before, so a transport checksum that arrived wrong comes out right.
    """
    d = pkt.writable()
    l3 = pkt.l3_offset
    hdr_len = 4 * pkt.ihl
    d[l3 + 10:l3 + 12] = b"\x00\x00"
    d[l3 + 10:l3 + 12] = checksum16(d[l3:l3 + hdr_len]).to_bytes(2, "big")

    seg_len = pkt.total_length - hdr_len
    csum_at = _transport_csum_at(pkt, seg_len)
    if csum_at is not None:
        d[csum_at:csum_at + 2] = b"\x00\x00"
        c = -_transport_sum(pkt, seg_len) % 0xFFFF
        if c == 0 and pkt.ip_proto == PROTO_UDP:
            c = 0xFFFF  # 0 would mean "no checksum"
        d[csum_at:csum_at + 2] = c.to_bytes(2, "big")
    pkt.invalidate()
    return pkt


def patch_checksums(pkt, ip_delta, l4_delta):
    """Move the IPv4 header checksum by `ip_delta` and the TCP/UDP one (no
    fragment has one) by `l4_delta`: RFC 1624 deltas, old - new of the
    words same-length header writes changed, HC' = HC + m - m' modulo
    0xFFFF, at a cost that does not grow with the payload. Results take the
    form a full recompute gives (0 stands for 0xFFFF only in UDP), so a
    checksum that arrived valid leaves as fix_checksums would make it, and
    one that arrived wrong stays wrong by the same amount, as in Linux and
    VPP NAT. Returns False and changes nothing for a UDP packet with
    checksum 0 ("not in use"); the caller then runs fix_checksums.
    """
    d = pkt.writable()
    proto = pkt.ip_proto
    if not pkt.is_fragment and (proto == PROTO_TCP or proto == PROTO_UDP):
        at = pkt.l4_offset + (16 if proto == PROTO_TCP else 6)
        (hc,) = _WORD.unpack_from(d, at)
        if proto == PROTO_TCP:
            hc = (hc + l4_delta) % 0xFFFF
        elif hc:
            hc = (hc + l4_delta) % 0xFFFF or 0xFFFF
        else:
            return False
        _WORD.pack_into(d, at, hc)
    at = pkt.l3_offset + 10
    (hc,) = _WORD.unpack_from(d, at)
    _WORD.pack_into(d, at, (hc + ip_delta) % 0xFFFF)
    pkt.invalidate()
    return True


def verify_checksums(pkt):
    """True when the IPv4 header and TCP/UDP checksums are valid as stored."""
    d = pkt.data
    l3 = pkt.l3_offset
    hdr_len = 4 * pkt.ihl
    if checksum16(d[l3:l3 + hdr_len]) != 0:
        return False
    seg_len = pkt.total_length - hdr_len
    csum_at = _transport_csum_at(pkt, seg_len)
    if csum_at is None:
        return True
    if pkt.ip_proto == PROTO_UDP and d[csum_at] == 0 and d[csum_at + 1] == 0:
        return True  # UDP checksum not in use
    return _transport_sum(pkt, seg_len) % 0xFFFF == 0
