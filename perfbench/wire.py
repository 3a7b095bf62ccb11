"""The benchmark's own IPv4/TCP wire code: packet building, RFC 1071
checksums, header reads, TCP option walks and classic pcap files.

None of it calls into midbox, so the correctness checks do not share code
with the engine they judge.
"""

import struct

PROTO_TCP = 6
FIN, SYN, PSH, ACK = 0x01, 0x02, 0x08, 0x10
OPT_EOL, OPT_NOP = 0, 1

PCAP_MAGIC = 0xA1B2C3D4
LINKTYPE_RAW = 101


def quad(addr):
    return ".".join(str((addr >> s) & 0xFF) for s in (24, 16, 8, 0))


def checksum(data):
    """RFC 1071 Internet checksum: the ones'-complement sum of big-endian
    16-bit words, carries folded back in, complemented."""
    if len(data) & 1:
        data = bytes(data) + b"\x00"
    s = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while s >> 16:
        s = (s & 0xFFFF) + (s >> 16)
    return ~s & 0xFFFF


def _seal(ip, seg):
    """Fill in the IPv4 header and TCP checksums; returns the packet bytes."""
    ip[10:12] = b"\x00\x00"
    ip[10:12] = checksum(ip).to_bytes(2, "big")
    seg[16:18] = b"\x00\x00"
    pseudo = bytes(ip[12:20]) + bytes((0, PROTO_TCP)) + len(seg).to_bytes(2, "big")
    seg[16:18] = checksum(pseudo + seg).to_bytes(2, "big")
    return bytes(ip) + bytes(seg)


def tcp_packet(saddr, daddr, sport, dport, seq=0, ack=0, flags=ACK,
               options=b"", payload=b"", ttl=64, ip_id=0):
    """One IPv4+TCP packet (no IP options) with valid checksums; TCP options
    are padded with EOL bytes to a 4-byte multiple."""
    options = bytes(options) + bytes((-len(options)) % 4)
    seg = bytearray(20) + options + payload
    seg[0:2] = sport.to_bytes(2, "big")
    seg[2:4] = dport.to_bytes(2, "big")
    seg[4:8] = (seq & 0xFFFFFFFF).to_bytes(4, "big")
    seg[8:12] = (ack & 0xFFFFFFFF).to_bytes(4, "big")
    seg[12] = (5 + len(options) // 4) << 4
    seg[13] = flags
    seg[14:16] = b"\xff\xff"
    ip = bytearray(20)
    ip[0] = 0x45
    ip[2:4] = (20 + len(seg)).to_bytes(2, "big")
    ip[4:6] = (ip_id & 0xFFFF).to_bytes(2, "big")
    ip[8] = ttl
    ip[9] = PROTO_TCP
    ip[12:16] = saddr.to_bytes(4, "big")
    ip[16:20] = daddr.to_bytes(4, "big")
    return _seal(ip, seg)


def corrupt_ip_checksum(pkt):
    """The packet with its IPv4 header checksum made invalid. XOR with
    0x5555 never maps a checksum onto its ones'-complement twin (0 <-> 0xFFFF),
    which would still verify."""
    b = bytearray(pkt)
    b[10] ^= 0x55
    b[11] ^= 0x55
    return bytes(b)


def tuple4(pkt):
    """(saddr, daddr, sport, dport) of an IPv4+TCP packet without IP options."""
    saddr, daddr = struct.unpack_from("!II", pkt, 12)
    sport, dport = struct.unpack_from("!HH", pkt, 20)
    return saddr, daddr, sport, dport


def with_tuple(pkt, saddr=None, daddr=None, sport=None, dport=None):
    """A copy of the packet with tuple fields replaced and checksums
    recomputed from scratch: what a correct translator emits."""
    ip = bytearray(pkt[:20])
    seg = bytearray(pkt[20:])
    if saddr is not None:
        ip[12:16] = saddr.to_bytes(4, "big")
    if daddr is not None:
        ip[16:20] = daddr.to_bytes(4, "big")
    if sport is not None:
        seg[0:2] = sport.to_bytes(2, "big")
    if dport is not None:
        seg[2:4] = dport.to_bytes(2, "big")
    return _seal(ip, seg)


def tcp_options(pkt):
    """[(kind, payload)] of the TCP options in wire order, NOPs skipped,
    stopping at EOL. Raises ValueError on a malformed option area."""
    end = 20 + 4 * (pkt[32] >> 4)
    if end > len(pkt):
        raise ValueError("TCP header overruns packet")
    out = []
    i = 40
    while i < end:
        kind = pkt[i]
        if kind == OPT_EOL:
            break
        if kind == OPT_NOP:
            i += 1
            continue
        if i + 1 >= end or pkt[i + 1] < 2 or i + pkt[i + 1] > end:
            raise ValueError(f"malformed option kind {kind}")
        out.append((kind, bytes(pkt[i + 2:i + pkt[i + 1]])))
        i += pkt[i + 1]
    return out


def strip_options_except(pkt, keep):
    """What a whitelist strip must emit: only options whose kind is in
    `keep`, in wire order, EOL-padded, with the data offset, IP total length
    and both checksums updated."""
    area = b"".join(bytes((k, 2 + len(p))) + p
                    for k, p in tcp_options(pkt) if k in keep)
    area += bytes((-len(area)) % 4)
    doff = pkt[32] >> 4
    seg = bytearray(pkt[20:40]) + area + pkt[20 + 4 * doff:]
    seg[12] = ((5 + len(area) // 4) << 4) | (seg[12] & 0x0F)
    ip = bytearray(pkt[:20])
    ip[2:4] = (20 + len(seg)).to_bytes(2, "big")
    return _seal(ip, seg)


def well_formed(pkt):
    """True when the bytes reparse as one IPv4+TCP packet whose lengths agree,
    whose option area walks cleanly and whose checksums verify."""
    if len(pkt) < 40 or pkt[0] != 0x45 or pkt[9] != PROTO_TCP:
        return False
    if int.from_bytes(pkt[2:4], "big") != len(pkt):
        return False
    try:
        tcp_options(pkt)
    except ValueError:
        return False
    pseudo = bytes(pkt[12:20]) + bytes((0, PROTO_TCP)) + (len(pkt) - 20).to_bytes(2, "big")
    return checksum(pkt[:20]) == 0 and checksum(pseudo + pkt[20:]) == 0


def write_pcap(path, packets):
    """A little-endian microsecond LINKTYPE_RAW pcap, one packet per
    microsecond."""
    with open(path, "wb") as f:
        f.write(struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, LINKTYPE_RAW))
        for i, p in enumerate(packets):
            f.write(struct.pack("<IIII", i // 1_000_000, i % 1_000_000, len(p), len(p)))
            f.write(p)


def read_pcap(path):
    """Packet bytes of a little-endian pcap file, in file order."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 24 or struct.unpack_from("<I", data)[0] != PCAP_MAGIC:
        raise ValueError(f"{path}: not a little-endian pcap file")
    out = []
    i = 24
    while i + 16 <= len(data):
        n = struct.unpack_from("<I", data, i + 8)[0]
        out.append(data[i + 16:i + 16 + n])
        i += 16 + n
    if i != len(data):
        raise ValueError(f"{path}: truncated record")
    return out
