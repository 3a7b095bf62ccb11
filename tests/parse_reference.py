"""The IPv4 parser as it stood before it read the fixed header fields in
one struct read and skipped VLAN tags, kept verbatim as the reference the
differential tests (test_parse_differential.py) hold `parse_packet` to.
Only its imports are new, and one change since: an Ethernet frame with the
IPv4 ethertype whose version is not 4 raises a plain PacketError (a drop)
rather than NotIPv4 (a bypass), as `parse_packet` does."""

from midbox.errors import BadChecksum, NotIPv4, PacketError, TruncatedPacket
from midbox.fields import HDR, PROTO_ICMP, PROTO_TCP, PROTO_UDP
from midbox.packet import ETHERNET, ETHERTYPE_IPV4, RAW_IP, PacketBuffer, checksum16


def parse_packet(data, link_type=RAW_IP, trace_id=None, ts=0.0):
    """Parse raw capture bytes into a PacketBuffer.

    Raises NotIPv4 / TruncatedPacket / BadChecksum; callers turn these into
    drop or bypass dispositions instead of passing bad packets downstream.
    """
    if not data:
        raise TruncatedPacket("empty packet")
    if link_type == ETHERNET:
        if len(data) < 14:
            raise TruncatedPacket("short ethernet header")
        ethertype = (data[12] << 8) | data[13]
        if ethertype != ETHERTYPE_IPV4:
            raise NotIPv4(f"ethertype 0x{ethertype:04x}")
        l3 = 14
    elif link_type == RAW_IP:
        l3 = 0
    else:
        raise ValueError(f"unsupported link type {link_type}")

    if len(data) < l3 + 20:
        raise TruncatedPacket("short IPv4 header")
    vh = data[l3]
    if vh >> 4 != 4:
        raise (PacketError if l3 else NotIPv4)(f"version {vh >> 4}")
    ihl = vh & 0x0F
    if ihl < 5:
        raise TruncatedPacket(f"IHL {ihl} below minimum")
    hdr_len = 4 * ihl
    total_len = (data[l3 + 2] << 8) | data[l3 + 3]
    if total_len < hdr_len:
        raise TruncatedPacket("total length below header length")
    end = l3 + total_len
    if len(data) < end:
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

    if type(data) is bytes and len(data) == end:
        buf, trailer = data, b""
    else:
        buf, trailer = bytes(data[:end]), bytes(data[end:])
    proto = data[l3 + 9]
    l4 = l3 + hdr_len

    frag_field = ((data[l3 + 6] << 8) | data[l3 + 7]) & 0x3FFF  # MF + offset
    is_fragment = frag_field != 0

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
