"""A test-side writer of fixed fields and flags, kept apart from the
rewrite path's span writer (`rewrite._write_span`), so tests that compare
that path with field-by-field writes compare two implementations."""

from midbox.fields import L4


def write_bits(pkt, fd, value):
    """Write a bit-span field (a flag as 0/1) into the packet in place.
    Returns False and writes nothing when the packet does not carry the
    field: another protocol, a fragment, or a span past its end."""
    if fd.proto is not None and (pkt.ip_proto != fd.proto or pkt.is_fragment):
        return False
    start = (pkt.l4_offset if fd.base == L4 else pkt.l3_offset) + fd.offset
    stop = start + fd.span_bytes
    if stop > len(pkt.data):
        return False
    mask = ((1 << fd.width) - 1) << fd.shift
    old = int.from_bytes(pkt.data[start:stop], "big")
    new = old & ~mask | (value << fd.shift) & mask
    pkt.writable()[start:stop] = new.to_bytes(fd.span_bytes, "big")
    pkt.invalidate()
    return True
