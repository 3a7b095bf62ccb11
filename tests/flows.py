"""Flow tuples for the connection-table tests: the quads entries hold, as
(saddr, daddr, sport, dport) tuples, and the key of a 5-tuple."""

from midbox.conntrack import quad_key


def quad_of(t4):
    """The quad saddr<<64 | daddr<<32 | sport<<16 | dport of a tuple."""
    sa, da, sp, dp = t4[:4]
    return sa << 64 | da << 32 | sp << 16 | dp


def tuple_of(q):
    """(saddr, daddr, sport, dport) of a quad."""
    return (q >> 64, q >> 32 & 0xFFFFFFFF, q >> 16 & 0xFFFF, q & 0xFFFF)


def normalize(t5):
    """The key of a (saddr, daddr, sport, dport, proto) tuple."""
    return quad_key(quad_of(t5), t5[4])
