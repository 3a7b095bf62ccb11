"""Symbolic packet field registry.

Every field the rule language can name maps to a FieldDescriptor telling the
engine how to locate it in a packet: a fixed bit span relative to the L3 or L4
header (a TCP flag is a 1-bit span of the flags byte), a TCP option (by kind),
or the L3/UDP payload. `fold` is the one place a field and a value become
mask bits; the classifier and the static rewrite both build on it, the
rewrite through `byte_span`.
"""

from dataclasses import dataclass

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

PROTO_NAMES = {PROTO_ICMP: "icmp", PROTO_TCP: "tcp", PROTO_UDP: "udp"}
PROTO_NUMBERS = {v: k for k, v in PROTO_NAMES.items()}

# locator kinds; a FLAG is a FIXED span whose presence means "set"
FIXED = 0
FLAG = 1
OPT = 2
PAYLOAD = 3

# anchor bases for FIXED locators
L3 = 0
L4 = 1

# every FIXED field lies in the first HDR bytes of its base header: the
# IPv4 header without options, the TCP header without options
HDR = 20

# TCP option kinds the language names directly
TCP_OPT_KINDS = {
    "mss": 2,
    "wscale": 3,
    "sackp": 4,
    "sack": 5,
    "timestamp": 8,
    "mptcp": 30,
    "fastopen": 34,
}
TCP_OPT_NAMES = {v: k for k, v in TCP_OPT_KINDS.items()}

# the TCP flag bits, and each flag's bit index within the flags byte
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10
TCP_FLAG_BITS = {"fin": 0, "syn": 1, "rst": 2, "psh": 3, "ack": 4, "urg": 5}


@dataclass(frozen=True)
class FieldDescriptor:
    """Where a named field lives in a packet.

    For FIXED and FLAG locators the field occupies `width` bits ending
    `shift` bits above the LSB of a big-endian span of
    ceil((shift+width)/8) bytes at `base`+`offset`; a FLAG is one bit of
    the TCP flags byte. For OPT it is the payload of the TCP option with
    kind `opt_kind`; for PAYLOAD the bytes following the IPv4 or UDP
    header.
    """

    name: str
    kind: int
    base: int = L3
    offset: int = 0
    width: int = 0
    shift: int = 0
    opt_kind: int = 0
    payload_base: str = ""
    proto: int | None = None  # protocol this field implies, if any
    is_addr: bool = False
    span_bytes: int = 0  # derived: byte length of the covered span

    def __post_init__(self):
        object.__setattr__(self, "span_bytes",
                           (self.shift + self.width + 7) // 8)

    def __str__(self):
        return self.name


def _ip(name, offset, width, shift=0, is_addr=False):
    return FieldDescriptor(name, FIXED, L3, offset, width, shift, is_addr=is_addr)


def _tcp(name, offset, width):
    return FieldDescriptor(name, FIXED, L4, offset, width, proto=PROTO_TCP)


def _udp(name, offset, width):
    return FieldDescriptor(name, FIXED, L4, offset, width, proto=PROTO_UDP)


def _icmp(name, offset, width):
    return FieldDescriptor(name, FIXED, L4, offset, width, proto=PROTO_ICMP)


def _flag(name, bit):
    return FieldDescriptor(name, FLAG, L4, 13, 1, bit, proto=PROTO_TCP)


def tcp_option_field(kind):
    """Descriptor for a TCP option field, by kind number."""
    name = TCP_OPT_NAMES.get(kind)
    name = f"tcp-opt-{name}" if name else f"tcp-opt {kind}"
    return FieldDescriptor(name, OPT, opt_kind=kind, proto=PROTO_TCP)


REGISTRY = {
    f.name: f
    for f in [
        _ip("ip-saddr", 12, 32, is_addr=True),
        _ip("ip-daddr", 16, 32, is_addr=True),
        _ip("ip-proto", 9, 8),
        _ip("ip-ttl", 8, 8),
        _ip("ip-dscp", 1, 6, shift=2),
        _ip("ip-ecn", 1, 2),
        _ip("ip-len", 2, 16),
        _ip("ip-id", 4, 16),
        FieldDescriptor("ip4-payload", PAYLOAD, payload_base="ip4"),
        _tcp("tcp-sport", 0, 16),
        _tcp("tcp-dport", 2, 16),
        _tcp("tcp-seq", 4, 32),
        _tcp("tcp-ack-num", 8, 32),
        _tcp("tcp-win", 14, 16),
        _tcp("tcp-flags", 13, 8),
        _flag("tcp-syn", TCP_FLAG_BITS["syn"]),
        _flag("tcp-ack", TCP_FLAG_BITS["ack"]),
        _flag("tcp-fin", TCP_FLAG_BITS["fin"]),
        _flag("tcp-rst", TCP_FLAG_BITS["rst"]),
        _flag("tcp-psh", TCP_FLAG_BITS["psh"]),
        _flag("tcp-urg", TCP_FLAG_BITS["urg"]),
        _udp("udp-sport", 0, 16),
        _udp("udp-dport", 2, 16),
        _udp("udp-len", 4, 16),
        FieldDescriptor("udp-payload", PAYLOAD, payload_base="udp", proto=PROTO_UDP),
        _icmp("icmp-type", 0, 8),
        _icmp("icmp-code", 1, 8),
    ]
}

for _name, _kind in TCP_OPT_KINDS.items():
    REGISTRY[f"tcp-opt-{_name}"] = tcp_option_field(_kind)


def prefix_mask(plen):
    """The 32-bit mask of an address prefix of `plen` bits."""
    return ((1 << plen) - 1) << (32 - plen) if plen else 0


def fold(fd, value):
    """(base, bits, val) of a FIXED or FLAG field: the bits it covers and
    the bits `value` sets in them, within the first HDR bytes of its base
    header read as one big-endian integer. An (addr, prefix_len) value
    covers its prefix only."""
    at = 8 * (HDR - fd.offset - fd.span_bytes)
    if type(value) is tuple:
        addr, plen = value
        bits = prefix_mask(plen)
        return fd.base, bits << at, (addr & bits) << at
    bits = ((1 << fd.width) - 1) << fd.shift
    return fd.base, bits << at, ((value << fd.shift) & bits) << at


def byte_span(base, bits, val):
    """(base, lo, hi, keep, key): fold's `bits` and `val` cut to header bytes
    lo..hi-1, the first to the last one holding a written bit."""
    lo = HDR - (bits.bit_length() + 7) // 8
    cut = ((bits & -bits).bit_length() - 1) // 8  # bytes after the span
    hi = HDR - cut
    keep = ((1 << 8 * (hi - lo)) - 1) & ~(bits >> 8 * cut)
    return base, lo, hi, keep, val >> 8 * cut
