"""Target application: static mask/key rewrite, TCP option edits, and the
connection translation of tracked packets.

Fixed-field rewrites compile (`fields.fold`, `fields.byte_span`) to a
keep-mask and a key over the affected byte span of a header, at most one
span for the IPv4 header and one for the transport header, so the hot path
is (packet & mask) | key at the packet's own header offsets, whatever its
IHL. Fields the match does not guarantee to exist (e.g. a tcp-* target on a
rule that can match UDP) get a span of their own, written only on packets
of their protocol. Each span write returns its RFC 1624 checksum deltas,
which packet.patch_checksums applies once per packet. Option strips/adds
rebuild the option area and keep the data offset and IP total length
coherent. A tracked packet's addresses and ports are written by
translate_session alone.
"""

import struct

from .conntrack import FWD, QUAD, mirror
from .errors import MalformedOption
from .fields import HDR, L4, OPT, PAYLOAD, PROTO_TCP, byte_span, fold
from .packet import fix_checksums, parse_tcp_options, patch_checksums, write_field
from .rules import ADD_OPT, MOD, SHUFFLE, STRIP, STRIP_EXCEPT, TUPLE_FIELDS

_MAX_OPT_AREA = 40
# wire layouts of translate_session: the two addresses, the two ports
_ADDRS = struct.Struct("!Q")
_PORTS = struct.Struct("!I")


def _encode_opt_value(value):
    if value is None:
        return b""
    if isinstance(value, int):
        return value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")
    return bytes(value)


class TargetProgram:
    """Compiled targets of one rule."""

    __slots__ = ("spans", "cond_fields", "payload_mods", "opt_strip",
                 "opt_strip_except", "opt_adds", "opt_mods", "dynamic", "full")

    def __init__(self):
        self.spans = ()           # (base, lo, hi, keep mask, key), one per base
        self.cond_fields = []     # (protocol, span) written on that protocol only
        self.payload_mods = []    # (fd, bytes)
        self.opt_strip = frozenset()
        self.opt_strip_except = None  # frozenset whitelist, or None
        self.opt_adds = []        # (kind, payload bytes)
        self.opt_mods = []        # (kind, value)
        self.dynamic = []         # fds of shuffle targets
        self.full = False         # writes ip-proto or a payload: checksums in full

    @property
    def has_option_edits(self):
        return bool(self.opt_strip or self.opt_strip_except is not None
                    or self.opt_adds or self.opt_mods)

    @property
    def is_empty(self):
        return (not self.spans and not self.cond_fields
                and not self.payload_mods and not self.has_option_edits
                and not self.dynamic)


def compile_targets(rule, session=False):
    """Build the rewrite program for a validated rule. Drop rules compile to
    an empty program (the drop happens during classification).

    With `session`, the program is the one for the forward packets of the
    rule's own connections: it leaves out the shuffles and the mods of
    tuple fields the rule's protocol guarantees, since those are the
    connection's bindings, which the session writer and `entry.extra`
    write."""
    tp = TargetProgram()
    folded = {}  # base -> [bits, val] over fold's header integer

    for t in rule.targets:
        if t.kind == MOD:
            fd = t.field
            if fd.kind == OPT:
                tp.opt_mods.append((fd.opt_kind, t.value))
                continue
            if fd.kind == PAYLOAD:
                tp.payload_mods.append((fd, bytes(t.value)))
                tp.full = True
                continue
            tp.full = tp.full or fd.name == "ip-proto"
            # guaranteed-present fields fold into the mask/key; others get
            # checked writes so a mismatched packet passes untouched
            guaranteed = fd.proto is None or fd.proto == rule.proto_req
            if not guaranteed:
                tp.cond_fields.append((fd.proto, byte_span(*fold(fd, t.value))))
                continue
            if session and fd.name in TUPLE_FIELDS:
                continue
            base, bits, val = fold(fd, t.value)
            acc = folded.setdefault(base, [0, 0])
            acc[0] |= bits
            acc[1] = (acc[1] & ~bits) | val  # a later mod of the same bits wins
        elif t.kind == STRIP:
            tp.opt_strip = t.opt_kinds
        elif t.kind == STRIP_EXCEPT:
            tp.opt_strip_except = t.opt_kinds
        elif t.kind == ADD_OPT:
            tp.opt_adds.append((t.field.opt_kind, _encode_opt_value(t.value)))
        elif t.kind == SHUFFLE and not session:
            tp.dynamic.append(t.field)

    tp.spans = tuple(byte_span(base, bits, val) for base, (bits, val) in folded.items())
    return tp


def _write_span(pkt, base, lo, hi, keep, key):
    """The masked write of one span at its header's offset in this packet.
    Returns None when no byte changed, else its (IPv4, transport) checksum
    deltas: old - new over the span, and over its pseudo-header part (bytes
    12-19 of an IPv4 span, all of a transport span). Read as integers, both
    are congruent modulo 0xFFFF to their word sums (see checksum16) once a
    span that ends on a word's high byte (an odd hi, as words are counted
    from the header's start) is shifted a byte up."""
    at = pkt.l4_offset if base == L4 else pkt.l3_offset
    start = at + lo
    stop = at + hi
    old = int.from_bytes(pkt.data[start:stop], "big")
    new = (old & keep) | key
    if new == old:
        return None
    pkt.writable()[start:stop] = new.to_bytes(hi - lo, "big")
    if base == L4:
        ip, l4 = 0, old - new
    else:
        m = ((1 << 64) - 1) >> 8 * (HDR - hi)  # the span's bytes from 12 on
        ip, l4 = old - new, (old & m) - (new & m)
    if hi & 1:
        return ip << 8, l4 << 8
    return ip, l4


def apply_static(pkt, tp, counters):
    """Fixed-field rewrites, each a masked write of a span at its header's
    offset in this packet (a checked span only on packets of its protocol),
    then payload writes. Returns None when no byte changed, else the summed
    (IPv4, transport) checksum deltas of the span writes; after a payload
    write (`tp.full`) they are not the whole change."""
    ip = l4 = 0
    changed = False
    for span in tp.spans:
        delta = _write_span(pkt, *span)
        if delta is not None:
            changed = True
            ip += delta[0]
            l4 += delta[1]
    for proto, span in tp.cond_fields:
        if pkt.ip_proto != proto or pkt.is_fragment:
            counters["rewrite_skipped"] += 1
            continue
        delta = _write_span(pkt, *span)
        if delta is not None:
            changed = True
            ip += delta[0]
            l4 += delta[1]
    for fd, value in tp.payload_mods:
        if write_field(pkt, fd, value):
            changed = True
        else:
            counters["rewrite_skipped"] += 1
    return (ip, l4) if changed else None


def apply_option_edits(pkt, tp, counters):
    """Strip/whitelist/modify/append TCP options, repack, and keep the data
    offset and IP total length coherent. A no-op edit leaves bytes alone; a
    malformed option area is left alone and flagged in pkt._opts_bad."""
    if pkt.ip_proto != PROTO_TCP or pkt.is_fragment:
        return False
    try:
        views = parse_tcp_options(pkt)
    except MalformedOption:
        pkt._opts_bad = True
        return False

    d = pkt.data
    orig = [(v.kind, bytes(d[v.value_offset:v.value_offset + v.length - 2]))
            for v in views if v.kind != 1]
    opts = list(orig)
    if tp.opt_strip_except is not None:
        opts = [o for o in opts if o[0] in tp.opt_strip_except]
    elif tp.opt_strip:
        opts = [o for o in opts if o[0] not in tp.opt_strip]

    mod_changed = False
    if tp.opt_mods:
        out = []
        for kind, payload in opts:
            for mk, mv in tp.opt_mods:
                if mk != kind:
                    continue
                if isinstance(mv, int):
                    try:
                        enc = mv.to_bytes(len(payload), "big")
                    except OverflowError:
                        enc = None
                else:
                    enc = bytes(mv) if len(mv) == len(payload) else None
                if enc is None:
                    counters["rewrite_skipped"] += 1
                elif enc != payload:
                    payload = enc
                    mod_changed = True
            out.append((kind, payload))
        opts = out

    added = False
    if tp.opt_adds:
        need = sum(2 + len(p) for _, p in opts) + sum(2 + len(p) for _, p in tp.opt_adds)
        if need > _MAX_OPT_AREA:
            counters["opt_add_skipped"] += 1
        else:
            opts = opts + tp.opt_adds
            added = True

    if opts == orig and not mod_changed and not added:
        return False

    area = b"".join(bytes((k, 2 + len(p))) + p for k, p in opts)
    pad = (-len(area)) % 4
    area += bytes(pad)

    l4 = pkt.l4_offset
    old_doff = pkt.tcp_data_offset
    old_end = l4 + 4 * old_doff
    new_doff = 5 + len(area) // 4
    d = pkt.writable()
    d[l4 + 20:old_end] = area
    d[l4 + 12] = (new_doff << 4) | (d[l4 + 12] & 0x0F)
    delta = len(area) - (old_end - l4 - 20)
    if delta:
        l3 = pkt.l3_offset
        total = ((d[l3 + 2] << 8) | d[l3 + 3]) + delta
        d[l3 + 2:l3 + 4] = total.to_bytes(2, "big")
    pkt.invalidate()
    return True


def translate_session(pkt, entry, direction, programs):
    """The connection translation of a tracked TCP or UDP packet, the one
    writer of its addresses and ports. Forward packets leave with the quad
    post_q, reverse packets with the mirror of pre_q: its upper 64 bits are
    written as the addresses at l3+12 and its lower 32 as the ports at the
    L4 offset, so any IHL works (fragments never have an entry). After
    `programs` ran, a tuple field that no binding covers keeps what they
    wrote there: the new quad is the packet's own outside the plan's bound
    mask.

    The checksums move as after any same-length write (patch_checksums). A
    quad, like any big-endian integer, is congruent to the sum of its 16-bit
    words modulo 0xFFFF, so the transport delta is old - new, from the quad
    the packet carries (its probe window's) to the one it leaves with, and
    the IPv4 header's (old >> 32) - (new >> 32), the addresses alone.
    """
    old = pkt.window() >> 128 & QUAD
    plan = entry.plan
    if direction == FWD:
        new, bound = entry.post_q, plan.bound
    else:
        new, bound = mirror(entry.pre_q), plan.mirror
    if programs:
        new = old & ~bound | new & bound
    d = pkt.writable()
    _ADDRS.pack_into(d, pkt.l3_offset + 12, new >> 32)
    _PORTS.pack_into(d, pkt.l4_offset, new & 0xFFFFFFFF)
    if not patch_checksums(pkt, (old >> 32) - (new >> 32), old - new):
        fix_checksums(pkt)


def rewrite_packet(pkt, programs, entry, direction, counters):
    """Apply matched rules' programs in rule order, then the entry's
    bindings outside the tuple (`entry.extra`: forward packets get the
    rewritten value, reverse packets the original), then bring the
    checksums up to date, and last write the connection's addresses and
    ports (translate_session). Returns True when bytes changed; a write
    that leaves the bytes as they were is no change.

    Every same-length header write (spans, checked spans, bindings) returns
    its RFC 1624 deltas, and patch_checksums moves both checksums by their
    sum, so a transport checksum that arrived wrong stays wrong by the same
    amount. Option edits, writes to ip-proto (which the pseudo-header holds)
    or a payload, and UDP packets without a checksum recompute both checksums in full
    (fix_checksums), which also repairs one that arrived wrong. A packet
    whose TCP option area is malformed counts once in `malformed_options`.
    No rule writes ip-len (`validate_rule` rejects it): the total length is
    the engine's, set only by option edits.
    """
    malformed = pkt._opts_bad
    changed = full = False
    ip = l4 = 0
    for tp in programs:
        delta = apply_static(pkt, tp, counters)
        if delta is not None:
            changed = True
            full = full or tp.full
            ip += delta[0]
            l4 += delta[1]
        if tp.has_option_edits:
            if apply_option_edits(pkt, tp, counters):
                changed = full = True
            malformed = malformed or pkt._opts_bad
        if tp.dynamic and entry is None:
            counters["missing_binding"] += 1
    if entry is not None:
        for b in entry.extra:
            delta = _write_span(pkt, *(b.fwd if direction == FWD else b.rev))
            if delta is not None:
                changed = True
                full = full or b.field.name == "ip-proto"
                ip += delta[0]
                l4 += delta[1]
    if changed and (full or not patch_checksums(pkt, ip, l4)):
        fix_checksums(pkt)
    if malformed:
        counters["malformed_options"] += 1
    if entry is not None and entry.plan is not None:
        translate_session(pkt, entry, direction, programs)
        changed = True
    return changed
