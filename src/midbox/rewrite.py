"""Target application: static mask/key rewrite, TCP option edits, and the
connection translation of tracked packets.

Static rewrites compile (`fields.fold`) to a keep-mask and a key over the
affected byte span of each header, at most one span for the IPv4 header and
one for the transport header, so the hot path is (packet & mask) | key at
the packet's own header offsets, whatever its IHL. Fields the match does
not guarantee to exist (e.g. a tcp-* target on a rule that can match UDP)
fall back to checked per-field writes. Option strips/adds rebuild the
option area and keep the data offset and IP total length coherent. A
tracked packet's addresses and ports are written by translate_session alone.
"""

import struct

from .conntrack import FWD, QUAD, mirror
from .errors import MalformedOption
from .fields import HDR, L4, OPT, PAYLOAD, PROTO_TCP, fold
from .packet import fix_checksums, parse_tcp_options, update_checksums, write_field
from .rules import ADD_OPT, MOD, SHUFFLE, STRIP, STRIP_EXCEPT, TUPLE_FIELDS

_MAX_OPT_AREA = 40
# wire layouts of translate_session: the two addresses, the two ports, a
# checksum
_ADDRS = struct.Struct("!Q")
_PORTS = struct.Struct("!I")
_CSUM = struct.Struct("!H")


def _encode_opt_value(value):
    if value is None:
        return b""
    if isinstance(value, int):
        return value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")
    return bytes(value)


class TargetProgram:
    """Compiled targets of one rule."""

    __slots__ = ("spans", "cond_fields", "payload_mods", "opt_strip",
                 "opt_strip_except", "opt_adds", "opt_mods", "dynamic")

    def __init__(self):
        self.spans = ()           # (base, lo, hi, keep mask, key), one per base
        self.cond_fields = []     # (fd, value) needing per-packet checks
        self.payload_mods = []    # (fd, bytes)
        self.opt_strip = frozenset()
        self.opt_strip_except = None  # frozenset whitelist, or None
        self.opt_adds = []        # (kind, payload bytes)
        self.opt_mods = []        # (kind, value)
        self.dynamic = []         # fds of shuffle targets

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
                continue
            # guaranteed-present fields fold into the mask/key; others get
            # checked writes so a mismatched packet passes untouched
            guaranteed = fd.proto is None or fd.proto == rule.proto_req
            if not guaranteed:
                tp.cond_fields.append((fd, t.value))
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

    spans = []
    for base, (bits, val) in folded.items():
        # the bytes from the first to the last one holding a written bit
        lo = HDR - (bits.bit_length() + 7) // 8
        cut = ((bits & -bits).bit_length() - 1) // 8  # bytes after the span
        hi = HDR - cut
        keep = ((1 << 8 * (hi - lo)) - 1) & ~(bits >> 8 * cut)
        spans.append((base, lo, hi, keep, val >> 8 * cut))
    tp.spans = tuple(spans)
    return tp


def apply_static(pkt, tp, counters):
    """Fixed-field rewrites: a masked write of each span at its header's
    offset in this packet. A span counts as a change only when its bytes
    change."""
    modified = False
    d = pkt.data
    for base, lo, hi, keep, key in tp.spans:
        at = pkt.l4_offset if base == L4 else pkt.l3_offset
        lo += at
        hi += at
        old = int.from_bytes(d[lo:hi], "big")
        new = (old & keep) | key
        if new != old:
            d = pkt.writable()
            d[lo:hi] = new.to_bytes(hi - lo, "big")
            pkt.invalidate()
            modified = True
    for fd, value in tp.cond_fields:
        if write_field(pkt, fd, value):
            modified = True
        else:
            counters["rewrite_skipped"] += 1
    for fd, value in tp.payload_mods:
        if write_field(pkt, fd, value):
            modified = True
        else:
            counters["rewrite_skipped"] += 1
    return modified


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

    Both checksums move by the RFC 1624 difference between the quad the
    packet carries (read from its probe window) and the one it leaves with
    (0 for a packet already carrying its post-image). A quad, like any
    big-endian integer, is congruent to the sum of its 16-bit words modulo
    0xFFFF, so the transport delta is old - new and the IPv4 header delta
    (old >> 32) - (new >> 32), the addresses alone. This is the word
    difference update_checksums finds: a UDP result of 0 is stored as
    0xFFFF, a transport checksum that arrived wrong stays wrong by the same
    amount, and the IPv4 header checksum (valid, as parse_packet and the
    checksum step leave it) stays valid. A UDP packet without a checksum
    gets both recomputed by fix_checksums.
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
    l3 = pkt.l3_offset
    l4 = pkt.l4_offset
    (ip,) = _CSUM.unpack_from(d, l3 + 10)
    _CSUM.pack_into(d, l3 + 10, (ip + (old >> 32) - (new >> 32)) % 0xFFFF)
    _ADDRS.pack_into(d, l3 + 12, new >> 32)
    _PORTS.pack_into(d, l4, new & 0xFFFFFFFF)
    udp = pkt.ip_proto != PROTO_TCP
    at = l4 + 6 if udp else l4 + 16
    (hc,) = _CSUM.unpack_from(d, at)
    if udp and hc == 0:
        fix_checksums(pkt)
        return
    hc = (hc + old - new) % 0xFFFF
    if hc == 0 and udp:
        hc = 0xFFFF
    _CSUM.pack_into(d, at, hc)
    pkt.invalidate()


def rewrite_packet(pkt, programs, entry, direction, counters):
    """Apply matched rules' programs in rule order, then the entry's
    bindings outside the tuple (`entry.extra`: forward packets get the
    rewritten value, reverse packets the original), then bring the
    checksums up to date, and last write the connection's addresses and
    ports (translate_session). Returns True when bytes changed.

    Same-length header writes (static mask/key spans, checked field writes,
    flags, bindings) patch the TCP/UDP checksum incrementally
    (update_checksums), so a checksum that arrived wrong stays wrong.
    Option edits, payload writes, writes to ip-proto, and UDP packets
    without a checksum recompute both checksums in full
    (fix_checksums), which also repairs one that arrived wrong. A packet
    whose TCP option area is malformed counts once in `malformed_options`.
    A packet with bindings counts as changed even when it already carried
    their values, and has its checksums normalised as if they had moved.
    No rule writes ip-len (`validate_rule` rejects it): the total length is
    the engine's, set only by option edits.
    """
    malformed = pkt._opts_bad
    extra = entry.extra if entry is not None else ()
    modified = full = False
    if programs or extra:
        before = bytes(pkt.data[pkt.l3_offset:pkt.l4_offset + 20])
        for tp in programs:
            if apply_static(pkt, tp, counters):
                modified = True
                full = full or bool(tp.payload_mods)
            if tp.has_option_edits:
                if apply_option_edits(pkt, tp, counters):
                    modified = full = True
                malformed = malformed or pkt._opts_bad
            if tp.dynamic and entry is None:
                counters["missing_binding"] += 1
        for b in extra:
            modified |= write_field(pkt, b.field,
                                    b.rewritten if direction == FWD else b.original)
        if modified and (full or not update_checksums(pkt, before)):
            fix_checksums(pkt)
    if malformed:
        counters["malformed_options"] += 1
    if entry is not None and entry.plan is not None:
        translate_session(pkt, entry, direction, programs)
        modified = True
    return modified
