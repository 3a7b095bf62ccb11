"""Target application: static mask/key rewrite, TCP option edits, dynamic
per-connection values.

Static rewrites compile (`fields.fold`) to a keep-mask and a key over the
affected byte span of each header, at most one span for the IPv4 header and
one for the transport header, so the hot path is (packet & mask) | key at
the packet's own header offsets, whatever its IHL. Fields the match does
not guarantee to exist (e.g. a tcp-* target on a rule that can match UDP)
fall back to checked per-field writes. Option strips/adds rebuild the
option area and keep the data offset and IP total length coherent.
"""

import struct

from .conntrack import FWD
from .errors import MalformedOption
from .fields import HDR, L4, OPT, PAYLOAD, PROTO_TCP, REGISTRY, fold
from .packet import fix_checksums, parse_tcp_options, update_checksums, write_field
from .rules import ADD_OPT, MOD, SHUFFLE, STRIP, STRIP_EXCEPT

_MAX_OPT_AREA = 40
# wire layouts of translate_session: the IPv4 header checksum and the
# addresses after it, the ports, a transport checksum
_CSUM_ADDRS = struct.Struct("!HII")
_PORTS = struct.Struct("!HH")
_CSUM = struct.Struct("!H")


def _count(counters, name):
    if counters is not None:
        counters[name] = counters.get(name, 0) + 1


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


def compile_targets(rule):
    """Build the rewrite program for a validated rule. Drop rules compile to
    an empty program (the drop happens during classification)."""
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
        elif t.kind == SHUFFLE:
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


def apply_static(pkt, tp, counters=None):
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
            d[lo:hi] = new.to_bytes(hi - lo, "big")
            pkt.invalidate()
            modified = True
    for fd, value in tp.cond_fields:
        if write_field(pkt, fd, value):
            modified = True
        else:
            _count(counters, "rewrite_skipped")
    for fd, value in tp.payload_mods:
        if write_field(pkt, fd, value):
            modified = True
        else:
            _count(counters, "rewrite_skipped")
    return modified


def apply_option_edits(pkt, tp, counters=None):
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
                    _count(counters, "rewrite_skipped")
                elif enc != payload:
                    payload = enc
                    mod_changed = True
            out.append((kind, payload))
        opts = out

    added = False
    if tp.opt_adds:
        need = sum(2 + len(p) for _, p in opts) + sum(2 + len(p) for _, p in tp.opt_adds)
        if need > _MAX_OPT_AREA:
            _count(counters, "opt_add_skipped")
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
    d[l4 + 20:old_end] = area
    d[l4 + 12] = (new_doff << 4) | (d[l4 + 12] & 0x0F)
    delta = len(area) - (old_end - l4 - 20)
    if delta:
        l3 = pkt.l3_offset
        total = ((d[l3 + 2] << 8) | d[l3 + 3]) + delta
        d[l3 + 2:l3 + 4] = total.to_bytes(2, "big")
    pkt.invalidate()
    return True


_MIRROR = {a: REGISTRY[b] for a, b in (
    ("ip-saddr", "ip-daddr"), ("ip-daddr", "ip-saddr"),
    ("tcp-sport", "tcp-dport"), ("tcp-dport", "tcp-sport"),
    ("udp-sport", "udp-dport"), ("udp-dport", "udp-sport"))}


def mirror_field(fd):
    """The opposite-direction counterpart of a tuple field (sport <-> dport,
    saddr <-> daddr); fields without a mirror map to themselves."""
    return _MIRROR.get(fd.name, fd)


def apply_dynamic(pkt, entry, direction):
    """Per-connection translation: forward packets get the bound rewritten
    values; reverse packets get the originals written into mirrored fields."""
    modified = False
    if direction == FWD:
        for b in entry.bindings:
            modified |= write_field(pkt, b.field, b.rewritten)
    else:
        for b in entry.bindings:
            modified |= write_field(pkt, mirror_field(b.field), b.original)
    return modified


def translate_session(pkt, entry, direction):
    """The connection translation of a TCP or UDP packet whose entry binds
    tuple fields only (`entry.tuple_only`), without the generic writes and
    checksum pass. Forward packets leave with fwd_post, reverse packets
    with fwd_pre swapped; addresses and ports are written at the packet's
    own offsets, so any IHL works (fragments never have an entry). Returns
    True, or None, changing nothing, for a UDP packet without a checksum,
    which the caller sends down the generic path.

    Both checksums move by the RFC 1624 difference between the tuple the
    packet carried and the one it leaves with. ConnTable.lookup matched the
    packet to one of its direction's two tuples, so that is the session's
    constant sum(pre[:4]) - sum(post[:4]) (negated on the reverse path), or
    0 for a packet already carrying its post-image. A 32-bit address is
    congruent to the sum of its two words modulo 0xFFFF, so this is the
    word difference update_checksums finds, and the bytes equal those of
    apply_dynamic and update_checksums: a UDP result of 0 is stored as
    0xFFFF, a transport checksum that arrived wrong stays wrong by the same
    amount, and the IPv4 header checksum (valid, as parse_packet requires)
    moves by the address part alone.
    """
    d = pkt.data
    l3 = pkt.l3_offset
    l4 = pkt.l4_offset
    udp = pkt.ip_proto != PROTO_TCP
    at = l4 + 6 if udp else l4 + 16
    (hc,) = _CSUM.unpack_from(d, at)
    if udp and hc == 0:
        return None
    if direction == FWD:
        sa, da, sp, dp, _ = entry.fwd_post
    else:
        da, sa, dp, sp, _ = entry.fwd_pre
    ip, old_sa, old_da = _CSUM_ADDRS.unpack_from(d, l3 + 10)
    old_sp, old_dp = _PORTS.unpack_from(d, l4)
    addr_delta = old_sa + old_da - sa - da
    _CSUM_ADDRS.pack_into(d, l3 + 10, (ip + addr_delta) % 0xFFFF, sa, da)
    _PORTS.pack_into(d, l4, sp, dp)
    hc = (hc + addr_delta + old_sp + old_dp - sp - dp) % 0xFFFF
    if hc == 0 and udp:
        hc = 0xFFFF
    _CSUM.pack_into(d, at, hc)
    pkt.invalidate()
    return True


def rewrite_packet(pkt, programs, entry=None, direction=None, counters=None):
    """Apply matched rules' programs in rule order, then the connection
    translation, then bring the checksums up to date. Returns True when
    bytes changed.

    Same-length header writes (static mask/key spans, checked field writes,
    flags, NAT bindings) patch the TCP/UDP checksum incrementally
    (update_checksums), so a checksum that arrived wrong stays wrong.
    Option edits, payload writes, writes to ip-len or ip-proto, and UDP
    packets without a checksum recompute both checksums in full
    (fix_checksums), which also repairs one that arrived wrong. A packet
    whose TCP option area is malformed counts once in `malformed_options`.

    A packet that no program rewrites and whose entry binds tuple fields
    only takes translate_session, which gives the same bytes without the
    generic writes and checksum pass.
    """
    malformed = pkt._opts_bad
    if (not programs and entry is not None and entry.tuple_only
            and direction is not None):
        modified = translate_session(pkt, entry, direction)
        if modified is not None:
            if malformed:
                _count(counters, "malformed_options")
            return modified
    before = bytes(pkt.data[pkt.l3_offset:pkt.l4_offset + 20])
    modified = full = False
    for tp in programs:
        if apply_static(pkt, tp, counters):
            modified = True
            full = full or bool(tp.payload_mods)
        if tp.has_option_edits:
            if apply_option_edits(pkt, tp, counters):
                modified = full = True
            malformed = malformed or pkt._opts_bad
        if tp.dynamic and entry is None:
            _count(counters, "missing_binding")
    if entry is not None and entry.bindings and direction is not None:
        if apply_dynamic(pkt, entry, direction):
            modified = True
    if malformed:
        _count(counters, "malformed_options")
    if modified and (full or not update_checksums(pkt, before)):
        fix_checksums(pkt)
    return modified
