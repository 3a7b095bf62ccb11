"""The rewrite node: rule targets compiled into writers, and
rewrite_packet, which applies a matched packet's rules and its connection's
translation.

A rule's targets compile once (compile_targets) into writers `w(pkt,
counters)`, each returning None when no byte changed, FULL when both
checksums need a full recompute, or the RFC 1624 (IPv4, transport) deltas
of its write, which packet.patch_checksums applies once per packet.
Fixed-field rewrites fold (`fields.fold`, `fields.byte_span`) into a
keep-mask and a key over at most one span of the IPv4 header and one of
the transport header, written as (packet & mask) | key at the packet's own
header offsets, whatever its IHL. A field the match does not guarantee to
exist (e.g. a tcp-* target on a rule that can match UDP) gets a checked
span, written only on packets of its protocol. Option edits rebuild the
option area and keep the data offset and IP total length coherent.
rewrite_packet is the node's one entry point, called once per matched
packet: it picks each rule's writers, runs them, updates the checksums, and
last writes a tracked packet's addresses and ports from its connection.
"""

import struct
from functools import partial

from .conntrack import FWD, QUAD, mirror
from .fields import HDR, L4, OPT, PAYLOAD, PROTO_TCP, PROTO_UDP, byte_span, fold
from .packet import fix_checksums, options_map, patch_checksums, write_field
from .rules import ADD_OPT, MOD, SHUFFLE, STRIP, STRIP_EXCEPT, TUPLE_FIELDS

_MAX_OPT_AREA = 40
# wire layouts of the connection's write: the two addresses, the two ports
_ADDRS = struct.Struct("!Q")
_PORTS = struct.Struct("!I")

# a writer's result when both checksums need a full recompute
FULL = "full"


def _encode_opt_value(value):
    if value is None:
        return b""
    if isinstance(value, int):
        return value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")
    return bytes(value)


def compile_targets(rule, session=False):
    """The writers of a validated rule, in the order they run: guaranteed
    spans, checked spans, payload writes, option edits, and a shuffle
    rule's missing-binding count; none for a drop rule. Every writer of a
    rule that writes ip-proto (which the pseudo-header holds) or a payload
    returns FULL when it changes bytes.

    With `session`, the writers are the ones for the forward packets of the
    rule's own connections: they leave out the shuffles and the mods of
    tuple fields the rule's protocol guarantees, since those are the
    connection's bindings, which rewrite_packet writes from the entry."""
    folded = {}  # base -> [bits, val] over fold's header integer
    checked = []  # (protocol, span) written on that protocol only
    payloads = []  # payload writers
    options = {}  # apply_option_edits' keyword arguments
    full = shuffles = False

    for t in rule.targets:
        if t.kind == MOD:
            fd = t.field
            if fd.kind == OPT:
                options.setdefault("mods", []).append((fd.opt_kind, t.value))
                continue
            if fd.kind == PAYLOAD:
                payloads.append(_payload_writer(fd, bytes(t.value)))
                full = True
                continue
            full = full or fd.name == "ip-proto"
            # guaranteed-present fields fold into the mask/key; others get
            # checked writes so a mismatched packet passes untouched
            guaranteed = fd.proto is None or fd.proto == rule.proto_req
            if not guaranteed:
                checked.append((fd.proto, byte_span(*fold(fd, t.value))))
                continue
            if session and fd.name in TUPLE_FIELDS:
                continue
            base, bits, val = fold(fd, t.value)
            acc = folded.setdefault(base, [0, 0])
            acc[0] |= bits
            acc[1] = (acc[1] & ~bits) | val  # a later mod of the same bits wins
        elif t.kind == STRIP:
            options["strip"] = t.opt_kinds
        elif t.kind == STRIP_EXCEPT:
            options["keep"] = t.opt_kinds
        elif t.kind == ADD_OPT:
            options.setdefault("adds", []).append(
                (t.field.opt_kind, _encode_opt_value(t.value)))
        elif t.kind == SHUFFLE and not session:
            shuffles = True

    writers = [_span_writer(byte_span(base, *acc), None, full)
               for base, acc in folded.items()]
    writers += [_span_writer(span, proto, full) for proto, span in checked]
    writers += payloads
    if options:
        writers.append(partial(apply_option_edits, **options))
    if shuffles:
        writers.append(_count_missing_binding)
    return tuple(writers)


def _write_span(base, lo, hi, keep, key, pkt, counters=None):
    """The masked write of one span at its header's offset in this packet;
    an unchecked span's writer is this function with the span bound
    (partial), hence the argument order. Returns None when no byte changed,
    else its (IPv4, transport) checksum deltas: old - new over the span,
    and over its pseudo-header part (bytes 12-19 of an IPv4 span, all of a
    transport span). Read as integers, both are congruent modulo 0xFFFF to
    their word sums (see checksum16) once a span that ends on a word's high
    byte (an odd hi, as words are counted from the header's start) is
    shifted a byte up."""
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


def _span_writer(span, proto, full):
    """_write_span with `span` bound, unless a checked span (`proto`),
    which fragments and other protocols skip and count in rewrite_skipped,
    or a `full` rule's, which returns FULL for its deltas."""
    if proto is None and not full:
        return partial(_write_span, *span)

    def write(pkt, counters):
        if proto is not None and (pkt.ip_proto != proto or pkt.is_fragment):
            counters["rewrite_skipped"] += 1
            return None
        delta = _write_span(*span, pkt)
        return FULL if full and delta is not None else delta
    return write


def _payload_writer(fd, value):
    """The writer of `value` over the start of a payload field, counted in
    rewrite_skipped on a packet that cannot hold it."""
    def write(pkt, counters):
        if write_field(pkt, fd, value):
            return FULL
        counters["rewrite_skipped"] += 1
        return None
    return write


def _count_missing_binding(pkt, counters):
    """A shuffle rule's writer outside its own flows: a shuffle binds in a
    connection entry, which fragments and packets of neither TCP nor UDP
    never get, so those count in missing_binding."""
    if pkt.is_fragment or (pkt.ip_proto != PROTO_TCP and pkt.ip_proto != PROTO_UDP):
        counters["missing_binding"] += 1


def apply_option_edits(pkt, counters, strip=(), keep=None, adds=(), mods=()):
    """The option-edit writer, a rule's edits bound (partial): from the
    packet's option walk (options_map caches it), strip the `strip` kinds or
    all but the `keep` ones, modify `mods`, append `adds`, repack, and keep
    the data offset and IP total length coherent. Returns FULL after a
    change, else None; a malformed option area (pkt._opts_bad) is left
    alone."""
    if pkt.ip_proto != PROTO_TCP or pkt.is_fragment:
        return None
    if pkt._opts is None:
        options_map(pkt)
    orig = pkt._walk
    if orig is None:
        return None
    opts = orig
    if keep is not None:
        opts = [o for o in opts if o[0] in keep]
    elif strip:
        opts = [o for o in opts if o[0] not in strip]

    mod_changed = False
    if mods:
        out = []
        for kind, payload in opts:
            for mk, mv in mods:
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
    if adds:
        need = sum(2 + len(p) for _, p in opts) + sum(2 + len(p) for _, p in adds)
        if need > _MAX_OPT_AREA:
            counters["opt_add_skipped"] += 1
        else:
            opts = opts + adds
            added = True

    if opts == orig and not mod_changed and not added:
        return None

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
    return FULL


def rewrite_packet(pkt, rules, entry, direction, counters):
    """The rewrite node for one matched packet: `rules` are its matched
    compiled rules in id order, `entry` and `direction` its connection
    (None when untracked). Runs each rule's writers in rule order (the
    forward packets of the rule that owns the connection take its
    `own_writers`, which leave the connection's bindings out), then writes
    the entry's bindings outside the tuple (`entry.extra`: forward packets
    get the rewritten value, reverse packets the original), then brings the
    checksums up to date, and last writes the connection's addresses and
    ports. Returns True when bytes changed; a write that leaves the bytes as
    they were is no change.

    Every same-length header write (spans, checked spans, bindings) returns
    its RFC 1624 deltas, and patch_checksums moves both checksums by their
    sum, so a transport checksum that arrived wrong stays wrong by the same
    amount. A FULL writer (option edits, and writes of a rule that writes
    ip-proto or a payload), a binding of ip-proto, and UDP packets without
    a checksum recompute both checksums in full (fix_checksums), which also
    repairs one that arrived wrong. A packet whose TCP option area is
    malformed counts once in `malformed_options`. No rule writes ip-len
    (`validate_rule` rejects it): the total length is the engine's, set
    only by option edits.

    The connection's write comes last and sets a tracked TCP or UDP packet's
    addresses and ports: forward packets leave with the quad post_q, reverse
    packets with the mirror of pre_q. The quad's upper 64 bits are written
    as the addresses at l3+12 and its lower 32 as the ports at the L4
    offset, so any IHL works (fragments never have an entry). When rule
    writers ran, a tuple field that no binding covers keeps what they wrote
    there: the new quad is the packet's own outside the plan's bound mask.
    Its checksums move as after any same-length write: a quad, like any
    big-endian integer, is congruent to the sum of its 16-bit words modulo
    0xFFFF, so the transport delta is old - new, from the quad the packet
    carries (its probe window's) to the one it leaves with, and the IPv4
    header's (old >> 32) - (new >> 32), the addresses alone.
    """
    changed = full = ran = False
    ip = l4 = 0
    if rules:
        own = entry.rule_id if entry is not None and direction == FWD else None
        for cr in rules:
            for w in cr.own_writers if cr.rule.id == own else cr.writers:
                ran = True
                delta = w(pkt, counters)
                if delta is None:
                    continue
                changed = True
                if delta is FULL:
                    full = True
                else:
                    ip += delta[0]
                    l4 += delta[1]
    if entry is not None:
        for b in entry.extra:
            delta = _write_span(*(b.fwd if direction == FWD else b.rev), pkt)
            if delta is not None:
                changed = True
                full = full or b.field.name == "ip-proto"
                ip += delta[0]
                l4 += delta[1]
    if changed and (full or not patch_checksums(pkt, ip, l4)):
        fix_checksums(pkt)
    if pkt._opts_bad:
        counters["malformed_options"] += 1
    if entry is None:
        return changed
    plan = entry.plan
    if plan is None:
        return changed
    old = pkt.window() >> 128 & QUAD
    if direction == FWD:
        new, bound = entry.post_q, plan.bound
    else:
        new, bound = mirror(entry.pre_q), plan.mirror
    if ran:
        new = old & ~bound | new & bound
    d = pkt.writable()
    _ADDRS.pack_into(d, pkt.l3_offset + 12, new >> 32)
    _PORTS.pack_into(d, pkt.l4_offset, new & 0xFFFFFFFF)
    if not patch_checksums(pkt, (old >> 32) - (new >> 32), old - new):
        fix_checksums(pkt)
    return True
