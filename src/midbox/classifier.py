"""Mask-based hash classification.

Fast-path matches compile into per-mask tables: the packet window is AND-ed
with the table mask and the result looked up by hash; a hit means
(packet & mask) XOR key == 0 for that entry's key. Whatever cannot live in a
mask (complex conditions, negated matches, TCP options, payload bytes)
remains as a per-rule residue, evaluated on mask survivors or, for rules
with no mask at all, on every packet. The residue and the rule's protocol
gate are compiled once, when the rule is, into one predicate
(`CompiledRule.test`, built from `compile_match`). Option matches read one
per-packet map (`packet.options_map`), built by one walk of the option area
and holding each option's payload and its integer, so no rule decodes a
payload again.

A rule's equalities and set-flag checks fold (`fields.fold`) into one mask
and one key over a 40-byte window read as one integer
(`PacketBuffer.window`): the first 20 bytes of the IPv4 header, then the
first 20 bytes of the transport header wherever IP options put it. A table
is (shift, mask): the window is shifted right by the mask's trailing zero
bits, rounded down to a multiple of 128, and the mask and keys are stored
shifted the same way.

Every packet probes every table, fragments and IP options included: each
transport field implies a protocol, and the rule's protocol gate rejects
fragments and other protocols before any residue. Tables are probed a
vector at a time (`match_tables`): each table runs over every packet of the
vector, and tables that share a shift share one shifted copy of each
packet's window.

One compiled rule set (`RuleSetSnapshot`) holds the tables and the
maskless rules. A rule is compiled and placed by `add` and taken out by
`remove`, in place; the engine calls them only between vectors.

The rest of the classify node (`classify_vector`) walks the vector's
packets in order: each packet's connection (`ConnTable.lookup`), then its
table hits plus the maskless rules. `classify` is its one-packet case.
"""

from operator import eq, ge, gt, is_not, le, lt, ne

from .conntrack import FWD, OUT_OF_PORTS, TABLE_FULL
from .fields import (FIXED, FLAG, HDR, L3, L4, OPT, PAYLOAD, PROTO_ICMP,
                     PROTO_TCP, PROTO_UDP, fold, prefix_mask)
from .packet import options_map
from .rewrite import compile_targets
from .rules import EQ, GEQ, GT, LEQ, LT, NEQ, PRESENT, DROP as T_DROP, tuple_writes

# where fold's header integers sit in the window: the IPv4 header at byte
# 0, the transport header right after it
_AT = {L3: 8 * HDR, L4: 0}

# verdict kinds
DROP = "drop"
MISS = "miss"
MATCH = "match"


def _span(fd, op, val, mask):
    """pkt -> op(bits, val) for a FIXED or FLAG field, `bits` being the
    field's value AND `mask`; False where read_field gives ABSENT (another
    protocol, a fragment, or a span past the packet's end)."""
    proto, l4, off, n, shift = (fd.proto, fd.base == L4, fd.offset,
                                fd.span_bytes, fd.shift)

    def test(p):
        if proto is not None and (p.ip_proto != proto or p.is_fragment):
            return False
        d = p.data
        i = (p.l4_offset if l4 else p.l3_offset) + off
        return i + n <= len(d) and op(
            int.from_bytes(d[i:i + n], "big") >> shift & mask, val)
    return test


def _option(fd, op, val):
    """pkt -> op(payload, val) for a TCP option, comparing the payload's
    integer from the packet's option map when `val` is one; False when the
    option is absent. The cached option map is empty for anything but an
    unfragmented, well-formed TCP packet, which is the field's protocol
    check."""
    k = fd.opt_kind
    i = int(type(val) is int)  # (payload, integer): which one to compare

    def test(p):
        o = p._opts
        v = (options_map(p) if o is None else o).get(k)
        return v is not None and op(v[i], val)
    return test


def _payload(fd, op, val, n):
    """pkt -> op(payload[:n], val) for a payload field; False on another
    protocol or a fragment."""
    proto, udp = fd.proto, fd.payload_base == "udp"

    def test(p):
        if proto is not None and (p.ip_proto != proto or p.is_fragment):
            return False
        i = p.l4_offset + 8 if udp else p.payload_offset
        return op(p.data[i:i + n], val)
    return test


_ORDER = {EQ: eq, NEQ: ne, LT: lt, GT: gt, LEQ: le, GEQ: ge}
_NEGATED = {eq: ne, ne: eq, lt: ge, gt: le, le: gt, ge: lt}


def compile_match(m):
    """One match expression as a predicate pkt -> bool, with every choice
    that depends only on the expression made here, once: the field's kind
    and protocol, the condition, the value's type and the negation.

    An ABSENT field satisfies only a negated presence check; every other
    condition fails on ABSENT regardless of negation. So presence is a
    comparison that holds whenever the field can be read (a set bit for a
    flag, a first byte for a payload), and its negation is `not` of it,
    while a negated comparison is the opposite comparison.
    """
    fd, kind, val = m.field, m.field.kind, m.value
    if m.cond == PRESENT:
        if kind == OPT:
            test = _option(fd, is_not, None)  # present: payload is not None
        elif kind == PAYLOAD:
            test = _payload(fd, ne, b"", 1)  # present: it has a first byte
        else:
            one = int(kind == FLAG)  # a flag's bit is set; a span is readable
            test = _span(fd, eq, one, one)
        return (lambda p: not test(p)) if m.negated else test
    if type(val) is tuple or isinstance(val, (bytes, bytearray)):
        op = eq if m.cond == EQ else ne
    else:
        op = _ORDER[m.cond]
    if m.negated:
        op = _NEGATED[op]
    if kind == OPT:
        return _option(fd, op, val)
    if kind == PAYLOAD:
        return _payload(fd, op, val, len(val))
    if type(val) is tuple:  # (addr, prefix_len): compare the prefix bits
        mask = prefix_mask(val[1])
        return _span(fd, op, val[0] & mask, mask)
    return _span(fd, op, val, (1 << fd.width) - 1)


def _match_is_foldable(m):
    """True when the match can live entirely in a classification mask/key:
    a non-negated equality on a fixed span, or a set-flag presence bit."""
    return not m.negated and (m.field.kind, m.cond) in ((FIXED, EQ), (FLAG, PRESENT))


def _fold_matches(rule):
    """(shift, mask, key, residue, never): the rule's foldable matches
    folded into a table shift and a mask and key shifted by it (mask 0 when
    nothing folds), and the matches left over.

    The only foldable matches that set no mask bit are /0 prefixes, which
    always hold, so a maskless rule's residue is all it has to check.
    `never` marks a rule whose folded equalities contradict each other; it
    can match nothing and is excluded from table and slow paths alike.
    """
    mask = key = 0
    residue = []
    never = False
    for m in rule.matches:
        if not _match_is_foldable(m):
            residue.append(m)
            continue
        fd = m.field
        base, bits, val = fold(fd, 1 if fd.kind == FLAG else m.value)
        at = _AT[base]
        bits <<= at
        val <<= at
        if (key ^ val) & mask & bits:
            never = True  # two equalities on the same bits disagree
        mask |= bits
        key |= val
    shift = ((mask & -mask).bit_length() - 1) // 128 * 128 if mask else 0
    return shift, mask >> shift, key >> shift, residue, never


def _options_last(exprs):
    """`exprs` with every TCP-option match moved behind the others, so the
    cheap checks can fail a packet before its option area is walked."""
    cheap, opts = [], []
    for m in exprs:
        (opts if m.field.kind == OPT else cheap).append(m)
    return tuple(cheap + opts)


def _gate(proto):
    def gate(p):
        return p.ip_proto == proto and not p.is_fragment
    return gate


def _anything(p):
    return True


# one gate per protocol, shared by every rule that needs it; it is the whole
# test of a rule with a protocol and no residue
_GATES = {proto: _gate(proto) for proto in (PROTO_ICMP, PROTO_TCP, PROTO_UDP)}


def _implies(m, proto):
    """True when match `m` fails on every protocol but `proto` and on
    fragments by itself: a match on one of its fields, unless a negated
    presence check, which absence satisfies."""
    return m.field.proto == proto and not (m.negated and m.cond == PRESENT)


def _rule_test(proto, residue):
    """pkt -> bool for a rule: its protocol gate, then `residue` in order.
    A rule whose one residue match implies its protocol is that match's
    predicate alone."""
    if not residue:
        return _anything if proto is None else _GATES[proto]
    if len(residue) == 1 and (proto is None or _implies(residue[0], proto)):
        return compile_match(residue[0])
    tests = [compile_match(m) for m in residue]
    if proto is not None:
        tests.insert(0, _GATES[proto])
    tests = tuple(tests)

    def test(p):
        for t in tests:
            if not t(p):
                return False
        return True
    return test


class CompiledRule:
    """One rule prepared for execution: table shift, mask and key, match
    test, writers.

    `test` is the rule's protocol gate and its residue, the matches the
    mask could not fold, compiled into one predicate; it runs
    on packets that hit the rule's table entry, or on every packet for a
    maskless rule (mask 0). `writers` are the rule's rewrite writers and
    `own_writers` the ones for the forward packets of its own connections
    (compile_targets with `session`), the same unless the rule is stateful
    and `translates`, writes the tuple (rules.tuple_writes); each is ()
    when the rule writes nothing."""

    __slots__ = ("rule", "shift", "mask", "key", "test", "writers",
                 "own_writers", "drop", "never", "translates")

    def __init__(self, rule):
        self.rule = rule
        self.shift, self.mask, self.key, residue, self.never = _fold_matches(rule)
        self.test = _rule_test(rule.proto_req, _options_last(residue))
        self.drop = any(t.kind == T_DROP for t in rule.targets)
        self.translates = bool(tuple_writes(rule))
        self.writers = compile_targets(rule)
        self.own_writers = (compile_targets(rule, True)
                            if rule.stateful and self.translates else self.writers)


class ClassifierTable:
    """One hash table per distinct (shift, mask); `entries` maps a shifted
    key to the rules behind it, a tuple in insertion order."""

    __slots__ = ("shift", "mask", "entries")

    def __init__(self, shift, mask):
        self.shift = shift
        self.mask = mask
        self.entries = {}

    def __repr__(self):
        return (f"ClassifierTable(shift={self.shift}, mask={self.mask:x}, "
                f"keys={len(self.entries)})")


class RuleSetSnapshot:
    """The compiled rule set: the mask tables (`index` maps each table's
    (shift, mask) to it), the maskless rules (`slow`), every compiled rule
    by id, and `stateful`, the number of stateful rules among them. The
    constructor places each rule through `add`, and `version` counts the
    adds and removes, starting from `version`."""

    __slots__ = ("tables", "slow", "by_id", "stateful", "version", "index",
                 "_groups")

    def __init__(self, rules, version=0):
        self.version = version
        self.stateful = 0
        self._groups = None
        self.tables = []
        self.slow = []
        self.by_id = {}
        self.index = {}
        for rule in rules:
            self.add(rule)

    def add(self, rule):
        """Compile `rule` and place it. Its id must exceed every id here,
        so an entry's rules and the maskless rules stay in id order."""
        cr = self.by_id[rule.id] = CompiledRule(rule)
        self.version += 1
        self.stateful += rule.stateful
        if cr.never:
            return
        if not cr.mask:
            self.slow.append(cr)
            return
        tkey = (cr.shift, cr.mask)
        table = self.index.get(tkey)
        if table is None:
            table = self.index[tkey] = ClassifierTable(*tkey)
            self.tables.append(table)
            self._groups = None
        table.entries[cr.key] = table.entries.get(cr.key, ()) + (cr,)

    def remove(self, rule_id):
        """Take out the rule `rule_id`; a table left with no keys is
        dropped."""
        cr = self.by_id.pop(rule_id)
        self.version += 1
        self.stateful -= cr.rule.stateful
        if cr.never:
            return
        if not cr.mask:
            self.slow.remove(cr)
            return
        entries = self.index[cr.shift, cr.mask].entries
        rest = tuple(c for c in entries[cr.key] if c is not cr)
        if rest:
            entries[cr.key] = rest
            return
        del entries[cr.key]
        if not entries:
            self.tables.remove(self.index.pop((cr.shift, cr.mask)))
            self._groups = None

    def groups(self):
        """The tables grouped by window shift, as ((shift, (table, ...)),
        ...). Built on the first probe after a table is created or
        dropped; a change inside a table keeps it."""
        groups = self._groups
        if groups is None:
            by_shift = {}
            for t in self.tables:
                by_shift.setdefault(t.shift, []).append(t)
            groups = self._groups = tuple((shift, tuple(tables))
                                          for shift, tables in by_shift.items())
        return groups

    def stats_lines(self):
        out = [f"{len(self.tables)} tables, {len(self.slow)} maskless rules"]
        for i, t in enumerate(self.tables):
            nrules = sum(map(len, t.entries.values()))
            out.append(f"table {i}: shift={t.shift} keys={len(t.entries)} "
                       f"rules={nrules} mask={t.mask:x}")
        return out


class Verdict:
    __slots__ = ("kind", "rule_ids", "entry", "direction")

    def __init__(self, kind, rule_ids=(), entry=None, direction=None):
        self.kind = kind
        self.rule_ids = rule_ids
        self.entry = entry
        self.direction = direction

    def __repr__(self):
        return f"Verdict({self.kind}, rules={list(self.rule_ids)})"


def match_tables(pkts, snap):
    """The rules each packet of a vector matched through the mask tables,
    residues included: hits[i] is () when nothing hit pkts[i], else a list
    in probe order. Each table runs over the whole vector, and each window
    is shifted once per group of tables sharing a shift."""
    hits = [()] * len(pkts)
    if not snap.tables:
        return hits
    # parse_packet leaves an IHL-5 packet's window cached
    wins = [p._win or p.window() for p in pkts]
    for shift, tables in snap.groups():
        xs = [w >> shift for w in wins]
        for t in tables:
            get, mask = t.entries.get, t.mask
            for i, x in enumerate(xs):
                e = get(x & mask)
                if e is None:
                    continue
                p = pkts[i]
                for cr in e:
                    if cr.test(p):
                        if hits[i]:
                            hits[i].append(cr)
                        else:
                            hits[i] = [cr]
    return hits


_MISS = Verdict(MISS)


def classify(pkt, snap, conn=None, now=0.0):
    """Drop/miss/match verdict for one packet: classify_vector over a
    vector of one."""
    r = classify_vector((pkt,), snap, conn, now, match_tables((pkt,), snap))[0]
    if r is None:
        return _MISS
    kind, crs, entry, direction = r
    return Verdict(kind, tuple(cr.rule.id for cr in crs), entry, direction)


def classify_vector(pkts, snap, conn, now, hits):
    """The classify node over a vector, one packet after another: its
    connection (`conn.lookup`), then its rules (its `hits` from
    match_tables, then the maskless rules). A packet is looked up after
    the packets before it have opened their flows, so it sees them. With
    `conn` None no packet is looked up or tracked.

    Returns one result per packet: None for a miss, else (kind, rules,
    entry, direction) with kind DROP or MATCH and the matched compiled
    rules in id order. A tracked reverse/forward packet yields MATCH even
    without a rule hit; any matched drop rule dominates everything else,
    and a dropped packet opens no connection. A new flow whose stateful
    rule finds no free shuffle value, or translates and finds the
    connection table full, is dropped.
    """
    slow = snap.slow
    lookup = None if conn is None else conn.lookup
    res = [None] * len(pkts)
    e = d = None
    for i, p in enumerate(pkts):
        if lookup is not None:
            e, d = lookup(p, now)
        h = hits[i]
        if slow:
            h = _with_slow(p, h, slow)
        if h:
            res[i] = _by_rules(p, h, e, d, conn, now)
        elif e is not None:
            res[i] = MATCH, (), e, d
    return res


def _with_slow(pkt, hits, slow):
    """`hits` followed by the maskless rules `pkt` matches."""
    matched = [cr for cr in slow if cr.test(pkt)]
    return [*hits, *matched] if matched else hits


def _rule_id(cr):
    return cr.rule.id


def _owner(a, b):
    """Of two compiled stateful rules a packet matched, the one to own its
    connection: one that translates the tuple before one that does not,
    then the lower id. Otherwise a rule that only tracks would take a flow
    that another rule's address rewrite then sends out unshuffled and
    leaves its replies untranslated."""
    if a.translates != b.translates:
        return a if a.translates else b
    return a if a.rule.id < b.rule.id else b


def _by_rules(pkt, matched, entry, direction, conn, now):
    """The result of a packet that matched rules: counts their hits, then
    a drop rule drops it; otherwise the stateful rule `_owner` picks,
    whatever the order tables were probed in, opens a connection for an
    untracked packet."""
    drop = False
    owner = None
    for cr in matched:
        rule = cr.rule
        rule.hits += 1
        if cr.drop:
            drop = True
        if rule.stateful:
            owner = cr if owner is None else _owner(owner, cr)
    if len(matched) > 1:
        matched = sorted(matched, key=_rule_id)
    if drop:
        return DROP, matched, entry, direction
    if owner is not None and entry is None and conn is not None:
        entry = conn.insert(pkt, owner.rule, now)
        if entry is OUT_OF_PORTS or entry is TABLE_FULL:
            return DROP, matched, None, None
        direction = FWD if entry is not None else None
    return MATCH, matched, entry, direction
