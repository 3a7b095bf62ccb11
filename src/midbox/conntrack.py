"""Bidirectional 5-tuple connection table.

Entries are keyed by the normalized tuple (lexicographically smaller
endpoint first) so both directions of a flow hash to the same entry. Flows
whose stateful rule translates tuple fields are additionally indexed under
the translated tuple, which is what returning packets carry. Expiry is lazy:
stale entries die on lookup or during the budgeted sweep run between packet
vectors; there are no timers.
"""

import random
from dataclasses import dataclass
from typing import NamedTuple

from .fields import PROTO_TCP, PROTO_UDP
from .packet import ABSENT, read_field
from .rules import MOD, SHUFFLE, TUPLE_FIELDS, quad

FWD = "fwd"
REV = "rev"

# what insert returns for a new flow whose shuffle target has no free value
OUT_OF_PORTS = "out-of-ports"
# what insert returns for a new flow of a translating rule when the table
# is full
TABLE_FULL = "table-full"

# TCP states
NEW = "NEW"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT = "FIN_WAIT"
CLOSED = "CLOSED"
ACTIVE = "ACTIVE"  # UDP

FIN = 0x01
SYN = 0x02
RST = 0x04
ACK = 0x10

# where a tuple field sits in (saddr, daddr, sport, dport)
TUPLE_POS = {"ip-saddr": 0, "ip-daddr": 1,
             "tcp-sport": 2, "udp-sport": 2,
             "tcp-dport": 3, "udp-dport": 3}


@dataclass
class TimeoutPolicy:
    tcp_new: float = 30.0
    tcp_established: float = 240.0
    tcp_fin_wait: float = 15.0
    tcp_closed: float = 15.0
    udp: float = 60.0


class DynamicBinding(NamedTuple):
    field: object
    original: int
    rewritten: int


def _translates(rule):
    """True when a stateful rule rewrites its flows' tuples: it shuffles a
    field or mods a tuple field, so a flow it cannot track would leave
    half-translated."""
    return any(t.kind == SHUFFLE or (t.kind == MOD and t.field is not None
                                     and t.field.name in TUPLE_FIELDS)
               for t in rule.targets)


def normalize(t5):
    """Direction-independent key: smaller (addr, port) endpoint first."""
    a = (t5[0], t5[2])
    b = (t5[1], t5[3])
    if a <= b:
        return (a, b, t5[4])
    return (b, a, t5[4])


class ConnEntry:
    """One tracked flow. fwd_pre is its client tuple and fwd_post that tuple
    with the bindings of tuple fields applied; `extra` holds the bindings
    of fields outside the tuple, and `bindings` all of them, so the pools
    get their values back."""

    __slots__ = ("key", "trans_key", "fwd_pre", "fwd_post",
                 "proto", "state", "fin_dir", "created",
                 "last_seen", "rule_id", "bindings", "extra", "pkts",
                 "octets")

    def __init__(self, t5, bindings, rule_id, now):
        trans = list(t5)
        for b in bindings:
            if b.field.name in TUPLE_POS:
                trans[TUPLE_POS[b.field.name]] = b.rewritten
        self.key = normalize(t5)
        self.fwd_pre = t5
        self.fwd_post = tuple(trans)
        self.trans_key = normalize(self.fwd_post)
        self.proto = t5[4]
        self.state = NEW if t5[4] == PROTO_TCP else ACTIVE
        self.fin_dir = None
        self.created = now
        self.last_seen = now
        self.rule_id = rule_id
        self.bindings = bindings
        # the shared () when every binding is in the tuple (SNAT)
        self.extra = tuple(b for b in bindings if b.field.name not in TUPLE_POS)
        self.pkts = [0, 0]
        self.octets = [0, 0]

    def describe(self, now):
        sa, da, sp, dp, proto = self.fwd_pre
        name = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}.get(proto, str(proto))
        return (f"{name} {quad(sa)}:{sp} -> {quad(da)}:{dp} "
                f"state={self.state} age={now - self.created:.1f}s "
                f"pkts={self.pkts[0]}/{self.pkts[1]} "
                f"bytes={self.octets[0]}/{self.octets[1]} rule={self.rule_id}")


class _ShuffleAlloc:
    """Collision-free value picks: seeded PRNG with linear re-probe."""

    def __init__(self, seed, lo, hi):
        self.rng = random.Random(seed)
        self.lo = lo
        self.hi = hi
        self.in_use = set()

    def allocate(self):
        if len(self.in_use) > self.hi - self.lo:
            return None
        v = self.rng.randint(self.lo, self.hi)
        while v in self.in_use:
            v = self.lo if v >= self.hi else v + 1
        self.in_use.add(v)
        return v

    def release(self, v):
        self.in_use.discard(v)


class ConnTable:
    """The engine's connection table."""

    def __init__(self, timeouts=None, capacity=2 ** 20, shuffle_seed=0,
                 shuffle_range=(1024, 65535)):
        self.timeouts = timeouts or TimeoutPolicy()
        self.capacity = capacity
        self.shuffle_seed = shuffle_seed
        self.shuffle_range = shuffle_range
        self._entries = {}
        self._alias = {}
        self._allocs = {}
        self._deleted = set()  # ids of rules deleted since the last reclaim
        self._scan = []
        self._scan_i = 0
        self.full_drops = 0
        self.out_of_ports = 0
        t = self.timeouts
        self._timeout = {NEW: t.tcp_new, ESTABLISHED: t.tcp_established,
                         FIN_WAIT: t.tcp_fin_wait, CLOSED: t.tcp_closed,
                         ACTIVE: t.udp}

    def __len__(self):
        return len(self._entries)

    def timeout_for(self, entry):
        # UDP entries stay ACTIVE, TCP entries never are
        return self._timeout[entry.state]

    def lookup(self, pkt, now):
        """(entry, direction) for a tracked packet, else (None, None).
        Expired entries are removed on the spot; hits refresh last_seen and
        the per-direction counters."""
        if not self._entries:
            return None, None
        if pkt.is_fragment or pkt.ip_proto not in (PROTO_TCP, PROTO_UDP):
            return None, None
        t5 = pkt.five_tuple()
        k = normalize(t5)
        e = self._entries.get(k)
        if e is None:
            e = self._alias.get(k)
        if e is None:
            return None, None
        if now - e.last_seen > self.timeout_for(e):
            self.remove(e)
            return None, None
        # a key hit means t5 is fwd_pre or its reverse, an alias hit
        # fwd_post or its reverse
        direction = FWD if t5 == e.fwd_pre or t5 == e.fwd_post else REV
        if now > e.last_seen:
            e.last_seen = now
        i = 0 if direction == FWD else 1
        e.pkts[i] += 1
        e.octets[i] += len(pkt.data) - pkt.l3_offset
        return e, direction

    def insert(self, pkt, rule, now):
        """Track a new flow for a stateful rule match; allocates dynamic
        bindings. Idempotent for an already-tracked tuple.

        A full table first reclaims the connections of deleted rules. If it
        is still full, the flow is counted in `full_drops` and insert
        returns TABLE_FULL for a rule that translates (the packet is then
        dropped, not sent out half-translated) and None otherwise (the
        packet is processed statelessly). OUT_OF_PORTS, tracking nothing,
        means a shuffle target has no free value left (the packet is then
        dropped)."""
        if pkt.is_fragment or pkt.ip_proto not in (PROTO_TCP, PROTO_UDP):
            return None
        t5 = pkt.five_tuple()
        k = normalize(t5)
        existing = self._entries.get(k) or self._alias.get(k)
        if existing is not None:
            return existing
        if len(self._entries) >= self.capacity:
            if self._deleted:
                self._reclaim()
            if len(self._entries) >= self.capacity:
                self.full_drops += 1
                return TABLE_FULL if _translates(rule) else None

        bindings = []
        for t in rule.targets:
            if t.kind == SHUFFLE:
                orig = read_field(pkt, t.field)
                if orig is ABSENT:
                    continue
                v = self._alloc_for(rule.id, t.field).allocate()
                if v is None:
                    self._release(rule.id, bindings)
                    self.out_of_ports += 1
                    return OUT_OF_PORTS
                bindings.append(DynamicBinding(t.field, orig, v))
            elif t.kind == MOD and t.field is not None and t.field.name in TUPLE_FIELDS:
                orig = read_field(pkt, t.field)
                if orig is ABSENT:
                    continue
                bindings.append(DynamicBinding(t.field, orig, t.value))

        entry = ConnEntry(t5, bindings, rule.id, now)
        entry.pkts[0] = 1
        entry.octets[0] = len(pkt.data) - pkt.l3_offset
        self._entries[entry.key] = entry
        if entry.trans_key != entry.key:
            self._alias[entry.trans_key] = entry
        return entry

    def update_state(self, entry, flags, direction, now=None):
        """Simplified TCP machine: RST closes; a first FIN enters FIN_WAIT;
        FIN+ACK from the other side closes; an ACK without SYN establishes.
        No transition leaves CLOSED."""
        if entry.proto != PROTO_TCP:
            return entry
        s = entry.state
        if s == CLOSED:
            return entry
        if flags & RST:
            entry.state = CLOSED
            return entry
        if flags & FIN:
            if s == FIN_WAIT:
                if direction != entry.fin_dir and flags & ACK:
                    entry.state = CLOSED
            else:
                entry.state = FIN_WAIT
                entry.fin_dir = direction
            return entry
        if s == NEW and flags & ACK and not flags & SYN:
            entry.state = ESTABLISHED
        return entry

    def purge(self, now, budget=64):
        """Incremental expiry sweep: examines at most `budget` entries per
        call, resuming where the previous call stopped."""
        removed = 0
        scanned = 0
        while scanned < budget:
            if self._scan_i >= len(self._scan):
                self._scan = list(self._entries.keys())
                self._scan_i = 0
                if not self._scan:
                    break
            key = self._scan[self._scan_i]
            self._scan_i += 1
            scanned += 1
            e = self._entries.get(key)
            if e is not None and now - e.last_seen > self.timeout_for(e):
                self.remove(e)
                removed += 1
        return removed

    def _alloc_for(self, rule_id, fd):
        key = (rule_id, fd.name)
        alloc = self._allocs.get(key)
        if alloc is None:
            lo, hi = self.shuffle_range
            top = (1 << fd.width) - 1
            # a field too narrow for the range draws from its whole space
            lo, hi = (0, top) if lo > top else (lo, min(hi, top))
            alloc = _ShuffleAlloc(f"{self.shuffle_seed}:{rule_id}:{fd.name}", lo, hi)
            self._allocs[key] = alloc
        return alloc

    def forget_rule(self, rule):
        """Release a deleted rule: drop its shuffle pools now, and remove its
        connections when a lookup finds them, when they expire, or when an
        insert finds the table full (`_reclaim`), whichever comes first.
        Releasing their values then finds no pool."""
        for t in rule.targets:
            if t.kind == SHUFFLE:
                self._allocs.pop((rule.id, t.field.name), None)
        if rule.stateful and self._entries:
            self._deleted.add(rule.id)

    def _reclaim(self):
        """Remove the connections of every rule deleted since the last
        reclaim, in one walk of the table. Rule ids are never reused."""
        dead = self._deleted
        for e in [e for e in self._entries.values() if e.rule_id in dead]:
            self.remove(e)
        dead.clear()

    def remove(self, entry):
        self._entries.pop(entry.key, None)
        # a later flow may have taken over the translated key
        if entry.trans_key != entry.key and self._alias.get(entry.trans_key) is entry:
            del self._alias[entry.trans_key]
        self._release(entry.rule_id, entry.bindings)

    def _release(self, rule_id, bindings):
        """Return the shuffled values of `bindings` to their pools."""
        for b in bindings:
            alloc = self._allocs.get((rule_id, b.field.name))
            if alloc is not None:
                alloc.release(b.rewritten)

    def entries(self):
        return list(self._entries.values())
