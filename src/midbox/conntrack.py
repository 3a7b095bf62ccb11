"""Bidirectional connection table, holding each flow as quads.

A flow's key is one integer taken from the packet's probe window
(PacketBuffer.window, which the classifier has already built): window bytes
12-23 are saddr|daddr|sport|dport at every IHL, and that 96-bit quad gives
two endpoints addr<<16 | port, of which the smaller goes first, then the
larger, then the protocol. So both directions of a flow hash to the same
entry. Flows whose stateful rule translates tuple fields are additionally
indexed under the translated tuple's key, which is what returning packets
carry. An entry keeps the two quads (what its client sends, and what that
leaves as) and nothing else of the tuple: the rewrite node's tuple write,
the reverse direction and the release of shuffled ports all work from them.
An entry ends when the sweep run before each packet vector finds it past its
state's timeout (a heap of deadlines makes that exact), or when its rule is
deleted.
"""

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

from .fields import ACK, FIN, PROTO_TCP, PROTO_UDP, RST, SYN, byte_span, fold
from .packet import ABSENT, read_field
from .rules import SHUFFLE, quad, tuple_writes

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

# where each tuple field sits in the quad saddr<<64 | daddr<<32 | sport<<16 | dport
QUAD_SHIFT = {"ip-saddr": 64, "ip-daddr": 32,
              "tcp-sport": 16, "udp-sport": 16,
              "tcp-dport": 0, "udp-dport": 0}
# the quad is window bytes 12-23, which end 128 bits above the window's end
QUAD = (1 << 96) - 1
_ADDR = 0xFFFFFFFF << 16


@dataclass
class TimeoutPolicy:
    tcp_new: float = 30.0
    tcp_established: float = 240.0
    tcp_fin_wait: float = 15.0
    tcp_closed: float = 15.0
    udp: float = 60.0


class DynamicBinding(NamedTuple):
    """A drawn value of a field outside the tuple, what it replaced, and
    the byte spans (fields.byte_span) that write each into a packet."""
    field: object
    original: int
    rewritten: int
    fwd: tuple
    rev: tuple


def quad_key(q, proto):
    """Direction-independent key of the flow whose packet carries the quad
    q = saddr<<64 | daddr<<32 | sport<<16 | dport: the smaller endpoint
    addr<<16 | port first, then the larger one, then the protocol."""
    a = (q >> 48) & _ADDR | (q >> 16) & 0xFFFF
    b = (q >> 16) & _ADDR | q & 0xFFFF
    if a <= b:
        return a << 56 | b << 8 | proto
    return b << 56 | a << 8 | proto


def mirror(q):
    """The quad of the other direction: addresses swapped, ports swapped."""
    return ((q >> 32 & 0xFFFFFFFF) << 64 | (q >> 64) << 32
            | (q & 0xFFFF) << 16 | q >> 16 & 0xFFFF)


class Plan:
    """What insert binds for a new flow of one rule and protocol, worked out
    once. `steps` holds one (field, shift, width mask, pool, value) per
    shuffle target and per mod of a tuple field the protocol carries, in
    target order: a tuple field's shift places it in the quad (None for a
    field outside it), a shuffle draws its value from the pool and a mod has
    it given. Only the last write to a tuple position is kept. `bound` is
    the quad mask of the positions the steps write, `mirror` the same mask
    for reverse packets; `translates` says whether the rule binds anything
    for any protocol."""

    __slots__ = ("steps", "bound", "mirror", "translates")

    def __init__(self, steps, translates):
        self.steps = steps
        self.bound = 0
        for _, shift, width, _, _ in steps:
            if shift is not None:
                self.bound |= width << shift
        self.mirror = mirror(self.bound)
        self.translates = translates


class ConnEntry:
    """One tracked flow, held as quads: pre_q is the quad of its client's
    packets and post_q the quad they leave with, keyed by `key` and
    `trans_key`. `plan` is its rule's Plan, or None when the flow binds
    nothing; `extra` holds the bindings of fields outside the tuple. `due`
    is its live sweep heap item's deadline, at most its true deadline."""

    __slots__ = ("key", "trans_key", "pre_q", "post_q", "proto", "state",
                 "fin_dir", "created", "last_seen", "due", "rule_id", "plan",
                 "extra", "pkts", "octets")

    def __init__(self, key, q, post_q, proto, plan, extra, rule_id, now):
        self.key = key
        self.pre_q = q
        self.post_q = post_q
        self.trans_key = key if post_q == q else quad_key(post_q, proto)
        self.proto = proto
        self.state = NEW if proto == PROTO_TCP else ACTIVE
        self.fin_dir = None
        self.created = now
        self.last_seen = now
        self.rule_id = rule_id
        self.plan = plan
        self.extra = extra  # the shared () when every binding is in the tuple
        self.pkts = [0, 0]
        self.octets = [0, 0]

    def describe(self, now):
        q = self.pre_q
        name = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}.get(self.proto, str(self.proto))
        return (f"{name} {quad(q >> 64)}:{q >> 16 & 0xFFFF} -> "
                f"{quad(q >> 32 & 0xFFFFFFFF)}:{q & 0xFFFF} "
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
    """The engine's connection table. `lookup` is the one place a packet
    becomes its connection entry and direction."""

    def __init__(self, timeouts=None, capacity=2 ** 20, shuffle_seed=0,
                 shuffle_range=(1024, 65535)):
        self.timeouts = timeouts or TimeoutPolicy()
        self.capacity = capacity
        self.shuffle_seed = shuffle_seed
        self.shuffle_range = shuffle_range
        self._entries = {}
        self._alias = {}
        self._allocs = {}
        self._plans = {}  # (rule id, protocol) -> Plan
        self._by_rule = {}  # rule id -> {key: entry}
        self._heap = []  # (deadline, key); an item not its entry's due is stale
        self.full_drops = 0
        self.out_of_ports = 0
        t = self.timeouts
        self._timeout = {NEW: t.tcp_new, ESTABLISHED: t.tcp_established,
                         FIN_WAIT: t.tcp_fin_wait, CLOSED: t.tcp_closed,
                         ACTIVE: t.udp}

    def __len__(self):
        return len(self._entries)

    def lookup(self, pkt, now):
        """(entry, direction) for a tracked packet, else (None, None).
        An expired entry is removed on the spot; a hit refreshes last_seen
        and the per-direction counters and moves a TCP flow's state."""
        entries = self._entries
        if not entries:
            return None, None
        proto = pkt.ip_proto
        if pkt.is_fragment or (proto != PROTO_TCP and proto != PROTO_UDP):
            return None, None
        q = pkt.window() >> 128 & QUAD
        k = quad_key(q, proto)
        e = entries.get(k) or self._alias.get(k)
        if e is None:
            return None, None
        if e.last_seen + self._timeout[e.state] < now:
            self.remove(e)
            return None, None
        # a key hit means q is pre_q or its reverse, an alias hit post_q or
        # its reverse
        if q == e.pre_q or q == e.post_q:
            direction, i = FWD, 0
        else:
            direction, i = REV, 1
        if now > e.last_seen:
            e.last_seen = now
        e.pkts[i] += 1
        e.octets[i] += len(pkt.data) - pkt.l3_offset
        if proto == PROTO_TCP:
            self.update_state(e, pkt.tcp_flags, direction)
        return e, direction

    def insert(self, pkt, rule, now):
        """Track a new flow for a stateful rule match; allocates dynamic
        bindings. Idempotent for an already-tracked tuple.

        On a full table the flow is counted in `full_drops`, and insert
        returns TABLE_FULL for a rule that translates (the packet is then
        dropped, not sent out half-translated) and None otherwise (the
        packet is processed statelessly). OUT_OF_PORTS, tracking nothing,
        means no free translation is left: a shuffle target has no free
        value, or the translated tuple is already another live flow's (its
        replies could not tell the two apart). The packet is then dropped."""
        proto = pkt.ip_proto
        if pkt.is_fragment or proto not in (PROTO_TCP, PROTO_UDP):
            return None
        q = pkt.window() >> 128 & QUAD
        k = quad_key(q, proto)
        existing = self._entries.get(k) or self._alias.get(k)
        if existing is not None:
            return existing
        plan = self._plans.get((rule.id, proto))
        if plan is None:
            plan = self._plans[rule.id, proto] = self._plan(rule, proto)
        if len(self._entries) >= self.capacity:
            self.full_drops += 1
            return TABLE_FULL if plan.translates else None

        extra = ()
        post = q
        steps = plan.steps
        for n, (fd, shift, width, alloc, value) in enumerate(steps):
            if shift is None:
                orig = read_field(pkt, fd)
                if orig is ABSENT:
                    continue
            if alloc is not None:
                value = alloc.allocate()
                if value is None:
                    self._release(rule.id, steps[:n], post, extra)
                    self.out_of_ports += 1
                    return OUT_OF_PORTS
            if shift is None:
                extra += (DynamicBinding(fd, orig, value, byte_span(*fold(fd, value)),
                                         byte_span(*fold(fd, orig))),)
            else:
                post = post & ~(width << shift) | value << shift

        entry = ConnEntry(k, q, post, proto, plan if plan.bound or extra else None,
                          extra, rule.id, now)
        tk = entry.trans_key
        if tk != k:
            other = self._entries.get(tk) or self._alias.get(tk)
            if other is not None and other.last_seen + self._timeout[other.state] < now:
                self.remove(other)
                other = None
            if other is not None:
                self._release(rule.id, steps, post, extra)
                self.out_of_ports += 1
                return OUT_OF_PORTS
            self._alias[tk] = entry
        entry.pkts[0] = 1
        entry.octets[0] = len(pkt.data) - pkt.l3_offset
        self._entries[k] = entry
        self._by_rule.setdefault(rule.id, {})[k] = entry
        entry.due = now + self._timeout[entry.state]
        heappush(self._heap, (entry.due, k))
        return entry

    def _plan(self, rule, proto):
        """The Plan of `rule` for flows of protocol `proto`."""
        writes = tuple_writes(rule)
        steps = []
        for t in writes:
            fd = t.field
            if fd.proto is not None and fd.proto != proto:
                continue
            shift = QUAD_SHIFT.get(fd.name)
            if shift is not None:
                steps = [s for s in steps if s[1] != shift]
            steps.append((fd, shift, t.kind, t.value))
        return Plan(tuple((fd, shift, (1 << fd.width) - 1,
                           self._alloc_for(rule.id, fd) if kind == SHUFFLE else None,
                           value)
                          for fd, shift, kind, value in steps), bool(writes))

    def update_state(self, entry, flags, direction):
        """Simplified TCP machine: RST closes; a first FIN enters FIN_WAIT;
        FIN+ACK from the other side closes; an ACK without SYN establishes.
        No transition leaves CLOSED. A transition that moves the deadline
        earlier pushes the new one on the sweep heap."""
        if entry.proto != PROTO_TCP:
            return entry
        s = entry.state
        if s == CLOSED:
            return entry
        if flags & RST:
            entry.state = CLOSED
        elif flags & FIN:
            if s == FIN_WAIT:
                if direction != entry.fin_dir and flags & ACK:
                    entry.state = CLOSED
            else:
                entry.state = FIN_WAIT
                entry.fin_dir = direction
        elif s == NEW and flags & ACK and not flags & SYN:
            entry.state = ESTABLISHED
        if entry.state != s:
            due = entry.last_seen + self._timeout[entry.state]
            if due < entry.due:
                entry.due = due
                heappush(self._heap, (due, entry.key))
        return entry

    def purge(self, now, budget=None):
        """Expiry sweep: pops the heap while its head is due before `now`,
        at most `budget` items if one is given. A stale item is skipped, an
        expired entry removed, and one refreshed since goes back at its
        true deadline. Returns the number removed."""
        heap = self._heap
        entries = self._entries
        # an item pushed back is due at or after `now`, so no call pops more
        # than the heap held when it began
        n = len(heap) if budget is None else budget
        removed = 0
        while n > 0 and heap and heap[0][0] < now:
            n -= 1
            due, key = heappop(heap)
            e = entries.get(key)
            if e is None or e.due != due:
                continue
            due = e.last_seen + self._timeout[e.state]
            if due < now:
                self.remove(e)
                removed += 1
            else:
                e.due = due
                heappush(heap, (due, key))
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
        """Release a deleted rule: drop its plans and shuffle pools, and
        remove its connections, in time linear in their number. Their heap
        items go stale, unless the table is left empty: then every item is,
        and the heap is emptied."""
        self._plans.pop((rule.id, PROTO_TCP), None)
        self._plans.pop((rule.id, PROTO_UDP), None)
        for t in rule.targets:
            if t.kind == SHUFFLE:
                self._allocs.pop((rule.id, t.field.name), None)
        for e in self._by_rule.pop(rule.id, {}).values():
            self.remove(e)
        if not self._entries:
            self._heap.clear()

    def remove(self, entry):
        self._entries.pop(entry.key, None)
        self._by_rule.get(entry.rule_id, {}).pop(entry.key, None)
        # a later flow may have taken over the translated key
        if entry.trans_key != entry.key and self._alias.get(entry.trans_key) is entry:
            del self._alias[entry.trans_key]
        if entry.plan is not None:
            self._release(entry.rule_id, entry.plan.steps, entry.post_q, entry.extra)

    def _release(self, rule_id, steps, post, extra):
        """Return the values `steps` drew to their pools: a tuple field's
        from the translated quad `post`, any other field's from its binding
        in `extra`."""
        allocs = self._allocs
        for fd, shift, width, alloc, _ in steps:
            if alloc is not None and shift is not None:
                pool = allocs.get((rule_id, fd.name))
                if pool is not None:
                    pool.release(post >> shift & width)
        for b in extra:
            pool = allocs.get((rule_id, b.field.name))
            if pool is not None:
                pool.release(b.rewritten)

    def entries(self):
        return list(self._entries.values())
