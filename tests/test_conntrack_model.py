"""Differential test of the connection table against a dict model.

The model keys its entries by the normalised 5-tuple, ((addr, port),
(addr, port), proto) with the smaller endpoint first, and holds the same
policy as ConnTable: expiry on lookup, a sweep that removes every entry
past its timeout, capacity, removal of a deleted rule's connections with
it, per-rule shuffle pools as sets, the alias under which a translated
flow's replies arrive, and the drop of a new flow whose translation is a
live flow's tuple. Its pools draw the table's seeded sequence, so it
predicts every shuffled value.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import refbuild as ref
from flows import normalize, quad_of, tuple_of
from midbox import parse_command, parse_packet
from midbox.conntrack import (ACK, CLOSED, ESTABLISHED, FIN, FIN_WAIT, FWD,
                              NEW, OUT_OF_PORTS, REV, RST, SYN, TABLE_FULL,
                              ConnTable, TimeoutPolicy)
from midbox.rules import MOD, SHUFFLE, TUPLE_FIELDS

TIMEOUTS = TimeoutPolicy(tcp_new=3.0, tcp_established=20.0, tcp_fin_wait=2.0,
                         tcp_closed=1.0, udp=5.0)
STEPS = (0.5, 1.1, 2.1, 3.1, 5.1, 20.1)  # past each timeout, and within

# SNAT with a shuffled port; a shuffle of either port, which a packet of the
# other protocol skips; SNAT without a shuffle; DNAT; a stateful rule that
# translates nothing; a shuffle outside the tuple
RULES = (
    "mmb add-stateful ip-saddr 10.0.0.0/8 ip-proto tcp shuffle tcp-sport "
    "mod ip-saddr 200.0.0.1",
    "mmb add-stateful ip-ttl 64 shuffle udp-sport shuffle tcp-sport "
    "mod ip-saddr 200.0.0.1",
    "mmb add-stateful ip-saddr 10.0.0.0/24 mod ip-saddr 200.0.0.1",
    "mmb add-stateful ip-ttl 64 mod ip-daddr 198.51.100.2 mod tcp-dport 8080",
    "mmb add-stateful ip-ttl 64 mod ip-ttl 63",
    "mmb add-stateful ip-ttl 64 shuffle ip-ttl",
)
CLIENTS = (0x0A000001, 0x0A000002, 0xC8000001)  # 10.0.0.1, 10.0.0.2, 200.0.0.1
SERVERS = (0xC6336401, 0xC6336402)  # 198.51.100.1, .2
CLIENT_PORTS = (1024, 1025, 1026, 5000)
SERVER_PORTS = (80, 1024)
TTL = 64  # of every packet
FLAGS = (SYN, SYN | ACK, ACK, FIN | ACK, RST)
POS = {"ip-saddr": 0, "ip-daddr": 1, "tcp-sport": 2, "udp-sport": 2,
       "tcp-dport": 3, "udp-dport": 3}
WIDTHS = (0xFFFFFFFF, 0xFFFFFFFF, 0xFFFF, 0xFFFF)  # of each position


def _norm(t5):
    a, b = (t5[0], t5[2]), (t5[1], t5[3])
    return (a, b, t5[4]) if a <= b else (b, a, t5[4])


def _swap(t5):
    return (t5[1], t5[0], t5[3], t5[2], t5[4])


def _present(fd, proto):
    return fd.proto is None or fd.proto == proto


class _Entry:
    def __init__(self, pre, post, rule_id, now, octets):
        self.eng = None  # the table's entry
        self.pre = pre
        self.post = post
        self.key = _norm(pre)
        self.trans_key = _norm(post)
        self.rule_id = rule_id
        self.state = NEW if pre[4] == ref.TCP else "ACTIVE"
        self.fin_dir = None
        self.last_seen = now
        self.bindings = []  # (field name, original, rewritten)
        self.taken = []  # (pool key, value)
        self.pkts = [1, 0]
        self.octets = [octets, 0]


class Model:
    def __init__(self, capacity, seed, shuffle_range):
        self.capacity = capacity
        self.shuffle_range = shuffle_range
        self.seed = seed
        self.entries = {}
        self.alias = {}
        self.pools = {}
        self.full_drops = 0
        self.out_of_ports = 0

    def timeout(self, e):
        t = TIMEOUTS
        return {NEW: t.tcp_new, ESTABLISHED: t.tcp_established,
                FIN_WAIT: t.tcp_fin_wait, CLOSED: t.tcp_closed,
                "ACTIVE": t.udp}[e.state]

    def expired(self, e, now):
        return e.last_seen + self.timeout(e) < now

    def remove(self, e):
        self.entries.pop(e.key, None)
        if e.trans_key != e.key and self.alias.get(e.trans_key) is e:
            del self.alias[e.trans_key]
        self.release(e.taken)

    def release(self, taken):
        for pool_key, v in taken:
            if pool_key in self.pools:
                self.pools[pool_key][1].discard(v)

    def lookup(self, t5, now, octets):
        if not self.entries:
            return None, None
        k = _norm(t5)
        e = self.entries.get(k) or self.alias.get(k)
        if e is None:
            return None, None
        if self.expired(e, now):
            self.remove(e)
            return None, None
        d = FWD if t5 in (e.pre, e.post) else REV
        e.last_seen = max(e.last_seen, now)
        i = 0 if d == FWD else 1
        e.pkts[i] += 1
        e.octets[i] += octets
        return e, d

    def update_state(self, e, flags, d):
        s = e.state
        if e.pre[4] != ref.TCP or s == CLOSED:
            return
        if flags & RST:
            e.state = CLOSED
        elif flags & FIN:
            if s == FIN_WAIT:
                if d != e.fin_dir and flags & ACK:
                    e.state = CLOSED
            else:
                e.state, e.fin_dir = FIN_WAIT, d
        elif s == NEW and flags & ACK and not flags & SYN:
            e.state = ESTABLISHED

    def allocate(self, rule_id, fd):
        """The pool's next value: a seeded draw, then a linear re-probe past
        the values in use, which is the sequence that fixes NAT ports and so
        output bytes."""
        key = (rule_id, fd.name)
        if key not in self.pools:
            lo, hi = self.shuffle_range
            top = (1 << fd.width) - 1
            lo, hi = (0, top) if lo > top else (lo, min(hi, top))
            rng = random.Random(f"{self.seed}:{rule_id}:{fd.name}")
            self.pools[key] = (rng, set(), lo, hi)
        rng, used, lo, hi = self.pools[key]
        if len(used) > hi - lo:
            return None
        v = rng.randint(lo, hi)
        while v in used:
            v = lo if v >= hi else v + 1
        used.add(v)
        return v

    def insert(self, t5, rule, now, octets):
        k = _norm(t5)
        existing = self.entries.get(k) or self.alias.get(k)
        if existing is not None:
            return existing
        if len(self.entries) >= self.capacity:
            self.full_drops += 1
            translates = any(
                t.kind == SHUFFLE or (t.kind == MOD and t.field.name in TUPLE_FIELDS)
                for t in rule.targets)
            return TABLE_FULL if translates else None
        post = list(t5)
        bindings = []
        taken = []
        for t in rule.targets:
            fd = t.field
            if not _present(fd, t5[4]):
                continue
            if t.kind == SHUFFLE:
                value = self.allocate(rule.id, fd)
                if value is None:
                    self.release(taken)
                    self.out_of_ports += 1
                    return OUT_OF_PORTS
                taken.append(((rule.id, fd.name), value))
            elif t.kind == MOD and fd.name in TUPLE_FIELDS:
                value = t.value
            else:
                continue
            orig = t5[POS[fd.name]] if fd.name in POS else TTL
            bindings.append((fd.name, orig, value))
            if fd.name in POS:
                post[POS[fd.name]] = value
        e = _Entry(t5, tuple(post), rule.id, now, octets)
        e.bindings = bindings
        e.taken = taken
        # a translation onto a tuple a live flow owns would send that
        # flow's replies to this one
        if e.trans_key != k:
            other = self.entries.get(e.trans_key) or self.alias.get(e.trans_key)
            if other is not None and self.expired(other, now):
                self.remove(other)
                other = None
            if other is not None:
                self.release(taken)
                self.out_of_ports += 1
                return OUT_OF_PORTS
            self.alias[e.trans_key] = e
        self.entries[k] = e
        return e

    def forget_rule(self, rule):
        for t in rule.targets:
            if t.kind == SHUFFLE:
                self.pools.pop((rule.id, t.field.name), None)
        for e in [e for e in self.entries.values() if e.rule_id == rule.id]:
            self.remove(e)

    def purge(self, now):
        gone = [e for e in self.entries.values() if self.expired(e, now)]
        for e in gone:
            self.remove(e)
        return len(gone)


def _packet(t5, ihl, flags):
    saddr, daddr, sport, dport, proto = t5
    opts = b"\x01" * (4 * (ihl - 5))
    if proto == ref.TCP:
        raw = ref.tcp_packet(saddr=saddr, daddr=daddr, sport=sport, dport=dport,
                             flags=flags, ihl=ihl, ip_options=opts)
    else:
        raw = ref.udp_packet(saddr=saddr, daddr=daddr, sport=sport, dport=dport,
                             ihl=ihl, ip_options=opts)
    return parse_packet(raw)


# a packet: a client's own flow forward or reversed, or the translated tuple
# of a tracked flow (the n-th in the model) forward or reversed
packets = st.tuples(
    st.sampled_from(["fwd", "rev", "post-fwd", "post-rev"]),
    st.sampled_from([ref.TCP, ref.UDP]),
    st.integers(0, len(CLIENTS) - 1), st.integers(0, len(CLIENT_PORTS) - 1),
    st.integers(0, len(SERVERS) - 1), st.integers(0, len(SERVER_PORTS) - 1),
    st.integers(5, 7), st.sampled_from(FLAGS), st.integers(0, 7))
packet_ops = st.one_of(
    st.tuples(st.just("packet"), packets),
    st.tuples(st.just("insert"), packets, st.integers(0, len(RULES) - 1)))
ops = st.one_of(
    packet_ops, packet_ops, packet_ops,
    st.tuples(st.just("lookup"), packets),
    st.tuples(st.just("advance"), st.sampled_from(STEPS)),
    st.tuples(st.just("forget"), st.integers(0, len(RULES) - 1)),
    st.tuples(st.just("add"), st.integers(0, len(RULES) - 1)),
    st.tuples(st.just("purge")))


def _tuple_of(spec, model):
    kind, proto, ci, cp, si, sp, _, _, n = spec
    t5 = (CLIENTS[ci], SERVERS[si], CLIENT_PORTS[cp], SERVER_PORTS[sp], proto)
    if kind.startswith("post"):
        live = list(model.entries.values())
        if not live:
            return None
        t5 = live[n % len(live)].post
    return _swap(t5) if kind.endswith("rev") else t5


def _check(conn, model):
    assert len(conn) == len(model.entries)
    assert conn.full_drops == model.full_drops
    assert conn.out_of_ports == model.out_of_ports
    for e in model.entries.values():
        assert conn._entries.get(normalize(e.pre)) is e.eng
        assert e.eng.state == e.state and e.eng.last_seen == e.last_seen
        assert e.eng.pkts == e.pkts and e.eng.octets == e.octets
    assert len(conn._alias) == len(model.alias)
    for e in model.alias.values():
        assert conn._alias.get(normalize(e.post)) is e.eng
    assert not conn._entries.keys() & conn._alias.keys()  # one owner per key


@given(capacity=st.integers(1, 4), ports=st.integers(1, 4),
       seed=st.integers(0, 3), steps=st.lists(ops, min_size=20, max_size=80))
@settings(max_examples=500)
def test_conn_table_agrees_with_model(capacity, ports, seed, steps):
    shuffle_range = (1024, 1024 + ports - 1)
    conn = ConnTable(TIMEOUTS, capacity, seed, shuffle_range)
    model = Model(capacity, seed, shuffle_range)
    live = []
    next_id = 1

    def add(i):
        nonlocal next_id
        rule = parse_command(RULES[i]).rule
        rule.id = next_id
        next_id += 1
        live.append(rule)

    for i in range(len(RULES)):
        add(i)
    now = 0.0
    for op in steps:
        if op[0] == "advance":
            now += op[1]
        elif op[0] == "add":
            add(op[1])
        elif op[0] == "forget":
            if live:
                rule = live.pop(op[1] % len(live))
                conn.forget_rule(rule)
                model.forget_rule(rule)
        elif op[0] == "purge":
            assert conn.purge(now) == model.purge(now)
        else:
            spec = op[1]
            t5 = _tuple_of(spec, model)
            if t5 is None:
                continue
            pkt = _packet(t5, spec[6], spec[7])
            octets = len(pkt.data)
            e = d = None
            if op[0] != "insert":
                e, d = conn.lookup(pkt, now)
                me, md = model.lookup(t5, now, octets)
                assert (e, d) == ((me.eng, md) if me is not None else (None, None))
                # conn.lookup moved the TCP state itself
                if e is not None and t5[4] == ref.TCP:
                    model.update_state(me, spec[7], md)
            if e is None and op[0] != "lookup" and live:
                # as classify does: a packet no entry tracks makes a new flow
                rule = live[(op[2] if op[0] == "insert" else spec[8]) % len(live)]
                got = conn.insert(pkt, rule, now)
                want = model.insert(t5, rule, now, octets)
                if isinstance(want, _Entry):
                    if want.eng is None:
                        want.eng = got
                    assert got is want.eng
                    assert got.proto == want.pre[4]
                    assert tuple_of(got.pre_q) == want.pre[:4]
                    assert tuple_of(got.post_q) == want.post[:4]
                    # the bindings: tuple ones as the plan's bound mask,
                    # the others in extra
                    bound = 0
                    for name, _, _ in want.bindings:
                        if name in POS:
                            bound |= quad_of([w if i == POS[name] else 0
                                              for i, w in enumerate(WIDTHS)])
                    assert (got.plan is not None) == bool(want.bindings)
                    assert (got.plan.bound if got.plan else 0) == bound
                    assert [(b.field.name, b.original, b.rewritten)
                            for b in got.extra] == [b for b in want.bindings
                                                    if b[0] not in POS]
                else:
                    assert got is want
        _check(conn, model)
