"""Connection table: bidirectional identity, state machine, expiry, NAT
bindings."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import refbuild as ref
from flows import normalize, quad_of, tuple_of
from midbox import ETHERNET, RAW_IP, parse_command, parse_packet
from midbox.conntrack import (ACK, CLOSED, ESTABLISHED, FIN, FIN_WAIT, FWD,
                              NEW, OUT_OF_PORTS, REV, RST, SYN, ConnTable,
                              TimeoutPolicy)


def tracking_rule(line="mmb add-stateful ip-saddr 10.0.0.0/8 mod ip-ttl 63"):
    r = parse_command(line).rule
    r.id = 1
    return r


def tcp_pkt(**kw):
    return parse_packet(ref.tcp_packet(**kw))


def test_normalized_key_is_direction_independent():
    rng = random.Random(31)
    for _ in range(300):
        t5 = (rng.randrange(1 << 32), rng.randrange(1 << 32),
              rng.randrange(1 << 16), rng.randrange(1 << 16), 6)
        rev = (t5[1], t5[0], t5[3], t5[2], t5[4])
        assert normalize(t5) == normalize(rev)


@given(st.sampled_from([ref.TCP, ref.UDP]), st.sampled_from([RAW_IP, ETHERNET]),
       st.integers(5, 9), st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 65535), st.integers(0, 65535), st.binary(max_size=12))
def test_window_key_is_the_normalized_tuple(proto, link, ihl, sa, da, sp, dp, payload):
    """The key insert takes from the probe window is normalize(five_tuple())
    at every IHL and link type, and lookups of the packet and of its reverse
    find the entry."""
    build = ref.tcp_packet if proto == ref.TCP else ref.udp_packet
    prefix = b"\xaa" * 12 + b"\x08\x00" if link == ETHERNET else b""

    def packet(sa, da, sp, dp):
        return parse_packet(prefix + build(saddr=sa, daddr=da, sport=sp, dport=dp,
                                           payload=payload, ihl=ihl,
                                           ip_options=b"\x01" * (4 * (ihl - 5))),
                            link)

    fwd, rev = packet(sa, da, sp, dp), packet(da, sa, dp, sp)
    conn = ConnTable()
    e = conn.insert(fwd, tracking_rule(), 0.0)
    assert e.key == normalize(fwd.five_tuple()) == normalize(rev.five_tuple())
    assert e.pre_q == quad_of(fwd.five_tuple()) and e.proto == proto
    assert conn.lookup(fwd, 1.0) == (e, FWD)
    assert conn.lookup(rev, 1.0) == (e, FWD if (sa, sp) == (da, dp) else REV)


def test_lookup_empty_table():
    conn = ConnTable()
    assert conn.lookup(tcp_pkt(), 0.0) == (None, None)


def test_insert_then_reverse_lookup():
    conn = ConnTable()
    rule = tracking_rule()
    syn = tcp_pkt(saddr=0x0A000005, daddr=0x0A800001, sport=4321, dport=80,
                  flags=ref.SYN)
    e = conn.insert(syn, rule, 1.0)
    assert e is not None and e.state == NEW
    synack = tcp_pkt(saddr=0x0A800001, daddr=0x0A000005, sport=80, dport=4321,
                     flags=ref.SYN | ref.ACK)
    e2, direction = conn.lookup(synack, 2.0)
    assert e2 is e and direction == REV
    e3, d3 = conn.lookup(syn, 3.0)
    assert e3 is e and d3 == FWD


def test_duplicate_insert_idempotent():
    conn = ConnTable()
    rule = tracking_rule()
    syn = tcp_pkt(flags=ref.SYN)
    e1 = conn.insert(syn, rule, 1.0)
    e2 = conn.insert(syn, rule, 1.5)
    assert e1 is e2
    assert len(conn) == 1


def test_expired_entry_removed_on_lookup():
    conn = ConnTable(TimeoutPolicy(tcp_new=30.0))
    rule = tracking_rule()
    syn = tcp_pkt(flags=ref.SYN)
    conn.insert(syn, rule, 0.0)
    assert conn.lookup(syn, 29.0)[0] is not None
    assert conn.lookup(syn, 29.0 + 31.0)[0] is None
    assert len(conn) == 0


def test_many_flows_bidirectional_sweep():
    conn = ConnTable()
    rule = tracking_rule()
    rng = random.Random(32)
    flows = []
    seen = set()
    while len(flows) < 3000:
        t = (rng.randrange(1, 1 << 32), rng.randrange(1, 1 << 32),
             rng.randint(1, 65535), rng.randint(1, 65535))
        if normalize((t[0], t[1], t[2], t[3], 6)) in seen:
            continue
        seen.add(normalize((t[0], t[1], t[2], t[3], 6)))
        flows.append(t)
    for t in flows:
        pkt = tcp_pkt(saddr=t[0], daddr=t[1], sport=t[2], dport=t[3],
                      flags=ref.SYN)
        assert conn.insert(pkt, rule, 1.0) is not None
    assert len(conn) == len(flows)
    for t in flows:
        fwd = tcp_pkt(saddr=t[0], daddr=t[1], sport=t[2], dport=t[3])
        rev = tcp_pkt(saddr=t[1], daddr=t[0], sport=t[3], dport=t[2])
        e, d = conn.lookup(fwd, 2.0)
        assert e is not None and d == FWD
        e2, d2 = conn.lookup(rev, 2.0)
        assert e2 is e and d2 == REV


def test_handshake_reaches_established():
    conn = ConnTable()
    e = conn.insert(tcp_pkt(flags=ref.SYN), tracking_rule(), 0.0)
    conn.update_state(e, SYN | ACK, REV)
    assert e.state == NEW
    conn.update_state(e, ACK, FWD)
    assert e.state == ESTABLISHED


def test_rst_closes():
    conn = ConnTable()
    e = conn.insert(tcp_pkt(flags=ref.SYN), tracking_rule(), 0.0)
    conn.update_state(e, SYN | ACK, REV)
    conn.update_state(e, ACK, FWD)
    conn.update_state(e, RST, REV)
    assert e.state == CLOSED
    conn.update_state(e, SYN, FWD)
    assert e.state == CLOSED  # no transition out of CLOSED


def test_fin_exchange_closes():
    conn = ConnTable()
    e = conn.insert(tcp_pkt(flags=ref.SYN), tracking_rule(), 0.0)
    conn.update_state(e, SYN | ACK, REV)
    conn.update_state(e, ACK, FWD)
    conn.update_state(e, FIN | ACK, FWD)
    assert e.state == FIN_WAIT
    conn.update_state(e, ACK, REV)
    assert e.state == FIN_WAIT
    conn.update_state(e, FIN | ACK, REV)
    assert e.state == CLOSED


def test_lookup_moves_tcp_state():
    """lookup alone moves a flow's TCP state: a client ACK establishes a
    NEW flow, a RST closes it."""
    conn = ConnTable()
    syn = tcp_pkt(saddr=0x0A000005, daddr=0x0A800001, sport=4321, dport=80,
                  flags=ref.SYN)
    e = conn.insert(syn, tracking_rule(), 0.0)
    synack = tcp_pkt(saddr=0x0A800001, daddr=0x0A000005, sport=80, dport=4321,
                     flags=ref.SYN | ref.ACK)
    assert conn.lookup(synack, 1.0) == (e, REV)
    assert e.state == NEW
    ack = tcp_pkt(saddr=0x0A000005, daddr=0x0A800001, sport=4321, dport=80,
                  flags=ref.ACK)
    assert conn.lookup(ack, 2.0) == (e, FWD)
    assert e.state == ESTABLISHED
    rst = tcp_pkt(saddr=0x0A800001, daddr=0x0A000005, sport=80, dport=4321,
                  flags=ref.RST)
    assert conn.lookup(rst, 3.0) == (e, REV)
    assert e.state == CLOSED


STATES = ((NEW, None), (ESTABLISHED, None), (FIN_WAIT, FWD), (FIN_WAIT, REV),
          (CLOSED, None))


@pytest.mark.parametrize("state, fin_dir", STATES)
def test_lookup_steps_state_as_update_state_does(state, fin_dir):
    """Every state x all 256 flag bytes x both directions: after a packet
    goes through lookup, the entry's state, fin_dir and due and the sweep
    heap's length are those of a twin entry given update_state directly.
    This pins lookup's skip of the packets whose flags cannot move the
    state."""
    policy = TimeoutPolicy(tcp_new=30.0, tcp_established=240.0,
                           tcp_fin_wait=15.0, tcp_closed=5.0)
    timeout = {NEW: 30.0, ESTABLISHED: 240.0, FIN_WAIT: 15.0, CLOSED: 5.0}
    client = dict(saddr=0x0A000005, daddr=0x0A800001, sport=4321, dport=80)
    server = dict(saddr=0x0A800001, daddr=0x0A000005, sport=80, dport=4321)
    syn = tcp_pkt(flags=ref.SYN, **client)

    def entry():
        conn = ConnTable(policy)
        e = conn.insert(syn, tracking_rule(), 0.0)
        e.state, e.fin_dir, e.due = state, fin_dir, timeout[state]
        return conn, e

    for flags in range(256):
        for direction, ends in ((FWD, client), (REV, server)):
            (conn, e), (twin_conn, twin) = entry(), entry()
            assert conn.lookup(tcp_pkt(flags=flags, **ends), 1.0) == (e, direction)
            twin.last_seen = 1.0
            twin_conn.update_state(twin, flags, direction)
            case = (state, fin_dir, flags, direction)
            assert (e.state, e.fin_dir, e.due) == \
                (twin.state, twin.fin_dir, twin.due), case
            assert len(conn._heap) == len(twin_conn._heap), case


def test_lookup_drops_a_deleted_rules_flow():
    """After forget_rule, neither the flow's own packet nor its translated
    reply finds the entry, and the entry and its alias are gone."""
    conn = ConnTable(shuffle_seed=7)
    rule = tracking_rule("mmb add-stateful ip-saddr 10.0.0.0/24 ip-proto tcp "
                         "shuffle tcp-sport mod ip-saddr 200.0.0.1")
    syn = tcp_pkt(saddr=0x0A000005, daddr=0xC6336401, sport=4321, dport=80,
                  flags=ref.SYN)
    e = conn.insert(syn, rule, 0.0)
    saddr, daddr, sport, dport = tuple_of(e.post_q)
    reply = tcp_pkt(saddr=daddr, daddr=saddr, sport=dport, dport=sport,
                    flags=ref.SYN | ref.ACK)
    assert conn.lookup(reply, 0.5) == (e, REV)
    conn.forget_rule(rule)
    ack = tcp_pkt(saddr=0x0A000005, daddr=0xC6336401, sport=4321, dport=80)
    assert conn.lookup(ack, 1.0) == (None, None)
    assert conn.lookup(reply, 1.0) == (None, None)
    assert len(conn) == 0
    assert e.key not in conn._entries and e.trans_key not in conn._alias


def test_deleting_the_last_rule_empties_the_sweep_heap():
    """4,096 SNAT flows opened and FINed leave two heap items each; `mmb del`
    of their rule leaves the table empty, and the heap with it."""
    from midbox import Engine
    from midbox.rulegen import SNAT_RULE
    engine = Engine()
    engine.add_commands([SNAT_RULE])
    flows = [(0x0A000000 + i % 250, 0xC6336401, 1024 + i, 80) for i in range(4096)]
    packets = [ref.tcp_packet(*t, flags=ref.SYN) for t in flows]
    packets += [ref.tcp_packet(*t, flags=ref.FIN | ref.ACK) for t in flows]
    engine.run_stream((p, 0, 0) for p in packets)
    assert len(engine.conn) == 4096 and len(engine.conn._heap) == 8192
    assert engine.execute_line("mmb del 1") == "deleted rule 1"
    assert len(engine.conn) == 0 and len(engine.conn._heap) == 0


def reference_machine(seq):
    """Explicit transition table over (state, first_fin_direction)."""
    state, fin_dir = NEW, None
    for flags, direction in seq:
        if state == CLOSED:
            continue
        if flags & RST:
            state = CLOSED
        elif flags & FIN:
            if state == FIN_WAIT:
                if direction != fin_dir and flags & ACK:
                    state = CLOSED
            else:
                state, fin_dir = FIN_WAIT, direction
        elif state == NEW and flags & ACK and not flags & SYN:
            state = ESTABLISHED
    return state


def test_state_machine_exhaustive_length_4():
    symbols = [(f, d) for f in (SYN, SYN | ACK, ACK, FIN | ACK, RST)
               for d in (FWD, REV)]
    conn = ConnTable()
    rule = tracking_rule()
    for length in range(1, 5):
        for seq in itertools.product(symbols, repeat=length):
            e = conn.insert(tcp_pkt(flags=ref.SYN), rule, 0.0)
            e.state, e.fin_dir = NEW, None
            for flags, direction in seq:
                conn.update_state(e, flags, direction)
            assert e.state == reference_machine(seq), seq
            conn.remove(e)


def test_purge_budgeted():
    conn = ConnTable(TimeoutPolicy(tcp_new=10.0))
    rule = tracking_rule()
    rng = random.Random(33)
    fresh, stale = [], []
    for i in range(200):
        pkt = tcp_pkt(saddr=0x0A000000 + i, sport=1000 + i, flags=ref.SYN)
        e = conn.insert(pkt, rule, 0.0)
        if rng.random() < 0.5:
            conn.lookup(pkt, 5.0)  # refresh within the timeout
            fresh.append(e)
        else:
            stale.append(e)
    assert conn.purge(12.0, budget=0) == 0
    removed = 0
    for _ in range(100):
        removed += conn.purge(12.0, budget=16)  # stale: 12>10; fresh: 7<=10
    assert removed == len(stale)
    assert len(conn) == len(fresh)
    # a fresh entry never went away
    for e in fresh:
        assert conn._entries.get(e.key) is e


def test_purge_all_when_budget_covers_table():
    conn = ConnTable(TimeoutPolicy(tcp_new=10.0))
    rule = tracking_rule()
    for i in range(50):
        conn.insert(tcp_pkt(saddr=0x0A000000 + i, flags=ref.SYN), rule, 0.0)
    assert conn.purge(1000.0, budget=200) == 50
    assert len(conn) == 0


def test_snat_bindings_and_translated_key():
    conn = ConnTable(shuffle_seed=7)
    rule = parse_command(
        "mmb add-stateful ip-saddr 10.0.0.0/24 ip-proto tcp tcp-syn "
        "shuffle tcp-sport mod ip-saddr 200.0.0.1").rule
    rule.id = 1
    syn = tcp_pkt(saddr=0x0A000005, daddr=0xC6336401, sport=4321, dport=80,
                  flags=ref.SYN)
    e = conn.insert(syn, rule, 0.0)
    assert tuple_of(e.pre_q) == (0x0A000005, 0xC6336401, 4321, 80)
    saddr, daddr, sport, dport = tuple_of(e.post_q)
    assert (saddr, daddr, dport) == (0xC8000001, 0xC6336401, 80)
    assert 1024 <= sport <= 65535
    # the address and the source port are bound, nothing outside the tuple
    assert e.plan.bound == quad_of((0xFFFFFFFF, 0, 0xFFFF, 0)) and e.extra == ()
    # the reverse packet carries the translated tuple
    back = tcp_pkt(saddr=0xC6336401, daddr=0xC8000001, sport=80,
                   dport=sport, flags=ref.SYN | ref.ACK)
    e2, d2 = conn.lookup(back, 1.0)
    assert e2 is e and d2 == REV


def test_shuffle_values_unique_and_released():
    conn = ConnTable(shuffle_seed=1, shuffle_range=(1024, 1024 + 299))
    rule = parse_command(
        "mmb add-stateful ip-proto tcp tcp-syn shuffle tcp-sport "
        "mod ip-saddr 200.0.0.1").rule
    rule.id = 1
    entries = []
    for i in range(300):
        pkt = tcp_pkt(saddr=0x0A000001 + i, daddr=0x0A800001, sport=2000 + i,
                      dport=80, flags=ref.SYN)
        entries.append(conn.insert(pkt, rule, 0.0))
    ports = [tuple_of(e.post_q)[2] for e in entries]
    assert len(set(ports)) == len(ports) == 300
    pool = conn._records[1].pools["tcp-sport"]
    assert pool.allocate() is None
    conn.remove(entries[0])
    assert pool.in_use == set(ports[1:])
    pkt = tcp_pkt(saddr=0x0A00F001, daddr=0x0A800001, sport=9999, dport=80,
                  flags=ref.SYN)
    e = conn.insert(pkt, rule, 0.0)
    assert e is not None  # released value made room for a new pick


def test_out_of_ports_tracks_nothing_and_returns_taken_values():
    # ip-ttl's pool is 250..255, one value short of tcp-sport's 250..256
    conn = ConnTable(shuffle_range=(250, 256))
    rule = tracking_rule("mmb add-stateful ip-proto tcp "
                         "shuffle tcp-sport shuffle ip-ttl")
    for i in range(6):
        e = conn.insert(tcp_pkt(saddr=0x0A000001 + i, flags=ref.SYN), rule, 0.0)
        # one binding in the tuple (the port), one outside it (the TTL)
        assert e.plan.bound == quad_of((0, 0, 0xFFFF, 0))
        assert [b.field.name for b in e.extra] == ["ip-ttl"]
    assert conn.insert(tcp_pkt(saddr=0x0A0000FF, flags=ref.SYN), rule,
                       0.0) is OUT_OF_PORTS
    assert conn.out_of_ports == 1
    assert len(conn) == 6
    assert len(conn._records[1].pools["tcp-sport"].in_use) == 6


def test_table_full_policy():
    conn = ConnTable(capacity=3)
    rule = tracking_rule()
    for i in range(5):
        conn.insert(tcp_pkt(saddr=0x0A000001 + i, flags=ref.SYN), rule, 0.0)
    assert len(conn) == 3
    assert conn.full_drops == 2


def test_udp_entries_track_by_timeout_only():
    conn = ConnTable(TimeoutPolicy(udp=60.0))
    rule = tracking_rule()
    pkt = parse_packet(ref.udp_packet(saddr=0x0A000001, daddr=0x0A800001,
                                      sport=1111, dport=53))
    e = conn.insert(pkt, rule, 0.0)
    assert e.state == "ACTIVE"
    rev = parse_packet(ref.udp_packet(saddr=0x0A800001, daddr=0x0A000001,
                                      sport=53, dport=1111))
    e2, d2 = conn.lookup(rev, 10.0)
    assert e2 is e and d2 == REV
    assert conn.lookup(pkt, 200.0)[0] is None


def test_icmp_not_tracked():
    conn = ConnTable()
    rule = tracking_rule()
    pkt = parse_packet(ref.icmp_packet())
    assert conn.insert(pkt, rule, 0.0) is None


def test_counters_and_last_seen():
    conn = ConnTable()
    rule = tracking_rule()
    syn = tcp_pkt(saddr=0x0A000005, daddr=0x0A800001, sport=4321, dport=80,
                  flags=ref.SYN)
    e = conn.insert(syn, rule, 1.0)
    conn.lookup(syn, 5.0)
    rev = tcp_pkt(saddr=0x0A800001, daddr=0x0A000005, sport=80, dport=4321)
    conn.lookup(rev, 7.0)
    assert e.pkts == [2, 1]
    assert e.last_seen == 7.0
    conn.lookup(rev, 6.0)  # clock must never move last_seen backwards
    assert e.last_seen == 7.0
