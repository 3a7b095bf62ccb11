"""Classifier: compile, chunked matching, verdicts vs the linear oracle."""

import random

import oracle
import refbuild as ref
from midbox import classify, compile_rule, parse_command, parse_packet
from midbox.classifier import (MaskKey, RuleSetSnapshot, evaluate_residue,
                               match_chunks, match_options)
from midbox.fields import REGISTRY
from midbox.rules import EQ, LEQ, PRESENT, MatchExpr


def make_snapshot(lines):
    rules = []
    for i, line in enumerate(lines, start=1):
        r = parse_command(line).rule
        r.id = i
        rules.append(r)
    return rules, RuleSetSnapshot(rules, 1)


# ------------------------------------------------------------- compilation

def test_compile_tcp_dport_80():
    r = parse_command("mmb add tcp-dport 80 drop").rule
    mk, residue = compile_rule(r)
    assert (mk.skip, mk.chunks) == (1, 1)
    assert mk.mask == bytes(6) + b"\xff\xff" + bytes(8)
    assert mk.key == bytes(6) + b"\x00\x50" + bytes(8)
    # implied protocol check rides along as residue
    assert [(m.field.name, m.cond, m.value) for m in residue] == \
        [("ip-proto", EQ, 6)]


def test_compile_saddr_prefix():
    r = parse_command("mmb add ip-saddr 10.0.0.0/24 drop").rule
    mk, residue = compile_rule(r)
    assert (mk.skip, mk.chunks) == (0, 1)
    assert mk.mask == bytes(12) + b"\xff\xff\xff\x00"
    assert mk.key == bytes(12) + b"\x0a\x00\x00\x00"
    assert residue == []


def test_compile_complex_is_residue_only():
    r = parse_command("mmb add tcp-dport <= 1024 drop").rule
    mk, residue = compile_rule(r)
    assert mk is None
    assert ("tcp-dport", LEQ, 1024) in \
        [(m.field.name, m.cond, m.value) for m in residue]


def test_mask_key_invariants():
    lines = ["mmb add ip-saddr 10.1.2.3 tcp-dport 80 tcp-syn drop",
             "mmb add ip-daddr 10.0.0.0/8 ip-ttl 64 drop",
             "mmb add tcp-win 512 drop"]
    for line in lines:
        mk, _ = compile_rule(parse_command(line).rule)
        assert 1 <= mk.chunks <= 5 and mk.chunks * 16 <= 80
        key_int = int.from_bytes(mk.key, "big")
        mask_int = int.from_bytes(mk.mask, "big")
        assert key_int & mask_int == key_int
        assert any(mk.mask[:16])  # first active chunk non-zero


# ---------------------------------------------------------- chunk matching

def _byte_loop_match(data, mask, key, skip, chunks):
    """Naive per-byte AND/XOR evaluation over the active window."""
    window = bytes(data[:80]) + bytes(max(0, 80 - len(data)))
    acc = 0
    for i in range(chunks * 16):
        b = window[skip * 16 + i]
        acc |= (b & mask[i]) ^ key[i]
    return acc == 0


def test_match_chunks_identity():
    data = ref.tcp_packet(payload=b"z" * 60)
    pkt = parse_packet(data)
    mask = b"\xff" * 16
    key = bytes(data[:16])
    assert match_chunks(pkt, MaskKey(mask, key, 0, 1))


def test_match_chunks_port_mismatch():
    mk, _ = compile_rule(parse_command("mmb add tcp-dport 80 drop").rule)
    pkt = parse_packet(ref.tcp_packet(dport=443))
    assert not match_chunks(pkt, mk)
    assert match_chunks(parse_packet(ref.tcp_packet(dport=80)), mk)


def test_match_chunks_vs_byte_loop_oracle():
    rng = random.Random(11)
    for _ in range(2000):
        data = ref.random_valid_packet(rng)
        skip = rng.randrange(5)
        chunks = rng.randint(1, 5 - skip)
        mask = bytearray(rng.randbytes(chunks * 16))
        mask[rng.randrange(16)] |= 0x01  # keep first chunk non-zero
        if rng.random() < 0.5:
            # force a likely match: key = packet & mask over the window
            window = (bytes(data) + bytes(96))[skip * 16:(skip + chunks) * 16]
            key = bytes(a & b for a, b in zip(window, mask))
        else:
            key = bytes(a & b for a, b in zip(rng.randbytes(chunks * 16), mask))
        mk = MaskKey(bytes(mask), key, skip, chunks)
        pkt = parse_packet(data)
        assert match_chunks(pkt, mk) == \
            _byte_loop_match(data, mask, key, skip, chunks)


def test_match_implies_masked_equality():
    rng = random.Random(12)
    hits = 0
    for _ in range(500):
        data = ref.random_valid_packet(rng)
        window = (bytes(data) + bytes(96))[:80]
        skip = rng.randrange(3)
        chunks = rng.randint(1, 2)
        mask = bytearray(16 * chunks)
        for _ in range(4):
            mask[rng.randrange(len(mask))] = 0xFF
        mask[0] |= 1
        seg = window[skip * 16:(skip + chunks) * 16]
        key = bytes(a & b for a, b in zip(seg, mask))
        mk = MaskKey(bytes(mask), key, skip, chunks)
        pkt = parse_packet(data)
        if match_chunks(pkt, mk):
            hits += 1
            assert bytes(a & b for a, b in zip(seg, mask)) == key
    assert hits > 400


# ------------------------------------------------------------ residue eval

def test_evaluate_residue_examples():
    dport80 = parse_packet(ref.tcp_packet(dport=80))
    leq = MatchExpr(REGISTRY["tcp-dport"], LEQ, 1024)
    assert evaluate_residue(dport80, [leq])
    syn = parse_packet(ref.tcp_packet(flags=ref.SYN))
    not_syn = MatchExpr(REGISTRY["tcp-syn"], PRESENT, None, negated=True)
    assert not evaluate_residue(syn, [not_syn])
    assert evaluate_residue(parse_packet(ref.tcp_packet(flags=ref.ACK)),
                            [not_syn])


def test_match_options_examples():
    opts = ref.make_options((8, bytes(8)))
    with_ts = parse_packet(ref.tcp_packet(flags=ref.SYN, options=opts))
    present = MatchExpr(REGISTRY["tcp-opt-timestamp"], PRESENT, None)
    assert match_options(with_ts, [present])

    mss1400 = parse_packet(ref.tcp_packet(
        options=ref.make_options((2, (1400).to_bytes(2, "big")))))
    mss_eq = MatchExpr(REGISTRY["tcp-opt-mss"], EQ, 1460)
    assert not match_options(mss1400, [mss_eq])

    udp = parse_packet(ref.udp_packet())
    assert not match_options(udp, [present])


def test_match_options_random_vs_reference_walk():
    rng = random.Random(13)
    for _ in range(500):
        data = ref.random_valid_packet(rng)
        pkt = parse_packet(data)
        kind = rng.choice([2, 3, 4, 8, 30, 34])
        fdname = {2: "tcp-opt-mss", 3: "tcp-opt-wscale", 4: "tcp-opt-sackp",
                  8: "tcp-opt-timestamp", 30: "tcp-opt-mptcp",
                  34: "tcp-opt-fastopen"}[kind]
        expr = MatchExpr(REGISTRY[fdname], PRESENT, None)
        got = match_options(pkt, [expr])
        if data[9] != ref.TCP or (((data[6] << 8) | data[7]) & 0x3FFF):
            assert got is False
        else:
            opts = ref.ref_walk_options(data)
            want = opts is not None and any(k == kind for k, _ in opts)
            assert got == want


# ---------------------------------------------------------------- verdicts

def test_no_rules_means_miss():
    _, snap = make_snapshot([])
    rng = random.Random(14)
    for _ in range(50):
        pkt = parse_packet(ref.random_valid_packet(rng))
        assert classify(pkt, snap).kind == "miss"


def test_non_matching_drop_rules_all_miss():
    from midbox.rulegen import firewall_rules
    _, snap = make_snapshot(firewall_rules(1000, seed=5))
    rng = random.Random(15)
    for _ in range(300):
        data = oracle.random_pool_packet(rng)
        assert classify(parse_packet(data), snap).kind == "miss"


def test_drop_dominates_other_matches():
    _, snap = make_snapshot([
        "mmb add tcp-dport 80 mod tcp-win 99",
        "mmb add ip-ttl 64 drop",
    ])
    pkt = parse_packet(ref.tcp_packet(dport=80, ttl=64))
    v = classify(pkt, snap)
    assert v.kind == "drop" and v.rule_ids == (1, 2)
    only_mod = classify(parse_packet(ref.tcp_packet(dport=80, ttl=32)), snap)
    assert only_mod.kind == "match" and only_mod.rule_ids == (1,)


def test_rules_sharing_mask_and_key_share_one_entry():
    _, snap = make_snapshot([
        "mmb add tcp-dport 80 mod ip-ttl 1",
        "mmb add tcp-dport 80 mod ip-ttl 2",
    ])
    assert len(snap.tables) == 1
    (entry,) = snap.tables[0].entries.values()
    assert [cr.rule.id for cr in entry.rules] == [1, 2]
    v = classify(parse_packet(ref.tcp_packet(dport=80)), snap)
    assert v.rule_ids == (1, 2)


def test_table_count_equals_distinct_masks():
    lines = [
        "mmb add tcp-dport 80 drop",
        "mmb add tcp-dport 443 drop",          # same mask as above
        "mmb add tcp-sport 80 drop",           # different mask
        "mmb add ip-saddr 10.0.0.1 drop",      # different mask
        "mmb add ip-saddr 10.0.0.2 drop",      # same as previous
        "mmb add tcp-dport <= 10 drop",        # maskless
    ]
    _, snap = make_snapshot(lines)
    masks = set()
    for line in lines:
        mk, _ = compile_rule(parse_command(line).rule)
        if mk is not None:
            masks.add((mk.mask, mk.skip, mk.chunks))
    assert len(snap.tables) == len(masks) == 3
    assert len(snap.slow) == 1


def test_mixed_fixed_and_option_rule_uses_mask_plus_opts_residue():
    _, snap = make_snapshot(["mmb add tcp-dport 80 tcp-opt-mss 1460 drop"])
    assert len(snap.tables) == 1
    assert len(snap.tables[0].entries) == 1
    # the option residue is checked on mask survivors: the MSS decides
    opts = ref.make_options((2, (1460).to_bytes(2, "big")))
    assert classify(parse_packet(ref.tcp_packet(dport=80, options=opts)),
                    snap).kind == "drop"
    assert classify(parse_packet(ref.tcp_packet(dport=80)), snap).kind == "miss"
    assert classify(parse_packet(ref.tcp_packet(dport=81, options=opts)),
                    snap).kind == "miss"


def test_unsatisfiable_equalities_never_match():
    _, snap = make_snapshot(["mmb add tcp-dport 80 tcp-dport 443 drop"])
    for dport in (80, 443, 507):  # 507 = 80|443 bit-OR trap
        pkt = parse_packet(ref.tcp_packet(dport=dport))
        assert classify(pkt, snap).kind == "miss"


def test_verdicts_match_linear_oracle_random():
    for seed in (21, 22, 23):
        rng = random.Random(seed)
        lines = oracle.random_ruleset(rng, 150)
        rules, snap = make_snapshot(lines)
        orc = oracle.LinearOracle(rules)
        for _ in range(1500):
            data = oracle.random_pool_packet(rng)
            v = classify(parse_packet(data), snap)
            kind, ids = orc.verdict(data)
            assert v.kind == kind, (data.hex(), v.kind, kind)
            if kind != "miss":
                assert v.rule_ids == ids
