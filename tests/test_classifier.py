"""Classifier: compile, window matching, verdicts vs the linear oracle."""

import operator
import random

from hypothesis import assume, example, given, settings, strategies as st

import oracle
import refbuild as ref
from midbox import (CommandError, Engine, PacketBuffer, classify, parse_command,
                    parse_packet)
from midbox.classifier import (MISS, RuleSetSnapshot, classify_vector, compile_match,
                               match_tables)
from midbox.fields import FIXED, FLAG, REGISTRY, tcp_option_field
from midbox.pipeline import DISP_DROP, DISP_FORWARD, DISP_REWRITTEN
from midbox.rulegen import mask_limit_rules
from midbox.rules import LEQ


def make_snapshot(lines):
    rules = []
    for i, line in enumerate(lines, start=1):
        r = parse_command(line).rule
        r.id = i
        rules.append(r)
    return rules, RuleSetSnapshot(rules, 1)


def compiled(line):
    """The compiled form of one rule, from a one-rule snapshot."""
    return make_snapshot([line])[1].by_id[1]


def drops(data, line):
    """True when the one-rule snapshot of the drop rule `line` drops `data`."""
    return classify(parse_packet(data), make_snapshot([line])[1]).kind == "drop"


# ------------------------------------------------------------- compilation

def test_compile_tcp_dport_80():
    cr = compiled("mmb add tcp-dport 80 drop")
    assert cr.shift == 8 * (40 - 24)  # the window's first 24 bytes
    assert cr.mask.to_bytes(16, "big") == bytes(14) + b"\xff\xff"
    assert cr.key.to_bytes(16, "big") == bytes(14) + b"\x00\x50"
    # the implied protocol check is the rule's protocol gate
    assert cr.residue == ()
    assert cr.test(parse_packet(ref.tcp_packet(dport=443)))
    assert not cr.test(parse_packet(ref.udp_packet(dport=80)))


def test_compile_saddr_prefix():
    cr = compiled("mmb add ip-saddr 10.0.0.0/24 drop")
    assert cr.shift == 8 * (40 - 24)  # the window's first 24 bytes
    assert cr.mask.to_bytes(24, "big") == bytes(12) + b"\xff\xff\xff\x00" + bytes(8)
    assert cr.key.to_bytes(24, "big") == bytes(12) + b"\x0a\x00\x00\x00" + bytes(8)
    assert cr.residue == ()
    assert cr.test(parse_packet(ref.udp_packet(saddr=0x0B000001)))


def test_compile_complex_is_residue_only():
    cr = compiled("mmb add tcp-dport <= 1024 drop")
    assert cr.mask == 0
    assert ("tcp-dport", LEQ, 1024) in \
        [(m.field.name, m.cond, m.value) for m in cr.residue]


def test_mask_key_invariants():
    lines = ["mmb add ip-saddr 10.1.2.3 tcp-dport 80 tcp-syn drop",
             "mmb add ip-daddr 10.0.0.0/8 ip-ttl 64 drop",
             "mmb add tcp-win 512 drop"]
    for line in lines:
        cr = compiled(line)
        assert cr.shift % 128 == 0 and 0 <= cr.shift < 320
        assert 0 < cr.mask.bit_length() <= 320 - cr.shift  # inside the window
        assert cr.key & cr.mask == cr.key
        assert cr.mask & ((1 << 128) - 1)  # last active chunk non-zero


# ---------------------------------------------------------- chunk matching

def _mask_bytes(cr):
    """(mask, key) of a compiled rule as bytes over the window's first
    40 - shift/8 bytes."""
    n = 40 - cr.shift // 8
    return cr.mask.to_bytes(n, "big"), cr.key.to_bytes(n, "big")


def _window(data):
    """The 40-byte window of a raw packet: the first 20 bytes of its IPv4
    header, then the first 20 bytes after the header, zero-padded."""
    ihl = data[0] & 0x0F
    window = bytes(data[:20] + data[4 * ihl:4 * ihl + 20])
    return window + bytes(40 - len(window))


def _is_fragment(data):
    return bool(((data[6] << 8) | data[7]) & 0x3FFF)


def _window_read(data, name):
    """ref_read of `name` off the bytes the window holds; for a fragment
    that is its first payload bytes, read as if they were a header."""
    return ref.ref_read(data[:6] + bytes(2) + data[8:], name)


def _byte_loop_match(data, cr):
    """Naive per-byte AND/XOR evaluation over the active window."""
    window = _window(data)
    mask, key = _mask_bytes(cr)
    acc = 0
    for i in range(len(mask)):
        acc |= (window[i] & mask[i]) ^ key[i]
    return acc == 0


def _quad(addr):
    return ".".join(str((addr >> s) & 0xFF) for s in (24, 16, 8, 0))


IP_FOLDABLE = [("ip-saddr", 32), ("ip-daddr", 32), ("ip-proto", 8),
               ("ip-ttl", 8), ("ip-dscp", 6), ("ip-ecn", 2), ("ip-len", 16),
               ("ip-id", 16)]
L4_FOLDABLE = {
    ref.TCP: [("tcp-sport", 16), ("tcp-dport", 16), ("tcp-seq", 32),
              ("tcp-ack-num", 32), ("tcp-win", 16), ("tcp-flags", 8),
              ("tcp-syn", 0), ("tcp-ack", 0), ("tcp-fin", 0), ("tcp-psh", 0)],
    ref.UDP: [("udp-sport", 16), ("udp-dport", 16), ("udp-len", 16)],
    ref.ICMP: [("icmp-type", 8), ("icmp-code", 8)],
}


def _folded_drop_rule(rng, data, from_packet):
    """A drop rule of 1-4 distinct fixed-field equalities and flag checks,
    all of which fold into a mask. Each value is read off the window of
    `data` when `from_packet` holds, else drawn at random; transport fields
    follow the packet's protocol (or a random one)."""
    proto = data[9] if from_packet else rng.choice(list(L4_FOLDABLE))
    pool = IP_FOLDABLE + L4_FOLDABLE.get(proto, [])
    parts = []
    for name, width in rng.sample(pool, rng.randint(1, 4)):
        if width == 0:  # flag presence
            if not from_packet or _window_read(data, name):
                parts.append(name)
            continue
        if from_packet:
            value = _window_read(data, name)
        elif name == "ip-proto":
            value = proto  # any other value would contradict the transport fields
        else:
            value = rng.randrange(1 << width)
        if name in ("ip-saddr", "ip-daddr"):
            plen = rng.choice([8, 16, 24, 32])
            value &= ((1 << plen) - 1) << (32 - plen)
            parts.append(f"{name} {_quad(value)}/{plen}")
        else:
            parts.append(f"{name} {value}")
    return "mmb add " + " ".join(parts or ["ip-proto " + str(data[9])]) + " drop"


def test_match_chunks_identity():
    # a key read off a packet's own bytes matches that packet
    data = ref.tcp_packet(payload=b"z" * 60)
    fields = [name for name, _ in IP_FOLDABLE + L4_FOLDABLE[ref.TCP]
              if name not in ("ip-saddr", "ip-daddr")]
    parts = [f"{n} {ref.ref_read(data, n)}" for n in fields
             if n not in ("tcp-syn", "tcp-ack", "tcp-fin", "tcp-psh")]
    line = (f"mmb add ip-saddr {_quad(ref.ref_read(data, 'ip-saddr'))} "
            f"ip-daddr {_quad(ref.ref_read(data, 'ip-daddr'))} "
            + " ".join(parts) + " drop")
    assert compiled(line).shift == 0  # tcp-win ends at window byte 36
    assert drops(data, line)


def test_match_chunks_port_mismatch():
    line = "mmb add tcp-dport 80 drop"
    assert not drops(ref.tcp_packet(dport=443), line)
    assert drops(ref.tcp_packet(dport=80), line)


def test_match_chunks_vs_byte_loop_oracle():
    rng = random.Random(11)
    outcomes = set()
    for _ in range(2000):
        data = ref.random_valid_packet(rng, allow_frag=True, allow_ipopts=True)
        line = _folded_drop_rule(rng, data, rng.random() < 0.5)
        cr = compiled(line)
        proto = cr.rule.proto_req
        gate = proto is None or (proto == data[9] and not _is_fragment(data))
        want = not cr.never and gate and _byte_loop_match(data, cr)
        assert drops(data, line) == want, (line, data.hex())
        outcomes.add(want)
    assert outcomes == {True, False}


def test_match_implies_masked_equality():
    rng = random.Random(12)
    hits = 0
    for _ in range(500):
        data = ref.random_valid_packet(rng, allow_frag=True, allow_ipopts=True)
        line = _folded_drop_rule(rng, data, True)
        if drops(data, line):
            hits += 1
            mask, key = _mask_bytes(compiled(line))
            seg = _window(data)[:len(mask)]
            assert bytes(a & b for a, b in zip(seg, mask)) == key
    assert hits > 400


# ------------------------------------------------------------ residue eval

def test_evaluate_residue_examples():
    assert drops(ref.tcp_packet(dport=80), "mmb add tcp-dport <= 1024 drop")
    not_syn = "mmb add ! tcp-syn drop"
    assert not drops(ref.tcp_packet(flags=ref.SYN), not_syn)
    assert drops(ref.tcp_packet(flags=ref.ACK), not_syn)


def test_match_options_examples():
    opts = ref.make_options((8, bytes(8)))
    with_ts = ref.tcp_packet(flags=ref.SYN, options=opts)
    present = "mmb add tcp-opt-timestamp drop"
    assert drops(with_ts, present)

    mss1400 = ref.tcp_packet(
        options=ref.make_options((2, (1400).to_bytes(2, "big"))))
    assert not drops(mss1400, "mmb add tcp-opt-mss 1460 drop")

    assert not drops(ref.udp_packet(), present)


def test_match_options_random_vs_reference_walk():
    rng = random.Random(13)
    for _ in range(500):
        data = ref.random_valid_packet(rng)
        kind = rng.choice([2, 3, 4, 8, 30, 34])
        fdname = {2: "tcp-opt-mss", 3: "tcp-opt-wscale", 4: "tcp-opt-sackp",
                  8: "tcp-opt-timestamp", 30: "tcp-opt-mptcp",
                  34: "tcp-opt-fastopen"}[kind]
        got = drops(data, f"mmb add {fdname} drop")
        if data[9] != ref.TCP or (((data[6] << 8) | data[7]) & 0x3FFF):
            assert got is False
        else:
            opts = ref.ref_walk_options(data)
            want = opts is not None and any(k == kind for k, _ in opts)
            assert got == want


def test_rules_without_a_residue_share_their_gate():
    # a rule whose matches all fold keeps no closure of its own, which holds
    # a 10K-rule table's memory to one shared gate per protocol
    a = compiled("mmb add tcp-dport 80 drop")
    b = compiled("mmb add ip-saddr 10.0.0.1 ip-proto tcp tcp-sport 5 drop")
    assert a.residue == b.residue == ()
    assert a.test is b.test
    assert compiled("mmb add ip-ttl 3 drop").test is \
        compiled("mmb add ip-saddr 10.0.0.0/8 drop").test


# the parser's comparison operators; presence has none
CONDS = ("==", "!=", "<", ">", "<=", ">=")
# every registry field, plus option kinds the language has no name for
DIFF_FIELDS = list(REGISTRY.values()) + [tcp_option_field(k) for k in (6, 99)]


def _tokens(fd, v):
    """Value tokens near the value `v` a packet carries in field `fd`."""
    if fd.is_addr:
        out = [f"{_quad(v)}/{plen}" for plen in (0, 8, 23, 32)]
        return out + [_quad(v ^ 1), str(v), _quad(min(v + 1, (1 << 32) - 1))]
    if isinstance(v, bytes):
        n = int.from_bytes(v, "big")
        out = [str(n), str(n + 1), str(max(n - 1, 0))]
        if v:
            out += ["0x" + v.hex(), "0x" + v[:1].hex(), "0x" + (v + b"\0").hex()]
        return out
    return [str(v), str(v + 1), str(max(v - 1, 0))]


def _diff_matches(samples):
    """Every match expression the parser accepts on the fields of
    DIFF_FIELDS, plain and negated: presence, and each condition with each
    value token taken from the first three samples that carry the field,
    the bounds of the field and a few literals; lines the parser rejects
    are skipped."""
    matches = []
    for fd in DIFF_FIELDS:
        name = fd.name
        toks = {"0", "1", "0x00", "0xff", "tcp", "udp", "icmp"}
        if fd.width:
            toks.add(str((1 << fd.width) - 1))
        values = [oracle._View(data).read(fd) for data in samples]
        for v in [v for v in values if v is not None][:3]:
            toks.update(_tokens(fd, v))
        texts = [name] + [f"{name} {c} {t}" for c in CONDS for t in sorted(toks)]
        for text in texts:
            for neg in ("", "! "):
                try:
                    rule = parse_command(f"mmb add {neg}{text} drop").rule
                except CommandError:
                    continue
                matches.extend(rule.matches)
    return matches


class _Cut(oracle._View):
    """The oracle's view of a packet whose bytes stop at `end`: a bit span
    past the end is absent."""

    def __init__(self, data, end):
        super().__init__(data)
        self.end = end

    def read(self, fd):
        if fd.kind == FLAG:
            stop = self.l4 + 14
        else:
            base, off, _, _, n = oracle.FIXED_LAYOUT[fd.name]
            stop = (self.l3 if base == "l3" else self.l4) + off + n
        return None if stop > self.end else super().read(fd)


def _cut(data, end):
    """A PacketBuffer holding `data`'s first `end` bytes under `data`'s
    header offsets, as no parse would build it: every bit span past `end`
    must read as absent."""
    full = parse_packet(data)
    return PacketBuffer(data[:end], full.l3_offset, full.l4_offset, full.ihl,
                        full.ip_proto, full.is_fragment)


def test_compiled_matches_agree_with_oracle():
    """compile_match against the oracle's independent `_eval`, on every
    match the parser accepts and on packets across the protocol space:
    IP options, fragments, odd protocols, malformed option areas, and
    packets cut short inside the fields they are matched on."""
    rng = random.Random(31)
    opts = ref.make_options((2, (1460).to_bytes(2, "big")), (4, b""),
                            (6, b"\0\0\0\x07"), (99, b"\x80"))
    tcp = ref.tcp_packet(flags=ref.SYN | ref.ACK, options=opts, payload=b"\xff")
    udp = ref.udp_packet(sport=53, payload=b"\x01\x02q")
    icmp = ref.icmp_packet(icmp_type=3, code=1)
    packets = [tcp, udp, icmp, ref.udp_packet(), ref.icmp_packet(),
               ref.tcp_packet(options=bytes([2, 40]) + bytes(18)),  # overrun
               ref.tcp_packet(options=bytes([1, 1, 1, 8])),  # no length byte
               ref.tcp_packet(options=bytes([2, 4, 5, 180, 3, 1, 0, 0]))]  # length 1
    packets += [ref.random_valid_packet(rng) for _ in range(150)]
    matches = _diff_matches(packets)
    assert {m.cond for m in matches} == {"present", *CONDS}
    assert {m.field.name for m in matches} == {fd.name for fd in DIFF_FIELDS}
    tests = [(m, compile_match(m)) for m in matches]
    outcomes = set()
    for data in packets:
        pkt, view = parse_packet(data), oracle._View(data)
        for m, test in tests:
            want = oracle._eval(view, m)
            assert test(pkt) is want, (str(m), data.hex())
            outcomes.add((m.field.kind, m.negated, want))
    assert len(outcomes) == 4 * 2 * 2

    spans = [(m, t) for m, t in tests if m.field.kind in (FIXED, FLAG)]
    for data in (tcp, udp, icmp):
        l4 = 4 * (data[0] & 0x0F)
        for end in (3, 9, 14, 17, l4, l4 + 1, l4 + 3, l4 + 5, l4 + 9, l4 + 14):
            pkt, view = _cut(data, end), _Cut(data, end)
            for m, test in spans:
                assert test(pkt) is oracle._eval(view, m), (str(m), end)


_OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
        ">": operator.gt, "<=": operator.le, ">=": operator.ge}


@st.composite
def _int_option_cases(draw):
    """(kind, payloads, malformed, value): a kind, 0 to 2 payloads for it
    (absent, once, repeated; kind 4's are empty, the others start with 0
    to all of their bytes zero), whether the option area ends in an option
    whose length byte is 1, and a value to compare."""
    kind = draw(st.sampled_from([2, 4, 6, 8]))
    size = 0 if kind == 4 else draw(st.integers(1, 8))
    payloads = []
    for _ in range(draw(st.integers(0, 2))):
        zeros = draw(st.integers(0, size))
        payloads.append(bytes(zeros) + draw(st.binary(min_size=size - zeros,
                                                      max_size=size - zeros)))
    return kind, payloads, draw(st.booleans()), draw(st.integers(0, 2 ** 66))


@settings(max_examples=300)
@given(case=_int_option_cases())
@example(case=(2, [b"\x00\x05"], False, 5))  # a leading zero byte
@example(case=(8, [bytes(7) + b"\x01"], False, 1))
@example(case=(4, [b""], False, 0))  # an empty payload
@example(case=(2, [b"\x05\xb4", b"\x00\x01"], False, 1))  # repeated
@example(case=(6, [], False, 0))  # absent
@example(case=(2, [b"\x05\xb4"], True, 1460))  # malformed area
def test_integer_option_matches_compare_the_payload_integer(case):
    """Every integer comparison on a TCP option, plain and negated, through
    compile_match: the verdict is the oracle's, and that of int.from_bytes
    on the kind's first payload; an absent option, or any option of a
    malformed area, fails every condition."""
    kind, payloads, malformed, drawn = case
    area = b"".join(bytes((kind, 2 + len(b))) + b for b in payloads)
    area = b"\x01" + area + bytes([3, 3, 7]) + (bytes([5, 1]) if malformed else b"")
    data = ref.tcp_packet(options=area + bytes(-len(area) % 4))
    pkt, view = parse_packet(data), oracle._View(data)
    n = None if malformed or not payloads else int.from_bytes(payloads[0], "big")
    base = n or 0
    for value in sorted({0, base - 1, base, base + 1, drawn} - {-1}):
        for cond, neg in [(c, g) for c in CONDS for g in ("", "! ")]:
            m = parse_command(f"mmb add {neg}tcp-opt {kind} {cond} {value} drop"
                              ).rule.matches[0]
            got = compile_match(m)(pkt)
            assert got is oracle._eval(view, m), (str(m), data.hex())
            want = n is not None and _OPS[cond](n, value) != bool(neg)
            assert got is want, (str(m), data.hex())


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
    assert [cr.rule.id for cr in entry] == [1, 2]
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
    for cr in snap.by_id.values():
        if cr.mask:
            masks.add((cr.shift, cr.mask))
    assert len(snap.tables) == len(masks) == 3
    assert len(snap.slow) == 1


def test_list_tables_opens_with_table_and_maskless_counts():
    # perfbench reads classifier.tables and slow_rules off this first line
    engine = Engine()
    engine.add_commands(["mmb add tcp-dport 80 drop", "mmb add tcp-sport 80 drop",
                         "mmb add ip-ttl 3 drop", "mmb add tcp-dport <= 10 drop",
                         "mmb add tcp-opt-mss drop"])
    lines = engine.execute_line("list tables").splitlines()
    snap = engine.snapshot
    assert lines[0] == f"{len(snap.tables)} tables, {len(snap.slow)} maskless rules"
    assert (len(snap.tables), len(snap.slow)) == (3, 2)
    assert len(lines) == 1 + len(snap.tables)


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


def test_flag_check_contradicting_flags_byte_never_matches():
    # a flag is a 1-bit span of the flags byte, so `tcp-flags 0` and
    # `tcp-syn` disagree in either order, on and off the table path
    syn = [parse_packet(ref.tcp_packet(flags=ref.SYN, ihl=ihl,
                                       ip_options=bytes(4 * (ihl - 5))))
           for ihl in (5, 6)]
    for line in ("mmb add tcp-flags 0 tcp-syn drop",
                 "mmb add tcp-syn tcp-flags 0 drop"):
        _, snap = make_snapshot([line])
        assert snap.by_id[1].never
        assert [classify(p, snap).kind for p in syn] == ["miss", "miss"]


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


# ----------------------------------------------------------- vector probe

def _odd_packet(rng, kind):
    """A packet off the common path: IPv4 options, a fragment, UDP or ICMP."""
    saddr, daddr = rng.choice(oracle.ADDR_POOL), rng.choice(oracle.ADDR_POOL)
    if kind == "ipopts":
        return ref.tcp_packet(saddr, daddr, rng.choice(oracle.PORT_POOL),
                              rng.choice(oracle.PORT_POOL), ihl=6,
                              ip_options=bytes([1] * 4))
    if kind == "frag":
        seg = ref.udp_segment(saddr, daddr, 53, 53, b"x" * 16)
        return ref.ipv4_header(saddr, daddr, ref.UDP, len(seg),
                               flags_frag=0x2000 | rng.randrange(64)) + seg
    if kind == "udp":
        return ref.udp_packet(saddr, daddr, rng.choice(oracle.PORT_POOL),
                              rng.choice(oracle.PORT_POOL))
    return ref.icmp_packet(saddr, daddr, rng.choice([0, 3, 8, 11]))


@st.composite
def vector_cases(draw):
    """(rule lines, packet bytes): a random rule set plus mask-limit rules,
    and one vector of pool packets mixed with off-path packets."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    lines = oracle.random_ruleset(rng, draw(st.integers(0, 40)))
    lines += rng.sample(mask_limit_rules(40, seed=rng.randrange(100)),
                        draw(st.integers(2, 12)))
    kinds = st.sampled_from(["pool", "pool", "pool", "ipopts", "frag", "udp", "icmp"])
    blobs = [oracle.random_pool_packet(rng) if kind == "pool" else _odd_packet(rng, kind)
             for kind in draw(st.lists(kinds, min_size=1, max_size=64))]
    return lines, blobs


def _ids(hits):
    return [[cr.rule.id for cr in h] for h in hits]


@settings(max_examples=300)
@given(vector_cases())
def test_vector_probe_equals_per_packet_probe(case):
    lines, blobs = case
    rules, snap = make_snapshot(lines)
    assume(len({t.shift for t in snap.tables}) >= 2)
    pkts = [parse_packet(b) for b in blobs]
    hits = match_tables(pkts, snap)
    assert _ids(hits) == [_ids(match_tables([p], snap))[0] for p in pkts]
    alone = [classify(p, snap) for p in pkts]
    in_vector = classify_vector(pkts, snap, None, 0.0, hits)
    assert [(MISS, ()) if r is None else (r[0], tuple(cr.rule.id for cr in r[1]))
            for r in in_vector] == [(v.kind, v.rule_ids) for v in alone]
    orc = oracle.LinearOracle(rules)
    assert [(v.kind, v.rule_ids) for v in alone] == [orc.verdict(b) for b in blobs]

    engine = Engine()
    engine.add_commands(lines)
    disp = {"drop": DISP_DROP, "match": DISP_REWRITTEN, "miss": DISP_FORWARD}
    results = engine.run_vector([parse_packet(b) for b in blobs])
    assert [d for _, d in results] == [disp[v.kind] for v in alone]
