"""Snapshot deltas: a single `mmb add`/`mmb del` derives the next snapshot
copy-on-write; it must equal a full build and leave earlier snapshots as
they were."""

import random

from hypothesis import given, settings, strategies as st

import oracle
from midbox import Engine, RuleSetSnapshot, classifier, classify, parse_packet
from midbox.classifier import match_tables
from midbox.rulegen import (SNAT_RULE, STRIP_EXCEPT_RULE, firewall_rules,
                            mask_limit_rules, tcp_option_rules)

RULE_LINES = (oracle.random_ruleset(random.Random(31), 60)
              + firewall_rules(8, seed=3)
              + tcp_option_rules(6, seed=4)
              + mask_limit_rules(6, seed=5)
              + [SNAT_RULE, STRIP_EXCEPT_RULE,
                 "mmb add tcp-dport 80 tcp-dport 443 drop",  # matches nothing
                 "mmb add-stateful tcp-dport >= 1 mod ip-saddr 1.1.1.1"])

_rng = random.Random(32)
PACKETS = [parse_packet(oracle.random_pool_packet(_rng)) for _ in range(60)]


def structure(snap):
    """({table key: {entry key: [rule ids]}}, slow ids, by_id keys); also
    checks that the table index matches the table list."""
    tables = {(t.shift, t.mask): t for t in snap.tables}
    assert len(tables) == len(snap.tables)
    assert snap.index == tables
    return ({tkey: {k: [cr.rule.id for cr in e] for k, e in t.entries.items()}
             for tkey, t in tables.items()},
            [cr.rule.id for cr in snap.slow],
            list(snap.by_id))


def verdicts(snap):
    """Verdicts of PACKETS one at a time; classifying them as one vector
    must agree, so a snapshot's table grouping is its own."""
    out = [(v.kind, v.rule_ids) for v in (classify(p, snap) for p in PACKETS)]
    hits = match_tables(PACKETS, snap)
    assert [(v.kind, v.rule_ids) for v in
            (classify(p, snap, hits=h) for p, h in zip(PACKETS, hits))] == out
    return out


# two adds to a del, so rule sets grow while tables also empty out
steps = st.lists(st.tuples(st.sampled_from(["add", "add", "del"]),
                           st.integers(0, 10_000)),
                 min_size=20, max_size=80)


@settings(max_examples=100)
@given(steps)
def test_deltas_equal_full_build_and_leave_old_snapshots_alone(ops):
    engine = Engine()
    for op, n in ops:
        before = engine.snapshot
        before_shape, before_verdicts = structure(before), verdicts(before)
        if op == "del" and engine.rules:
            ids = sorted(engine.rules)
            reply = engine.execute_line(f"mmb del {ids[n % len(ids)]}")
            assert reply.startswith("deleted rule")
        else:
            reply = engine.execute_line(RULE_LINES[n % len(RULE_LINES)])
            assert reply.startswith("added rule")
        snap = engine.snapshot
        full = RuleSetSnapshot([engine.rules[k] for k in sorted(engine.rules)])
        assert structure(snap) == structure(full)
        assert verdicts(snap) == verdicts(full)
        assert structure(before) == before_shape
        assert verdicts(before) == before_verdicts


def test_add_and_del_compile_only_the_added_rule(monkeypatch):
    engine = Engine()
    engine.add_commands(RULE_LINES)
    compiled = []

    class Counting(classifier.CompiledRule):
        __slots__ = ()

        def __init__(self, rule):
            compiled.append(rule.id)
            super().__init__(rule)

    monkeypatch.setattr(classifier, "CompiledRule", Counting)
    reply = engine.execute_line("mmb add tcp-dport 80 drop")
    rid = int(reply.rsplit(" ", 1)[1])
    assert compiled == [rid]
    engine.execute_line(f"mmb del {rid}")
    engine.execute_line("mmb del 1")
    assert compiled == [rid]
