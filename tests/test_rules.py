"""Rule language: grammar, validation, formatting round trips, fuzz."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midbox import (CommandError, Engine, SemanticError, TypeMismatch,
                    UnknownField, format_command, parse_command)
from midbox.errors import CommandSyntaxError
from midbox.rules import ADD_OPT, EQ, MOD, PRESENT, SHUFFLE, STRIP_EXCEPT


def rule_of(line):
    return parse_command(line).rule


def test_port_rewrite_rule():
    r = rule_of("mmb add tcp-dport 80 mod tcp-dport 443")
    assert [(m.field.name, m.cond, m.value) for m in r.matches] == \
        [("tcp-dport", EQ, 80)]
    assert [(t.kind, t.field.name, t.value) for t in r.targets] == \
        [(MOD, "tcp-dport", 443)]
    assert not r.stateful


def test_strip_whitelist_rule():
    r = rule_of("mmb add tcp-opt-timestamp strip ! tcp-opt-mss strip ! tcp-opt-wscale")
    assert [(m.field.name, m.cond) for m in r.matches] == \
        [("tcp-opt-timestamp", PRESENT)]
    assert len(r.targets) == 1
    t = r.targets[0]
    assert t.kind == STRIP_EXCEPT and t.opt_kinds == frozenset({2, 3})


def test_snat_rule():
    r = rule_of("mmb add-stateful ip-saddr 10.0.0.0/24 ip-proto tcp tcp-syn "
                "shuffle tcp-sport mod ip-saddr 200.0.0.1")
    assert r.stateful
    assert [(m.field.name, m.cond, m.value) for m in r.matches] == [
        ("ip-saddr", EQ, (0x0A000000, 24)),
        ("ip-proto", EQ, 6),
        ("tcp-syn", PRESENT, None),
    ]
    assert [(t.kind, t.field.name if t.field else None) for t in r.targets] == \
        [(SHUFFLE, "tcp-sport"), (MOD, "ip-saddr")]
    assert r.targets[1].value == 0xC8000001


def test_control_commands():
    assert parse_command("mmb del 3").rule_id == 3
    assert parse_command("mmb list").verb == "list"
    assert parse_command("mmb flush").verb == "flush"
    assert parse_command("mmb enable").verb == "enable"
    assert parse_command("mmb disable").verb == "disable"


def test_unknown_field_rejected():
    with pytest.raises(UnknownField):
        parse_command("mmb add tcp-dportt 80 drop")


def test_value_too_wide_rejected():
    with pytest.raises(TypeMismatch):
        parse_command("mmb add tcp-dport 70000 drop")


def test_errors_carry_byte_position():
    line = "mmb add tcp-dport 80 zap"
    with pytest.raises(UnknownField) as e:
        parse_command(line)
    assert e.value.position == line.index("zap")

    line2 = "mmb zap"
    with pytest.raises(CommandSyntaxError) as e2:
        parse_command(line2)
    assert e2.value.position == line2.index("zap")


def test_drop_exclusive():
    with pytest.raises(SemanticError):
        parse_command("mmb add tcp-dport 80 drop mod tcp-dport 443")


def test_shuffle_needs_stateful():
    with pytest.raises(SemanticError):
        parse_command("mmb add tcp-dport 80 shuffle tcp-sport")
    parse_command("mmb add-stateful tcp-dport 80 shuffle tcp-sport")


def test_mixed_strip_forms_rejected():
    with pytest.raises(SemanticError):
        parse_command("mmb add tcp-syn strip tcp-opt-mss strip ! tcp-opt-wscale")


def test_protocol_conflict_rejected():
    with pytest.raises(SemanticError):
        parse_command("mmb add tcp-dport 80 udp-sport 53 drop")
    with pytest.raises(SemanticError):
        parse_command("mmb add ip-proto udp tcp-dport 80 drop")


def test_ip_len_write_rejected():
    # the total length is the engine's: `mod ip-len 30` on a 70-byte SYN
    # would send 70 bytes whose header says 30
    engine = Engine()
    for line in ("mmb add tcp-syn mod ip-len 30",
                 "mmb add-stateful tcp-syn shuffle ip-len"):
        assert engine.execute_line(line).startswith("error: ")
    assert engine.rules == {}
    assert engine.execute_line("mmb add ip-len 30 drop") == "added rule 1"


def test_strip_needs_option_field():
    with pytest.raises(SemanticError):
        parse_command("mmb add tcp-syn strip tcp-dport")


def test_generic_option_kind():
    r = rule_of("mmb add tcp-opt 66 0xdead drop")
    assert r.matches[0].field.opt_kind == 66
    assert r.matches[0].value == b"\xde\xad"
    r2 = rule_of("mmb add tcp-syn add tcp-opt 77 5")
    assert r2.targets[0].kind == ADD_OPT and r2.targets[0].field.opt_kind == 77


def test_eligibility_five_tuple_eq():
    r = rule_of("mmb add ip-saddr 1.2.3.4 ip-daddr 5.6.7.8 ip-proto tcp "
                "tcp-sport 1 tcp-dport 2 drop")
    assert r.fast_path_eligible


def test_eligibility_complex_condition():
    assert not rule_of("mmb add tcp-dport <= 1024 drop").fast_path_eligible


def test_eligibility_option_match():
    assert not rule_of("mmb add tcp-opt-mss 1460 drop").fast_path_eligible


def test_negated_matches():
    r = rule_of("mmb add ! tcp-syn ! tcp-dport 80 drop")
    assert r.matches[0].negated and r.matches[0].cond == PRESENT
    assert r.matches[1].negated and r.matches[1].cond == EQ
    assert not r.fast_path_eligible


def test_hex_and_decimal_literals():
    r = rule_of("mmb add tcp-dport 0x50 drop")
    assert r.matches[0].value == 80
    r2 = rule_of("mmb add ip4-payload 0x68656c6c6f drop")
    assert r2.matches[0].value == b"hello"


def test_payload_rejects_plain_int():
    with pytest.raises(TypeMismatch):
        parse_command("mmb add udp-payload 99 drop")


ROUNDTRIP_LINES = [
    "mmb add tcp-dport 80 mod tcp-dport 443",
    "mmb add tcp-opt-timestamp strip ! tcp-opt-mss strip ! tcp-opt-wscale",
    "mmb add-stateful ip-saddr 10.0.0.0/24 ip-proto tcp tcp-syn "
    "shuffle tcp-sport mod ip-saddr 200.0.0.1",
    "mmb add ! tcp-syn ip-saddr 198.18.4.0/22 tcp-dport >= 1024 drop",
    "mmb add tcp-opt 66 0xbeef strip tcp-opt-sackp add tcp-opt-mss 1460",
    "mmb add udp-payload 0x0011 mod udp-payload 0xff00",
    "mmb add ip-dscp 46 mod ip-ecn 1 mod ip-ttl 64",
    "mmb del 12",
    "mmb list",
    "mmb flush",
]


@pytest.mark.parametrize("line", ROUNDTRIP_LINES)
def test_format_parse_roundtrip(line):
    cmd = parse_command(line)
    printed = format_command(cmd)
    again = parse_command(printed)
    assert again == cmd or (again.rule is not None and
                            again.rule.matches == cmd.rule.matches and
                            again.rule.targets == cmd.rule.targets and
                            again.rule.stateful == cmd.rule.stateful)


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
               max_size=80))
@settings(max_examples=300, deadline=None)
def test_parser_total_on_garbage(text):
    try:
        parse_command(text)
    except CommandError:
        pass  # the only acceptable failure mode


def test_parser_total_on_token_soup():
    rng = random.Random(9)
    vocab = ["mmb", "add", "add-stateful", "del", "drop", "mod", "strip",
             "shuffle", "!", "==", "<=", "tcp-dport", "ip-saddr", "80",
             "10.0.0.0/24", "0xff", "tcp-opt", "tcp-opt-mss", "list", "zz"]
    for _ in range(2000):
        line = " ".join(rng.choice(vocab)
                        for _ in range(rng.randrange(0, 12)))
        try:
            parse_command(line)
        except CommandError:
            pass
