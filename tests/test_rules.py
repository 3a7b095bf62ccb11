"""Rule language: grammar, validation, formatting round trips, fuzz."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midbox import (CommandError, Engine, SemanticError, TypeMismatch,
                    UnknownField, format_rule, parse_command)
from midbox.classifier import RuleSetSnapshot
from midbox.errors import CommandSyntaxError
from midbox.fields import FLAG, OPT, PAYLOAD, REGISTRY
from midbox.rules import ADD_OPT, EQ, MOD, PRESENT, SHUFFLE, STRIP_EXCEPT


def rule_of(line):
    return parse_command(line).rule


def format_command(cmd):
    """A parsed command printed back as `mmb ...` text."""
    if cmd.verb in ("add", "add-stateful"):
        return f"mmb {cmd.verb} {format_rule(cmd.rule)}"
    if cmd.verb == "del":
        return f"mmb del {cmd.rule_id}"
    return f"mmb {cmd.verb}"


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


# One line per raise site in rules.py. `»` marks where the error is (the
# offending token, or the end of the last token for an error at end of line)
# and is removed before parsing; a line without it expects no position, and
# one with it the UTF-8 byte offset of the mark. Tokens repeat and are
# separated by tabs, runs of spaces and no-break spaces (two bytes in UTF-8),
# so that a position found by searching the line for the token, by counting
# single spaces or by counting characters cannot pass by accident.
ERROR_SITES = [
    ("no-command", "»", CommandSyntaxError),
    ("not-mmb", "\t»mm mmb", CommandSyntaxError),
    ("no-verb", "mmb»", CommandSyntaxError),
    ("bad-verb", "mmb \xa0 »mmb", CommandSyntaxError),
    ("no-match", "mmb add\t\t»drop", CommandSyntaxError),
    ("no-target", "mmb add  tcp-syn»", CommandSyntaxError),
    ("del-no-id", "mmb  del»", CommandSyntaxError),
    ("del-bad-id", "mmb del\t»del", CommandSyntaxError),
    ("del-extra", "mmb del 3 \xa0»3", CommandSyntaxError),
    ("list-extra", "mmb list\t»list", CommandSyntaxError),
    ("no-field", "mmb add tcp-syn\t!»", CommandSyntaxError),
    ("unknown-field", "mmb add ip-ttl 1  »ip-tt drop", UnknownField),
    ("opt-no-kind", "mmb add tcp-opt»", CommandSyntaxError),
    ("opt-bad-kind", "mmb add tcp-opt  »tcp-opt drop", CommandSyntaxError),
    ("opt-kind-300", "mmb add tcp-dport 300 tcp-opt\t»300 drop", TypeMismatch),
    ("octet-300", "mmb add ip-saddr 1.2.3.4\xa0ip-daddr  »1.2.3.300 drop", TypeMismatch),
    ("prefix-40", "mmb add ip-saddr 1.2.3.4/24\tip-daddr »1.2.3.4/40 drop", TypeMismatch),
    ("addr-wide", "mmb add ip-saddr  »4294967296 drop", TypeMismatch),
    ("not-addr", "mmb add ip-saddr\t»tcp drop", TypeMismatch),
    ("odd-hex", "mmb add tcp-opt-mss \xa0»0xabc drop", TypeMismatch),
    ("opt-not-num", "mmb add tcp-opt-mss  »0b1 drop", TypeMismatch),
    ("flag-value", "mmb add tcp-syn\t»1 drop", TypeMismatch),
    ("not-num", "mmb add ip-ttl 1 ip-id  »x1 drop", CommandSyntaxError),
    ("leading-zero", "mmb add tcp-dport\t»010 drop", CommandSyntaxError),
    ("too-wide", "mmb add tcp-sport 1 tcp-dport\t»65536 drop", TypeMismatch),
    ("cond-no-value", "mmb add tcp-dport <=  »drop", CommandSyntaxError),
    ("cond-at-end", "mmb add tcp-dport\t==»", CommandSyntaxError),
    ("order-prefix", "mmb add ip-saddr <\t»10.0.0.0/8 drop", TypeMismatch),
    ("order-bytes", "mmb add tcp-opt-mss >= »0x05b4 drop", TypeMismatch),
    ("payload-int", "mmb add udp-payload\xa0»99 drop", TypeMismatch),
    ("mod-prefix", "mmb add tcp-syn mod ip-saddr  »10.0.0.0/8", TypeMismatch),
    ("mod-flag-2", "mmb add tcp-syn mod tcp-syn\t»2", TypeMismatch),
    ("mod-flag-text", "mmb add tcp-syn mod tcp-syn »tcp-syn", CommandSyntaxError),
    ("mod-at-end", "mmb add tcp-syn mod tcp-dport»", CommandSyntaxError),
    ("mod-at-end-blank", "mmb add tcp-syn mod tcp-dport»\t \n", CommandSyntaxError),
    ("strip-not-opt", "mmb add tcp-syn strip\t»tcp-dport", SemanticError),
    ("strip-at-end", "mmb add tcp-syn strip !»", CommandSyntaxError),
    ("add-not-opt", "mmb add tcp-syn add  »tcp-dport 5", SemanticError),
    ("add-bad-value", "mmb add tcp-syn add tcp-opt-mss\t»zz", TypeMismatch),
    ("shuffle-opt", "mmb add-stateful tcp-syn shuffle \xa0»tcp-opt-mss", SemanticError),
    ("not-target", "mmb add tcp-syn drop\t»tcp-syn", CommandSyntaxError),
    ("mixed-strip", "mmb add tcp-syn strip tcp-opt-mss strip ! tcp-opt-sack", SemanticError),
    ("drop-plus", "mmb add tcp-dport 80 drop mod tcp-dport 443", SemanticError),
    ("protocols", "mmb add tcp-dport 80\tudp-sport 53 drop", SemanticError),
]


@pytest.mark.parametrize("marked,cls", [case[1:] for case in ERROR_SITES],
                         ids=[case[0] for case in ERROR_SITES])
def test_error_sites_carry_byte_position(marked, cls):
    line = marked.replace("»", "")
    with pytest.raises(cls) as e:
        parse_command(line)
    assert e.value.position == (len(marked[:marked.index("»")].encode())
                                if "»" in marked else None)


@pytest.mark.parametrize("line,position", [
    ("mmb\u3000zap", 6),
    ("mmb \u3000\xa0 zap", 10),
    ("mmb add ip-ttl\u3000\U0001F600 drop", 17),
    ("mmb \udcff", 4),
    ("mmb add tcp-syn \ud800 \udcff", 16),
    ("mmb\u3000add\u3000tcp-syn\u3000drop\u3000\udcff", 29),
    # Arabic-Indic digits are a decimal number, two bytes each
    ("mmb add tcp-dport \u0661\u0662 zap", 23),
])
def test_error_positions_are_utf8_bytes(line, position):
    """Positions count UTF-8 bytes, not characters, and a line holding a
    lone surrogate (which input() can return) still gets one."""
    with pytest.raises(CommandError) as e:
        parse_command(line)
    assert e.value.position == position
    assert str(e.value).endswith(f"(at byte {position})")


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


def in_table(line):
    """True when the compiled rule set places the rule of `line` in a mask
    table, False when among its maskless rules."""
    rule = rule_of(line)
    rule.id = 1
    snap = RuleSetSnapshot([rule])
    assert len(snap.tables) + len(snap.slow) == 1
    return bool(snap.tables)


def test_eligibility_five_tuple_eq():
    assert in_table("mmb add ip-saddr 1.2.3.4 ip-daddr 5.6.7.8 ip-proto tcp "
                    "tcp-sport 1 tcp-dport 2 drop")


def test_eligibility_complex_condition():
    assert not in_table("mmb add tcp-dport <= 1024 drop")


def test_eligibility_option_match():
    assert not in_table("mmb add tcp-opt-mss 1460 drop")


def test_negated_matches():
    r = rule_of("mmb add ! tcp-syn ! tcp-dport 80 drop")
    assert r.matches[0].negated and r.matches[0].cond == PRESENT
    assert r.matches[1].negated and r.matches[1].cond == EQ
    assert not in_table("mmb add ! tcp-syn ! tcp-dport 80 drop")


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


# Grammar-shaped lines: every registry field and `tcp-opt K`, the keywords,
# and values at each edge a check tests. A value is usually one of its
# field's kind, so most lines get far into a rule.
_OCTETS = st.sampled_from(["0", "1", "10", "255", "256"])
_ADDRS = st.builds("{}.{}.{}.{}{}".format, _OCTETS, _OCTETS, _OCTETS, _OCTETS,
                   st.sampled_from([""] + [f"/{n}" for n in range(41)]))
_ANY_VALUE = ["0", "1", "2", "010", "00", "x", "tcp", "udp", "icmp", "²", "4294967296",
              "10.0.0.0/8", "0xff"]


def _values_for(name):
    """A field's values: mostly of its kind, at the edges its checks test."""
    fd = REGISTRY.get(name)
    if fd is not None and fd.is_addr:
        return st.one_of(_ADDRS, st.sampled_from(["4294967295", "0xffffffff"] + _ANY_VALUE))
    if fd is None or fd.kind in (OPT, PAYLOAD):
        own = ["0x", "0x0", "0x00", "0xabc", "0xABCD", "0x0102030405", "0", "1460",
               "65536", "²", "١٢"]
    elif fd.kind == FLAG:
        own = ["0", "1", "2"]
    else:  # decimals at the field's width
        w = fd.width
        own = ["0", "010", str(2 ** w - 1), str(2 ** w), hex(2 ** w - 1)]
    return st.sampled_from(own * 3 + _ANY_VALUE)


def _with_value(names):
    """(field, value) pairs."""
    return names.flatmap(lambda f: st.tuples(st.just(f), _values_for(f)))


_KINDS = [f"tcp-opt {k}" for k in ["2", "30", "66", "255"] * 2 + ["0", "1", "256", "x"]]
_OPT_NAMES = sorted(n for n, fd in REGISTRY.items() if fd.kind == OPT) + _KINDS
_FIELD_NAMES = st.sampled_from(sorted(REGISTRY) + _KINDS)
_OPTS_FIRST = st.sampled_from(_OPT_NAMES * 2 + sorted(REGISTRY))
_MATCHES = st.builds(
    lambda neg, fv, cond, has_value: [neg, fv[0], cond, fv[1] if has_value or cond else ""],
    st.sampled_from(["", "", "!"]), _with_value(_FIELD_NAMES),
    st.sampled_from(["", "", "", "==", "!=", "<", ">", "<=", ">="]), st.booleans())
_TARGETS = st.one_of(
    st.just(["drop"]),
    _with_value(_FIELD_NAMES).map(lambda fv: ["mod", *fv]),
    st.builds(lambda neg, f: ["strip", neg, f], st.sampled_from(["", "!"]), _OPTS_FIRST),
    _with_value(_OPTS_FIRST).flatmap(
        lambda fv: st.sampled_from([["add", *fv], ["add", fv[0]]])),
    _FIELD_NAMES.map(lambda f: ["shuffle", f]))
_RULE_LINES = st.builds(
    lambda verb, ms, ts, sep: sep.join(["mmb", verb] + [t for p in ms + ts for t in p if t]),
    st.sampled_from(["add", "add-stateful"]), st.lists(_MATCHES, min_size=1, max_size=2),
    st.lists(_TARGETS, min_size=1, max_size=2), st.sampled_from([" ", "\t", "  \xa0"]))
_OTHER_LINES = st.builds(
    lambda verb, toks: " ".join(["mmb", verb] + toks),
    st.sampled_from(["del", "list", "flush", "enable", "disable", "zap"]),
    st.lists(st.sampled_from(_ANY_VALUE + ["mmb", "drop", "!"]), max_size=2))


@given(st.one_of(_RULE_LINES, _OTHER_LINES))
@settings(max_examples=450)
def test_parser_total_on_grammar_shaped_lines(line):
    try:
        cmd = parse_command(line)
    except CommandError as e:
        assert e.position is None or 0 <= e.position <= len(line.encode())
        return
    assert parse_command(format_command(cmd)) == cmd
