"""The interactive rule language: tokenizer, parser, validation, formatting.

Grammar:

    command   := "mmb" ( "add" rule | "add-stateful" rule | "del" NUM
                       | "list" | "flush" | "enable" | "disable" )
    rule      := match+ target+
    match     := ["!"] FIELD [ cond value ]
    cond      := e | "==" | "!=" | "<" | ">" | "<=" | ">="     (e means "==")
    value     := NUM | HEXBYTES | ADDR["/"NUM]
    target    := "drop"
               | "mod" FIELD value
               | "strip" ["!"] TCPOPT        (repeatable)
               | "add" TCPOPT [value]
               | "shuffle" FIELD

A bare flag field (`tcp-syn`) means "flag set"; `!` negates the whole match.
Repeated `strip ! X` clauses compose into one whitelist; mixing plain and
negated strips in a rule is rejected.

The tokens are `line.split()`, read in one pass by index. An error carries
the index of its token until `parse_command` turns it into the token's
UTF-8 byte offset in the line, so positions are found only on error. An
error at end of line points just past the last token.
"""

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (CommandError, CommandSyntaxError, SemanticError, TypeMismatch,
                     UnknownField)
from .fields import (FIXED, FLAG, OPT, PAYLOAD, PROTO_NAMES, PROTO_NUMBERS, REGISTRY,
                     FieldDescriptor, prefix_mask, tcp_option_field)

# match conditions
EQ = "=="
NEQ = "!="
LT = "<"
GT = ">"
LEQ = "<="
GEQ = ">="
PRESENT = "present"

COMPLEX_CONDS = frozenset({NEQ, LT, GT, LEQ, GEQ})
_COND_TOKENS = frozenset({EQ, NEQ, LT, GT, LEQ, GEQ})

# target kinds
DROP = "drop"
MOD = "mod"
STRIP = "strip"
STRIP_EXCEPT = "strip-except"
ADD_OPT = "add-opt"
SHUFFLE = "shuffle"

_TARGET_KEYWORDS = frozenset({"drop", "mod", "strip", "add", "shuffle"})

# fields whose rewrite participates in connection-tuple translation
TUPLE_FIELDS = frozenset({"ip-saddr", "ip-daddr", "tcp-sport", "tcp-dport",
                          "udp-sport", "udp-dport"})


class MatchExpr(NamedTuple):
    field: FieldDescriptor
    cond: str
    value: object = None  # int | bytes | (addr, prefix_len) | None
    negated: bool = False


class TargetExpr(NamedTuple):
    kind: str
    field: FieldDescriptor | None = None
    value: object = None
    opt_kinds: frozenset = frozenset()  # STRIP set / STRIP_EXCEPT whitelist


@dataclass
class Rule:
    matches: list
    targets: list
    stateful: bool = False
    id: int | None = None
    fast_path_eligible: bool = False
    proto_req: int | None = None  # implied by protocol-specific fields
    hits: int = 0


class Command(NamedTuple):
    verb: str  # add | add-stateful | del | list | flush | enable | disable
    rule: Rule | None = None
    rule_id: int | None = None


_ADDR_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})(?:/(\d{1,2}))?$")
_HEX_RE = re.compile(r"^0[xX]([0-9a-fA-F]+)$")

_DROP = TargetExpr(DROP)

# tokens that end a match without a value: the next match or the targets
_NOT_A_VALUE = _TARGET_KEYWORDS | {"!", "tcp-opt"} | REGISTRY.keys()


def _offset(line, toks, i):
    """UTF-8 byte offset in `line` of toks[i]; for the end sentinel, the end
    of the last token (0 on a blank line). A lone surrogate, which input()
    can return, counts as its three-byte encoding rather than raising."""
    at = 0
    for tok in toks[:i]:
        at = line.index(tok, at) + len(tok)
    if toks[i] is not None:
        at = line.index(toks[i], at)
    return len(line[:at].encode("utf-8", "surrogatepass"))


def _end(what, i):
    return CommandSyntaxError(f"expected {what}, got end of line", i)


def _int(tok):
    """The integer a decimal or 0x-hex token spells, or None. As in a
    Python literal, a decimal other than all zeros may not start with 0,
    which could be read as octal."""
    if tok.isdecimal() or _HEX_RE.match(tok):
        try:
            return int(tok, 0)
        except ValueError:
            pass
    return None


def _parse_num(tok, i, what):
    v = _int(tok)
    if v is None:
        raise CommandSyntaxError(f"expected {what}, got {tok!r}", i)
    return v


def _parse_value(tok, i, fd):
    """Typed literal for a field: int, bytes, or (addr, prefix_len)."""
    if fd.is_addr:
        m = _ADDR_RE.match(tok)
        if m:
            a, b, c, d, plen = m.groups()
            a, b, c, d = int(a), int(b), int(c), int(d)
            if a > 255 or b > 255 or c > 255 or d > 255:
                raise TypeMismatch(f"bad address {tok!r}", i)
            addr = a << 24 | b << 16 | c << 8 | d
            if plen is None:
                return (addr, 32)
            plen = int(plen)
            if plen > 32:
                raise TypeMismatch(f"prefix length {plen} out of range", i)
            return (addr & prefix_mask(plen), plen)
        v = _int(tok)
        if v is not None:
            if v >= 1 << 32:
                raise TypeMismatch(f"address value {tok!r} too wide", i)
            return (v, 32)
        raise TypeMismatch(f"expected address for {fd.name}, got {tok!r}", i)

    if fd.name == "ip-proto" and tok in PROTO_NUMBERS:
        return PROTO_NUMBERS[tok]

    if fd.kind == OPT or fd.kind == PAYLOAD:
        m = _HEX_RE.match(tok)
        if m:
            digits = m.group(1)
            if len(digits) % 2:
                raise TypeMismatch(f"hex byte string {tok!r} has odd length", i)
            return bytes.fromhex(digits)
        if tok.isdecimal():
            return int(tok)
        raise TypeMismatch(f"expected number or 0x-bytes for {fd.name}, got {tok!r}", i)

    if fd.kind == FLAG:
        raise TypeMismatch(f"flag field {fd.name} takes no value", i)

    v = _int(tok)
    if v is None:
        raise CommandSyntaxError(f"expected value for {fd.name}, got {tok!r}", i)
    if fd.width and v >= 1 << fd.width:
        raise TypeMismatch(f"value {tok} too wide for {fd.name} ({fd.width} bits)", i)
    return v


def _field_token(toks, i):
    """(field, index after it) of the field named at toks[i]; `tcp-opt`
    takes its kind number from the next token."""
    tok = toks[i]
    fd = REGISTRY.get(tok)
    if fd is not None:
        return fd, i + 1
    if tok is None:
        raise _end("field name", i)
    if tok == "tcp-opt":
        ktok = toks[i + 1]
        if ktok is None:
            raise _end("TCP option kind", i + 1)
        kind = _parse_num(ktok, i + 1, "TCP option kind")
        if not 2 <= kind <= 255:
            raise TypeMismatch(f"TCP option kind {kind} out of range", i + 1)
        return tcp_option_field(kind), i + 2
    raise UnknownField(f"unknown field {tok!r}", i)


def _parse_match(toks, i):
    """(MatchExpr, index after it) of the match that starts at toks[i]."""
    negated = toks[i] == "!"
    fd, i = _field_token(toks, i + negated)
    tok = toks[i]
    cond = EQ
    if tok in _COND_TOKENS:
        cond = tok
        i += 1
        tok = toks[i]
        if tok is None or tok in _NOT_A_VALUE:
            raise CommandSyntaxError(f"condition {cond!r} needs a value", i)
    elif tok is None or tok in _NOT_A_VALUE:
        return MatchExpr(fd, PRESENT, None, negated), i
    value = _parse_value(tok, i, fd)
    if fd.kind == PAYLOAD and isinstance(value, int):
        raise TypeMismatch(f"{fd.name} takes a 0x-byte-string value", i)
    if cond in (LT, GT, LEQ, GEQ):
        if isinstance(value, tuple):
            if value[1] != 32:
                raise TypeMismatch("ordering comparison needs a full address", i)
            value = value[0]
        if isinstance(value, (bytes, bytearray)):
            raise TypeMismatch("ordering comparison needs a numeric value", i)
    return MatchExpr(fd, cond, value, negated), i + 1


def _option_field(toks, i):
    fd, j = _field_token(toks, i)
    if fd.kind != OPT:
        raise SemanticError(f"{fd.name} is not a TCP option field", i)
    return fd, j


def _parse_targets(toks, i):
    targets = []
    strips = []          # (negated, kind)
    tok = toks[i]
    while tok is not None:
        if tok == "drop":
            targets.append(_DROP)
            i += 1
        elif tok == "mod":
            fd, i = _field_token(toks, i + 1)
            vtok = toks[i]
            if vtok is None:
                raise _end(f"value for mod {fd.name}", i)
            if fd.kind == FLAG:
                flag = _parse_num(vtok, i, "flag value")
                if flag not in (0, 1):
                    raise TypeMismatch("flag value must be 0 or 1", i)
                targets.append(TargetExpr(MOD, fd, flag))
            else:
                value = _parse_value(vtok, i, fd)
                if isinstance(value, tuple):  # address: mod needs a full value
                    addr, plen = value
                    if plen != 32:
                        raise TypeMismatch("mod needs a full address, not a prefix", i)
                    value = addr
                targets.append(TargetExpr(MOD, fd, value))
            i += 1
        elif tok == "strip":
            neg = toks[i + 1] == "!"
            fd, i = _option_field(toks, i + 1 + neg)
            strips.append((neg, fd.opt_kind))
        elif tok == "add":
            fd, i = _option_field(toks, i + 1)
            value = None
            vtok = toks[i]
            if vtok is not None and vtok not in _TARGET_KEYWORDS:
                value = _parse_value(vtok, i, fd)
                i += 1
            targets.append(TargetExpr(ADD_OPT, fd, value))
        elif tok == "shuffle":
            fd, j = _field_token(toks, i + 1)
            if fd.kind != FIXED:
                raise SemanticError(f"shuffle needs a fixed-width integer field, "
                                    f"not {fd.name}", i + 1)
            targets.append(TargetExpr(SHUFFLE, fd))
            i = j
        else:
            raise CommandSyntaxError(f"expected a target, got {tok!r}", i)
        tok = toks[i]

    if strips:
        negs = {n for n, _ in strips}
        if len(negs) > 1:
            raise SemanticError("cannot mix 'strip X' and 'strip ! X' in one rule")
        kinds = frozenset(k for _, k in strips)
        kind = STRIP_EXCEPT if negs == {True} else STRIP
        targets.append(TargetExpr(kind, None, None, kinds))
    return targets


def _parse_tokens(toks):
    """The Command that `toks` (ending in the None sentinel) spell. Errors
    carry the index of their token as `position`."""
    tok = toks[0]
    if tok is None:
        raise _end("command", 0)
    if tok != "mmb":
        raise CommandSyntaxError(f"commands start with 'mmb', got {tok!r}", 0)
    verb = toks[1]
    if verb is None:
        raise _end("verb", 1)
    if verb == "add" or verb == "add-stateful":
        matches = []
        i = 2
        tok = toks[2]
        while tok is not None and tok not in _TARGET_KEYWORDS:
            m, i = _parse_match(toks, i)
            matches.append(m)
            tok = toks[i]
        if not matches:
            raise CommandSyntaxError("rule needs at least one match", i)
        if tok is None:
            raise CommandSyntaxError("rule needs at least one target", i)
        rule = Rule(matches, _parse_targets(toks, i), stateful=(verb == "add-stateful"))
        return Command(verb, validate_rule(rule))
    if verb == "del":
        tok = toks[2]
        if tok is None:
            raise _end("rule id", 2)
        rid = _parse_num(tok, 2, "rule id")
        _expect_end(toks, 3)
        return Command("del", rule_id=rid)
    if verb in ("list", "flush", "enable", "disable"):
        _expect_end(toks, 2)
        return Command(verb)
    raise CommandSyntaxError(f"unknown verb {verb!r}", 1)


def _expect_end(toks, i):
    if toks[i] is not None:
        raise CommandSyntaxError(f"unexpected token {toks[i]!r}", i)


def parse_command(line):
    """Parse one command line into a Command. The returned rule (if any) is
    already validated."""
    toks = line.split()
    toks.append(None)
    try:
        return _parse_tokens(toks)
    except CommandError as e:
        if e.position is not None:  # a token index until here
            e.position = _offset(line, toks, e.position)
        raise


def _implied_protos(rule):
    """(transport, explicit): protocols implied by transport fields in the
    matches, and values of explicit `ip-proto ==` matches.

    A negated presence check (`! tcp-opt-mss`) is satisfied by absence, so
    it implies nothing. Target fields do not constrain matching at all: a
    target that cannot apply to a matched packet simply skips.
    """
    transport = set()
    explicit = set()
    for fd, cond, value, negated in rule.matches:
        if negated and cond == PRESENT:
            continue
        if fd.proto is not None:
            transport.add(fd.proto)
        if cond == EQ and not negated and fd.name == "ip-proto":
            explicit.add(value)
    return transport, explicit


def _match_is_foldable(m):
    """True when the match can live entirely in a classification mask/key:
    a non-negated equality on a fixed span, or a set-flag presence bit."""
    if m.field.kind == FLAG and m.cond == PRESENT and not m.negated:
        return True
    if m.field.kind == FIXED and m.cond == EQ and not m.negated:
        return True
    return False


def tuple_writes(rule):
    """The targets of `rule` that translate the connection tuple: its
    shuffles and its mods of TUPLE_FIELDS."""
    return [t for t in rule.targets
            if t.kind == SHUFFLE or (t.kind == MOD and t.field.name in TUPLE_FIELDS)]


def validate_rule(rule):
    """Semantic validation; computes fast_path_eligible and proto_req."""
    kinds = [t.kind for t in rule.targets]
    if DROP in kinds and len(rule.targets) > 1:
        raise SemanticError("a drop rule cannot carry other targets")
    if SHUFFLE in kinds and not rule.stateful:
        raise SemanticError("shuffle requires add-stateful")
    for t in rule.targets:
        if t.kind == ADD_OPT and t.field.opt_kind in (0, 1):
            raise SemanticError("cannot add padding option kinds")
        if t.kind in (MOD, SHUFFLE) and t.field.name == "ip-len":
            raise SemanticError("ip-len is set by the engine and cannot be written")

    transport, explicit = _implied_protos(rule)
    if len(transport) > 1 or (transport and explicit and explicit != transport):
        names = sorted(PROTO_NAMES.get(p, str(p)) for p in transport | explicit)
        raise SemanticError(f"rule mixes fields of different protocols: {names}")
    rule.proto_req = next(iter(transport)) if transport else None

    rule.fast_path_eligible = all(map(_match_is_foldable, rule.matches))
    return rule


# ---------------------------------------------------------------- formatting

def quad(addr):
    """Dotted-quad text of an IPv4 address held as an integer."""
    return ".".join(str((addr >> s) & 0xFF) for s in (24, 16, 8, 0))


def _format_value(fd, value):
    if isinstance(value, tuple):  # (addr, plen)
        addr, plen = value
        return quad(addr) if plen == 32 else f"{quad(addr)}/{plen}"
    if isinstance(value, (bytes, bytearray)):
        return "0x" + value.hex()
    if fd is not None and fd.is_addr and isinstance(value, int):
        return quad(value)
    if fd is not None and fd.name == "ip-proto" and value in PROTO_NAMES:
        return PROTO_NAMES[value]
    return str(value)


def format_rule(rule):
    parts = []
    for m in rule.matches:
        if m.negated:
            parts.append("!")
        parts.append(m.field.name)
        if m.cond == PRESENT:
            pass
        elif m.cond == EQ:
            parts.append(_format_value(m.field, m.value))
        else:
            parts.append(m.cond)
            parts.append(_format_value(m.field, m.value))
    for t in rule.targets:
        if t.kind == DROP:
            parts.append("drop")
        elif t.kind == MOD:
            parts += ["mod", t.field.name, _format_value(t.field, t.value)]
        elif t.kind == STRIP:
            for k in sorted(t.opt_kinds):
                parts += ["strip", tcp_option_field(k).name]
        elif t.kind == STRIP_EXCEPT:
            for k in sorted(t.opt_kinds):
                parts += ["strip", "!", tcp_option_field(k).name]
        elif t.kind == ADD_OPT:
            parts += ["add", t.field.name]
            if t.value is not None:
                parts.append(_format_value(t.field, t.value))
        elif t.kind == SHUFFLE:
            parts += ["shuffle", t.field.name]
    return " ".join(parts)


def format_command(cmd):
    if cmd.verb in ("add", "add-stateful"):
        return f"mmb {cmd.verb} {format_rule(cmd.rule)}"
    if cmd.verb == "del":
        return f"mmb del {cmd.rule_id}"
    return f"mmb {cmd.verb}"
