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
"""

import re
from dataclasses import dataclass

from . import fields
from .errors import CommandSyntaxError, SemanticError, TypeMismatch, UnknownField
from .fields import (FIXED, FLAG, OPT, PAYLOAD, PROTO_NAMES, PROTO_NUMBERS,
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


@dataclass(frozen=True)
class MatchExpr:
    field: FieldDescriptor
    cond: str
    value: object = None  # int | bytes | (addr, prefix_len) | None
    negated: bool = False


@dataclass(frozen=True)
class TargetExpr:
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


@dataclass(frozen=True)
class Command:
    verb: str  # add | add-stateful | del | list | flush | enable | disable
    rule: Rule | None = None
    rule_id: int | None = None


_ADDR_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})(?:/(\d{1,2}))?$")
_NUM_RE = re.compile(r"^(?:\d+|0[xX][0-9a-fA-F]+)$")
_HEX_RE = re.compile(r"^0[xX]([0-9a-fA-F]+)$")


class _Cursor:
    """Token stream over one command line, tracking byte positions."""

    def __init__(self, line):
        self.toks = [(m.group(0), m.start()) for m in re.finditer(r"\S+", line)]
        self.i = 0

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def next(self, what="token"):
        if self.i >= len(self.toks):
            pos = self.toks[-1][1] + len(self.toks[-1][0]) if self.toks else 0
            raise CommandSyntaxError(f"expected {what}, got end of line", pos)
        tok, pos = self.toks[self.i]
        self.i += 1
        return tok, pos

    @property
    def pos(self):
        return self.toks[self.i][1] if self.i < len(self.toks) else (
            self.toks[-1][1] + len(self.toks[-1][0]) if self.toks else 0)


def _parse_num(tok, pos, what="number"):
    if not _NUM_RE.match(tok):
        raise CommandSyntaxError(f"expected {what}, got {tok!r}", pos)
    return int(tok, 0)


def _parse_value(tok, pos, fd):
    """Typed literal for a field: int, bytes, or (addr, prefix_len)."""
    if fd.is_addr:
        m = _ADDR_RE.match(tok)
        if m:
            octets = [int(m.group(i)) for i in range(1, 5)]
            if any(o > 255 for o in octets):
                raise TypeMismatch(f"bad address {tok!r}", pos)
            plen = int(m.group(5)) if m.group(5) else 32
            if plen > 32:
                raise TypeMismatch(f"prefix length {plen} out of range", pos)
            addr = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]
            return (addr & prefix_mask(plen), plen)
        if _NUM_RE.match(tok):
            v = int(tok, 0)
            if v >= 1 << 32:
                raise TypeMismatch(f"address value {tok!r} too wide", pos)
            return (v, 32)
        raise TypeMismatch(f"expected address for {fd.name}, got {tok!r}", pos)

    if fd.name == "ip-proto" and tok in PROTO_NUMBERS:
        return PROTO_NUMBERS[tok]

    if fd.kind in (OPT, PAYLOAD):
        m = _HEX_RE.match(tok)
        if m:
            digits = m.group(1)
            if len(digits) % 2:
                raise TypeMismatch(f"hex byte string {tok!r} has odd length", pos)
            return bytes.fromhex(digits)
        if tok.isdigit():
            return int(tok)
        raise TypeMismatch(f"expected number or 0x-bytes for {fd.name}, got {tok!r}", pos)

    if fd.kind == FLAG:
        raise TypeMismatch(f"flag field {fd.name} takes no value", pos)

    v = _parse_num(tok, pos, f"value for {fd.name}")
    if fd.width and v >= 1 << fd.width:
        raise TypeMismatch(f"value {tok} too wide for {fd.name} ({fd.width} bits)", pos)
    return v


def _field_token(cur, context="match"):
    """Consume a field name; `tcp-opt` consumes its kind number too."""
    tok, pos = cur.next("field name")
    if tok == "tcp-opt":
        ktok, kpos = cur.next("TCP option kind")
        kind = _parse_num(ktok, kpos, "TCP option kind")
        if not 2 <= kind <= 255:
            raise TypeMismatch(f"TCP option kind {kind} out of range", kpos)
        return tcp_option_field(kind), pos
    fd = fields.lookup(tok)
    if fd is None:
        raise UnknownField(f"unknown field {tok!r}", pos)
    return fd, pos


def _parse_match(cur):
    negated = False
    if cur.peek() == "!":
        cur.next()
        negated = True
    fd, fpos = _field_token(cur)
    nxt = cur.peek()
    cond = None
    if nxt in _COND_TOKENS:
        cond = cur.next()[0]
        nxt = cur.peek()

    has_value = (nxt is not None and nxt not in _TARGET_KEYWORDS
                 and nxt != "!" and fields.lookup(nxt) is None and nxt != "tcp-opt")
    if cond is not None and not has_value:
        raise CommandSyntaxError(f"condition {cond!r} needs a value", cur.pos)
    if not has_value:
        return MatchExpr(fd, PRESENT, None, negated)
    tok, pos = cur.next("value")
    value = _parse_value(tok, pos, fd)
    cond = cond or EQ
    if fd.kind == PAYLOAD and isinstance(value, int):
        raise TypeMismatch(f"{fd.name} takes a 0x-byte-string value", pos)
    if cond in (LT, GT, LEQ, GEQ):
        if isinstance(value, tuple):
            if value[1] != 32:
                raise TypeMismatch("ordering comparison needs a full address", pos)
            value = value[0]
        if isinstance(value, (bytes, bytearray)):
            raise TypeMismatch("ordering comparison needs a numeric value", pos)
    return MatchExpr(fd, cond, value, negated)


def _parse_tcpopt_token(cur):
    fd, pos = _field_token(cur)
    if fd.kind != OPT:
        raise SemanticError(f"{fd.name} is not a TCP option field", pos)
    return fd, pos


def _parse_targets(cur):
    targets = []
    strips = []          # (negated, kind)
    while cur.peek() is not None:
        tok, pos = cur.next("target")
        if tok == "drop":
            targets.append(TargetExpr(DROP))
        elif tok == "mod":
            fd, _ = _field_token(cur)
            vtok, vpos = cur.next(f"value for mod {fd.name}")
            if fd.kind == FLAG:
                flag = _parse_num(vtok, vpos, "flag value")
                if flag not in (0, 1):
                    raise TypeMismatch("flag value must be 0 or 1", vpos)
                targets.append(TargetExpr(MOD, fd, flag))
            else:
                value = _parse_value(vtok, vpos, fd)
                if isinstance(value, tuple):  # address: mod needs a full value
                    addr, plen = value
                    if plen != 32:
                        raise TypeMismatch("mod needs a full address, not a prefix", vpos)
                    value = addr
                targets.append(TargetExpr(MOD, fd, value))
        elif tok == "strip":
            neg = False
            if cur.peek() == "!":
                cur.next()
                neg = True
            fd, _ = _parse_tcpopt_token(cur)
            strips.append((neg, fd.opt_kind))
        elif tok == "add":
            fd, _ = _parse_tcpopt_token(cur)
            value = None
            nxt = cur.peek()
            if nxt is not None and nxt not in _TARGET_KEYWORDS:
                vtok, vpos = cur.next("option value")
                value = _parse_value(vtok, vpos, fd)
            targets.append(TargetExpr(ADD_OPT, fd, value))
        elif tok == "shuffle":
            fd, fpos = _field_token(cur)
            if fd.kind != FIXED:
                raise SemanticError(f"shuffle needs a fixed-width integer field, "
                                    f"not {fd.name}", fpos)
            targets.append(TargetExpr(SHUFFLE, fd))
        else:
            raise CommandSyntaxError(f"expected a target, got {tok!r}", pos)

    if strips:
        negs = {n for n, _ in strips}
        if len(negs) > 1:
            raise SemanticError("cannot mix 'strip X' and 'strip ! X' in one rule")
        kinds = frozenset(k for _, k in strips)
        kind = STRIP_EXCEPT if negs == {True} else STRIP
        targets.append(TargetExpr(kind, None, None, kinds))
    return targets


def parse_command(line):
    """Parse one command line into a Command. The returned rule (if any) is
    already validated."""
    cur = _Cursor(line)
    tok, pos = cur.next("command")
    if tok != "mmb":
        raise CommandSyntaxError(f"commands start with 'mmb', got {tok!r}", pos)
    verb, vpos = cur.next("verb")
    if verb in ("add", "add-stateful"):
        matches = []
        while cur.peek() is not None and cur.peek() not in _TARGET_KEYWORDS:
            matches.append(_parse_match(cur))
        if not matches:
            raise CommandSyntaxError("rule needs at least one match", cur.pos)
        targets = _parse_targets(cur)
        if not targets:
            raise CommandSyntaxError("rule needs at least one target", cur.pos)
        rule = Rule(matches, targets, stateful=(verb == "add-stateful"))
        return Command(verb, rule=validate_rule(rule))
    if verb == "del":
        tok, pos = cur.next("rule id")
        rid = _parse_num(tok, pos, "rule id")
        _expect_end(cur)
        return Command("del", rule_id=rid)
    if verb in ("list", "flush", "enable", "disable"):
        _expect_end(cur)
        return Command(verb)
    raise CommandSyntaxError(f"unknown verb {verb!r}", vpos)


def _expect_end(cur):
    if cur.peek() is not None:
        raise CommandSyntaxError(f"unexpected token {cur.peek()!r}", cur.pos)


def _implied_protos(rule):
    """(transport, explicit): protocols implied by transport fields in the
    matches, and values of explicit `ip-proto ==` matches.

    A negated presence check (`! tcp-opt-mss`) is satisfied by absence, so
    it implies nothing. Target fields do not constrain matching at all: a
    target that cannot apply to a matched packet simply skips.
    """
    transport = set()
    explicit = set()
    for m in rule.matches:
        if m.negated and m.cond == PRESENT:
            continue
        if m.field.proto is not None:
            transport.add(m.field.proto)
        if m.field.name == "ip-proto" and m.cond == EQ and not m.negated:
            explicit.add(m.value)
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

    rule.fast_path_eligible = all(_match_is_foldable(m) for m in rule.matches)
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
