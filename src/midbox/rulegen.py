"""Deterministic rule-set generators for the benchmark scenarios.

Generated filter rules live in 198.18.0.0/15 (the benchmarking range) while
synthetic traffic uses 10.0.0.0/8, so firewall-style rule sets are
guaranteed not to match the paired traffic. TCP option rules draw values
from the high half of each option's value space while traffic decoration
uses the low half, with the same effect.
"""

import itertools
import random

from .fields import tcp_option_field
from .rules import quad
from .traffic import OPTION_CATALOG

RULE_NET_BASE = 0xC6120000  # 198.18.0.0
RULE_NET_BITS = 15

SNAT_RULE = ("mmb add-stateful ip-saddr 10.0.0.0/24 ip-proto tcp tcp-syn "
             "shuffle tcp-sport mod ip-saddr 200.0.0.1")
STRIP_EXCEPT_RULE = ("mmb add tcp-opt-timestamp strip ! tcp-opt-mss "
                     "strip ! tcp-opt-wscale")

# full-byte fixed fields with pairwise disjoint spans; any 5-subset yields a
# distinct classification mask
MASK_FIELD_POOL = [
    ("ip-saddr", "addr"), ("ip-daddr", "addr"), ("ip-proto", "proto"),
    ("ip-ttl", 8), ("ip-id", 16), ("ip-len", 16),
    ("tcp-sport", 16), ("tcp-dport", 16), ("tcp-seq", 32),
    ("tcp-ack-num", 32), ("tcp-win", 16),
]


def _rule_addr(rng):
    return RULE_NET_BASE + rng.randrange(1 << (32 - RULE_NET_BITS))


def five_tuple_rules(n, seed, stateful=False):
    """n distinct 5-tuple equality rules in the benchmark range, all sharing
    one field combination (hence one classification mask)."""
    rng = random.Random(seed)
    verb = "add-stateful" if stateful else "add"
    out = []
    seen = set()
    while len(out) < n:
        t = (_rule_addr(rng), _rule_addr(rng),
             rng.randint(1, 65535), rng.randint(1, 65535))
        if t in seen:
            continue
        seen.add(t)
        out.append(f"mmb {verb} ip-saddr {quad(t[0])} ip-daddr {quad(t[1])} "
                   f"ip-proto tcp tcp-sport {t[2]} tcp-dport {t[3]} drop")
    return out


def firewall_rules(n, seed):
    return five_tuple_rules(n, seed, stateful=False)


def stateful_rules(n, seed, catchall_net="10.0.0.0/8"):
    """Random stateful 5-tuple rules plus one catch-all stateful rule that
    matches all generated traffic, so every packet is tracked."""
    rules = five_tuple_rules(n, seed, stateful=True)
    rules.append(f"mmb add-stateful ip-saddr {catchall_net} mod ip-ttl 63")
    return rules


def tcp_option_rules(n, seed, value_space="hi"):
    """Rules matching random values of random TCP options."""
    rng = random.Random(seed)
    valued = [(k, plen) for k, plen in OPTION_CATALOG if plen > 0]
    out = []
    for _ in range(n):
        kind, plen = valued[rng.randrange(len(valued))]
        w = 8 * plen
        half = 1 << (w - 1)
        v = rng.randrange(half, 2 * half) if value_space == "hi" \
            else rng.randrange(0, half)
        out.append(f"mmb add {tcp_option_field(kind).name} {v} drop")
    return out


def mask_limit_rules(n, seed):
    """n rules, each matching a different combination of five fields, which
    forces one classification table per rule."""
    rng = random.Random(seed)
    combos = list(itertools.combinations(MASK_FIELD_POOL, 5))
    if n > len(combos):
        raise ValueError(f"at most {len(combos)} distinct 5-field combinations")
    out = []
    for combo in combos[:n]:
        parts = ["mmb add"]
        has_tcp = any(name.startswith("tcp-") for name, _ in combo)
        for name, kind in combo:
            if kind == "addr":
                parts.append(f"{name} {quad(_rule_addr(rng))}")
            elif kind == "proto":
                # must agree with any tcp-* fields in the combination
                parts.append(f"{name} {'tcp' if has_tcp else '47'}")
            else:
                parts.append(f"{name} {rng.randrange(1 << kind)}")
        parts.append("drop")
        out.append(" ".join(parts))
    return out
