"""Golden output digests: SHA-256 over the bytes the engine emits for fixed,
seeded inputs. A change that moves one output byte moves a digest, so a
rewrite or checksum optimisation proves itself byte-identical here; a
deliberate behaviour change updates the digest it moves, and says why."""

import hashlib
import random

import refbuild as ref
from midbox import Engine, run_scenario
from midbox.rulegen import SNAT_RULE, STRIP_EXCEPT_RULE

TCP_UDP_SNAT_RULE = ("mmb add-stateful ip-saddr 10.0.0.0/24 shuffle udp-sport "
                     "shuffle tcp-sport mod ip-saddr 200.0.0.1")


def _digest(chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(4, "big"))
        h.update(c)
    return h.hexdigest()


def test_nat_scenario_output_is_pinned():
    rep = run_scenario("nat", seed=0)
    assert rep.ok
    ports = b"".join(p.to_bytes(2, "big") for p in rep.artifacts["ports"])
    assert _digest([*rep.artifacts["emitted"], ports]) == \
        "33dfc470b0e8b651ce27438d89f4eafd6beddaf95e7824ad23814c718b59049a"


def test_tcp_opts_scenario_output_is_pinned():
    rep = run_scenario("tcp-opts", seed=0)
    assert rep.ok
    assert _digest(rep.artifacts["outputs"]) == \
        "409ff8e386baa643fc25870802847b15d1e7ee2e5865563302124703f77c52d2"


def test_forward_scenario_output_is_pinned():
    rep = run_scenario("forward", seed=0)
    assert rep.ok
    assert _digest(rep.artifacts["outputs"]) == \
        "7f303b8274f5c68bd1782a9d6d5c5be54d7472631eaf6711a12d8a6ac6270ad9"


def _client_packets(rng, n):
    """Client packets of n flows from 10.0.0.0/24: TCP (a SYN, then data)
    and UDP, at IHL 5-7, some with a wrong transport checksum and some UDP
    without one."""
    out = []
    for i in range(n):
        saddr = 0x0A000000 | (1 + i % 200)
        daddr = 0xC6336400 | rng.randrange(1, 255)
        sport = rng.randint(1024, 65535)
        dport = rng.choice((53, 80, 443, 8080))
        extra = i % 3
        opts = dict(ihl=5 + extra, ip_options=bytes([1] * 4 * extra),
                    ttl=rng.randint(2, 255), ident=rng.randrange(1 << 16))
        payload = rng.randbytes(rng.randrange(0, 120))
        if i % 2:
            pkts = [ref.udp_packet(saddr, daddr, sport, dport, payload, **opts)
                    for _ in range(2)]
            csum_at = 4 * (5 + extra) + 6
        else:
            pkts = [ref.tcp_packet(saddr, daddr, sport, dport, seq=i,
                                   flags=ref.SYN, **opts),
                    ref.tcp_packet(saddr, daddr, sport, dport, seq=i + 1,
                                   flags=ref.ACK, payload=payload, **opts)]
            csum_at = 4 * (5 + extra) + 16
        if i % 7 == 3:
            b = bytearray(pkts[1])
            b[csum_at] ^= 0x5A
            if i % 2:
                b[csum_at:csum_at + 2] = b"\x00\x00"  # UDP: no checksum
            pkts[1] = bytes(b)
        out.extend(pkts)
    return out


def _reply(data, rng):
    """The server's answer to an emitted packet, with the same IHL and
    protocol and the addresses and ports swapped."""
    ihl = data[0] & 0x0F
    opts = dict(ihl=ihl, ip_options=bytes([1] * 4 * (ihl - 5)))
    payload = rng.randbytes(rng.randrange(0, 60))
    if data[9] == ref.UDP:
        return ref.udp_packet(ref.ref_read(data, "ip-daddr"),
                              ref.ref_read(data, "ip-saddr"),
                              ref.ref_read(data, "udp-dport"),
                              ref.ref_read(data, "udp-sport"), payload, **opts)
    return ref.tcp_packet(ref.ref_read(data, "ip-daddr"),
                          ref.ref_read(data, "ip-saddr"),
                          ref.ref_read(data, "tcp-dport"),
                          ref.ref_read(data, "tcp-sport"),
                          flags=ref.ACK, payload=payload, **opts)


def test_two_way_snat_stream_output_is_pinned():
    rng = random.Random(0)
    engine = Engine()
    engine.add_commands([SNAT_RULE, TCP_UDP_SNAT_RULE])
    fwd = []
    engine.run_stream(((p, 0, 0) for p in _client_packets(rng, 120)), fwd)
    rev = []
    engine.run_stream(((_reply(p, rng), 0, 0) for p in fwd), rev)
    assert len(fwd) == 240 and len(rev) == 240
    assert all(ref.ref_read(p, "ip-saddr") == 0xC8000001 for p in fwd)
    assert all(ref.ref_read(p, "ip-daddr") >> 8 == 0x0A0000 for p in rev)
    assert _digest(fwd + rev) == \
        "f7539241a3f1869c98ab5a1fc37eafa48e0c8e7677d88be407edb48f197e4c33"


STATIC_RULES = [
    "mmb add tcp-syn mod tcp-ack 1 mod tcp-fin 0 mod ip-ttl 33",
    "mmb add tcp-dport 80 mod tcp-dport 8080 mod ip-saddr 192.0.2.1 "
    "mod tcp-win 1000 mod tcp-psh 1",
    "mmb add ip-proto udp mod ip-dscp 46 mod ip-ecn 1",
    "mmb add udp-dport 53 mod udp-sport 5353 mod ip-id 7 mod ip-ttl 9",
    "mmb add icmp-type 8 mod icmp-code 3 mod ip-daddr 10.9.9.9",
    "mmb add ip-saddr 10.1.0.0/16 mod ip-ttl 1",
]


def _static_packets(rng, n):
    """TCP, UDP, ICMP and UDP fragments at IHL 5-7 with valid, nonzero
    checksums; TTLs, ports and flags often already carry the value a rule
    writes, so some rewrites change nothing."""
    out = []
    for i in range(n):
        extra = rng.randrange(3)
        saddr = rng.choice((0x0A010000, 0x0A020000)) | rng.randrange(1, 255)
        daddr = 0x0A090000 | rng.randrange(1, 255)
        opts = dict(ihl=5 + extra, ip_options=bytes([1] * 4 * extra),
                    ttl=rng.choice((1, 9, 33, 64, rng.randint(2, 255))),
                    ident=rng.choice((7, rng.randrange(1 << 16))))
        payload = rng.randbytes(rng.randrange(0, 40))
        kind = i % 4
        if kind == 0:
            out.append(ref.tcp_packet(
                saddr, daddr, rng.choice((1234, 5353)), rng.choice((80, 443)),
                seq=i, flags=rng.choice((ref.SYN, ref.SYN | ref.ACK,
                                         ref.SYN | ref.FIN, ref.ACK)),
                window=rng.choice((1000, 8192)), payload=payload, **opts))
        elif kind == 1:
            out.append(ref.udp_packet(saddr, daddr, rng.choice((5353, 999)),
                                      rng.choice((53, 123)), payload, **opts))
        elif kind == 2:
            out.append(ref.icmp_packet(saddr, daddr, rng.choice((0, 8)),
                                       rng.choice((0, 3)), payload, **opts))
        else:
            seg = ref.udp_segment(saddr, daddr, 5353, 53, payload)
            out.append(ref.ipv4_header(saddr, daddr, ref.UDP, len(seg),
                                       ihl=5 + extra, ttl=opts["ttl"],
                                       options=opts["ip_options"],
                                       flags_frag=0x2000) + seg)
    return out


def test_static_rewrite_stream_output_is_pinned():
    rng = random.Random(7)
    engine = Engine()
    engine.add_commands(STATIC_RULES)
    out = []
    rep = engine.run_stream(((p, 0, 0) for p in _static_packets(rng, 400)), out)
    assert len(out) == 400 and rep.dropped == 0
    assert all(ref.verify_packet_checksums(p) for p in out)
    assert _digest(out) == \
        "757276c554c92763fd08f02b52ce807e9c0b6d1b03b912f616257a98f20e22ab"


# a tracked flow's packets that programs also rewrite: the SYN under the
# SNAT rule's own mods, option strips on TCP data, a payload write on UDP
# and a TTL binding beside the port binding
PROGRAM_RULES = [
    SNAT_RULE,
    STRIP_EXCEPT_RULE,
    "mmb add ip-proto udp ip-ttl < 128 mod udp-payload 0x6d6d62",
    "mmb add-stateful ip-saddr 10.0.0.0/24 ip-proto udp "
    "shuffle udp-sport shuffle ip-ttl",
]


def _tcp_options(rng):
    """An option area that sometimes carries a timestamp."""
    opts = [(2, (1460).to_bytes(2, "big"))]
    if rng.random() < 0.6:
        opts.append((8, rng.randbytes(8)))
    if rng.random() < 0.5:
        opts += [(1,), (3, bytes([7]))]
    return ref.make_options(*opts)


def _fault_checksum(data, rng):
    """Leave the transport checksum valid, make it wrong, or (UDP) 0."""
    ihl = data[0] & 0x0F
    udp = data[9] == ref.UDP
    at = 4 * ihl + (6 if udp else 16)
    roll = rng.random()
    b = bytearray(data)
    if roll < 0.2:
        b[at] ^= 0x5A
    elif roll < 0.35 and udp:
        b[at:at + 2] = b"\x00\x00"
    return bytes(b)


def _program_packet(rng, proto, t4, ihl, flags=ref.ACK):
    saddr, daddr, sport, dport = t4
    opts = dict(ihl=ihl, ip_options=bytes([1] * 4 * (ihl - 5)),
                ttl=rng.randint(2, 255), ident=rng.randrange(1 << 16))
    payload = rng.randbytes(rng.randrange(0, 40))
    if proto == ref.UDP:
        data = ref.udp_packet(saddr, daddr, sport, dport, payload, **opts)
    else:
        data = ref.tcp_packet(saddr, daddr, sport, dport, seq=rng.randrange(1 << 32),
                              flags=flags, options=_tcp_options(rng),
                              payload=payload, **opts)
    return _fault_checksum(data, rng)


def test_tracked_stream_with_programs_is_pinned():
    rng = random.Random(11)
    engine = Engine()
    engine.add_commands(PROGRAM_RULES)
    flows = []
    for i in range(60):
        proto = ref.UDP if i % 2 else ref.TCP
        t4 = (0x0A000000 | (1 + i % 200), 0xC6336400 | rng.randrange(1, 255),
              rng.randint(1024, 65535), rng.choice((53, 80, 443)))
        flows.append((proto, t4, 5 + i % 3))
    fwd = []
    first = [_program_packet(rng, proto, t4, ihl, ref.SYN)
             for proto, t4, ihl in flows]
    engine.run_stream(((p, 0, 0) for p in first), fwd)
    data = [_program_packet(rng, proto, t4, ihl)
            for _ in range(2) for proto, t4, ihl in flows]
    engine.run_stream(((p, 0, 0) for p in data), fwd)
    replies = []
    for (proto, t4, ihl), p in zip(flows, fwd):
        port = "udp-" if proto == ref.UDP else "tcp-"
        post = (ref.ref_read(p, "ip-saddr"), ref.ref_read(p, port + "sport"))
        replies += [_program_packet(rng, proto, (t4[1], post[0], t4[3], post[1]),
                                    ihl) for _ in range(2)]
    rev = []
    engine.run_stream(((p, 0, 0) for p in replies), rev)
    assert len(fwd) == 180 and len(rev) == 120
    assert all(ref.ref_read(p, "ip-saddr") == 0xC8000001
               for p in fwd if p[9] == ref.TCP)
    assert all(ref.ref_read(p, "ip-daddr") >> 8 == 0x0A0000 for p in rev)
    assert _digest(fwd + rev) == \
        "84ef07ffe269f721bdcad6295897057385d1543582aa3d8e01d0c846aa974a5b"
