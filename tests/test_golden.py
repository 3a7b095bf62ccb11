"""Golden output digests: SHA-256 over the bytes the engine emits for fixed,
seeded inputs. A change that moves one output byte moves a digest, so a
rewrite or checksum optimisation proves itself byte-identical here; a
deliberate behaviour change updates the digest it moves, and says why."""

import hashlib
import random

import refbuild as ref
from midbox import Engine, run_scenario
from midbox.rulegen import SNAT_RULE

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
