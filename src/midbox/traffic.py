"""Synthetic TCP traffic: complete flows with handshakes, MTU-sized data
packets, and teardowns, deterministic under a seed.

The default profile mimics a small number of long iperf-style flows (7
pairs). SYN packets can be decorated with random option sets; option values
are drawn from the low or high half of each option's value space so rule
generators can guarantee (non-)matching traffic by using the other half.
"""

import random
from dataclasses import dataclass, replace

from .fields import ACK, FIN, PSH, SYN
from .packet import checksum16

# (kind, payload length) of options the generator may attach
OPTION_CATALOG = [(2, 2), (3, 1), (4, 0), (8, 8), (6, 4), (7, 4),
                  (11, 2), (12, 2), (13, 2), (30, 4), (34, 4)]


@dataclass
class TrafficProfile:
    flows: int = 7
    data_packets: int = 10        # per flow, client -> server
    packet_bytes: int = 1500      # IP total length of data packets
    client_net: tuple = (0x0A000000, 16)   # 10.0.0.0/16
    server_net: tuple = (0x0A800000, 16)   # 10.128.0.0/16
    server_port: int = 5001
    options: str = "syn"          # none | syn | all
    option_value_space: str = "lo"
    max_options: int = 5
    seed: int = 0


def build_ipv4_tcp(saddr, daddr, sport, dport, seq=0, ack=0, flags=ACK,
                   window=65535, options=b"", payload=b"", ttl=64, ip_id=0,
                   tos=0):
    """One raw IPv4+TCP packet with valid checksums. Options are padded to a
    4-byte multiple here."""
    pad = (-len(options)) % 4
    options = bytes(options) + bytes(pad)
    doff = 5 + len(options) // 4
    total = 20 + 4 * doff + len(payload)
    ip = bytearray(20)
    ip[0] = 0x45
    ip[1] = tos
    ip[2:4] = total.to_bytes(2, "big")
    ip[4:6] = ip_id.to_bytes(2, "big")
    ip[8] = ttl
    ip[9] = 6
    ip[12:16] = saddr.to_bytes(4, "big")
    ip[16:20] = daddr.to_bytes(4, "big")
    ip[10:12] = checksum16(ip).to_bytes(2, "big")

    tcp = bytearray(20)
    tcp[0:2] = sport.to_bytes(2, "big")
    tcp[2:4] = dport.to_bytes(2, "big")
    tcp[4:8] = (seq & 0xFFFFFFFF).to_bytes(4, "big")
    tcp[8:12] = (ack & 0xFFFFFFFF).to_bytes(4, "big")
    tcp[12] = doff << 4
    tcp[13] = flags
    tcp[14:16] = window.to_bytes(2, "big")
    seg = bytes(tcp) + options + bytes(payload)
    pseudo = ip[12:20] + bytes([0, 6]) + len(seg).to_bytes(2, "big")
    csum = checksum16(bytes(pseudo) + seg)
    seg = bytearray(seg)
    seg[16:18] = csum.to_bytes(2, "big")
    return bytes(ip) + bytes(seg)


def random_options(rng, value_space="lo", max_options=5):
    """A random well-formed option byte string (kind/length/value list)."""
    picks = rng.sample(OPTION_CATALOG, rng.randint(0, max_options))
    out = b""
    for kind, plen in picks:
        if plen == 0:
            out += bytes((kind, 2))
            continue
        w = 8 * plen
        half = 1 << (w - 1)
        v = rng.randrange(0, half) if value_space == "lo" else rng.randrange(half, 2 * half)
        out += bytes((kind, 2 + plen)) + v.to_bytes(plen, "big")
    return out


@dataclass
class Flow:
    client: int
    server: int
    sport: int
    dport: int
    isn_c: int
    isn_s: int
    syn_options: bytes = b""


def _rand_addr(rng, net):
    base, plen = net
    return base + rng.randrange(1, 1 << (32 - plen))


def make_flows(profile):
    rng = random.Random(profile.seed)
    flows = []
    seen = set()
    for _ in range(profile.flows):
        while True:
            client = _rand_addr(rng, profile.client_net)
            sport = rng.randint(1024, 65535)
            if (client, sport) not in seen:
                seen.add((client, sport))
                break
        server = _rand_addr(rng, profile.server_net)
        opts = b""
        if profile.options in ("syn", "all"):
            opts = random_options(rng, profile.option_value_space,
                                  profile.max_options)
        flows.append(Flow(client, server, sport, profile.server_port,
                          rng.randrange(1 << 31), rng.randrange(1 << 31), opts))
    return flows


def flow_packets(flow, profile, rng=None):
    """The full packet sequence of one flow: 3 handshake + N data + 4
    teardown, client data only (iperf style)."""
    c, s = flow.client, flow.server
    sp, dp = flow.sport, flow.dport
    seq_c, seq_s = flow.isn_c, flow.isn_s
    pkts = []

    def opts_for(kind):
        if profile.options == "all":
            if rng is not None:
                return random_options(rng, profile.option_value_space,
                                      profile.max_options)
            return flow.syn_options
        if profile.options == "syn" and kind == "syn":
            return flow.syn_options
        return b""

    pkts.append(build_ipv4_tcp(c, s, sp, dp, seq_c, 0, SYN,
                               options=opts_for("syn")))
    pkts.append(build_ipv4_tcp(s, c, dp, sp, seq_s, seq_c + 1, SYN | ACK,
                               options=opts_for("syn")))
    seq_c += 1
    seq_s += 1
    pkts.append(build_ipv4_tcp(c, s, sp, dp, seq_c, seq_s, ACK,
                               options=opts_for("ack")))

    for _ in range(profile.data_packets):
        opts = opts_for("data")
        room = profile.packet_bytes - 40 - len(opts) - ((-len(opts)) % 4)
        payload = b"\xa5" * max(room, 0)
        pkts.append(build_ipv4_tcp(c, s, sp, dp, seq_c, seq_s, ACK | PSH,
                                   options=opts, payload=payload))
        seq_c += len(payload)

    pkts.append(build_ipv4_tcp(c, s, sp, dp, seq_c, seq_s, FIN | ACK,
                               options=opts_for("fin")))
    pkts.append(build_ipv4_tcp(s, c, dp, sp, seq_s, seq_c + 1, ACK,
                               options=opts_for("ack")))
    pkts.append(build_ipv4_tcp(s, c, dp, sp, seq_s, seq_c + 1, FIN | ACK,
                               options=opts_for("fin")))
    pkts.append(build_ipv4_tcp(c, s, sp, dp, seq_c + 1, seq_s + 1, ACK,
                               options=opts_for("ack")))
    return pkts


def generate_traffic(profile, count=None):
    """Yield (bytes, ts_sec, ts_usec) records: flows interleaved round-robin,
    one packet per microsecond. With `count`, flow generations repeat (fresh
    seeded flows) until exactly that many packets were emitted; a profile
    without flows emits none."""
    emitted = 0
    seed = profile.seed
    while count is None or emitted < count:
        gen_profile = replace(profile, seed=seed)
        rng = random.Random(seed ^ 0x5EED)
        sequences = [flow_packets(f, gen_profile, rng)
                     for f in make_flows(gen_profile)]
        start = emitted
        i = 0
        while sequences:
            live = False
            for seq in sequences:
                if i < len(seq):
                    live = True
                    yield seq[i], emitted // 1_000_000, emitted % 1_000_000
                    emitted += 1
                    if count is not None and emitted >= count:
                        return
            if not live:
                break
            i += 1
        if count is None or emitted == start:
            return
        seed += 1
