"""Command-line entry point: interactive rule shell, pcap processing, and
benchmark scenarios."""

import argparse
import json
import os
import sys

from .errors import MidboxError
from .pcap import PcapFormatError, PcapReader, PcapWriter
from .pipeline import Engine, EngineConfig
from .scenarios import SCENARIO_NAMES, run_scenario

PROMPT = "mmb> "

HELP_TEXT = """commands:
  mmb add <match>+ <target>+          install a stateless rule
  mmb add-stateful <match>+ <target>+ install a stateful rule
  mmb del <id> | mmb list | mmb flush | mmb enable | mmb disable
  list tables | list connections      engine diagnostics
  help | quit"""


def repl(engine, lines=None, out=sys.stdout, prompt=PROMPT):
    """Interactive command loop. `lines` may be any iterable for scripted
    sessions; bad input reports an error and the session continues."""
    interactive = lines is None

    def read_lines():
        while True:
            if interactive:
                try:
                    yield input(prompt)
                except EOFError:
                    return
            else:
                yield from lines
                return

    outputs = []
    for line in read_lines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("quit", "exit"):
            break
        if line == "help":
            text = HELP_TEXT
        else:
            text = engine.execute_line(line)
        outputs.append(text)
        if out is not None and text:
            print(text, file=out)
    return outputs


def _run_pcap(engine, args):
    reader = PcapReader(args.pcap_in)
    engine.config.link_type = reader.link_type
    writer = PcapWriter(args.pcap_out, reader.link_type) if args.pcap_out else None

    def sink(pkt):
        ts = pkt.ts
        writer.write(pkt.to_bytes(), int(ts), int(round((ts % 1) * 1e6)))

    try:
        report = engine.run_stream(iter(reader), sink if writer else None)
    finally:
        reader.close()
        if writer:
            writer.close()
    return report


def _print_report(text):
    """Print a run's report. A reader that closed stdout early (`| head`)
    ends the printing, not the run: stdout then points at os.devnull, so
    the interpreter's final flush cannot raise again."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def build_parser():
    p = argparse.ArgumentParser(
        prog="midbox",
        description="Rule-driven middlebox engine over pcap files and "
                    "synthetic traffic; interactive shell when no scenario "
                    "or pcap input is given.")
    p.add_argument("--pcap-in", metavar="PATH", help="read packets from a pcap file")
    p.add_argument("--pcap-out", metavar="PATH", help="write forwarded packets here")
    p.add_argument("--rules", metavar="FILE", help="rule command file, one per line")
    p.add_argument("--scenario", choices=SCENARIO_NAMES, help="run a benchmark scenario")
    p.add_argument("--rule-count", type=int, metavar="N", help="scenario rule count")
    p.add_argument("--packets", type=int, metavar="N", help="scenario packet count")
    p.add_argument("--flows", type=int, metavar="N", help="scenario flow count")
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.add_argument("--vector-size", type=int, default=256, metavar="V")
    p.add_argument("--report", metavar="PATH", help="write a JSON report here")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)

    if args.scenario:
        rep = run_scenario(args.scenario, rule_count=args.rule_count,
                           packets=args.packets, flows=args.flows,
                           seed=args.seed, vector_size=args.vector_size)
        _print_report(rep.to_text())
        if args.report:
            with open(args.report, "w") as f:
                json.dump(rep.to_json_dict(), f, indent=2)
        return 0 if rep.ok else 1

    engine = Engine(EngineConfig(vector_size=args.vector_size,
                                 shuffle_seed=args.seed))
    if args.rules:
        try:
            with open(args.rules) as f:
                engine.add_commands(f)
        except (MidboxError, OSError, UnicodeDecodeError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2

    if args.pcap_in:
        try:
            report = _run_pcap(engine, args)
        except (PcapFormatError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        _print_report(report.to_text())
        if args.report:
            with open(args.report, "w") as f:
                json.dump(report.to_json_dict(), f, indent=2)
        return 0

    repl(engine)
    return 0


if __name__ == "__main__":
    sys.exit(main())
