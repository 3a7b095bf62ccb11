"""midbox: a userspace middlebox engine.

An interactive rule language compiles into mask-based hash classification
tables with complex-condition and TCP-option slow paths, a stateful
connection table, and a mask/key rewrite stage; packets flow in batched
vectors through a small node graph.
"""

from .classifier import ClassifierTable, RuleSetSnapshot, Verdict, classify
from .conntrack import ConnTable, TimeoutPolicy
from .errors import (BadChecksum, CommandError, CommandSyntaxError,
                     MalformedOption, MidboxError, NoSuchRule, NotIPv4,
                     PacketError, SemanticError, TruncatedPacket,
                     TypeMismatch, UnknownField)
from .fields import FieldDescriptor, REGISTRY
from .packet import (ABSENT, ETHERNET, RAW_IP, PacketBuffer, fix_checksums,
                     parse_packet, read_field, serialize, verify_checksums)
from .pipeline import Engine, EngineConfig, RunReport
from .rewrite import apply_option_edits, compile_targets
from .rules import MatchExpr, Rule, TargetExpr, format_rule, parse_command
from .scenarios import ScenarioReport, run_scenario

__version__ = "0.1.0"
