"""Exception types shared across the engine."""


class MidboxError(Exception):
    """Base class for all engine errors."""


class PacketError(MidboxError):
    """A packet failed validation or parsing."""


class TruncatedPacket(PacketError):
    pass


class BadChecksum(PacketError):
    pass


class NotIPv4(PacketError):
    pass


class MalformedOption(PacketError):
    pass


class CommandError(MidboxError):
    """A command line was rejected. `position` is the UTF-8 byte offset of
    the offending token within the line, when known."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position

    def __str__(self):
        msg = super().__str__()
        if self.position is not None:
            return f"{msg} (at byte {self.position})"
        return msg


class CommandSyntaxError(CommandError):
    pass


class UnknownField(CommandError):
    pass


class TypeMismatch(CommandError):
    pass


class SemanticError(CommandError):
    pass


class NoSuchRule(MidboxError):
    pass
