"""Exception hierarchy shared by the whole toolkit.

Every error carries the process exit code the CLI maps it to, so the
command front end never needs a type-by-type table.
"""


# Past this many characters an echo of input in an error message is cut short.
_SHOWN_CHARS = 200


def _shown(text: str) -> str:
    """text as an error message echoes it: whole, or when longer than
    _SHOWN_CHARS characters cut short and followed by its length, so a
    huge input cannot make a huge message."""
    if len(text) <= _SHOWN_CHARS:
        return text
    return f"{text[:_SHOWN_CHARS]}... ({len(text)} characters)"


class JtxError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class InputError(JtxError):
    """Malformed input: unreadable file, bad JSON, bad rational or node string."""

    exit_code = 2


class DomainError(JtxError):
    """A documented precondition was violated (node outside range, zero vector, ...)."""

    exit_code = 3


class PositivityError(DomainError):
    """An operation restricted to entrywise-positive vectors got a signed one."""


class InvalidPartitionError(DomainError):
    """A partition's segments are not pairwise disjoint."""


class InfeasibleError(DomainError):
    """No partition satisfies the given constraint set."""


class CapError(JtxError):
    """An exhaustive-search cap (oracle node cap) was exceeded."""

    exit_code = 4


class InternalError(JtxError):
    """An internal invariant failed; indicates a bug, not a user error."""

    exit_code = 5
