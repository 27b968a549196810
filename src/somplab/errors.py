"""Exception types shared across the library.

Everything raised deliberately by library code derives from SomplabError,
so callers (and the command-line front end) can map failures to a single
family without inspecting messages.
"""


class SomplabError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(SomplabError):
    """Operand shapes do not conform."""


class EmptySupport(SomplabError):
    """An operation that needs at least one nonzero row received none."""


class ZeroReference(SomplabError):
    """A relative quantity was requested against a zero-norm reference."""


class InvalidSparsity(SomplabError):
    """Sparsity level outside 1..min(m, n)."""


class InvalidOrder(SomplabError):
    """Subset order outside 1..n for an exhaustive enumeration."""


class SubsetBudgetExceeded(SomplabError):
    """An exact enumeration would touch more subsets than the budget allows."""


class DomainError(SomplabError):
    """A closed-form guarantee expression was evaluated outside its domain."""


class PreconditionViolated(SomplabError):
    """A documented precondition does not hold for the given arguments."""


class TraceMismatch(SomplabError):
    """Two solver traces are structurally incompatible."""


class InvalidConfig(SomplabError):
    """Instance or experiment configuration failed validation."""


class ParseError(SomplabError):
    """A matrix or configuration file could not be parsed."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column
