"""Exception hierarchy shared by all fiberlab modules."""


class FiberlabError(Exception):
    """Base class for all errors raised by this package."""


class GrammarError(FiberlabError):
    """Malformed input text (ring declarations, monomials, definition files).

    Carries a character position when one is known.
    """

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class RingMismatchError(FiberlabError):
    """Operands live in different polynomial rings."""


class DomainError(FiberlabError):
    """Input outside an operation's domain (zero ideal, bad exponent, ...)."""


class CapError(FiberlabError):
    """A hard resource limit was exceeded: the settable cap or a fixed limit.

    Limits abort the computation; they never silently truncate a result.
    """

    @classmethod
    def over(cls, cap: str, reached: str, limit: int) -> "CapError":
        """The error for cap ``cap`` = ``limit``, passed when the run ``reached`` a size."""
        return cls(f"{reached}, over cap {cap}={limit} (set FIBERLAB_CAPS={cap}=<value>)")

    @classmethod
    def fixed(cls, reached: str, limit: int, whose: str = "the") -> "CapError":
        """The error for a fixed limit, which no setting raises."""
        return cls(f"{reached}, over {whose} fixed limit of {limit} "
                   "(not a FIBERLAB_CAPS cap; it cannot be raised)")


class InternalError(FiberlabError):
    """An invariant that holds for every input failed: a bug in the engine.

    Distinct from a claim that fails to verify, which is a result.
    """
