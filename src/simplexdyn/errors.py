"""Shared exception types.

Input validation failures raise plain ValueError with a descriptive
message; the classes here cover the two non-input failure modes the
library distinguishes: internal invariant violations (bugs) and
honest numerical budget exhaustion (not a wrong answer).
"""

from __future__ import annotations


class InternalConsistencyError(RuntimeError):
    """A computed quantity violated an invariant that valid inputs cannot.

    Raised, for example, when the period fails to divide the return time
    or a search exceeds its provable bound.  Indicates a bug, not a bad
    input.
    """


class InconclusiveError(RuntimeError):
    """An iteration budget ran out before the requested tolerance was met.

    Carries enough context to report "inconclusive" rather than a wrong
    value.  CLI maps this to exit code 2.
    """

    def __init__(self, message: str, *, iterations: int | None = None):
        super().__init__(message)
        self.iterations = iterations


class PurePowerError(ValueError):
    """A pure power t^r was passed to an operation that excludes it.

    analyze and iterate_coeffs raise it.  pure_power_report gives the
    closed forms of a pure power: the same quotient solve and synthesis
    as analyze, on the unreduced profile.
    """
