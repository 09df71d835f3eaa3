"""Exception hierarchy for the negdep toolkit.

Every error that a checker or constructor can raise deliberately is a
subclass of :class:`NegdepError`, so callers (and the CLI) can separate
input/usage problems from genuine verdict failures.
"""


class NegdepError(Exception):
    """Base class for all toolkit errors."""


class BadWidth(NegdepError):
    """A bitvector does not have the expected number of bits."""


class NegativeMass(NegdepError):
    """An atom was given a negative probability."""


class MassNotOne(NegdepError):
    """Atom probabilities do not sum to exactly 1."""


class MalformedMeasure(NegdepError):
    """A measure document does not follow the JSON schema."""


class ZeroProbabilityEvent(NegdepError):
    """Conditioning on an event of probability zero."""


class EmptySubset(NegdepError):
    """A marginal was requested over the empty index set."""


class EmptyConditioningEvent(NegdepError):
    """A sum-conditioned family has no outcomes in the window."""


class DimensionMismatch(NegdepError):
    """Two objects live on different numbers of variables."""


class TooLarge(NegdepError):
    """Requested instance exceeds the documented enumeration cap."""


class InvalidTestFunction(NegdepError):
    """Declared Lipschitz/monotonicity property fails on some edge."""


class NoEligibleIndex(NegdepError):
    """No unrevealed variable is deterministic or has influence sum <= 1.

    Unreachable for valid measures; raising it signals an implementation
    bug or a corrupted input.
    """


class LemmaViolated(NegdepError):
    """The variance/covariance tripwire found a negative-only summation.

    Unreachable for valid measures (variance is nonnegative); a tripwire.
    """


class IntervalViolation(NegdepError):
    """An adaptive-tree node exceeded its bounded-difference interval.

    Carries the offending node as a certificate; this is the first-class
    signal that the input measure does not satisfy negative regression.
    """

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class DominanceFails(NegdepError):
    """No monotone coupling exists; carries the infeasibility certificate."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NodeIsLeaf(NegdepError):
    """An exponential-moment query was made at a leaf node."""


__all__ = [
    "NegdepError", "BadWidth", "NegativeMass", "MassNotOne", "MalformedMeasure",
    "ZeroProbabilityEvent", "EmptySubset", "EmptyConditioningEvent",
    "DimensionMismatch", "TooLarge", "InvalidTestFunction", "NoEligibleIndex",
    "LemmaViolated", "IntervalViolation", "DominanceFails", "NodeIsLeaf",
]
