"""Exception types shared across the package."""

__all__ = [
    "ValidationError", "EdgeArityError", "RepeatedVertexError", "VertexRangeError",
    "DuplicateEdgeError", "InstanceTooLargeError", "NonemptyCoreError",
    "SpareColorError", "StepCapExceededError", "NotColorableEvidence",
]


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class EdgeArityError(ValidationError):
    """An edge does not have exactly k vertices."""


class RepeatedVertexError(ValidationError):
    """An edge lists the same vertex more than once."""


class VertexRangeError(ValidationError):
    """An edge mentions a vertex outside 1..n."""


class DuplicateEdgeError(ValidationError):
    """The same k-set appears twice in the edge list."""


class InstanceTooLargeError(ValidationError):
    """Refusal to run an exact search or enumeration beyond its configured cap.

    ``keyword`` names the keyword argument that raises the cap, when the
    refusing call takes one.
    """

    def __init__(self, message, keyword=None):
        super().__init__(message)
        self.keyword = keyword


class NonemptyCoreError(ValidationError):
    """An operation that requires a coreless vertex set was handed one with a core."""

    def __init__(self, message, core=frozenset()):
        super().__init__(message)
        self.core = frozenset(core)


class SpareColorError(RuntimeError):
    """No admissible spare color exists.

    The counting argument guarantees a spare whenever the documented
    preconditions hold, so seeing this means a caller violated them.
    """


class StepCapExceededError(RuntimeError):
    """A path construction outgrew the configured step cap ``cap``."""

    def __init__(self, message, cap):
        super().__init__(message)
        self.cap = cap


class NotColorableEvidence(Exception):
    """Carries a ColorabilityWitness refuting (alpha, beta)-colorability.

    Raised by path constructions whose preconditions implicitly assumed the
    instance was colorable; the witness is re-checkable with verify_witness.
    """

    def __init__(self, witness):
        super().__init__("instance is not (alpha, beta)-colorable along the attempted sequence")
        self.witness = witness
