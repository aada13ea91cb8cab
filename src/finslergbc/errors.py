"""Exception taxonomy shared across the package."""


class FinslerError(Exception):
    """Base class for all package errors."""


class DomainError(FinslerError, ValueError):
    """Evaluation requested outside the mathematical domain (e.g. y = 0)."""


class InvalidMetricError(FinslerError, ValueError):
    """A candidate metric violates the Minkowski-norm axioms."""


class ValidationError(FinslerError, ValueError):
    """Structured input fails its declared invariants."""


class SamplingError(FinslerError, RuntimeError):
    """Numerical sampling too coarse to resolve a discrete quantity."""


class TopologyError(FinslerError, RuntimeError):
    """Topological bookkeeping (degree sums vs chi) failed."""
