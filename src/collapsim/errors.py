"""Exception types shared across the package.

Every error raised deliberately by library code derives from
:class:`CollapsimError`, and each class carries the process exit code the
CLI returns for it: 2 for an invalid configuration, shape or state, 3 for
:class:`DegenerateTestError` and its subclasses, the statistical
degeneracies (too few or no usable samples, conditioning on an impossible
event, no unique equilibrium, no post-selected survivors).
"""


class CollapsimError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ConfigError(CollapsimError):
    """A configuration value or file is invalid."""


class DimensionError(CollapsimError):
    """Array shapes or index ranges are inconsistent."""


class InvalidStateError(CollapsimError):
    """A quantum state violates its invariants (e.g. zero or wrong norm)."""


class DegenerateTestError(CollapsimError):
    """A statistical procedure has too few or no usable samples."""

    exit_code = 3


class ConditioningError(DegenerateTestError):
    """Conditioning on an event of probability zero."""


class NoUniqueEquilibriumError(DegenerateTestError):
    """The Markov kernel has no unique attracting stationary distribution."""


class ResampleExhaustedError(DegenerateTestError):
    """Post-selection retained no trajectories within the sampling budget."""
