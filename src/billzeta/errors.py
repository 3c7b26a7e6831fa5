"""Exception hierarchy.

Every failure raised by the library maps onto one of the CLI exit codes:
``1`` malformed input, ``2`` domain failure (geometry or data refuses the
request), ``3`` numerical failure (an iteration did not converge or a
result failed its internal cross-check).
"""

USAGE_EXIT = 1
DOMAIN_EXIT = 2
NUMERICAL_EXIT = 3


class BilliardError(Exception):
    """Base class; `exit_code` drives the CLI."""

    exit_code = DOMAIN_EXIT


class MalformedInputError(BilliardError):
    """Unreadable or structurally invalid input (bad JSON, too few disks)."""

    exit_code = USAGE_EXIT


class DomainError(BilliardError):
    """The request is well formed but the data refuses it."""

    exit_code = DOMAIN_EXIT


class EclipseError(DomainError):
    """Configuration fails the mutual-visibility test."""


class StaleCacheError(DomainError):
    """Orbit cache was built for a different configuration."""


class IncompleteDataError(DomainError):
    """Orbit database is too short for the requested cutoff or window."""


class ShortSeriesError(IncompleteDataError):
    """Too few bounce-count shells for a growth-rate fit.  ``short`` lists
    (series label, shell count) for each short series and ``nmax`` is a
    cutoff at which all of them fit."""

    def __init__(self, short, window, n_max, nmax):
        listed = "; ".join(
            f"{label} series: it has {count} shells, needs {window + 1}" for label, count in short
        )
        super().__init__(
            f"not enough shells for a growth-rate fit with a window of {window} up to "
            f"nmax {n_max}: {listed}; --nmax {nmax} would be enough"
        )
        self.short = short
        self.nmax = nmax


class NumericalError(BilliardError):
    exit_code = NUMERICAL_EXIT


class SolverError(NumericalError):
    """Orbit solve missed its residual target; carries the best residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class HyperbolicityError(NumericalError):
    """Independent stability computations disagree beyond tolerance."""


class PowerIterationError(NumericalError):
    """Leading-eigenvalue iteration stagnated before reaching tolerance."""


class TrustRegionError(NumericalError):
    """Pole search left the region where the truncation is reliable."""
