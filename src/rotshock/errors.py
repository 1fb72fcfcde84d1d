"""Exception hierarchy shared by all solver stages.

Every error carries the offending quantity so callers (and the command line
front end) can report what went wrong without re-deriving it.
"""


class RotshockError(Exception):
    """Base class for all solver errors."""


class ConfigError(RotshockError):
    """Bad run configuration (missing/unknown keys, invariant violations)."""


class InvalidStateError(RotshockError):
    """A gas state violates rho > 0, P > 0."""


class VacuumError(InvalidStateError):
    """Bernoulli quantity does not dominate the kinetic energy (B <= |u|^2/2)."""


class DegenerateBackgroundError(RotshockError):
    """Background construction impossible (e.g. upstream not supersonic)."""


class IncompatibleDataError(RotshockError):
    """Elliptic boundary/source data violate the solvability condition."""

    def __init__(self, message, defect):
        super().__init__(f"{message} (defect={defect:.6e})")
        self.defect = defect


class NoAdmissibleShockError(RotshockError):
    """The exit data cannot be matched by any shock position in the bracket."""


class DegenerateSelectionError(NoAdmissibleShockError):
    """The position functional is flat: the shock position is arbitrary."""


class CflError(RotshockError):
    """Marching step exceeds the characteristic bound; refine the y1 grid."""


class NonConvergenceError(RotshockError):
    """An iteration failed to reach its tolerance."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []
