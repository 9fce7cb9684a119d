"""Exception types shared across the engine.

Configuration and construction problems derive from ValueError; failures
detected while a computation is running derive from RuntimeError.  The CLI
maps the former to exit code 2 and the latter to exit code 3.
"""


class TruncationError(ValueError):
    """Fock truncation too small to represent the physics (n_fock < 2)."""


class DimensionMismatchError(ValueError):
    """Operator or state dimensions are incompatible."""


class HermiticityError(ValueError):
    """An operator flagged Hermitian fails the entrywise check."""


class SingularCouplingError(ValueError):
    """Effective-coupling denominators vanish (|delta| >= omega0)."""


class InitialStateError(ValueError):
    """An initial state has non-finite entries or zero norm."""


class ConfigError(ValueError):
    """Experiment configuration is malformed or inconsistent."""


class CalibrationError(RuntimeError):
    """No anticrossing found in the resonance scan window."""


class TimestepError(RuntimeError):
    """Jump probability per step too large for the requested dt."""


class NumericalInconsistencyError(RuntimeError):
    """A selected jump would project onto a numerically null state."""


class IntegratorInstabilityError(RuntimeError):
    """Density-matrix positivity violated beyond tolerance during integration."""
