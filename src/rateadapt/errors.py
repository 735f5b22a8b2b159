"""Exception types shared across the package."""


class RateAdaptError(Exception):
    """Base class for all package errors."""


class ConfigError(RateAdaptError):
    """Raised when a configuration is invalid.

    Carries the complete list of violations, not just the first one.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class CheckpointError(RateAdaptError):
    """Raised on checkpoint load/save failures or fingerprint mismatch."""
