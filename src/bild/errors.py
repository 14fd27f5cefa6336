"""Exception types shared across the package."""


class BildError(Exception):
    """Base class for all package errors."""


class InvalidInputError(BildError, ValueError):
    """An argument violated a documented precondition."""


class FieldError(InvalidInputError):
    """A dataclass field's value broke a rule; ``read_dataclass`` names it ``<where>.<key>``."""

    def __init__(self, key: str, message: str) -> None:
        super().__init__(f"{key}: {message}")
        self.key, self.message = key, message


class ConfigurationError(BildError):
    """A run was configured inconsistently (bad thresholds, bad file, ...)."""


class VocabularyMismatchError(ConfigurationError):
    """Two models that must share a vocabulary do not."""


class InvalidTraceError(BildError):
    """A decode trace is internally inconsistent and cannot be replayed."""
