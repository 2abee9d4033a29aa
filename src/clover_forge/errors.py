"""Exception types shared across the toolkit.

Everything user-facing derives from CloverError so the CLI can map any
operational failure to exit status 1.
"""


class CloverError(Exception):
    """Base class for all operational errors raised by this package."""


class ManifestError(CloverError):
    """A manifest file is malformed; the message names the offending line."""


class ParseError(CloverError):
    """A generated QA transcript does not match the expected grammar."""


class IntegrityError(CloverError):
    """Two pieces of data that must agree do not (ids, counts, contents)."""


class ConfigError(CloverError):
    """The configuration is missing a key or holds an invalid value."""


class BackendError(CloverError):
    """A completion backend failed permanently (after retries, if any)."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class TransientBackendError(BackendError):
    """A retryable backend failure: rate limiting, 5xx, network errors."""


class BudgetExceededError(CloverError):
    """Projected spend would exceed the configured budget cap."""


class GradCheckError(CloverError):
    """The gradient checker hit a non-finite loss value."""
