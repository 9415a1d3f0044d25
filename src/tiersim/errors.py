"""Error types shared across the package.

Every failure surfaced to callers is one of these, so the CLI can map
exceptions to exit codes without inspecting messages.
"""


class TiersimError(Exception):
    """Base class for all package errors."""


class ScenarioSyntaxError(TiersimError):
    """Input text could not be parsed at all (bad JSON, bad step line).

    Carries the source position when one is known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}: {message}" if column is None else f"line {line}, column {column}: {message}"
        super().__init__(message)


class ValidationError(TiersimError):
    """Structurally parseable input that violates a model invariant."""


class DomainError(TiersimError):
    """Numeric argument outside the mathematically valid domain."""


class SeriesDisabledError(TiersimError):
    """Series export requested from a run that did not record series data,
    or from a loaded report, which holds no series rows."""


class InternalError(TiersimError):
    """Invariant broken inside the package itself; always a bug."""
