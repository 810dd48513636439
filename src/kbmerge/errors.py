"""Exception types shared across the package, and their exit statuses."""

import enum


class ExitStatus(enum.IntEnum):
    """Command-line exit statuses."""

    OK = 0
    VALIDATION_ERROR = 1
    INCONSISTENT_INPUT = 2
    IO_ERROR = 3
    LIMIT_EXCEEDED = 4


class KbError(Exception):
    """Base class for all errors raised by this package.

    ``exit_code`` is the command-line exit status the error maps to.
    """

    exit_code = ExitStatus.VALIDATION_ERROR


class ParseError(KbError):
    """Malformed KB document text."""

    exit_code = ExitStatus.IO_ERROR

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ValidationError(KbError):
    """A knowledge base or constraint set violates a structural invariant."""


class AlignmentError(ValidationError):
    """Two knowledge bases do not share a common variable grid."""

    def __init__(self, variable: str, message: str):
        super().__init__(f"variable '{variable}': {message}")
        self.variable = variable


class NotContextualizedError(ValidationError):
    """A constraint expected to carry a context guard does not."""


class ConstraintNotFoundError(ValidationError):
    """Referenced constraint id is not part of the knowledge base."""


class UnassignedVariableError(KbError):
    """Formula evaluation hit a variable the assignment does not cover."""

    def __init__(self, variable: str):
        super().__init__(f"variable '{variable}' is not assigned")
        self.variable = variable


class InconsistentInputError(KbError):
    """An input knowledge base admits no solution."""

    exit_code = ExitStatus.INCONSISTENT_INPUT


class SpaceTooLargeError(KbError):
    """Assignment space exceeds the brute-force guard."""

    exit_code = ExitStatus.LIMIT_EXCEEDED


class GenerationError(KbError):
    """Random KB generation exhausted its retry budget."""

    exit_code = ExitStatus.INCONSISTENT_INPUT


class BenchError(KbError):
    """Benchmark run failed; message carries the grid coordinates."""

    exit_code = ExitStatus.INCONSISTENT_INPUT
