"""Shared exception types."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class AutomatonError(EngineError):
    """Structural misuse of an automaton operation."""


class BaseMismatchError(EngineError):
    """Two tracks or terms with incompatible numeration bases were combined."""


class RegexError(EngineError):
    """Malformed pattern given to the regex compiler."""


class FormulaParseError(EngineError):
    """Syntax error in a query or script."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class CompileError(EngineError):
    """Semantic error while compiling a formula (unknown name, arity, ...)."""


class GuessFailedError(EngineError):
    """A synthesized machine cannot be trusted.

    guess_sync raises it when its candidate exceeds the state cap or
    disagrees with the sample it was built from, and standard_environment
    when a shipped rss or rst machine fails verification.
    """


class FunctionalityError(EngineError):
    """A relation expected to be functional had zero or several images."""


class DivergenceError(EngineError):
    """A counting representation whose value depends on padding."""
