"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EngineError, ValueError):
    """Malformed polynomial string or JSON payload."""


class MismatchError(EngineError, ValueError):
    """Structural mismatch: variable lists, frame ranks, bundle shapes."""


class NotClosedError(EngineError, ValueError):
    """An operation required a closed form and received a non-closed one."""


class MorphismError(EngineError, ValueError):
    """A claimed algebroid morphism fails the bracket or anchor condition."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class InternalCheckError(EngineError, AssertionError):
    """An internal check failed, such as the curvature's first kernel pass
    not returning Omega: a hard internal error that signals a bug in the
    engine itself, never a problem with user input.
    """
