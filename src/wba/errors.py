"""Exception types shared across the package."""


class WbaError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(WbaError):
    """Operands live in algebras of different shapes."""


class IndexOutOfRange(WbaError):
    """A site index violates the constraints of the requested object."""


class DivisionByZero(WbaError, ZeroDivisionError):
    """Division by the zero scalar."""


class NonzeroRemainder(WbaError):
    """Exact polynomial division left a nonzero remainder."""


class CancellationFailure(WbaError):
    """A pole that should cancel during consecutive evaluation did not."""


class NonGenericH(WbaError):
    """The free parameter h hits a forbidden value for the given contents."""


class TooLarge(WbaError):
    """The requested object exceeds a fixed size bound of the interface."""


class ParseError(WbaError):
    """Malformed textual input; carries the offending position."""

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class IllegalMove(WbaError):
    """A tableau step is not a legal move; carries the step index."""

    def __init__(self, step, reason):
        super().__init__(f"illegal move at step {step}: {reason}")
        self.step = step
        self.reason = reason
