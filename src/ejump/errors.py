"""Exception types shared across the library.

Every error raised on purpose derives from ExactAlgebraError, so callers
(and the CLI dispatcher) can distinguish domain errors from genuine bugs.
"""


class ExactAlgebraError(Exception):
    """Base class for all errors raised by this library."""


class ArityMismatch(ExactAlgebraError):
    """Operands live over different variable sets or characteristics."""


class BothZero(ExactAlgebraError):
    """gcd(0, 0) requested."""


class DivByZero(ExactAlgebraError):
    """Division by the zero element."""


class NotAPower(ExactAlgebraError):
    """A p-th root was requested of an element that has none."""


class NotAPowerViolation(ExactAlgebraError):
    """An inseparable-root layer was declared whose radicand already has a p-th root."""


class ZeroDivisorDetected(ExactAlgebraError):
    """Arithmetic witnessed a zero divisor, so an asserted minimal polynomial is reducible."""

    def __init__(self, layer_name: str, message: str = ""):
        self.layer_name = layer_name
        super().__init__(message or f"zero divisor witnessed at layer '{layer_name}'")


class InternalInvariantViolation(ExactAlgebraError):
    """A structural self-check failed; indicates a bug, not bad input."""


class NotContained(ExactAlgebraError):
    """The ideal is not contained in the maximal ideal of the chosen point."""


class NotPrime(ExactAlgebraError):
    """The point's triangular presentation does not define a prime (maximal) ideal."""


class NotEquidimensional(ExactAlgebraError):
    """The ideal's Krull dimension exceeds edim at the point, so it is not equidimensional there."""


class TriangularizationFailed(ExactAlgebraError):
    """Generators of a maximal ideal could not be re-triangularized."""


class CapExceeded(ExactAlgebraError):
    """The concrete algebra would exceed the configured dimension cap."""


class BoundViolated(ExactAlgebraError):
    """A proven inequality failed on a concrete instance (implementation bug)."""

    def __init__(self, inequality: str, detail: str = ""):
        self.inequality = inequality
        super().__init__(f"bound violated: {inequality}" + (f" ({detail})" if detail else ""))


class ParseError(ExactAlgebraError):
    """Input text does not match the session grammar."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class ValidationError(ExactAlgebraError):
    """Session text parsed but declares an invalid object."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}")
