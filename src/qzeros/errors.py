"""Exception types shared across the toolkit."""


class QZerosError(Exception):
    """Base class for all toolkit errors."""


class InvalidToleranceError(QZerosError):
    """A tolerance or isolation width was not strictly positive."""


class ConstraintViolationError(QZerosError):
    """A lower series parameter fell in the forbidden set {1, q^-1, ..., q^-n}."""

    def __init__(self, index: int, value, n: int):
        from .qcore import rat_str  # qcore imports this module

        self.index = index
        self.value = value
        super().__init__(
            f"lower parameter b[{index}] = {rat_str(value)} makes the series denominator "
            f"vanish or lies in the forbidden set {{q^-1, ..., q^-{n}}}"
        )


class DegenerateParameterError(QZerosError):
    """Parameter value for which the raw series is undefined; an alternative
    constructor handles the case."""


class InvalidParameterError(QZerosError):
    """Parameter outside the documented range of an operation."""


class RegimeError(QZerosError):
    """Parameters outside the orthogonality regime of an operation that requires it."""


class LmeshDomainError(QZerosError):
    """Logarithmic mesh requested for zeros of mixed sign or with a zero at the origin."""


class UndefinedLmeshError(QZerosError):
    """Logarithmic mesh requested for a polynomial with fewer than two zeros."""


class ShapeError(QZerosError):
    """Zero-count pattern of the two polynomials does not fit the requested relation."""


class RegistryError(QZerosError):
    """Unknown check identifier."""


class ConfigError(QZerosError):
    """Malformed configuration input."""
