"""Exception types shared across the package."""


class ShapeMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class MembershipError(ValueError):
    """A matrix failed the admission rule, :func:`qhspace.tolerances.admission`.

    Carries the max-norm residual of the form-preservation equation, the
    index of the worst offending entry, the matrix's largest entry modulus
    and the limit the residual was compared against.  When ``decided`` is
    false, the scale alone refused the matrix.
    """

    def __init__(self, residual, worst_index, scale, limit, decided=True):
        self.residual = residual
        self.worst_index = worst_index
        self.scale = scale
        self.limit = limit
        self.decided = decided
        super().__init__(
            f"matrix does not preserve the Hermitian form: residual {residual:.3e} exceeds limit "
            f"{limit:.3e} at entry {worst_index}" if decided
            else f"matrix scale {scale:.3e} is too large for membership to be decided"
        )


class ParameterError(ValueError):
    """A normal-form parameter set violates one of its constraints."""


class ClassificationError(ValueError):
    """An operation requires an element of a different dynamical type."""


class NumericError(ArithmeticError):
    """A numerical routine could not certify its result.

    Carries a residual report where available.
    """

    def __init__(self, message, residual=None):
        self.residual = residual
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)
