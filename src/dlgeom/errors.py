"""Exception types raised by the geometry kernel."""


class GeometryError(Exception):
    """Base class for all kernel errors.

    ``index`` is the position of the first offending element when the error
    was raised on an array of samples; the evaluation that passed the array
    re-raises it naming the sample's parameter instead (see
    :func:`dlgeom.numerics.at_points`).
    """

    def __init__(self, message: str = "", index: int | None = None):
        super().__init__(message)
        self.index = index


class DivisionByPureDual(GeometryError, ZeroDivisionError):
    """Dual division by a number with (near-)zero real part."""


class DomainError(GeometryError, ValueError):
    """Argument outside the domain of an analytic lift (e.g. sqrt of x <= 0)."""


class NullRealPart(GeometryError):
    """Dual vector norm requested for a lightlike or zero real part."""


class KindMismatch(GeometryError):
    """Causal characters of the arguments do not match the requested angle kind."""


class BranchError(GeometryError):
    """No real dual angle exists on the requested branch (|cosh| < 1)."""


class InvalidDirection(GeometryError):
    """Line direction is lightlike or not unit."""


class NotUnit(GeometryError):
    """Dual vector violates the unit conditions <a,a> = +-1, <a,a*> = 0."""


class DegenerateIndicatrix(GeometryError):
    """Indicatrix speed vanishes; the ruling direction is (locally) constant."""


class FrameDegeneracy(GeometryError):
    """Computed frame fails its orthonormality / causal-character checks."""


class StepSizeError(GeometryError):
    """An integrated frame drifted too far from orthonormality before re-orthonormalization."""


class ProfileError(GeometryError, TypeError):
    """An invariant profile function cannot take its argument (a numpy ufunc on a dual, say)."""


class NonFinite(GeometryError):
    """NaN or infinity encountered where a finite number is required."""


class DegenerateOffset(GeometryError):
    """Offset indicatrix stalls or blows up: gamma * cosh(theta) vanishes or overflows."""


class ZeroConicalCurvature(GeometryError):
    """Closed-form offset invariants require gamma != 0."""


class NullDarboux(GeometryError):
    """|gamma_1| = 1: the offset Darboux vector is lightlike, radius undefined."""


class SpecFileError(GeometryError):
    """Surface spec file failed validation."""


class TooManyNodes(GeometryError):
    """An input needs more nodes than ``dlgeom.numerics.MAX_SAMPLES``; raised before allocating.

    Not a ValueError: a caller that rewraps argument errors leaves this one named.
    """
