"""Minkowski 3-space vector algebra.

The metric is ``<a, b> = -a1*b1 + a2*b2 + a3*b3``: the first coordinate is
the timelike one.  The cross product follows the convention

    e1 x e2 = -e3,   e2 x e3 = e1,   e3 x e1 = -e2,

which ties to the determinant through ``<a x b, c> = -det(a, b, c)``.

Components are duck-typed: ordinarily floats, but any scalar supporting
ring arithmetic (in particular :class:`~dlgeom.dual.DualScalar`) works,
which is how curves get differentiated exactly.  A vector over dual
numbers is a dual vector ``a + eps*a*``, the E. Study image of a line:
``lorentz_dot`` and ``lorentz_cross`` are then the dual products, and
``v.re``, ``v.du`` read its two parts.  Float arrays work too,
componentwise, which is how a block of samples is evaluated in one call.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import NonFinite

#: tolerance on the quadratic form <a,a> for causal classification
CAUSAL_TOL = 1e-12


def _check_finite(v) -> None:
    # type-is fast path first, then float subclasses such as np.float64, then
    # arrays (a block of samples; the error carries the first bad index).  A
    # constant, float or 0-d, is bad at every sample, so it carries index 0,
    # the first point of the pass.  Dual scalars are not inspected: Vec3L.re
    # and Vec3L.du build checked vectors, so a non-finite slot is rejected
    # when a dual vector is split, which every measured frame node goes through.
    if type(v) is float or isinstance(v, float):
        if not math.isfinite(v):
            raise NonFinite(f"non-finite vector component: {float(v)!r}", index=0)
    elif isinstance(v, np.ndarray):
        bad = ~np.isfinite(v)
        if bad.any():
            i = int(np.argmax(bad))
            raise NonFinite(f"non-finite vector component: {float(v.flat[i])!r}", index=i)


class Vec3L:
    """Vector of Minkowski 3-space, components (x1, x2, x3), x1 timelike."""

    __slots__ = ("x1", "x2", "x3")

    # numpy defers ``array * vector`` to Vec3L.__rmul__
    __array_ufunc__ = None

    def __init__(self, x1, x2, x3):
        _check_finite(x1)
        _check_finite(x2)
        _check_finite(x3)
        self.x1 = x1
        self.x2 = x2
        self.x3 = x3

    @classmethod
    def from_checked(cls, x1, x2, x3) -> "Vec3L":
        """A vector from components already known to be finite, not checked again.

        For the rows of a vector whose array components passed the check
        when it was built.
        """
        v = object.__new__(cls)
        v.x1 = x1
        v.x2 = x2
        v.x3 = x3
        return v

    # the parts of a dual vector a + eps*a*, read off each component's re and
    # du slot; a real vector is its own real part and has dual part zero

    @property
    def re(self) -> "Vec3L":
        """Real part a, from each component's ``re`` slot."""
        return Vec3L(getattr(self.x1, "re", self.x1), getattr(self.x2, "re", self.x2),
                     getattr(self.x3, "re", self.x3))

    @property
    def du(self) -> "Vec3L":
        """Dual part a*, from each component's ``du`` slot."""
        return Vec3L(getattr(self.x1, "du", 0.0), getattr(self.x2, "du", 0.0),
                     getattr(self.x3, "du", 0.0))

    def __iter__(self):
        return iter((self.x1, self.x2, self.x3))

    def __add__(self, other: "Vec3L") -> "Vec3L":
        return Vec3L(self.x1 + other.x1, self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "Vec3L") -> "Vec3L":
        return Vec3L(self.x1 - other.x1, self.x2 - other.x2, self.x3 - other.x3)

    def __neg__(self) -> "Vec3L":
        return Vec3L(-self.x1, -self.x2, -self.x3)

    def __mul__(self, s) -> "Vec3L":
        return Vec3L(self.x1 * s, self.x2 * s, self.x3 * s)

    __rmul__ = __mul__

    def __truediv__(self, s) -> "Vec3L":
        return Vec3L(self.x1 / s, self.x2 / s, self.x3 / s)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Vec3L)
                and self.x1 == other.x1 and self.x2 == other.x2 and self.x3 == other.x3)

    def __repr__(self) -> str:
        return f"Vec3L({self.x1!r}, {self.x2!r}, {self.x3!r})"


ZERO = Vec3L(0.0, 0.0, 0.0)


class CausalCharacter(enum.Enum):
    TIMELIKE = "timelike"
    SPACELIKE = "spacelike"
    LIGHTLIKE = "lightlike"


def lorentz_dot(a: Vec3L, b: Vec3L):
    """Lorentzian inner product -a1*b1 + a2*b2 + a3*b3."""
    return -a.x1 * b.x1 + a.x2 * b.x2 + a.x3 * b.x3


def lorentz_cross(a: Vec3L, b: Vec3L) -> Vec3L:
    """Lorentzian cross product (a2*b3 - a3*b2, a1*b3 - a3*b1, a2*b1 - a1*b2)."""
    return Vec3L(*_cross(a, b))


def _cross(a: Vec3L, b: Vec3L) -> tuple:
    """The components of ``lorentz_cross(a, b)``, for callers that check finiteness later."""
    return (a.x2 * b.x3 - a.x3 * b.x2,
            a.x1 * b.x3 - a.x3 * b.x1,
            a.x2 * b.x1 - a.x1 * b.x2)


def det3(a: Vec3L, b: Vec3L, c: Vec3L):
    """Determinant of the 3x3 matrix with rows a, b, c.

    Expanded along the third row so the cofactors are the cross-product
    components; the identity <a x b, c> = -det(a, b, c) then holds exactly
    in floating point, not just to roundoff.
    """
    return (c.x1 * (a.x2 * b.x3 - a.x3 * b.x2)
            - c.x2 * (a.x1 * b.x3 - a.x3 * b.x1)
            + c.x3 * (a.x1 * b.x2 - a.x2 * b.x1))


def causal_character(a: Vec3L) -> CausalCharacter:
    """Classify a vector by the sign of <a,a>.

    The zero vector counts as spacelike; lightlike requires a nonzero
    vector with |<a,a>| at most CAUSAL_TOL.
    """
    q = lorentz_dot(a, a)
    if q < -CAUSAL_TOL:
        return CausalCharacter.TIMELIKE
    if q > CAUSAL_TOL:
        return CausalCharacter.SPACELIKE
    if a.x1 == 0.0 and a.x2 == 0.0 and a.x3 == 0.0:
        return CausalCharacter.SPACELIKE
    return CausalCharacter.LIGHTLIKE
