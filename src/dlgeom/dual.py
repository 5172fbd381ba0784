"""Dual numbers, analytic lifts, and dual Lorentzian vectors.

A dual number ``a + eps*a*`` multiplies with ``eps**2 = 0``, so evaluating
an analytic function at ``x + eps`` returns its derivative in the dual
slot: ``f(x + eps*h) = f(x) + eps*h*f'(x)``.  Every function here is
written against generic ring arithmetic, which means the components of a
:class:`DualScalar` may themselves be dual scalars; nesting one level per
differentiation order is how the kernel obtains exact second and third
derivatives of curve closures.

Dual vectors pair a direction with a moment vector; with the Lorentzian
products of :mod:`dlgeom.lorentz` they model oriented non-null lines.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

# NOTE: operator type checks below use (int, float) rather than numbers.Real;
# the ABC dispatch is measurably slow in the nested differentiation loops.

from .errors import BranchError, DivisionByPureDual, DomainError, KindMismatch, NullRealPart
from .lorentz import CausalCharacter, Vec3L, causal_character, lorentz_cross, lorentz_dot

#: real parts smaller than this are not invertible as dual numbers
DIV_TOL = 1e-14


class DualScalar:
    """Dual number ``re + eps*du``; components float or (nested) DualScalar."""

    __slots__ = ("re", "du")

    def __init__(self, re, du=0.0):
        self.re = re
        self.du = du

    def __add__(self, o):
        if isinstance(o, DualScalar):
            return DualScalar(self.re + o.re, self.du + o.du)
        if isinstance(o, (int, float)):
            return DualScalar(self.re + o, self.du)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, DualScalar):
            return DualScalar(self.re - o.re, self.du - o.du)
        if isinstance(o, (int, float)):
            return DualScalar(self.re - o, self.du)
        return NotImplemented

    def __rsub__(self, o):
        if isinstance(o, (int, float)):
            return DualScalar(o - self.re, -self.du)
        return NotImplemented

    def __neg__(self):
        return DualScalar(-self.re, -self.du)

    def __mul__(self, o):
        if isinstance(o, DualScalar):
            return DualScalar(self.re * o.re, self.re * o.du + self.du * o.re)
        if isinstance(o, (int, float)):
            return DualScalar(self.re * o, self.du * o)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, DualScalar):
            if abs(leading_real(o.re)) < DIV_TOL:
                raise DivisionByPureDual(f"division by pure-dual number {o!r}")
            rr = o.re * o.re
            return DualScalar(self.re / o.re, (self.du * o.re - self.re * o.du) / rr)
        if isinstance(o, (int, float)):
            return DualScalar(self.re / o, self.du / o)
        return NotImplemented

    def __rtruediv__(self, o):
        if isinstance(o, (int, float)):
            return DualScalar(o, 0.0) / self
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, numbers.Integral) or n < 0:
            return NotImplemented
        out = DualScalar(1.0, 0.0)
        base = self
        n = int(n)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, o):
        return isinstance(o, DualScalar) and self.re == o.re and self.du == o.du

    def __repr__(self):
        return f"DualScalar({self.re!r}, {self.du!r})"


def re_part(x):
    """Real part of a scalar; floats pass through."""
    return x.re if isinstance(x, DualScalar) else x


def du_part(x):
    """Dual part of a scalar; floats have none."""
    return x.du if isinstance(x, DualScalar) else 0.0


def leading_real(x):
    """Innermost float of a possibly nested dual scalar."""
    while isinstance(x, DualScalar):
        x = x.re
    return x


# ---------------------------------------------------------------------------
# analytic lifts: f(x + eps*x*) = f(x) + eps*x*f'(x)

def sinh(x):
    if isinstance(x, DualScalar):
        return DualScalar(sinh(x.re), x.du * cosh(x.re))
    return math.sinh(x)


def cosh(x):
    if isinstance(x, DualScalar):
        return DualScalar(cosh(x.re), x.du * sinh(x.re))
    return math.cosh(x)


def tanh(x):
    if isinstance(x, DualScalar):
        t = tanh(x.re)
        return DualScalar(t, x.du * (1.0 - t * t))
    return math.tanh(x)


def exp(x):
    if isinstance(x, DualScalar):
        e = exp(x.re)
        return DualScalar(e, x.du * e)
    return math.exp(x)


def sqrt(x):
    if isinstance(x, DualScalar):
        r = sqrt(x.re)
        return DualScalar(r, x.du / (2.0 * r))
    if x <= 0.0:
        raise DomainError(f"dual sqrt requires a positive real part, got {x}")
    return math.sqrt(x)


def sin(x):
    if isinstance(x, DualScalar):
        return DualScalar(sin(x.re), x.du * cos(x.re))
    return math.sin(x)


def cos(x):
    if isinstance(x, DualScalar):
        return DualScalar(cos(x.re), -(x.du * sin(x.re)))
    return math.cos(x)


def arctan(x):
    if isinstance(x, DualScalar):
        return DualScalar(arctan(x.re), x.du / (1.0 + x.re * x.re))
    return math.atan(x)


LIFTS = {
    "sinh": sinh,
    "cosh": cosh,
    "tanh": tanh,
    "exp": exp,
    "sqrt": sqrt,
    "sin": sin,
    "cos": cos,
    "arctan": arctan,
}


def dual_lift(f: str, x):
    """Evaluate a named analytic function over dual scalars.

    ``f`` must be one of the fixed ids in :data:`LIFTS`; the set is kept
    closed so every lifted derivative rule in the kernel is auditable.
    """
    try:
        fn = LIFTS[f]
    except KeyError:
        raise ValueError(f"no analytic lift registered for {f!r}") from None
    return fn(x)


# ---------------------------------------------------------------------------
# dual vectors

class DualVec3:
    """Dual Lorentzian vector: real direction part plus moment part."""

    __slots__ = ("re", "du")

    def __init__(self, re: Vec3L, du: Vec3L):
        self.re = re
        self.du = du

    @classmethod
    def from_components(cls, v: Vec3L) -> "DualVec3":
        """Split a vector with dual-scalar components into (re, du) vectors."""
        return cls(
            Vec3L(re_part(v.x1), re_part(v.x2), re_part(v.x3)),
            Vec3L(du_part(v.x1), du_part(v.x2), du_part(v.x3)),
        )

    def components(self) -> Vec3L:
        """Repack as one vector whose components are dual scalars."""
        return Vec3L(
            DualScalar(self.re.x1, self.du.x1),
            DualScalar(self.re.x2, self.du.x2),
            DualScalar(self.re.x3, self.du.x3),
        )

    def __add__(self, o: "DualVec3") -> "DualVec3":
        return DualVec3(self.re + o.re, self.du + o.du)

    def __sub__(self, o: "DualVec3") -> "DualVec3":
        return DualVec3(self.re - o.re, self.du - o.du)

    def __neg__(self) -> "DualVec3":
        return DualVec3(-self.re, -self.du)

    def __mul__(self, s) -> "DualVec3":
        if isinstance(s, DualScalar):
            return DualVec3(self.re * s.re, self.du * s.re + self.re * s.du)
        return DualVec3(self.re * s, self.du * s)

    __rmul__ = __mul__

    def __repr__(self):
        return f"DualVec3({self.re!r}, {self.du!r})"


def dual_lorentz_dot(x: DualVec3, y: DualVec3) -> DualScalar:
    """<x, y> = <a,b> + eps*(<a,b*> + <a*,b>) with the Lorentzian metric."""
    return DualScalar(
        lorentz_dot(x.re, y.re),
        lorentz_dot(x.re, y.du) + lorentz_dot(x.du, y.re),
    )


def dual_lorentz_cross(x: DualVec3, y: DualVec3) -> DualVec3:
    """x  x y = a x b + eps*(a* x b + a x b*) with the Lorentzian cross."""
    return DualVec3(
        lorentz_cross(x.re, y.re),
        lorentz_cross(x.du, y.re) + lorentz_cross(x.re, y.du),
    )


def dual_norm(x: DualVec3, tol: float = 1e-12) -> DualScalar:
    """Dual norm sqrt(|<x,x>|) evaluated in dual arithmetic.

    For a spacelike real part this is the classical
    ``|a| + eps*<a,a*>/|a|``; a timelike real part flips the sign of the
    dual slot because the quadratic form sits under an absolute value.
    Lightlike or zero real parts have no dual norm.
    """
    q = lorentz_dot(x.re, x.re)
    if abs(q) <= tol:
        raise NullRealPart("dual norm undefined for lightlike/zero real part")
    n = math.sqrt(abs(q))
    moment = lorentz_dot(x.re, x.du)
    sign = 1.0 if q > 0.0 else -1.0
    return DualScalar(n, sign * moment / n)


def is_dual_unit(x: DualVec3, *, timelike: bool = False, tol: float = 1e-9) -> bool:
    """Check <a,a> = +-1 and <a,a*> = 0 within tol."""
    target = -1.0 if timelike else 1.0
    return (abs(lorentz_dot(x.re, x.re) - target) <= tol
            and abs(lorentz_dot(x.re, x.du)) <= tol)


# ---------------------------------------------------------------------------
# dual angles

@dataclass(frozen=True)
class DualAngle:
    """Angle theta with dual slot theta_star (a distance along the common
    perpendicular when the vectors represent lines)."""

    theta: float
    theta_star: float

    def as_dual(self) -> DualScalar:
        return DualScalar(self.theta, self.theta_star)


TIMELIKE_ANGLE = "timelike-angle"
CENTRAL_ANGLE = "central-angle"


def dual_angle_between(x: DualVec3, y: DualVec3, kind: str, tol: float = 1e-9) -> DualAngle:
    """Dual angle between two dual vectors.

    ``timelike-angle``: x spacelike, y timelike; inverts
    ``<x,y> = |x||y| sinh(angle)``, which is bijective.

    ``central-angle``: both spacelike, spanning a timelike subspace
    (|<x^,y^>| >= 1 on unit real parts); inverts
    ``<x,y> = |x||y| cosh(angle)`` on the branch theta >= 0.  A product
    <= -1 is treated as the angle to the opposite vector -y.
    """
    cx = causal_character(x.re)
    cy = causal_character(y.re)
    if kind == TIMELIKE_ANGLE:
        if cx is not CausalCharacter.SPACELIKE or cy is not CausalCharacter.TIMELIKE:
            raise KindMismatch(f"timelike-angle needs (spacelike, timelike), got ({cx}, {cy})")
        v = dual_lorentz_dot(x, y) / (dual_norm(x) * dual_norm(y))
        theta = math.asinh(v.re)
        return DualAngle(theta, v.du / math.cosh(theta))
    if kind == CENTRAL_ANGLE:
        if cx is not CausalCharacter.SPACELIKE or cy is not CausalCharacter.SPACELIKE:
            raise KindMismatch(f"central-angle needs two spacelike vectors, got ({cx}, {cy})")
        v = dual_lorentz_dot(x, y) / (dual_norm(x) * dual_norm(y))
        vre, vdu = v.re, v.du
        if vre < 0.0:
            vre, vdu = -vre, -vdu
        if vre < 1.0 - tol:
            raise BranchError(f"|cosh| = {vre} < 1: vectors span no timelike subspace")
        if vre <= 1.0 + tol:
            if abs(vdu) > tol:
                raise BranchError("dual angle undefined at the cosh branch point")
            return DualAngle(0.0, 0.0)
        theta = math.acosh(vre)
        return DualAngle(theta, vdu / math.sinh(theta))
    raise ValueError(f"unknown angle kind {kind!r}")
