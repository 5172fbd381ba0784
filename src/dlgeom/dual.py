"""Dual numbers, analytic lifts, and dual Lorentzian vectors.

A dual number ``a + eps*a*`` multiplies with ``eps**2 = 0``, so evaluating
an analytic function at ``x + eps`` returns its derivative in the dual
slot: ``f(x + eps*h) = f(x) + eps*h*f'(x)``.  Written against generic ring
arithmetic, the components of a :class:`DualScalar` may be dual scalars,
one level per differentiation order, which gives exact second and third
derivatives of curve closures.  The innermost leaves are floats or float
arrays, one element per sample, so one evaluation differentiates a block
of samples; every lift sends a leaf through numpy, so a float leaf gets
the bits of its array element (as ``np.float64``, inf on overflow).  The
lifts are plain functions; :data:`LIFTS` names them for the CLI grammar.
:func:`sinh_cosh` lifts (sinh, cosh) from the pair one level below: two
leaf transcendentals at depth d, where lifting each through the other
takes 2**d; ``sinh``, ``cosh``, ``sin`` and ``cos`` read halves of such
pairs.  A dual division checks its divisor's leading real once against
:data:`DIV_TOL` at every depth: its inner divisions, by o.re and
o.re*o.re, lead with that same real and are not checked again.

Every derivative in a dual slot comes from ring arithmetic and these lifts,
but for three chain-rule lifts handed their known rate (the Hermite jets of
reconstructed curves, the Mannheim offset's lifted base node and its angles
theta and theta*) and two inverse functions (the arc-length inverse of
``arclength_reparametrize`` and :func:`dual_angle_between`).

A dual vector ``a + eps*a*`` pairs a direction with a moment vector and
models an oriented non-null line.  It is a :class:`~dlgeom.lorentz.Vec3L`
whose components are dual scalars, built by :func:`dual_vector` and split
by ``v.re`` and ``v.du``; ``lorentz_dot`` and ``lorentz_cross`` over dual
components are its products, <a,b> + eps*(<a,b*> + <a*,b>) and
a x b + eps*(a* x b + a x b*).  The dual angle between two such vectors
is a dual scalar theta + eps*theta*; :func:`dual_angle_between` reads which
angle it is off the vectors' causal characters.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import BranchError, DivisionByPureDual, DomainError, KindMismatch, NullRealPart
from .lorentz import CausalCharacter, Vec3L, causal_character, lorentz_cross, lorentz_dot

#: real parts smaller than this are not invertible as dual numbers
DIV_TOL = 1e-14

# Operator type checks use this tuple rather than numbers.Real: the ABC
# dispatch is measurably slow in the nested differentiation loops.  Arrays
# count as real scalars, componentwise: that is how closures evaluate whole
# blocks of samples in one call.
_REAL = (int, float, np.ndarray, np.number)


def _any(mask) -> bool:
    """Whether a bool, or any element of a bool array, holds (bools skip numpy)."""
    return mask if type(mask) is bool else bool(mask.any())


class DualScalar:
    """Dual number ``re + eps*du``; components float, float array or (nested) DualScalar."""

    __slots__ = ("re", "du")

    # numpy defers ``array * dual`` to the dual operators instead of
    # building an object array
    __array_ufunc__ = None

    def __init__(self, re, du=0.0):
        self.re = re
        self.du = du

    def __add__(self, o):
        if isinstance(o, DualScalar):
            return DualScalar(self.re + o.re, self.du + o.du)
        if isinstance(o, _REAL):
            return DualScalar(self.re + o, self.du)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, DualScalar):
            return DualScalar(self.re - o.re, self.du - o.du)
        if isinstance(o, _REAL):
            return DualScalar(self.re - o, self.du)
        return NotImplemented

    def __rsub__(self, o):
        if isinstance(o, _REAL):
            return DualScalar(o - self.re, -self.du)
        return NotImplemented

    def __pos__(self):
        return self

    def __neg__(self):
        return DualScalar(-self.re, -self.du)

    def __mul__(self, o):
        if isinstance(o, DualScalar):
            return DualScalar(self.re * o.re, self.re * o.du + self.du * o.re)
        if isinstance(o, _REAL):
            return DualScalar(self.re * o, self.du * o)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, DualScalar):
            small = abs(leading_real(o.re)) < DIV_TOL
            if _any(small):
                raise DivisionByPureDual("division by a pure-dual number",
                                         index=int(np.argmax(small)) if np.ndim(small) else None)
            return _quotient(self, o)
        if isinstance(o, _REAL):
            return DualScalar(self.re / o, self.du / o)
        return NotImplemented

    def __rtruediv__(self, o):
        if isinstance(o, _REAL):
            return DualScalar(o, 0.0) / self
        return NotImplemented

    def __eq__(self, o):
        return isinstance(o, DualScalar) and self.re == o.re and self.du == o.du

    def __repr__(self):
        return f"DualScalar({self.re!r}, {self.du!r})"


def _quotient(x, o):
    """x / o as the checked division computes it, for a dual ``o`` already checked."""
    if not isinstance(x, DualScalar):
        x = DualScalar(x, 0.0)
    div = _quotient if isinstance(o.re, DualScalar) else operator.truediv
    return DualScalar(div(x.re, o.re), div(x.du * o.re - x.re * o.du, o.re * o.re))


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


def _leafwise(fn, x):
    """``fn`` applied to every real leaf of a (nested) dual scalar."""
    if isinstance(x, DualScalar):
        return DualScalar(_leafwise(fn, x.re), _leafwise(fn, x.du))
    return fn(x)


# ---------------------------------------------------------------------------
# analytic lifts: f(x + eps*x*) = f(x) + eps*x*f'(x); every leaf, float or
# array, goes through numpy, so a sample gets the same bits alone as in a block

def sinh_cosh(x):
    """(sinh x, cosh x), each dual level lifted from the pair one level below."""
    if isinstance(x, DualScalar):
        s, c = sinh_cosh(x.re)
        return DualScalar(s, x.du * c), DualScalar(c, x.du * s)
    return np.sinh(x), np.cosh(x)


def sinh(x):
    return sinh_cosh(x)[0]


def cosh(x):
    return sinh_cosh(x)[1]


def tanh(x):
    if isinstance(x, DualScalar):
        t = tanh(x.re)
        return DualScalar(t, x.du * (1.0 - t * t))
    return np.tanh(x)


def exp(x):
    if isinstance(x, DualScalar):
        e = exp(x.re)
        return DualScalar(e, x.du * e)
    return np.exp(x)


def sqrt(x):
    if isinstance(x, DualScalar):
        r = sqrt(x.re)
        return DualScalar(r, x.du / (2.0 * r))
    bad = x <= 0.0
    if _any(bad):
        i = int(np.argmax(bad))
        raise DomainError(f"dual sqrt requires a positive real part, got {np.ravel(x)[i]}",
                          index=i if np.ndim(bad) else None)
    return np.sqrt(x)


def _sin_cos(x):
    """(sin x, cos x), lifted in pairs as :func:`sinh_cosh` is."""
    if isinstance(x, DualScalar):
        s, c = _sin_cos(x.re)
        return DualScalar(s, x.du * c), DualScalar(c, -(x.du * s))
    return np.sin(x), np.cos(x)


def sin(x):
    return _sin_cos(x)[0]


def cos(x):
    return _sin_cos(x)[1]


def arctan(x):
    if isinstance(x, DualScalar):
        return DualScalar(arctan(x.re), x.du / (1.0 + x.re * x.re))
    return np.arctan(x)


#: the lifts by name, a closed set so every lifted derivative rule is auditable
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


# ---------------------------------------------------------------------------
# dual vectors: Vec3L over dual scalars, with lorentz_dot and lorentz_cross
# as their products

#: |<a,a>| at or below this has no dual norm
NORM_TOL = 1e-12

#: half-width of the cosh branch point |<x^,y^>| = 1 of the central angle
BRANCH_TOL = 1e-9


def dual_vector(re: Vec3L, du: Vec3L) -> Vec3L:
    """The dual vector re + eps*du: a Vec3L whose components are dual scalars."""
    return Vec3L(DualScalar(re.x1, du.x1), DualScalar(re.x2, du.x2), DualScalar(re.x3, du.x3))


def dual_norm(x: Vec3L) -> DualScalar:
    """Dual norm sqrt(|<x,x>|) of a dual vector, the sqrt lift of its dual square.

    For a spacelike real part this is the classical
    ``|a| + eps*<a,a*>/|a|``; a timelike real part flips the sign of the
    dual slot because the quadratic form sits under an absolute value.
    Lightlike or zero real parts have no dual norm.
    """
    q = lorentz_dot(x, x)
    null = abs(q.re) <= NORM_TOL
    if _any(null):
        raise NullRealPart("dual norm undefined for lightlike/zero real part",
                           index=int(np.argmax(null)) if np.ndim(null) else None)
    return sqrt(np.sign(q.re) * q)


# ---------------------------------------------------------------------------
# dual angles

def dual_angle_between(x: Vec3L, y: Vec3L) -> DualScalar:
    """Dual angle theta + eps*theta* between two dual vectors.

    The causal characters of the real parts pick the angle.  x spacelike,
    y timelike: inverts ``<x,y> = |x||y| sinh(angle)``, which is bijective.
    Both spacelike, spanning a timelike subspace (|<x^,y^>| >= 1 on unit
    real parts): solves ``<x,y> = |x||y| cosh(angle)`` on the branch
    theta >= 0, and a product <= -1 is treated as the angle to the opposite
    vector -y.  theta is read off the spacelike ``x.re x y.re``, whose norm
    is |x||y| sinh(theta), so it keeps full relative precision as theta -> 0
    where acosh of the product would not.  Any other pair raises
    KindMismatch.  theta* is the distance along the common perpendicular
    when the vectors represent lines.  At the branch point sinh(theta) <=
    BRANCH_TOL the angle is 0 when the dual part of x x y says the lines
    coincide, and distinct parallel lines raise BranchError.
    """
    cx = causal_character(x.re)
    cy = causal_character(y.re)
    if cx is not CausalCharacter.SPACELIKE or cy is CausalCharacter.LIGHTLIKE:
        raise KindMismatch("a dual angle needs (spacelike, timelike) or (spacelike, spacelike), "
                           f"got ({cx}, {cy})")
    n = dual_norm(x) * dual_norm(y)
    v = lorentz_dot(x, y) / n
    if cy is CausalCharacter.TIMELIKE:
        theta = math.asinh(v.re)
        return DualScalar(theta, float(v.du / math.cosh(theta)))
    vre, vdu = v.re, v.du
    if vre < 0.0:
        vre, vdu = -vre, -vdu
    if vre < 1.0 - BRANCH_TOL:
        raise BranchError(f"|cosh| = {vre} < 1: vectors span no timelike subspace")
    w = lorentz_cross(x, y)
    # <w, w> = <x,y>^2 - <x,x><y,y>; at the branch point rounding may leave it below 0
    sinh_theta = math.sqrt(max(lorentz_dot(w.re, w.re), 0.0)) / n.re
    if sinh_theta <= BRANCH_TOL:
        # v.du = theta* sinh(theta) vanishes here whatever theta* is
        if any(abs(c) > BRANCH_TOL * n.re for c in w.du):
            raise BranchError("dual angle undefined: (nearly) parallel lines that do not coincide")
        return DualScalar(0.0, 0.0)
    return DualScalar(math.asinh(sinh_theta), float(vdu / sinh_theta))
