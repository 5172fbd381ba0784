"""Closed-form test surfaces: a spacelike cone and a helicoidal family.

Both share the unit-speed spacelike indicatrix

    e(s) = (b*sinh(s/b), b*cosh(s/b), a),      a^2 + b^2 = 1,

whose tangent is unit timelike, with constant conical curvature a/b.  The
cone keeps its striction point fixed; the helicoidal surface adds a
striction curve with c' = delta0*e + Delta0*g, so its invariants are the
constants (a/b, delta0, Delta0).  All closures evaluate over dual scalars.

Far from u = 0 the closures lose precision: the components of e and e' grow
like exp(|u/b|)/2 while <e', e'> stays -1.  The measured frame residual
passes 1e-6 from about |u/b| = 12 (the helicoidal's striction check, at
1e-8, from about 10), and <e', e'> cancels to 0 past about |u/b| = 18,
where measurement reports a null e' (DegenerateIndicatrix).
"""

from __future__ import annotations

from . import dual
from .lorentz import ZERO, Vec3L
from .ruled import SPACELIKE_SURFACE, RuledSurfaceSpec

PARAM_TOL = 1e-9


def _check_ab(a: float, b: float) -> None:
    if abs(a * a + b * b - 1.0) > PARAM_TOL:
        raise ValueError(f"catalog needs a^2 + b^2 = 1, got {a * a + b * b}")
    if b == 0.0:
        raise ValueError("catalog needs b != 0")


def _indicatrix(a: float, b: float):
    def e(u):
        sh, ch = dual.sinh_cosh(u / b)
        return Vec3L(b * sh, b * ch, a)

    return e


def cone(a: float = 0.6, b: float = 0.8, c0: Vec3L = ZERO,
         domain=(0.0, 1.0), samples: int = 101) -> RuledSurfaceSpec:
    """Spacelike cone: striction point fixed at c0, gamma = a/b, delta = Delta = 0."""
    _check_ab(a, b)
    return RuledSurfaceSpec(
        indicatrix=_indicatrix(a, b),
        base_curve=lambda u: c0,
        domain=tuple(domain),
        samples=samples,
        kind=SPACELIKE_SURFACE,
        name="cone",
    )


def helicoidal(a: float = 0.6, b: float = 0.8, delta0: float = 0.2, Delta0: float = 0.1,
               c0: Vec3L = ZERO, domain=(0.0, 1.0), samples: int = 101) -> RuledSurfaceSpec:
    """Helicoidal surface with constant invariants (a/b, delta0, Delta0).

    The striction curve is assembled from antiderivatives of e and of
    g = (a*sinh(s/b), a*cosh(s/b), -b), giving c' = delta0*e + Delta0*g.
    """
    _check_ab(a, b)

    def c(u):
        sh, ch = dual.sinh_cosh(u / b)
        int_e = Vec3L(b * b * ch, b * b * sh, a * u)
        int_g = Vec3L(a * b * ch, a * b * sh, -b * u)
        return c0 + delta0 * int_e + Delta0 * int_g

    return RuledSurfaceSpec(
        indicatrix=_indicatrix(a, b),
        base_curve=c,
        domain=tuple(domain),
        samples=samples,
        kind=SPACELIKE_SURFACE,
        name="helicoidal",
    )
