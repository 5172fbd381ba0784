"""Oriented non-null lines and their dual-unit-vector representation.

A line through point p with unit direction a maps to the dual vector
``a + eps*(p x a)``; the moment ``p x a`` does not depend on the choice of
p along the line.  The map is a bijection onto the dual unit vectors of
the matching causal character (E. Study correspondence), so geometry of
lines becomes geometry of dual spherical points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dual import dual_vector
from .errors import InvalidDirection, NotUnit
from .lorentz import Vec3L, lorentz_cross, lorentz_dot

#: tolerance of the unit conditions <a,a> = +-1, <a,a*> = 0
UNIT_TOL = 1e-9


def _unit_sign(direction: Vec3L, exc, what: str) -> float:
    """Return <d,d> snapped to +-1, or raise ``exc``."""
    q = lorentz_dot(direction, direction)
    if abs(q - 1.0) <= UNIT_TOL:
        return 1.0
    if abs(q + 1.0) <= UNIT_TOL:
        return -1.0
    raise exc(f"{what}: <d,d> = {q!r} is not +-1 within {UNIT_TOL}")


@dataclass(frozen=True)
class OrientedLine:
    """Line fixed by any of its points and a unit non-lightlike direction."""

    point: Vec3L
    direction: Vec3L

    def __post_init__(self):
        _unit_sign(self.direction, InvalidDirection, "line direction")


def line_to_dual(line: OrientedLine) -> Vec3L:
    """Dual unit vector direction + eps*(point x direction) of a line."""
    return dual_vector(line.direction, lorentz_cross(line.point, line.direction))


def dual_to_line(d: Vec3L) -> OrientedLine:
    """Recover the line behind a dual unit vector.

    The candidate foot point is ``-<a,a> * (a x a*)``; the sign factor is
    the causal-class correction the Lorentzian metric requires (for
    spacelike lines the plain cross product lands on the reflected point).
    The construction is then checked: the recovered point must reproduce
    the moment.
    """
    a, a_star = d.re, d.du
    sign = _unit_sign(a, NotUnit, "dual vector direction part")
    m = lorentz_dot(a, a_star)
    if abs(m) > UNIT_TOL:
        raise NotUnit(f"<a, a*> = {m!r} violates the unit condition")
    point = -sign * lorentz_cross(a, a_star)
    back = lorentz_cross(point, a)
    err = max(abs(back.x1 - a_star.x1), abs(back.x2 - a_star.x2), abs(back.x3 - a_star.x3))
    if err > 1e-6:
        raise NotUnit(f"recovered point fails moment reproduction by {err:.3e}")
    return OrientedLine(point, a)
