"""Mannheim offsets of spacelike ruled surfaces, with closed-form oracles.

Two ruled surfaces are Mannheim offsets when the g-axis of the base
surface's dual Darboux frame coincides with the t-axis of the offset's
frame.  For a spacelike base this forces, per unit arc length s,

    theta(s)  = -s + c,          theta*(s) = -int_0^s Delta + c*,
    e1 = sinh(theta)*e + cosh(theta)*t,     c1 = c + theta* * g,

where the dual angle theta + eps*theta* is the offset angle/distance pair.
The offset is a timelike surface with timelike ruling, and all of its
invariants have closed forms in (gamma, delta, Delta, theta, theta*):

    ds1/ds = gamma*cosh(theta)        Delta1 = -theta* tanh(theta) + delta/gamma
    delta1 = (delta/gamma) tanh(theta) - theta*        gamma1 = -tanh(theta)
    gamma1_dual = -tanh(theta_dual)   R1_dual = cosh(theta_dual)

The offset is built in the base spec's own parameter u, with
theta(u) = c - s(u) and theta*(u) = c* - s*(u) continued between the grid
nodes by their exact u-rates, so no arc-length reparametrization is needed.
:func:`verify_offset` builds the offset, re-measures those invariants from
the constructed geometry alone, and reports residuals against the closed
forms, which makes every relation above an executable check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dual
from .dual import DualAngle, DualScalar, re_part
from .errors import DegenerateOffset, ZeroConicalCurvature
from .lorentz import lorentz_cross
from .numerics import DEFAULT_CONFIG, NumericsConfig, value_and_derivative
from .ruled import (TIMELIKE_SURFACE, FrameSample, RuledSurfaceSpec, darboux_frame,
                    speed_closure, striction_jet, tangent_speed, timelike_invariants,
                    timelike_radius, _arc_rates, _exact_node, _signed_integral)

#: below this |gamma*cosh(theta)| the offset indicatrix stalls
OFFSET_DEGENERACY_TOL = 1e-10

#: |theta| below this makes the coth corollary singular
COTH_TOL = 1e-8


@dataclass(frozen=True)
class MannheimParams:
    """Integration constants of the offset angle and offset distance."""

    c: float
    c_star: float


@dataclass(frozen=True)
class OffsetAngle:
    """Offset angle theta and offset distance theta* at base arc length s."""

    s: float
    theta: float
    theta_star: float

    def as_dual(self) -> DualScalar:
        return DualScalar(self.theta, self.theta_star)

    def as_angle(self) -> DualAngle:
        return DualAngle(self.theta, self.theta_star)


@dataclass(frozen=True)
class InvariantRecord:
    """Offset invariants, either closed-form predictions or measurements."""

    ds1_ds: float
    Delta1: float
    delta1: float
    gamma1: float
    gamma1_dual: DualScalar
    R1_dual: DualScalar


@dataclass(frozen=True)
class OffsetSample:
    s: float
    theta: float
    theta_star: float
    predicted: InvariantRecord
    measured: InvariantRecord
    residuals: dict


@dataclass(frozen=True)
class DevelopabilityReport:
    """Developability verdicts for a Mannheim pair.

    The base surface is developable iff its distribution parameter
    vanishes, equivalently iff the offset distance is constant; the offset
    is developable exactly where theta* = (delta/gamma)*coth(theta),
    equivalently where Delta1 = 0.
    """

    base_developable: bool
    theta_star_constant: bool
    offset_developable_locus: list
    corollary_locus: list
    coth_singularities: list


@dataclass(frozen=True)
class OffsetReport:
    samples: list
    residual_max: dict
    residual_mean: dict
    developability: DevelopabilityReport
    tolerance: float
    passed: bool


RESIDUAL_KEYS = ("ds1_ds", "Delta1", "delta1", "gamma1",
                 "gamma1_dual_re", "gamma1_dual_du", "R1_re", "R1_du")


def offset_angles(frames: Sequence[FrameSample], params: MannheimParams) -> list[OffsetAngle]:
    """Offset angle/distance along the base grid.

    theta falls at unit rate in arc length; theta* accumulates the
    negative distribution parameter (already integrated into each frame's
    s_star, on the same grid).
    """
    return [OffsetAngle(f.s, params.c - f.s, params.c_star - f.s_star) for f in frames]


class _GridAntiderivative:
    """F(u) from values tabulated on a grid and the exact rate F' = ``rate``.

    Real evaluations start from the nearest node's value and add a local
    quadrature correction; dual evaluations carry the rate in the dual
    slot.  A caller already holding the rate at ``u.re`` may pass it, and
    its real part then serves the next nesting level.
    """

    def __init__(self, rate, grid, values):
        self.rate = rate
        self.grid = np.asarray(grid, dtype=float)
        self.values = np.asarray(values, dtype=float)

    def __call__(self, u, rate=None):
        if isinstance(u, DualScalar):
            if rate is None:
                rate = self.rate(u.re)
            return DualScalar(self(u.re, re_part(rate)), u.du * rate)
        j = int(np.searchsorted(self.grid, u))
        j = min(max(j, 1), len(self.grid) - 1)
        i = j - 1 if abs(u - self.grid[j - 1]) <= abs(u - self.grid[j]) else j
        node = float(self.grid[i])
        out = float(self.values[i])
        if u != node:
            out = out + _signed_integral(self.rate, node, u)
        return out


def construct_offset(base: RuledSurfaceSpec, frames: Sequence[FrameSample],
                     angles: Sequence[OffsetAngle]) -> RuledSurfaceSpec:
    """Build the Mannheim offset surface of a spacelike base, in the base's parameter.

    The ruling is rotated into the timelike direction
    ``e1 = sinh(theta)*e + cosh(theta)*t`` and the striction line shifted
    by theta* along g.  theta(u) = c - s(u) and theta*(u) = c* - s*(u) take
    the angles' values at the grid nodes and the rates -ds/du and
    -Delta*ds/du in between.  Every derivative is exact, whatever derivative
    mode measured ``frames``.
    """
    if not len(frames) == len(angles) == base.samples:
        raise ValueError("frames and angles must sample the base grid")
    c_const = angles[0].theta + angles[0].s
    for f, a in zip(frames, angles):
        if abs(f.s - a.s) > 1e-12 or abs(a.theta - (c_const - a.s)) > 1e-9:
            raise ValueError("offset angles do not follow theta = -s + c on the frame grid")
        if abs(f.gamma * math.cosh(a.theta)) < OFFSET_DEGENERACY_TOL:
            raise DegenerateOffset(
                f"gamma*cosh(theta) = {f.gamma * math.cosh(a.theta):.3e} at s={f.s}")

    ind = base.indicatrix
    base_jet = striction_jet(base)
    speed = speed_closure(base)
    grid = base.grid()
    theta = _GridAntiderivative(lambda u: -speed(u), grid, [a.theta for a in angles])
    theta_star = _GridAntiderivative(lambda u: -_arc_rates(_exact_node(base_jet, u), 1.0, u)[1],
                                     grid, [a.theta_star for a in angles])

    def offset_indicatrix(u):
        e, ep = value_and_derivative(ind, u)
        v = tangent_speed(ep, 1.0, u)
        th = theta(u, -re_part(v))
        return dual.sinh(th) * e + (dual.cosh(th) / v) * ep

    def offset_striction(u):
        c, e, ep = base_jet(u)
        g = -lorentz_cross(e, ep) / tangent_speed(ep, 1.0, u)
        return c + theta_star(u) * g

    return RuledSurfaceSpec(
        indicatrix=offset_indicatrix,
        base_curve=offset_striction,
        domain=base.domain,
        samples=base.samples,
        kind=TIMELIKE_SURFACE,
        name=f"{base.name}-mannheim-offset",
    )


def predicted_invariants(gamma: float, delta: float, Delta: float,
                         angle: OffsetAngle) -> InvariantRecord:
    """Closed-form offset invariants from the base invariants and the angle."""
    if abs(gamma) < OFFSET_DEGENERACY_TOL:
        raise ZeroConicalCurvature("offset invariants divide by gamma")
    th, ths = angle.theta, angle.theta_star
    thbar = angle.as_dual()
    tanh_th = math.tanh(th)
    return InvariantRecord(
        ds1_ds=gamma * math.cosh(th),
        Delta1=-ths * tanh_th + delta / gamma,
        delta1=(delta / gamma) * tanh_th - ths,
        gamma1=-tanh_th,
        gamma1_dual=-dual.tanh(thbar),
        R1_dual=dual.cosh(thbar),
    )


def mannheim_condition_residual(base_frame: FrameSample, offset_frame: FrameSample) -> float:
    """Max componentwise gap in the dual-vector condition t1_dual = g_dual."""
    lhs = offset_frame.dual_t()
    rhs = base_frame.dual_g()
    diff_re = lhs.re - rhs.re
    diff_du = lhs.du - rhs.du
    return max(abs(x) for x in (*diff_re, *diff_du))


def verify_offset(base: RuledSurfaceSpec, params: MannheimParams,
                  cfg: NumericsConfig = DEFAULT_CONFIG) -> OffsetReport:
    """Construct the offset and compare measured invariants to closed forms.

    The base may be in any regular parametrization.  The measured side
    re-derives every invariant from the constructed curves alone (timelike
    measurement pipeline), with ds1/ds as the offset speed over the base
    speed; the predicted side evaluates the closed forms.  Per-sample
    residuals, their maxima and means, and developability verdicts are
    returned; ``passed`` means all maxima sit below the configured theorem
    tolerance.
    """
    frames = darboux_frame(base, cfg)
    angles = offset_angles(frames, params)
    offset = construct_offset(base, frames, angles)
    measured_frames = timelike_invariants(offset, cfg)

    rows = []
    for f, a, m in zip(frames, angles, measured_frames):
        pred = predicted_invariants(f.gamma, f.delta, f.Delta, a)
        meas = InvariantRecord(
            ds1_ds=m.ds_du / f.ds_du,
            Delta1=m.Delta,
            delta1=m.delta,
            gamma1=m.gamma,
            gamma1_dual=m.gamma_dual,
            R1_dual=timelike_radius(m.gamma_dual).radius,
        )
        residuals = {
            "ds1_ds": abs(pred.ds1_ds - meas.ds1_ds),
            "Delta1": abs(pred.Delta1 - meas.Delta1),
            "delta1": abs(pred.delta1 - meas.delta1),
            "gamma1": abs(pred.gamma1 - meas.gamma1),
            "gamma1_dual_re": abs(pred.gamma1_dual.re - meas.gamma1_dual.re),
            "gamma1_dual_du": abs(pred.gamma1_dual.du - meas.gamma1_dual.du),
            "R1_re": abs(pred.R1_dual.re - meas.R1_dual.re),
            "R1_du": abs(pred.R1_dual.du - meas.R1_dual.du),
        }
        rows.append(OffsetSample(s=f.s, theta=a.theta, theta_star=a.theta_star,
                                 predicted=pred, measured=meas, residuals=residuals))

    residual_max = {k: max(r.residuals[k] for r in rows) for k in RESIDUAL_KEYS}
    residual_mean = {k: sum(r.residuals[k] for r in rows) / len(rows) for k in RESIDUAL_KEYS}
    tol = cfg.tolerance_theorem
    dev = developability_check(frames, angles, measured_frames, tol=tol)
    return OffsetReport(
        samples=rows,
        residual_max=residual_max,
        residual_mean=residual_mean,
        developability=dev,
        tolerance=tol,
        passed=all(v <= tol for v in residual_max.values()),
    )


def developability_check(frames: Sequence[FrameSample], angles: Sequence[OffsetAngle],
                         measured_frames: Sequence[FrameSample],
                         tol: float = 1e-8) -> DevelopabilityReport:
    """Developability verdicts for the base surface and its offset.

    Base: max|Delta| under tol, equivalently constant offset distance.
    Offset: samples where the measured Delta1 vanishes; the corollary
    locus re-derives the same set from theta* = (delta/gamma)*coth(theta),
    skipping samples where theta is too small for coth (recorded, not
    fatal).
    """
    base_developable = bool(max(abs(f.Delta) for f in frames) <= tol)
    spread = max(a.theta_star for a in angles) - min(a.theta_star for a in angles)
    theta_star_constant = bool(spread <= tol * max(1.0, frames[-1].s - frames[0].s))

    locus = [m_s for m_s, m in zip((f.s for f in frames), measured_frames)
             if abs(m.Delta) <= tol]
    corollary = []
    singular = []
    for f, a in zip(frames, angles):
        if abs(a.theta) < COTH_TOL:
            singular.append(f.s)
            continue
        coth_value = (f.delta / f.gamma) / math.tanh(a.theta)
        if abs(a.theta_star - coth_value) * abs(math.tanh(a.theta)) <= tol:
            corollary.append(f.s)
    return DevelopabilityReport(
        base_developable=base_developable,
        theta_star_constant=theta_star_constant,
        offset_developable_locus=locus,
        corollary_locus=corollary,
        coth_singularities=singular,
    )


@dataclass(frozen=True)
class RadiusCheck:
    radius: DualScalar
    expected: DualScalar
    residual_re: float
    residual_du: float
    dual_magnitude_residual: float


def radius_relations_check(gamma1_dual: DualScalar, angle: OffsetAngle) -> RadiusCheck:
    """Check R1 = cosh(theta_dual) and |dual(R1)| = |theta*|*sinh|theta|."""
    radius = timelike_radius(gamma1_dual).radius
    expected = dual.cosh(angle.as_dual())
    return RadiusCheck(
        radius=radius,
        expected=expected,
        residual_re=abs(radius.re - expected.re),
        residual_du=abs(radius.du - expected.du),
        dual_magnitude_residual=abs(abs(radius.du)
                                    - abs(angle.theta_star) * math.sinh(abs(angle.theta))),
    )
