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
nodes by their exact u-rates, so no arc-length reparametrization is needed;
like every spec's, its closures evaluate whole arrays of samples.
:func:`verify_offset` builds the offset, re-measures those invariants from
the constructed geometry alone, at the grid nodes only (the relations are
pointwise, so the offset's own s1 and s1* are not computed), and reports
residuals against the closed forms, which makes every relation above an
executable check.  Angles, invariant records and report samples are column
records like the frames (:class:`~dlgeom.ruled.Columns`): the closed forms
and residuals run on whole columns, and indexing gives one sample's row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual
from .dual import DualScalar, dual_vector, re_part
from .errors import DegenerateOffset, ZeroConicalCurvature
from .lorentz import lorentz_cross
from .numerics import DUAL_AD, value_and_derivative
from .ruled import (TIMELIKE_SURFACE, Columns, FrameSample, RuledSurfaceSpec, darboux_frame,
                    speed_closure, striction_jet, tangent_speed, timelike_radius, _arc_rates,
                    _exact_node, _node_pass, _signed_integral)

#: below this |gamma*cosh(theta)| the offset indicatrix stalls
OFFSET_DEGENERACY_TOL = 1e-10

#: |theta| below this makes the coth corollary singular
COTH_TOL = 1e-8


@dataclass(frozen=True)
class MannheimParams:
    """Integration constants of the offset angle and offset distance."""

    c: float
    c_star: float


RESIDUAL_KEYS = ("ds1_ds", "Delta1", "delta1", "gamma1",
                 "gamma1_dual_re", "gamma1_dual_du", "R1_re", "R1_du")


@dataclass(frozen=True, slots=True)
class OffsetAngle(Columns):
    """Offset angle theta and offset distance theta* along base arc length s."""

    s: float
    theta: float
    theta_star: float

    def as_dual(self) -> DualScalar:
        return DualScalar(self.theta, self.theta_star)


@dataclass(frozen=True, slots=True)
class InvariantRecord(Columns):
    """Offset invariants, either closed-form predictions or measurements."""

    ds1_ds: float
    Delta1: float
    delta1: float
    gamma1: float
    gamma1_dual: DualScalar
    R1_dual: DualScalar

    def quantities(self) -> dict:
        """The compared quantities, keyed by :data:`RESIDUAL_KEYS`."""
        return dict(zip(RESIDUAL_KEYS, (
            self.ds1_ds, self.Delta1, self.delta1, self.gamma1,
            self.gamma1_dual.re, self.gamma1_dual.du, self.R1_dual.re, self.R1_dual.du)))


@dataclass(frozen=True, slots=True)
class OffsetSample(Columns):
    """Angles, predicted and measured invariants and residuals along the base grid.

    ``residuals`` maps each of :data:`RESIDUAL_KEYS` to |predicted - measured|.
    """

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
    equivalently where Delta1 = 0.  ``coth_singularities`` lists the s
    where theta is too small for that corollary.
    """

    base_developable: bool
    theta_star_constant: bool
    offset_developable_locus: list
    coth_singularities: list


@dataclass(frozen=True)
class OffsetReport:
    """Outcome of :func:`verify_offset`: the sample columns and residual summaries."""

    samples: OffsetSample
    residual_max: dict
    residual_mean: dict
    developability: DevelopabilityReport
    tolerance: float
    passed: bool


def offset_angles(frames: FrameSample, params: MannheimParams) -> OffsetAngle:
    """Offset angle/distance along the base grid.

    theta falls at unit rate in arc length; theta* accumulates the
    negative distribution parameter (already integrated into the frames'
    s_star, on the same grid).
    """
    return OffsetAngle(frames.s, params.c - frames.s, params.c_star - frames.s_star)


class _GridAntiderivative:
    """F(u) from values tabulated on a grid and the exact rate F' = ``rate``.

    Real evaluations start from the nearest node's value and add a local
    quadrature correction; dual evaluations carry the rate in the dual
    slot, which the caller passes: ``rate`` is F' at ``u.re``, and its real
    part then serves the next nesting level.  ``u`` may be an
    array: the node lookup is elementwise, and the corrections of all
    off-node elements are one :func:`~dlgeom.numerics.integrate` call.
    """

    def __init__(self, rate, grid, values):
        self.rate = rate
        self.grid = np.asarray(grid, dtype=float)
        self.values = np.asarray(values, dtype=float)

    def __call__(self, u, rate=None):
        if isinstance(u, DualScalar):
            return DualScalar(self(u.re, re_part(rate)), u.du * rate)
        shape = np.shape(u)
        u = np.ravel(u).astype(float)
        j = np.clip(np.searchsorted(self.grid, u), 1, len(self.grid) - 1)
        left, right = self.grid[j - 1], self.grid[j]
        i = np.where(np.abs(u - left) <= np.abs(u - right), j - 1, j)
        node = self.grid[i]
        out = self.values[i]
        off = u != node
        if off.any():
            out[off] += _signed_integral(self.rate, node[off], u[off])
        return out.reshape(shape)[()]


def construct_offset(base: RuledSurfaceSpec, frames: FrameSample,
                     angles: OffsetAngle) -> RuledSurfaceSpec:
    """Build the Mannheim offset surface of a spacelike base, in the base's parameter.

    The ruling is rotated into the timelike direction
    ``e1 = sinh(theta)*e + cosh(theta)*t`` and the striction line shifted
    by theta* along g.  theta(u) = c - s(u) and theta*(u) = c* - s*(u) take
    the angles' values at the grid nodes and the rates -ds/du and
    -Delta*ds/du in between.  Every derivative is exact, whatever derivative
    mode measured ``frames``.  At a dual parameter u the offset's striction
    curve evaluates the base striction jet once, as the node (c, c', e, e',
    e'') at u.re: c, e and e' at u are lifted from it as x + eps*u.du*x',
    and theta*'s rate -det(c', e, e')/|e'| at u.re comes from the same node.
    The closures take arrays: each evaluates theta (or theta*) off the nodes
    with one local quadrature call per array.  A stalling or non-finite
    gamma*cosh(theta) raises DegenerateOffset naming the first such s, and
    so does a gamma that changes sign between two nodes, naming both s.
    """
    if not len(frames) == len(angles) == base.samples:
        raise ValueError("frames and angles must sample the base grid")
    c_const = angles.theta[0] + angles.s[0]
    if (np.any(np.abs(frames.s - angles.s) > 1e-12)
            or np.any(np.abs(angles.theta - (c_const - angles.s)) > 1e-9)):
        raise ValueError("offset angles do not follow theta = -s + c on the frame grid")
    with np.errstate(over="ignore"):
        speed1 = np.abs(frames.gamma * np.cosh(angles.theta))
    bad = ~np.isfinite(speed1) | (speed1 < OFFSET_DEGENERACY_TOL)
    if np.any(bad):
        i = np.argmax(bad)
        raise DegenerateOffset(f"gamma*cosh(theta) = {speed1[i]:.3e} at s={frames.s[i]}")
    # where gamma = 0 the offset ruling stalls: de1/ds = gamma*cosh(theta)*g
    flips = np.signbit(frames.gamma[1:]) != np.signbit(frames.gamma[:-1])
    if np.any(flips):
        i = np.argmax(flips)
        raise DegenerateOffset(
            f"gamma changes sign between s={frames.s[i]} and s={frames.s[i + 1]}")

    ind = base.indicatrix
    base_jet = striction_jet(base)
    speed = speed_closure(base)
    grid = base.grid()
    theta = _GridAntiderivative(lambda u: -speed(u), grid, angles.theta)
    theta_star = _GridAntiderivative(lambda u: -_arc_rates(_exact_node(base_jet, u), 1.0, u)[1],
                                     grid, angles.theta_star)

    def offset_indicatrix(u):
        e, ep = value_and_derivative(ind, u)
        v = tangent_speed(ep, 1.0, u)
        th = theta(u, -re_part(v))
        return dual.sinh(th) * e + (dual.cosh(th) / v) * ep

    def offset_striction(u):
        if isinstance(u, DualScalar):
            # one base node at u.re serves the jet at u and theta*'s rate there
            node = _exact_node(base_jet, u.re)
            c, cp, e, ep, epp = node

            def lift(x, dx):
                return dual_vector(x, dx * u.du)

            c, e, ep = lift(c, cp), lift(e, ep), lift(ep, epp)
            th_star = theta_star(u, -_arc_rates(node, 1.0, u.re)[1])
        else:
            c, e, ep = base_jet(u)
            th_star = theta_star(u)
        g = -lorentz_cross(e, ep) / tangent_speed(ep, 1.0, u)
        return c + th_star * g

    return RuledSurfaceSpec(
        indicatrix=offset_indicatrix,
        base_curve=offset_striction,
        domain=base.domain,
        samples=base.samples,
        kind=TIMELIKE_SURFACE,
        name=f"{base.name}-mannheim-offset",
    )


def predicted_invariants(gamma, delta, Delta, angle: OffsetAngle) -> InvariantRecord:
    """Closed-form offset invariants from the base invariants and the angle.

    Takes one sample (floats and a row angle) or columns (arrays and a
    column angle) alike.
    """
    if np.any(np.abs(gamma) < OFFSET_DEGENERACY_TOL):
        raise ZeroConicalCurvature("offset invariants divide by gamma")
    th, ths = angle.theta, angle.theta_star
    thbar = angle.as_dual()
    tanh_th = dual.tanh(th)
    return InvariantRecord(
        ds1_ds=gamma * dual.cosh(th),
        Delta1=-ths * tanh_th + delta / gamma,
        delta1=(delta / gamma) * tanh_th - ths,
        gamma1=-tanh_th,
        gamma1_dual=-dual.tanh(thbar),
        R1_dual=dual.cosh(thbar),
    )


def mannheim_condition_residual(base_frame: FrameSample, offset_frame: FrameSample) -> float:
    """Largest componentwise gap in the dual-vector condition t1_dual = g_dual.

    Takes one sample's rows or whole frame columns; on columns the gap is
    the largest over the grid.
    """
    lhs, rhs = offset_frame.dual_t(), base_frame.dual_g()
    return float(np.max(np.abs([*(lhs.re - rhs.re), *(lhs.du - rhs.du)])))


def verify_offset(base: RuledSurfaceSpec, params: MannheimParams, deriv: str = DUAL_AD,
                  tolerance: float | None = None) -> OffsetReport:
    """Construct the offset and compare measured invariants to closed forms.

    The base may be in any regular parametrization.  The measured side
    re-derives every invariant from the constructed curves alone, by the
    timelike measurement on the grid nodes only (every compared quantity is
    pointwise, so the offset's s1 and s1* are not integrated), with ds1/ds
    as the offset speed over the base speed; the predicted side evaluates
    the closed forms.  Both sides and the residuals are computed as columns
    over the grid and returned as one :class:`OffsetSample`, with the
    residuals' maxima and means and the developability verdicts; ``passed``
    means all maxima sit below the theorem tolerance.

    ``deriv`` is the derivative mode of both measurements (see
    :func:`dlgeom.ruled.darboux_frame`).  ``tolerance`` defaults to 1e-8 in
    dual-AD mode and 1e-6 in central-fd mode; one that is not positive and
    finite raises ValueError, as does an unknown ``deriv``.
    """
    if tolerance is None:
        tolerance = 1e-8 if deriv == DUAL_AD else 1e-6
    if not 0.0 < tolerance < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    frames = darboux_frame(base, deriv)
    angles = offset_angles(frames, params)
    offset = construct_offset(base, frames, angles)
    m = _node_pass(offset, deriv)[0]

    pred = predicted_invariants(frames.gamma, frames.delta, frames.Delta, angles)
    meas = InvariantRecord(
        ds1_ds=m.ds_du / frames.ds_du,
        Delta1=m.Delta,
        delta1=m.delta,
        gamma1=m.gamma,
        gamma1_dual=m.gamma_dual,
        R1_dual=timelike_radius(m.gamma_dual).radius,
    )
    p, q = pred.quantities(), meas.quantities()
    residuals = {k: np.abs(p[k] - q[k]) for k in RESIDUAL_KEYS}

    residual_max = {k: float(np.max(v)) for k, v in residuals.items()}
    # summed in sample order, as a reader summing the reported rows would
    residual_mean = {k: sum(v.tolist()) / len(v) for k, v in residuals.items()}
    return OffsetReport(
        samples=OffsetSample(s=frames.s, theta=angles.theta, theta_star=angles.theta_star,
                             predicted=pred, measured=meas, residuals=residuals),
        residual_max=residual_max,
        residual_mean=residual_mean,
        developability=developability_check(frames, angles, m, tol=tolerance),
        tolerance=tolerance,
        passed=all(v <= tolerance for v in residual_max.values()),
    )


def developability_check(frames: FrameSample, angles: OffsetAngle, measured_frames,
                         tol: float = 1e-8) -> DevelopabilityReport:
    """Developability verdicts for the base surface and its offset.

    Base: max|Delta| under tol, equivalently constant offset distance.
    Offset: samples where the measured Delta1 (``measured_frames.Delta``,
    the one column read) vanishes.  Samples where theta is too small for
    the coth corollary are recorded, not fatal.
    """
    spread = np.max(angles.theta_star) - np.min(angles.theta_star)
    return DevelopabilityReport(
        base_developable=bool(np.max(np.abs(frames.Delta)) <= tol),
        theta_star_constant=bool(spread <= tol * max(1.0, frames.s[-1] - frames.s[0])),
        offset_developable_locus=frames.s[np.abs(measured_frames.Delta) <= tol].tolist(),
        coth_singularities=frames.s[np.abs(angles.theta) < COTH_TOL].tolist(),
    )
