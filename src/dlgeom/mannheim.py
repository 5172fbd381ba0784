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
like every spec's, its closures evaluate whole arrays of samples, and real u as
u + eps*0: one route reads one base node and one quadrature of both angles, and
divides by the lifted indicatrix speed once, for both closures.  The
base and the constants c + eps*c* (:class:`MannheimParams`) fix the
offset, so :func:`construct_offset` takes just those, measures the base
and works the angles out itself.
:func:`verify_offset` measures in dual-AD only: it evaluates the base once, at
u + eps on the nodes of its measurement, reads the base frames off the real
parts and the offset's closures off the rest, re-measures the invariants from
the constructed offset at the grid nodes only (the relations are pointwise),
and reports residuals against the closed forms.  Angles, invariant records
and report samples are column records like the frames
(:class:`~dlgeom.ruled.Columns`): the closed forms and residuals run on whole
columns, and indexing gives one sample's row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual
from .dual import DualScalar, dual_vector, leading_real, re_part
from .errors import DegenerateOffset, ZeroConicalCurvature
from .lorentz import det3, lorentz_cross
from .numerics import integrate
from .ruled import (SPACELIKE_SURFACE, TIMELIKE_SURFACE, Columns, FrameSample,
                    RuledSurfaceSpec, darboux_frame, tangent_speed, timelike_radius, _exact_node,
                    _measure_frames, _node_pass, _striction_jet)

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


@dataclass(slots=True)
class OffsetAngle(Columns):
    """Offset angle theta and offset distance theta* along base arc length s."""

    s: float
    theta: float
    theta_star: float

    def as_dual(self) -> DualScalar:
        return DualScalar(self.theta, self.theta_star)


@dataclass(slots=True)
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


@dataclass(slots=True)
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


def _angles_at(rates, grid, table, u):
    """theta and theta* at real ``u``: each element's nearest-node row of ``table``, plus one
    :func:`~dlgeom.numerics.integrate` call of the rows' u-rates ``rates`` off the ``grid``."""
    shape = np.shape(u)
    u = np.ravel(u).astype(float)
    out = table
    if not np.array_equal(u, grid):
        j = np.clip(np.searchsorted(grid, u), 1, len(grid) - 1)
        i = j - (u - grid[j - 1] <= grid[j] - u)
        out, off = table[i], u != grid[i]
        if off.any():
            out[off] += integrate(rates, grid[i][off], u[off])
    return out[:, 0].reshape(shape)[()], out[:, 1].reshape(shape)[()]


def _chain_lift(x, u, rate):
    """F(u) from x = F at u's leading real and rate = F' at u.re, one dual level at a time."""
    if not isinstance(u, DualScalar):
        return x
    return DualScalar(_chain_lift(x, u.re, re_part(rate)), u.du * rate)


def _real_as_dual(f):
    """``f`` of a dual u, taking a real u as u + eps*0 and returning the real part."""
    return lambda u: f(u) if isinstance(u, DualScalar) else f(DualScalar(u, 0.0)).re


def construct_offset(base: RuledSurfaceSpec, params: MannheimParams) -> RuledSurfaceSpec:
    """Build the Mannheim offset surface of a spacelike base, in the base's parameter.

    The base is measured by :func:`~dlgeom.ruled.darboux_frame`, so one
    that is not spacelike raises ValueError at once.  The ruling is rotated
    into the timelike direction ``e1 = sinh(theta)*e + cosh(theta)*t`` and
    the striction line shifted by theta* along g.  theta(u) = c - s(u) and
    theta*(u) = c* - s*(u) take the values of ``offset_angles(frames,
    params)`` at the grid nodes and the rates -ds/du and -Delta*ds/du in
    between.  Every derivative is exact.  A real u is taken as u + eps*0,
    and at u both closures read one node (c, c', e, e', e'', ...) of the
    base striction jet at u.re, kept for the last u: c, e and e' are lifted
    from it as x + eps*u.du*x', and theta and theta* from their values at
    u's leading real by their rates -v and -det(c', e, e')/v at u.re,
    v = |e'|.  The node also keeps 1/v of the lifted e', so
    e1 = sinh(theta)*e + (cosh(theta)/v)*e' and c1 = c + (theta*/v)*(e' x e)
    divide by the lifted speed once between them.  The closures take arrays:
    off the nodes theta and theta* are one quadrature call per array, of
    both rates at once.  A stalling or non-finite gamma*cosh(theta) raises
    DegenerateOffset naming the first such s, and so does a gamma that
    changes sign between two nodes, naming both s.
    """
    return _build_offset(base, darboux_frame(base), params)


def _build_offset(base: RuledSurfaceSpec, frames: FrameSample, params: MannheimParams,
                  rows=None) -> RuledSurfaceSpec:
    """:func:`construct_offset` from the base ``frames``; given the lifted base ``rows`` of
    :func:`verify_offset`'s offset pass, its dual closures read them instead of the base."""
    angles = offset_angles(frames, params)
    with np.errstate(over="ignore"):
        speed1 = np.abs(frames.gamma * np.cosh(angles.theta))
    bad = ~np.isfinite(speed1) | (speed1 < OFFSET_DEGENERACY_TOL)
    if bad.any():
        i = np.argmax(bad)
        raise DegenerateOffset(f"gamma*cosh(theta) = {speed1[i]:.3e} at s={frames.s[i]}")
    # where gamma = 0 the offset ruling stalls: de1/ds = gamma*cosh(theta)*g
    flips = np.signbit(frames.gamma[1:]) != np.signbit(frames.gamma[:-1])
    if flips.any():
        i = np.argmax(flips)
        raise DegenerateOffset(
            f"gamma changes sign between s={frames.s[i]} and s={frames.s[i + 1]}")

    base_jet = _striction_jet(base)
    grid = base.grid()
    table = np.column_stack([angles.theta, angles.theta_star])

    def rates(u):
        _, cp, e, ep, *_ = _exact_node(base_jet, u)
        v = tangent_speed(ep, 1.0, u)
        return np.column_stack([-v, -det3(cp, e, ep) / v])

    # the striction jet of the offset calls its indicatrix, then its base
    # curve, at the same u: one entry keyed on u.re and u.du serves both
    memo = [None, None, None]

    def lifted(u):
        """c, e, e' and 1/v at u, v = |e'|, lifted from the base node at u.re, and the angles."""
        if memo[0] is not u.re or memo[1] is not u.du:
            c, cp, e, ep, epp, *_ = _exact_node(base_jet, u.re) if rows is None else rows
            lifts = [dual_vector(x, dx * u.du) for x, dx in ((c, cp), (e, ep), (ep, epp))]
            v = tangent_speed(lifts[2], 1.0, u)
            theta, theta_star = _angles_at(rates, grid, table, leading_real(u))
            # both closures divide by v: one dual division serves them
            memo[:] = u.re, u.du, (*lifts, 1.0 / v, _chain_lift(theta, u, -v.re),
                                   _chain_lift(theta_star, u, -det3(cp, e, ep) / v.re))
        return memo[2]

    def offset_indicatrix(u):
        _, e, ep, w, theta, _ = lifted(u)
        sh, ch = dual.sinh_cosh(theta)
        return sh * e + (ch * w) * ep

    def offset_striction(u):
        # theta* along g = -e x t = (e' x e)/v
        c, e, ep, w, _, theta_star = lifted(u)
        return c + (theta_star * w) * lorentz_cross(ep, e)

    return RuledSurfaceSpec(
        indicatrix=_real_as_dual(offset_indicatrix),
        base_curve=_real_as_dual(offset_striction),
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
    if (np.abs(gamma) < OFFSET_DEGENERACY_TOL).any():
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


def verify_offset(base: RuledSurfaceSpec, params: MannheimParams, *,
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

    Both measurements are dual-AD.  The offset measured by central
    differences is ``timelike_invariants(construct_offset(base, params),
    "central-fd")``, a cross-check with no verdict.  ``tolerance``,
    keyword-only, defaults to 1e-8; one that is not positive and finite
    raises ValueError, and so does a base that is not spacelike, before it
    is measured.
    """
    if base.kind != SPACELIKE_SURFACE:
        raise ValueError("verify_offset expects a spacelike-surface spec")
    if tolerance is None:
        tolerance = 1e-8
    if not 0.0 < tolerance < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    frames, rows = _measure_frames(base, lift=True)
    angles = offset_angles(frames, params)
    # the offset samples the base's domain at the base's count
    m = _node_pass(_build_offset(base, frames, params, rows), base.grid())[0]

    pred = predicted_invariants(frames.gamma, frames.delta, frames.Delta, angles)
    meas = InvariantRecord(
        ds1_ds=m.ds_du / frames.ds_du,
        Delta1=m.Delta,
        delta1=m.delta,
        gamma1=m.gamma,
        gamma1_dual=m.gamma_dual,
        R1_dual=timelike_radius(m.gamma_dual),
    )
    p, q = pred.quantities(), meas.quantities()
    residuals = {k: np.abs(p[k] - q[k]) for k in RESIDUAL_KEYS}

    residual_max = {k: float(v.max()) for k, v in residuals.items()}
    # summed in sample order, as a reader summing the reported rows would:
    # cumsum adds sequentially
    residual_mean = {k: float(v.cumsum()[-1]) / len(v) for k, v in residuals.items()}
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
    spread = angles.theta_star.max() - angles.theta_star.min()
    return DevelopabilityReport(
        base_developable=bool(np.abs(frames.Delta).max() <= tol),
        theta_star_constant=bool(spread <= tol * max(1.0, frames.s[-1] - frames.s[0])),
        offset_developable_locus=frames.s[np.abs(measured_frames.Delta) <= tol].tolist(),
        coth_singularities=frames.s[np.abs(angles.theta) < COTH_TOL].tolist(),
    )
