"""Ruled surfaces as dual spherical curves: frames, invariants, reconstruction.

A spacelike ruled surface ``phi(s, v) = c(s) + v*e(s)`` is carried by the
dual curve ``e + eps*(c x e)``.  Per unit arc length s of the indicatrix
the moving frame {e, t, g} with t = de/ds, g = -e x t obeys

    e' = t,   t' = e + gamma*g,   g' = gamma*t,

and the surface is pinned up to placement by the invariant functions
gamma (conical curvature), delta = <c', e> and Delta = det(c', e, t) (the
distribution parameter; zero exactly for developable surfaces).  Surfaces
with timelike rulings, which Mannheim offsetting produces, share the same
measurement with the opposite causal characters.

Frames are measured in the spec's own parameter u, whatever it is: each
sample is read off one evaluation of the striction jet (c, c', e, e', e''),
every u-derivative is divided by the indicatrix speed v = ds/du (exact
chain rule), gamma = det(e, e', e'')/v^3, and s and the accumulated
distribution parameter s* come from quadrature of their u-rates, so no
reparametrization is needed.  Curve closures are duck-typed over dual
scalars, so every derivative is exact forward differentiation.  The
central-fd mode of the ``deriv`` argument differences the same exact nodes
at u +- FD_STEP, and only for c' in delta and Delta and for e'' in gamma:
the frame {e, t, g}, s, s* and the striction check are exact in both modes.
Constructions (striction solve, reconstruction) take no derivative mode.

Closures are evaluated over arrays of samples: a measurement is one pass
that calls each closure once on all of its parameter values (float arrays,
or dual scalars with array leaves), the quadrature points included (a
1001-sample grid measures about 2015 points, and central-fd adds the 2002
shifted nodes), and every check reports the first offending parameter of
the pass.

Measurements come back as one record per grid, holding one column per
field (:class:`Columns`): ``frames.gamma`` is an array over the grid, and
``frames[i]`` is the same record for sample i, with float leaves.  The
closed forms of this module and of :mod:`dlgeom.mannheim` run on either.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dual
from .dual import DualScalar, dual_norm, dual_vector, leading_real
from .errors import (DegenerateIndicatrix, FrameDegeneracy, GeometryError, NonFinite,
                     NullDarboux, StepSizeError)
from .lorentz import Vec3L, det3, lorentz_cross, lorentz_dot
from .numerics import (CENTRAL_FD, DRIFT_TOL, DUAL_AD, FD_STEP, ODE_STEPS_PER_UNIT, at_points,
                       cumulative_integrate, frame_residual, integrate, lorentz_gram_schmidt,
                       simpson_midpoints, simpson_rule, value_and_derivative)

SPACELIKE_SURFACE = "spacelike-surface"
TIMELIKE_SURFACE = "timelike-surface"

#: below this squared indicatrix speed the ruling direction is stalling
SPEED_TOL = 1e-10

#: orthonormality ceiling for computed frames
FRAME_TOL = 1e-6


@dataclass(frozen=True)
class RuledSurfaceSpec:
    """A ruled surface given by closed-form curves.

    ``indicatrix`` is the unit ruling direction e(u) and ``base_curve`` any
    directrix; both must accept dual-scalar parameters.  ``kind`` selects
    the causal setup: a spacelike surface has a unit spacelike ruling with
    timelike indicatrix tangent, a timelike surface (timelike ruling) the
    opposite pair of characters.
    """

    indicatrix: Callable
    base_curve: Callable
    domain: tuple
    samples: int
    kind: str = SPACELIKE_SURFACE
    name: str = "custom"

    def __post_init__(self):
        if self.kind not in (SPACELIKE_SURFACE, TIMELIKE_SURFACE):
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not self.domain[0] <= self.domain[1]:
            raise ValueError(f"empty domain {self.domain}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.domain[0], self.domain[1], self.samples)

    def ruling_sign(self) -> float:
        """+1 for a spacelike ruling, -1 for a timelike one."""
        return 1.0 if self.kind == SPACELIKE_SURFACE else -1.0


def _row(x, i: int):
    """Element ``i`` of a column: an array, a Vec3L, DualScalar or dict of arrays, or a record."""
    if isinstance(x, np.ndarray):
        return x.item(i)
    if isinstance(x, Vec3L):
        return Vec3L.from_checked(x.x1.item(i), x.x2.item(i), x.x3.item(i))
    if isinstance(x, DualScalar):
        return DualScalar(x.re.item(i), x.du.item(i))
    if isinstance(x, dict):
        return {k: _row(v, i) for k, v in x.items()}
    return x[i]


def _rows(x) -> list:
    """Every element of a column, as :func:`_row` gives them, converting each leaf array once.

    A Vec3L column was checked finite when it was built, so its rows are
    not checked again.
    """
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, Vec3L):
        rows = Vec3L.from_checked
        return [rows(*row) for row in zip(*(v.tolist() for v in x))]
    if isinstance(x, DualScalar):
        return [DualScalar(*row) for row in zip(x.re.tolist(), x.du.tolist())]
    if isinstance(x, dict):
        return [dict(zip(x, row)) for row in zip(*(_rows(v) for v in x.values()))]
    return list(x)


class Columns:
    """Rows of a frozen slots dataclass whose fields each hold one column.

    A column is a 1-D float array, or a Vec3L, DualScalar or dict of such
    arrays, or another such record.  ``len`` is the length of the first
    field, and ``record[i]`` is the same class with Python-float leaves, so
    ``zip`` and negative indices work as on a list of rows;
    ``record[len(record)]`` raises IndexError.  Iteration gives the same
    rows, converting each column once.  A row has no length.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __getitem__(self, i: int):
        return type(self)(*(_row(getattr(self, name), i) for name in self.__slots__))

    def __iter__(self):
        cls = type(self)
        return (cls(*row) for row in zip(*(_rows(getattr(self, name)) for name in self.__slots__)))


@dataclass(frozen=True, slots=True)
class FrameSample(Columns):
    """Frames and invariants of the rulings of a grid, one column per field.

    ``s`` is the indicatrix arc length and ``s_star`` the dual slot of the
    dual arc length (the accumulated distribution parameter), both anchored
    at parameter 0.  ``gamma_dual`` packs the dual conical curvature and
    ``ds_du`` is the indicatrix speed in the spec's own parameter.  A
    measurement returns one record with array leaves; ``frames[i]`` is the
    record of sample i, with float leaves.
    """

    s: float
    e: Vec3L
    t: Vec3L
    g: Vec3L
    gamma: float
    delta: float
    Delta: float
    s_star: float
    gamma_dual: DualScalar
    striction_point: Vec3L
    ds_du: float = 1.0

    def dual_e(self) -> Vec3L:
        return dual_vector(self.e, lorentz_cross(self.striction_point, self.e))

    def dual_t(self) -> Vec3L:
        return dual_vector(self.t, lorentz_cross(self.striction_point, self.t))

    def dual_g(self) -> Vec3L:
        return dual_vector(self.g, lorentz_cross(self.striction_point, self.g))


@dataclass(frozen=True)
class DualCurvature:
    """Radius of curvature data of the dual spherical image."""

    R_dual: DualScalar
    rho_dual: DualScalar
    darboux_unit: Vec3L


@dataclass(frozen=True)
class InvariantProfile:
    """Invariant functions plus the initial frame that seeds reconstruction."""

    gamma: Callable
    delta: Callable
    Delta: Callable
    e0: Vec3L
    t0: Vec3L
    g0: Vec3L
    c0: Vec3L

    def __post_init__(self):
        res = frame_residual(self.e0, self.t0, self.g0)
        gref = -lorentz_cross(self.e0, self.t0)
        res = max(res, *(abs(x - y) for x, y in zip(self.g0, gref)))
        # written so that a NaN residual (overflowing Gram entries) fails too
        if not res <= 1e-9:
            raise FrameDegeneracy(f"initial frame off orthonormality by {res:.3e}")

    @classmethod
    def from_constants(cls, gamma: float, delta: float, Delta: float,
                       e0: Vec3L, t0: Vec3L, g0: Vec3L, c0: Vec3L) -> "InvariantProfile":
        return cls(lambda s: gamma, lambda s: delta, lambda s: Delta, e0, t0, g0, c0)


# ---------------------------------------------------------------------------
# parametrization and striction

def _first_u(mask, u) -> float:
    """The first parameter value of ``u`` (scalar, array or dual) where ``mask`` holds."""
    u = np.asarray(leading_real(u), dtype=float)
    return float(u.ravel()[np.argmax(np.broadcast_to(mask, u.shape).ravel())])


def tangent_speed(ep, sign: float, u):
    """Indicatrix speed ds/du = sqrt(-sign*<e', e'>), dual- and array-capable.

    ``sign`` is the ruling sign; the tangent e' must have the opposite
    causal character.  A vanishing speed raises DegenerateIndicatrix, a
    tangent of the wrong character FrameDegeneracy, each naming the first
    offending parameter of ``u``.
    """
    q = -sign * lorentz_dot(ep, ep)
    q_re = leading_real(q)
    stalled = np.abs(q_re) < SPEED_TOL ** 2
    if np.any(stalled):
        raise DegenerateIndicatrix(f"indicatrix speed vanishes near u={_first_u(stalled, u)}")
    wrong = q_re < 0.0
    if np.any(wrong):
        raise FrameDegeneracy(
            f"indicatrix tangent has the wrong causal character near u={_first_u(wrong, u)}")
    return dual.sqrt(q)


def speed_closure(spec: RuledSurfaceSpec):
    """Indicatrix speed |e'(u)| as a dual-capable closure (see tangent_speed)."""
    sign = spec.ruling_sign()

    def v(u):
        return tangent_speed(value_and_derivative(spec.indicatrix, u)[1], sign, u)

    return v


def striction_jet(spec: RuledSurfaceSpec):
    """Closure returning (c(u), e(u), e'(u)) with c the striction curve.

    Solves c = p + lam*e with lam = -<p', e'>/<e', e'>; the division by the
    tangent's quadratic form keeps the sign right in both causal setups.
    The solve is part of constructing the geometry, so its internal
    derivatives are exact regardless of the measurement mode.
    """
    ind, base = spec.indicatrix, spec.base_curve

    def jet(u):
        e, ep = value_and_derivative(ind, u)
        q = lorentz_dot(ep, ep)
        stalled = np.abs(leading_real(q)) < SPEED_TOL ** 2
        if np.any(stalled):
            raise DegenerateIndicatrix(
                f"striction undefined: e' vanishes near u={_first_u(stalled, u)}")
        p, pp = value_and_derivative(base, u)
        lam = -lorentz_dot(pp, ep) / q
        return p + lam * e, e, ep

    return jet


def _exact_node(jet, u):
    """(c, c', e, e', e'') at u, all read off one evaluation of a striction jet at u + eps.

    e'' is the dual slot of e', and ``u`` may itself be dual.
    """
    c, e, ep = jet(DualScalar(u, 1.0))
    return c.re, c.du, e.re, ep.re, ep.du


def _arc_rates(node, sign: float, u, v=None):
    """(ds/du, ds*/du) = (|e'|, sign*det(c', e, e')/|e'|) from a node (c, c', e, e', e'').

    ``sign`` is the ruling sign; it fixes the sign of s* and the causal
    character e' must have.  ``v``, if given, is the speed
    ``tangent_speed(e', sign, u)`` of this node, already computed and checked.
    """
    _, cp, e, ep, _ = node
    if v is None:
        v = tangent_speed(ep, sign, u)
    return v, sign * det3(cp, e, ep) / v


def arclength_reparametrize(spec: RuledSurfaceSpec) -> RuledSurfaceSpec:
    """Re-parametrize so the indicatrix moves at unit speed.

    Frame measurement does not need this (it works in any parametrization);
    it is for callers that want unit-speed curves.  Arc length is anchored
    at parameter 0.  The inverse map is solved by a dense cumulative table
    plus Newton refinement, and its derivative comes from the
    inverse-function rule 1/|e'|, so reparametrized curves stay exactly
    differentiable over dual scalars.  The inverse works elementwise on
    arrays of s.  Specs already at unit speed are returned unchanged.
    Raises GeometryError if Newton stalls or if the arc length of u(s)
    misses s by more than 1e-8 on the output grid.
    """
    v = speed_closure(spec)

    def speeds(us):
        with at_points(us):
            return v(us)

    grid = spec.grid()
    if np.max(np.abs(speeds(grid) - 1.0)) <= 1e-10:
        return spec

    u0, u1 = spec.domain
    n_dense = max(512, 8 * max(spec.samples - 1, 1))
    dense = np.linspace(u0, u1, n_dense + 1)
    table = integrate(speeds, 0.0, u0) + cumulative_integrate(
        dense, speeds(dense), speeds(simpson_midpoints(dense)))

    def u_of_s(sb):
        if isinstance(sb, DualScalar):
            ub = u_of_s(sb.re)
            return DualScalar(ub, sb.du / v(ub))
        s_arr = np.ravel(sb).astype(float)
        i = np.clip(np.searchsorted(table, s_arr), 1, n_dense)
        w = (s_arr - table[i - 1]) / (table[i] - table[i - 1])
        u = dense[i - 1] + w * (dense[i] - dense[i - 1])
        # Newton per element; an element stops once its own step is small
        active = np.ones(u.shape, dtype=bool)
        step = np.zeros(u.shape)
        for _ in range(8):
            ia, ua = i[active], u[active]
            s_here = table[ia - 1] + integrate(speeds, dense[ia - 1], ua)
            step[active] = (s_here - s_arr[active]) / speeds(ua)
            u[active] = ua - step[active]
            active &= np.abs(step) > 1e-14 * np.maximum(1.0, np.abs(u))
            if not active.any():
                return u.reshape(np.shape(sb))[()]
        raise GeometryError(f"reparametrization: Newton stalled at s={_first_u(active, s_arr)} "
                            f"(last step {step[active].flat[0]:.3e})")

    out = RuledSurfaceSpec(
        indicatrix=lambda sb: spec.indicatrix(u_of_s(sb)),
        base_curve=lambda sb: spec.base_curve(u_of_s(sb)),
        domain=(float(table[0]), float(table[-1])),
        samples=spec.samples,
        kind=spec.kind,
        name=spec.name,
    )
    # round trip through an independent quadrature from parameter 0, so a
    # wrong table cannot confirm itself
    s_grid = out.grid()
    worst = np.max(np.abs(integrate(speeds, 0.0, u_of_s(s_grid)) - s_grid))
    if worst > 1e-8:
        raise GeometryError(f"reparametrization failed: arc-length round trip off by {worst:.3e}")
    return out


# ---------------------------------------------------------------------------
# frames and invariants

def _columns(u: np.ndarray, *values) -> np.ndarray:
    """One row per value, one column per parameter value of ``u``; constants fill their row."""
    out = np.empty((len(values), len(u)))
    for row, x in zip(out, values):
        row[...] = x
    return out


def _node_rows(node, rows: slice):
    """The rows ``rows`` of a node (c, c', e, e', e'') evaluated on an array of parameters.

    Components that came back constant stay constant.
    """
    return tuple(Vec3L.from_checked(*(x[rows] if np.ndim(x) else x for x in vec))
                 for vec in node)


#: frame columns on a spec's grid: the fields of FrameSample but s and s_star
_NodeFrames = namedtuple("_NodeFrames", "e t g gamma delta Delta gamma_dual striction_point ds_du")


def _node_pass(spec: RuledSurfaceSpec, deriv: str, extra=np.empty(0)):
    """Frame columns on the spec's grid, and the u-rates of s and s* there and at ``extra``.

    Each grid sample comes from one node (c, c', e, e', e'') in the spec's
    parameter u; derivatives are divided by the indicatrix speed v = ds/du.
    The ruling sign fixes the frame signature, (+, -, +) or (-, +, +), the
    sign of s* (+int Delta ds or -int Delta ds) and that of gamma_dual's
    dual slot (-(delta + gamma*Delta) or +).  In both classes gamma =
    -<dg/ds, t> = det(e, e', e'')/v^3.

    The pass is one exact node evaluation, that is one call of each spec
    closure, on the grid, then (central-fd mode only) the grid shifted by
    +FD_STEP and by -FD_STEP, then ``extra``.  In both modes c, e, e', the
    speed v, t, g, the frame and striction checks and the rates come from
    the grid nodes; central-fd replaces only the c' of delta and Delta, and
    e'', by central differences of the real parts of the shifted nodes.
    The checks run in this order over the whole pass, so an error names the
    first offending point of the first check that fails: the closure
    outputs as they are split into nodes, then the frame checks on the
    grid, then the speed at ``extra``.  Returns the node columns and the
    rates (ds/du, ds*/du) as rows, on the grid and on ``extra``.  A
    ``deriv`` other than DUAL_AD or CENTRAL_FD raises ValueError.
    """
    if deriv not in (DUAL_AD, CENTRAL_FD):
        raise ValueError(f"unknown derivative mode {deriv!r}")
    sign = spec.ruling_sign()
    grid = spec.grid()
    k = len(grid)
    shifts = [grid + FD_STEP, grid - FD_STEP] if deriv == CENTRAL_FD else []
    points = np.concatenate([grid, *shifts, extra])
    end = len(points) - len(extra)
    with at_points(points):
        node = _exact_node(striction_jet(spec), points)
        exact, *shifted = (_node_rows(node, slice(i, i + k)) for i in range(0, end, k))
        point, cp, e, ep, epp = exact
        dc = cp  # the c' of delta and Delta
        if shifted:
            (c_hi, _, _, ep_hi, _), (c_lo, _, _, ep_lo, _) = shifted
            dc, epp = (c_hi - c_lo) / (2.0 * FD_STEP), (ep_hi - ep_lo) / (2.0 * FD_STEP)
        v = tangent_speed(ep, sign, grid)
        t = ep / v
        g = -lorentz_cross(e, t)
        res = frame_residual(e, t, g, signs=(sign, -sign, 1.0))
        bad = res > FRAME_TOL
        if np.any(bad):
            raise FrameDegeneracy(
                f"frame residual up to {np.max(res):.3e}, first over {FRAME_TOL:.0e} "
                f"at u={_first_u(bad, grid)}")
        gamma = det3(e, ep, epp) / (v * v * v)
        # the striction condition belongs to the constructed striction curve,
        # so it reads the exact c' in both modes
        off = np.abs(lorentz_dot(cp, t)) > 1e-8
        if np.any(off):
            raise FrameDegeneracy(f"striction condition violated at u={_first_u(off, grid)}")
        cs = dc / v
        table = _columns(grid, *point, *e, *t, *g, gamma, lorentz_dot(cs, e), det3(cs, e, t), v,
                         *_arc_rates(exact, sign, grid, v))
        rates = np.zeros((2, 0))
        if len(extra):
            rates = _columns(extra, *_arc_rates(_node_rows(node, slice(end, None)), sign, extra))
    p1, p2, p3, e1, e2, e3, t1, t2, t3, g1, g2, g3, gamma, delta, Delta, v, _, _ = table
    nodes = _NodeFrames(
        e=Vec3L(e1, e2, e3), t=Vec3L(t1, t2, t3), g=Vec3L(g1, g2, g3), gamma=gamma, delta=delta,
        Delta=Delta, gamma_dual=DualScalar(gamma, -sign * (delta + gamma * Delta)),
        striction_point=Vec3L(p1, p2, p3), ds_du=v)
    return nodes, table[-2:].T, rates.T


def _measure_frames(spec: RuledSurfaceSpec, deriv: str) -> FrameSample:
    """Frame columns of either causal class, per unit arc length, on the spec's grid.

    s and s* accumulate from parameter 0: the node pass also evaluates the
    Simpson points of their signed head integral from 0 (but its end, the
    first node), then the Simpson midpoints of their integral over the grid.
    """
    grid = spec.grid()
    head, head_fold = simpson_rule(0.0, float(grid[0]))
    # the head integral ends on the first node, whose rates come with the frame
    on_node = head == grid[0]
    nodes, node_rates, rates = _node_pass(
        spec, deriv, np.concatenate([head[~on_node], simpson_midpoints(grid)]))
    m = np.count_nonzero(~on_node)
    head_rates = np.empty((len(head), 2))
    head_rates[on_node], head_rates[~on_node] = node_rates[0], rates[:m]
    arcs = head_fold(head_rates) + cumulative_integrate(grid, node_rates, rates[m:])
    return FrameSample(s=arcs[:, 0], s_star=arcs[:, 1], **nodes._asdict())


def darboux_frame(spec: RuledSurfaceSpec, deriv: str = DUAL_AD) -> FrameSample:
    """Frame columns of a spacelike-ruling spec, in any regular parametrization.

    gamma = -<dg/ds, t> (valid because <t,t> = -1), delta = <dc/ds, e>,
    Delta = det(dc/ds, e, t); the dual conical curvature combines them as
    gamma - eps*(delta + gamma*Delta), and s* accumulates +Delta ds.
    ``deriv`` is the derivative mode of gamma, delta and Delta, DUAL_AD
    (exact) or CENTRAL_FD (steps of FD_STEP); the frame, s and s* are exact
    in both.
    """
    if spec.kind != SPACELIKE_SURFACE:
        raise ValueError("darboux_frame expects a spacelike-surface spec")
    return _measure_frames(spec, deriv)


def dual_arclength(spec: RuledSurfaceSpec, s: float) -> DualScalar:
    """Dual arc length of the dual spherical image, from parameter 0 to s.

    Integrates the dual norm of the dual curve's derivative in dual
    arithmetic, on exact nodes; for unit-speed specs this is
    s + eps*int(Delta) on the spacelike side and s1 - eps*int(Delta1) on
    the timelike side (the sign difference falls out of the norm's causal
    character).
    """
    jet = striction_jet(spec)

    def f(u):
        # the dual curve e + eps*(c x e) differentiates to e' + eps*(c' x e + c x e')
        c, cp, e, ep, _ = _exact_node(jet, u)
        return dual_norm(dual_vector(ep, lorentz_cross(cp, e) + lorentz_cross(c, ep)))

    val = integrate(f, 0.0, s)
    if isinstance(val, DualScalar):
        return val
    return DualScalar(float(val), 0.0)


def dual_curvature_elements(fs: FrameSample) -> DualCurvature:
    """Dual radius of curvature, spherical radius, and unit Darboux vector.

    R = 1/sqrt(1 + gamma_dual^2); the unit Darboux vector is
    (-gamma_dual*e + g) scaled by R; the spherical radius rho solves
    sin(rho) = R > 0, cos(rho) = -gamma_dual*R: rho = pi/2 + arctan(gamma_dual).
    On frame columns every element is a column too.
    """
    gbar = fs.gamma_dual
    R = 1.0 / dual.sqrt(1.0 + gbar * gbar)
    d0 = ((-gbar) * fs.dual_e() + fs.dual_g()) * R
    return DualCurvature(R_dual=R, rho_dual=0.5 * math.pi + dual.arctan(gbar), darboux_unit=d0)


def timelike_invariants(spec: RuledSurfaceSpec, deriv: str = DUAL_AD) -> FrameSample:
    """Frame columns of a timelike-ruling spec, in any regular parametrization.

    The frame has signature (-, +, +); gamma_1 = -<dg1/ds1, t1> with
    <t1,t1> = +1, the dual slot of gamma_dual is +(delta_1 + gamma_1*Delta_1),
    and s1* accumulates -Delta_1 ds1 (the dual slot of the dual arc length).
    ``deriv`` selects the derivative mode as in :func:`darboux_frame`.
    """
    if spec.kind != TIMELIKE_SURFACE:
        raise ValueError("timelike_invariants expects a timelike-surface spec")
    return _measure_frames(spec, deriv)


#: |gamma1| within this of 1 puts the offset Darboux vector on the light cone
NULL_DARBOUX_TOL = 1e-10


def timelike_radius(gamma1_dual: DualScalar) -> DualScalar:
    """Dual radius of curvature 1/sqrt(|1 - gamma1^2|) of a timelike surface.

    At |gamma1| = 1 the Darboux vector is lightlike and the radius blows
    up, which raises NullDarboux.  On array leaves the radius is
    elementwise, and NullDarboux names the first offending |gamma1|.
    """
    g = gamma1_dual
    null = np.abs(np.abs(g.re) - 1.0) < NULL_DARBOUX_TOL
    if np.any(null):
        raise NullDarboux(f"|gamma1| = {np.ravel(np.abs(g.re))[np.argmax(null)]} "
                          "is at the lightlike-Darboux boundary")
    q = 1.0 - g * g
    return 1.0 / dual.sqrt(np.where(q.re > 0.0, 1.0, -1.0) * q)


# ---------------------------------------------------------------------------
# reconstruction from invariants

#: the quintic Hermite basis over tau in [0, 1] in powers of tau: row i holds
#: the coefficients of tau^0..tau^5 of the basis function of the segment's
#: i-th datum, in the order f, h*f', h^2*f'' at tau = 0, then at tau = 1
_QUINTIC = np.array([
    [1.0, 0.0, 0.0, -10.0, 15.0, -6.0],
    [0.0, 1.0, 0.0, -6.0, 8.0, -3.0],
    [0.0, 0.0, 0.5, -1.5, 1.5, -0.5],
    [0.0, 0.0, 0.0, 10.0, -15.0, 6.0],
    [0.0, 0.0, 0.0, -4.0, 7.0, -3.0],
    [0.0, 0.0, 0.0, 0.5, -1.0, 0.5],
])

#: every nonzero derivative of the quintic basis, (order m, basis row, power of
#: tau): the m-th derivative takes tau^p to p!/(p - m)! * tau^(p - m)
_QUINTIC_JETS = np.array([
    np.pad(_QUINTIC[:, m:] * [math.perm(p, m) for p in range(m, len(_QUINTIC))], ((0, 0), (0, m)))
    for m in range(len(_QUINTIC))])


class _HermiteCurve:
    """Piecewise quintic Hermite interpolant on increasing nodes, dual- and array-evaluable.

    Values, first and second derivatives at the nodes, given as (n, 3)
    arrays, make node accuracy carry through two derivative orders.  Each
    segment scales by its own step, so the nodes need not be uniform.  A
    parameter u is expanded about its nearest node j toward the neighbour o
    on its side, in tau = (u - s_j)/(s_o - s_j): the basis is symmetric, so
    this is the segment's interpolant, and at a node tau is exactly 0, which
    keeps the rounding of tau out of the second derivative there.
    Evaluation outside the node span extrapolates with the end segment.
    Node data that is not finite raises NonFinite naming its node.

    A call finds each point's segment once, from the leading real x of u,
    gathers the data of both its ends into one table, and evaluates the
    curve and its first d u-derivatives at x from :data:`_QUINTIC_JETS`, d
    being the dual depth of u: real arrays H_0..H_d, with no dual
    arithmetic.  It
    then lifts them one dual level at a time, innermost first, as the
    analytic lifts of :mod:`dlgeom.dual` do: H_m(a + eps*b) = H_m(a) +
    eps*b*H_{m+1}(a).  So floats, arrays of any shape and duals of any depth
    and slots take the same path, and each component has the shape of x.
    """

    def __init__(self, nodes: np.ndarray, values: np.ndarray,
                 deriv1: np.ndarray, deriv2: np.ndarray):
        data = np.stack([values, deriv1, deriv2])
        bad = ~np.isfinite(data).all(axis=(0, 2))
        if bad.any():
            raise NonFinite(f"non-finite curve data at s={float(nodes[np.argmax(bad)])!r}")
        self.nodes = nodes
        # (order, component, node): a call gathers along the last axis
        self._data = data.transpose(0, 2, 1).copy()

    def __call__(self, u):
        s, x = self.nodes, leading_real(u)
        shape, x = np.shape(x), np.ravel(x)
        # s[k - 1] < x <= s[k] inside the span, k = 1 or n - 1 past its ends
        k = np.searchsorted(s[1:-1], x) + 1
        j = k - (x - s[k - 1] <= s[k] - x)
        o = 2 * k - 1 - j
        h = s[o] - s[j]
        tau = (x - s[j]) / h
        slots = []
        while isinstance(u, DualScalar):
            slots.append(u.du)
            u = u.re
        powers = np.empty((len(_QUINTIC), len(x)))
        powers[0] = 1.0
        for p in range(1, len(powers)):
            np.multiply(powers[p - 1], tau, out=powers[p])
        basis = _QUINTIC_JETS[:len(slots) + 1] @ powers
        inv = 1.0 / h
        scale = inv
        for b in basis[1:]:
            b *= scale
            scale = scale * inv
        # f, h*f', h^2*f'' at s_j, then at s_o, each (component, point)
        data = np.empty((2, 3, 3, len(x)))
        np.take(self._data, j, axis=2, out=data[0])
        np.take(self._data, o, axis=2, out=data[1])
        data[:, 1] *= h
        data[:, 2] *= h * h
        jets = np.einsum("min,icn->mcn", basis, data.reshape(len(_QUINTIC), 3, -1))
        jets = jets.reshape(len(basis), 3, *shape)
        # a quintic's derivatives past the fifth vanish
        zeros = [0.0] * (len(slots) + 1 - len(basis))

        def lift(jet):
            for slot in reversed(slots):
                jet = [DualScalar(a, slot * da) for a, da in zip(jet, jet[1:])]
            return jet[0]

        return Vec3L(*(lift([*jets[:, c], *zeros]) for c in range(3)))


#: weight of the commutator in the fourth-order Magnus step
_MAGNUS_COMMUTATOR = math.sqrt(3.0) / 12.0

#: two-point Gauss-Legendre nodes on [0, 1]
_GAUSS = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])

#: Gram matrix of an orthonormal frame [e t g]
_SIGNATURE = np.diag([1.0, -1.0, 1.0])

#: the metric diag(-1, 1, 1) as a column, which scales the rows of a frame matrix
_METRIC = np.array([[-1.0], [1.0], [1.0]])


def _profile_values(f, s: np.ndarray, slope: bool = False) -> np.ndarray:
    """Rows (f,) or, with ``slope``, (f, f') of a profile function on the nodes ``s``.

    One call on the whole array; the slope is the dual slot of the same
    evaluation, and constant returns are broadcast.  A non-finite value
    raises NonFinite naming its node.
    """
    with at_points(s):
        v = f(DualScalar(s, 1.0)) if slope else f(s)
    parts = (dual.re_part(v), dual.du_part(v)) if slope else (v,)
    out = np.array([np.broadcast_to(np.asarray(x, dtype=float), s.shape) for x in parts])
    bad = ~np.isfinite(out).all(axis=0)
    if bad.any():
        raise NonFinite(f"non-finite profile value at s={float(s[np.argmax(bad)])!r}")
    return out


def _exp_so21(w: np.ndarray) -> np.ndarray:
    """exp of a stack of (3, 3) generators w of the frame group, in closed form.

    Each w satisfies w^3 = k*w with k = tr(w^2)/2, so exp w = I + a*w + b*w^2
    with a = sinh(r)/r and b = 2*sinh(r/2)^2/r^2 for k = r^2 > 0, sin in
    place of sinh for k = -r^2 < 0, and their Taylor series for small |k|.
    """
    w2 = w @ w
    k = 0.5 * np.trace(w2, axis1=1, axis2=2)
    small = np.abs(k) < 1e-3
    r = np.where(small, 1.0, np.sqrt(np.abs(k)))
    a = np.where(k > 0.0, np.sinh(r), np.sin(r)) / r
    b = 2.0 * (np.where(k > 0.0, np.sinh(0.5 * r), np.sin(0.5 * r)) / r) ** 2
    # 1 + k/3! + k^2/5! + k^3/7! and 1/2! + k/4! + k^2/6! + k^3/8!
    a = np.where(small, 1.0 + k / 6.0 * (1.0 + k / 20.0 * (1.0 + k / 42.0)), a)
    b = np.where(small, 0.5 + k / 24.0 * (1.0 + k / 30.0 * (1.0 + k / 56.0)), b)
    return np.eye(3) + a[:, None, None] * w + b[:, None, None] * w2


def _prefix_products(m: np.ndarray) -> np.ndarray:
    """Running products m[0] @ m[1] @ ... @ m[i] of a matrix stack, in log2(n) matmuls."""
    m = m.copy()
    d = 1
    while d < len(m):
        m[d:] = m[:-d] @ m[d:]
        d *= 2
    return m


def _frame_flow(gamma, frame: np.ndarray, a: float, b: float):
    """Rows (s, e, t, g) of the Magnus flow's nodes from a to b, in increasing s.

    ``frame`` is [e t g] as columns at a; with F' = F*K(gamma),
    K = [[0, 1, 0], [1, 0, gamma], [0, gamma, 0]], each step multiplies by
    exp(Omega), Omega = h/2*(K1 + K2) + (sqrt 3/12)*h^2*[K1, K2] at the two
    Gauss points of the step.  The raw frames must stay within ``DRIFT_TOL``
    of orthonormality (else StepSizeError, also for frames that overflow)
    and are then re-orthonormalized.  The step count is |b - a| per
    1/ODE_STEPS_PER_UNIT, rounded up unless it is within the rounding of a,
    b and their difference of a whole number (0.9 - 0.3 is 600 steps, not
    601), so grids of decimal spans fall on the flow's nodes.
    """
    steps = abs(b - a) * ODE_STEPS_PER_UNIT
    slack = (math.ulp(a) + math.ulp(b) + math.ulp(b - a)) * ODE_STEPS_PER_UNIT + math.ulp(steps)
    n = max(1, round(steps) if abs(steps - round(steps)) <= slack else math.ceil(steps))
    h = (b - a) / n
    s = a + h * np.arange(n + 1)
    s[-1] = b
    g1, g2 = _profile_values(gamma, (s[:-1, None] + h * _GAUSS).ravel())[0].reshape(n, 2).T
    with at_points(s):
        w = np.zeros((n, 3, 3))
        w[:, 0, 1] = w[:, 1, 0] = h
        w[:, 1, 2] = w[:, 2, 1] = 0.5 * h * (g1 + g2)
        # [K1, K2] = (gamma2 - gamma1)*(E02 - E20)
        w[:, 0, 2] = _MAGNUS_COMMUTATOR * h * h * (g2 - g1)
        w[:, 2, 0] = -w[:, 0, 2]
        frames = _prefix_products(np.concatenate([frame[None], _exp_so21(w)]))
        # Gram matrices <F_j, F_k>; their distance from diag(1, -1, 1) is frame_residual
        gram = frames.transpose(0, 2, 1) @ (_METRIC * frames)
        drift = np.max(np.abs(gram - _SIGNATURE), axis=(1, 2))
        bad = ~(drift <= DRIFT_TOL)
        if np.any(bad):
            raise StepSizeError(f"frame drift {np.max(drift):.3e} exceeds {DRIFT_TOL:.1e} "
                                f"at s={float(s[np.argmax(bad)])!r}")
        # one Newton step toward the signature first leaves Gram-Schmidt only
        # roundoff to correct, which keeps the measured invariants at roundoff too
        frames = frames @ (1.5 * np.eye(3) - 0.5 * _SIGNATURE @ gram)
        e, t, g = lorentz_gram_schmidt(*(Vec3L(*frames[:, :, j].T) for j in range(3)))
    rows = np.column_stack([s, *e, *t, *g])
    return rows[::-1] if b < a else rows


def reconstruct_from_invariants(profile: InvariantProfile, s_grid) -> RuledSurfaceSpec:
    """Integrate the frame system to a surface with the given invariants.

    Solves

        e' = t,  t' = e + gamma*g,  g' = gamma*t,  c' = delta*e + Delta*g

    at a fixed ``ODE_STEPS_PER_UNIT`` steps per unit of s in one array pass:
    the frame by the fourth-order Magnus flow of :func:`_frame_flow`, and c
    by the end-corrected trapezoid rule on c' and c'' (exact for cubics).
    ``s_grid`` must be ``np.linspace`` of its ends and length, to a few ulps
    of the larger end, because the returned spec samples exactly that grid;
    any other grid raises ValueError naming its first point off it.
    The frame seed sits at the first grid point.  Frame measurement anchors
    s and s* at parameter 0, so a grid that does not contain 0 is continued
    to it by integrating the same system there (the profile must be defined
    in between): back from the seed when the grid lies above 0, on from the
    grid's end frame when it lies below.  A one-point grid at 0 takes one
    step to 1/ODE_STEPS_PER_UNIT.  The flows' nodes make one increasing
    table; gamma is called once on each flow's Gauss points, and every
    profile function once on the table.  One quintic Hermite curve for e and
    one for c interpolate the table, with node derivatives from the ODE
    rates themselves, so every derivative, c'' included, is exact.  The
    curves evaluate closed-form derivative tables once per point and lift
    them to the caller's dual depth (see :class:`_HermiteCurve`), while every
    other closure, the striction jet built on them included, still
    differentiates by nested dual arithmetic.  Feeding
    the result back through darboux_frame reproduces the profile and its
    arc length: to roundoff at the flow's nodes, but only to a few 1e-9
    between them, because the quintic's second derivative amplifies node
    rounding by about 60/h^2.  A profile value that is not finite raises
    NonFinite, and a division by zero in a profile DivisionByPureDual, each
    naming its s.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    if len(s_grid) == 0:
        raise ValueError("empty reconstruction grid")
    s0, s_end = float(s_grid[0]), float(s_grid[-1])
    even = np.linspace(s0, s_end, len(s_grid))
    off = ~(np.abs(s_grid - even) <= 4.0 * np.spacing(max(abs(s0), abs(s_end))))
    if np.any(off):
        i = int(np.argmax(off))
        raise ValueError(f"reconstruction grid is not evenly spaced: s_grid[{i}] = "
                         f"{float(s_grid[i])!r}, where linspace({s0!r}, {s_end!r}, "
                         f"{len(s_grid)}) has {float(even[i])!r}")
    seed = np.column_stack([tuple(profile.e0), tuple(profile.t0), tuple(profile.g0)])
    flows = []
    if s0 > 0.0:
        flows.append(_frame_flow(profile.gamma, seed, s0, 0.0))
    if s_end > s0:
        flows.append(_frame_flow(profile.gamma, seed, s0, s_end))
    if s_end < 0.0:
        end = flows[-1][-1, 1:].reshape(3, 3).T if flows else seed
        flows.append(_frame_flow(profile.gamma, end, s_end, 0.0))
    if not flows:
        flows.append(_frame_flow(profile.gamma, seed, 0.0, 1.0 / ODE_STEPS_PER_UNIT))
    # consecutive flows share their seam node
    table = np.concatenate(flows[:1] + [rows[1:] for rows in flows[1:]])
    s, e, t, g = table[:, 0], table[:, 1:4], table[:, 4:7], table[:, 7:]
    gamma, = _profile_values(profile.gamma, s)[:, :, None]
    delta, delta_p = _profile_values(profile.delta, s, slope=True)[:, :, None]
    Delta, Delta_p = _profile_values(profile.Delta, s, slope=True)[:, :, None]
    h = np.diff(s)[:, None]
    # c' = delta*e + Delta*g and its derivative with the frame rates substituted
    # in; an overflow here or in c raises NonFinite when its curve is built
    with at_points(s):
        accel = e + gamma * g
        cdot = delta * e + Delta * g
        cddot = delta_p * e + Delta_p * g + (delta + Delta * gamma) * t
        steps = 0.5 * h * (cdot[:-1] + cdot[1:]) + h * h / 12.0 * (cddot[:-1] - cddot[1:])
        c = np.concatenate([np.zeros((1, 3)), np.cumsum(steps, axis=0)])
        # c0 belongs to the seed's node
        c += np.array(tuple(profile.c0)) - c[np.searchsorted(s, s0)]
    return RuledSurfaceSpec(_HermiteCurve(s, e, t, accel), _HermiteCurve(s, c, cdot, cddot),
                            (s0, s_end), len(s_grid), SPACELIKE_SURFACE, "reconstructed")
