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
distribution parameter s* sum their u-rates and u-slopes at the nodes by
the end-corrected trapezoid rule, so no reparametrization is needed.  Curve
closures are duck-typed over dual scalars, so every derivative is exact
forward differentiation.  The central-fd mode of the ``deriv`` argument of
:func:`darboux_frame` and :func:`timelike_invariants` differences the same
exact nodes at u +- FD_STEP, and only for c' in delta and Delta and for e''
in gamma: the frame {e, t, g}, s, s* and the striction check are exact in
both modes, and constructions (striction solve, reconstruction) and the
Mannheim check take no derivative mode.

Closures are evaluated over arrays of samples: a measurement calls each
closure once, on the grid, central-fd's shifted nodes and the head nodes
from parameter 0 to the grid, and nowhere between nodes (a 1001-sample grid
on (0.05, 0.95) is 1014 points; central-fd adds 2002).  Every check reports
the first offending parameter.  A measurement checks finiteness as a node is
split, in every Vec3L built by arithmetic, and over the grid's frame table
and the rates, slopes and sums of s and s*.  A reconstruction checks the
profile values, then the flow's drift (a frame that overflows fails it, so
the frames that pass are projected as plain arrays, unchecked), and then
each Hermite curve's table as the curve is built, which is where an
overflow in c, c' or c'' is named.

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
from .dual import DualScalar, _leafwise, dual_norm, dual_vector, leading_real
from .errors import (DegenerateIndicatrix, FrameDegeneracy, GeometryError, NonFinite,
                     NullDarboux, ProfileError, StepSizeError)
from .lorentz import Vec3L, _cross, det3, lorentz_cross, lorentz_dot
from .numerics import (CENTRAL_FD, DRIFT_TOL, DUAL_AD, FD_STEP, MIN_QUAD_PANELS,
                       ODE_STEPS_PER_UNIT, QUAD_PANELS_PER_UNIT, _SIGNATURE, _gram,
                       _project_frames, at_points, cumulative_integrate, frame_residual,
                       hermite_cumulative, integrate, simpson_midpoints, value_and_derivative)

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
        return list(map(Vec3L.from_checked, x.x1.tolist(), x.x2.tolist(), x.x3.tolist()))
    if isinstance(x, DualScalar):
        return list(map(DualScalar, x.re.tolist(), x.du.tolist()))
    if isinstance(x, dict):
        return [dict(zip(x, row)) for row in zip(*(_rows(v) for v in x.values()))]
    return list(x)


class Columns:
    """Rows of a slots dataclass whose fields each hold one column.

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
        return map(type(self), *(_rows(getattr(self, name)) for name in self.__slots__))


@dataclass(slots=True)
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
    ds_du: float

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
    """Invariant functions plus the initial frame that seeds reconstruction.

    ``gamma`` is called on float arrays of s; ``delta`` and ``Delta`` at s + eps,
    as duals over arrays, for their slopes.  Write them with dual lifts, not
    ufuncs or ``**``: a call that raises TypeError raises ProfileError naming
    the field.
    """

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
    causal character, else FrameDegeneracy names the first offending
    parameter of ``u``.  e' is read off a striction jet, which has already
    rejected a stalling one (see :func:`_striction_jet`).
    """
    q = -sign * lorentz_dot(ep, ep)
    wrong = leading_real(q) < 0.0
    if dual._any(wrong):
        raise FrameDegeneracy(
            f"indicatrix tangent has the wrong causal character near u={_first_u(wrong, u)}")
    return dual.sqrt(q)


def striction_jet(spec: RuledSurfaceSpec):
    """Closure returning (c(u), e(u), e'(u)) with c the striction curve.

    Solves c = p + lam*e with lam = -<p', e'>/<e', e'>; the division by the
    tangent's quadratic form keeps the sign right in both causal setups.
    The solve is part of constructing the geometry, so its internal
    derivatives are exact regardless of the measurement mode.
    """
    jet = _striction_jet(spec)
    return lambda u: jet(u)[:3]


def _striction_jet(spec: RuledSurfaceSpec):
    """The striction jet, returning (c, e, e', p') with p' the directrix's derivative."""
    ind, base = spec.indicatrix, spec.base_curve

    def jet(u):
        e, ep = value_and_derivative(ind, u)
        q = lorentz_dot(ep, ep)
        stalled = np.abs(leading_real(q)) < SPEED_TOL ** 2
        if stalled.any():
            # where every component of e' is below SPEED_TOL, e' vanishes; a
            # larger e' is null, so the tangent is lightlike or the closure
            # cancelled <e', e'>
            x = np.asarray(leading_real(u), dtype=float)
            i = np.argmax(np.broadcast_to(stalled, x.shape).ravel())
            at = float(x.ravel()[i])
            size = max(abs(float(np.broadcast_to(leading_real(y), x.shape).ravel()[i])) for y in ep)
            if size < SPEED_TOL:
                raise DegenerateIndicatrix(f"striction undefined: e' vanishes near u={at}")
            raise DegenerateIndicatrix(
                f"striction undefined: <e', e'> = 0 for a nonzero e' (components up to "
                f"{size:.3e}) near u={at}: the tangent is lightlike or the closure lost "
                f"<e', e'> to rounding")
        p, pp = value_and_derivative(base, u)
        lam = -lorentz_dot(pp, ep) / q
        return p + lam * e, e, ep, pp

    return jet


def _exact_node(jet, u):
    """(c, c', e, e', e'', p', p'') at u, all read off one evaluation of a striction jet at u + eps.

    ``jet`` is a :func:`_striction_jet`; e'' and p'' are the dual slots of e'
    and p', and ``u`` may itself be dual.
    """
    c, e, ep, pp = jet(DualScalar(u, 1.0))
    return c.re, c.du, e.re, ep.re, ep.du, pp.re, pp.du


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
    jet = _striction_jet(spec)

    def v(u):
        return tangent_speed(jet(u)[2], spec.ruling_sign(), u)

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


def _node_rows(node, rows):
    """The rows ``rows`` of a node evaluated on an array of parameters; constant leaves stay."""
    take = lambda x: x[rows] if getattr(x, "ndim", 0) else x
    return tuple(Vec3L.from_checked(*(_leafwise(take, x) for x in vec)) for vec in node)


#: frame columns on a spec's grid: the fields of FrameSample but s and s_star
_NodeFrames = namedtuple("_NodeFrames", "e t g gamma delta Delta gamma_dual striction_point ds_du")


def _node_pass(spec: RuledSurfaceSpec, grid: np.ndarray, deriv: str = DUAL_AD,
               extra=np.empty(0), lift: bool = False):
    """Frame columns on the spec's ``grid``, and the exact nodes of the pass they were read from.

    Each grid sample comes from one node (c, c', e, e', e'', p', p'') in the
    spec's parameter u; derivatives are divided by the indicatrix speed v =
    ds/du, gamma = det(e, e', e'')/v^3, and the ruling sign fixes the frame
    signature and the sign of gamma_dual's dual slot.  The pass calls each
    closure once: on the grid, then (central-fd) the grid +- FD_STEP, whose
    real parts replace c' in delta and Delta and e'' by central differences,
    then ``extra``; with ``lift`` at u + eps, read off the real parts (the
    same bits).  Errors name the first offending point of the first failing
    check: the node split, the frame checks, then the frame table's
    finiteness.  Returns the columns, the nodes at every point and, with
    ``lift``, the lifted nodes but at ``extra``.  An unknown ``deriv`` raises
    ValueError.
    """
    if deriv not in (DUAL_AD, CENTRAL_FD):
        raise ValueError(f"unknown derivative mode {deriv!r}")
    sign = spec.ruling_sign()
    k = len(grid)
    shifts = [grid + FD_STEP, grid - FD_STEP] if deriv == CENTRAL_FD else []
    points = np.concatenate([grid, *shifts, extra])
    end = len(points) - len(extra)
    with at_points(points):
        node = _exact_node(_striction_jet(spec), DualScalar(points, 1.0) if lift else points)
        lifted = None
        if lift:
            lifted = _node_rows(node, slice(0, end)) if len(extra) else node
            node = tuple(x.re for x in node)
        # a pass of the grid alone reads its node as it is
        exact, *shifted = ([node] if len(points) == k else
                           (_node_rows(node, slice(i, i + k)) for i in range(0, end, k)))
        point, cp, e, ep, epp, *_ = exact
        dc = cp  # the c' of delta and Delta
        if shifted:
            (c_hi, _, _, ep_hi, *_), (c_lo, _, _, ep_lo, *_) = shifted
            dc, epp = (c_hi - c_lo) / (2.0 * FD_STEP), (ep_hi - ep_lo) / (2.0 * FD_STEP)
        v = tangent_speed(ep, sign, grid)
        vec = Vec3L.from_checked
        t = vec(ep.x1 / v, ep.x2 / v, ep.x3 / v)
        g = vec(*(-x for x in _cross(e, t)))
        res = frame_residual(e, t, g, signs=(sign, -sign, 1.0))
        bad = res > FRAME_TOL
        if bad.any():
            raise FrameDegeneracy(
                f"frame residual up to {res.max():.3e}, first over {FRAME_TOL:.0e} "
                f"at u={_first_u(bad, grid)}")
        gamma = det3(e, ep, epp) / (v * v * v)
        # the striction condition belongs to the constructed striction curve,
        # so it reads the exact c' in both modes
        off = np.abs(lorentz_dot(cp, t)) > 1e-8
        if off.any():
            raise FrameDegeneracy(f"striction condition violated at u={_first_u(off, grid)}")
        cs = dc / v
        table = _columns(grid, *point, *e, *t, *g, gamma, lorentz_dot(cs, e), det3(cs, e, t), v)
        bad = ~np.isfinite(table).all(axis=0)
        if bad.any():
            raise NonFinite(f"non-finite frame column at u={_first_u(bad, grid)}")
    p1, p2, p3, e1, e2, e3, t1, t2, t3, g1, g2, g3, gamma, delta, Delta, v = table
    frames = _NodeFrames(
        e=vec(e1, e2, e3), t=vec(t1, t2, t3), g=vec(g1, g2, g3), gamma=gamma, delta=delta,
        Delta=Delta, gamma_dual=DualScalar(gamma, -sign * (delta + gamma * Delta)),
        striction_point=vec(p1, p2, p3), ds_du=v)
    return frames, node, lifted


def _measure_frames(spec: RuledSurfaceSpec, deriv: str = DUAL_AD, lift: bool = False):
    """Frame columns of either causal class, per unit arc length, on the spec's grid.

    s and s* accumulate from parameter 0 over the head nodes, which split
    [0, u0] into max(MIN_QUAD_PANELS, ceil(|u0|*QUAD_PANELS_PER_UNIT))
    panels (none if the first node u0 is 0), evaluated in the node pass,
    then over the grid, from the rates v and r = sign*det(c', e, e')/v and
    the slopes v' = -sign*<e', e''>/v and r' = (sign*(det(p'', e, e') +
    det(p', e, e'')) - r*v')/v.  ``lift`` also returns the lifted nodes.
    """
    sign = spec.ruling_sign()
    grid = spec.grid()
    n = max(MIN_QUAD_PANELS, math.ceil(abs(grid[0]) * QUAD_PANELS_PER_UNIT)) if grid[0] else 0
    head = np.linspace(0.0, grid[0], n + 1)[:-1] if n else np.empty(0)
    frames, node, lifted = _node_pass(spec, grid, deriv, head, lift)
    # the head rows close the node table, so indices -n..-1 are the head nodes;
    # with none, the grid's rows lead the table and are read in place
    path = np.concatenate([head, grid]) if n else grid
    _, cp, e, ep, epp, pp, ppp = _node_rows(node, np.arange(-n, len(grid)) if n
                                            else slice(0, len(grid)))
    with at_points(path):
        v = tangent_speed(ep, sign, path)
        r = sign * det3(cp, e, ep) / v
        dv = -sign * lorentz_dot(ep, epp) / v
        dr = (sign * (det3(ppp, e, ep) + det3(pp, e, epp)) - r * dv) / v
        rates = _columns(path, v, r, dv, dr)
        arcs = hermite_cumulative(path, rates[:2], rates[2:])
    bad = ~(np.isfinite(rates).all(axis=0) & np.isfinite(arcs).all(axis=0))
    if bad.any():
        raise NonFinite(f"non-finite arc length rate or sum at u={_first_u(bad, path)}")
    out = FrameSample(s=arcs[0, n:], s_star=arcs[1, n:], **frames._asdict())
    return (out, lifted) if lift else out


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
    jet = _striction_jet(spec)

    def f(u):
        # the dual curve e + eps*(c x e) differentiates to e' + eps*(c' x e + c x e')
        c, cp, e, ep, *_ = _exact_node(jet, u)
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
    if null.any():
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

    Values, first and second derivatives at the nodes, given as one
    (order, component, node) table of shape (3, 3, n) that the curve keeps
    without copying, make node accuracy carry through two derivative orders.  Each
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

    def __init__(self, nodes: np.ndarray, data: np.ndarray):
        finite = np.isfinite(data)
        if not finite.all():
            bad = ~finite.all(axis=(0, 1))
            raise NonFinite(f"non-finite curve data at s={float(nodes[np.argmax(bad)])!r}")
        self.nodes = nodes
        # a call gathers along the last axis
        self._data = data

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


def _profile_values(f, name: str, s: np.ndarray, slope: bool = False) -> np.ndarray:
    """Rows (f,) or, with ``slope``, (f, f') of the profile function ``name`` on the nodes ``s``.

    One call on the whole array; the slope is the dual slot of the same
    evaluation, and constant returns are broadcast.  A non-finite value
    raises NonFinite naming its node.  A TypeError in the call, as a numpy
    ufunc or ``**`` raises on a dual, becomes ProfileError naming the field
    and what it was called on.
    """
    with at_points(s):
        try:
            v = f(DualScalar(s, 1.0)) if slope else f(s)
        except TypeError as exc:
            on = "a dual over the nodes (s + eps)" if slope else "a float array of s"
            raise ProfileError(f"profile {name} fails on {on}: {exc}; write it with the "
                               "lifts of dlgeom.dual, not numpy ufuncs or **") from exc
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
    The series is taken on every w, and the closed form only where |k| >=
    1e-3; at ODE_STEPS_PER_UNIT steps per unit that needs |gamma| of about 31.
    """
    w2 = w @ w
    k = 0.5 * np.trace(w2, axis1=1, axis2=2)
    # 1 + k/3! + k^2/5! + k^3/7! and 1/2! + k/4! + k^2/6! + k^3/8!
    a = 1.0 + k / 6.0 * (1.0 + k / 20.0 * (1.0 + k / 42.0))
    b = 0.5 + k / 24.0 * (1.0 + k / 30.0 * (1.0 + k / 56.0))
    big = np.flatnonzero(np.abs(k) >= 1e-3)
    if len(big):
        kb = k[big]
        r = np.sqrt(np.abs(kb))
        a[big] = np.where(kb > 0.0, np.sinh(r), np.sin(r)) / r
        b[big] = 2.0 * (np.where(kb > 0.0, np.sinh(0.5 * r), np.sin(0.5 * r)) / r) ** 2
    return np.eye(3) + a[:, None, None] * w + b[:, None, None] * w2


#: matrices per block of :func:`_prefix_products`
_SCAN_BLOCK = 32


def _prefix_products(m: np.ndarray) -> np.ndarray:
    """Running products m[0] @ m[1] @ ... @ m[i] of a matrix stack, in about 2n products.

    A blocked scan: running products inside blocks of :data:`_SCAN_BLOCK`
    matrices, taken in step across the blocks, then the blocks' totals by
    doubling, then one matmul that carries each block's prefix into it.  The
    last block is padded with identities.
    """
    n, size = len(m), min(_SCAN_BLOCK, len(m))
    count = -(-n // size)
    blocks = np.empty((count * size, *m.shape[1:]))
    blocks[:n] = m
    blocks[n:] = np.eye(m.shape[-1])
    blocks = blocks.reshape(count, size, *m.shape[1:])
    for j in range(1, size):
        blocks[:, j] = blocks[:, j - 1] @ blocks[:, j]
    totals = blocks[:, -1].copy()
    d = 1
    while d < count:
        totals[d:] = totals[:-d] @ totals[d:]
        d *= 2
    blocks[1:] = totals[:-1, None] @ blocks[1:]
    return blocks.reshape(-1, *m.shape[1:])[:n]


def _frame_flow(gamma, frame: np.ndarray, s: np.ndarray, seed: int) -> np.ndarray:
    """The Magnus flow on the increasing nodes s from s[seed], as one (3, 3, n) table.

    ``frame`` is [e t g] as columns at s[seed]; with F' = F*K(gamma),
    K = [[0, 1, 0], [1, 0, gamma], [0, gamma, 0]], the step of length h up
    from a node multiplies by exp(Omega), Omega = h/2*(K1 + K2) +
    (sqrt 3/12)*h^2*[K1, K2] at the two Gauss points of the step, and the
    same step down by exp(-Omega).  The raw frames must stay within
    ``DRIFT_TOL`` of orthonormality (else StepSizeError, also for frames that
    overflow, so every frame that passes is finite) and are then projected
    by :func:`~dlgeom.numerics._project_frames`, whose first Newton step
    reuses the drift check's Gram matrices.  The table is contiguous by
    component: table[i, c] is component c of e, t or g (i = 0, 1, 2) over
    the nodes.
    """
    h = np.diff(s)
    gauss = (s[:-1, None] + h[:, None] * _GAUSS).ravel()
    g1, g2 = _profile_values(gamma, "gamma", gauss)[0].reshape(-1, 2).T
    with at_points(s):
        w = np.zeros((len(h), 3, 3))
        w[:, 0, 1] = w[:, 1, 0] = h
        w[:, 1, 2] = w[:, 2, 1] = 0.5 * h * (g1 + g2)
        # [K1, K2] = (gamma2 - gamma1)*(E02 - E20)
        w[:, 0, 2] = _MAGNUS_COMMUTATOR * h * h * (g2 - g1)
        w[:, 2, 0] = -w[:, 0, 2]
        # a step down from the seed multiplies by exp(-Omega)
        w[:seed] *= -1.0
        steps = _exp_so21(w)
        # running products outward from the seed, in both directions
        down = _prefix_products(np.concatenate([frame[None], steps[:seed][::-1]]))
        up = _prefix_products(np.concatenate([frame[None], steps[seed:]]))
        frames = np.concatenate([down[:0:-1], up])
        gram = _gram(frames)
        drift = np.abs(gram - _SIGNATURE).reshape(-1, 9)
        # written so that a NaN drift fails too; the node is looked up only then
        if not drift.max() <= DRIFT_TOL:
            bad = ~(drift.max(axis=1) <= DRIFT_TOL)
            raise StepSizeError(f"frame drift {drift.max():.3e} exceeds {DRIFT_TOL:.1e} "
                                f"at s={float(s[np.argmax(bad)])!r}")
        # (column, component, node): each of e, t, g as three contiguous rows
        return np.ascontiguousarray(_project_frames(frames, gram).transpose(2, 1, 0))


def reconstruct_from_invariants(profile: InvariantProfile, s_grid) -> RuledSurfaceSpec:
    """Integrate the frame system to a surface with the given invariants.

    Solves

        e' = t,  t' = e + gamma*g,  g' = gamma*t,  c' = delta*e + Delta*g

    in one array pass: the frame by the fourth-order Magnus flow of
    :func:`_frame_flow`, and c by the end-corrected trapezoid rule on c' and
    c'' (exact for cubics).  ``s_grid`` must be ``np.linspace`` of its ends
    and length, to a few ulps of the larger end, because the returned spec
    samples exactly that grid; any other grid raises ValueError naming its
    first point off it, and a decreasing one naming both ends.  Every grid
    interval takes the same whole number ceil(h*ODE_STEPS_PER_UNIT) of equal
    steps, h the grid spacing, so every grid point is a node of the flow.
    Frame measurement anchors s and s* at parameter 0, so a grid that does not
    contain 0 is joined to it by ceil(|x|*ODE_STEPS_PER_UNIT) equal steps
    from its nearer end x (the profile must be defined in between), and a
    one-point grid at 0 takes one step to 1/ODE_STEPS_PER_UNIT.  One flow
    runs over this one increasing table, seeded at the first grid point;
    gamma is called once on its Gauss points, and every profile function
    once on the table.  One quintic Hermite curve for e and one for c
    interpolate the table, with node derivatives from the ODE rates
    themselves, so every derivative, c'' included, is exact.  Each curve
    takes one (order, component, node) table: the flow's rows of e, t and g
    become e, e' = t and e'' = e + gamma*g in place, and c, c' and c'' are
    filled as component rows against the profile values.  The curves
    evaluate closed-form derivative tables once per point and lift them to
    the caller's dual depth (see :class:`_HermiteCurve`), while every other
    closure, the striction jet built on them included, still differentiates
    by nested dual arithmetic.  Feeding the result back through
    darboux_frame reproduces the profile and its arc length to roundoff on
    the grid.  A profile value that is not finite raises NonFinite, and a
    division by zero in a profile DivisionByPureDual, each naming its s; a
    profile function that raises TypeError on what it is called on (a numpy
    ufunc on a dual, say) raises ProfileError naming the field.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    if len(s_grid) == 0:
        raise ValueError("empty reconstruction grid")
    s0, s_end = float(s_grid[0]), float(s_grid[-1])
    if s_end < s0:
        raise ValueError(f"reconstruction grid decreases from {s0!r} to {s_end!r}")
    even = np.linspace(s0, s_end, len(s_grid))
    off = ~(np.abs(s_grid - even) <= 4.0 * np.spacing(max(abs(s0), abs(s_end))))
    if np.any(off):
        i = int(np.argmax(off))
        raise ValueError(f"reconstruction grid is not evenly spaced: s_grid[{i}] = "
                         f"{float(s_grid[i])!r}, where linspace({s0!r}, {s_end!r}, "
                         f"{len(s_grid)}) has {float(even[i])!r}")
    # every grid interval takes the same m equal steps, so every grid point is a node
    m = math.ceil((s_end - s0) / max(len(even) - 1, 1) * ODE_STEPS_PER_UNIT)
    s = np.append((even[:-1, None] + np.diff(even)[:, None] * (np.arange(m) / m)).ravel(), s_end)
    # equal steps join the grid to 0, where measurement anchors s and s*
    head = tail = np.empty(0)
    if s0 > 0.0:
        head = np.linspace(0.0, s0, math.ceil(s0 * ODE_STEPS_PER_UNIT) + 1)[:-1]
    elif s_end < 0.0:
        tail = np.linspace(s_end, 0.0, math.ceil(-s_end * ODE_STEPS_PER_UNIT) + 1)[1:]
    elif s_end == s0:
        tail = np.array([1.0 / ODE_STEPS_PER_UNIT])
    s, seed = np.concatenate([head, s, tail]), len(head)
    frame = np.column_stack([tuple(profile.e0), tuple(profile.t0), tuple(profile.g0)])
    frames = _frame_flow(profile.gamma, frame, s, seed)
    e, t, g = frames
    gamma, = _profile_values(profile.gamma, "gamma", s)
    delta, delta_p = _profile_values(profile.delta, "delta", s, slope=True)
    Delta, Delta_p = _profile_values(profile.Delta, "Delta", s, slope=True)
    # c, c' = delta*e + Delta*g and c'' with the frame rates substituted in, as
    # (order, component, node); an overflow raises NonFinite when its curve is built
    curve = np.empty_like(frames)
    c, cdot, cddot = curve
    with at_points(s):
        np.multiply(delta, e, out=cdot)
        cdot += Delta * g
        np.multiply(delta_p, e, out=cddot)
        cddot += Delta_p * g
        cddot += (delta + Delta * gamma) * t
        c[...] = hermite_cumulative(s, cdot, cddot)
        # c0 belongs to the seed's node
        c += (np.array(tuple(profile.c0)) - c[:, seed])[:, None]
        # the frame table becomes the indicatrix's: e, e' = t and e'' = e + gamma*g
        g *= gamma
        g += e
    return RuledSurfaceSpec(_HermiteCurve(s, frames), _HermiteCurve(s, curve),
                            (s0, s_end), len(s_grid), SPACELIKE_SURFACE, "reconstructed")
