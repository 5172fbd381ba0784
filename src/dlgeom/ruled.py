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
scalars, so every derivative is exact forward differentiation; central
finite differences remain available for the frame through the numerics
config, while s, s* and the striction check stay exact in both modes.
Constructions (striction solve, reconstruction) take no config.

Closures are evaluated over arrays of samples: the measurement passes
blocks of at most ``BLOCK`` parameter values per call (float arrays, or
dual scalars with array leaves), and every check reports the first
offending parameter of its block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import dual
from .dual import DualScalar, DualVec3, dual_norm, leading_real
from .errors import DegenerateIndicatrix, FrameDegeneracy, GeometryError, NullDarboux
from .lorentz import Vec3L, det3, lorentz_cross, lorentz_dot
from .numerics import (DEFAULT_CONFIG, DUAL_AD, ODE_STEPS_PER_UNIT, NumericsConfig,
                       FrameState, at_points, cumulative_integrate, frame_residual,
                       integrate, rk4_frame_step, scalar_derivative, value_and_derivative)

SPACELIKE_SURFACE = "spacelike-surface"
TIMELIKE_SURFACE = "timelike-surface"

#: below this squared indicatrix speed the ruling direction is stalling
SPEED_TOL = 1e-10

#: orthonormality ceiling for computed frames
FRAME_TOL = 1e-6

#: most parameter values per batched closure call; bounds the transient arrays
BLOCK = 512


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


@dataclass(frozen=True, slots=True)
class FrameSample:
    """Frame and invariants of one ruling.

    ``s`` is the indicatrix arc length and ``s_star`` the dual slot of the
    dual arc length (the accumulated distribution parameter), both anchored
    at parameter 0.  ``gamma_dual`` packs the dual conical curvature and
    ``ds_du`` is the indicatrix speed in the spec's own parameter.
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

    def dual_e(self) -> DualVec3:
        return DualVec3(self.e, lorentz_cross(self.striction_point, self.e))

    def dual_t(self) -> DualVec3:
        return DualVec3(self.t, lorentz_cross(self.striction_point, self.t))

    def dual_g(self) -> DualVec3:
        return DualVec3(self.g, lorentz_cross(self.striction_point, self.g))


@dataclass(frozen=True)
class DualCurvature:
    """Radius of curvature data of the dual spherical image."""

    R_dual: DualScalar
    rho_dual: DualScalar
    darboux: DualVec3
    darboux_unit: DualVec3


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
        if res > 1e-9:
            raise FrameDegeneracy(f"initial frame off orthonormality by {res:.3e}")

    @classmethod
    def from_constants(cls, gamma: float, delta: float, Delta: float,
                       e0: Vec3L, t0: Vec3L, g0: Vec3L, c0: Vec3L) -> "InvariantProfile":
        return cls(lambda s: gamma, lambda s: delta, lambda s: Delta, e0, t0, g0, c0)


# ---------------------------------------------------------------------------
# parametrization and striction

def _signed_integral(f, a, b):
    """int_a^b f for a, b in either order; equal-shape arrays give one integral each."""
    flip = np.greater(a, b)
    out = integrate(f, np.where(flip, b, a), np.where(flip, a, b))
    return out * np.where(flip, -1.0, 1.0)


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


def striction_curve(spec: RuledSurfaceSpec):
    """The unique directrix with <c', e'> = 0, as a dual-capable closure."""
    jet = striction_jet(spec)

    def c(u):
        return jet(u)[0]

    return c


def _exact_node(jet, u):
    """(c, c', e, e', e'') at u, all read off one evaluation of a striction jet at u + eps.

    e'' is the dual slot of e', and ``u`` may itself be dual.
    """
    c, e, ep = (DualVec3.from_components(x) for x in jet(DualScalar(u, 1.0)))
    return c.re, c.du, e.re, ep.re, ep.du


def _node(jet, u, cfg: NumericsConfig):
    """(c, c', e, e', e'') at u in the configured derivative mode.

    Dual-ad mode is :func:`_exact_node`.  Central-fd mode takes c, e, e'
    from the real jet at u and c', e'' from its central differences at u +- h.
    """
    if cfg.derivative_mode == DUAL_AD:
        return _exact_node(jet, u)
    h = cfg.fd_step
    (c, e, ep), (c_hi, _, ep_hi), (c_lo, _, ep_lo) = jet(u), jet(u + h), jet(u - h)
    return c, (c_hi - c_lo) / (2.0 * h), e, ep, (ep_hi - ep_lo) / (2.0 * h)


def _arc_rates(node, sign: float, u):
    """(ds/du, ds*/du) = (|e'|, sign*det(c', e, e')/|e'|) from a node (c, c', e, e', e'').

    ``sign`` is the ruling sign; it fixes the sign of s* and the causal
    character e' must have.
    """
    _, cp, e, ep, _ = node
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
        # v on a long 1-D array: the table and the round trip need thousands of points
        return np.concatenate(_blockwise(v, us))

    grid = spec.grid()
    if np.max(np.abs(speeds(grid) - 1.0)) <= 1e-10:
        return spec

    u0, u1 = spec.domain
    n_dense = max(512, 8 * max(spec.samples - 1, 1))
    dense = np.linspace(u0, u1, n_dense + 1)
    table = _signed_integral(speeds, 0.0, u0) + cumulative_integrate(speeds, dense, speeds(dense))

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
            s_here = table[ia - 1] + _signed_integral(speeds, dense[ia - 1], ua)
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
    worst = np.max(np.abs(_signed_integral(speeds, 0.0, u_of_s(s_grid)) - s_grid))
    if worst > 1e-8:
        raise GeometryError(f"reparametrization failed: arc-length round trip off by {worst:.3e}")
    return out


# ---------------------------------------------------------------------------
# frames and invariants

def _blockwise(fn, us: np.ndarray) -> list:
    """``fn`` on consecutive blocks of at most ``BLOCK`` values of ``us``, one result per block.

    Each block runs inside :func:`~dlgeom.numerics.at_points`, so an error
    names the block's first offending parameter.
    """
    out = []
    for i in range(0, len(us), BLOCK):
        block = us[i:i + BLOCK]
        with at_points(block):
            out.append(fn(block))
    return out


def _columns(u: np.ndarray, *values) -> np.ndarray:
    """One row per parameter value of ``u``; constants are broadcast down their column."""
    return np.column_stack([np.broadcast_to(x, u.shape) for x in values])


def _measure_frames(spec: RuledSurfaceSpec, cfg: NumericsConfig) -> list[FrameSample]:
    """Frame samples of either causal class, per unit arc length, on the spec's grid.

    Each sample comes from one node (c, c', e, e', e'') in the spec's
    parameter u; derivatives are divided by the indicatrix speed v = ds/du.
    The ruling sign fixes the frame signature, (+, -, +) or (-, +, +), the
    sign of s* (+int Delta ds or -int Delta ds) and that of gamma_dual's
    dual slot (-(delta + gamma*Delta) or +).  In both classes gamma =
    -<dg/ds, t> = det(e, e', e'')/v^3.  s and s* accumulate from parameter 0.
    The striction condition <c', t> = 0 belongs to the constructed striction
    curve, so it is checked on exact nodes in both modes.

    The grid nodes, the Simpson midpoints of s and s* and the head integral
    from parameter 0 are each evaluated as arrays, in blocks of at most
    ``BLOCK`` values per closure call; the FrameSample list is built once
    at the end.
    """
    sign = spec.ruling_sign()
    jet = striction_jet(spec)

    def rates(us):
        # (ds/du, ds*/du) rows from exact nodes
        return np.concatenate(_blockwise(
            lambda u: _columns(u, *_arc_rates(_exact_node(jet, u), sign, u)), us))

    def block(u):
        node = _node(jet, u, cfg)
        # fd nodes feed only the frame; s, s* and the striction check use exact nodes
        exact = node if cfg.derivative_mode == DUAL_AD else _exact_node(jet, u)
        point, cp, e, ep, epp = node
        v = tangent_speed(ep, sign, u)
        t = ep / v
        g = -lorentz_cross(e, t)
        res = frame_residual(e, t, g, signs=(sign, -sign, 1.0))
        bad = res > FRAME_TOL
        if np.any(bad):
            raise FrameDegeneracy(
                f"frame residual up to {np.max(res):.3e}, first over {FRAME_TOL:.0e} "
                f"at u={_first_u(bad, u)}")
        gamma = det3(e, ep, epp) / (v * v * v)
        off = np.abs(lorentz_dot(exact[1], t)) > 1e-8
        if np.any(off):
            raise FrameDegeneracy(f"striction condition violated at u={_first_u(off, u)}")
        cs = cp / v
        return _columns(u, *point, *e, *t, *g, gamma, lorentz_dot(cs, e), det3(cs, e, t), v,
                        *_arc_rates(exact, sign, u))

    grid = spec.grid()
    table = np.concatenate(_blockwise(block, grid))
    arcs = _signed_integral(rates, 0.0, grid[0]) + cumulative_integrate(rates, grid, table[:, -2:])

    out = []
    for row, (s, s_star) in zip(table.tolist(), arcs.tolist()):
        p1, p2, p3, e1, e2, e3, t1, t2, t3, g1, g2, g3, gamma, delta, Delta, v, _, _ = row
        out.append(FrameSample(
            s=s, e=Vec3L(e1, e2, e3), t=Vec3L(t1, t2, t3), g=Vec3L(g1, g2, g3),
            gamma=gamma, delta=delta, Delta=Delta,
            s_star=s_star,
            gamma_dual=DualScalar(gamma, -sign * (delta + gamma * Delta)),
            striction_point=Vec3L(p1, p2, p3),
            ds_du=v,
        ))
    return out


def darboux_frame(spec: RuledSurfaceSpec,
                  cfg: NumericsConfig = DEFAULT_CONFIG) -> list[FrameSample]:
    """Frame samples of a spacelike-ruling spec, in any regular parametrization.

    gamma = -<dg/ds, t> (valid because <t,t> = -1), delta = <dc/ds, e>,
    Delta = det(dc/ds, e, t); the dual conical curvature combines them as
    gamma - eps*(delta + gamma*Delta), and s* accumulates +Delta ds.
    """
    if spec.kind != SPACELIKE_SURFACE:
        raise ValueError("darboux_frame expects a spacelike-surface spec")
    return _measure_frames(spec, cfg)


def dual_arclength(spec: RuledSurfaceSpec, s: float,
                   cfg: NumericsConfig = DEFAULT_CONFIG) -> DualScalar:
    """Dual arc length of the dual spherical image, from parameter 0 to s.

    Integrates the dual norm of the dual curve's derivative in dual
    arithmetic; for unit-speed specs this is s + eps*int(Delta) on the
    spacelike side and s1 - eps*int(Delta1) on the timelike side (the sign
    difference falls out of the norm's causal character).
    """
    jet = striction_jet(spec)

    def f(u):
        # the dual curve e + eps*(c x e) differentiates to e' + eps*(c' x e + c x e')
        c, cp, e, ep, _ = _node(jet, u, cfg)
        return dual_norm(DualVec3(ep, lorentz_cross(cp, e) + lorentz_cross(c, ep)))

    val = _signed_integral(f, 0.0, s)
    if isinstance(val, DualScalar):
        return val
    return DualScalar(float(val), 0.0)


def dual_curvature_elements(fs: FrameSample) -> DualCurvature:
    """Dual radius of curvature, spherical radius, and Darboux axes.

    R = 1/sqrt(1 + gamma_dual^2); the unit Darboux vector is
    (-gamma_dual*e + g) scaled by R; the spherical radius rho solves
    sin(rho) = R, cos(rho) = -gamma_dual*R via two-argument recovery.
    """
    gbar = fs.gamma_dual
    root = dual.sqrt(1.0 + gbar * gbar)
    R = 1.0 / root
    d = (-gbar) * fs.dual_e() + fs.dual_g()
    d0 = d * R
    sin_rho = R
    cos_rho = (-gbar) * R
    rho = DualScalar(
        math.atan2(sin_rho.re, cos_rho.re),
        sin_rho.du * cos_rho.re - cos_rho.du * sin_rho.re,
    )
    return DualCurvature(R_dual=R, rho_dual=rho, darboux=d, darboux_unit=d0)


def timelike_invariants(spec: RuledSurfaceSpec,
                        cfg: NumericsConfig = DEFAULT_CONFIG) -> list[FrameSample]:
    """Frame samples of a timelike-ruling spec, in any regular parametrization.

    The frame has signature (-, +, +); gamma_1 = -<dg1/ds1, t1> with
    <t1,t1> = +1, the dual slot of gamma_dual is +(delta_1 + gamma_1*Delta_1),
    and s1* accumulates -Delta_1 ds1 (the dual slot of the dual arc length).
    """
    if spec.kind != TIMELIKE_SURFACE:
        raise ValueError("timelike_invariants expects a timelike-surface spec")
    return _measure_frames(spec, cfg)


BRANCH_SPACELIKE_DARBOUX = "|gamma1|<1"
BRANCH_TIMELIKE_DARBOUX = "|gamma1|>1"


class TimelikeRadius(NamedTuple):
    radius: DualScalar
    branch: str


def timelike_radius(gamma1_dual: DualScalar, tol: float = 1e-10) -> TimelikeRadius:
    """Dual radius of curvature 1/sqrt(|1 - gamma1^2|) of a timelike surface.

    The branch flag records which side of |gamma1| = 1 the Darboux vector
    sits on; at |gamma1| = 1 it is lightlike and the radius blows up.
    """
    g = gamma1_dual
    if abs(abs(g.re) - 1.0) < tol:
        raise NullDarboux(f"|gamma1| = {abs(g.re)} is at the lightlike-Darboux boundary")
    q = 1.0 - g * g
    if q.re > 0.0:
        return TimelikeRadius(1.0 / dual.sqrt(q), BRANCH_SPACELIKE_DARBOUX)
    return TimelikeRadius(1.0 / dual.sqrt(-q), BRANCH_TIMELIKE_DARBOUX)


# ---------------------------------------------------------------------------
# reconstruction from invariants

_QUINTIC = (
    # Horner tails of the quintic Hermite basis over tau in [0, 1]
    lambda tau: 1.0 + tau * tau * tau * (-10.0 + tau * (15.0 - 6.0 * tau)),
    lambda tau: tau + tau * tau * tau * (-6.0 + tau * (8.0 - 3.0 * tau)),
    lambda tau: 0.5 * tau * tau + tau * tau * tau * (-1.5 + tau * (1.5 - 0.5 * tau)),
    lambda tau: tau * tau * tau * (10.0 + tau * (-15.0 + 6.0 * tau)),
    lambda tau: tau * tau * tau * (-4.0 + tau * (7.0 - 3.0 * tau)),
    lambda tau: tau * tau * tau * (0.5 + tau * (-1.0 + 0.5 * tau)),
)

class _HermiteCurve:
    """Piecewise quintic Hermite interpolant on uniform nodes, dual- and array-evaluable.

    Values, first and second derivatives at the nodes make node accuracy
    carry through two derivative orders.  Evaluation outside the node span
    extrapolates with the end segment.  Node data are stored as (n, 3)
    arrays, so an array of parameters gathers its segments by index.
    """

    def __init__(self, s0: float, h: float, values: Sequence[Vec3L],
                 deriv1: Sequence[Vec3L], deriv2: Sequence[Vec3L]):
        self.s0 = s0
        self.h = h
        self.values = np.array([tuple(x) for x in values], dtype=float)
        self.deriv1 = np.array([tuple(x) for x in deriv1], dtype=float)
        self.deriv2 = np.array([tuple(x) for x in deriv2], dtype=float)

    def __call__(self, u):
        x = (u - self.s0) / self.h
        i = np.clip(np.floor(leading_real(x)).astype(int), 0, len(self.values) - 2)
        tau = x - i
        h = self.h
        f0, f1 = Vec3L(*self.values[i].T), Vec3L(*self.values[i + 1].T)
        d0, d1 = Vec3L(*self.deriv1[i].T), Vec3L(*self.deriv1[i + 1].T)
        a0, a1 = Vec3L(*self.deriv2[i].T), Vec3L(*self.deriv2[i + 1].T)
        h0, h1, h2, h3, h4, h5 = (basis(tau) for basis in _QUINTIC)
        return (f0 * h0 + (h * d0) * h1 + ((h * h) * a0) * h2
                + f1 * h3 + (h * d1) * h4 + ((h * h) * a1) * h5)


class _TaylorCurve:
    """Second-order expansion around a single node (zero-span grids)."""

    def __init__(self, s0: float, f: Vec3L, d: Vec3L, a: Vec3L):
        self.s0 = s0
        self.f = f
        self.d = d
        self.a = a

    def __call__(self, u):
        x = u - self.s0
        return self.f + self.d * x + self.a * (0.5 * x * x)


def _where(mask, a, b):
    """Elementwise ``a`` where ``mask`` holds, else ``b``, through vectors and dual scalars."""
    if isinstance(a, Vec3L):
        return Vec3L(*(_where(mask, x, y) for x, y in zip(a, b)))
    if isinstance(a, DualScalar) or isinstance(b, DualScalar):
        return DualScalar(_where(mask, dual.re_part(a), dual.re_part(b)),
                          _where(mask, dual.du_part(a), dual.du_part(b)))
    return np.where(mask, a, b)


class _JoinedCurve:
    """``left`` below the parameter ``at``, ``right`` from it on (by mask on arrays)."""

    def __init__(self, at: float, left, right):
        self.at = at
        self.left = left
        self.right = right

    def __call__(self, u):
        below = leading_real(u) < self.at
        if np.all(below):
            return self.left(u)
        if not np.any(below):
            return self.right(u)
        return _where(below, self.left(u), self.right(u))


def reconstruct_from_invariants(profile: InvariantProfile, s_grid) -> RuledSurfaceSpec:
    """Integrate the frame system to a surface with the given invariants.

    Runs RK4 at a fixed ``ODE_STEPS_PER_UNIT`` steps per unit of s, with
    per-step Lorentzian re-orthonormalization, on

        e' = t,  t' = e + gamma*g,  g' = gamma*t,  c' = delta*e + Delta*g,

    then packages the dense solution as quintic Hermite curves whose node
    derivatives come from the ODE rates themselves.  The frame seed sits at
    the first grid point.  Frame measurement anchors s and s* at parameter
    0, so a grid that does not contain 0 is continued to it by integrating
    the same system there (the profile must be defined in between); a
    single grid point off 0 is served by that continuation alone.  Every
    derivative, c'' included, is exact.  Feeding the result back through
    darboux_frame reproduces the profile and its arc length.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    if len(s_grid) == 0:
        raise ValueError("empty reconstruction grid")
    s0, s_end = float(s_grid[0]), float(s_grid[-1])
    seed = FrameState(profile.e0, profile.t0, profile.g0, profile.c0)

    def accel(si: float, st: FrameState) -> Vec3L:
        return st.e + profile.gamma(si) * st.g

    def cdot(si: float, st: FrameState) -> Vec3L:
        return profile.delta(si) * st.e + profile.Delta(si) * st.g

    def cddot(si: float, st: FrameState) -> Vec3L:
        # (delta*e + Delta*g)' with the frame rates substituted in
        dd = scalar_derivative(profile.delta, si)
        DD = scalar_derivative(profile.Delta, si)
        return (dd * st.e + DD * st.g
                + (profile.delta(si) + profile.Delta(si) * profile.gamma(si)) * st.t)

    def flow(state: FrameState, a: float, b: float):
        """Hermite curves (e, c) on RK4 nodes from a to b, and the state at b."""
        n_steps = max(1, int(math.ceil(abs(b - a) * ODE_STEPS_PER_UNIT)))
        h = (b - a) / n_steps
        nodes = [(a, state)]
        for k in range(n_steps):
            sk = a + k * h
            state = rk4_frame_step(state, sk, h, profile.gamma, profile.delta, profile.Delta)
            nodes.append((sk + h, state))
        if h < 0.0:
            nodes.reverse()
        ind = _HermiteCurve(min(a, b), abs(h), [st.e for _, st in nodes],
                            [st.t for _, st in nodes], [accel(si, st) for si, st in nodes])
        base = _HermiteCurve(min(a, b), abs(h), [st.c for _, st in nodes],
                             [cdot(si, st) for si, st in nodes],
                             [cddot(si, st) for si, st in nodes])
        return ind, base, state

    if s_end == s0 == 0.0:
        ind = _TaylorCurve(s0, seed.e, seed.t, accel(s0, seed))
        base = _TaylorCurve(s0, seed.c, cdot(s0, seed), cddot(s0, seed))
    elif s_end == s0:
        # the continuation to 0 alone serves both sides of s0, so differences
        # there straddle no seam
        ind, base, _ = flow(seed, s0, 0.0)
    else:
        ind, base, last = flow(seed, s0, s_end)
        if s0 > 0.0:
            head_ind, head_base, _ = flow(seed, s0, 0.0)
            ind, base = _JoinedCurve(s0, head_ind, ind), _JoinedCurve(s0, head_base, base)
        elif s_end < 0.0:
            tail_ind, tail_base, _ = flow(last, s_end, 0.0)
            ind, base = _JoinedCurve(s_end, ind, tail_ind), _JoinedCurve(s_end, base, tail_base)
    return RuledSurfaceSpec(ind, base, (s0, s_end), len(s_grid),
                            SPACELIKE_SURFACE, "reconstructed")
