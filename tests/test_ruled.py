import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dlgeom.dual as dual
import dlgeom.ruled as ruled
from dlgeom import catalog
from dlgeom.dual import DualScalar, DualVec3, dual_lorentz_dot, dual_norm
from dlgeom.errors import (DegenerateIndicatrix, FrameDegeneracy, GeometryError, NonFinite,
                           NullDarboux)
from dlgeom.lorentz import Vec3L, causal_character, CausalCharacter, lorentz_cross, lorentz_dot
from dlgeom.mannheim import MannheimParams, construct_offset, offset_angles, verify_offset
from dlgeom.numerics import CENTRAL_FD, NumericsConfig, differentiate
from dlgeom.ruled import (SPACELIKE_SURFACE, InvariantProfile, RuledSurfaceSpec,
                          arclength_reparametrize, darboux_frame, dual_arclength,
                          dual_curvature_elements, reconstruct_from_invariants,
                          striction_curve, timelike_invariants, timelike_radius,
                          BRANCH_SPACELIKE_DARBOUX, BRANCH_TIMELIKE_DARBOUX)

AD = NumericsConfig()
FD = NumericsConfig(derivative_mode=CENTRAL_FD)

CONE_E0 = Vec3L(0.0, 0.8, 0.6)
CONE_T0 = Vec3L(1.0, 0.0, 0.0)
CONE_G0 = Vec3L(0.0, 0.6, -0.8)
ORIGIN = Vec3L(0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# independent finite-difference oracle (test-local, no kernel derivatives)

def _fd_vec(curve, s, h=1e-6):
    a, b = curve(s + h), curve(s - h)
    return Vec3L((a.x1 - b.x1) / (2 * h), (a.x2 - b.x2) / (2 * h), (a.x3 - b.x3) / (2 * h))


def test_catalog_parameter_validation():
    with pytest.raises(ValueError):
        catalog.cone(a=0.5, b=0.8)
    with pytest.raises(ValueError):
        catalog.helicoidal(a=1.0, b=0.0)


def test_catalog_unit_speed_and_characters():
    spec = catalog.helicoidal(domain=(-1.0, 2.0), samples=41)
    for s in spec.grid():
        e = spec.indicatrix(float(s))
        t = _fd_vec(spec.indicatrix, float(s))
        assert lorentz_dot(e, e) == pytest.approx(1.0, abs=1e-10)
        assert lorentz_dot(t, t) == pytest.approx(-1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# arc-length reparametrization

def test_reparametrize_identity_for_unit_speed():
    spec = catalog.cone(domain=(0.0, 1.0), samples=21)
    assert arclength_reparametrize(spec) is spec


def _double_speed_indicatrix(u):
    w = 2.0 * u / 0.8
    return Vec3L(0.8 * dual.sinh(w), 0.8 * dual.cosh(w), 0.6)


def _double_speed_cone():
    return RuledSurfaceSpec(_double_speed_indicatrix, lambda u: ORIGIN, (0.0, 0.5), 11,
                            SPACELIKE_SURFACE)


def test_reparametrize_double_speed():
    out = arclength_reparametrize(_double_speed_cone())
    assert out.domain[0] == pytest.approx(0.0, abs=1e-12)
    assert out.domain[1] == pytest.approx(1.0, abs=1e-10)
    for s in np.linspace(0.0, 1.0, 9):
        got = out.indicatrix(float(s))
        want = _double_speed_indicatrix(float(s) / 2.0)
        assert max(abs(x - y) for x, y in zip(got, want)) < 1e-10
        d = differentiate(out.indicatrix, float(s), AD)
        assert lorentz_dot(d, d) == pytest.approx(-1.0, abs=1e-8)


def test_reparametrize_round_trip_catches_a_shifted_table(monkeypatch):
    # a cumulative table off by 1e-3 inverts consistently with itself; only
    # the independent quadrature of the round trip can see it
    real = ruled.cumulative_integrate
    monkeypatch.setattr(ruled, "cumulative_integrate",
                        lambda f, grid, nodes: real(f, grid, nodes) + 1e-3)
    with pytest.raises(GeometryError, match="round trip"):
        arclength_reparametrize(_double_speed_cone())


def test_reparametrize_raises_when_newton_stalls(monkeypatch):
    real = ruled._signed_integral
    noise = itertools.cycle((1e-9, -1e-9))
    monkeypatch.setattr(ruled, "_signed_integral",
                        lambda f, a, b: real(f, a, b) + next(noise))
    with pytest.raises(GeometryError, match="Newton"):
        arclength_reparametrize(_double_speed_cone())


def test_reparametrized_warped_spec_matches_the_catalog():
    # darboux_frame evaluates the reparametrized closures on arrays of s, so
    # the inverse u(s) works elementwise
    out = arclength_reparametrize(_warped(catalog.helicoidal(domain=(0.2, 1.0), samples=21), 0.3))
    assert out.domain == pytest.approx((0.2 + 0.3 * 0.2 ** 2, 1.3), abs=1e-12)
    ref = catalog.helicoidal(domain=out.domain, samples=21)
    for f, r in zip(darboux_frame(out), darboux_frame(ref)):
        got = (f.s, *f.e, *f.t, *f.g, f.gamma, f.delta, f.Delta, f.s_star, *f.striction_point)
        want = (r.s, *r.e, *r.t, *r.g, r.gamma, r.delta, r.Delta, r.s_star, *r.striction_point)
        assert max(abs(x - y) for x, y in zip(got, want)) < 1e-12
        assert f.ds_du == pytest.approx(1.0, abs=1e-12)


def test_reparametrize_rejects_constant_indicatrix():
    spec = RuledSurfaceSpec(lambda u: CONE_E0, lambda u: ORIGIN, (0.0, 1.0), 5,
                            SPACELIKE_SURFACE)
    with pytest.raises(DegenerateIndicatrix):
        arclength_reparametrize(spec)


# ---------------------------------------------------------------------------
# striction curve

def test_striction_fixed_point_when_base_is_striction():
    spec = catalog.helicoidal(domain=(0.0, 1.0), samples=11)
    c = striction_curve(spec)
    for s in spec.grid():
        got = c(float(s))
        want = spec.base_curve(float(s))
        assert max(abs(x - y) for x, y in zip(got, want)) < 1e-12


def test_striction_collapses_sliding_directrix_on_cone():
    base = catalog.cone(domain=(0.0, 1.0), samples=11)

    def sliding(u):
        return Vec3L(1.0, -2.0, 0.5) + dual.sin(u) * base.indicatrix(u)

    spec = RuledSurfaceSpec(base.indicatrix, sliding, (0.0, 1.0), 11, SPACELIKE_SURFACE)
    c = striction_curve(spec)
    for s in np.linspace(0.0, 1.0, 7):
        got = c(float(s))
        assert max(abs(x - y) for x, y in zip(got, Vec3L(1.0, -2.0, 0.5))) < 1e-8


def test_striction_condition_holds():
    spec = catalog.helicoidal(domain=(0.05, 0.95), samples=11)
    c = striction_curve(spec)
    for s in spec.grid():
        cp = _fd_vec(c, float(s))
        ep = _fd_vec(spec.indicatrix, float(s))
        assert abs(lorentz_dot(cp, ep)) < 1e-8


@settings(max_examples=20, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_striction_invariant_under_directrix_choice(a0, a1):
    # sliding the directrix along the rulings never changes the striction curve
    base = catalog.helicoidal(domain=(0.1, 0.9), samples=5)

    def directrix(u):
        return base.base_curve(u) + (a0 + a1 * dual.sin(u)) * base.indicatrix(u)

    moved = RuledSurfaceSpec(base.indicatrix, directrix, base.domain, base.samples,
                             SPACELIKE_SURFACE)
    c = striction_curve(moved)
    for s in moved.grid():
        got = c(float(s))
        want = base.base_curve(float(s))
        assert max(abs(x - y) for x, y in zip(got, want)) < 1e-9


# ---------------------------------------------------------------------------
# darboux frame and invariants

def test_cone_frame_at_zero():
    frames = darboux_frame(catalog.cone(domain=(0.0, 1.0), samples=5))
    f = frames[0]
    assert max(abs(x - y) for x, y in zip(f.e, CONE_E0)) < 1e-12
    assert max(abs(x - y) for x, y in zip(f.t, CONE_T0)) < 1e-12
    assert max(abs(x - y) for x, y in zip(f.g, CONE_G0)) < 1e-12
    assert f.gamma == pytest.approx(0.75, abs=1e-12)
    assert f.delta == 0.0 and f.Delta == 0.0
    assert f.gamma_dual == DualScalar(0.75, -0.0)


def test_gamma_against_fd_oracle():
    spec = catalog.cone(domain=(0.0, 1.0), samples=5)

    def g_of(s):
        e = spec.indicatrix(s)
        t = _fd_vec(spec.indicatrix, s)
        return -lorentz_cross(e, t)

    for f in darboux_frame(spec):
        gp = _fd_vec(g_of, f.s, h=1e-5)
        gamma_fd = -lorentz_dot(gp, f.t)
        assert f.gamma == pytest.approx(gamma_fd, abs=1e-5)


def test_helicoidal_invariants_constant():
    spec = catalog.helicoidal(domain=(0.05, 0.95), samples=31)
    for f in darboux_frame(spec):
        assert f.gamma == pytest.approx(0.75, abs=1e-12)
        assert f.delta == pytest.approx(0.2, abs=1e-12)
        assert f.Delta == pytest.approx(0.1, abs=1e-12)
        assert f.gamma_dual.du == pytest.approx(-0.275, abs=1e-12)
        # s_star is anchored at parameter 0 even though the grid starts at 0.05
        assert f.s_star == pytest.approx(0.1 * f.s, abs=1e-10)


def test_frame_signature_invariants():
    spec = catalog.helicoidal(domain=(0.0, 1.0), samples=21)
    for f in darboux_frame(spec):
        assert lorentz_dot(f.e, f.e) == pytest.approx(1.0, abs=1e-9)
        assert lorentz_dot(f.t, f.t) == pytest.approx(-1.0, abs=1e-9)
        assert lorentz_dot(f.g, f.g) == pytest.approx(1.0, abs=1e-9)
        assert abs(lorentz_dot(f.e, f.t)) < 1e-9
        assert abs(lorentz_dot(f.e, f.g)) < 1e-9
        assert abs(lorentz_dot(f.t, f.g)) < 1e-9
        gref = -lorentz_cross(f.e, f.t)
        assert max(abs(x - y) for x, y in zip(f.g, gref)) < 1e-12


def _warped(spec, k):
    """The spec composed with u -> u + k*u^2, whose arc length from 0 is u + k*u^2."""
    def warp(u):
        return u + k * u * u

    return dataclasses.replace(spec, indicatrix=lambda u: spec.indicatrix(warp(u)),
                               base_curve=lambda u: spec.base_curve(warp(u)))


def test_darboux_frame_is_parametrization_invariant():
    params = MannheimParams(c=1.0, c_star=0.0)
    for k in (0.1, 0.5):
        for samples in (11, 101):
            spec = _warped(catalog.helicoidal(domain=(0.05, 0.95), samples=samples), k)
            for cfg, tol in ((AD, 1e-12), (FD, 1e-6)):
                for u, f in zip(spec.grid(), darboux_frame(spec, cfg)):
                    s = u + k * u * u
                    assert f.s == pytest.approx(s, abs=tol)
                    assert f.s_star == pytest.approx(0.1 * s, abs=tol)
                    assert f.gamma == pytest.approx(0.75, abs=tol)
                    assert f.delta == pytest.approx(0.2, abs=tol)
                    assert f.Delta == pytest.approx(0.1, abs=tol)
                    assert f.ds_du == pytest.approx(1.0 + 2.0 * k * u, abs=tol)
                assert verify_offset(spec, params, cfg).passed, (k, samples, cfg)


def test_darboux_frame_evaluates_each_node_and_midpoint_once():
    spec = catalog.helicoidal(domain=(0.5, 1.5), samples=11)
    seen = []

    def base(u):
        seen.extend(np.ravel(dual.leading_real(u)).tolist())
        return spec.base_curve(u)

    darboux_frame(dataclasses.replace(spec, base_curve=base), AD)
    grid = spec.grid()
    mids = 0.5 * (grid[:-1] + grid[1:])
    counts = Counter(seen)
    # one evaluation per node and per Simpson midpoint; the head integral
    # from parameter 0 samples [0, grid[0]] once per point, ending on grid[0]
    assert Counter({u: n for u, n in counts.items() if u > grid[0]}) == Counter([*grid[1:], *mids])
    assert counts[grid[0]] == 2
    head = [u for u in seen if u < grid[0]]
    assert len(head) == len(set(head)) > 0


def _counted(spec):
    """The spec with both closures recording, per call, the real parameters they see."""
    calls = {"indicatrix": [], "base_curve": []}

    def counted(name, fn):
        def f(u):
            calls[name].append(np.ravel(dual.leading_real(u)).tolist())
            return fn(u)
        return f

    spec = dataclasses.replace(spec, indicatrix=counted("indicatrix", spec.indicatrix),
                               base_curve=counted("base_curve", spec.base_curve))
    return spec, calls


def _assert_batched(calls, grid):
    # nodes, Simpson midpoints and the head integral from 0 each go in
    # blocks of at most BLOCK points, a few closure calls per block
    blocks = 2 * math.ceil(len(grid) / ruled.BLOCK) + 1
    mids = 0.5 * (grid[:-1] + grid[1:])
    for seen in calls.values():
        assert len(seen) <= 2 * blocks
        assert max(len(points) for points in seen) <= ruled.BLOCK
        # the points evaluated are those of the per-sample measurement: every
        # node and midpoint once, plus the head quadrature ending on grid[0]
        counts = Counter(u for points in seen for u in points)
        assert Counter({u: n for u, n in counts.items() if u > grid[0]}) == Counter([*grid[1:], *mids])
        assert counts[grid[0]] == 2
        head = [u for points in seen for u in points if u < grid[0]]
        assert len(head) == len(set(head)) > 0


def test_darboux_frame_evaluates_whole_blocks_per_closure_call():
    spec, calls = _counted(catalog.helicoidal(domain=(0.05, 0.95), samples=1001))
    darboux_frame(spec, AD)
    _assert_batched(calls, spec.grid())


def test_timelike_invariants_evaluates_whole_blocks_per_closure_call():
    base = catalog.helicoidal(domain=(0.05, 0.95), samples=1001)
    frames = darboux_frame(base, AD)
    offset = construct_offset(base, frames, offset_angles(frames, MannheimParams(1.0, 0.1)))
    spec, calls = _counted(offset)
    timelike_invariants(spec, AD)
    _assert_batched(calls, spec.grid())


def test_tangent_speed_names_the_first_offending_parameter():
    u = np.linspace(0.0, 2.0, 9)
    stall = Vec3L(np.where(u < 0.75, 1.0, 0.0), 0.0 * u, 0.0 * u)
    with pytest.raises(DegenerateIndicatrix, match=r"u=0\.75$"):
        ruled.tangent_speed(stall, 1.0, u)
    flip = Vec3L(1.0 + 0.0 * u, np.where(u < 1.5, 0.0, 2.0), 0.0 * u)
    with pytest.raises(FrameDegeneracy, match=r"u=1\.5$"):
        ruled.tangent_speed(flip, 1.0, u)


def test_darboux_frame_rejects_a_non_finite_dual_node():
    # the base curve's NaN lives only in dual components until the node is split
    spec = catalog.helicoidal(domain=(0.0, 1.0), samples=5)
    spec = dataclasses.replace(spec, base_curve=lambda u: Vec3L(0.0 * u, 0.0 * u, math.nan * u))
    with pytest.raises(NonFinite):
        darboux_frame(spec, AD)


@pytest.mark.parametrize("cfg", [AD, FD], ids=["dual-ad", "central-fd"])
def test_darboux_frame_rejects_a_directrix_off_the_striction_curve(monkeypatch, cfg):
    # sliding the jet's point along the ruling gives <c', t> = -0.1*u*v != 0
    real = ruled.striction_jet

    def sliding_jet(spec):
        jet = real(spec)

        def off(u):
            c, e, ep = jet(u)
            return c + (0.1 * u) * e, e, ep

        return off

    monkeypatch.setattr(ruled, "striction_jet", sliding_jet)
    with pytest.raises(FrameDegeneracy, match="striction condition"):
        darboux_frame(catalog.helicoidal(domain=(0.05, 0.95), samples=11), cfg)


@pytest.mark.parametrize("cfg,tol", [(AD, 1e-8), (FD, 1e-6)])
def test_darboux_formula_residuals(cfg, tol):
    spec = catalog.helicoidal(domain=(0.05, 0.95), samples=9)
    ind = spec.indicatrix

    def t_curve(u):
        return differentiate(ind, u, cfg)

    def g_curve(u):
        return -lorentz_cross(ind(u), differentiate(ind, u, cfg))

    for f in darboux_frame(spec, cfg):
        tp = differentiate(t_curve, f.s, cfg)
        want_tp = f.e + f.gamma * f.g
        assert max(abs(x - y) for x, y in zip(tp, want_tp)) < tol
        gp = differentiate(g_curve, f.s, cfg)
        want_gp = f.gamma * f.t
        assert max(abs(x - y) for x, y in zip(gp, want_gp)) < tol


def test_dual_norm_of_dual_tangent_is_one_plus_eps_Delta():
    spec = catalog.helicoidal(domain=(0.05, 0.95), samples=9)
    c = striction_curve(spec)

    def moment(u):
        return lorentz_cross(c(u), spec.indicatrix(u))

    for f in darboux_frame(spec):
        ep = differentiate(spec.indicatrix, f.s, AD)
        mp = differentiate(moment, f.s, AD)
        n = dual_norm(DualVec3(ep, mp))
        assert n.re == pytest.approx(1.0, abs=1e-8)
        assert n.du == pytest.approx(f.Delta, abs=1e-8)


def test_dual_darboux_consistency_pins_cprime_sign():
    # -<g_dual', t_dual> must equal gamma - eps*delta, which only balances
    # with the striction decomposition c' = delta*e + Delta*g
    spec = catalog.helicoidal(domain=(0.05, 0.95), samples=9)
    c = striction_curve(spec)

    def g_dual_curve(u):
        e = spec.indicatrix(u)
        ep = differentiate(spec.indicatrix, u, AD)
        g = -lorentz_cross(e, ep)
        return g, lorentz_cross(c(u), g)

    def g_re(u):
        return g_dual_curve(u)[0]

    def g_du(u):
        return g_dual_curve(u)[1]

    for f in darboux_frame(spec):
        gp = DualVec3(differentiate(g_re, f.s, AD), differentiate(g_du, f.s, AD))
        t_dual = f.dual_t()
        coeff = -dual_lorentz_dot(gp, t_dual)
        assert coeff.re == pytest.approx(f.gamma, abs=1e-8)
        assert coeff.du == pytest.approx(-f.delta, abs=1e-8)
        back = coeff / DualScalar(1.0, f.Delta)
        assert back.re == pytest.approx(f.gamma_dual.re, abs=1e-8)
        assert back.du == pytest.approx(f.gamma_dual.du, abs=1e-8)


def _ruling_normal(spec, s, v):
    # surface normal direction at (s, v): phi_s x phi_v
    c = striction_curve(spec)

    def phi(u):
        return c(u) + v * spec.indicatrix(u)

    phi_s = _fd_vec(phi, s)
    return lorentz_cross(phi_s, spec.indicatrix(s))


def test_developability_iff_normal_constant_along_ruling():
    cone = catalog.cone(domain=(0.1, 0.9), samples=5)
    heli = catalog.helicoidal(domain=(0.1, 0.9), samples=5)
    s = 0.4
    n0 = _ruling_normal(cone, s, 0.5)
    n1 = _ruling_normal(cone, s, 2.0)
    tilt = lorentz_cross(n0, n1)
    assert max(abs(x) for x in tilt) < 1e-6  # parallel normals: developable
    m0 = _ruling_normal(heli, s, 0.5)
    m1 = _ruling_normal(heli, s, 2.0)
    tilt = lorentz_cross(m0, m1)
    assert max(abs(x) for x in tilt) > 1e-3  # Delta != 0 twists the normal


# ---------------------------------------------------------------------------
# dual arc length

def test_dual_arclength_cone():
    spec = catalog.cone(domain=(0.0, 2.5), samples=11)
    out = dual_arclength(spec, 2.0)
    assert out.re == pytest.approx(2.0, abs=1e-10)
    assert out.du == pytest.approx(0.0, abs=1e-12)


def test_dual_arclength_helicoidal():
    spec = catalog.helicoidal(domain=(0.0, 1.0), samples=11)
    out = dual_arclength(spec, 0.5)
    assert out.re == pytest.approx(0.5, abs=1e-10)
    assert out.du == pytest.approx(0.05, abs=1e-10)


# ---------------------------------------------------------------------------
# curvature elements

def test_curvature_elements_at_zero_gamma():
    from dataclasses import replace
    f = darboux_frame(catalog.cone(domain=(0.0, 1.0), samples=3))[0]
    f0 = replace(f, gamma_dual=DualScalar(0.0, 0.0))
    out = dual_curvature_elements(f0)
    assert out.R_dual == DualScalar(1.0, 0.0)
    g_dual = f0.dual_g()
    assert max(abs(x - y) for x, y in zip(out.darboux_unit.re, g_dual.re)) < 1e-12
    assert max(abs(x - y) for x, y in zip(out.darboux_unit.du, g_dual.du)) < 1e-12


def test_curvature_elements_cone():
    f = darboux_frame(catalog.cone(domain=(0.0, 1.0), samples=3))[0]
    out = dual_curvature_elements(f)
    assert out.R_dual.re == pytest.approx(0.8, abs=1e-12)
    assert out.R_dual.du == pytest.approx(0.0, abs=1e-12)
    # unit Darboux vector is -0.6*e_dual + 0.8*g_dual
    want = -0.6 * f.dual_e().re + 0.8 * f.dual_g().re
    assert max(abs(x - y) for x, y in zip(out.darboux_unit.re, want)) < 1e-12
    assert causal_character(out.darboux_unit.re) is CausalCharacter.SPACELIKE
    # sin(rho) = 0.8, cos(rho) = -0.6
    assert math.sin(out.rho_dual.re) == pytest.approx(0.8, abs=1e-12)
    assert math.cos(out.rho_dual.re) == pytest.approx(-0.6, abs=1e-12)
    assert out.rho_dual.re == pytest.approx(math.atan2(0.8, -0.6), abs=1e-12)


def test_curvature_dual_slot():
    from dataclasses import replace
    f = darboux_frame(catalog.cone(domain=(0.0, 1.0), samples=3))[0]
    f = replace(f, gamma_dual=DualScalar(0.75, -0.275))
    out = dual_curvature_elements(f)
    assert out.R_dual.du == pytest.approx(0.75 * 0.275 / 1.953125, abs=1e-12)
    # cross-check against finite differences on the real formula
    h = 1e-6
    fd = (1 / math.sqrt(1 + (0.75 + h) ** 2) - 1 / math.sqrt(1 + (0.75 - h) ** 2)) / (2 * h)
    assert out.R_dual.du == pytest.approx(-0.275 * fd, abs=1e-8)


def test_radius_identity_on_catalog():
    spec = catalog.helicoidal(domain=(0.05, 0.95), samples=9)
    for f in darboux_frame(spec):
        out = dual_curvature_elements(f)
        check = out.R_dual * out.R_dual * (1.0 + f.gamma_dual * f.gamma_dual)
        assert check.re == pytest.approx(1.0, abs=1e-10)
        assert check.du == pytest.approx(0.0, abs=1e-10)
        assert causal_character(out.darboux_unit.re) is CausalCharacter.SPACELIKE


# ---------------------------------------------------------------------------
# timelike radius

def test_timelike_radius_trivial():
    out = timelike_radius(DualScalar(0.0, 0.0))
    assert out.radius == DualScalar(1.0, 0.0)
    assert out.branch == BRANCH_SPACELIKE_DARBOUX


def test_timelike_radius_frozen_example():
    g = DualScalar(-math.tanh(0.5), 0.05 / math.cosh(0.5) ** 2)
    out = timelike_radius(g)
    assert out.radius.re == pytest.approx(math.cosh(0.5), abs=1e-12)
    assert out.radius.du == pytest.approx(-0.05 * math.sinh(0.5), abs=1e-12)


def test_timelike_radius_null_darboux():
    with pytest.raises(NullDarboux):
        timelike_radius(DualScalar(-0.99999999999, 0.0))
    with pytest.raises(NullDarboux):
        timelike_radius(DualScalar(1.0, 0.3))


def test_timelike_radius_branch():
    out = timelike_radius(DualScalar(2.0, 0.0))
    assert out.branch == BRANCH_TIMELIKE_DARBOUX
    assert out.radius.re == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)


# ---------------------------------------------------------------------------
# reconstruction

def test_reconstruct_cone_striction_fixed():
    prof = InvariantProfile.from_constants(0.75, 0.0, 0.0, CONE_E0, CONE_T0, CONE_G0, ORIGIN)
    spec = reconstruct_from_invariants(prof, np.linspace(0.0, 1.0, 11))
    for f in darboux_frame(spec):
        assert max(abs(x) for x in f.striction_point) < 1e-9


def test_reconstruct_helicoidal_round_trip():
    prof = InvariantProfile.from_constants(0.75, 0.2, 0.1, CONE_E0, CONE_T0, CONE_G0, ORIGIN)
    spec = reconstruct_from_invariants(prof, np.linspace(0.0, 1.0, 11))
    for f in darboux_frame(spec):
        assert f.gamma == pytest.approx(0.75, abs=1e-7)
        assert f.delta == pytest.approx(0.2, abs=1e-7)
        assert f.Delta == pytest.approx(0.1, abs=1e-7)


def test_reconstruct_congruent_to_catalog():
    # same initial frame as the catalog helicoidal: curves should coincide
    prof = InvariantProfile.from_constants(0.75, 0.2, 0.1, CONE_E0, CONE_T0, CONE_G0,
                                           catalog.helicoidal().base_curve(0.0))
    spec = reconstruct_from_invariants(prof, np.linspace(0.0, 1.0, 11))
    ref = catalog.helicoidal()
    for s in np.linspace(0.0, 1.0, 7):
        got = spec.indicatrix(float(s))
        want = ref.indicatrix(float(s))
        assert max(abs(x - y) for x, y in zip(got, want)) < 1e-9
        got_c = spec.base_curve(float(s))
        want_c = ref.base_curve(float(s))
        assert max(abs(x - y) for x, y in zip(got_c, want_c)) < 1e-9


@pytest.mark.parametrize("domain", [(0.5, 1.0), (-1.0, -0.5), (-0.5, 0.5)])
@pytest.mark.parametrize("cfg", [AD, FD])
def test_reconstruct_keeps_arc_length_off_the_origin(domain, cfg):
    # the seed sits at the first grid point, but s and s* are anchored at
    # parameter 0, so the reconstruction must reach 0 with the same profile
    prof = InvariantProfile(lambda s: 0.75, lambda s: 0.2, lambda s: 0.1 + 0.05 * s,
                            CONE_E0, CONE_T0, CONE_G0, ORIGIN)
    grid = np.linspace(*domain, 11)
    frames = darboux_frame(reconstruct_from_invariants(prof, grid), cfg)
    for u, f in zip(grid, frames):
        assert f.s == pytest.approx(u, abs=1e-12)
        assert f.s_star == pytest.approx(0.1 * u + 0.025 * u * u, abs=1e-12)
        assert f.Delta == pytest.approx(0.1 + 0.05 * u, abs=1e-8)


def test_reconstruct_zero_length_grid():
    prof = InvariantProfile.from_constants(0.75, 0.2, 0.1, CONE_E0, CONE_T0, CONE_G0, ORIGIN)
    spec = reconstruct_from_invariants(prof, np.array([0.3]))
    assert spec.samples == 1
    assert spec.domain == (0.3, 0.3)
    e = spec.indicatrix(0.3)
    assert max(abs(x - y) for x, y in zip(e, CONE_E0)) < 1e-15


def test_profile_rejects_skew_frame():
    with pytest.raises(FrameDegeneracy):
        InvariantProfile.from_constants(0.75, 0.0, 0.0, CONE_E0, CONE_T0,
                                        Vec3L(0.0, -0.6, 0.8), ORIGIN)


def test_reconstruct_nonconstant_profile_round_trip():
    prof = InvariantProfile(
        gamma=lambda s: 0.75 + 0.1 * dual.sin(s),
        delta=lambda s: 0.2 * dual.cos(s),
        Delta=lambda s: 0.1 + 0.05 * s,
        e0=CONE_E0, t0=CONE_T0, g0=CONE_G0, c0=ORIGIN)
    spec = reconstruct_from_invariants(prof, np.linspace(0.0, 1.0, 9))
    for f in darboux_frame(spec):
        assert f.gamma == pytest.approx(0.75 + 0.1 * math.sin(f.s), abs=1e-7)
        assert f.delta == pytest.approx(0.2 * math.cos(f.s), abs=1e-7)
        assert f.Delta == pytest.approx(0.1 + 0.05 * f.s, abs=1e-7)
