import dataclasses
import functools
import gc
import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

import dlgeom.dual as dual
import dlgeom.lorentz as lorentz
import dlgeom.mannheim as mannheim
import dlgeom.ruled as ruled
from dlgeom import catalog
from dlgeom.dual import DualScalar, dual_norm, dual_vector
from dlgeom.errors import (DegenerateIndicatrix, DivisionByPureDual, FrameDegeneracy,
                           GeometryError, NonFinite, NullDarboux, ProfileError,
                           StepSizeError)
from dlgeom.lorentz import Vec3L, causal_character, CausalCharacter, lorentz_cross, lorentz_dot
from dlgeom.mannheim import MannheimParams, construct_offset, verify_offset
from dlgeom.numerics import (CENTRAL_FD, DUAL_AD, FD_STEP, MIN_QUAD_PANELS,
                             QUAD_PANELS_PER_UNIT, frame_residual)
from dlgeom.ruled import (SPACELIKE_SURFACE, TIMELIKE_SURFACE, InvariantProfile, RuledSurfaceSpec,
                          arclength_reparametrize, darboux_frame, dual_arclength,
                          dual_curvature_elements, reconstruct_from_invariants,
                          timelike_invariants, timelike_radius)

# ids that three mode-parametrized tests took when the mode came in a config
# object, kept so that their names stay the same
MODE_IDS = {DUAL_AD: "cfg0", CENTRAL_FD: "cfg1"}

CONE_E0 = Vec3L(0.0, 0.8, 0.6)
CONE_T0 = Vec3L(1.0, 0.0, 0.0)
CONE_G0 = Vec3L(0.0, 0.6, -0.8)
ORIGIN = Vec3L(0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# independent finite-difference oracle (test-local, no kernel derivatives)

def _fd_vec(curve, s, h=1e-6):
    a, b = curve(s + h), curve(s - h)
    return Vec3L((a.x1 - b.x1) / (2 * h), (a.x2 - b.x2) / (2 * h), (a.x3 - b.x3) / (2 * h))


# ---------------------------------------------------------------------------
# the derivative of each mode of the measurement

def _ad_vec(curve, s):
    """The exact derivative, as the dual-AD mode takes it; ``s`` may be dual."""
    return curve(DualScalar(s, 1.0)).du


def _striction(spec, u):
    """(c, e, e') of the striction node at u, c the striction point; ``u`` may be dual."""
    c, _, e, ep, *_ = ruled._exact_node(spec, u)
    return c, e, ep


#: each derivative mode's derivative of a curve, for checks in that mode
DERIVATIVE = {DUAL_AD: _ad_vec, CENTRAL_FD: functools.partial(_fd_vec, h=FD_STEP)}


def test_catalog_parameter_validation():
    with pytest.raises(ValueError):
        catalog.cone(a=0.5, b=0.8)
    with pytest.raises(ValueError):
        catalog.helicoidal(a=1.0, b=0.0)


@pytest.mark.parametrize("change,message", [
    ({"kind": "lightlike-surface"}, r"^unknown surface kind 'lightlike-surface'$"),
    ({"samples": 0}, r"^samples must be >= 1$"),
    ({"domain": (1.0, 0.5)}, r"^empty domain \(1\.0, 0\.5\)$"),
    # numpy would reject a float count only when a measurement grids it, and
    # take True as one sample
    ({"samples": 11.0}, r"^samples must be an integer, got 11\.0$"),
    ({"samples": True}, r"^samples must be an integer, got True$"),
    ({"domain": (0.0, math.inf)}, r"^domain must be finite, got \(0\.0, inf\)$"),
    ({"domain": (math.nan, 1.0)}, r"^domain must be finite, got \(nan, 1\.0\)$"),
], ids=["kind", "samples", "domain", "samples-float", "samples-bool", "domain-infinite",
        "domain-nan"])
def test_spec_rejects_a_kind_sample_count_or_domain_it_cannot_grid(change, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(catalog.cone(), **change)


def test_spec_takes_a_numpy_integer_sample_count():
    spec = catalog.cone(samples=np.int64(5))
    assert len(darboux_frame(spec)) == 5


def test_measurements_reject_a_spec_of_the_other_causal_class():
    cone = catalog.cone(samples=5)
    with pytest.raises(ValueError, match="spacelike-surface spec"):
        darboux_frame(dataclasses.replace(cone, kind=TIMELIKE_SURFACE))
    with pytest.raises(ValueError, match="timelike-surface spec"):
        timelike_invariants(cone)


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
        d = _ad_vec(out.indicatrix, float(s))
        assert lorentz_dot(d, d) == pytest.approx(-1.0, abs=1e-8)


def test_reparametrize_round_trip_catches_a_shifted_table(monkeypatch):
    # a cumulative table off by 1e-3 inverts consistently with itself; only
    # the independent quadrature of the round trip can see it
    real = ruled.cumulative_integrate
    monkeypatch.setattr(ruled, "cumulative_integrate",
                        lambda grid, nodes, mids: real(grid, nodes, mids) + 1e-3)
    with pytest.raises(GeometryError, match="round trip"):
        arclength_reparametrize(_double_speed_cone())


def test_reparametrize_raises_when_newton_stalls(monkeypatch):
    real = ruled.integrate
    noise = itertools.cycle((1e-9, -1e-9))
    monkeypatch.setattr(ruled, "integrate", lambda f, a, b: real(f, a, b) + next(noise))
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
    for s in spec.grid():
        got = _striction(spec, float(s))[0]
        want = spec.base_curve(float(s))
        assert max(abs(x - y) for x, y in zip(got, want)) < 1e-12


def test_striction_collapses_sliding_directrix_on_cone():
    base = catalog.cone(domain=(0.0, 1.0), samples=11)

    def sliding(u):
        return Vec3L(1.0, -2.0, 0.5) + dual.sin(u) * base.indicatrix(u)

    spec = RuledSurfaceSpec(base.indicatrix, sliding, (0.0, 1.0), 11, SPACELIKE_SURFACE)
    for s in np.linspace(0.0, 1.0, 7):
        got = _striction(spec, float(s))[0]
        assert max(abs(x - y) for x, y in zip(got, Vec3L(1.0, -2.0, 0.5))) < 1e-8


def test_striction_condition_holds():
    spec = catalog.helicoidal(domain=(0.05, 0.95), samples=11)
    for s in spec.grid():
        cp = _fd_vec(lambda u: _striction(spec, u)[0], float(s))
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
    for s in moved.grid():
        got = _striction(moved, float(s))[0]
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


def test_frame_rows_agree_with_columns():
    frames = darboux_frame(catalog.helicoidal(domain=(0.05, 0.95), samples=9))

    def leaves(f):
        return [f.s, *f.e, *f.t, *f.g, f.gamma, f.delta, f.Delta, f.s_star,
                f.gamma_dual.re, f.gamma_dual.du, *f.striction_point, f.ds_du]

    assert len(frames) == 9 and len(list(frames)) == 9
    columns = leaves(frames)
    for i in (0, 4, -1):
        row = leaves(frames[i])
        assert all(type(x) is float for x in row)
        assert row == [c[i] for c in columns]
    assert [f.s for f in frames] == frames.s.tolist()
    with pytest.raises(IndexError):
        frames[9]


def test_frame_iteration_gives_the_indexed_rows():
    frames = darboux_frame(catalog.helicoidal(domain=(0.05, 0.95), samples=9))
    assert list(frames) == [frames[i] for i in range(len(frames))]


def test_rows_reuse_the_check_their_column_passed(monkeypatch):
    # a column is checked finite once, when it is built; its rows are not re-checked
    with pytest.raises(NonFinite, match="inf"):
        Vec3L(np.array([1.0, math.inf]), np.zeros(2), np.zeros(2))
    column = Vec3L(np.array([1.0, 2.0]), np.zeros(2), np.ones(2))

    def no_recheck(v):
        raise AssertionError(f"component {v!r} checked again")

    monkeypatch.setattr(lorentz, "_check_finite", no_recheck)
    rows = ruled._rows(column)
    assert rows == [Vec3L.from_checked(1.0, 0.0, 1.0), Vec3L.from_checked(2.0, 0.0, 1.0)]
    assert all(type(r) is Vec3L for r in rows)
    assert ruled._rows(column, slice(1, 2)) == rows[1:]


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
            for deriv, tol in ((DUAL_AD, 1e-12), (CENTRAL_FD, 1e-6)):
                for u, f in zip(spec.grid(), darboux_frame(spec, deriv)):
                    s = u + k * u * u
                    assert f.s == pytest.approx(s, abs=tol)
                    assert f.s_star == pytest.approx(0.1 * s, abs=tol)
                    assert f.gamma == pytest.approx(0.75, abs=tol)
                    assert f.delta == pytest.approx(0.2, abs=tol)
                    assert f.Delta == pytest.approx(0.1, abs=tol)
                    assert f.ds_du == pytest.approx(1.0 + 2.0 * k * u, abs=tol)
            assert verify_offset(spec, params).passed, (k, samples)


def _head(u0):
    """The head nodes of a measurement: [0, u0) in max(2, ceil(256*|u0|)) equal panels."""
    n = max(MIN_QUAD_PANELS, math.ceil(abs(u0) * QUAD_PANELS_PER_UNIT)) if u0 else 0
    return np.linspace(0.0, u0, n + 1)[:-1].tolist()


def test_darboux_frame_evaluates_each_node_once():
    # s and s* sum rates and slopes at the nodes: nothing is evaluated between
    # grid nodes, and the head nodes from parameter 0 stop short of grid[0]
    spec = catalog.helicoidal(domain=(0.5, 1.5), samples=11)
    seen = []

    def base(u):
        seen.extend(np.ravel(dual.leading_real(u)).tolist())
        return spec.base_curve(u)

    darboux_frame(dataclasses.replace(spec, base_curve=base))
    head = _head(0.5)
    assert len(head) == 128 and max(head) < 0.5
    assert Counter(seen) == Counter([*spec.grid().tolist(), *head])


def _order(u) -> int:
    """Dual nesting depth of a closure argument."""
    order = 0
    while isinstance(u, DualScalar):
        u, order = u.re, order + 1
    return order


def _counted(spec):
    """The spec with both closures recording, per call, (dual order, real parameters)."""
    calls = {"indicatrix": [], "base_curve": []}

    def counted(name, fn):
        def f(u):
            calls[name].append((_order(u), np.ravel(dual.leading_real(u)).tolist()))
            return fn(u)
        return f

    spec = dataclasses.replace(spec, indicatrix=counted("indicatrix", spec.indicatrix),
                               base_curve=counted("base_curve", spec.base_curve))
    return spec, calls


def _assert_batched(calls, grid):
    # one pass over the grid, then the head nodes from 0: one call of each
    # closure on all of them, and no point between two nodes
    for seen in calls.values():
        assert [points for _, points in seen] == [[*grid, *_head(grid[0])]]


def test_darboux_frame_evaluates_whole_blocks_per_closure_call():
    spec, calls = _counted(catalog.helicoidal(domain=(0.05, 0.95), samples=1001))
    darboux_frame(spec)
    _assert_batched(calls, spec.grid())


def test_timelike_invariants_evaluates_whole_blocks_per_closure_call():
    base = catalog.helicoidal(domain=(0.05, 0.95), samples=1001)
    offset = construct_offset(base, MannheimParams(1.0, 0.1))
    spec, calls = _counted(offset)
    timelike_invariants(spec)
    _assert_batched(calls, spec.grid())


def test_offset_measurement_evaluates_each_base_point_once_per_use():
    # the offset's ruling and striction curve read e, e', the speed and theta*'s
    # rate off one base node, so at the deepest order the base curve and the
    # base indicatrix are each evaluated once per point
    base, calls = _counted(catalog.helicoidal(domain=(0.05, 0.95), samples=101))
    offset = construct_offset(base, MannheimParams(1.0, 0.1))
    timelike_invariants(offset)
    for name, most in (("indicatrix", 1), ("base_curve", 1)):
        counts = Counter(u for order, block in calls[name] if order == 3 for u in block)
        assert len(counts) > 0 and max(counts.values()) == most, name


def _count_offset_calls(monkeypatch) -> dict:
    """Make verify_offset's offset builder return counted specs, whose calls go to ``"calls"``."""
    seen = {}
    real = mannheim._build_offset

    def counted_offset(*args):
        spec, seen["calls"] = _counted(real(*args))
        return spec

    monkeypatch.setattr(mannheim, "_build_offset", counted_offset)
    return seen


def test_verify_offset_evaluates_the_offset_on_its_grid_only(monkeypatch):
    # every residual is pointwise, so the offset is measured on the grid nodes
    # alone, in one call: no head or midpoint points
    seen = _count_offset_calls(monkeypatch)
    base = catalog.helicoidal(domain=(0.05, 0.95), samples=1001)
    assert verify_offset(base, MannheimParams(1.0, 0.1)).passed
    grid = base.grid().tolist()
    for name, calls in seen["calls"].items():
        assert [block for _, block in calls] == [grid], name


def test_a_5001_sample_grid_is_one_closure_call_per_pass(monkeypatch):
    # a pass is one call however many points it has: the base pass here
    # measures 5014 points (13 of them head nodes) and the offset pass 5001
    spec = catalog.helicoidal(domain=(0.05, 0.95), samples=5001)
    base, calls = _counted(spec)
    darboux_frame(base)
    assert {name: [len(b) for _, b in c] for name, c in calls.items()} == {
        "indicatrix": [5014], "base_curve": [5014]}
    seen = _count_offset_calls(monkeypatch)
    base, calls = _counted(spec)
    assert verify_offset(base, MannheimParams(1.0, 0.1)).passed
    for counted in (calls, seen["calls"]):
        assert {name: len(c) for name, c in counted.items()} == {"indicatrix": 1, "base_curve": 1}
    assert len(seen["calls"]["base_curve"][0][1]) == 5001


def test_verify_offset_evaluates_the_base_once_at_order_3():
    # the offset's closures read the base nodes lifted to u + eps, and the base
    # frames are their real parts: one base call per closure at order 3, on the
    # grid and the head nodes
    base, calls = _counted(catalog.helicoidal(domain=(0.05, 0.95), samples=101))
    grid = base.grid()
    assert verify_offset(base, MannheimParams(1.0, 0.1)).passed
    for name, seen in calls.items():
        assert seen == [(3, [*grid.tolist(), *_head(grid[0])])], name


def test_verify_offset_divides_by_the_lifted_speed_once():
    # a dual division at depth 2 costs a nested quotient: the base's striction
    # solve takes one, and the offset's lifted node one for 1/v, which both
    # closures multiply by
    seen = Counter()
    real = DualScalar.__truediv__

    def counted(self, o):
        outermost = seen["depth"] == 0
        seen["order2"] += outermost and _order(o) == 2
        seen["depth"] += 1
        try:
            return real(self, o)
        finally:
            seen["depth"] -= 1

    base = catalog.helicoidal(domain=(0.05, 0.95), samples=101)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DualScalar, "__truediv__", counted)
        assert verify_offset(base, MannheimParams(1.0, 0.1)).passed
    assert seen["order2"] == 2


def _reconstructed():
    prof = InvariantProfile.from_constants(0.75, 0.2, 0.1, CONE_E0, CONE_T0, CONE_G0, ORIGIN)
    return reconstruct_from_invariants(prof, np.linspace(0.0, 1.0, 11))


@pytest.mark.parametrize("call", [
    lambda spec: darboux_frame(spec),
    lambda spec: darboux_frame(spec, CENTRAL_FD),
    lambda spec: verify_offset(spec, MannheimParams(1.0, 0.2)),
    lambda spec: timelike_invariants(construct_offset(spec, MannheimParams(1.0, 0.2)), CENTRAL_FD),
    lambda spec: timelike_invariants(construct_offset(spec, MannheimParams(1.0, 0.2))),
    lambda spec: darboux_frame(_reconstructed()),
], ids=["frames-dual-ad", "frames-central-fd", "offset-dual-ad", "offset-central-fd",
        "offset-invariants", "frames-reconstructed"])
def test_library_calls_leave_no_cyclic_garbage(call):
    # garbage in reference cycles outlives the call until the cyclic
    # collector runs, and holds the nodes it references: peak memory grows
    spec = catalog.helicoidal(domain=(0.05, 0.95), samples=101)
    call(spec)
    gc.collect()
    gc.disable()
    try:
        call(spec)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("deriv", [DUAL_AD, CENTRAL_FD])
def test_verify_offset_arc_lengths_are_darboux_frame_bits(deriv):
    # s and s* are exact in both modes of darboux_frame
    spec = _warped(catalog.helicoidal(domain=(0.05, 0.95), samples=41), 0.3)
    params = MannheimParams(1.0, 0.2)
    frames, report = darboux_frame(spec, deriv), verify_offset(spec, params)
    assert np.array_equal(report.samples.s, frames.s)
    assert np.array_equal(report.samples.theta_star, params.c_star - frames.s_star)


def _sin_warped(spec, k=0.3):
    """The spec composed with u -> u + k*sin(u), whose arc length from 0 is u + k*sin(u)."""
    def warp(u):
        return u + k * dual.sin(u)

    return dataclasses.replace(spec, indicatrix=lambda u: spec.indicatrix(warp(u)),
                               base_curve=lambda u: spec.base_curve(warp(u)))


@pytest.mark.parametrize("deriv", [DUAL_AD, CENTRAL_FD])
@pytest.mark.parametrize("domain", [(0.3, 1.3), (-1.3, -0.3)])
@pytest.mark.parametrize("samples,bound", [(11, 6e-8), (101, 6e-12), (1001, 2e-13)])
def test_arc_lengths_match_their_closed_forms(deriv, domain, samples, bound):
    # s = u + 0.3 sin u and s* = 0.1 s; the end-corrected trapezoid rule errs
    # by O(h^4): 2.8e-8, 2.8e-12 and 9.5e-14 measured in s
    spec = _sin_warped(catalog.helicoidal(domain=domain, samples=samples))
    frames = darboux_frame(spec, deriv)
    s = spec.grid() + 0.3 * np.sin(spec.grid())
    assert np.max(np.abs(frames.s - s)) < bound
    assert np.max(np.abs(frames.s_star - 0.1 * s)) < 0.1 * bound


def test_arc_rate_slopes_are_the_derivatives_of_the_rates():
    # on a directrix off the striction curve c and p differ; the slope of
    # r = det(c', e, e')/v, which reads p' and p'', must still be r's derivative
    base = _sin_warped(catalog.helicoidal(domain=(0.2, 1.2), samples=101))

    def directrix(u):
        return base.base_curve(u) + (0.4 + 0.3 * dual.sin(2.0 * u)) * base.indicatrix(u)

    spec = dataclasses.replace(base, base_curve=directrix)
    u, h = np.linspace(0.2, 1.2, 6), 1e-5

    def rates(x):
        _, cp, e, ep, epp, pp, ppp = ruled._exact_node(spec, x)
        v = ruled.tangent_speed(ep, 1.0, x)
        r = lorentz.det3(cp, e, ep) / v
        dv = -lorentz_dot(ep, epp) / v
        return v, r, dv, (lorentz.det3(ppp, e, ep) + lorentz.det3(pp, e, epp) - r * dv) / v

    v, r, dv, dr = rates(u)
    (v_hi, r_hi, _, _), (v_lo, r_lo, _, _) = rates(u + h), rates(u - h)
    assert np.max(np.abs(dv - (v_hi - v_lo) / (2 * h))) < 1e-8
    assert np.max(np.abs(dr - (r_hi - r_lo) / (2 * h))) < 1e-8
    assert np.min(np.abs(dr)) > 1e-3
    # the measurement sums these rates and slopes: s* = 0.1 s whatever p is
    s = spec.grid() + 0.3 * np.sin(spec.grid())
    assert np.max(np.abs(darboux_frame(spec).s_star - 0.1 * s)) < 1e-12


@pytest.mark.parametrize("deriv", [DUAL_AD, CENTRAL_FD])
def test_each_pass_calls_each_closure_once_in_both_modes(deriv):
    # central-fd differences the exact nodes at u +- FD_STEP, evaluated with
    # the grid in the same call as the pass's other points
    base = catalog.helicoidal(domain=(0.05, 0.95), samples=101)
    grid = base.grid()
    nodes = [*grid, *grid + FD_STEP, *grid - FD_STEP] if deriv == CENTRAL_FD else [*grid]

    def assert_one_call(calls):
        for name, blocks in calls.items():
            assert len(blocks) == 1, name
            assert blocks[0][1][:len(nodes)] == nodes, name

    counted, calls = _counted(base)
    darboux_frame(counted, deriv)
    assert_one_call(calls)
    offset, calls = _counted(construct_offset(base, MannheimParams(1.0, 0.1)))
    timelike_invariants(offset, deriv)
    assert_one_call(calls)


def test_central_fd_names_a_shifted_point_that_fails():
    # the closure is NaN only at 0.5 - FD_STEP, which central-fd evaluates and
    # dual-AD does not
    spec = catalog.helicoidal(domain=(0.0, 1.0), samples=11)
    u_bad = spec.grid()[5] - FD_STEP
    with pytest.raises(NonFinite, match=re.escape(f"at u={float(u_bad)!r}") + "$"):
        darboux_frame(_nan_at(spec, u_bad), CENTRAL_FD)
    darboux_frame(_nan_at(spec, u_bad), DUAL_AD)


@pytest.mark.parametrize("measure", ["base", "offset"])
def test_central_fd_frame_and_arc_lengths_are_dual_ad_bits(measure):
    # central-fd replaces only c' in delta and Delta, and e'' in gamma; every
    # other column reads the same exact nodes as dual-AD
    spec = _warped(catalog.helicoidal(domain=(0.05, 0.95), samples=41), 0.3)
    if measure == "offset":
        spec = construct_offset(spec, MannheimParams(1.0, 0.2))
    ad, fd = (ruled._measure_frames(spec, deriv) for deriv in (DUAL_AD, CENTRAL_FD))
    for name in ("e", "t", "g", "striction_point"):
        for x, y in zip(getattr(ad, name), getattr(fd, name)):
            assert np.array_equal(x, y), name
    for name in ("s", "s_star", "ds_du"):
        assert np.array_equal(getattr(ad, name), getattr(fd, name)), name
    assert not np.array_equal(ad.gamma, fd.gamma)


def _nan_at(spec, u_bad):
    """The spec with a base curve that is NaN at the single parameter ``u_bad``."""
    def base(u):
        poison = np.where(np.asarray(dual.leading_real(u)) == u_bad, math.nan, 0.0)
        return spec.base_curve(u) + Vec3L(poison, 0.0 * poison, 0.0 * poison)

    return dataclasses.replace(spec, base_curve=base)


@pytest.mark.parametrize("deriv", [DUAL_AD, CENTRAL_FD])
@pytest.mark.parametrize("where", ["head", "origin"])
def test_points_off_the_grid_are_checked(deriv, where):
    # the one pass evaluates the head nodes with the grid; a bad value at one
    # of them alone must still raise, naming it
    spec = catalog.helicoidal(domain=(0.05, 0.95), samples=11)
    u_bad = _head(spec.grid()[0])[5 if where == "head" else 0]
    assert u_bad not in spec.grid()
    with pytest.raises(NonFinite, match=re.escape(f"at u={float(u_bad)!r}") + "$"):
        darboux_frame(_nan_at(spec, u_bad), deriv)


@pytest.mark.parametrize("deriv", [DUAL_AD, CENTRAL_FD])
def test_an_overflowing_arc_length_sum_names_its_node(deriv):
    # s*'s rate is -1e308 at every node, so the first step of the sum, to the
    # first head node past 0, overflows; every frame column stays finite
    cone = catalog.cone(domain=(0.05, 0.5), samples=11)
    spec = dataclasses.replace(cone, base_curve=lambda u: Vec3L(0.0, 0.0, 1.25e308 * u))
    u_bad = _head(0.05)[1]
    with pytest.raises(NonFinite, match=re.escape(f"sum at u={u_bad!r}") + "$"):
        darboux_frame(spec, deriv)
    ok = darboux_frame(dataclasses.replace(spec, base_curve=lambda u: Vec3L(0.0, 0.0, 1e307 * u)))
    assert np.all(np.isfinite(ok.s_star)) and np.all(np.isfinite(ok.Delta))


def test_tangent_speed_names_the_first_offending_parameter():
    # a stalling or null e' is the striction node's to reject (see
    # test_darboux_frame_rejects_a_degenerate_ruling); the speed rejects a
    # tangent of the wrong causal character
    u = np.linspace(0.0, 2.0, 9)
    flip = Vec3L(1.0 + 0.0 * u, np.where(u < 1.5, 0.0, 2.0), 0.0 * u)
    with pytest.raises(FrameDegeneracy, match=r"u=1\.5$"):
        ruled.tangent_speed(flip, 1.0, u)


def test_darboux_frame_rejects_a_non_finite_dual_node():
    # the base curve's NaN lives only in dual components until the node is split
    spec = catalog.helicoidal(domain=(0.0, 1.0), samples=5)
    spec = dataclasses.replace(spec, base_curve=lambda u: Vec3L(0.0 * u, 0.0 * u, math.nan * u))
    with pytest.raises(NonFinite):
        darboux_frame(spec)


@pytest.mark.parametrize("deriv", [DUAL_AD, CENTRAL_FD])
def test_node_pass_rejects_an_overflowing_scalar_column(deriv):
    # near u_bad (central-fd's shifted points included) the striction curve
    # runs along the third axis at 5e304 per unit u and the indicatrix moves
    # at speed 1/64: c', c'/v, e, t and g stay finite and the striction check
    # holds exactly, but Delta = det(c'/v, e, t) overflows to NaN.  No vector
    # check reads a scalar column; the check of the whole frame table does
    grid = np.linspace(0.0, 1.0, 11)
    u_bad = grid[6]

    def base(u):
        near = np.abs(np.asarray(dual.leading_real(u)) - u_bad) <= 2 * FD_STEP
        rate = np.where(near, 5e304, 1.0)
        return Vec3L(0.0, 0.0, rate * u)

    def e(u):
        w = u / 51.2 + 3.0
        return Vec3L(0.8 * dual.sinh(w), 0.8 * dual.cosh(w), 0.6)

    spec = RuledSurfaceSpec(e, base, (0.0, 1.0), 11)
    with pytest.raises(NonFinite, match=re.escape(f"at u={float(u_bad)!r}") + "$"):
        darboux_frame(spec, deriv)
    ok = darboux_frame(dataclasses.replace(spec, base_curve=lambda u: Vec3L(0.0, 0.0, u)))
    assert np.all(np.isfinite(ok.Delta))


@pytest.mark.parametrize("deriv", [DUAL_AD, CENTRAL_FD])
def test_darboux_frame_rejects_a_directrix_off_the_striction_curve(monkeypatch, deriv):
    # sliding the node's point c along the ruling by 0.1*u*e, with c' moved to
    # match, gives <c', t> = -0.1*u*v != 0
    real = ruled._exact_node

    def sliding_node(spec, u):
        c, cp, e, ep, *rest = real(spec, u)
        return (c + e * (0.1 * u), cp + e * 0.1 + ep * (0.1 * u), e, ep, *rest)

    monkeypatch.setattr(ruled, "_exact_node", sliding_node)
    with pytest.raises(FrameDegeneracy, match="striction condition"):
        darboux_frame(catalog.helicoidal(domain=(0.05, 0.95), samples=11), deriv)


def _stalled_ruling(u):
    # e' = 2(u - 0.5)*(cosh w, sinh w, 0) vanishes at the node u = 0.5
    w = (u - 0.5) * (u - 0.5) / 0.8
    return Vec3L(0.8 * dual.sinh(w), 0.8 * dual.cosh(w), 0.6)


@pytest.mark.parametrize("deriv", [DUAL_AD, CENTRAL_FD])
@pytest.mark.parametrize("indicatrix,domain,error,message", [
    # <e, e> = 1.25, so the frame is off orthonormality by 0.25 everywhere
    (lambda u: Vec3L(dual.sinh(u), dual.cosh(u), 0.5), (0.0, 1.0), FrameDegeneracy,
     "frame residual up to 2.500e-01, first over 1e-06 at u=0.0"),
    (_stalled_ruling, (0.0, 1.0), DegenerateIndicatrix,
     "striction undefined: e' vanishes near u=0.5"),
    # the catalog's unit-speed e, whose e' = (cosh(u/b), sinh(u/b), 0) is near
    # 1e54 at u = 100: <e', e'> rounds to 0
    (catalog.helicoidal().indicatrix, (100.0, 101.0), DegenerateIndicatrix,
     "striction undefined: <e', e'> = 0 for a nonzero e' (components up to 9.678e+53) "
     "near u=100.0: the tangent is lightlike or the closure lost <e', e'> to rounding"),
], ids=["non-unit-ruling", "stalled-ruling", "rounded-null-tangent"])
def test_darboux_frame_rejects_a_degenerate_ruling(deriv, indicatrix, domain, error, message):
    spec = RuledSurfaceSpec(indicatrix, lambda u: ORIGIN, domain, 11)
    with pytest.raises(error, match=re.escape(message) + "$"):
        darboux_frame(spec, deriv)


@pytest.mark.parametrize("deriv,tol", [(DUAL_AD, 1e-8), (CENTRAL_FD, 1e-6)], ids=MODE_IDS.get)
def test_darboux_formula_residuals(deriv, tol):
    spec = catalog.helicoidal(domain=(0.05, 0.95), samples=9)
    ind = spec.indicatrix
    d = DERIVATIVE[deriv]

    def t_curve(u):
        return d(ind, u)

    def g_curve(u):
        return -lorentz_cross(ind(u), d(ind, u))

    for f in darboux_frame(spec, deriv):
        tp = d(t_curve, f.s)
        want_tp = f.e + f.gamma * f.g
        assert max(abs(x - y) for x, y in zip(tp, want_tp)) < tol
        gp = d(g_curve, f.s)
        want_gp = f.gamma * f.t
        assert max(abs(x - y) for x, y in zip(gp, want_gp)) < tol


def test_dual_norm_of_dual_tangent_is_one_plus_eps_Delta():
    spec = catalog.helicoidal(domain=(0.05, 0.95), samples=9)

    def moment(u):
        c, e, _ = _striction(spec, u)
        return lorentz_cross(c, e)

    for f in darboux_frame(spec):
        ep = _ad_vec(spec.indicatrix, f.s)
        mp = _ad_vec(moment, f.s)
        n = dual_norm(dual_vector(ep, mp))
        assert n.re == pytest.approx(1.0, abs=1e-8)
        assert n.du == pytest.approx(f.Delta, abs=1e-8)


def test_dual_darboux_consistency_pins_cprime_sign():
    # -<g_dual', t_dual> must equal gamma - eps*delta, which only balances
    # with the striction decomposition c' = delta*e + Delta*g
    spec = catalog.helicoidal(domain=(0.05, 0.95), samples=9)

    def g_dual_curve(u):
        c, e, ep = _striction(spec, u)
        g = -lorentz_cross(e, ep)
        return g, lorentz_cross(c, g)

    def g_re(u):
        return g_dual_curve(u)[0]

    def g_du(u):
        return g_dual_curve(u)[1]

    for f in darboux_frame(spec):
        gp = dual_vector(_ad_vec(g_re, f.s), _ad_vec(g_du, f.s))
        t_dual = f.dual_t()
        coeff = -lorentz_dot(gp, t_dual)
        assert coeff.re == pytest.approx(f.gamma, abs=1e-8)
        assert coeff.du == pytest.approx(-f.delta, abs=1e-8)
        back = coeff / DualScalar(1.0, f.Delta)
        assert back.re == pytest.approx(f.gamma_dual.re, abs=1e-8)
        assert back.du == pytest.approx(f.gamma_dual.du, abs=1e-8)


def _ruling_normal(spec, s, v):
    # surface normal direction at (s, v): phi_s x phi_v
    def phi(u):
        c, e, _ = _striction(spec, u)
        return c + v * e

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


@pytest.mark.parametrize("case,du", [("cone", 0.0), ("helicoidal", -0.04)])
def test_dual_arclength_at_zero_and_below_it(case, du):
    spec = getattr(catalog, case)(domain=(-0.5, 0.5), samples=11)
    # an empty span integrates to the float 0.0, returned as a dual zero
    zero = dual_arclength(spec, 0.0)
    assert isinstance(zero, DualScalar) and zero == DualScalar(0.0, 0.0)
    # below 0 the integral is signed: s + eps*s* = -0.4 + eps*(-0.4*Delta0)
    out = dual_arclength(spec, -0.4)
    assert out.re == pytest.approx(-0.4, abs=1e-12)
    assert out.du == pytest.approx(du, abs=1e-12)


@pytest.mark.parametrize("deriv", [DUAL_AD, CENTRAL_FD])
def test_dual_arclength_matches_the_frame_arc_lengths(deriv):
    # the dual-norm quadrature against the frames' fold of det-rates, on a
    # parametrization that is not unit speed; s and s* are exact in both modes
    spec = _warped(catalog.helicoidal(domain=(0.0, 1.0), samples=11), 0.3)
    frames = darboux_frame(spec, deriv)
    for i in (1, 4, 7, 10):
        out = dual_arclength(spec, spec.grid()[i])
        assert out.re == pytest.approx(frames.s[i], abs=1e-12)
        assert out.du == pytest.approx(frames.s_star[i], abs=1e-12)


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
    assert timelike_radius(DualScalar(0.0, 0.0)) == DualScalar(1.0, 0.0)


def test_timelike_radius_frozen_example():
    g = DualScalar(-math.tanh(0.5), 0.05 / math.cosh(0.5) ** 2)
    out = timelike_radius(g)
    assert out.re == pytest.approx(math.cosh(0.5), abs=1e-12)
    assert out.du == pytest.approx(-0.05 * math.sinh(0.5), abs=1e-12)


def test_timelike_radius_null_darboux():
    with pytest.raises(NullDarboux):
        timelike_radius(DualScalar(-0.99999999999, 0.0))
    with pytest.raises(NullDarboux):
        timelike_radius(DualScalar(1.0, 0.3))


def test_timelike_radius_branch():
    # |gamma1| > 1 puts the Darboux vector inside the light cone: 1/sqrt(gamma1^2 - 1)
    assert timelike_radius(DualScalar(2.0, 0.0)).re == pytest.approx(1.0 / math.sqrt(3.0),
                                                                     abs=1e-12)


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
@pytest.mark.parametrize("deriv", [DUAL_AD, CENTRAL_FD], ids=MODE_IDS.get)
def test_reconstruct_keeps_arc_length_off_the_origin(domain, deriv):
    # the seed sits at the first grid point, but s and s* are anchored at
    # parameter 0, so the reconstruction must reach 0 with the same profile
    prof = InvariantProfile(lambda s: 0.75, lambda s: 0.2, lambda s: 0.1 + 0.05 * s,
                            CONE_E0, CONE_T0, CONE_G0, ORIGIN)
    grid = np.linspace(*domain, 11)
    frames = darboux_frame(reconstruct_from_invariants(prof, grid), deriv)
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


@pytest.mark.parametrize("grid,message", [
    ([0.0, 0.1, 1.0], r"s_grid\[1\] = 0\.1, where linspace\(0\.0, 1\.0, 3\) has 0\.5$"),
    ([0.0, 0.6, 0.3], r"s_grid\[1\] = 0\.6, where linspace\(0\.0, 0\.3, 3\) has 0\.15$"),
], ids=["uneven", "unsorted"])
def test_reconstruct_rejects_a_grid_its_spec_would_not_sample(grid, message):
    # the spec samples linspace of the grid's ends and length, so any other
    # grid would be replaced without a word
    prof = InvariantProfile.from_constants(0.75, 0.2, 0.1, CONE_E0, CONE_T0, CONE_G0, ORIGIN)
    with pytest.raises(ValueError, match=message):
        reconstruct_from_invariants(prof, grid)
    # tenths computed as i/10 differ from linspace's i*0.1 in the last bit only
    spec = reconstruct_from_invariants(prof, np.arange(11) / 10.0)
    assert np.array_equal(spec.grid(), np.linspace(0.0, 1.0, 11))


def test_reconstruct_rejects_an_empty_grid():
    prof = InvariantProfile.from_constants(0.75, 0.2, 0.1, CONE_E0, CONE_T0, CONE_G0, ORIGIN)
    with pytest.raises(ValueError, match=r"^empty reconstruction grid$"):
        reconstruct_from_invariants(prof, [])


@pytest.mark.parametrize("grid,message", [
    (np.array([0.0, np.inf]), r"^reconstruction grid is not finite: s_grid\[1\] = inf$"),
    (np.array([np.nan, 1.0]), r"^reconstruction grid is not finite: s_grid\[0\] = nan$"),
    (np.zeros((2, 2)), r"^reconstruction grid must be 1-D, got shape \(2, 2\)$"),
    (np.array(0.5), r"^reconstruction grid must be 1-D, got shape \(\)$"),
], ids=["infinite", "nan", "2-d", "0-d"])
def test_reconstruct_rejects_a_grid_that_is_not_1d_and_finite(grid, message):
    # checked before the spacing, whose subtraction would warn on inf and blame the spacing
    prof = InvariantProfile.from_constants(0.75, 0.2, 0.1, CONE_E0, CONE_T0, CONE_G0, ORIGIN)
    with pytest.raises(ValueError, match=message):
        reconstruct_from_invariants(prof, grid)


def test_reconstruct_rejects_a_decreasing_grid_before_the_flow(monkeypatch):
    # linspace(1, 0, 6) is evenly spaced, but the spec's domain must not be empty
    monkeypatch.setattr(ruled, "_frame_flow", None)
    prof = InvariantProfile.from_constants(0.75, 0.2, 0.1, CONE_E0, CONE_T0, CONE_G0, ORIGIN)
    with pytest.raises(ValueError, match=r"^reconstruction grid decreases from 1\.0 to 0\.0$"):
        reconstruct_from_invariants(prof, np.linspace(1.0, 0.0, 6))


def test_profile_rejects_skew_frame():
    with pytest.raises(FrameDegeneracy):
        InvariantProfile.from_constants(0.75, 0.0, 0.0, CONE_E0, CONE_T0,
                                        Vec3L(0.0, -0.6, 0.8), ORIGIN)


@pytest.mark.parametrize("scale,message", [(5e-9, r"by 1\.000e-08$"), (5e-11, None)],
                         ids=["1e-8", "1e-10"])
def test_profile_frame_check_sits_at_1e_9(scale, message):
    # e0 scaled by 1 + k is off orthonormality by about 2k in <e0, e0>
    e0 = Vec3L(0.0, 0.8 * (1.0 + scale), 0.6 * (1.0 + scale))
    make = functools.partial(InvariantProfile.from_constants, 0.75, 0.2, 0.1, e0, CONE_T0,
                             CONE_G0, ORIGIN)
    if message is None:
        make()
    else:
        with pytest.raises(FrameDegeneracy, match=message):
            make()


def test_profile_rejects_a_seed_whose_gram_entries_overflow():
    # <e, e> = -inf + inf is NaN, and a NaN residual is not within tolerance
    with pytest.raises(FrameDegeneracy, match="nan"):
        InvariantProfile.from_constants(0.75, 0.2, 0.1, Vec3L(1e200, 1e200, 0.0),
                                        Vec3L(1.0, 0.0, 0.0), Vec3L(0.0, 0.0, 1.0), ORIGIN)


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


# ---------------------------------------------------------------------------
# the Magnus frame flow against an independent integrator

def _wavy_profile():
    return InvariantProfile(gamma=lambda s: 0.75 + 0.3 * dual.sin(s),
                            delta=lambda s: 0.2 * dual.cos(s),
                            Delta=lambda s: 0.1 + 0.05 * s,
                            e0=CONE_E0, t0=CONE_T0, g0=CONE_G0, c0=ORIGIN)


@functools.lru_cache(maxsize=None)
def _dop853_at_one() -> tuple:
    """(e, t, g, c) at s = 1 by scipy's DOP853 on the frame system, the reference integrator."""
    prof = _wavy_profile()

    def rates(s, y):
        e, t, g, _ = y.reshape(4, 3)
        gamma = prof.gamma(s)
        return np.concatenate([t, e + gamma * g, gamma * t, prof.delta(s) * e + prof.Delta(s) * g])

    y0 = np.concatenate([list(v) for v in (CONE_E0, CONE_T0, CONE_G0, ORIGIN)])
    sol = solve_ivp(rates, (0.0, 1.0), y0, method="DOP853", rtol=1e-13, atol=1e-13)
    return tuple(Vec3L(*v) for v in sol.y[:, -1].reshape(4, 3))


def _error_at_one(spec) -> float:
    # s = 1 is the last flow node; g = -e x t holds exactly on projected nodes
    ind = spec.indicatrix(DualScalar(1.0, 1.0))
    e, t = ind.re, ind.du
    got = (e, t, -lorentz_cross(e, t), spec.base_curve(1.0))
    return max(abs(x - y) for a, b in zip(got, _dop853_at_one()) for x, y in zip(a, b))


def _wavy_round_trip(spec) -> float:
    prof = _wavy_profile()
    f = darboux_frame(spec)
    return max(np.max(np.abs(x - fn(f.s))) for x, fn in
               ((f.gamma, prof.gamma), (f.delta, prof.delta), (f.Delta, prof.Delta)))


def test_magnus_flow_matches_dop853_on_variable_gamma():
    spec = reconstruct_from_invariants(_wavy_profile(), np.linspace(0.0, 1.0, 11))
    assert _error_at_one(spec) < 1e-11


def test_flipped_commutator_fails_the_dop853_oracle_but_not_the_round_trip(monkeypatch):
    # the round trip measures the Hermite curves' own frames, so it cannot see
    # a flow that integrates the wrong frame system consistently
    monkeypatch.setattr(ruled, "_MAGNUS_COMMUTATOR", -ruled._MAGNUS_COMMUTATOR)
    spec = reconstruct_from_invariants(_wavy_profile(), np.linspace(0.0, 1.0, 11))
    assert _error_at_one(spec) > 1e-9
    assert _wavy_round_trip(spec) < 1e-7


def test_magnus_flow_node_frames_stay_orthonormal():
    spec = reconstruct_from_invariants(_wavy_profile(), np.linspace(0.0, 1.0, 11))
    nodes = np.linspace(0.0, 1.0, ruled.ODE_STEPS_PER_UNIT + 1)
    ind = spec.indicatrix(DualScalar(nodes, 1.0))
    e, t = ind.re, ind.du
    assert np.max(frame_residual(e, t, -lorentz_cross(e, t))) <= 1e-14
    assert _wavy_round_trip(spec) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 1001])
def test_prefix_products_match_a_sequential_product(n):
    # lengths on every edge of the scan's blocks of 32; orthogonal factors
    # keep every running product of norm 1
    m, _ = np.linalg.qr(np.random.default_rng(n).normal(size=(n, 3, 3)))
    expected = np.empty_like(m)
    acc = np.eye(3)
    for i, x in enumerate(m):
        acc = acc @ x
        expected[i] = acc
    got = ruled._prefix_products(m)
    assert got.shape == m.shape
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_magnus_flow_is_fourth_order(monkeypatch):
    # constant gamma is integrated exactly, so only a varying one shows the order
    errors = []
    for steps in (50, 100):
        monkeypatch.setattr(ruled, "ODE_STEPS_PER_UNIT", steps)
        errors.append(_error_at_one(
            reconstruct_from_invariants(_wavy_profile(), np.linspace(0.0, 1.0, 11))))
    assert math.log2(errors[0] / errors[1]) >= 3.8


def _generator(h, q, c):
    """A Magnus generator: e-t entry h, t-g entry q and commutator (e-g) entry c."""
    return np.array([[0.0, h, c], [h, 0.0, q], [-c, q, 0.0]])


def test_exp_so21_matches_expm_on_the_series_and_both_closed_forms():
    # k = tr(w^2)/2 = h^2 + q^2 - c^2: the Taylor series below |k| = 1e-3, sinh
    # from k = 1e-3 and sin from k = -1e-3, each twice, near the switch and far past it
    w = np.array([_generator(*x) for x in (
        (1e-3, 8e-4, 1e-7), (0.0, 0.03, 0.0), (0.02, 0.04, 1e-3), (0.5, 1.2, 0.3),
        (0.0, 0.0, 0.04), (1e-3, 0.01, 0.05), (0.3, 0.2, 1.1))])
    k = 0.5 * np.trace(w @ w, axis1=1, axis2=2)
    assert np.array_equal(np.sign(k) * (np.abs(k) >= 1e-3), [0, 0, 1, 1, -1, -1, -1])
    for got, x in zip(ruled._exp_so21(w), w):
        want = scipy.linalg.expm(x)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_reconstruct_past_the_series_matches_expm_and_round_trips_gamma():
    # at gamma = 35 every Magnus step of h = 1e-3 has k = h^2*(1 + gamma^2) =
    # 1.226e-3, so each exp takes the sinh form; with constant gamma the flow is
    # F0*expm(s*K) exactly, whose entries grow to about cosh(7) = 548 at s = 0.2
    prof = InvariantProfile.from_constants(35.0, 0.2, 0.1, CONE_E0, CONE_T0, CONE_G0, ORIGIN)
    grid = np.linspace(0.0, 0.2, 21)
    spec = reconstruct_from_invariants(prof, grid)
    frame = np.column_stack([tuple(CONE_E0), tuple(CONE_T0), tuple(CONE_G0)])
    generator = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 35.0], [0.0, 35.0, 0.0]])
    for s in grid[::4]:
        want = frame @ scipy.linalg.expm(s * generator)
        ind = spec.indicatrix(DualScalar(s, 1.0))
        e, t = ind.re, ind.du
        got = np.column_stack([tuple(e), tuple(t)])
        assert np.max(np.abs(got - want[:, :2])) <= 1e-10 * np.max(np.abs(want)), s
    # the measurement cancels frame entries of up to about 548, so the round
    # trip keeps about nine digits of gamma
    f = darboux_frame(spec)
    assert np.max(np.abs(f.gamma - 35.0)) <= 1e-7
    assert np.max(np.abs(f.delta - 0.2)) <= 1e-8
    assert np.max(np.abs(f.Delta - 0.1)) <= 1e-8


def _call_kind(s):
    """What a profile function was called on: an array's type, dtype and rank, or a dual's."""
    if isinstance(s, DualScalar):
        return ("dual", _call_kind(s.re), s.du)
    return (type(s).__name__, s.dtype.name, s.ndim)


def test_reconstruct_calls_each_profile_function_per_array():
    calls = Counter()

    def counted(name, f):
        def g(s):
            calls[name, _call_kind(s)] += 1
            return f(s)
        return g

    prof = _wavy_profile()
    prof = dataclasses.replace(prof, **{name: counted(name, getattr(prof, name))
                                        for name in ("gamma", "delta", "Delta")})
    reconstruct_from_invariants(prof, np.linspace(0.0, 1.0, 11))
    # the profile call contract: gamma on float arrays, on the Gauss points and
    # on the nodes; delta and Delta once each at s + eps, as duals over arrays,
    # whose dual slot is their slope, so a profile is written with dual lifts
    array = ("ndarray", "float64", 1)
    assert calls == {("gamma", array): 2, ("delta", ("dual", array, 1.0)): 1,
                     ("Delta", ("dual", array, 1.0)): 1}


@pytest.mark.parametrize("field,f,on", [
    ("delta", lambda s: 0.1 / np.sinh(2.0 - s), "a dual over the nodes"),
    ("Delta", lambda s: 0.1 / dual.sinh(2.0 - s) ** 2, "a dual over the nodes"),
    ("gamma", lambda s: 0.75 + math.sinh(s), "a float array"),
], ids=["numpy-ufunc", "pow", "math-on-array"])
def test_reconstruct_names_a_profile_function_that_cannot_take_its_argument(field, f, on):
    # delta and Delta are called on s + eps for their slopes, where a numpy
    # ufunc and ** raise TypeError; gamma is called on float arrays
    prof = dataclasses.replace(_wavy_profile(), **{field: f})
    with pytest.raises(ProfileError, match=rf"^profile {field} fails on {on}") as info:
        reconstruct_from_invariants(prof, np.linspace(0.0, 1.0, 11))
    assert isinstance(info.value, TypeError) and isinstance(info.value, GeometryError)


def test_reconstruct_drift_check_can_fail(monkeypatch):
    monkeypatch.setattr(ruled, "DRIFT_TOL", 0.0)
    with pytest.raises(StepSizeError, match="exceeds"):
        reconstruct_from_invariants(_wavy_profile(), np.linspace(0.0, 1.0, 11))


@pytest.mark.parametrize("gamma,message", [
    (35.0, r"^frame drift 4\.674e\+14 exceeds 1\.0e-06 at s=0\.322"),
    (1e3, r"^frame drift nan exceeds 1\.0e-06 at s=0\.013"),
], ids=["finite", "overflow"])
def test_reconstruct_drift_check_names_the_largest_drift_and_the_first_node(gamma, message):
    # frame entries grow like exp(sqrt(1 + gamma^2)*s), and the Gram matrices'
    # rounding with their square; once they overflow the largest drift is NaN
    prof = InvariantProfile.from_constants(gamma, 0.2, 0.1, CONE_E0, CONE_T0, CONE_G0, ORIGIN)
    with pytest.raises(StepSizeError, match=message):
        reconstruct_from_invariants(prof, np.linspace(0.0, 1.0, 11))


def test_reconstruct_overflowing_profile_names_s():
    prof = dataclasses.replace(_wavy_profile(), gamma=lambda s: dual.exp(800.0 * s))
    with pytest.raises(NonFinite, match=r"s=0\.887"):
        reconstruct_from_invariants(prof, np.linspace(0.0, 1.0, 11))


def test_reconstruct_overflowing_striction_curve_names_its_node():
    # each profile value is finite, but the trapezoid sum of two neighbouring
    # c' = delta*e + Delta*g overflows once a component of e passes 0.9
    prof = InvariantProfile.from_constants(0.75, 1e308, 0.1, CONE_E0, CONE_T0, CONE_G0, ORIGIN)
    with pytest.raises(NonFinite, match=r"^non-finite curve data at s=0\.395$"):
        reconstruct_from_invariants(prof, np.linspace(0.0, 1.0, 11))


def test_reconstruct_profile_pole_on_a_node_names_s():
    prof = dataclasses.replace(_wavy_profile(), Delta=lambda s: 0.01 / (s - 0.5))
    with pytest.raises(DivisionByPureDual, match=r"u=0\.5$"):
        reconstruct_from_invariants(prof, np.linspace(0.0, 1.0, 11))


# ---------------------------------------------------------------------------
# the node table: one Hermite curve pair over every flow

def _hermite_curve(nodes, values, deriv1, deriv2):
    """The Hermite curve through node data given as (n, 3) arrays of values and derivatives."""
    return ruled._HermiteCurve(nodes, np.stack([values, deriv1, deriv2]).transpose(0, 2, 1))


def test_hermite_curve_reproduces_a_quintic_on_uneven_nodes():
    # a quintic is its own quintic Hermite interpolant on each segment, so only
    # a segment scaled by the wrong step can move it
    polys = [np.polynomial.Polynomial(c) for c in
             ([0.3, -1.0, 0.5, 2.0, -0.7, 0.4], [1.0, 0.2, -0.3, 0.1, 0.9, -0.5],
              [-0.2, 0.7, 1.1, -1.3, 0.2, 0.6])]
    nodes = np.array([-0.4, -0.1, 0.05, 0.5, 0.6, 1.3])
    curve = ruled._HermiteCurve(nodes, np.array([[p.deriv(k)(nodes) for p in polys]
                                                 for k in range(3)]))
    # past both ends, on nodes, between them and on a segment's midpoint
    u = np.array([-0.7, -0.4, -0.25, -0.1, 0.05, 0.3, 0.55, 0.95, 1.3, 1.6])
    got = curve(DualScalar(DualScalar(DualScalar(u, 1.0), 1.0), 1.0))
    for x, p in zip(got, polys):
        assert np.max(np.abs(x.re.re.re - p(u))) < 1e-13
        assert np.max(np.abs(x.re.re.du - p.deriv(1)(u))) < 1e-12
        assert np.max(np.abs(x.re.du.du - p.deriv(2)(u))) < 1e-11
        assert np.max(np.abs(x.du.du.du - p.deriv(3)(u))) < 1e-10
    assert curve(0.5) == Vec3L(*(float(p(0.5)) for p in polys))


def test_hermite_curve_returns_its_node_data_at_every_node():
    # ODE-sized uneven steps: expanding about a segment's far end would amplify
    # the rounding of tau by 1/h^2 in the second derivative
    rng = np.random.default_rng(1)
    nodes = np.concatenate([np.linspace(0.0, 0.2503, 252), np.linspace(0.2503, 0.8, 551)[1:]])
    data = [rng.uniform(-1.0, 1.0, size=(len(nodes), 3)) for _ in range(3)]
    got = _hermite_curve(nodes, *data)(DualScalar(DualScalar(nodes, 1.0), 1.0))
    for k, x in enumerate(got):
        for value, want in zip((x.re.re, x.re.du, x.du.du), data):
            assert np.max(np.abs(value - want[:, k])) <= 1e-15


#: the quintic Hermite basis over tau in [0, 1], as Horner tails
_HORNER_BASIS = (
    lambda tau: 1.0 + tau * tau * tau * (-10.0 + tau * (15.0 - 6.0 * tau)),
    lambda tau: tau + tau * tau * tau * (-6.0 + tau * (8.0 - 3.0 * tau)),
    lambda tau: 0.5 * tau * tau + tau * tau * tau * (-1.5 + tau * (1.5 - 0.5 * tau)),
    lambda tau: tau * tau * tau * (10.0 + tau * (-15.0 + 6.0 * tau)),
    lambda tau: tau * tau * tau * (-4.0 + tau * (7.0 - 3.0 * tau)),
    lambda tau: tau * tau * tau * (0.5 + tau * (-1.0 + 0.5 * tau)),
)


def _horner_hermite(nodes, values, deriv1, deriv2, u):
    """The quintic Hermite curve through node data at a 1-D u, by nested-dual Horner.

    The same segment choice as ruled._HermiteCurve, but the basis runs through
    dual arithmetic at u itself, so every derivative comes from the dual slots.
    """
    s, x = nodes, dual.leading_real(u)
    k = np.searchsorted(s[1:-1], x) + 1
    j = k - (x - s[k - 1] <= s[k] - x)
    o = 2 * k - 1 - j
    h = s[o] - s[j]
    tau = (u - s[j]) / h
    f0, f1 = Vec3L(*values[j].T), Vec3L(*values[o].T)
    d0, d1 = Vec3L(*deriv1[j].T), Vec3L(*deriv1[o].T)
    a0, a1 = Vec3L(*deriv2[j].T), Vec3L(*deriv2[o].T)
    h0, h1, h2, h3, h4, h5 = (basis(tau) for basis in _HORNER_BASIS)
    return (f0 * h0 + (d0 * h) * h1 + (a0 * (h * h)) * h2
            + f1 * h3 + (d1 * h) * h4 + (a1 * (h * h)) * h5)


def _dual_parts(x) -> list:
    """The float leaves of a nested dual scalar, real slot before dual slot."""
    if isinstance(x, DualScalar):
        return _dual_parts(x.re) + _dual_parts(x.du)
    return [np.asarray(x, dtype=float)]


def _dual_points(u: np.ndarray) -> list:
    """u at dual depths 0 to 3, with unit, non-unit, array and nested dual slots."""
    return [u, DualScalar(u, 1.0), DualScalar(u, -0.7),
            DualScalar(u, np.linspace(0.5, 2.0, len(u))), DualScalar(DualScalar(u, 1.0), 1.0),
            DualScalar(DualScalar(u, 0.5), DualScalar(2.0, 0.3)),
            DualScalar(DualScalar(DualScalar(u, 1.0), 1.0), 1.0),
            DualScalar(DualScalar(DualScalar(u, 1.0), -0.4), DualScalar(DualScalar(1.5, 0.2), 0.1))]


def test_hermite_curve_matches_nested_dual_horner_at_depths_0_to_3():
    rng = np.random.default_rng(7)
    nodes = np.array([-0.4, -0.1, 0.05, 0.5, 0.6, 1.3])
    data = [rng.uniform(-1.0, 1.0, size=(len(nodes), 3)) for _ in range(3)]
    curve = _hermite_curve(nodes, *data)
    # past both ends, on every node, on every segment's midpoint, and between
    u = np.concatenate([[-0.6, -0.45, 1.35, 1.5], nodes, 0.5 * (nodes[1:] + nodes[:-1]),
                        rng.uniform(-0.4, 1.3, size=20)])
    for point in _dual_points(u):
        got, want = curve(point), _horner_hermite(nodes, *data, point)
        for a, b in zip(got, want):
            got_parts, want_parts = _dual_parts(a), _dual_parts(b)
            assert len(got_parts) == len(want_parts)
            for x, y in zip(got_parts, want_parts):
                assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


@pytest.mark.parametrize("u", [0.3, np.array(0.3), np.array([0.3, -0.1, 0.7]),
                               np.array([[0.3, 0.7]]), np.array([[0.3, 0.2], [0.9, -0.1]])],
                         ids=["float", "0-d", "1-d", "1x2", "2x2"])
def test_hermite_curve_components_take_the_shape_of_the_parameter(u):
    rng = np.random.default_rng(3)
    nodes = np.array([-0.2, 0.1, 0.35, 0.8, 1.0])
    curve = _hermite_curve(nodes, *(rng.uniform(-1.0, 1.0, size=(5, 3)) for _ in range(3)))
    flat = curve(DualScalar(DualScalar(np.ravel(u), 1.0), 1.0))
    got = curve(DualScalar(DualScalar(u, 1.0), 1.0))
    for x, want in zip(got, flat):
        for part, want_part in zip(_dual_parts(x), _dual_parts(want)):
            assert part.shape == np.shape(u)
            assert np.array_equal(np.ravel(part), want_part)
    for x in curve(u):
        assert np.shape(x) == np.shape(u)


@pytest.mark.parametrize("deriv,tol", [(DUAL_AD, 1e-12), (CENTRAL_FD, 1e-8)], ids=MODE_IDS.get)
def test_reconstruct_joins_flows_of_different_steps(deriv, tol):
    # the grid lies above 0: the run of steps back to 0 and the grid's own
    # steps differ in size, and the one flow crosses where they meet
    c0 = Vec3L(0.3, -0.2, 0.5)
    prof = dataclasses.replace(_wavy_profile(), c0=c0)
    grid = np.linspace(0.2503, 0.8, 11)
    spec = reconstruct_from_invariants(prof, grid)
    steps = np.diff(spec.indicatrix.nodes)
    assert abs(steps[0] - steps[-1]) > 1e-6
    for got, want in ((spec.indicatrix(grid[0]), CONE_E0), (spec.base_curve(grid[0]), c0)):
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-15
    f = darboux_frame(spec, deriv)
    assert np.max(np.abs(f.s - grid)) < 1e-12
    assert np.max(np.abs(f.s_star - (0.1 * grid + 0.025 * grid ** 2))) < 1e-12
    for x, fn in ((f.gamma, prof.gamma), (f.delta, prof.delta), (f.Delta, prof.Delta)):
        assert np.max(np.abs(x - fn(grid))) < tol


#: one-point grids and 11-point grids above, below and across 0, with the node span of each
CURVE_PAIR_GRIDS = [
    ([0.0], (0.0, 0.001)), ([0.3], (0.0, 0.3)), ([-0.3], (-0.3, 0.0)),
    (np.linspace(0.5, 1.0, 11), (0.0, 1.0)), (np.linspace(-1.0, -0.5, 11), (-1.0, 0.0)),
    (np.linspace(-0.5, 0.5, 11), (-0.5, 0.5)),
]


def test_reconstruct_grid_with_a_decimal_span_falls_on_the_nodes():
    # every grid interval takes the same whole number of steps, so each grid
    # point is a flow node, bit for bit: 0.9 - 0.3 is 0.6000000000000001, and
    # 301 samples on [0, 1] are 1/300 apart, which no step of 1/1000 divides
    grids = [grid for grid, _ in CURVE_PAIR_GRIDS] + [
        np.linspace(0.0, 1.0, 301), np.linspace(0.3, 0.9, 11), np.linspace(0.3, 0.9, 61)]
    for grid in grids:
        spec = reconstruct_from_invariants(_wavy_profile(), grid)
        assert np.isin(spec.grid(), spec.indicatrix.nodes).all(), grid
        assert _wavy_round_trip(spec) <= 1e-12, grid


@pytest.mark.parametrize("grid,span", CURVE_PAIR_GRIDS,
                         ids=["zero", "above", "below", "span-above", "span-below", "span-across"])
def test_reconstruct_builds_one_curve_pair_on_increasing_nodes(grid, span, monkeypatch):
    # one flow over one node table, whichever side of 0 the grid lies on
    real, flows = ruled._frame_flow, []
    monkeypatch.setattr(ruled, "_frame_flow", lambda *args: flows.append(args) or real(*args))
    spec = reconstruct_from_invariants(_wavy_profile(), grid)
    assert len(flows) == 1
    for curve in (spec.indicatrix, spec.base_curve):
        assert type(curve) is ruled._HermiteCurve
        assert np.all(np.diff(curve.nodes) > 0.0)
        assert (curve.nodes[0], curve.nodes[-1]) == span
