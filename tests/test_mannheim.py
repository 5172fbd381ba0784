import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq

import dlgeom.dual as dual
import dlgeom.mannheim as mannheim
import dlgeom.ruled as ruled
from dlgeom import catalog
from dlgeom.dual import DualScalar, dual_angle_between
from dlgeom.errors import DegenerateOffset, ZeroConicalCurvature
from dlgeom.lorentz import Vec3L, lorentz_cross, lorentz_dot
from dlgeom.mannheim import (RESIDUAL_KEYS, InvariantRecord, MannheimParams, OffsetAngle,
                             construct_offset, developability_check, mannheim_condition_residual, offset_angles,
                             predicted_invariants, verify_offset)
from dlgeom.numerics import CENTRAL_FD
from dlgeom.ruled import (InvariantProfile, RuledSurfaceSpec, darboux_frame, reconstruct_from_invariants,
                          timelike_invariants, timelike_radius)

PARAMS = MannheimParams(c=1.0, c_star=0.0)


def _heli(samples=41, domain=(0.05, 0.95)):
    return catalog.helicoidal(domain=domain, samples=samples)


def _cone(samples=21, domain=(0.05, 0.95)):
    return catalog.cone(domain=domain, samples=samples)


def _turning(domain=(0.05, 0.95), samples=11):
    """A spacelike base whose conical curvature changes sign near u = 0.5."""
    def e(u):
        w = u - 0.5
        phi = 0.2 * u + 0.3 * w * w * w
        return Vec3L(dual.sinh(u), dual.cosh(u) * dual.cos(phi), dual.cosh(u) * dual.sin(phi))

    return RuledSurfaceSpec(e, lambda u: Vec3L(0.1 * u, 0.2 * u * u, 0.15 * u), domain, samples)


# ---------------------------------------------------------------------------
# offset angles

def test_offset_angles_on_cone_distance_constant():
    frames = darboux_frame(_cone())
    angles = offset_angles(frames, MannheimParams(c=1.0, c_star=0.3))
    for f, a in zip(frames, angles):
        assert a.theta == pytest.approx(1.0 - f.s, abs=1e-12)
        assert a.theta_star == pytest.approx(0.3, abs=1e-10)


def test_offset_angles_on_helicoidal():
    frames = darboux_frame(_heli())
    angles = offset_angles(frames, PARAMS)
    mid = min(angles, key=lambda a: abs(a.s - 0.5))
    assert mid.theta == pytest.approx(0.5, abs=1e-12)
    assert mid.theta_star == pytest.approx(-0.05, abs=1e-10)


def test_offset_angles_at_grid_origin():
    frames = darboux_frame(catalog.helicoidal(domain=(0.0, 1.0), samples=11))
    angles = offset_angles(frames, MannheimParams(c=0.7, c_star=0.4))
    assert angles[0].theta == 0.7
    assert angles[0].theta_star == pytest.approx(0.4, abs=1e-12)


# ---------------------------------------------------------------------------
# offset construction

def test_offset_ruling_is_unit_timelike():
    base = _heli()
    off = construct_offset(base, PARAMS)
    for s in off.grid():
        e1 = off.indicatrix(float(s))
        assert lorentz_dot(e1, e1) == pytest.approx(-1.0, abs=1e-12)


def test_offset_at_theta_zero_sample():
    # c = s at the sample makes theta = 0 there: e1 = t, c1 = c + theta* g
    base = catalog.helicoidal(domain=(0.0, 1.0), samples=11)
    frames = darboux_frame(base)
    sample = frames[5]
    params = MannheimParams(c=sample.s, c_star=0.2)
    angles = offset_angles(frames, params)
    off = construct_offset(base, params)
    e1 = off.indicatrix(sample.s)
    assert max(abs(x - y) for x, y in zip(e1, sample.t)) < 1e-12
    c1 = off.base_curve(sample.s)
    a = angles[5]
    want = sample.striction_point + a.theta_star * sample.g
    assert max(abs(x - y) for x, y in zip(c1, want)) < 1e-10


def _leaf_bytes(v) -> list:
    """Every float leaf of a vector of (nested) dual scalars, as bytes."""
    def leaves(x):
        return leaves(x.re) + leaves(x.du) if isinstance(x, DualScalar) else [np.asarray(x)]

    return [x.tobytes() for c in v for x in leaves(c)]


def test_offset_closures_called_alternately_match_a_fresh_offset():
    # both closures share the base node of the last dual u; calls that
    # alternate between parameters, or change only the dual slot, must not
    # read a node left by another u
    base = _heli(samples=21)
    grid = base.grid()

    def at(points, slot=1.0):
        return DualScalar(DualScalar(points, 1.0), slot)

    u1, u2 = at(grid), at(grid[::-1] * 0.9 + 0.06)
    u3 = DualScalar(u1.re, 0.5)
    off = construct_offset(base, PARAMS)
    calls = [("indicatrix", u1), ("base_curve", u2), ("indicatrix", u2), ("base_curve", u1),
             ("base_curve", u3), ("indicatrix", u3), ("indicatrix", u1), ("base_curve", u1)]
    for name, u in calls:
        fresh = getattr(construct_offset(base, PARAMS), name)(u)
        assert _leaf_bytes(getattr(off, name)(u)) == _leaf_bytes(fresh), name


def test_offset_closures_off_the_nodes_match_their_closed_forms():
    # on the unit-speed helicoidal s = u and s* = Delta0*u, so theta = c - u and
    # theta* = c* - Delta0*u everywhere; between the nodes, before the grid and
    # past its end the angles come from one quadrature of their rates
    base = catalog.helicoidal(0.6, 0.8, 0.2, 0.1, domain=(0.05, 0.95), samples=11)
    off = construct_offset(base, MannheimParams(1.0, 0.3))
    grid = base.grid()
    u = np.concatenate([grid, 0.5 * (grid[1:] + grid[:-1]), np.linspace(0.0, 0.05, 5)[:-1],
                        [1.0, 1.2]])
    theta, theta_star = 1.0 - u, 0.3 - 0.1 * u
    ind = base.indicatrix(DualScalar(u, 1.0))
    e, ep = ind.re, ind.du
    want = {"indicatrix": np.sinh(theta) * e + np.cosh(theta) * ep,
            "base_curve": base.base_curve(u) + theta_star * -lorentz_cross(e, ep)}
    for name, closed in want.items():
        f = getattr(off, name)
        assert max(np.max(np.abs(x - y)) for x, y in zip(f(u), closed)) < 1e-13, name
        # a real parameter takes the dual route with a zero slot: its value is
        # the leading real of the call at u + eps + eps
        for x in (u, *u.tolist()):
            lifted = f(DualScalar(DualScalar(x, 1.0), 1.0))
            assert _leaf_bytes(f(x)) == _leaf_bytes(map(dual.leading_real, lifted)), (name, x)


@pytest.mark.parametrize("case", ["cone", "helicoidal", "offset"])
def test_a_node_evaluated_alone_gets_the_bits_of_its_grid_column(case):
    # the closures are pointwise, so a float node reads what the grid call
    # gives at that node; the offset is the helicoidal's at (c, c*) = (1, 0.3)
    if case == "cone":
        spec = catalog.cone(domain=(-0.7, -0.1), samples=101)
    else:
        spec = catalog.helicoidal(0.6, 0.8, 0.2, 0.1, domain=(0.05, 0.95), samples=11)
    if case == "offset":
        spec = construct_offset(spec, MannheimParams(1.0, 0.3))
    grid = spec.grid()
    for name in ("indicatrix", "base_curve"):
        f = getattr(spec, name)
        columns = [np.broadcast_to(x, grid.shape) for x in f(grid)]
        for i, u in enumerate(grid.tolist()):
            assert _leaf_bytes(f(u)) == _leaf_bytes(x[i] for x in columns), (name, u)


def test_mannheim_condition_dual_vector_equality():
    base = _heli()
    frames = darboux_frame(base)
    off = construct_offset(base, PARAMS)
    measured = timelike_invariants(off)
    for f, m in zip(frames, measured):
        assert mannheim_condition_residual(f, m) < 1e-8


def _prose_striction_variant(base, off):
    # negative control: shift the striction line by theta* along t instead of
    # g; on the unit-speed catalog helicoidal theta* = c* - 0.1*u in closed form
    def along_t(u):
        t = base.indicatrix(DualScalar(u, 1.0)).du
        return base.base_curve(u) + (PARAMS.c_star - 0.1 * u) * t

    return timelike_invariants(dataclasses.replace(off, base_curve=along_t))


def test_prose_striction_variant_breaks_dual_condition():
    base = _heli()
    frames = darboux_frame(base)
    off = construct_offset(base, PARAMS)
    measured = _prose_striction_variant(base, off)
    worst = max(mannheim_condition_residual(f, m) for f, m in zip(frames, measured))
    assert worst > 1e-3  # the real parts agree but the moments cannot


def test_mannheim_condition_on_columns_is_the_worst_row():
    base = _heli()
    frames = darboux_frame(base)
    off = construct_offset(base, PARAMS)
    measured = timelike_invariants(off)
    rows = [mannheim_condition_residual(f, m) for f, m in zip(frames, measured)]
    assert mannheim_condition_residual(frames, measured) == max(rows)
    assert mannheim_condition_residual(frames, _prose_striction_variant(base, off)) > 1e-3


def test_frame_transform_matrix():
    base = _heli(samples=15)
    frames = darboux_frame(base)
    angles = offset_angles(frames, PARAMS)
    off = construct_offset(base, PARAMS)
    measured = timelike_invariants(off)
    for f, a, m in zip(frames, angles, measured):
        thbar = a.as_dual()
        sh, ch = dual.sinh(thbar), dual.cosh(thbar)
        e_d, t_d, g_d = f.dual_e(), f.dual_t(), f.dual_g()
        rows = [
            (m.dual_e(), sh * e_d + ch * t_d),
            (m.dual_t(), g_d),
            (m.dual_g(), ch * e_d + sh * t_d),
        ]
        for got, want in rows:
            assert max(abs(x - y) for x, y in zip(got.re, want.re)) < 1e-7
            assert max(abs(x - y) for x, y in zip(got.du, want.du)) < 1e-7


def test_offset_frame_derived_g_consistent():
    base = _heli(samples=15)
    frames = darboux_frame(base)
    angles = offset_angles(frames, PARAMS)
    off = construct_offset(base, PARAMS)
    for f, a, m in zip(frames, angles, timelike_invariants(off)):
        want = math.cosh(a.theta) * f.e + math.sinh(a.theta) * f.t
        assert max(abs(x - y) for x, y in zip(m.g, want)) < 1e-7


def test_arc_rate_measured_vs_closed_form():
    base = _heli(samples=21)
    frames = darboux_frame(base)
    angles = offset_angles(frames, PARAMS)
    speeds = timelike_invariants(construct_offset(base, PARAMS)).ds_du
    for f, a, speed in zip(frames, angles, speeds):
        assert speed == pytest.approx(f.gamma * math.cosh(a.theta), abs=1e-7)


def test_offset_angle_rate_is_minus_one():
    base = _heli(samples=41)
    frames = darboux_frame(base)
    measured = timelike_invariants(construct_offset(base, PARAMS))
    extracted = [dual_angle_between(f.dual_e(), m.dual_e()).re for f, m in zip(frames, measured)]
    h = frames[1].s - frames[0].s
    rates = np.gradient(np.asarray(extracted), h)
    # interior samples: the extracted |theta| falls at unit rate; theta > 0
    # on this grid so d(theta)/ds = -1
    assert np.max(np.abs(rates[2:-2] + 1.0)) < 1e-6


def _warped_heli():
    """The helicoidal composed with u -> u + 0.3*u^2, so u is not arc length."""
    base = _heli(samples=21)

    def warp(u):
        return u + 0.3 * u * u

    return dataclasses.replace(base, indicatrix=lambda u: base.indicatrix(warp(u)),
                               base_curve=lambda u: base.base_curve(warp(u)))


def _study_angle_gap(base, params, mutate=lambda off: off) -> float:
    """Largest gap between the dual angle of the base and offset rulings and
    offset_angles' (theta, theta*), over the grid; ``mutate`` edits the offset."""
    frames = darboux_frame(base)
    measured = timelike_invariants(mutate(construct_offset(base, params)))
    gaps = []
    for f, m, a in zip(frames, measured, offset_angles(frames, params)):
        angle = dual_angle_between(f.dual_e(), m.dual_e())
        gaps += [abs(angle.re - a.theta), abs(angle.du - a.theta_star)]
    return max(gaps)


@pytest.mark.parametrize("c_star", [0.3, -0.3])
@pytest.mark.parametrize("make_base", [_heli, _warped_heli, _cone],
                         ids=["helicoidal", "warped", "cone"])
def test_study_angle_between_the_rulings_is_the_offset_angle(make_base, c_star):
    # <e, e1> = sinh(theta + eps*theta*) on the E. Study images of the rulings
    assert _study_angle_gap(make_base(), MannheimParams(1.0, c_star)) < 1e-12


def test_mirrored_offset_striction_fails_the_study_angle():
    # negative control: the striction line c - theta*g instead of c + theta*g
    base = _heli()

    def mirrored(off):
        return dataclasses.replace(
            off, base_curve=lambda u: 2.0 * ruled._exact_node(base, u)[0] - off.base_curve(u))

    assert _study_angle_gap(base, MannheimParams(1.0, 0.3), mirrored) > 0.1


def test_degenerate_offset_rejected():
    base = catalog.cone(a=0.0, b=1.0, domain=(0.05, 0.95), samples=11)
    with pytest.raises(DegenerateOffset):
        construct_offset(base, PARAMS)


def test_gamma_sign_change_between_nodes_is_degenerate():
    # gamma is 0.0059 and -0.2197 at the nodes either side of its root, so the
    # speed check at the nodes passes; the offset ruling stalls in between
    base = _turning()
    frames = darboux_frame(base)
    i = np.flatnonzero(np.diff(np.sign(frames.gamma)))
    assert len(i) == 1 and np.min(np.abs(frames.gamma)) > 1e-3
    i = int(i[0])
    expected = f"gamma changes sign between s={frames.s[i]} and s={frames.s[i + 1]}"
    with pytest.raises(DegenerateOffset, match=re.escape(expected) + "$"):
        construct_offset(base, PARAMS)
    with pytest.raises(DegenerateOffset, match="gamma changes sign"):
        verify_offset(base, PARAMS)


def test_a_timelike_base_is_rejected_before_the_offset_is_built():
    # an offset is timelike; the builder measures its own base, so an offset
    # of one fails at once, not at the first evaluation of its closures
    base = construct_offset(_heli(), PARAMS)
    with pytest.raises(ValueError, match="darboux_frame expects a spacelike-surface spec"):
        construct_offset(base, PARAMS)


def test_verify_offset_rejects_a_timelike_base_before_it_measures(monkeypatch):
    # the kind is checked first, as darboux_frame checks it, not left to the
    # frame checks of the measurement
    base = construct_offset(_heli(), PARAMS)

    def measure(*args, **kwargs):
        raise AssertionError("the base was measured")

    monkeypatch.setattr(mannheim, "_measure_frames", measure)
    with pytest.raises(ValueError, match="^verify_offset expects a spacelike-surface spec$"):
        verify_offset(base, PARAMS)


def test_turning_base_builds_where_gamma_keeps_its_sign():
    assert verify_offset(_turning(domain=(0.05, 0.4)), PARAMS).passed
    # gamma < 0 on the whole grid is no stall: the offset is built
    base = _turning(domain=(0.6, 0.95))
    frames = darboux_frame(base)
    assert np.all(frames.gamma < 0.0)
    construct_offset(base, PARAMS)


# ---------------------------------------------------------------------------
# predicted invariants

def test_predicted_invariants_frozen_spot_values():
    # independent oracle values computed from the closed forms at
    # theta = 0.5, theta* = -0.05, gamma = 0.75, delta = 0.2, Delta = 0.1
    angle = OffsetAngle(s=0.5, theta=0.5, theta_star=-0.05)
    out = predicted_invariants(0.75, 0.2, 0.1, angle)
    assert out.ds1_ds == pytest.approx(0.8457194739047855, abs=1e-12)
    assert out.Delta1 == pytest.approx(0.2897725245296672, abs=1e-12)
    assert out.delta1 == pytest.approx(0.1732312419360026, abs=1e-12)
    assert out.gamma1 == pytest.approx(-0.46211715726000974, abs=1e-12)
    assert out.gamma1_dual.re == pytest.approx(-0.46211715726000974, abs=1e-12)
    assert out.gamma1_dual.du == pytest.approx(0.03932238664829638, abs=1e-12)
    assert out.R1_dual.re == pytest.approx(1.1276259652063807, abs=1e-12)
    assert out.R1_dual.du == pytest.approx(-0.02605476527468737, abs=1e-12)


def test_predicted_invariants_at_zero_angle():
    out = predicted_invariants(0.75, 0.2, 0.1, OffsetAngle(s=0.0, theta=0.0, theta_star=0.0))
    assert out.gamma1 == 0.0
    assert out.delta1 == 0.0
    assert out.Delta1 == pytest.approx(0.2 / 0.75, abs=1e-15)
    assert out.R1_dual == DualScalar(1.0, 0.0)


def test_predicted_invariants_zero_gamma():
    with pytest.raises(ZeroConicalCurvature):
        predicted_invariants(0.0, 0.2, 0.1, OffsetAngle(s=0.0, theta=0.5, theta_star=0.0))


# ---------------------------------------------------------------------------
# end-to-end verification

def test_verify_offset_helicoidal_all_residuals():
    rep = verify_offset(_heli(samples=101), PARAMS)
    assert rep.passed
    for key, val in rep.residual_max.items():
        assert val < 1e-8, key


def _measured(frames, m) -> InvariantRecord:
    """The offset invariants as verify_offset measures them, from the base frames and the
    offset's timelike frames."""
    return InvariantRecord(m.ds_du / frames.ds_du, m.Delta, m.delta, m.gamma, m.gamma_dual,
                           timelike_radius(m.gamma_dual))


def test_central_fd_offset_measurement_matches_the_closed_forms():
    # the central-fd oracle of the theorem: the base and the offset both
    # measured by central differences, against the closed forms of the base
    base = _heli(samples=41)
    frames = darboux_frame(base, CENTRAL_FD)
    m = timelike_invariants(construct_offset(base, PARAMS), CENTRAL_FD)
    pred = predicted_invariants(frames.gamma, frames.delta, frames.Delta,
                                offset_angles(frames, PARAMS)).quantities()
    meas = _measured(frames, m).quantities()
    for key in RESIDUAL_KEYS:
        assert np.max(np.abs(pred[key] - meas[key])) < 1e-6, key


def test_verify_offset_tolerance_has_one_default():
    spec = _heli(samples=11)
    assert verify_offset(spec, PARAMS).tolerance == 1e-8
    assert verify_offset(spec, PARAMS, tolerance=1e-5).tolerance == 1e-5
    # keyword-only: a positional tolerance is not taken for another argument
    with pytest.raises(TypeError, match="positional"):
        verify_offset(spec, PARAMS, 1e-5)


@pytest.mark.parametrize("tolerance", [math.nan, -1.0, 0.0, math.inf])
def test_verify_offset_rejects_a_tolerance_that_is_not_positive_and_finite(tolerance):
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        verify_offset(_heli(samples=11), PARAMS, tolerance=tolerance)


def test_verify_offset_passes_exactly_when_every_residual_is_within_the_tolerance():
    spec = _heli(samples=11)
    worst = max(verify_offset(spec, PARAMS).residual_max.values())
    assert worst > 0.0
    assert not verify_offset(spec, PARAMS, tolerance=0.5 * worst).passed
    assert verify_offset(spec, PARAMS, tolerance=2.0 * worst).passed


def _heli_offset():
    base = _heli(samples=11)
    return construct_offset(base, PARAMS)


@pytest.mark.parametrize("measure,error,message", [
    (lambda deriv: darboux_frame(_heli(samples=11), deriv), ValueError,
     "unknown derivative mode 'dual_ad'"),
    (lambda deriv: timelike_invariants(_heli_offset(), deriv), ValueError,
     "unknown derivative mode 'dual_ad'"),
    # verify_offset takes no mode: a mode where it once went is no tolerance either
    (lambda deriv: verify_offset(_heli(samples=11), PARAMS, deriv), TypeError,
     "takes 2 positional arguments but 3 were given"),
], ids=["darboux_frame", "timelike_invariants", "verify_offset"])
def test_an_unknown_derivative_mode_is_rejected(measure, error, message):
    # a misspelt mode must not fall through to central-fd
    with pytest.raises(error, match=message):
        measure("dual_ad")


def _pinned_offsets():
    """Bases and constants on which verify_offset's route meets the public builder's.

    The helicoidal's ids at (1, 0.1) are kept from when verify_offset also
    measured in central-fd.
    """
    bases = [("101-dual-ad", _heli(samples=101)), ("1001-dual-ad", _heli(samples=1001)),
             ("cone-101", _cone(samples=101)), ("warped-heli", _warped_heli()),
             ("cone-negative-41", _cone(samples=41, domain=(-0.7, -0.1)))]
    for name, base in bases:
        yield pytest.param(base, MannheimParams(1.0, 0.1), id=name)
        yield pytest.param(base, MannheimParams(-0.4, -0.3), id=f"{name}-negative-c")


@pytest.mark.parametrize("base,params", _pinned_offsets())
def test_verify_offset_measures_the_offset_nodes_bit_for_bit(base, params):
    # verify_offset measures the offset on its grid nodes alone, on the lifted
    # base rows of its own pass; its columns are the node columns of the full
    # timelike measurement of the public builder's offset
    rep = verify_offset(base, params)
    frames = darboux_frame(base)
    m = timelike_invariants(construct_offset(base, params))
    got, want = rep.samples.measured.quantities(), _measured(frames, m).quantities()
    for key in RESIDUAL_KEYS:
        assert np.array_equal(got[key], want[key]), key
    assert rep.developability == developability_check(frames, offset_angles(frames, params),
                                                      m, tol=rep.tolerance)


@pytest.mark.parametrize("domain", [(0.05, 0.95), (0.0, 1.0)], ids=["head", "no-head"])
def test_a_measurement_computes_the_spec_grid_once(domain, monkeypatch):
    # the offset samples the base's domain at the base's count, so verify_offset
    # takes the base grid once for each of its stages: the base measurement,
    # the offset's construction and the offset's measurement
    calls = []
    real = RuledSurfaceSpec.grid
    monkeypatch.setattr(RuledSurfaceSpec, "grid",
                        lambda spec: calls.append(spec.name) or real(spec))
    base = catalog.helicoidal(domain=domain, samples=21)
    for measure, count in ((darboux_frame, 1), (lambda b: darboux_frame(b, CENTRAL_FD), 1),
                           (lambda b: verify_offset(b, MannheimParams(1.0, 0.1)), 3)):
        calls.clear()
        measure(base)
        assert calls == [base.name] * count


def test_verify_offset_integrates_nothing_in_dual_ad(monkeypatch):
    # in dual-AD every offset closure argument is a grid node, so theta and
    # theta* never need a local quadrature correction; the counter sees every
    # integrate call of the offset closures and of the measurement
    calls = 0
    integrate = ruled.integrate

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return integrate(*args, **kwargs)

    monkeypatch.setattr(ruled, "integrate", counted)
    monkeypatch.setattr(mannheim, "integrate", counted)
    base = _heli(samples=101)
    assert verify_offset(base, PARAMS).passed
    assert calls == 0
    # the counter sees the corrections of the full measurement's off-grid points
    timelike_invariants(construct_offset(base, PARAMS))
    assert calls > 0


def test_verify_offset_cone_delta1_is_minus_theta_star():
    rep = verify_offset(_cone(), MannheimParams(c=1.0, c_star=0.3))
    for row in rep.samples:
        assert row.measured.delta1 == pytest.approx(-row.theta_star, abs=1e-8)


def test_dual_slot_identity():
    # measured delta1 + gamma1*Delta1 = -theta* sech^2(theta) pointwise
    rep = verify_offset(_heli(samples=41), PARAMS)
    for row in rep.samples:
        m = row.measured
        lhs = m.delta1 + m.gamma1 * m.Delta1
        rhs = -row.theta_star / math.cosh(row.theta) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_verify_offset_report_shape():
    rep = verify_offset(_heli(samples=11), PARAMS)
    assert len(rep.samples) == 11
    row = rep.samples[0]
    assert set(row.residuals) == {"ds1_ds", "Delta1", "delta1", "gamma1",
                                  "gamma1_dual_re", "gamma1_dual_du", "R1_re", "R1_du"}
    assert rep.residual_max.keys() == rep.residual_mean.keys()


def _leaves(x):
    """The float or array leaves of a record, in field order."""
    if isinstance(x, Vec3L):
        return list(x)
    if isinstance(x, DualScalar):
        return [x.re, x.du]
    if isinstance(x, dict):
        return [v for k in sorted(x) for v in _leaves(x[k])]
    if dataclasses.is_dataclass(x):
        return [v for f in dataclasses.fields(x) for v in _leaves(getattr(x, f.name))]
    return [x]


def test_report_rows_agree_with_columns():
    rep = verify_offset(_heli(samples=11), PARAMS)
    cols = rep.samples
    assert len(cols) == 11 and len(list(cols)) == 11
    assert set(cols.residuals) == set(RESIDUAL_KEYS)
    columns = _leaves(cols)
    for i in (0, 4, -1):
        row = _leaves(cols[i])
        assert len(row) == len(columns)
        assert all(type(x) is float for x in row)
        assert row == [c[i] for c in columns]
    with pytest.raises(IndexError):
        cols[11]


def test_report_iteration_gives_the_indexed_rows():
    # nested records and the residual dict are converted column by column, and every
    # index a list of the rows takes, negative ones too, gives the iterated row
    cols = verify_offset(_heli(samples=11), PARAMS).samples
    rows = list(cols)
    assert [cols[i] for i in range(-len(cols), len(cols))] == rows + rows
    assert cols[np.int64(-2)] == rows[-2]
    for i in (11, -12):
        with pytest.raises(IndexError):
            cols[i]
    assert isinstance(rows[0].measured, InvariantRecord) and type(rows[0].residuals) is dict


@pytest.mark.parametrize("rows", [slice(2, 5), slice(-3, None), slice(None, None, 4),
                                  slice(9, 2)])
def test_a_slice_of_a_nested_column_gives_its_rows(rows):
    cols = verify_offset(_heli(samples=11), PARAMS).samples
    assert ruled._rows(cols.measured, rows) == list(cols.measured)[rows]
    assert ruled._rows(cols.residuals, rows) == [r.residuals for r in cols][rows]
    assert ruled._rows(cols, rows) == list(cols)[rows]


@pytest.mark.parametrize("column", [
    lambda: offset_angles(darboux_frame(_heli(samples=11)), PARAMS),
    lambda: verify_offset(_heli(samples=11), PARAMS).samples.predicted,
    lambda: verify_offset(_heli(samples=11), PARAMS).samples.measured,
], ids=["OffsetAngle", "InvariantRecord-predicted", "InvariantRecord-measured"])
def test_angle_and_invariant_iteration_gives_the_indexed_float_rows(column):
    cols = column()
    rows = list(cols)
    assert rows == [cols[i] for i in range(len(cols))]
    assert all(type(x) is float for row in rows for x in _leaves(row))


@pytest.mark.parametrize("row,field", [
    (lambda: darboux_frame(_heli(samples=5))[0], "gamma"),
    (lambda: offset_angles(darboux_frame(_heli(samples=5)), PARAMS)[0], "theta"),
    (lambda: verify_offset(_heli(samples=5), PARAMS).samples.measured[0], "Delta1"),
    (lambda: verify_offset(_heli(samples=5), PARAMS).samples[0], "theta_star"),
], ids=["FrameSample", "OffsetAngle", "InvariantRecord", "OffsetSample"])
def test_a_row_field_can_be_set(row, field):
    """Records are plain slots dataclasses, not frozen ones.

    A frozen dataclass stores each field through object.__setattr__, which
    makes building a row about 7.5x dearer; rows are built once per sample
    by ``for f in frames``, so the four column records stay plain.
    """
    r = row()
    setattr(r, field, 0.25)
    assert getattr(r, field) == 0.25


def test_verify_offset_builds_vectors_per_grid_not_per_sample(monkeypatch):
    # columns hold one Vec3L per field; rows are built only when indexed
    built = 0
    init = Vec3L.__init__

    def counting_init(self, x1, x2, x3):
        nonlocal built
        built += 1
        init(self, x1, x2, x3)

    monkeypatch.setattr(Vec3L, "__init__", counting_init)
    rep = verify_offset(_heli(samples=1001), PARAMS)
    assert rep.passed
    assert built < 1001


# ---------------------------------------------------------------------------
# developability

def test_cone_base_developable_iff_theta_star_constant():
    for params in (PARAMS, MannheimParams(c=2.0, c_star=-0.7), MannheimParams(c=0.5, c_star=0.0)):
        rep = verify_offset(_cone(), params)
        dev = rep.developability
        assert dev.base_developable and dev.theta_star_constant
    rep = verify_offset(_heli(), PARAMS)
    dev = rep.developability
    assert (not dev.base_developable) and (not dev.theta_star_constant)


def test_offset_developable_locus_matches_root():
    # with c* = 0.5 the measured Delta1 changes sign inside (0.05, 0.95)
    base = catalog.helicoidal(domain=(0.05, 0.95), samples=181)
    params = MannheimParams(c=1.0, c_star=0.5)
    rep = verify_offset(base, params)

    def delta1_closed(s):
        th = 1.0 - s
        ths = 0.5 - 0.1 * s
        return -ths * math.tanh(th) + 0.2 / 0.75

    root_pred = brentq(delta1_closed, 0.05, 0.95, xtol=1e-14)
    assert root_pred == pytest.approx(0.34772905403859067, abs=1e-10)

    meas = [(row.s, row.measured.Delta1) for row in rep.samples]
    crossings = [(s0, s1) for (s0, d0), (s1, d1) in zip(meas, meas[1:]) if d0 * d1 < 0]
    assert len(crossings) == 1
    s0, s1 = crossings[0]
    assert s0 <= root_pred <= s1
    # refine the measured crossing by bisection on the measured pipeline
    off = construct_offset(catalog.helicoidal(domain=(0.05, 0.95), samples=181), params)
    from dlgeom.ruled import TIMELIKE_SURFACE, RuledSurfaceSpec

    def measured_delta1(s):
        tiny = RuledSurfaceSpec(off.indicatrix, off.base_curve, (s - 1e-3, s + 1e-3), 3,
                                TIMELIKE_SURFACE)
        return timelike_invariants(tiny)[1].Delta

    root_meas = brentq(measured_delta1, s0, s1, xtol=1e-10)
    assert abs(root_meas - root_pred) < 1e-6


#: the initial frame and striction point that seed a reconstruction
SEED_FRAME = (Vec3L(0.0, 0.8, 0.6), Vec3L(1.0, 0.0, 0.0), Vec3L(0.0, 0.6, -0.8), Vec3L(0.0, 0.0, 0.0))


def _reconstructed_developability(Delta, domain, samples, params):
    """developability_check on the surface reconstructed from (0.75, 0.2, Delta), and its offset's Delta1."""
    profile = InvariantProfile(lambda s: 0.75, lambda s: 0.2, Delta, *SEED_FRAME)
    base = reconstruct_from_invariants(profile, np.linspace(*domain, samples))
    frames = darboux_frame(base)
    measured = timelike_invariants(construct_offset(base, params))
    return developability_check(frames, offset_angles(frames, params), measured), measured.Delta


@pytest.mark.parametrize("domain,samples", [((0.0, 1.0), 101), ((0.2, 1.0), 41)])
@pytest.mark.parametrize("Delta0,developable", [(0.0, True), (0.1, False)])
def test_reconstructed_base_is_developable_iff_Delta_vanishes(domain, samples, Delta0, developable):
    # verify_offset does not pass on reconstructions yet, so the check is composed by hand
    dev, _ = _reconstructed_developability(lambda s: Delta0, domain, samples,
                                           MannheimParams(c=1.0, c_star=0.1))
    assert dev.base_developable is developable
    assert dev.theta_star_constant is developable


@pytest.mark.parametrize("form,locus", [(np.tanh, 0), (lambda c: 1.0 / np.tanh(c), 101)],
                         ids=["tanh", "coth"])
def test_a_designed_offset_of_a_reconstruction_is_developable_everywhere(form, locus):
    # Delta = -(delta/gamma)/sinh^2(c - s) makes theta* = (delta/gamma)*coth(theta) on the
    # whole grid when c* = (delta/gamma)*coth(c), so Delta1 vanishes at every sample
    ratio, c = 0.2 / 0.75, 2.0

    def Delta(s):
        sh = dual.sinh(c - s)
        return -ratio / (sh * sh)

    dev, Delta1 = _reconstructed_developability(Delta, (0.0, 1.0), 101,
                                                MannheimParams(c=c, c_star=ratio * form(c)))
    assert len(dev.offset_developable_locus) == locus
    if locus:
        assert np.max(np.abs(Delta1)) < 1e-9
    else:
        assert np.max(np.abs(Delta1)) > 1e-2
    assert not (dev.base_developable or dev.theta_star_constant)


@pytest.mark.parametrize("tol", [1e-8, 1e-5])
def test_developability_of_a_Delta_column_flips_at_the_tolerance(tol):
    # the base and the offset locus read |Delta| and |Delta1| against tol itself
    frames = darboux_frame(_cone(samples=4))
    angles = offset_angles(frames, PARAMS)
    near = dataclasses.replace(frames, Delta=np.array([0.5, -0.5, 0.5, -0.5]) * tol)
    dev = developability_check(near, angles, near, tol=tol)
    assert dev.base_developable and dev.offset_developable_locus == frames.s.tolist()
    mixed = dataclasses.replace(frames, Delta=np.array([0.5, 2.0, -0.5, -2.0]) * tol)
    dev = developability_check(mixed, angles, mixed, tol=tol)
    assert not dev.base_developable
    assert dev.offset_developable_locus == frames.s[[0, 2]].tolist()


@pytest.mark.parametrize("domain,spread,constant", [
    ((0.05, 0.95), 0.5, True), ((0.05, 0.95), 2.0, False), ((0.0, 3.0), 2.0, True),
    ((0.0, 3.0), 4.0, False),
], ids=["short-half", "short-double", "long-double", "long-quadruple"])
def test_theta_star_constant_flips_at_the_tolerance_times_the_arc_length(domain, spread,
                                                                         constant):
    # the spread of theta* is judged against tol*max(1, s_end - s_start)
    tol = 1e-8
    frames = darboux_frame(_cone(samples=4, domain=domain))
    angles = dataclasses.replace(offset_angles(frames, PARAMS),
                                 theta_star=np.array([0.0, spread, 0.5 * spread, 0.0]) * tol)
    dev = developability_check(frames, angles, frames, tol=tol)
    assert dev.theta_star_constant is constant


def test_developability_check_flags_coth_singularity():
    frames = darboux_frame(catalog.helicoidal(domain=(0.0, 1.0), samples=11))
    params = MannheimParams(c=1.0, c_star=0.0)
    angles = offset_angles(frames, params)
    off = construct_offset(catalog.helicoidal(domain=(0.0, 1.0), samples=11), params)
    measured = timelike_invariants(off)
    # theta = 1 - s hits zero at the last sample
    dev = developability_check(frames, angles, measured, tol=1e-8)
    assert dev.coth_singularities == [1.0]


# ---------------------------------------------------------------------------
# radius relations

def test_radius_relations_frozen():
    # R1 = cosh(theta_dual) and |dual(R1)| = |theta*|*sinh|theta| at one sample
    angle = OffsetAngle(s=0.5, theta=0.5, theta_star=-0.05)
    g = DualScalar(-math.tanh(0.5), 0.05 / math.cosh(0.5) ** 2)
    radius = timelike_radius(g)
    expected = predicted_invariants(0.75, 0.2, 0.1, angle).R1_dual
    assert radius.re == pytest.approx(1.1276259652063807, abs=1e-12)
    assert radius.du == pytest.approx(-0.02605476527468737, abs=1e-12)
    assert abs(radius.re - expected.re) < 1e-12 and abs(radius.du - expected.du) < 1e-12
    assert abs(abs(radius.du) - abs(angle.theta_star) * math.sinh(abs(angle.theta))) < 1e-12


def test_radius_relations_trivial_angle():
    radius = timelike_radius(DualScalar(0.0, 0.0))
    expected = predicted_invariants(0.75, 0.2, 0.1, OffsetAngle(s=0.0, theta=0.0,
                                                                theta_star=0.0)).R1_dual
    assert radius == DualScalar(1.0, 0.0)
    assert radius.re - expected.re == 0.0 and radius.du - expected.du == 0.0


def test_radius_dual_magnitude_identity_random():
    # 50 random angles as one column call; |theta| < 1e-3 is skipped
    rng = np.random.default_rng(17)
    th, ths = rng.uniform([-1.5, -0.5], [1.5, 0.5], size=(50, 2)).T
    keep = np.abs(th) >= 1e-3
    angles = OffsetAngle(np.zeros(keep.sum()), th[keep], ths[keep])
    pred = predicted_invariants(0.75, 0.2, 0.1, angles)
    radius = timelike_radius(pred.gamma1_dual)
    assert np.max(np.abs(radius.re - pred.R1_dual.re)) < 1e-9
    assert np.max(np.abs(radius.du - pred.R1_dual.du)) < 1e-9
    want = np.abs(angles.theta_star) * np.sinh(np.abs(angles.theta))
    assert np.max(np.abs(np.abs(radius.du) - want)) < 1e-9


def test_verify_offset_measured_radius_follows_theorem():
    rep = verify_offset(_heli(samples=41), PARAMS)
    for row in rep.samples:
        want_re = math.cosh(row.theta)
        want_du = row.theta_star * math.sinh(row.theta)
        assert row.measured.R1_dual.re == pytest.approx(want_re, abs=1e-8)
        assert row.measured.R1_dual.du == pytest.approx(want_du, abs=1e-8)


def test_dual_arclength_of_offset_carries_minus_Delta1():
    # timelike side: s_bar_1 = s_1 - eps*int(Delta1); oracle by independent
    # quadrature of the closed forms in the base parameter
    from scipy.integrate import quad
    from dlgeom.ruled import dual_arclength

    base = _heli(samples=21)
    off = construct_offset(base, PARAMS)
    s_end = 0.6

    def v(u):
        return 0.75 * math.cosh(1.0 - u)

    def Delta1(u):
        return 0.1 * u * math.tanh(1.0 - u) + 0.2 / 0.75

    want_re = quad(v, 0.0, s_end, epsabs=1e-13)[0]
    want_du = -quad(lambda u: Delta1(u) * v(u), 0.0, s_end, epsabs=1e-13)[0]
    out = dual_arclength(off, s_end)
    assert out.re == pytest.approx(want_re, abs=1e-9)
    assert out.du == pytest.approx(want_du, abs=1e-9)
