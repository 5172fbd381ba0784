"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import csv
import functools
import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import dlgeom.dual as dual
import dlgeom.ruled as ruled
from dlgeom import catalog
from dlgeom.cli import main as cli_main
from dlgeom.dual import LIFTS, DualScalar, dual_norm, dual_vector
from dlgeom.lines import OrientedLine, dual_to_line, line_to_dual
from dlgeom.lorentz import Vec3L, det3, lorentz_cross, lorentz_dot
from dlgeom.mannheim import (RESIDUAL_KEYS, MannheimParams, construct_offset, mannheim_condition_residual,
                             offset_angles, verify_offset)
from dlgeom.numerics import ODE_STEPS_PER_UNIT
from dlgeom.ruled import (InvariantProfile, RuledSurfaceSpec, TIMELIKE_SURFACE, darboux_frame,
                          reconstruct_from_invariants, timelike_invariants)

CONE_E0 = Vec3L(0.0, 0.8, 0.6)
CONE_T0 = Vec3L(1.0, 0.0, 0.0)
CONE_G0 = Vec3L(0.0, 0.6, -0.8)
ORIGIN = Vec3L(0.0, 0.0, 0.0)

MANNHEIM_PARAMS = MannheimParams(c=1.0, c_star=0.0)


def criterion(number, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL  {text}")
                raise
            print(f"ACCEPTANCE {number:2d} PASS  {text}")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def mannheim_run():
    """Criterion-7 configuration, shared by criteria 7, 8 and 10."""
    base = catalog.helicoidal(a=0.6, b=0.8, delta0=0.2, Delta0=0.1,
                              domain=(0.05, 0.95), samples=1001)
    frames = darboux_frame(base)
    angles = offset_angles(frames, MANNHEIM_PARAMS)
    offset = construct_offset(base, MANNHEIM_PARAMS)
    measured = timelike_invariants(offset)
    report = verify_offset(base, MANNHEIM_PARAMS)
    return base, frames, angles, offset, measured, report


@criterion(1, "algebra identities: <a x b, c> = -det and basis table, 1e-12, 1e4 triples")
def test_criterion_1_algebra_identities():
    e1, e2, e3 = Vec3L(1, 0, 0), Vec3L(0, 1, 0), Vec3L(0, 0, 1)
    assert lorentz_cross(e1, e2) == -e3
    assert lorentz_cross(e2, e3) == e1
    assert lorentz_cross(e3, e1) == -e2
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10_000):
        a, b, c = (Vec3L(*rng.uniform(-10.0, 10.0, 3)) for _ in range(3))
        worst = max(worst, abs(lorentz_dot(lorentz_cross(a, b), c) + det3(a, b, c)))
    assert worst < 1e-12


@criterion(2, "dual-AD soundness: lifts vs central differences, 1e-8, 1e3 points each")
def test_criterion_2_forward_ad():
    domains = {
        "sinh": (-3.0, 3.0), "cosh": (-3.0, 3.0), "tanh": (-3.0, 3.0), "exp": (-3.0, 3.0),
        "sqrt": (0.1, 10.0), "sin": (-3.0, 3.0), "cos": (-3.0, 3.0), "arctan": (-5.0, 5.0),
    }
    reference = {
        "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh, "exp": math.exp,
        "sqrt": math.sqrt, "sin": math.sin, "cos": math.cos, "arctan": math.atan,
    }
    h = 1e-5
    rng = np.random.default_rng(2)
    for name, (lo, hi) in domains.items():
        f = reference[name]
        for x in rng.uniform(lo + 2 * h, hi - 2 * h, 1000):
            fd = (f(x + h) - f(x - h)) / (2.0 * h)
            ad = LIFTS[name](DualScalar(float(x), 1.0)).du
            assert abs(ad - fd) < 1e-8


@criterion(3, "E. Study round trip: 1e3 random non-null lines, moment error < 1e-9")
def test_criterion_3_study_round_trip():
    rng = np.random.default_rng(3)
    count = 0
    while count < 1000:
        raw = Vec3L(*rng.uniform(-1.0, 1.0, 3))
        q = lorentz_dot(raw, raw)
        if abs(q) < 0.05:
            continue
        line = OrientedLine(Vec3L(*rng.uniform(-10.0, 10.0, 3)), raw / abs(q) ** 0.5)
        d = line_to_dual(line)
        back = line_to_dual(dual_to_line(d))
        assert max(abs(x - y) for x, y in zip(back.du, d.du)) < 1e-9
        count += 1


def _derivative(curve, u):
    """Exact derivative of a curve by one dual evaluation; ``u`` may be dual."""
    return curve(DualScalar(u, 1.0)).du


def _dual_frame_curves(spec):
    def striction_point(u):
        return ruled._exact_node(spec, u)[0]

    ind = spec.indicatrix

    def e_re(u):
        return ind(u)

    def e_du(u):
        return lorentz_cross(striction_point(u), ind(u))

    def t_re(u):
        return _derivative(ind, u)

    def t_du(u):
        return lorentz_cross(striction_point(u), _derivative(ind, u))

    def g_re(u):
        return -lorentz_cross(ind(u), _derivative(ind, u))

    def g_du(u):
        return lorentz_cross(striction_point(u), g_re(u))

    return (e_re, e_du), (t_re, t_du), (g_re, g_du)


def _dual_vec_at(pair, u):
    return dual_vector(pair[0](u), pair[1](u))


def _dual_vec_derivative(pair, u):
    return dual_vector(_derivative(pair[0], u), _derivative(pair[1], u))


def _max_abs_dual(v: Vec3L) -> float:
    return max(abs(x) for x in (*v.re, *v.du))


@criterion(4, "frame formulae: real/dual system residuals < 1e-7, norm and rate checks < 1e-8")
def test_criterion_4_darboux_formulae():
    surfaces = [
        catalog.cone(domain=(0.0, 1.0), samples=101),
        catalog.helicoidal(domain=(0.05, 0.95), samples=101),
    ]
    for spec in surfaces:
        frames = darboux_frame(spec)
        e_pair, t_pair, g_pair = _dual_frame_curves(spec)
        ind = spec.indicatrix

        def t_curve(u):
            return _derivative(ind, u)

        def g_curve(u):
            return -lorentz_cross(ind(u), _derivative(ind, u))

        for f in frames:
            # real system: e' = t, t' = e + gamma*g, g' = gamma*t
            r1 = _derivative(ind, f.s) - f.t
            r2 = _derivative(t_curve, f.s) - (f.e + f.gamma * f.g)
            r3 = _derivative(g_curve, f.s) - f.gamma * f.t
            assert max(abs(x) for x in (*r1, *r2, *r3)) < 1e-7

            # dual system, chain rule d/ds_bar = (1 + eps*Delta)^-1 d/ds
            sbar_rate = DualScalar(1.0, f.Delta)
            e_d = _dual_vec_at(e_pair, f.s)
            t_d = _dual_vec_at(t_pair, f.s)
            g_d = _dual_vec_at(g_pair, f.s)
            inv = 1.0 / sbar_rate
            de = _dual_vec_derivative(e_pair, f.s) * inv - t_d
            dt = (_dual_vec_derivative(t_pair, f.s) * inv
                  - (e_d + f.gamma_dual * g_d))
            dg = _dual_vec_derivative(g_pair, f.s) * inv - f.gamma_dual * t_d
            assert max(_max_abs_dual(v) for v in (de, dt, dg)) < 1e-7

            # dual tangent norm: |e_dual'| = 1 + eps*Delta
            ep_dual = _dual_vec_derivative(e_pair, f.s)
            n = dual_norm(ep_dual)
            assert abs(n.re - 1.0) < 1e-8
            assert abs(n.du - f.Delta) < 1e-8

            # rate coefficient: -<g_dual', t_dual> = gamma - eps*delta
            # (this only balances with c' = delta*e + Delta*g)
            gp_dual = _dual_vec_derivative(g_pair, f.s)
            coeff = -lorentz_dot(gp_dual, t_d)
            assert abs(coeff.re - f.gamma) < 1e-8
            assert abs(coeff.du + f.delta) < 1e-8
            back = coeff / sbar_rate
            assert abs(back.re - f.gamma_dual.re) < 1e-8
            assert abs(back.du - f.gamma_dual.du) < 1e-8


@criterion(5, "cone theorem: profile (0.75, 0, 0) keeps the striction point fixed < 1e-9")
def test_criterion_5_cone_reconstruction():
    profile = InvariantProfile.from_constants(0.75, 0.0, 0.0,
                                              CONE_E0, CONE_T0, CONE_G0, ORIGIN)
    spec = reconstruct_from_invariants(profile, np.linspace(0.0, 1.0, 101))
    drift = max(max(abs(x) for x in f.striction_point) for f in darboux_frame(spec))
    assert drift < 1e-9


def _wavy_flow_error(steps_per_unit: int, monkeypatch) -> float:
    """Largest gap of (e, t, g, c) at s = 1 between reconstruction and DOP853.

    gamma varies along the profile: a constant gamma is integrated exactly.
    """
    gamma, delta, Delta = (lambda s: 0.75 + 0.3 * dual.sin(s), lambda s: 0.2 * dual.cos(s),
                           lambda s: 0.1 + 0.05 * s)

    def rates(s, y):
        e, t, g, _ = y.reshape(4, 3)
        return np.concatenate([t, e + gamma(s) * g, gamma(s) * t, delta(s) * e + Delta(s) * g])

    y0 = np.concatenate([list(v) for v in (CONE_E0, CONE_T0, CONE_G0, ORIGIN)])
    want = solve_ivp(rates, (0.0, 1.0), y0, method="DOP853", rtol=1e-13, atol=1e-13).y[:, -1]
    monkeypatch.setattr(ruled, "ODE_STEPS_PER_UNIT", steps_per_unit)
    profile = InvariantProfile(gamma, delta, Delta, CONE_E0, CONE_T0, CONE_G0, ORIGIN)
    spec = reconstruct_from_invariants(profile, np.linspace(0.0, 1.0, 11))
    ind = spec.indicatrix(DualScalar(1.0, 1.0))
    e, t = ind.re, ind.du
    got = [x for v in (e, t, -lorentz_cross(e, t), spec.base_curve(1.0)) for x in v]
    return float(np.max(np.abs(np.array(got) - want)))


@criterion(6, "reconstruction round trip: helicoidal profile < 1e-7 at 1000 steps; order >= 3.8")
def test_criterion_6_reconstruction_round_trip(monkeypatch):
    profile = InvariantProfile.from_constants(0.75, 0.2, 0.1,
                                              CONE_E0, CONE_T0, CONE_G0, ORIGIN)
    assert ODE_STEPS_PER_UNIT == 1000
    spec = reconstruct_from_invariants(profile, np.linspace(0.0, 1.0, 101))
    for f in darboux_frame(spec):
        assert abs(f.gamma - 0.75) < 1e-7
        assert abs(f.delta - 0.2) < 1e-7
        assert abs(f.Delta - 0.1) < 1e-7
    # the order of the flow reconstruct runs, at 50 and 100 steps per unit
    order = math.log2(_wavy_flow_error(50, monkeypatch) / _wavy_flow_error(100, monkeypatch))
    assert order >= 3.8


SPOT = {
    "gamma1": -0.46211715726000974,     # -tanh(1/2)
    "Delta1": 0.2897725245296672,
    "delta1": 0.1732312419360026,
    "R1_re": 1.1276259652063807,        # cosh(1/2)
    "R1_du": -0.02605476527468737,      # -0.05*sinh(1/2)
}


@criterion(7, "Mannheim theorem suite: 1001 samples, all residual maxima < 1e-6, spot values")
def test_criterion_7_mannheim_suite(mannheim_run):
    _, _, _, _, _, report = mannheim_run
    for key in ("ds1_ds", "Delta1", "delta1", "gamma1",
                "gamma1_dual_re", "gamma1_dual_du", "R1_re", "R1_du"):
        assert report.residual_max[key] < 1e-6, key

    mid = min(report.samples, key=lambda r: abs(r.s - 0.5))
    assert abs(mid.s - 0.5) < 1e-12
    m = mid.measured
    assert abs(m.gamma1 - SPOT["gamma1"]) < 1e-6
    assert abs(m.Delta1 - SPOT["Delta1"]) < 1e-6
    assert abs(m.delta1 - SPOT["delta1"]) < 1e-6
    assert abs(m.R1_dual.re - SPOT["R1_re"]) < 1e-6
    assert abs(m.R1_dual.du - SPOT["R1_du"]) < 1e-6
    # the five-decimal values quoted with the criterion
    assert round(m.gamma1, 5) == -0.46212
    assert round(m.Delta1, 5) == 0.28977
    assert round(m.delta1, 5) == 0.17323
    assert round(m.R1_dual.re, 5) == 1.12763
    assert round(m.R1_dual.du, 5) == -0.02605


@criterion(8, "Mannheim condition: t1_dual = g_dual to 1e-8 at every sample")
def test_criterion_8_mannheim_condition(mannheim_run):
    _, frames, _, _, measured, _ = mannheim_run
    worst = max(mannheim_condition_residual(f, m) for f, m in zip(frames, measured))
    assert worst < 1e-8


@criterion(9, "developability: cone <=> constant offset distance; offset locus at Delta1 root")
def test_criterion_9_developability():
    # base direction, asserted both ways over several parameter choices
    for params in (MannheimParams(1.0, 0.0), MannheimParams(2.0, -0.7),
                   MannheimParams(0.5, 0.25)):
        cone_report = verify_offset(catalog.cone(domain=(0.05, 0.95), samples=101),
                                    params)
        dev = cone_report.developability
        assert dev.base_developable and dev.theta_star_constant
    heli_report = verify_offset(catalog.helicoidal(domain=(0.05, 0.95), samples=101),
                                MannheimParams(1.0, 0.0))
    dev = heli_report.developability
    assert (not dev.base_developable) and (not dev.theta_star_constant)

    # offset locus: measured Delta1 crosses zero exactly at the closed-form root
    params = MannheimParams(1.0, 0.5)
    base = catalog.helicoidal(domain=(0.05, 0.95), samples=181)
    offset = construct_offset(base, params)

    def delta1_closed(s):
        return -(0.5 - 0.1 * s) * math.tanh(1.0 - s) + 0.2 / 0.75

    root_closed = brentq(delta1_closed, 0.05, 0.95, xtol=1e-14)

    def delta1_measured(s):
        window = RuledSurfaceSpec(offset.indicatrix, offset.base_curve,
                                  (s - 1e-3, s + 1e-3), 3, TIMELIKE_SURFACE)
        return timelike_invariants(window)[1].Delta

    root_measured = brentq(delta1_measured, root_closed - 0.05, root_closed + 0.05,
                           xtol=1e-10)
    assert abs(root_measured - root_closed) < 1e-6


@criterion(10, "corollary on the radius dual slot: |dual(R1)| = |theta*|*sinh|theta| < 1e-9")
def test_criterion_10_radius_dual_magnitude(mannheim_run):
    _, _, angles, _, _, report = mannheim_run
    for a, row in zip(angles, report.samples):
        want = abs(a.theta_star) * math.sinh(abs(a.theta))
        assert abs(abs(row.measured.R1_dual.du) - want) < 1e-9


@criterion(11, "CLI contract: offset run exits 0 and its stored summary folds from the CSV rows")
def test_criterion_11_cli_contract(tmp_path):
    spec_path = tmp_path / "heli.json"
    spec_path.write_text(json.dumps({
        "catalog": "helicoidal",
        "params": {"a": 0.6, "b": 0.8, "delta0": 0.2, "Delta0": 0.1, "c0": [0, 0, 0]},
        "domain": {"s_min": 0.05, "s_max": 0.95, "samples": 1001},
    }))
    out = tmp_path / "report"
    code = cli_main(["offset", "--input", str(spec_path), "--out", str(out),
                     "--mannheim-c", "1.0", "--mannheim-cstar", "0.0"])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1001
    assert set(report["summary"]["max"]) == set(report["summary"]["mean"]) == set(RESIDUAL_KEYS)
    for key in RESIDUAL_KEYS:
        residuals = [abs(float(r[f"{key}_pred"]) - float(r[f"{key}_meas"])) for r in rows]
        assert report["summary"]["max"][key] == max(residuals)
        assert report["summary"]["mean"][key] == sum(residuals) / len(residuals)
