import math

import numpy as np
import pytest

from dlgeom import catalog, ruled
from dlgeom.dual import DualScalar
from dlgeom.errors import NonFinite, StepSizeError
from dlgeom.lorentz import Vec3L, lorentz_dot
from dlgeom.numerics import (DRIFT_TOL, FD_STEP, MIN_QUAD_PANELS, QUAD_PANELS_PER_UNIT, FrameState,
                             _gram, _project_frames, at_points, cumulative_integrate,
                             frame_residual, hermite_cumulative, integrate, rk4_frame_step,
                             simpson_midpoints)


def _ad(curve, u):
    return curve(DualScalar(u, 1.0)).du


def _fd(curve, u):
    # the central-fd mode's stencil
    return (curve(u + FD_STEP) - curve(u - FD_STEP)) / (2.0 * FD_STEP)


# ---------------------------------------------------------------------------
# quadrature

def test_integrate_constant():
    assert integrate(lambda s: 0.1, 0.0, 0.5) == pytest.approx(0.05, abs=1e-15)


def test_integrate_linear_exact():
    assert integrate(lambda s: s, 0.0, 1.0) == pytest.approx(0.5, abs=1e-14)


def test_integrate_sine():
    assert integrate(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-8)


def test_simpson_exact_on_cubics():
    out = integrate(lambda s: 3.0 * s ** 3 - 2.0 * s ** 2 + s - 4.0, -1.0, 2.0)
    want = (3 / 4) * (16 - 1) - (2 / 3) * (8 + 1) + (4 - 1) / 2 - 4 * 3
    assert out == pytest.approx(want, abs=1e-13)


def test_integrate_reversed_interval_is_the_negated_integral():
    # bit for bit: a reversed interval folds the same points with -h
    assert integrate(np.exp, 1.0, 0.2) == -integrate(np.exp, 0.2, 1.0)
    a, b = np.array([0.0, 1.3, -0.4, 0.5]), np.array([0.7, -0.2, -0.4, 2.0])
    out = integrate(np.cos, a, b)
    assert np.array_equal(out, -integrate(np.cos, b, a))
    assert np.array_equal(out[[0, 3]], integrate(np.cos, a[[0, 3]], b[[0, 3]]))
    assert np.array_equal(out[1], -integrate(np.cos, -0.2, 1.3))
    assert out[2] == 0.0

    def f(s):
        return DualScalar(np.sin(s), s * s)

    up, down = integrate(f, -0.3, 0.8), integrate(f, 0.8, -0.3)
    assert (down.re, down.du) == (-up.re, -up.du)


def test_integrate_rejects_non_finite():
    with pytest.raises(NonFinite):
        integrate(lambda s: float("nan"), 0.0, 1.0)


def test_integrate_over_dual_values():
    out = integrate(lambda s: DualScalar(1.0, 0.1), 0.0, 0.5)
    assert out.re == pytest.approx(0.5, abs=1e-14)
    assert out.du == pytest.approx(0.05, abs=1e-14)


def test_cumulative_matches_integrate():
    grid = np.linspace(0.0, 1.0, 101)
    out = cumulative_integrate(grid, np.sin(grid), np.sin(simpson_midpoints(grid)))
    assert out[0] == 0.0
    for i, s in enumerate(grid):
        assert out[i] == pytest.approx(1.0 - math.cos(s), abs=1e-11)


def test_cumulative_evaluates_each_point_once():
    seen = []

    def f(s):
        seen.extend(np.ravel(s).tolist())
        return np.column_stack([np.ones_like(s), s])

    grid = np.linspace(0.5, 1.5, 11)
    # the caller evaluates nodes and midpoints in one call and splits the rows
    values = f(np.concatenate([grid, simpson_midpoints(grid)]))
    out = cumulative_integrate(grid, values[:len(grid)], values[len(grid):])
    assert len(seen) == len(set(seen)) == 2 * len(grid) - 1
    # componentwise: the antiderivatives of 1 and s from the first node
    assert out.shape == (11, 2)
    assert np.max(np.abs(out[:, 0] - (grid - 0.5))) < 1e-14
    assert np.max(np.abs(out[:, 1] - 0.5 * (grid ** 2 - 0.25))) < 1e-14


def test_integrate_many_intervals_in_one_call():
    calls = []

    def f(s):
        calls.append(len(s))
        return np.sin(s)

    a = np.array([0.0, 0.3, 1.0, 0.5])
    b = np.array([math.pi, 0.31, 1.0, 2.0])
    out = integrate(f, a, b)
    assert len(calls) == 1
    assert out[2] == 0.0
    for x, y, got in zip(a, b, out):
        assert got == pytest.approx(integrate(np.sin, float(x), float(y)), abs=1e-15)
        assert got == pytest.approx(math.cos(x) - math.cos(y), abs=1e-8)


def test_cumulative_rejects_a_non_finite_midpoint():
    grid = np.linspace(0.0, 1.0, 5)
    mids = np.array([1.0, 1.0, math.inf, 1.0])
    with pytest.raises(NonFinite, match=r"u=0\.625$"):
        cumulative_integrate(grid, np.ones(5), mids)


def test_cumulative_rejects_a_non_finite_node():
    grid = np.linspace(0.0, 1.0, 5)
    nodes = np.ones((5, 2))
    nodes[3, 1] = math.nan
    with pytest.raises(NonFinite, match=r"u=0\.75$"):
        cumulative_integrate(grid, nodes, np.ones((4, 2)))


def test_cumulative_overflow_raises_without_a_warning():
    # the suite turns a RuntimeWarning into an error (pyproject.toml)
    grid = np.linspace(0.0, 4.0, 5)
    big = np.full(5, 1e308)
    with pytest.raises(NonFinite, match=r"overflows at u=1\.0$"):
        cumulative_integrate(grid, big, big[1:])


def test_hermite_cumulative_is_exact_for_cubics_along_a_path_that_turns():
    # nodes from 0 down to -0.3, then up to 0.9: F(x) - F(0) at each, componentwise
    x = np.concatenate([np.linspace(0.0, -0.3, 4), np.linspace(-0.3, 0.9, 7)[1:]])
    f, fp = 1.0 + x - 2.0 * x ** 2 + 3.0 * x ** 3, 1.0 - 4.0 * x + 9.0 * x ** 2
    F = x + x ** 2 / 2.0 - 2.0 * x ** 3 / 3.0 + 3.0 * x ** 4 / 4.0
    out = hermite_cumulative(x, np.array([f, -f]), np.array([fp, -fp]))
    assert out.shape == (2, len(x))
    assert np.max(np.abs(out - np.array([F, -F]))) < 1e-15


def test_integrate_sums_the_composite_simpson_rule():
    # one call on the points of every interval in turn, each interval split
    # into an even count of at least MIN_QUAD_PANELS, QUAD_PANELS_PER_UNIT per
    # unit, and weighted 1, 4, 2, ..., 4, 1 times h/3
    a, b = np.array([0.0, 1.0, 0.2]), np.array([1.0, 1.0, 2.5])
    calls = []

    def f(u):
        calls.append(u)
        return np.column_stack([np.sin(u), 2.0 * np.sin(u)])

    out = integrate(f, a, b)
    points, sums = [], []
    for lo, hi in zip(a, b):
        n = max(MIN_QUAD_PANELS, math.ceil((hi - lo) * QUAD_PANELS_PER_UNIT))
        n += n % 2
        h = (hi - lo) / n
        x = lo + np.arange(n + 1) * h
        x[-1] = hi
        w = np.where(np.arange(n + 1) % 2, 4.0, 2.0)
        w[0] = w[-1] = 1.0
        if lo < hi:
            points.extend(x.tolist())
            sums.append(h / 3.0 * np.sum(w * np.sin(x)))
        else:
            sums.append(0.0)
    assert len(calls) == 1 and calls[0].tolist() == points
    assert out.shape == (3, 2)
    assert np.max(np.abs(out[:, 0] - sums)) < 1e-15
    assert np.array_equal(out[:, 1], 2.0 * out[:, 0])
    with pytest.raises(NonFinite, match=r"u=0\.0$"):
        integrate(lambda u: np.where(u == 0.0, math.nan, np.sin(u)), a, b)

    # empty intervals only: zeros, and f is not called
    def never(u):
        raise AssertionError("f called on an empty interval")

    assert integrate(never, 0.5, 0.5) == 0.0
    out = integrate(never, np.array([0.1, -0.3]), np.array([0.1, -0.3]))
    assert out.shape == (2,) and not out.any()


def test_at_points_names_the_offending_point():
    u = np.array([0.25, 0.5, 0.75])
    with pytest.raises(NonFinite, match=r"nan at u=0\.5$"):
        with at_points(u):
            Vec3L(np.array([1.0, math.nan, math.inf]), 0.0 * u, 0.0 * u)
    with pytest.raises(NonFinite, match=r"u=0\.75$"):
        integrate(lambda s: 1.0 / (s - 0.75), 0.5, 1.0)


# ---------------------------------------------------------------------------
# differentiation

def test_cone_indicatrix_derivative_at_zero():
    spec = catalog.cone()
    d = _ad(spec.indicatrix, 0.0)
    assert d == Vec3L(1.0, 0.0, 0.0)


def test_derivative_of_constant_curve():
    d = _ad(lambda u: Vec3L(1.0, 2.0, 3.0), 0.3)
    assert d == Vec3L(0.0, 0.0, 0.0)


def test_ad_matches_fd_on_catalog():
    spec = catalog.helicoidal()
    rng = np.random.default_rng(5)
    for curve in (spec.indicatrix, spec.base_curve):
        for u in rng.uniform(0.0, 1.0, 100):
            a = _ad(curve, float(u))
            b = _fd(curve, float(u))
            assert max(abs(x - y) for x, y in zip(a, b)) < 1e-6


def test_value_and_derivative_consistency():
    # one evaluation of the closure at u + eps carries its value and its exact
    # derivative: the cone's e = (b sinh(u/b), b cosh(u/b), a) has
    # e' = (cosh(u/b), sinh(u/b), 0)
    spec = catalog.cone()
    both = spec.indicatrix(DualScalar(0.25, 1.0))
    slope = (math.cosh(0.25 / 0.8), math.sinh(0.25 / 0.8), 0.0)
    assert max(abs(x - y) for x, y in zip(both.re, spec.indicatrix(0.25))) < 1e-12
    assert max(abs(x - y) for x, y in zip(both.du, slope)) < 1e-12


def test_second_derivative_by_nesting():
    spec = catalog.cone()

    def tangent(u):
        return _ad(spec.indicatrix, u)

    t_prime = _ad(tangent, 0.0)
    # closed form: e'' = (sinh(s/b), cosh(s/b), 0)/b at s=0
    assert t_prime.x1 == pytest.approx(0.0, abs=1e-14)
    assert t_prime.x2 == pytest.approx(1.25, abs=1e-12)
    assert t_prime.x3 == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# frame ODE

CONE_E0 = Vec3L(0.0, 0.8, 0.6)
CONE_T0 = Vec3L(1.0, 0.0, 0.0)
CONE_G0 = Vec3L(0.0, 0.6, -0.8)


def _integrate_cone(n_steps: int):
    state = FrameState(CONE_E0, CONE_T0, CONE_G0, Vec3L(0.0, 0.0, 0.0))
    h = 1.0 / n_steps
    gamma = lambda s: 0.75
    zero = lambda s: 0.0
    for k in range(n_steps):
        state = rk4_frame_step(state, k * h, h, gamma, zero, zero)
    return state


def _cone_frame_error(n_steps: int) -> float:
    state = _integrate_cone(n_steps)
    b = 0.8
    want = Vec3L(b * math.sinh(1 / b), b * math.cosh(1 / b), 0.6)
    return max(abs(x - y) for x, y in zip(state.e, want))


def test_rk4_cone_closed_form():
    assert _cone_frame_error(1000) < 1e-9


def test_rk4_fourth_order():
    e1 = _cone_frame_error(50)
    e2 = _cone_frame_error(100)
    order = math.log2(e1 / e2)
    assert order >= 3.8


def test_rk4_zero_profile_keeps_g_and_c():
    state = FrameState(CONE_E0, CONE_T0, CONE_G0, Vec3L(1.0, 2.0, 3.0))
    zero = lambda s: 0.0
    out = state
    for k in range(10):
        out = rk4_frame_step(out, 0.1 * k, 0.1, zero, zero, zero)
    assert max(abs(x - y) for x, y in zip(out.c, state.c)) == 0.0
    assert max(abs(x - y) for x, y in zip(out.g, state.g)) < 1e-12
    # e still moves: e' = t is not suppressed by a zero profile
    assert max(abs(x - y) for x, y in zip(out.e, state.e)) > 0.5


def test_rk4_step_size_error():
    state = FrameState(CONE_E0, CONE_T0, CONE_G0, Vec3L(0.0, 0.0, 0.0))
    with pytest.raises(StepSizeError):
        rk4_frame_step(state, 0.0, 5.0, lambda s: 0.75, lambda s: 0.0, lambda s: 0.0)


def _cone_stack(*shape):
    """The cone frame [e t g] as columns, broadcast to ``shape`` + (3, 3)."""
    return np.broadcast_to(np.column_stack([tuple(v) for v in (CONE_E0, CONE_T0, CONE_G0)]),
                           (*shape, 3, 3))


def _residuals(table):
    """frame_residual of each frame of a (column, component, node) table."""
    return frame_residual(*(Vec3L(*x) for x in table))


def test_the_flow_projects_a_drift_just_under_the_tolerance_to_roundoff(monkeypatch):
    # one Magnus step scaled by 1 + 4e-7 scales every later frame, and their Gram
    # entries by about 1 + 8e-7; each Newton step squares that drift, and one
    # alone leaves about 5e-13
    real_exp, real_project, drifts = ruled._exp_so21, ruled._project_frames, []

    def scaled(w):
        steps = real_exp(w)
        steps[0] *= 1.0 + 4e-7
        return steps

    def project(frames, gram):
        drifts.append(np.max(np.abs(gram - np.diag([1.0, -1.0, 1.0]))))
        return real_project(frames, gram)

    monkeypatch.setattr(ruled, "_exp_so21", scaled)
    monkeypatch.setattr(ruled, "_project_frames", project)
    s = np.linspace(0.0, 1.0, 1001)
    table = ruled._frame_flow(lambda x: 0.75 + 0.3 * np.sin(x), _cone_stack(), s, 0)
    assert 7e-7 < drifts[0] < DRIFT_TOL
    assert np.max(_residuals(table)) <= 1e-14


def test_projecting_a_stack_gives_each_frame_the_bits_it_gets_alone():
    rng = np.random.default_rng(7)
    stack = _cone_stack(5) + 1e-7 * rng.standard_normal((5, 3, 3))
    out = _project_frames(stack, _gram(stack))
    assert np.max(_residuals(out.transpose(2, 1, 0))) <= 1e-15
    for i in range(5):
        alone = _project_frames(stack[i:i + 1], _gram(stack[i:i + 1]))
        assert np.array_equal(out[i], alone[0])


def test_frame_residual_signature():
    assert frame_residual(CONE_E0, CONE_T0, CONE_G0) < 1e-15
    e1 = Vec3L(1.0, 0.0, 0.0)
    t1 = Vec3L(0.0, 0.0, -1.0)
    g1 = Vec3L(0.0, 1.0, 0.0)
    assert frame_residual(e1, t1, g1, signs=(-1.0, 1.0, 1.0)) < 1e-15


def test_dot_sanity_for_cone_frame():
    assert lorentz_dot(CONE_E0, CONE_E0) == pytest.approx(1.0, abs=1e-15)
    assert lorentz_dot(CONE_T0, CONE_T0) == -1.0
    assert lorentz_dot(CONE_G0, CONE_G0) == pytest.approx(1.0, abs=1e-15)
