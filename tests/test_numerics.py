import math

import numpy as np
import pytest

import dlgeom.dual as dual
from dlgeom import catalog
from dlgeom.dual import DualScalar
from dlgeom.errors import NonFinite, StepSizeError
from dlgeom.lorentz import Vec3L, lorentz_cross, lorentz_dot
from dlgeom.numerics import (CENTRAL_FD, DUAL_AD, FrameState, NumericsConfig, at_points,
                             cumulative_integrate, differentiate, frame_residual, integrate,
                             lorentz_gram_schmidt, rk4_frame_step, scalar_derivative,
                             value_and_derivative)

AD = NumericsConfig(derivative_mode=DUAL_AD)
FD = NumericsConfig(derivative_mode=CENTRAL_FD)


# ---------------------------------------------------------------------------
# config

def test_config_defaults_per_mode():
    assert AD.tolerance_theorem == 1e-8
    assert FD.tolerance_theorem == 1e-6
    assert NumericsConfig(tolerance_theorem=1e-5).tolerance_theorem == 1e-5


def test_config_validation():
    with pytest.raises(ValueError):
        NumericsConfig(derivative_mode="complex-step")
    with pytest.raises(ValueError):
        NumericsConfig(fd_step=0.0)
    with pytest.raises(ValueError):
        NumericsConfig(fd_step=math.inf)
    for tol in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(ValueError):
            NumericsConfig(tolerance_theorem=tol)


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


def test_integrate_rejects_reversed_interval():
    with pytest.raises(ValueError):
        integrate(lambda s: s, 1.0, 0.0)


def test_integrate_rejects_non_finite():
    with pytest.raises(NonFinite):
        integrate(lambda s: float("nan"), 0.0, 1.0)


def test_integrate_over_dual_values():
    out = integrate(lambda s: DualScalar(1.0, 0.1), 0.0, 0.5)
    assert out.re == pytest.approx(0.5, abs=1e-14)
    assert out.du == pytest.approx(0.05, abs=1e-14)


def test_cumulative_matches_integrate():
    grid = np.linspace(0.0, 1.0, 101)
    out = cumulative_integrate(np.sin, grid, [math.sin(s) for s in grid])
    assert out[0] == 0.0
    for i, s in enumerate(grid):
        assert out[i] == pytest.approx(1.0 - math.cos(s), abs=1e-11)


def test_cumulative_evaluates_each_point_once():
    seen = []

    def f(s):
        seen.extend(np.ravel(s).tolist())
        return np.column_stack([np.ones_like(s), s])

    grid = np.linspace(0.5, 1.5, 11)
    out = cumulative_integrate(f, grid, f(grid))
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
    d = differentiate(spec.indicatrix, 0.0, AD)
    assert d == Vec3L(1.0, 0.0, 0.0)


def test_derivative_of_constant_curve():
    d = differentiate(lambda u: Vec3L(1.0, 2.0, 3.0), 0.3, AD)
    assert d == Vec3L(0.0, 0.0, 0.0)


def test_ad_matches_fd_on_catalog():
    spec = catalog.helicoidal()
    rng = np.random.default_rng(5)
    for curve in (spec.indicatrix, spec.base_curve):
        for u in rng.uniform(0.0, 1.0, 100):
            a = differentiate(curve, float(u), AD)
            b = differentiate(curve, float(u), FD)
            assert max(abs(x - y) for x, y in zip(a, b)) < 1e-6


def test_value_and_derivative_consistency():
    spec = catalog.cone()
    v, d = value_and_derivative(spec.indicatrix, 0.25)
    v2 = spec.indicatrix(0.25)
    d2 = differentiate(spec.indicatrix, 0.25, AD)
    assert max(abs(x - y) for x, y in zip(v, v2)) < 1e-12
    assert max(abs(x - y) for x, y in zip(d, d2)) < 1e-12


def test_scalar_derivative():
    assert scalar_derivative(dual.sinh, 0.7) == pytest.approx(math.cosh(0.7), abs=1e-14)
    assert scalar_derivative(lambda u: 4.2, 0.7) == 0.0


def test_second_derivative_by_nesting():
    spec = catalog.cone()

    def tangent(u):
        return differentiate(spec.indicatrix, u, AD)

    t_prime = differentiate(tangent, 0.0, AD)
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


def test_gram_schmidt_restores_orthonormality():
    e = Vec3L(1e-4, 0.8001, 0.6)
    t = Vec3L(1.0, 1e-4, -2e-4)
    g = Vec3L(-3e-4, 0.6, -0.8002)
    e2, t2, g2 = lorentz_gram_schmidt(e, t, g)
    assert frame_residual(e2, t2, g2) < 1e-12
    assert max(abs(x - y) for x, y in zip(g2, -lorentz_cross(e2, t2))) == 0.0


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
