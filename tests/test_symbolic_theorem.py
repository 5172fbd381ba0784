"""The Mannheim closed forms derived from the frame equations, not transcribed.

Vectors are coefficient triples in the base's moving frame (e, t, g), whose
Gram matrix is diag(1, -1, 1) and whose determinant det(e, t, g) is 1.  Per
unit base arc length s the frame obeys e' = t, t' = e + gamma*g, g' = gamma*t,
the striction curve c' = delta*e + Delta*g, and the offset angle and distance
theta' = -1 and theta*' = -Delta.  From the offset e1 = sinh(theta)*e +
cosh(theta)*t, c1 = c + theta*g, the offset invariants follow by the kernel's
own definitions, with the offset speed oriented by the Mannheim condition
t1 = g: v1 = ds1/ds = gamma*cosh(theta), signed.
"""

import numpy as np
import pytest
import sympy as sp

from dlgeom import catalog
from dlgeom.dual import DualScalar
from dlgeom.lorentz import det3
from dlgeom.mannheim import OffsetAngle, predicted_invariants
from dlgeom.ruled import darboux_frame, timelike_radius

s, c = sp.symbols("s c", real=True)
gamma, delta, Delta, theta_star = (sp.Function(name, real=True)(s)
                                   for name in ("gamma", "delta", "Delta", "theta_star"))
theta = c - s
RATES = {theta_star.diff(s): -Delta}
#: the offset ruling and its speed ds1/ds, signed so that t1 = g
E1 = (sp.sinh(theta), sp.cosh(theta), 0)
V1 = gamma * sp.cosh(theta)

#: the values the derived forms are evaluated at
G, D, DD, TH, TS = sp.symbols("gamma delta Delta theta theta_star", real=True)
VALUES = {gamma: G, delta: D, Delta: DD, theta_star: TS}


def _d(vec):
    """The s-derivative of a vector given by its (e, t, g) coefficients."""
    a, b, f = (sp.diff(x, s).subs(RATES) for x in vec)
    x, y, z = vec
    return (a + y, x + b + gamma * z, gamma * y + f)


def _dot(x, y):
    return x[0] * y[0] - x[1] * y[1] + x[2] * y[2]


def _det(x, y, z):
    return sp.Matrix([x, y, z]).det()


def _derive():
    """ds1/ds, gamma1, delta1 and Delta1 as expressions in (G, D, DD, TH, TS)."""
    e1p = _d(E1)
    t1 = tuple(x / V1 for x in e1p)
    c1p = tuple(x + y for x, y in zip((delta, 0, Delta), _d((0, 0, theta_star))))
    derived = {
        "ds1_ds": V1,
        "gamma1": _det(E1, e1p, _d(e1p)) / V1 ** 3,
        "delta1": _dot(c1p, E1) / V1,
        "Delta1": _det(tuple(x / V1 for x in c1p), E1, t1),
    }
    # in the values, s enters only through theta = c - s
    return {k: sp.simplify(v.subs(VALUES).subs(c, TH + s)) for k, v in derived.items()}


DERIVED = _derive()


def _evaluate(expr, args):
    return sp.lambdify((G, D, DD, TH, TS), expr, "numpy")(*args)


def _inputs():
    """Seeded (gamma, delta, Delta, theta, theta*) columns, gamma of either sign."""
    rng = np.random.default_rng(13)
    n = 200
    gamma_ = rng.choice([-1.0, 1.0], n) * rng.uniform(0.2, 2.0, n)
    return (gamma_, rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n),
            rng.uniform(-2.0, 2.0, n), rng.uniform(-1.0, 1.0, n))


def _predicted(args):
    gamma_, delta_, Delta_, theta_, theta_star_ = args
    return predicted_invariants(gamma_, delta_, Delta_,
                                OffsetAngle(np.zeros_like(theta_), theta_, theta_star_))


def test_the_frame_has_determinant_one():
    # the derivation takes det(e, t, g) = 1 for the kernel's frames
    f = darboux_frame(catalog.helicoidal(domain=(0.05, 0.95), samples=11))
    assert np.max(np.abs(det3(f.e, f.t, f.g) - 1.0)) < 1e-12


def test_the_offset_tangent_is_the_base_binormal():
    # the Mannheim condition t1 = g, with the signed speed: e1' = V1*g
    assert [sp.simplify(x - y) for x, y in zip(_d(E1), (0, 0, V1))] == [0, 0, 0]


def test_closed_forms_follow_from_the_frame_equations():
    args = _inputs()
    pred = _predicted(args)
    for key in ("ds1_ds", "gamma1", "delta1", "Delta1"):
        got = _evaluate(DERIVED[key], args)
        assert np.max(np.abs(got - getattr(pred, key))) < 1e-13, key


@pytest.mark.parametrize("name,form", [
    ("gamma1_dual", lambda x: -sp.tanh(x)),
    ("R1_dual", sp.cosh),
], ids=["gamma1_dual", "R1_dual"])
def test_dual_closed_forms_follow_from_the_frame_equations(name, form):
    # a dual function of Theta = theta + eps*theta* is f(theta) + eps*theta* f'(theta);
    # the offset's dual curvature is gamma1 + eps*(delta1 + gamma1*Delta1), and
    # its dual radius is timelike_radius of that
    args = _inputs()
    g1 = DERIVED["gamma1"]
    curvature = DualScalar(_evaluate(g1, args),
                           _evaluate(DERIVED["delta1"] + g1 * DERIVED["Delta1"], args))
    got = curvature if name == "gamma1_dual" else timelike_radius(curvature)
    want = DualScalar(_evaluate(form(TH), args), _evaluate(TS * sp.diff(form(TH), TH), args))
    pred = getattr(_predicted(args), name)
    for part in ("re", "du"):
        assert np.max(np.abs(getattr(got, part) - getattr(want, part))) < 1e-13, part
        assert np.max(np.abs(getattr(pred, part) - getattr(want, part))) < 1e-13, part


#: the paper's developability condition for the offset, theta* = (delta/gamma)*coth(theta)
DEVELOPABLE_THETA_STAR = (D / G) * sp.coth(TH)


def test_the_offset_is_developable_where_theta_star_is_delta_over_gamma_coth_theta():
    # the derived Delta1 = 0 has one root in theta*, the paper's condition
    roots = sp.solve(DERIVED["Delta1"], TS)
    assert len(roots) == 1
    assert sp.simplify(roots[0] - DEVELOPABLE_THETA_STAR) == 0
    # and the kernel's closed form vanishes there, away from the coth pole at theta = 0
    args = _inputs()
    far = np.abs(args[3]) >= 0.1
    gamma_, delta_, Delta_, theta_ = (x[far] for x in args[:4])
    assert len(theta_) > 150
    theta_star_ = _evaluate(DEVELOPABLE_THETA_STAR, (gamma_, delta_, Delta_, theta_, 0.0))
    pred = _predicted((gamma_, delta_, Delta_, theta_, theta_star_))
    assert np.max(np.abs(pred.Delta1)) < 1e-13
