import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dlgeom.dual as dual
from dlgeom.dual import LIFTS, DualScalar, dual_angle_between, dual_norm, dual_vector
from dlgeom.errors import BranchError, DivisionByPureDual, DomainError, KindMismatch, NullRealPart
from dlgeom.lorentz import Vec3L, lorentz_cross, lorentz_dot

# exactly representable inputs keep the ring laws exact in floating point
exact = st.integers(min_value=-1000, max_value=1000).map(float)
exact_duals = st.builds(DualScalar, exact, exact)


def test_multiplication_rule():
    # (a, a*)(b, b*) = (ab, ab* + a*b)
    assert DualScalar(2.0, 3.0) * DualScalar(4.0, 5.0) == DualScalar(8.0, 22.0)


def test_epsilon_squares_to_zero():
    eps = DualScalar(0.0, 1.0)
    assert eps * eps == DualScalar(0.0, 0.0)


def test_division_inverts_multiplication():
    # (a, a*)/(b, b*) = (a/b, (a*b - ab*)/b^2)
    q = DualScalar(8.0, 22.0) / DualScalar(4.0, 5.0)
    assert q == DualScalar(2.0, 3.0)


def test_division_by_pure_dual_rejected():
    with pytest.raises(DivisionByPureDual):
        DualScalar(1.0, 0.0) / DualScalar(0.0, 1.0)
    with pytest.raises(DivisionByPureDual):
        DualScalar(1.0, 0.0) / DualScalar(5e-15, 1.0)


@given(exact_duals, exact_duals, exact_duals)
def test_ring_laws_exact(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(exact_duals, exact_duals)
def test_commutativity(x, y):
    assert x + y == y + x
    assert x * y == y * x


def test_mixed_scalar_arithmetic():
    x = DualScalar(2.0, 3.0)
    assert x + DualScalar(1.0, -3.0) == DualScalar(3.0, 0.0)
    assert 1.0 + x == DualScalar(3.0, 3.0)
    assert 2.0 * x == DualScalar(4.0, 6.0)
    assert 1.0 - x == DualScalar(-1.0, -3.0)
    assert (6.0 / DualScalar(2.0, 1.0)) == DualScalar(3.0, -1.5)


# ---------------------------------------------------------------------------
# analytic lifts

def test_cosh_lift_example():
    out = dual.cosh(DualScalar(1.0, 2.0))
    assert out.re == pytest.approx(math.cosh(1.0), abs=1e-15)
    assert out.du == pytest.approx(2.0 * math.sinh(1.0), abs=1e-15)


def test_sqrt_lift_example():
    assert dual.sqrt(DualScalar(4.0, 4.0)) == DualScalar(2.0, 1.0)


def test_sinh_lift_at_zero():
    assert dual.sinh(DualScalar(0.0, 5.0)) == DualScalar(0.0, 5.0)


def test_sqrt_domain_error():
    with pytest.raises(DomainError):
        dual.sqrt(DualScalar(-1.0, 1.0))
    with pytest.raises(DomainError):
        dual.sqrt(DualScalar(0.0, 1.0))


_DOMAINS = {
    "sinh": (-3.0, 3.0), "cosh": (-3.0, 3.0), "tanh": (-3.0, 3.0), "exp": (-3.0, 3.0),
    "sqrt": (0.1, 10.0), "sin": (-3.0, 3.0), "cos": (-3.0, 3.0), "arctan": (-5.0, 5.0),
}

_REFERENCE = {
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh, "exp": math.exp,
    "sqrt": math.sqrt, "sin": math.sin, "cos": math.cos, "arctan": math.atan,
}


@pytest.mark.parametrize("name", sorted(_DOMAINS))
def test_lift_matches_central_difference(name):
    lo, hi = _DOMAINS[name]
    f = _REFERENCE[name]
    h = 1e-5
    rng = np.random.default_rng(7)
    for x in rng.uniform(lo + 2 * h, hi - 2 * h, 100):
        want = (f(x + h) - f(x - h)) / (2 * h)
        got = LIFTS[name](DualScalar(float(x), 1.0)).du
        assert got == pytest.approx(want, abs=1e-8)


def test_lifts_accept_plain_floats():
    assert dual.sinh(0.0) == 0.0
    assert dual.cosh(0.0) == 1.0
    assert dual.exp(0.0) == 1.0


# ---------------------------------------------------------------------------
# dual vectors

def test_dual_dot_examples():
    e2 = dual_vector(Vec3L(0.0, 1.0, 0.0), Vec3L(0.0, 0.0, 0.0))
    assert lorentz_dot(e2, e2) == DualScalar(1.0, 0.0)

    x = dual_vector(Vec3L(1.0, 0.0, 0.0), Vec3L(0.0, 1.0, 0.0))
    assert lorentz_dot(x, x) == DualScalar(-1.0, 0.0)

    y = dual_vector(Vec3L(0.0, 1.0, 0.0), Vec3L(0.0, 2.0, 0.0))
    assert lorentz_dot(y, y) == DualScalar(1.0, 4.0)


def test_dual_cross_examples():
    e1 = dual_vector(Vec3L(1.0, 0.0, 0.0), Vec3L(0.0, 0.0, 0.0))
    e2 = dual_vector(Vec3L(0.0, 1.0, 0.0), Vec3L(0.0, 0.0, 0.0))
    out = lorentz_cross(e1, e2)
    assert out.re == Vec3L(0.0, 0.0, -1.0) and out.du == Vec3L(0.0, 0.0, 0.0)

    a = dual_vector(Vec3L(0.0, 1.0, 0.0), Vec3L(1.0, 2.0, 3.0))
    self_cross = lorentz_cross(a, a)
    assert self_cross.re == Vec3L(0.0, 0.0, 0.0)
    assert self_cross.du == Vec3L(0.0, 0.0, 0.0)

    x = dual_vector(Vec3L(0.0, 1.0, 0.0), Vec3L(0.0, 0.0, 0.0))
    y = dual_vector(Vec3L(0.0, 0.0, 1.0), Vec3L(1.0, 0.0, 0.0))
    out = lorentz_cross(x, y)
    assert out.re == Vec3L(1.0, 0.0, 0.0)
    assert out.du == Vec3L(0.0, 0.0, 1.0)


def test_dual_norm_examples():
    zero = Vec3L(0.0, 0.0, 0.0)
    assert dual_norm(dual_vector(Vec3L(0.0, 3.0, 4.0), zero)) == DualScalar(5.0, 0.0)
    e2 = Vec3L(0.0, 1.0, 0.0)
    assert dual_norm(dual_vector(e2, Vec3L(0.0, 2.0, 0.0))) == DualScalar(1.0, 2.0)
    with pytest.raises(NullRealPart):
        dual_norm(dual_vector(Vec3L(1.0, 1.0, 0.0), Vec3L(0.3, 0.1, 0.0)))


def test_dual_norm_timelike_sign():
    # |<a,a>| flips the dual slot sign when the real part is timelike
    x = dual_vector(Vec3L(1.0, 0.0, 0.0), Vec3L(2.0, 0.0, 0.0))
    assert lorentz_dot(x.re, x.du) == -2.0
    assert dual_norm(x) == DualScalar(1.0, 2.0)


moderate = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
vectors = st.builds(Vec3L, moderate, moderate, moderate)


@given(vectors, vectors, vectors, vectors)
def test_dual_products_are_the_lorentz_products_over_dual_components(a, a_star, b, b_star):
    x, y = dual_vector(a, a_star), dual_vector(b, b_star)
    # <a,b> + eps*(<a,b*> + <a*,b>)
    dot = lorentz_dot(x, y)
    assert dot.re == pytest.approx(lorentz_dot(a, b), abs=1e-12)
    assert dot.du == pytest.approx(lorentz_dot(a, b_star) + lorentz_dot(a_star, b), abs=1e-12)
    # a x b + eps*(a* x b + a x b*)
    cross = lorentz_cross(x, y)
    want_du = lorentz_cross(a_star, b) + lorentz_cross(a, b_star)
    assert list(cross.re) == pytest.approx(list(lorentz_cross(a, b)), abs=1e-12)
    assert list(cross.du) == pytest.approx(list(want_du), abs=1e-12)
    assert x.re == a and x.du == a_star


def test_dual_unit_vector_norm_and_square():
    # <a,a> = 1, <a,a*> = 0 gives norm exactly 1 + eps*0 and <x,x> = 1 + eps*0
    x = dual_vector(Vec3L(0.0, 1.0, 0.0), Vec3L(0.0, 0.0, 7.0))
    assert dual_norm(x) == DualScalar(1.0, 0.0)
    assert lorentz_dot(x, x) == DualScalar(1.0, 0.0)
    y = dual_vector(Vec3L(1.0, 0.0, 0.0), Vec3L(0.0, 2.0, -3.0))
    assert dual_norm(y) == DualScalar(1.0, -0.0)
    assert lorentz_dot(y, y) == DualScalar(-1.0, 0.0)


# ---------------------------------------------------------------------------
# dual angles

def _unit_spacelike(moment=Vec3L(0.0, 0.0, 0.0)):
    return dual_vector(Vec3L(0.0, 1.0, 0.0), moment)


def _unit_timelike(moment=Vec3L(0.0, 0.0, 0.0)):
    return dual_vector(Vec3L(1.0, 0.0, 0.0), moment)


def test_timelike_angle_orthogonal_pair():
    out = dual_angle_between(_unit_spacelike(), _unit_timelike())
    assert out == DualScalar(0.0, 0.0)


def test_timelike_angle_sinh_inversion():
    # <x,y> = sinh(0.3) + eps*0.2*cosh(0.3) on unit vectors inverts to 0.3 + eps*0.2
    th, ths = 0.3, 0.2
    x = _unit_spacelike()
    y = dual_vector(Vec3L(math.cosh(th), math.sinh(th), 0.0),
                 Vec3L(ths * math.sinh(th), ths * math.cosh(th), 0.0))
    product = lorentz_dot(x, y)
    assert product.re == pytest.approx(math.sinh(th), abs=1e-15)
    assert product.du == pytest.approx(ths * math.cosh(th), abs=1e-15)
    out = dual_angle_between(x, y)
    assert out.re == pytest.approx(th, abs=1e-12)
    assert out.du == pytest.approx(ths, abs=1e-12)
    assert type(out.re) is float and type(out.du) is float


def test_central_angle_cosh_inversion():
    th = 0.5
    x = _unit_spacelike()
    y = dual_vector(Vec3L(math.sinh(th), math.cosh(th), 0.0), Vec3L(0.0, 0.0, 0.0))
    out = dual_angle_between(x, y)
    assert out.re == pytest.approx(th, abs=1e-12)
    assert out.du == pytest.approx(0.0, abs=1e-15)


def test_central_angle_dual_slot():
    # cosh(thbar) = cosh(th) + eps*ths*sinh(th); recover both slots
    th, ths = 0.7, -0.25
    target = dual.cosh(DualScalar(th, ths))
    x = _unit_spacelike()
    y = dual_vector(Vec3L(math.sinh(th), math.cosh(th), 0.0), Vec3L(0.0, 0.0, 0.0))
    moment_scale = target.du / math.sinh(th)  # aligns <x, y_du> with the wanted dual slot
    y = dual_vector(y.re, Vec3L(moment_scale * math.cosh(th), moment_scale * math.sinh(th), 0.0))
    out = dual_angle_between(x, y)
    assert out.re == pytest.approx(th, abs=1e-12)
    assert out.du == pytest.approx(ths, abs=1e-12)
    assert type(out.re) is float and type(out.du) is float


def test_angle_kind_mismatch():
    # only (spacelike, timelike) and (spacelike, spacelike) have a dual angle
    with pytest.raises(KindMismatch):
        dual_angle_between(_unit_timelike(), _unit_timelike())
    with pytest.raises(KindMismatch):
        dual_angle_between(_unit_timelike(), _unit_spacelike())
    # a lightlike argument is a causal-character violation, not a norm error
    null_vec = dual_vector(Vec3L(1.0, 1.0, 0.0), Vec3L(0.0, 0.0, 0.0))
    with pytest.raises(KindMismatch):
        dual_angle_between(null_vec, _unit_timelike())
    with pytest.raises(KindMismatch):
        dual_angle_between(_unit_spacelike(), null_vec)


def test_central_angle_branch_error():
    x = _unit_spacelike()
    y = dual_vector(Vec3L(0.0, 0.0, 1.0), Vec3L(0.0, 0.0, 0.0))  # orthogonal: <x,y> = 0
    with pytest.raises(BranchError):
        dual_angle_between(x, y)


def _line(point, direction):
    return dual_vector(direction, lorentz_cross(point, direction))


def test_central_angle_raises_between_distinct_parallel_lines():
    # theta = 0 leaves theta* undetermined: <x,y> = 1 + eps*theta* sinh(0) for any theta*
    a = Vec3L(0.0, 1.0, 0.0)
    x, y = _line(Vec3L(0.0, 0.0, 0.0), a), _line(Vec3L(0.0, 0.0, 0.5), a)
    with pytest.raises(BranchError, match="do not coincide"):
        dual_angle_between(x, y)
    with pytest.raises(BranchError):
        dual_angle_between(x, -y)


def test_central_angle_of_a_line_with_itself_is_zero():
    a = Vec3L(0.0, 1.0, 0.0)
    x = _line(Vec3L(0.0, 0.0, 0.5), a)
    assert dual_angle_between(x, x) == DualScalar(0.0, 0.0)
    assert dual_angle_between(x, -x) == DualScalar(0.0, 0.0)
    # the same line through another of its points
    origin = _line(Vec3L(0.0, 0.0, 0.0), a)
    assert dual_angle_between(origin, _line(Vec3L(0.0, 3.0, 0.0), a)) == DualScalar(0.0, 0.0)


@pytest.mark.parametrize("th", [1e-3, 1e-5, 1e-7])
@pytest.mark.parametrize("x_point,y_point,theta_star", [
    (Vec3L(0.0, 0.0, 0.0), Vec3L(0.0, 0.0, 0.0), 0.0),
    (Vec3L(0.0, 2.0, 0.0), Vec3L(0.0, 2.0, 0.0), 0.0),
    (Vec3L(0.0, 0.0, 0.0), Vec3L(0.0, 0.0, 0.5), -0.5),
], ids=["through-the-origin", "crossing-at-(0,2,0)", "offset-by-0.5"])
def test_central_angle_is_resolved_at_small_theta(th, x_point, y_point, theta_star):
    # acosh of the product 1 + th^2/2 keeps about half the digits of th
    x = _line(x_point, Vec3L(0.0, 1.0, 0.0))
    y = _line(y_point, Vec3L(math.sinh(th), math.cosh(th), 0.0))
    out = dual_angle_between(x, y)
    assert out.re == pytest.approx(th, rel=1e-12, abs=0.0)
    assert out.du == pytest.approx(theta_star, abs=1e-9)


def test_central_angle_to_the_opposite_vector_is_the_same():
    # a product <= -1 reads the angle to -y
    th = 0.7
    x = _unit_spacelike(Vec3L(0.0, 0.0, 0.4))
    y = _line(Vec3L(0.3, 0.0, -0.2), Vec3L(math.sinh(th), math.cosh(th), 0.0))
    out = dual_angle_between(x, y)
    assert out.re == pytest.approx(th, abs=1e-12) and out.du != 0.0
    assert dual_angle_between(x, -y) == out
