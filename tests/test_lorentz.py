import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dlgeom.dual import DualScalar
from dlgeom.errors import NonFinite
from dlgeom.lorentz import (E1, E2, E3, CausalCharacter, Vec3L, causal_character, det3,
                            lorentz_cross, lorentz_dot, lorentz_norm)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
vectors = st.builds(Vec3L, finite, finite, finite)


def test_dot_examples():
    assert lorentz_dot(E1, E1) == -1.0
    assert lorentz_dot(E2, E2) == 1.0
    # hand evaluation: -4 + 10 + 18
    assert lorentz_dot(Vec3L(1, 2, 3), Vec3L(4, 5, 6)) == 24.0


def test_cross_basis_table_exact():
    assert lorentz_cross(E1, E2) == -E3
    assert lorentz_cross(E2, E3) == E1
    assert lorentz_cross(E3, E1) == -E2


def test_cross_self_vanishes():
    a = Vec3L(3.0, -1.0, 2.0)
    assert lorentz_cross(a, a) == Vec3L(0.0, 0.0, 0.0)


def test_causal_characters():
    assert causal_character(E1) is CausalCharacter.TIMELIKE
    assert causal_character(Vec3L(0.0, 0.0, 0.0)) is CausalCharacter.SPACELIKE
    assert causal_character(Vec3L(1.0, 1.0, 0.0)) is CausalCharacter.LIGHTLIKE


def test_causal_tolerance_band():
    nearly_null = Vec3L(1.0, math.sqrt(1.0 + 1e-14), 0.0)
    assert causal_character(nearly_null) is CausalCharacter.LIGHTLIKE
    assert causal_character(nearly_null, tol=1e-16) is CausalCharacter.SPACELIKE


def test_norm_examples():
    assert lorentz_norm(E1) == 1.0
    assert lorentz_norm(Vec3L(0.0, 3.0, 4.0)) == 5.0
    assert lorentz_norm(Vec3L(2.0, 2.0, 0.0)) == 0.0


def test_det3_examples():
    assert det3(E1, E2, E3) == 1.0
    # cross-consistency: <e1 x e2, e3> = <-e3, e3> = -1 = -det
    assert lorentz_dot(lorentz_cross(E1, E2), E3) == -det3(E1, E2, E3)
    a, b = Vec3L(1.0, 2.0, 3.0), Vec3L(-4.0, 0.5, 2.0)
    assert det3(a, a, b) == 0.0


def test_cross_det_identity_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        a, b, c = (Vec3L(*rng.uniform(-10, 10, 3)) for _ in range(3))
        assert abs(lorentz_dot(lorentz_cross(a, b), c) + det3(a, b, c)) < 1e-12


@given(vectors, vectors)
def test_cross_antisymmetry(a, b):
    lhs = lorentz_cross(a, b)
    rhs = -lorentz_cross(b, a)
    assert lhs == rhs


@given(vectors, vectors)
def test_dot_symmetry(a, b):
    assert lorentz_dot(a, b) == lorentz_dot(b, a)


@given(vectors, vectors)
def test_cross_orthogonality_via_det(a, b):
    # <a x b, a> is NOT assumed zero by metric magic; it equals -det(a,b,a) = 0
    assert abs(lorentz_dot(lorentz_cross(a, b), a) + det3(a, b, a)) < 1e-9
    assert abs(det3(a, b, a)) < 1e-12


def test_constructor_rejects_non_finite():
    with pytest.raises(NonFinite):
        Vec3L(float("nan"), 0.0, 0.0)
    with pytest.raises(NonFinite):
        Vec3L(0.0, float("inf"), 0.0)


def test_constructor_rejects_non_finite_float_subclass():
    with pytest.raises(NonFinite):
        Vec3L(np.float64("nan"), 0.0, 0.0)
    with pytest.raises(NonFinite):
        Vec3L(0.0, 0.0, np.float64("-inf"))


def test_non_finite_dual_slot_rejected_when_split():
    # Vec3L does not look inside dual components; splitting them does
    v = Vec3L(0.0, DualScalar(math.nan, 1.0), 0.0)
    with pytest.raises(NonFinite):
        v.re
    assert v.du == Vec3L(0.0, 1.0, 0.0)
    w = Vec3L(0.0, 0.0, DualScalar(0.5, math.inf))
    with pytest.raises(NonFinite):
        w.du
    assert w.re == Vec3L(0.0, 0.0, 0.5)


def test_a_real_vector_splits_into_itself_and_zero():
    a = Vec3L(1.0, -2.0, 0.5)
    assert a.re == a and a.re is not a
    assert a.du == Vec3L(0.0, 0.0, 0.0)


def test_vector_arithmetic():
    a = Vec3L(1.0, 2.0, 3.0)
    b = Vec3L(0.5, -1.0, 2.0)
    assert a + b == Vec3L(1.5, 1.0, 5.0)
    assert a - b == Vec3L(0.5, 3.0, 1.0)
    assert 2.0 * a == Vec3L(2.0, 4.0, 6.0)
    assert a / 2.0 == Vec3L(0.5, 1.0, 1.5)
    assert list(a) == [1.0, 2.0, 3.0]
