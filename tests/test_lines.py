import numpy as np
import pytest

from dlgeom.dual import dual_vector
from dlgeom.errors import InvalidDirection, NotUnit
from dlgeom.lines import OrientedLine, dual_to_line, line_to_dual
from dlgeom.lorentz import CausalCharacter, Vec3L, causal_character, lorentz_dot, lorentz_norm


def test_line_through_origin_has_zero_moment():
    d = line_to_dual(OrientedLine(Vec3L(0.0, 0.0, 0.0), Vec3L(0.0, 1.0, 0.0)))
    assert d.re == Vec3L(0.0, 1.0, 0.0)
    assert d.du == Vec3L(0.0, 0.0, 0.0)


def test_moment_example():
    d = line_to_dual(OrientedLine(Vec3L(1.0, 0.0, 0.0), Vec3L(0.0, 1.0, 0.0)))
    assert d.du == Vec3L(0.0, 0.0, -1.0)


def test_moment_point_invariance():
    p = Vec3L(1.0, 2.0, -0.5)
    a = Vec3L(0.0, 1.0, 0.0)
    lam = 7.3
    d1 = line_to_dual(OrientedLine(p, a))
    d2 = line_to_dual(OrientedLine(p + lam * a, a))
    assert max(abs(x - y) for x, y in zip(d1.du, d2.du)) < 1e-12


def test_lightlike_direction_rejected():
    with pytest.raises(InvalidDirection):
        OrientedLine(Vec3L(0.0, 0.0, 0.0), Vec3L(1.0, 1.0, 0.0))
    with pytest.raises(InvalidDirection):
        OrientedLine(Vec3L(0.0, 0.0, 0.0), Vec3L(0.0, 2.0, 0.0))  # not unit


def test_dual_to_line_examples():
    line = dual_to_line(dual_vector(Vec3L(0.0, 1.0, 0.0), Vec3L(0.0, 0.0, 0.0)))
    assert line.direction == Vec3L(0.0, 1.0, 0.0)
    assert lorentz_norm(line.point) == 0.0

    # round trip of the moment example
    d = line_to_dual(OrientedLine(Vec3L(1.0, 0.0, 0.0), Vec3L(0.0, 1.0, 0.0)))
    back = line_to_dual(dual_to_line(d))
    assert max(abs(x - y) for x, y in zip(back.du, d.du)) < 1e-12

    with pytest.raises(NotUnit):
        dual_to_line(dual_vector(Vec3L(0.0, 1.0, 0.0), Vec3L(0.0, 2.0, 0.0)))


def test_dual_to_line_validation():
    line = dual_to_line(dual_vector(Vec3L(0.0, 1.0, 0.0), Vec3L(0.0, 0.0, -1.0)))
    assert line.direction == Vec3L(0.0, 1.0, 0.0)
    timelike = dual_to_line(dual_vector(Vec3L(1.0, 0.0, 0.0), Vec3L(0.0, 0.0, 1.0)))
    assert timelike.direction == Vec3L(1.0, 0.0, 0.0) and timelike.timelike
    # moment not orthogonal to the direction: <a, a*> = 1
    with pytest.raises(NotUnit, match="violates the unit condition"):
        dual_to_line(dual_vector(Vec3L(0.0, 1.0, 0.0), Vec3L(0.0, 1.0, 0.0)))
    # direction not unit: <a, a> = 4
    with pytest.raises(NotUnit, match="is not \\+-1"):
        dual_to_line(dual_vector(Vec3L(0.0, 2.0, 0.0), Vec3L(0.0, 0.0, 0.0)))
    # lightlike direction: <a, a> = 0
    with pytest.raises(NotUnit, match="is not \\+-1"):
        dual_to_line(dual_vector(Vec3L(1.0, 1.0, 0.0), Vec3L(0.0, 0.0, 0.0)))


def test_timelike_line_round_trip():
    p = Vec3L(0.0, 1.0, 0.0)
    a = Vec3L(1.0, 0.0, 0.0)
    d = line_to_dual(OrientedLine(p, a))
    line = dual_to_line(d)
    assert line.timelike
    back = line_to_dual(line)
    assert max(abs(x - y) for x, y in zip(back.du, d.du)) < 1e-12


def _random_line(rng) -> OrientedLine:
    while True:
        raw = Vec3L(*rng.uniform(-1.0, 1.0, 3))
        q = lorentz_dot(raw, raw)
        if abs(q) < 0.05:  # keep clear of the light cone
            continue
        direction = raw / abs(q) ** 0.5
        point = Vec3L(*rng.uniform(-10.0, 10.0, 3))
        return OrientedLine(point, direction)


def test_round_trip_randomized():
    rng = np.random.default_rng(321)
    seen = {CausalCharacter.SPACELIKE: 0, CausalCharacter.TIMELIKE: 0}
    for _ in range(1000):
        line = _random_line(rng)
        seen[causal_character(line.direction)] += 1
        d = line_to_dual(line)
        back = line_to_dual(dual_to_line(d))
        err = max(abs(x - y) for x, y in zip(back.du, d.du))
        assert err < 1e-9
        assert back.re == d.re
    assert min(seen.values()) > 100  # both causal classes exercised
