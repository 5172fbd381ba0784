"""Shared numerical services: quadrature, curve differentiation, frame ODE.

Derivatives default to dual-scalar forward differentiation: a curve closure
is evaluated at ``u + eps`` and the dual slot is read back, so catalog
closed forms differentiate to roundoff.  Central finite differences remain
available as an independent cross-check mode of the measurement layer; the
configuration selects nothing else.  Quadrature is composite Simpson
throughout, and the frame ODE runs a fixed ``ODE_STEPS_PER_UNIT``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dual import DualScalar, DualVec3
from .errors import NonFinite, StepSizeError
from .lorentz import Vec3L, lorentz_cross, lorentz_dot

QUAD_PANELS_PER_UNIT = 256
MIN_QUAD_PANELS = 2
ODE_STEPS_PER_UNIT = 1000

#: largest orthonormality drift of one raw RK4 frame step
DRIFT_TOL = 1e-6

DUAL_AD = "dual-ad"
CENTRAL_FD = "central-fd"


@dataclass(frozen=True)
class NumericsConfig:
    """Settings of the measurement layer: derivative mode, FD step, theorem tolerance.

    ``derivative_mode`` selects how measured frames and invariants are
    differentiated; constructions (striction solve, offset, reconstruction)
    take no config and always differentiate exactly via dual evaluation.
    ``tolerance_theorem`` defaults per derivative mode: 1e-8 for dual-ad,
    1e-6 for central-fd.
    """

    derivative_mode: str = DUAL_AD
    fd_step: float = 1e-4
    tolerance_theorem: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.derivative_mode not in (DUAL_AD, CENTRAL_FD):
            raise ValueError(f"unknown derivative mode {self.derivative_mode!r}")
        if not 0.0 < self.fd_step < math.inf:
            raise ValueError(f"fd_step must be positive and finite, got {self.fd_step}")
        if self.tolerance_theorem is None:
            tol = 1e-8 if self.derivative_mode == DUAL_AD else 1e-6
            object.__setattr__(self, "tolerance_theorem", tol)
        if not 0.0 < self.tolerance_theorem < math.inf:
            raise ValueError("tolerance_theorem must be positive and finite, "
                             f"got {self.tolerance_theorem}")


DEFAULT_CONFIG = NumericsConfig()


def _assert_finite(v, where: str) -> None:
    if isinstance(v, DualScalar):
        _assert_finite(v.re, where)
        _assert_finite(v.du, where)
    elif not np.all(np.isfinite(v)):
        raise NonFinite(f"non-finite value in {where}: {v!r}")


def integrate(f, a: float, b: float):
    """Definite integral of ``f`` over [a, b] by the composite Simpson rule.

    Exact through cubics.  The integrand may return floats or dual scalars
    (the sum is generic).
    """
    if not a <= b:
        raise ValueError(f"integrate needs a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0
    n = max(MIN_QUAD_PANELS, int(math.ceil((b - a) * QUAD_PANELS_PER_UNIT)))
    if n % 2:
        n += 1
    h = (b - a) / n
    total = f(a) + f(b)
    for i in range(1, n):
        v = f(a + i * h)
        total = total + (4.0 * v if i % 2 else 2.0 * v)
    result = total * (h / 3.0)
    _assert_finite(result, "integrate")
    return result


def cumulative_integrate(f, grid: np.ndarray, nodes) -> np.ndarray:
    """Antiderivative values F(grid[i]) - F(grid[0]) on an increasing grid.

    ``nodes`` holds f at every grid point, so ``f`` itself is called only at
    the Simpson midpoints, one per interval, which makes each panel exact
    through cubics.  Values may be floats or fixed-length float arrays,
    integrated componentwise (the result then has one row per node).
    """
    grid = np.asarray(grid, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    h = np.diff(grid).reshape((-1,) + (1,) * (nodes.ndim - 1))
    mids = np.array([f(float(u)) for u in 0.5 * (grid[:-1] + grid[1:])],
                    dtype=float).reshape(nodes[1:].shape)
    pieces = h / 6.0 * (nodes[:-1] + 4.0 * mids + nodes[1:])
    _assert_finite(pieces, "cumulative_integrate")
    return np.concatenate([np.zeros_like(nodes[:1]), np.cumsum(pieces, axis=0)])


def differentiate(curve, u, cfg: NumericsConfig = DEFAULT_CONFIG) -> Vec3L:
    """Derivative of a Vec3L-valued curve at parameter u.

    In dual-ad mode the curve is evaluated at ``u + eps`` and the dual slot
    is the derivative; ``u`` may itself be a dual scalar, which nests one
    differentiation order deeper.
    """
    if cfg.derivative_mode == DUAL_AD:
        v = curve(DualScalar(u, 1.0))
        return DualVec3.from_components(v).du
    h = cfg.fd_step
    return (curve(u + h) - curve(u - h)) / (2.0 * h)


def value_and_derivative(curve, u):
    """Curve value and exact derivative from a single dual evaluation.

    One pass through the closure carries both slots, which matters in the
    nested inner loops; ``u`` may itself be dual.
    """
    v = DualVec3.from_components(curve(DualScalar(u, 1.0)))
    return v.re, v.du


def scalar_derivative(f, u):
    """Exact derivative of a scalar function from one dual evaluation."""
    v = f(DualScalar(u, 1.0))
    return v.du if isinstance(v, DualScalar) else 0.0


# ---------------------------------------------------------------------------
# frame ODE

@dataclass(frozen=True)
class FrameState:
    """Moving frame {e, t, g} plus striction point c."""

    e: Vec3L
    t: Vec3L
    g: Vec3L
    c: Vec3L


def frame_residual(e: Vec3L, t: Vec3L, g: Vec3L, signs=(1.0, -1.0, 1.0)) -> float:
    """Max deviation from Lorentz-orthonormality with the given signature."""
    return max(
        abs(lorentz_dot(e, e) - signs[0]),
        abs(lorentz_dot(t, t) - signs[1]),
        abs(lorentz_dot(g, g) - signs[2]),
        abs(lorentz_dot(e, t)),
        abs(lorentz_dot(e, g)),
        abs(lorentz_dot(t, g)),
    )


def lorentz_gram_schmidt(e: Vec3L, t: Vec3L, g: Vec3L):
    """Re-orthonormalize in the order t, e, g for signature (+, -, +).

    t is normalized timelike, e is projected off t and normalized
    spacelike, and g is completed as -e x t (the frame's own definition,
    which also pins the orientation).
    """
    qt = lorentz_dot(t, t)
    if qt >= 0.0:
        raise StepSizeError("tangent lost its timelike character")
    t = t / math.sqrt(-qt)
    e = e + lorentz_dot(e, t) * t
    qe = lorentz_dot(e, e)
    if qe <= 0.0:
        raise StepSizeError("ruling lost its spacelike character")
    e = e / math.sqrt(qe)
    g = -lorentz_cross(e, t)
    return e, t, g


def rk4_frame_step(state: FrameState, s: float, h: float,
                   gamma, delta, Delta) -> FrameState:
    """One classical RK4 step of the frame system

        e' = t,  t' = e + gamma*g,  g' = gamma*t,  c' = delta*e + Delta*g,

    followed by Lorentzian Gram-Schmidt.  Raises StepSizeError if the raw
    step drifts from orthonormality by more than ``DRIFT_TOL``.
    """

    def rates(si, e, t, g, _c):
        ga = gamma(si)
        return (t, e + ga * g, ga * t, delta(si) * e + Delta(si) * g)

    e0, t0, g0, c0 = state.e, state.t, state.g, state.c
    k1 = rates(s, e0, t0, g0, c0)
    k2 = rates(s + 0.5 * h, e0 + 0.5 * h * k1[0], t0 + 0.5 * h * k1[1],
               g0 + 0.5 * h * k1[2], c0 + 0.5 * h * k1[3])
    k3 = rates(s + 0.5 * h, e0 + 0.5 * h * k2[0], t0 + 0.5 * h * k2[1],
               g0 + 0.5 * h * k2[2], c0 + 0.5 * h * k2[3])
    k4 = rates(s + h, e0 + h * k3[0], t0 + h * k3[1], g0 + h * k3[2], c0 + h * k3[3])

    sixth = h / 6.0
    e = e0 + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    t = t0 + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    g = g0 + sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    c = c0 + sixth * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])

    drift = frame_residual(e, t, g)
    if drift > DRIFT_TOL:
        raise StepSizeError(f"frame drift {drift:.3e} exceeds {DRIFT_TOL:.1e} at s={s}")
    e, t, g = lorentz_gram_schmidt(e, t, g)
    return FrameState(e, t, g, c)
