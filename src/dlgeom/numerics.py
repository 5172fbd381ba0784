"""Shared numerical services: quadrature, curve differentiation, frame ODE.

Derivatives default to dual-scalar forward differentiation: a curve closure
is evaluated at ``u + eps`` and the dual slot is read back, so catalog
closed forms differentiate to roundoff.  Central finite differences remain
available as an independent cross-check mode of the measurement layer; the
configuration selects nothing else.  Quadrature is composite Simpson
throughout, and the frame ODE runs a fixed ``ODE_STEPS_PER_UNIT``.

Integrands are evaluated over arrays: :func:`integrate` and
:func:`cumulative_integrate` call their integrand once, on the 1-D array of
all the points they need, and expect one value per point back (see
:func:`integrate`).  Closures evaluated that way run inside
:func:`at_points`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .dual import DualScalar, DualVec3
from .errors import GeometryError, NonFinite, StepSizeError
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


@contextmanager
def at_points(points):
    """Context for evaluating closures on an array of parameter values ``points``.

    numpy's floating-point warnings are off inside, because the kernel's
    finiteness checks reject what overflows or turns NaN.  A kernel error
    raised with the index of its first offending array element is re-raised
    naming that element's point, so an error on a block of samples reads
    like the error on the one sample.
    """
    with np.errstate(all="ignore"):
        try:
            yield
        except GeometryError as exc:
            if exc.index is None or exc.index >= np.size(points):
                raise
            raise type(exc)(f"{exc} at u={float(np.ravel(points)[exc.index])!r}") from None


def _leafwise(fn, v):
    """``fn`` applied to every real leaf of a (nested) dual scalar."""
    if isinstance(v, DualScalar):
        return DualScalar(_leafwise(fn, v.re), _leafwise(fn, v.du))
    return fn(v)


def _finite_values(v, points) -> np.ndarray:
    """Integrand values as one row per point; NonFinite names the first bad point."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 0:
        v = np.broadcast_to(v, points.shape)
    bad = ~np.isfinite(v.reshape(len(points), -1)).all(axis=1)
    if bad.any():
        raise NonFinite(f"non-finite integrand at u={float(points[np.argmax(bad)])!r}")
    return v


def integrate(f, a, b):
    """Definite integral of ``f`` over [a, b] by the composite Simpson rule.

    Exact through cubics.  Each interval gets ``QUAD_PANELS_PER_UNIT``
    panels per unit length, at least ``MIN_QUAD_PANELS``, rounded up to an
    even count.  ``a`` and ``b`` may be equal-shape arrays, one interval per
    element; the result then has that shape, followed by the shape of one
    value.

    ``f`` is called once, on the 1-D float array of every quadrature point
    of every interval, and returns one value per point: a float array with
    the points along its first axis (rows of fixed length are integrated
    componentwise), a dual scalar with such components, or a constant.
    Empty intervals integrate to 0 without a call.
    """
    a_arr, b_arr = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not np.all(a_arr <= b_arr):
        raise ValueError(f"integrate needs a <= b, got [{a}, {b}]")
    shape = a_arr.shape
    a_arr, b_arr = a_arr.ravel(), b_arr.ravel()
    live = a_arr < b_arr
    if not live.any():
        return np.zeros(shape) if shape else 0.0
    a_l, b_l = a_arr[live], b_arr[live]
    n = np.maximum(MIN_QUAD_PANELS, np.ceil((b_l - a_l) * QUAD_PANELS_PER_UNIT)).astype(int)
    n += n % 2
    h = (b_l - a_l) / n
    ends = np.cumsum(n + 1)
    starts = ends - (n + 1)
    k = np.arange(ends[-1]) - np.repeat(starts, n + 1)  # point index within its interval
    points = np.repeat(a_l, n + 1) + k * np.repeat(h, n + 1)
    points[ends - 1] = b_l
    weights = np.where(k % 2, 4.0, 2.0)
    weights[starts] = 1.0
    weights[ends - 1] = 1.0
    with at_points(points):
        values = f(points)

    def fold(v):
        v = _finite_values(v, points)
        tail = (1,) * (v.ndim - 1)
        # np.add.reduceat, not a matrix product: the sum needs no BLAS
        sums = np.add.reduceat(weights.reshape((-1,) + tail) * v, starts, axis=0)
        out = np.zeros((len(a_arr),) + v.shape[1:])
        out[live] = sums * (h / 3.0).reshape((-1,) + tail)
        return out.reshape(shape + v.shape[1:])[()]

    return _leafwise(fold, values)


def cumulative_integrate(f, grid: np.ndarray, nodes) -> np.ndarray:
    """Antiderivative values F(grid[i]) - F(grid[0]) on an increasing grid.

    ``nodes`` holds f at every grid point, so ``f`` itself is called only at
    the Simpson midpoints, one per interval, which makes each panel exact
    through cubics; it is called once, on the array of all midpoints, and
    returns one value per midpoint (see :func:`integrate`).  Values may be
    floats or fixed-length float arrays, integrated componentwise (the
    result then has one row per node).
    """
    grid = np.asarray(grid, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    if len(grid) < 2:
        return np.zeros_like(nodes)
    h = np.diff(grid).reshape((-1,) + (1,) * (nodes.ndim - 1))
    points = 0.5 * (grid[:-1] + grid[1:])
    with at_points(points):
        mids = np.broadcast_to(_finite_values(f(points), points), nodes[1:].shape)
    pieces = h / 6.0 * (nodes[:-1] + 4.0 * mids + nodes[1:])
    if not np.all(np.isfinite(pieces)):
        raise NonFinite("non-finite value in cumulative_integrate")
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
    """Max deviation from Lorentz-orthonormality with the given signature.

    Elementwise for frames whose components are arrays.
    """
    terms = (
        abs(lorentz_dot(e, e) - signs[0]),
        abs(lorentz_dot(t, t) - signs[1]),
        abs(lorentz_dot(g, g) - signs[2]),
        abs(lorentz_dot(e, t)),
        abs(lorentz_dot(e, g)),
        abs(lorentz_dot(t, g)),
    )
    if any(isinstance(x, np.ndarray) for x in terms):
        return np.maximum.reduce(np.broadcast_arrays(*terms))
    return max(terms)


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
