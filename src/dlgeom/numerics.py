"""Shared numerical services: quadrature, curve differentiation, frame checks.

Derivatives default to dual-scalar forward differentiation: a curve closure
is evaluated at ``u + eps`` and the dual slot is read back, so catalog
closed forms differentiate to roundoff.  Central finite differences, at the
fixed step ``FD_STEP``, are the other derivative mode: the measurements
(:func:`dlgeom.ruled.darboux_frame`, :func:`dlgeom.ruled.timelike_invariants`
and :func:`dlgeom.mannheim.verify_offset`) take ``deriv=CENTRAL_FD`` as an
independent cross-check, and the mode selects nothing else.
Quadrature is composite Simpson throughout.  The frame ODE is integrated at
a fixed ``ODE_STEPS_PER_UNIT``: reconstruction runs it as one batched Magnus
flow (see :func:`dlgeom.ruled.reconstruct_from_invariants`) and projects all
its node frames at once with :func:`lorentz_gram_schmidt`, which works
elementwise on arrays as :func:`frame_residual` does; :func:`rk4_frame_step`
is an independent classical integrator kept as the tests' reference.

Integrands are evaluated over arrays, once per point.  :func:`simpson_rule`
lays out the quadrature points of one or many intervals and folds one value
per point into the integrals, so a caller can evaluate those points together
with others in a single pass; :func:`integrate` is that layout plus one call
of its integrand on the whole array.  :func:`cumulative_integrate` takes the
values at the grid nodes and at the grid's :func:`simpson_midpoints` from its
caller.
Closures evaluated on such arrays run inside :func:`at_points`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import dual
from .dual import DualScalar
from .errors import GeometryError, NonFinite, StepSizeError
from .lorentz import Vec3L, lorentz_cross, lorentz_dot

QUAD_PANELS_PER_UNIT = 256
MIN_QUAD_PANELS = 2
ODE_STEPS_PER_UNIT = 1000

#: largest orthonormality drift of a raw integrated frame, before projection
DRIFT_TOL = 1e-6

DUAL_AD = "dual-ad"
CENTRAL_FD = "central-fd"

#: step of the central differences of the central-fd mode
FD_STEP = 1e-4


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


def simpson_rule(a, b):
    """Points and fold of the composite Simpson rule over [a, b].

    Exact through cubics.  Each interval gets ``QUAD_PANELS_PER_UNIT``
    panels per unit length, at least ``MIN_QUAD_PANELS``, rounded up to an
    even count.  ``a`` and ``b`` may be equal-shape arrays, one interval per
    element.  Returns ``(points, fold)``: ``points`` is the 1-D float array
    of every quadrature point of every interval, in increasing order within
    each interval, and ``fold(values)`` turns one value per point into the
    integrals, with the shape of ``a`` followed by the shape of one value.
    A value is a float array with the points along its first axis (rows of
    fixed length are integrated componentwise), a dual scalar with such
    components, or a constant; a non-finite one raises NonFinite naming its
    point.  Empty intervals get no points and integrate to 0.
    """
    a_arr, b_arr = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not np.all(a_arr <= b_arr):
        raise ValueError(f"integrate needs a <= b, got [{a}, {b}]")
    shape = a_arr.shape
    a_arr, b_arr = a_arr.ravel(), b_arr.ravel()
    live = a_arr < b_arr
    if not live.any():
        return np.zeros(0), lambda values: np.zeros(shape) if shape else 0.0
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

    def fold_leaf(v):
        v = _finite_values(v, points)
        tail = (1,) * (v.ndim - 1)
        # np.add.reduceat, not a matrix product: the sum needs no BLAS
        sums = np.add.reduceat(weights.reshape((-1,) + tail) * v, starts, axis=0)
        out = np.zeros((len(a_arr),) + v.shape[1:])
        out[live] = sums * (h / 3.0).reshape((-1,) + tail)
        return out.reshape(shape + v.shape[1:])[()]

    return points, lambda values: _leafwise(fold_leaf, values)


def integrate(f, a, b):
    """Definite integral of ``f`` over [a, b] by the composite Simpson rule.

    The points and the fold are those of :func:`simpson_rule`: ``f`` is
    called once, on the 1-D float array of every quadrature point of every
    interval, and returns one value per point.  Empty intervals integrate
    to 0 without a call.
    """
    points, fold = simpson_rule(a, b)
    if not len(points):
        return fold(None)
    with at_points(points):
        values = f(points)
    return fold(values)


def simpson_midpoints(grid: np.ndarray) -> np.ndarray:
    """The midpoint of each interval of a grid, where :func:`cumulative_integrate` needs f."""
    return 0.5 * (grid[:-1] + grid[1:])


def cumulative_integrate(grid: np.ndarray, nodes, mids) -> np.ndarray:
    """Antiderivative values F(grid[i]) - F(grid[0]) on an increasing grid.

    ``nodes`` holds f at every grid point and ``mids`` f at its
    :func:`simpson_midpoints`, one per interval, which makes each panel
    exact through cubics.  Values may be floats or fixed-length
    float arrays, integrated componentwise (the result then has one row per
    node); a non-finite midpoint value raises NonFinite naming its point.
    """
    grid = np.asarray(grid, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    if len(grid) < 2:
        return np.zeros_like(nodes)
    h = np.diff(grid).reshape((-1,) + (1,) * (nodes.ndim - 1))
    mids = np.broadcast_to(_finite_values(mids, simpson_midpoints(grid)), nodes[1:].shape)
    pieces = h / 6.0 * (nodes[:-1] + 4.0 * mids + nodes[1:])
    if not np.all(np.isfinite(pieces)):
        raise NonFinite("non-finite value in cumulative_integrate")
    return np.concatenate([np.zeros_like(nodes[:1]), np.cumsum(pieces, axis=0)])


def value_and_derivative(curve, u):
    """Curve value and exact derivative from a single dual evaluation.

    One pass through the closure carries both slots, which matters in the
    nested inner loops; ``u`` may itself be dual.
    """
    v = curve(DualScalar(u, 1.0))
    return v.re, v.du


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


def _require_character(ok, message: str) -> None:
    """StepSizeError unless ``ok`` holds everywhere, carrying the first failing index."""
    if not np.all(ok):
        raise StepSizeError(message, index=int(np.argmin(ok)) if np.ndim(ok) else None)


def lorentz_gram_schmidt(e: Vec3L, t: Vec3L, g: Vec3L):
    """Re-orthonormalize in the order t, e, g for signature (+, -, +).

    t is normalized timelike, e is projected off t and normalized
    spacelike, and g is completed as -e x t (the frame's own definition,
    which also pins the orientation).  Elementwise for frames whose
    components are arrays; a lost causal character raises StepSizeError
    with the index of the first such frame.
    """
    qt = lorentz_dot(t, t)
    _require_character(qt < 0.0, "tangent lost its timelike character")
    t = t / dual.sqrt(-qt)
    e = e + lorentz_dot(e, t) * t
    qe = lorentz_dot(e, e)
    _require_character(qe > 0.0, "ruling lost its spacelike character")
    e = e / dual.sqrt(qe)
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
