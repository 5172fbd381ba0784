"""Shared numerical services: quadrature, curve differentiation, frame checks.

Derivatives default to dual-scalar forward differentiation: a curve closure
is evaluated at ``u + eps`` and the dual slot is read back, so catalog
closed forms differentiate to roundoff.  Central finite differences, at the
fixed step ``FD_STEP``, are the other derivative mode, a cross-check of a
user's closures: the frame measurements (:func:`dlgeom.ruled.darboux_frame`
and :func:`dlgeom.ruled.timelike_invariants`) take ``deriv=CENTRAL_FD``, and
the Mannheim check (:func:`dlgeom.mannheim.verify_offset`) measures in
dual-AD only.  The mode evaluates the exact nodes at u +- FD_STEP in the
same pass as those at u, and replaces c' (in delta and Delta) and e'' (in
gamma) by the central differences of c and e' there; everything else is
read off the nodes at u, as in dual-AD.
Quadrature is signed: from b down to a it gives minus the integral from a
to b.  :func:`integrate` and :func:`cumulative_integrate` are composite
Simpson; measurement and reconstruction sum values and slopes at their
nodes by :func:`hermite_cumulative`.  The frame ODE is integrated at
``ODE_STEPS_PER_UNIT`` or slightly more steps per unit: reconstruction runs
it as one batched Magnus flow (see
:func:`dlgeom.ruled.reconstruct_from_invariants`) and projects all its node
frames at once by :func:`_project_frames`, two Newton steps on their Gram
matrices.  :func:`rk4_frame_step` is one classical RK4 step of the same
system, for single frames, projected by the same helper; the pipeline does
not call it, and the tests check the flow against scipy's DOP853, not
against it.

Integrands are evaluated over arrays, once per point: :func:`integrate`
calls its integrand once, on every quadrature point of every interval, and
:func:`cumulative_integrate` takes the values at the grid nodes and at its
:func:`simpson_midpoints` from its caller.  Closures evaluated on such arrays
run inside :func:`at_points`.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .dual import _leafwise
from .errors import GeometryError, NonFinite, StepSizeError
from .lorentz import Vec3L, lorentz_dot

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
    """Signed definite integral of ``f`` from a to b by the composite Simpson rule.

    Exact through cubics.  Each interval gets ``QUAD_PANELS_PER_UNIT``
    panels per unit length, at least ``MIN_QUAD_PANELS``, rounded up to an
    even count.  ``a`` and ``b`` may be equal-shape arrays, one interval per
    element, and the integrals then have the shape of ``a`` followed by the
    shape of one value; ``integrate(f, b, a)`` is ``-integrate(f, a, b)``,
    bit for bit.  ``f`` is called once, on the 1-D float array of every
    quadrature point of every interval (in increasing order within each
    interval), and returns one value per point: a float array with the
    points along its first axis (rows of fixed length are integrated
    componentwise), a dual scalar with such components, or a constant; a
    non-finite one raises NonFinite naming its point.  Empty intervals
    integrate to 0 without a call.
    """
    a_arr, b_arr = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = a_arr.shape
    a_arr, b_arr = a_arr.ravel(), b_arr.ravel()
    lo, hi = np.minimum(a_arr, b_arr), np.maximum(a_arr, b_arr)
    live = lo < hi
    if not live.any():
        return np.zeros(shape) if shape else 0.0
    a_l, b_l = lo[live], hi[live]
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
    # -h, exactly negated, folds a reversed interval
    scale = np.where(a_arr[live] > b_arr[live], -h, h) / 3.0

    def fold_leaf(v):
        v = _finite_values(v, points)
        tail = (1,) * (v.ndim - 1)
        # np.add.reduceat, not a matrix product: the sum needs no BLAS
        sums = np.add.reduceat(weights.reshape((-1,) + tail) * v, starts, axis=0)
        out = np.zeros((len(a_arr),) + v.shape[1:])
        out[live] = sums * scale.reshape((-1,) + tail)
        return out.reshape(shape + v.shape[1:])[()]

    with at_points(points):
        values = f(points)
    return _leafwise(fold_leaf, values)


def simpson_midpoints(grid: np.ndarray) -> np.ndarray:
    """The midpoint of each interval of a grid, where :func:`cumulative_integrate` needs f."""
    return 0.5 * (grid[:-1] + grid[1:])


def cumulative_integrate(grid: np.ndarray, nodes, mids) -> np.ndarray:
    """Antiderivative values F(grid[i]) - F(grid[0]) on an increasing grid.

    ``nodes`` holds f at every grid point and ``mids`` f at its
    :func:`simpson_midpoints`, one per interval, which makes each panel
    exact through cubics.  Values may be floats or fixed-length
    float arrays, integrated componentwise (the result then has one row per
    node).  A non-finite node or midpoint value, or an overflowing integral,
    raises NonFinite naming its point.
    """
    grid = np.asarray(grid, dtype=float)
    nodes = _finite_values(nodes, grid)
    if len(grid) < 2:
        return np.zeros_like(nodes)
    h = np.diff(grid).reshape((-1,) + (1,) * (nodes.ndim - 1))
    mids = np.broadcast_to(_finite_values(mids, simpson_midpoints(grid)), nodes[1:].shape)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.cumsum(h / 6.0 * (nodes[:-1] + 4.0 * mids + nodes[1:]), axis=0)
    bad = ~np.isfinite(sums.reshape(len(sums), -1)).all(axis=1)
    if bad.any():
        raise NonFinite(f"cumulative integral overflows at u={float(grid[1 + np.argmax(bad)])!r}")
    return np.concatenate([np.zeros_like(nodes[:1]), sums])


def hermite_cumulative(x: np.ndarray, values, slopes) -> np.ndarray:
    """F(x[i]) - F(x[0]) from f and f' at the nodes ``x``, along the last axis.

    ``values`` and ``slopes`` hold one row per component and one column per
    node, and so does the result.  End-corrected trapezoid steps
    h/2*(f0 + f1) + h^2/12*(f0' - f1'), exact for cubics; h is signed, so nodes
    may run down, then up.  Callers check finiteness.
    """
    h = np.diff(x)
    steps = (0.5 * h * (values[..., :-1] + values[..., 1:])
             + h * h / 12.0 * (slopes[..., :-1] - slopes[..., 1:]))
    out = np.empty(np.shape(values))
    out[..., 0] = 0.0
    np.cumsum(steps, axis=-1, out=out[..., 1:])
    return out


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
    return functools.reduce(np.maximum, terms)


#: Gram matrix of an orthonormal frame [e t g]
_SIGNATURE = np.diag([1.0, -1.0, 1.0])

#: half the signature as a column: scales the rows of a Gram matrix for the Newton step
_HALF_SIGNATURE = 0.5 * np.diag(_SIGNATURE)[:, None]

#: the metric diag(-1, 1, 1) as a column, which scales the rows of a frame matrix
_METRIC = np.array([[-1.0], [1.0], [1.0]])


def _gram(frames: np.ndarray) -> np.ndarray:
    """Gram matrices <F_j, F_k> of a stack of frames F = [e t g] as columns.

    Their largest distance from ``_SIGNATURE`` is what :func:`frame_residual`
    measures.
    """
    return frames.transpose(0, 2, 1) @ (_METRIC * frames)


def _project_frames(frames: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """A stack of frames [e t g] (as columns) projected onto signature (+, -, +).

    Two Newton steps F <- F*(1.5*I - S*G/2) toward the frame group, S the
    signature and G the Gram matrices (the first step's are ``gram``): the
    Newton-Schulz iteration for the polar factor, which carries over to
    Lorentz-orthogonal matrices.  Each step squares the drift, so a frame
    within ``DRIFT_TOL`` comes out orthonormal to roundoff; it keeps its
    orientation, being a small correction.  The signature is diagonal, so
    its product with G scales G's rows.  Each frame gets the same bits alone
    as in any stack.
    """
    frames = frames @ (1.5 * np.eye(3) - _HALF_SIGNATURE * gram)
    return frames @ (1.5 * np.eye(3) - _HALF_SIGNATURE * _gram(frames))


def rk4_frame_step(state: FrameState, s: float, h: float,
                   gamma, delta, Delta) -> FrameState:
    """One classical RK4 step of the frame system

        e' = t,  t' = e + gamma*g,  g' = gamma*t,  c' = delta*e + Delta*g,

    followed by the frame projection :func:`_project_frames`.  Raises
    StepSizeError if the raw step drifts from orthonormality by more than
    ``DRIFT_TOL``; a NaN drift, from Gram entries that overflow, fails too.
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

    frame = np.array([tuple(e), tuple(t), tuple(g)]).T[None]
    gram = _gram(frame)
    drift = np.abs(gram - _SIGNATURE).max()
    if not drift <= DRIFT_TOL:
        raise StepSizeError(f"frame drift {drift:.3e} exceeds {DRIFT_TOL:.1e} at s={s}")
    e, t, g = (Vec3L.from_checked(*col) for col in _project_frames(frame, gram)[0].T.tolist())
    return FrameState(e, t, g, c)
