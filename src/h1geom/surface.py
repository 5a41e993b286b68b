"""Parametric surface patches and the adapted frame (f1, f2, f3, alpha, A).

At a non-characteristic point of a surface S the horizontal plane meets
the tangent plane in a line.  f2 is a unit horizontal vector spanning
that line, f1 = cos(alpha) e1 + sin(alpha) e2 is the horizontal normal
(f2 = -sin(alpha) e1 + cos(alpha) e2), and f3 = e3 + A*f1 completes a
basis of the tangent plane.  The tilt scalar A is fixed by requiring
the conormal f^1 = cos(alpha) e^1 + sin(alpha) e^2 - A e^3 to kill TS.

Sign rule for f2: among the two unit choices, take the one making the
change of basis from (f2, f3) to the coordinate tangents (f_u, f_v)
positive, so the area density f^2^f^3(f_u, f_v) is positive; the patch
orientation, 1 or -1, flips this globally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import expr as _expr
from .batch import elementwise
from .expr import Dual2
from .errors import CharacteristicPointError, DegenerateParametrizationError
from .hgroup import FrameVec, Point, e3_coefficient, require_finite

__all__ = [
    "SurfacePatch",
    "AdaptedFrameSample",
    "FrameDerivatives",
    "pushforward_frame",
    "tangent_coefficients",
    "characteristic_test",
    "adapted_frame",
    "frame_derivatives",
    "frame_data",
    "frame_tangents",
    "structure_identity_residual",
    "beta",
    "xl_basis",
    "graph_patch",
    "parametric_patch",
]

CHARACTERISTIC_TOL = 1e-10


@dataclass(frozen=True)
class SurfacePatch:
    """Immutable chart (u, v) -> H^1 with exact first and second partials.

    jet2(u, v) returns the position and the coordinate partials f_u, f_v as
    three 3-tuples of first-order duals in (u, v); jet(u, v) their values.
    Both also take one-dimensional arrays of u and v, a batch of points;
    parts that do not vary over the batch may stay floats.
    """

    jet2: Callable[[float, float], tuple]
    u_range: tuple[float, float]
    v_range: tuple[float, float]
    orientation: int = 1
    closed_u: bool = False
    name: str = "patch"

    def __post_init__(self):
        if isinstance(self.orientation, bool) or self.orientation not in (1, -1):
            raise ValueError(f"surface orientation must be 1 or -1, got {self.orientation!r}")

    def jet(self, u: float, v: float) -> list[tuple[float, float, float]]:
        """Position and coordinate partials as three float triples."""
        return [(x.value, y.value, z.value) for x, y, z in self.jet2(u, v)]

    def position(self, u: float, v: float) -> Point:
        return Point(*(c.value for c in self.jet2(u, v)[0]))

    def contains(self, u: float, v: float) -> bool:
        """True iff (u, v) lies in the chart; a chart closed in u takes any u."""
        return (
            self.closed_u or self.u_range[0] <= u <= self.u_range[1]
        ) and self.v_range[0] <= v <= self.v_range[1]

    def with_orientation(self, sign: int) -> "SurfacePatch":
        return replace(self, orientation=sign)


@dataclass(frozen=True)
class AdaptedFrameSample:
    """Adapted frame data at one surface point.

    f2_uv and f3_uv express f2 and f3 as parameter-space directions
    (coefficients on d/du, d/dv); f_u_23 and f_v_23 are the inverse, the
    (f^2, f^3) coefficients of the coordinate tangents; area_density is
    f^2^f^3(f_u, f_v).

    For a batch of points (frame_data over arrays) the fields are arrays,
    and point, f1, f2 and f3 are (x, y, z) and (c1, c2, c3) triples of
    arrays instead of a Point and FrameVecs, which hold one point each.
    """

    point: Point
    alpha: float
    A: float
    f1: FrameVec
    f2: FrameVec
    f3: FrameVec
    f2_uv: tuple[float, float]
    f3_uv: tuple[float, float]
    f_u_23: tuple[float, float]
    f_v_23: tuple[float, float]
    area_density: float


@dataclass(frozen=True)
class FrameDerivatives:
    """Directional derivatives of A and alpha along f2 and f3."""

    dA_f2: float
    dA_f3: float
    dalpha_f2: float
    dalpha_f3: float


def structure_identity_residual(fd: FrameDerivatives, A: float) -> float:
    """Residual of the structural identity dalpha(f3) + dA(f2) + A^2 = 0."""
    return fd.dalpha_f3 + fd.dA_f2 + A * A


def pushforward_frame(S: SurfacePatch, u: float, v: float) -> tuple[FrameVec, FrameVec]:
    """Coordinate tangents f_u, f_v expressed on the left-invariant frame."""
    pos, du, dv = S.jet(u, v)
    p = Point(*pos)
    return FrameVec.from_coordinates(p, du), FrameVec.from_coordinates(p, dv)


def tangent_coefficients(S: SurfacePatch, u, v):
    """pushforward_frame over a batch: the frame coefficient triples of f_u, f_v.

    Raises the ValueError that pushforward_frame raises for a non-finite
    position or tangent, if it does so at any point of the batch.
    """
    with np.errstate(all="ignore"):
        pos, du, dv = S.jet(u, v)
        f_u = (du[0], du[1], e3_coefficient(pos[0], pos[1], *du))
        f_v = (dv[0], dv[1], e3_coefficient(pos[0], pos[1], *dv))
    require_finite(pos, (f_u, f_v))
    return f_u, f_v


def _characteristic(f_u, f_v, tol, batch):
    """The characteristic test on coefficient triples, and its scale.

    scale is Python's max of the six |coefficients|; on a batch it is taken
    point by point with the same rule (a NaN counts only in first place).
    """
    coefficients = [abs(c) for c in (*f_u, *f_v)]
    if batch:
        scale = coefficients[0]
        for c in coefficients[1:]:
            scale = np.where(c > scale, c, scale)
    else:
        scale = max(coefficients)
    return (coefficients[2] <= tol * scale) & (coefficients[5] <= tol * scale), scale


def characteristic_test(f_u, f_v, tol: float = CHARACTERISTIC_TOL):
    """True iff both tangents are horizontal to tolerance (tangent plane = D).

    f_u and f_v are FrameVecs, or coefficient triples over a batch
    (tangent_coefficients), on which the test is a mask.
    """
    if isinstance(f_u, FrameVec):
        return _characteristic((f_u.c1, f_u.c2, f_u.c3), (f_v.c1, f_v.c2, f_v.c3), tol, False)[0]
    return _characteristic(f_u, f_v, tol, True)[0]


# The frame core runs over first-order duals in (u, v), whose partials are
# exact derivatives of A, alpha and the tangent coefficients.  Their parts
# are floats at one point and arrays over a batch of points; values follow
# the same IEEE operations either way.


def _hypot(a, b):
    av, bv = a.value, b.value
    norm = elementwise(math.hypot, av, bv)
    # a zero norm gives infinite partials; _frame then refuses the point
    return Dual2(
        norm,
        _expr.ieee_div(av * a.d_u + bv * b.d_u, norm),
        _expr.ieee_div(av * a.d_v + bv * b.d_v, norm),
    )


def _atan2(y, x):
    xv, yv = x.value, y.value
    angle = elementwise(math.atan2, yv, xv)
    r2 = xv * xv + yv * yv
    return Dual2(angle, (xv * y.d_u - yv * x.d_u) / r2, (xv * y.d_v - yv * x.d_v) / r2)


def _nan_where(mask, x):
    """x with NaN at the masked points of a batch, in every Dual2 part."""
    if type(x) is Dual2:
        return Dual2(_nan_where(mask, x.value), _nan_where(mask, x.d_u), _nan_where(mask, x.d_v))
    return np.where(mask, math.nan, x)


def _frame(S: SurfacePatch, u, v, pos, du, dv, tol):
    """Adapted frame from the jet (pos, du, dv), three 3-tuples of duals.

    Returns (sample, A, alpha, singular, tangents), tangents being the duals
    ((p1, q1), (p2, q2)) of the (f^2, f^3) coefficients of f_u and f_v.  At
    one point a characteristic or degenerate point raises and singular is
    False; on a batch singular marks those points, whose values are undefined.
    """
    batch = isinstance(u, np.ndarray)
    # frame coefficients of f_u and f_v; c3 is e^3 applied to the tangent
    f_u = (du[0], du[1], e3_coefficient(pos[0], pos[1], *du))
    f_v = (dv[0], dv[1], e3_coefficient(pos[0], pos[1], *dv))
    characteristic, scale = _characteristic([c.value for c in f_u], [c.value for c in f_v], tol, batch)
    if not batch and characteristic:
        raise CharacteristicPointError(
            f"characteristic point of {S.name!r} at (u, v) = ({u!r}, {v!r})"
        )

    # D n TS direction: the combination with vanishing third frame coefficient.
    q1, q2 = f_u[2], f_v[2]
    w1 = q2 * f_u[0] - q1 * f_v[0]
    w2 = q2 * f_u[1] - q1 * f_v[1]
    norm = _hypot(w1, w2)
    dependent = norm.value <= 1e-14 * scale * scale
    if not batch and dependent:
        raise DegenerateParametrizationError(
            f"dependent coordinate tangents of {S.name!r} at (u, v) = ({u!r}, {v!r})"
        )
    if batch:
        # one point stops here; NaN keeps these points from raising below (in pow)
        stop = characteristic | dependent
        q1, q2 = _nan_where(stop, q1), _nan_where(stop, q2)
    f2h = (w1 / norm, w2 / norm)
    f1h = (f2h[1], -f2h[0])

    # A from least squares on f^1(f_u) = f^1(f_v) = 0.
    h1 = f_u[0] * f1h[0] + f_u[1] * f1h[1]
    h2 = f_v[0] * f1h[0] + f_v[1] * f1h[1]
    A = (h1 * q1 + h2 * q2) / (q1 ** 2 + q2 ** 2)  # a batch comes as Dual2s, whose ** maps libm pow

    p1 = f_u[0] * f2h[0] + f_u[1] * f2h[1]
    p2 = f_v[0] * f2h[0] + f_v[1] * f2h[1]
    # det = w . f2h = |w| > 0: this f2 makes the change of basis positive
    det = p1 * q2 - p2 * q1
    degenerate = det.value <= 1e-14 * scale * scale
    if not batch and degenerate:
        raise DegenerateParametrizationError(
            f"vanishing change-of-basis determinant of {S.name!r} at ({u!r}, {v!r})"
        )
    if S.orientation < 0:
        f2h, f1h = (-f2h[0], -f2h[1]), (-f1h[0], -f1h[1])
        A, p1, p2, det = -A, -p1, -p2, -det
    alpha = _atan2(-f2h[0], f2h[1])

    tangents = (p1, q1), (p2, q2)
    p1, p2, q1, q2, det, a, c, s = (x.value for x in (p1, p2, q1, q2, det, A, *f1h))
    if batch:
        singular = np.broadcast_to(characteristic | dependent | degenerate, u.shape)
        point = tuple(x.value for x in pos)
        f1, f2, f3 = (c, s, 0.0), (-s, c, 0.0), (a * c, a * s, 1.0)
        require_finite(point, (f1, f2, f3), where=~singular)
    else:
        singular = False
        point = Point(*(x.value for x in pos))
        # f2h = (-f1h[1], f1h[0]) exactly
        f1, f2, f3 = FrameVec(point, c, s, 0.0), FrameVec(point, -s, c, 0.0), FrameVec(point, a * c, a * s, 1.0)
    sample = AdaptedFrameSample(
        point=point,
        alpha=alpha.value,
        A=a,
        f1=f1,
        f2=f2,
        f3=f3,
        f2_uv=(q2 / det, -q1 / det),
        f3_uv=(-p2 / det, p1 / det),
        f_u_23=(p1, q1),
        f_v_23=(p2, q2),
        area_density=det,
    )
    return sample, A, alpha, singular, tangents


def adapted_frame(
    S: SurfacePatch, u: float, v: float, tol: float = CHARACTERISTIC_TOL
) -> AdaptedFrameSample:
    """The adapted frame at one point: the sample of frame_data."""
    return frame_data(S, u, v, tol)[0]


def frame_data(S: SurfacePatch, u, v, tol: float = CHARACTERISTIC_TOL):
    """The adapted frame and the exact derivatives of A and alpha along f2, f3.

    One evaluation of the second-order jet; the frame arithmetic over its
    first-order duals gives exact gradients of A and alpha in (u, v).

    u and v may be one-dimensional arrays, a batch of points: the result is
    then (sample, derivatives, singular) with array fields, where singular
    marks the characteristic and degenerate points, at which one point
    raises.  A failure that one point raises otherwise (a domain error of
    the chart, a non-finite position or frame) raises for the batch if it
    occurs at any of its points; ``batch.first_failure`` finds the first.
    Every value equals the one-point result bit for bit.
    """
    if isinstance(u, np.ndarray):
        with np.errstate(all="ignore"):
            return _frame_data(S, u, v, tol)[:3]
    return _frame_data(S, u, v, tol)[:2]


def frame_tangents(S: SurfacePatch, u, v, tol: float = CHARACTERISTIC_TOL):
    """frame_data and the (f^2, f^3) coefficients of f_u and f_v as duals in (u, v).

    Returns (sample, derivatives, ((p1, q1), (p2, q2))), the duals' partials
    exact.  On a batch (arrays u, v) a characteristic or degenerate point
    raises what it raises alone.
    """
    with np.errstate(all="ignore"):
        sample, derivatives, singular, tangents = _frame_data(S, u, v, tol)
    if np.any(singular):
        k = np.flatnonzero(singular)[0]
        _frame_data(S, float(u[k]), float(v[k]), tol)  # raises at that point
    return sample, derivatives, tangents


def _frame_data(S, u, v, tol):
    sample, A, alpha, singular, tangents = _frame(S, u, v, *S.jet2(u, v), tol)
    s2, s3 = sample.f2_uv, sample.f3_uv
    derivatives = FrameDerivatives(
        dA_f2=s2[0] * A.d_u + s2[1] * A.d_v,
        dA_f3=s3[0] * A.d_u + s3[1] * A.d_v,
        dalpha_f2=s2[0] * alpha.d_u + s2[1] * alpha.d_v,
        dalpha_f3=s3[0] * alpha.d_u + s3[1] * alpha.d_v,
    )
    return sample, derivatives, singular, tangents


def frame_derivatives(
    S: SurfacePatch, u: float, v: float, tol: float = CHARACTERISTIC_TOL
) -> FrameDerivatives:
    """Directional derivatives of A and alpha along f2 and f3."""
    return frame_data(S, u, v, tol)[1]


def beta(L, A: float) -> float:
    """Tilt angle of the g_L normal: cos(beta) = sqrt(L)/sqrt(L+A^2)."""
    return math.atan2(A, math.sqrt(float(L)))


def xl_basis(sample: AdaptedFrameSample, L) -> tuple[FrameVec, FrameVec, FrameVec]:
    """g_L-orthonormal triple (X1, X2, X3): normal, then a tangent basis."""
    Lf = float(L)
    A = sample.A
    root = math.sqrt(Lf + A * A)
    cos_b = math.sqrt(Lf) / root
    sin_b = A / root
    p = sample.point
    ca, sa = math.cos(sample.alpha), math.sin(sample.alpha)
    # e3^L = e3/sqrt(L), so its raw third coefficient is 1/sqrt(L)
    x1 = FrameVec(p, cos_b * ca, cos_b * sa, -sin_b / math.sqrt(Lf))
    x2 = sample.f2
    x3 = FrameVec(p, sample.f3.c1 / root, sample.f3.c2 / root, sample.f3.c3 / root)
    return x1, x2, x3


# ---------------------------------------------------------------------------
# Expression-backed patches


def _as_expr(e) -> _expr.Expr:
    return _expr.parse(e) if isinstance(e, str) else e


def _split(d: Dual2) -> tuple[Dual2, Dual2, Dual2]:
    """A nested dual as first-order duals of f, f_u and f_v.

    The values come from the inner first-order part, so they are the
    first-order jet bit for bit.
    """
    f = d.value
    return f, Dual2(f.d_u, d.d_u.d_u, d.d_u.d_v), Dual2(f.d_v, d.d_v.d_u, d.d_v.d_v)


def graph_patch(h, u_range=(-2.0, 2.0), v_range=(-2.0, 2.0), name=None, orientation=1):
    """Patch (u, v) -> (u, v, h(u, v)) for an expression or AST h."""
    tree = _as_expr(h)

    def jet2(u, v):
        z, z_u, z_v = _split(_expr.eval_hyperdual(tree, u, v))
        pos = (Dual2(_expr.as_coordinate(u), 1.0, 0.0), Dual2(_expr.as_coordinate(v), 0.0, 1.0), z)
        return pos, (Dual2(1.0), Dual2(0.0), z_u), (Dual2(0.0), Dual2(1.0), z_v)

    label = name or f"graph({_expr.pretty(tree)})"
    return SurfacePatch(jet2, tuple(u_range), tuple(v_range), orientation, False, label)


def parametric_patch(x, y, z, u_range, v_range, name=None, orientation=1, closed_u=False):
    """Patch from three coordinate expressions in u and v."""
    trees = tuple(_as_expr(e) for e in (x, y, z))

    def jet2(u, v):
        parts = [_split(_expr.eval_hyperdual(t, u, v)) for t in trees]
        return tuple(zip(*parts))

    label = name or "parametric"
    return SurfacePatch(jet2, tuple(u_range), tuple(v_range), orientation, closed_u, label)
