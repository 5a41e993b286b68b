"""Numerical verification of the limit Gauss-Bonnet identity.

For a region R with transverse boundary gamma inside a non-characteristic
chart, the limit curvature and limit normal curvature satisfy

    int_R K_inf dsigma + oint_gamma k_n ds = 0,

which is Stokes applied to d(A f^3) = (dA(f2) + A^2) f^2 ^ f^3 together
with k_n ds = A f^3 and K_inf dsigma = -d(A f^3).  Both sides pull back
through the chart: dsigma(f_u, f_v) is the adapted-frame change-of-basis
determinant rho, and f^3(gamma') is the b-component of the boundary
tangent.  Each side is a Gauss-Kronrod cubature of a density over the
frame data at its nodes, and one lockstep cubature (_sides) runs both:
each round evaluates the frame once over the nodes of both sides.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, is_dataclass
from typing import Optional, Sequence

import numpy as np

from .batch import elementwise, first_failure
from .curvature import _transverse, _turn, ds_L_density, k_L, k_inf, k_n, k_n_L
from .errors import CharacteristicPointError, NonTransverseError
from .expr import Dual2, _take
from .hgroup import _as_L
from .quadrature import cubature, gauss_segments
from .surface import SurfacePatch, characteristic_test, frame_tangents, pushforward_frame

__all__ = [
    "ParamRegion",
    "GBReport",
    "gb_residual",
    "stokes_density_check",
    "convergence_study",
    "PointConvergence",
    "RegionConvergence",
    "fit_loglog_slope",
]

TRANSVERSALITY_TOL = 1e-10
AREA_TOL = 1e-9  # cubature tolerance of gb_residual's area side
BOUNDARY_TOL = 1e-10  # and of its boundary side
REGION_TOL = 1e-7  # cubature tolerance of each side of _region_convergence
REGION_SCAN = 21  # _check_region tests a REGION_SCAN^2 grid of the region
BOUNDARY_SCAN = 33  # and this many points per boundary piece


@dataclass(frozen=True)
class ParamRegion:
    """Axis-aligned parameter rectangle, optionally closed in u.

    For closed_u regions u spans a full period and the boundary reduces to
    the two v = const circles with opposite orientations; the chart must be
    closed in u and the region span its u_range (_check_region).
    orientation is 1 or -1; -1 integrates over the oppositely oriented chain.
    """

    u0: float
    u1: float
    v0: float
    v1: float
    closed_u: bool = False
    orientation: int = 1

    def __post_init__(self):
        if not (self.u0 <= self.u1 and self.v0 <= self.v1):
            raise ValueError("region bounds must be ordered")
        if isinstance(self.orientation, bool) or self.orientation not in (1, -1):
            raise ValueError(f"region orientation must be 1 or -1, got {self.orientation!r}")

    def is_empty(self) -> bool:
        return self.u0 == self.u1 or self.v0 == self.v1


def _segments(R: ParamRegion):
    """Oriented boundary pieces as (start point, direction, length) triples."""
    du, dv = R.u1 - R.u0, R.v1 - R.v0
    if R.closed_u:
        pieces = [
            ((R.u0, R.v0), (1.0, 0.0), du),
            ((R.u1, R.v1), (-1.0, 0.0), du),
        ]
    else:
        pieces = [
            ((R.u0, R.v0), (1.0, 0.0), du),
            ((R.u1, R.v0), (0.0, 1.0), dv),
            ((R.u1, R.v1), (-1.0, 0.0), du),
            ((R.u0, R.v1), (0.0, -1.0), dv),
        ]
    if R.orientation < 0:
        pieces = [
            ((start[0] + d[0] * length, start[1] + d[1] * length), (-d[0], -d[1]), length)
            for start, d, length in pieces
        ]
    return [piece for piece in pieces if piece[2] > 0.0]


def _check_region(S: SurfacePatch, R: ParamRegion) -> None:
    """Refuse a region that the chart cannot integrate; run once, before either side.

    A region closed in u must span the period of a chart closed in u, and
    both corners must lie in the chart (ValueError).  One pushforward_frame
    batch then takes the REGION_SCAN^2 grid of the region (u outer, v
    inner) and BOUNDARY_SCAN points per boundary piece; the first failing
    point in that order raises, a characteristic grid point included.  On
    the boundary points it refuses a winding around a characteristic point,
    which the grid misses between its nodes: characteristic points are the
    zeros of (e^3(f_u), e^3(f_v)), and the turning of that field summed
    within each piece (a piece closed in u is a loop of its own) is 2 pi
    times their total index.  Last it refuses a boundary tangent without an
    f3 component.
    """
    if R.closed_u:
        if not S.closed_u:
            raise ValueError(f"region is closed in u but the chart {S.name!r} is not")
        period = S.u_range[1] - S.u_range[0]
        if not math.isclose(R.u1 - R.u0, period, rel_tol=1e-12):
            raise ValueError(
                f"region closed in u spans u in [{R.u0!r}, {R.u1!r}], not the period "
                f"{period!r} of the chart's u range {S.u_range!r}"
            )
    if not (S.contains(R.u0, R.v0) and S.contains(R.u1, R.v1)):
        raise ValueError(
            f"region u in [{R.u0!r}, {R.u1!r}], v in [{R.v0!r}, {R.v1!r}] leaves the chart "
            f"u in {S.u_range!r}, v in {S.v_range!r}"
        )
    if R.is_empty():
        return
    grid = REGION_SCAN * REGION_SCAN
    start, d, length = map(np.array, zip(*_segments(R)))
    t = np.linspace(0.0, length, BOUNDARY_SCAN, axis=1)
    u = np.append(np.repeat(np.linspace(R.u0, R.u1, REGION_SCAN), REGION_SCAN), start[:, 0, None] + d[:, 0, None] * t)
    v = np.append(np.tile(np.linspace(R.v0, R.v1, REGION_SCAN), REGION_SCAN), start[:, 1, None] + d[:, 1, None] * t)

    def scan(lo, hi):
        f_u, f_v = pushforward_frame(S, u[lo:hi], v[lo:hi])
        # a chart constant in (u, v) gives one bool for the whole batch
        mask = np.broadcast_to(characteristic_test(f_u, f_v), (hi - lo,))
        hits = np.flatnonzero(mask[: max(grid - lo, 0)])
        if hits.size:
            k = lo + hits[0]
            raise CharacteristicPointError(f"characteristic point inside the region at ({float(u[k])!r}, {float(v[k])!r})")
        return f_u, f_v

    # the boundary rows of the coefficients, some of which a chart may give as one float for all points
    f_u, f_v = ([np.broadcast_to(c, u.shape)[grid:] for c in (f.c1, f.c2, f.c3)] for f in first_failure(scan, len(u)))
    steps = np.diff(np.arctan2(f_v[2], f_u[2]).reshape(-1, BOUNDARY_SCAN), axis=1)
    winding = round(np.sum((steps + math.pi) % (2.0 * math.pi) - math.pi) / (2.0 * math.pi))
    if winding != 0:
        raise CharacteristicPointError(
            f"characteristic point inside the region: its boundary has winding number {winding} around it"
        )
    a, b = np.repeat(d[:, 0], BOUNDARY_SCAN), np.repeat(d[:, 1], BOUNDARY_SCAN)
    with np.errstate(all="ignore"):
        tangent = [a * x + b * y for x, y in zip(f_u, f_v)]
        speed = elementwise(math.hypot, *tangent)
        # Python's max(speed, 1e-300), NaN included
        floor = TRANSVERSALITY_TOL * np.where(1e-300 > speed, 1e-300, speed)
    hits = np.flatnonzero(abs(tangent[2]) < floor)
    if hits.size:
        k = grid + hits[0]
        raise NonTransverseError(f"boundary tangent loses its f3 component at ({float(u[k])!r}, {float(v[k])!r})")


def _sides(S: SurfacePatch, R: ParamRegion, area_density, boundary_density, area_tol: float, boundary_tol: float):
    """int_R area_density over the oriented region and the sum over its oriented boundary pieces of int
    boundary_density: two (values, summed error estimate) pairs, from one lockstep cubature of both.

    area_density(sample, derivatives) maps frame_tangents arrays over the
    area nodes to a value, or a row of values, per node, and
    boundary_density(sample, derivatives, tangents, direction) those over
    the boundary nodes with each node's unit piece direction (du, dv).  The
    area is a cubature over the region to area_tol; the boundary one
    cubature over t in [0, 1] that takes every piece at once, scaled by its
    length, to boundary_tol / pieces each.  Each round maps the nodes of
    both sides to chart points and evaluates the frame once over all of
    them; each density then takes only its own side's rows.  The caller
    runs _check_region first.
    """
    if R.is_empty():
        return (np.zeros(1), 0.0), (np.zeros(1), 0.0)
    start, d, length = map(np.array, zip(*_segments(R)))

    def f(nodes):
        # a side that takes no box this round has no rows
        x, t = (np.empty((0, ndim)) if y is None else y for ndim, y in zip((2, 1), nodes))
        u, v, direction = _along(start, d, t * length)
        frame = frame_tangents(S, np.concatenate([x[:, 0], u]), np.concatenate([x[:, 1], v]))
        n = len(x)
        area = None if nodes[0] is None else area_density(*_rows(frame[:2], slice(0, n))).reshape(n, -1)
        if nodes[1] is None:
            return [area, None]
        boundary = boundary_density(*_rows(frame, slice(n, None)), direction)
        return [area, boundary.reshape(len(t), len(length), -1) * length[:, None]]

    (area, area_err), (boundary, boundary_err) = cubature(
        f, [((R.u0, R.v0), (R.u1, R.v1), area_tol), ((0.0,), (1.0,), boundary_tol / len(length))]
    )
    return (R.orientation * area, float(np.sum(area_err))), (boundary.sum(axis=0), float(np.sum(boundary_err)))


def _along(start, d, t):
    """Chart points and unit directions at distances t, a (nodes, pieces) array, along the pieces: (u, v, (du, dv)),
    each flat, the pieces of a node together."""
    u, v = (start[:, k] + d[:, k] * t for k in (0, 1))
    du, dv = (np.broadcast_to(d[:, k], u.shape).ravel() for k in (0, 1))
    return u.ravel(), v.ravel(), (du, dv)


def _rows(x, rows: slice):
    """The rows of a frame_tangents batch, as views: its records and tuples part by part, a Dual2 by expr._take.

    The records are built without their finiteness check, which the whole
    batch passed; checking again would cost more than the slicing.
    """
    if isinstance(x, np.ndarray):
        return x[rows]
    if type(x) is tuple:
        return tuple([_rows(part, rows) for part in x])
    if type(x) is Dual2 or not is_dataclass(x):
        return _take(x, rows)
    part = object.__new__(type(x))
    part.__dict__.update({name: _rows(value, rows) for name, value in vars(x).items()})
    return part


def _gb_area_density(sample, fd):
    return k_inf(fd, sample.A) * sample.area_density


def _gb_boundary_density(sample, fd, tangents, direction):
    """A * f^3(gamma') for the boundary tangent gamma' = direction in (u, v)."""
    return sample.A * (direction[0] * sample.f_u_23[1] + direction[1] * sample.f_v_23[1])


@dataclass(frozen=True)
class GBReport:
    """Both sides of the limit Gauss-Bonnet identity plus their residual."""

    area_integral: float
    boundary_integral: float
    residual: float
    area_error_est: float
    boundary_error_est: float


def gb_residual(S: SurfacePatch, R: ParamRegion) -> GBReport:
    """int_R K_inf dsigma (integrand K_inf * rho in the chart) to AREA_TOL, and
    oint_gamma k_n ds = oint A f^3(gamma') over the oriented boundary to BOUNDARY_TOL."""
    _check_region(S, R)
    (area, area_err), (boundary, boundary_err) = _sides(
        S, R, _gb_area_density, _gb_boundary_density, AREA_TOL, BOUNDARY_TOL
    )
    area, boundary = float(area[0]), float(boundary[0])
    return GBReport(area, boundary, area + boundary, area_err, boundary_err)


def stokes_density_check(S: SurfacePatch, u: float, v: float, h: float) -> tuple[float, float]:
    """Both sides of d(A f^3) = (dA(f2) + A^2) f^2^f^3 on an h-square.

    The left side is the loop integral of A f^3 around [u, u+h] x [v, v+h]
    (gauss_segments per edge, accurate to far below h^4); the right side
    is the midpoint-rule area integral, so lhs - rhs = O(h^4) for smooth
    patches and the ratio |lhs - rhs| / h^2 must fall like h^2.
    """
    start, d, _ = map(np.array, zip(*_segments(ParamRegion(u, u + h, v, v + h))))

    def loop(t):  # A f^3 summed over the four edges at the distances t along each
        u, v, direction = _along(start, d, t.reshape(-1, 1))
        density = _gb_boundary_density(*frame_tangents(S, u, v), direction)
        return (density.reshape(t.shape + (len(d),)).sum(axis=-1),)

    lhs = float(gauss_segments(loop, np.zeros(1), np.full(1, h), (-math.inf, math.inf))[0][0])
    sample, fd, _ = frame_tangents(S, u + 0.5 * h, v + 0.5 * h)
    rhs = (fd.dA_f2 + sample.A**2) * sample.area_density * h * h
    return lhs, rhs


# ---------------------------------------------------------------------------
# L-sweep convergence studies


def fit_loglog_slope(L_values: Sequence[float], values: Sequence[float]) -> Optional[float]:
    """Least-squares slope of log10|values| against log10(L); None if degenerate
    (fewer than two L with a finite nonzero value, or L so close together,
    repeated ones included, that polyfit finds its system rank-deficient)."""
    xs, ys = [], []
    for L, val in zip(L_values, values):
        if val != 0.0 and math.isfinite(val):
            xs.append(math.log10(L))
            ys.append(math.log10(abs(val)))
    if len(xs) < 2:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.RankWarning)
        warnings.simplefilter("error", RuntimeWarning)  # every L is 1: polyfit scales log10(L) by 0
        try:
            return float(np.polyfit(xs, ys, 1)[0])
        except (np.exceptions.RankWarning, RuntimeWarning):
            return None


@dataclass(frozen=True)
class ConvergenceRow:
    L: float
    K_L: float
    err_K: float
    sigma_L: float
    rescaled_sigma: float
    K_L_sigma_L: float
    k_n_L: float
    err_k_n: float
    ds_L: float


@dataclass(frozen=True)
class PointConvergence:
    u: float
    v: float
    A: float
    K_inf: float
    k_n_limit: float
    rows: tuple[ConvergenceRow, ...]
    slope_err_K: Optional[float]
    slope_err_k_n: Optional[float]
    slope_sigma: Optional[float]
    slope_K_L_sigma: Optional[float]


@dataclass(frozen=True)
class RegionConvergence:
    rows: tuple[tuple[float, float, float, float], ...]  # L, area, boundary, residual
    slope_residual: Optional[float]


def convergence_study(
    S: SurfacePatch, point: tuple[float, float], L_values: Sequence[float], direction: tuple[float, float]
) -> PointConvergence:
    """L-sweep of the limit relations at one chart point, L in increasing order.

    It tabulates K_L against K_inf, the area density sqrt(L + A^2) raw and
    rescaled by 1/sqrt(L), K_L * sigma_L (divergent), and, along the
    parameter direction (du, dv), k_n_L against k_n.
    """
    L_sorted = sorted(_as_L(L) for L in L_values)
    u, v = (float(x) for x in point)
    sample, fd, tangents = frame_tangents(S, u, v)
    K_limit = k_inf(fd, sample.A)
    curve = _transverse(sample, fd, tangents, direction)
    k_n_limit = k_n(curve.A, curve.b)
    rows = []
    for L in L_sorted:
        KL = k_L(fd, sample.A, L)
        sigma_L = math.sqrt(L + sample.A**2)
        knL = k_n_L(curve, L)
        rows.append(
            ConvergenceRow(
                L=L,
                K_L=KL,
                err_K=abs(KL - K_limit),
                sigma_L=sigma_L,
                rescaled_sigma=sigma_L / math.sqrt(L),
                K_L_sigma_L=KL * sigma_L,
                k_n_L=knL,
                err_k_n=abs(knL - k_n_limit),
                ds_L=ds_L_density(curve, L),
            )
        )
    return PointConvergence(
        u=u,
        v=v,
        A=sample.A,
        K_inf=K_limit,
        k_n_limit=k_n_limit,
        rows=tuple(rows),
        slope_err_K=fit_loglog_slope(L_sorted, [r.err_K for r in rows]),
        slope_err_k_n=fit_loglog_slope(L_sorted, [r.err_k_n for r in rows]),
        slope_sigma=fit_loglog_slope(L_sorted, [r.sigma_L for r in rows]),
        slope_K_L_sigma=fit_loglog_slope(L_sorted, [r.K_L_sigma_L for r in rows]),
    )


def _region_convergence(S: SurfacePatch, region: ParamRegion, L_values: Sequence[float]) -> RegionConvergence:
    """Both rescaled finite-L Gauss-Bonnet sides per L (in increasing order), one cubature per side for all L.

    On the boundary (unit parameter speed) the g_L speed multiplies k_n_L
    but not its rotation-rate term, a rate per unit parameter already; each
    row sums to (2 pi chi(R) - exterior corner angles in g_L) / sqrt(L),
    which tends to 0.
    """
    L_values = sorted(_as_L(L) for L in L_values)
    _check_region(S, region)

    def area_density(sample, fd):
        A = sample.A
        sigma = [elementwise(math.sqrt, L + A * A) for L in L_values]
        return np.stack(
            [k_L(fd, A, L) / math.sqrt(L) * s * sample.area_density for L, s in zip(L_values, sigma)], axis=-1
        )

    def boundary_density(*nodes):
        c = _transverse(*nodes)
        speed = [elementwise(math.sqrt, c.a**2 + c.b**2 * (L + c.A**2)) for L in L_values]
        return np.stack(
            [(_turn(c, L) * (1.0 - s) + k_n_L(c, L) * s) / math.sqrt(L) for L, s in zip(L_values, speed)], axis=-1
        )

    (area, _), (boundary, _) = _sides(S, region, area_density, boundary_density, REGION_TOL, REGION_TOL)
    area, boundary = (np.broadcast_to(side, len(L_values)) for side in (area, boundary))
    rows = tuple((L, float(a), float(b), float(a + b)) for L, a, b in zip(L_values, area, boundary))
    return RegionConvergence(rows, fit_loglog_slope(L_values, [r[3] for r in rows]))
