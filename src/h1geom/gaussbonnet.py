"""Numerical verification of the limit Gauss-Bonnet identity.

For a region R with transverse boundary gamma inside a non-characteristic
chart, the limit curvature and limit normal curvature satisfy

    int_R K_inf dsigma + oint_gamma k_n ds = 0,

which is Stokes applied to d(A f^3) = (dA(f2) + A^2) f^2 ^ f^3 together
with k_n ds = A f^3 and K_inf dsigma = -d(A f^3).  Both sides pull back
through the chart: dsigma(f_u, f_v) is the adapted-frame change-of-basis
determinant rho, and f^3(gamma') is the b-component of the boundary
tangent.  Each side is one batched Gauss-Kronrod cubature (_area and
_boundary) of a density over the frame data at all its nodes at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .batch import elementwise, first_failure
from .curvature import TransverseCurveSample, _transverse, _turn, ds_L_density, k_L, k_inf, k_n, k_n_L
from .errors import CharacteristicPointError, NonTransverseError
from .quadrature import cubature
from .surface import SurfacePatch, characteristic_test, frame_tangents, tangent_coefficients

__all__ = [
    "ParamRegion",
    "GBReport",
    "area_integral",
    "boundary_integral",
    "gb_residual",
    "stokes_density_check",
    "convergence_study",
    "ConvergenceStudy",
    "PointConvergence",
    "RegionConvergence",
    "fit_loglog_slope",
]

TRANSVERSALITY_TOL = 1e-10


@dataclass(frozen=True)
class ParamRegion:
    """Axis-aligned parameter rectangle, optionally closed in u.

    For closed_u regions u spans a full period and the boundary reduces to
    the two v = const circles with opposite orientations; the chart must be
    closed in u and the region span its u_range (_check_period).
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
        if self.orientation not in (1, -1):
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


def _check_period(S: SurfacePatch, R: ParamRegion) -> None:
    """ValueError unless a region closed in u spans a full period of a chart closed in u."""
    if not R.closed_u:
        return
    if not S.closed_u:
        raise ValueError(f"region is closed in u but the chart {S.name!r} is not")
    period = S.u_range[1] - S.u_range[0]
    if not math.isclose(R.u1 - R.u0, period, rel_tol=1e-12):
        raise ValueError(
            f"region closed in u spans u in [{R.u0!r}, {R.u1!r}], not the period "
            f"{period!r} of the chart's u range {S.u_range!r}"
        )


def _region_prescan(S: SurfacePatch, R: ParamRegion, n: int = 21, tol: float = 1e-10):
    """Refuse a characteristic point on the n x n grid of the region (u outer, v inner)."""
    u = np.repeat(np.linspace(R.u0, R.u1, n), n)
    v = np.tile(np.linspace(R.v0, R.v1, n), n)

    def scan(lo, hi):
        hits = np.flatnonzero(characteristic_test(*tangent_coefficients(S, u[lo:hi], v[lo:hi]), tol))
        if hits.size:
            k = lo + hits[0]
            raise CharacteristicPointError(
                f"characteristic point inside the region at ({u[k]!r}, {v[k]!r})"
            )

    first_failure(scan, len(u))


def _boundary_samples(R: ParamRegion, n: int = 33):
    """n points per boundary piece, piece by piece: arrays u, v and the piece directions d0, d1."""
    start, d, length = map(np.array, zip(*_segments(R)))
    t = np.linspace(0.0, length, n, axis=1)
    u, v = ((start[:, k, None] + d[:, k, None] * t).ravel() for k in (0, 1))
    return u, v, np.repeat(d[:, 0], n), np.repeat(d[:, 1], n)


def _winding_prescan(S: SurfacePatch, R: ParamRegion, n: int = 33):
    """Refuse a region whose boundary winds around a characteristic point, which
    the 21^2 grid of _region_prescan misses between its nodes.

    Characteristic points are the zeros of (e^3(f_u), e^3(f_v)).  The turning
    of that field over the boundary samples, summed within each piece (a
    piece closed in u is a loop of its own), is 2 pi times their total index.
    """
    f_u, f_v = tangent_coefficients(S, *_boundary_samples(R, n)[:2])
    steps = np.diff(np.arctan2(f_v[2], f_u[2]).reshape(-1, n), axis=1)
    winding = round(np.sum((steps + math.pi) % (2.0 * math.pi) - math.pi) / (2.0 * math.pi))
    if winding != 0:
        raise CharacteristicPointError(
            f"characteristic point inside the region: its boundary has winding number {winding} around it"
        )


def _boundary_prescan(S: SurfacePatch, R: ParamRegion, n: int = 33):
    """Refuse a boundary tangent without an f3 component, at n points per piece."""
    if not _segments(R):
        return
    u, v, d0, d1 = _boundary_samples(R, n)

    def scan(lo, hi):
        f_u, f_v = tangent_coefficients(S, u[lo:hi], v[lo:hi])
        a, b = d0[lo:hi], d1[lo:hi]
        with np.errstate(all="ignore"):
            tangent = [a * cu + b * cv for cu, cv in zip(f_u, f_v)]
            speed = elementwise(math.hypot, *tangent)
            # Python's max(speed, 1e-300), NaN included
            floor = TRANSVERSALITY_TOL * np.where(1e-300 > speed, 1e-300, speed)
        hits = np.flatnonzero(abs(tangent[2]) < floor)
        if hits.size:
            k = lo + hits[0]
            raise NonTransverseError(
                f"boundary tangent loses its f3 component at ({float(u[k])!r}, {float(v[k])!r})"
            )

    first_failure(scan, len(u))


def _area(S: SurfacePatch, R: ParamRegion, density, tol: float):
    """int_R density over the oriented region: (values, summed error estimate).

    density(sample, derivatives) maps frame_data arrays over the nodes to a
    value, or a row of values, per node.  The region is prescanned first.
    """
    _check_period(S, R)
    if R.is_empty():
        return np.zeros(1), 0.0
    _region_prescan(S, R)
    _winding_prescan(S, R)

    def f(x):
        sample, fd, _ = frame_tangents(S, x[:, 0], x[:, 1])
        return density(sample, fd).reshape(len(x), -1)

    value, err = cubature(f, (R.u0, R.v0), (R.u1, R.v1), tol)
    return R.orientation * value, float(np.sum(err))


def _boundary(S: SurfacePatch, R: ParamRegion, density, tol: float):
    """Sum over the oriented boundary pieces of int density: (values, summed error estimate).

    density(sample, derivatives, tangents, direction) maps frame_tangents
    arrays over the nodes and each node's unit piece direction (du, dv) to
    a value, or a row of values, per node.  One cubature over t in [0, 1]
    takes every piece at once, scaled by its length, to tol / pieces each.
    """
    _check_period(S, R)
    if R.is_empty():
        return np.zeros(1), 0.0
    _boundary_prescan(S, R)
    start, d, length = map(np.array, zip(*_segments(R)))

    def f(x):
        values = density(*_boundary_nodes(S, start, d, x[:, :1] * length))
        return values.reshape(len(x), len(length), -1) * length[:, None]

    value, err = cubature(f, (0.0,), (1.0,), tol / len(length))
    return value.sum(axis=0), float(np.sum(err))


def _boundary_nodes(S: SurfacePatch, start, d, t):
    """frame_tangents and directions at distances t, a (nodes, pieces) array, along the pieces."""
    u, v = (start[:, k] + d[:, k] * t for k in (0, 1))
    du, dv = (np.broadcast_to(d[:, k], u.shape).ravel() for k in (0, 1))
    return (*frame_tangents(S, u.ravel(), v.ravel()), (du, dv))


def _gb_area_density(sample, fd):
    return k_inf(fd, sample.A) * sample.area_density


def _gb_boundary_density(sample, fd, tangents, direction):
    """A * f^3(gamma') for the boundary tangent gamma' = direction in (u, v)."""
    return sample.A * (direction[0] * sample.f_u_23[1] + direction[1] * sample.f_v_23[1])


def area_integral(S: SurfacePatch, R: ParamRegion, tol: float = 1e-9) -> float:
    """int_R K_inf dsigma pulled back to the chart (integrand K_inf * rho)."""
    return float(_area(S, R, _gb_area_density, tol)[0][0])


def boundary_integral(S: SurfacePatch, R: ParamRegion, tol: float = 1e-10) -> float:
    """oint_gamma k_n ds = oint A * f^3(gamma') over the oriented boundary."""
    return float(_boundary(S, R, _gb_boundary_density, tol)[0][0])


@dataclass(frozen=True)
class GBReport:
    """Both sides of the limit Gauss-Bonnet identity plus their residual."""

    area_integral: float
    boundary_integral: float
    residual: float
    area_error_est: float
    boundary_error_est: float


def gb_residual(
    S: SurfacePatch,
    R: ParamRegion,
    area_tol: float = 1e-9,
    boundary_tol: float = 1e-10,
) -> GBReport:
    area, area_err = _area(S, R, _gb_area_density, area_tol)
    boundary, boundary_err = _boundary(S, R, _gb_boundary_density, boundary_tol)
    area, boundary = float(area[0]), float(boundary[0])
    return GBReport(area, boundary, area + boundary, area_err, boundary_err)


_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)


def stokes_density_check(S: SurfacePatch, u: float, v: float, h: float) -> tuple[float, float]:
    """Both sides of d(A f^3) = (dA(f2) + A^2) f^2^f^3 on an h-square.

    The left side is the loop integral of A f^3 around [u, u+h] x [v, v+h]
    (fixed Gauss rule per edge, accurate to far below h^4); the right side
    is the midpoint-rule area integral, so lhs - rhs = O(h^4) for smooth
    patches and the ratio |lhs - rhs| / h^2 must fall like h^2.
    """
    start, d, _ = map(np.array, zip(*_segments(ParamRegion(u, u + h, v, v + h))))
    density = _gb_boundary_density(*_boundary_nodes(S, start, d, 0.5 * h * (1.0 + _GL8_NODES)[:, None]))
    lhs = 0.5 * h * float(_GL8_WEIGHTS @ density.reshape(8, len(d)).sum(axis=1))
    sample, fd, _ = frame_tangents(S, u + 0.5 * h, v + 0.5 * h)
    rhs = (fd.dA_f2 + sample.A**2) * sample.area_density * h * h
    return lhs, rhs


# ---------------------------------------------------------------------------
# L-sweep convergence studies


def fit_loglog_slope(L_values: Sequence[float], values: Sequence[float]) -> Optional[float]:
    """Least-squares slope of log10|values| against log10(L); None if degenerate."""
    xs, ys = [], []
    for L, val in zip(L_values, values):
        if val != 0.0 and math.isfinite(val):
            xs.append(math.log10(L))
            ys.append(math.log10(abs(val)))
    if len(xs) < 2:
        return None
    return float(np.polyfit(xs, ys, 1)[0])


@dataclass(frozen=True)
class ConvergenceRow:
    L: float
    K_L: float
    err_K: float
    sigma_L: float
    rescaled_sigma: float
    K_L_sigma_L: float
    k_n_L: Optional[float]
    err_k_n: Optional[float]
    ds_L: Optional[float]


@dataclass(frozen=True)
class PointConvergence:
    u: float
    v: float
    A: float
    K_inf: float
    k_n_limit: Optional[float]
    rows: tuple[ConvergenceRow, ...]
    slope_err_K: Optional[float]
    slope_err_k_n: Optional[float]
    slope_sigma: Optional[float]
    slope_K_L_sigma: Optional[float]


@dataclass(frozen=True)
class RegionConvergence:
    rows: tuple[tuple[float, float, float, float], ...]  # L, area, boundary, residual
    slope_residual: Optional[float]


@dataclass(frozen=True)
class ConvergenceStudy:
    points: tuple[PointConvergence, ...]
    region: Optional[RegionConvergence]


def _point_convergence(S, u, v, L_values, direction) -> PointConvergence:
    sample, fd, tangents = frame_tangents(S, u, v)
    K_limit = k_inf(fd, sample.A)
    curve: Optional[TransverseCurveSample] = None
    k_n_limit = None
    if direction is not None:
        curve = _transverse(sample, fd, tangents, direction)
        k_n_limit = k_n(curve.A, curve.b)
    rows = []
    for L in L_values:
        KL = k_L(fd, sample.A, L)
        sigma_L = math.sqrt(L + sample.A**2)
        knL = k_n_L(curve, L) if curve is not None else None
        rows.append(
            ConvergenceRow(
                L=float(L),
                K_L=KL,
                err_K=abs(KL - K_limit),
                sigma_L=sigma_L,
                rescaled_sigma=sigma_L / math.sqrt(L),
                K_L_sigma_L=KL * sigma_L,
                k_n_L=knL,
                err_k_n=abs(knL - k_n_limit) if knL is not None else None,
                ds_L=ds_L_density(curve, L) if curve is not None else None,
            )
        )
    Ls = [r.L for r in rows]
    return PointConvergence(
        u=u,
        v=v,
        A=sample.A,
        K_inf=K_limit,
        k_n_limit=k_n_limit,
        rows=tuple(rows),
        slope_err_K=fit_loglog_slope(Ls, [r.err_K for r in rows]),
        slope_err_k_n=fit_loglog_slope(Ls, [r.err_k_n if r.err_k_n is not None else 0.0 for r in rows]),
        slope_sigma=fit_loglog_slope(Ls, [r.sigma_L for r in rows]),
        slope_K_L_sigma=fit_loglog_slope(Ls, [r.K_L_sigma_L for r in rows]),
    )


def _region_convergence(S, region, L_values, tol=1e-7) -> RegionConvergence:
    """Both rescaled finite-L Gauss-Bonnet sides per L, one cubature per side for all L.

    On the boundary (unit parameter speed) the g_L speed multiplies k_n_L
    but not its rotation-rate term, a rate per unit parameter already; each
    row sums to (2 pi chi(R) - exterior corner angles in g_L) / sqrt(L).
    """

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

    area = np.broadcast_to(_area(S, region, area_density, tol)[0], len(L_values))
    boundary = np.broadcast_to(_boundary(S, region, boundary_density, tol)[0], len(L_values))
    rows = tuple((float(L), float(a), float(b), float(a + b)) for L, a, b in zip(L_values, area, boundary))
    return RegionConvergence(rows, fit_loglog_slope(L_values, [r[3] for r in rows]))


def convergence_study(
    S: SurfacePatch,
    points: Sequence[tuple[float, float]],
    L_values: Sequence[float],
    direction: Optional[tuple[float, float]] = (1.0, 0.0),
    region: Optional[ParamRegion] = None,
) -> ConvergenceStudy:
    """Pointwise and (optionally) region-level L-sweep of the limit relations.

    At each point it tabulates K_L against K_inf, the area density
    sqrt(L + A^2) raw and rescaled by 1/sqrt(L), K_L * sigma_L (divergent),
    and, along the parameter direction, k_n_L against k_n.  With a region
    it also reports the finite-L rescaled Gauss-Bonnet sum per L, which
    tends to 0 (see _region_convergence).
    """
    L_sorted = sorted(float(L) for L in L_values)
    if any(L <= 0 for L in L_sorted):
        raise ValueError("L values must be positive")
    studies = tuple(
        _point_convergence(S, float(u), float(v), L_sorted, direction) for u, v in points
    )
    region_rows = _region_convergence(S, region, L_sorted) if region is not None else None
    return ConvergenceStudy(points=studies, region=region_rows)
