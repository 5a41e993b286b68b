"""Numerical verification of the limit Gauss-Bonnet identity.

For a region R with transverse boundary gamma inside a non-characteristic
chart, the limit curvature and limit normal curvature satisfy

    int_R K_inf dsigma + oint_gamma k_n ds = 0,

which is Stokes applied to d(A f^3) = (dA(f2) + A^2) f^2 ^ f^3 together
with k_n ds = A f^3 and K_inf dsigma = -d(A f^3).  Both sides pull back
through the chart: dsigma(f_u, f_v) is the adapted-frame change-of-basis
determinant rho, and f^3(gamma') is the b-component of the boundary
tangent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .batch import elementwise, first_failure
from .curvature import TransverseCurveSample, ds_L_density, k_L, k_inf, k_n, k_n_L, transverse_sample
from .errors import CharacteristicPointError, NonTransverseError
from .quadrature import _integrate, integrate, integrate_2d
from .surface import SurfacePatch, adapted_frame, characteristic_test, frame_data, tangent_coefficients

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
    orientation -1 integrates over the oppositely oriented chain.
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


def _boundary_density(S: SurfacePatch, u: float, v: float, direction) -> float:
    """A * f^3(gamma') for the boundary tangent gamma' = direction in (u, v)."""
    sample = adapted_frame(S, u, v)
    return sample.A * (direction[0] * sample.f_u_23[1] + direction[1] * sample.f_v_23[1])


def _boundary_prescan(S: SurfacePatch, R: ParamRegion, n: int = 33):
    """Refuse a boundary tangent without an f3 component, at n points per piece."""
    u, v, d0, d1 = [], [], [], []
    for start, d, length in _segments(R):
        t = np.linspace(0.0, length, n)
        u.append(start[0] + d[0] * t)
        v.append(start[1] + d[1] * t)
        d0.append(np.full(n, d[0]))
        d1.append(np.full(n, d[1]))
    if not u:
        return
    u, v, d0, d1 = map(np.concatenate, (u, v, d0, d1))

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


def area_integral(S: SurfacePatch, R: ParamRegion, tol: float = 1e-9) -> float:
    """int_R K_inf dsigma pulled back to the chart (integrand K_inf * rho)."""
    return _area_integral(S, R, tol)[0]


def _area_integral(S, R, tol):
    _check_period(S, R)
    if R.is_empty():
        return 0.0, 0.0
    _region_prescan(S, R)

    def integrand(u, v):
        sample, fd = frame_data(S, u, v)
        return k_inf(fd, sample.A) * sample.area_density

    value, err = integrate_2d(integrand, R.u0, R.u1, R.v0, R.v1, tol)
    return R.orientation * value, err


def boundary_integral(S: SurfacePatch, R: ParamRegion, tol: float = 1e-10) -> float:
    """oint_gamma k_n ds = oint A * f^3(gamma') over the oriented boundary."""
    value, _ = _boundary_integral(S, R, tol)
    return value


def _boundary_integral(S, R, tol):
    """The boundary integral and the sum of QUADPACK's estimates over its pieces."""
    _check_period(S, R)
    if R.is_empty():
        return 0.0, 0.0
    _boundary_prescan(S, R)
    segments = _segments(R)
    total = 0.0
    err_total = 0.0
    per_piece = tol / max(len(segments), 1)
    for start, d, length in segments:

        def integrand(t, start=start, d=d):
            return _boundary_density(S, start[0] + d[0] * t, start[1] + d[1] * t, d)

        value, err = _integrate(integrand, 0.0, length, per_piece)
        total += value
        err_total += err
    return total, err_total


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
    area, area_err = _area_integral(S, R, area_tol)
    boundary, boundary_err = _boundary_integral(S, R, boundary_tol)
    return GBReport(
        area_integral=area,
        boundary_integral=boundary,
        residual=area + boundary,
        area_error_est=area_err,
        boundary_error_est=boundary_err,
    )


_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)


def stokes_density_check(S: SurfacePatch, u: float, v: float, h: float) -> tuple[float, float]:
    """Both sides of d(A f^3) = (dA(f2) + A^2) f^2^f^3 on an h-square.

    The left side is the loop integral of A f^3 around [u, u+h] x [v, v+h]
    (fixed Gauss rule per edge, accurate to far below h^4); the right side
    is the midpoint-rule area integral, so lhs - rhs = O(h^4) for smooth
    patches and the ratio |lhs - rhs| / h^2 must fall like h^2.
    """
    region = ParamRegion(u, u + h, v, v + h)
    lhs = 0.0
    for start, d, length in _segments(region):
        half = 0.5 * length
        acc = 0.0
        for node, weight in zip(_GL8_NODES, _GL8_WEIGHTS):
            t = half + half * node
            acc += weight * _boundary_density(S, start[0] + d[0] * t, start[1] + d[1] * t, d)
        lhs += half * acc
    sample, fd = frame_data(S, u + 0.5 * h, v + 0.5 * h)
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
    sample, fd = frame_data(S, u, v)
    K_limit = k_inf(fd, sample.A)
    curve: Optional[TransverseCurveSample] = None
    k_n_limit = None
    if direction is not None:
        du, dv = direction
        curve = transverse_sample(S, lambda t: (u + t * du, v + t * dv), 0.0)
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
    return PointConvergence(
        u=u,
        v=v,
        A=sample.A,
        K_inf=K_limit,
        k_n_limit=k_n_limit,
        rows=tuple(rows),
        slope_err_K=fit_loglog_slope([r.L for r in rows], [r.err_K for r in rows]),
        slope_err_k_n=fit_loglog_slope(
            [r.L for r in rows], [r.err_k_n if r.err_k_n is not None else 0.0 for r in rows]
        ),
        slope_sigma=fit_loglog_slope([r.L for r in rows], [r.sigma_L for r in rows]),
        slope_K_L_sigma=fit_loglog_slope([r.L for r in rows], [r.K_L_sigma_L for r in rows]),
    )


def _region_convergence(S, region, L_values, tol=1e-7) -> RegionConvergence:
    _check_period(S, region)
    _region_prescan(S, region)
    _boundary_prescan(S, region)
    rows = []
    for L in L_values:
        root = math.sqrt(L)

        def area_integrand(u, v):
            sample, fd = frame_data(S, u, v)
            sigma_L = math.sqrt(L + sample.A**2)
            return k_L(fd, sample.A, L) / root * sigma_L * sample.area_density

        area, _ = integrate_2d(area_integrand, region.u0, region.u1, region.v0, region.v1, tol)
        area *= region.orientation

        boundary = 0.0
        for start, d, length in _segments(region):

            def integrand(t, start=start, d=d):
                path = lambda s: (start[0] + d[0] * s, start[1] + d[1] * s)
                c = transverse_sample(S, path, t, velocity=lambda s: d)
                speed = math.sqrt(c.a**2 + c.b**2 * (L + c.A**2))
                return k_n_L(c, L) / root * speed

            boundary += integrate(integrand, 0.0, length, tol)
        rows.append((float(L), area, boundary, area + boundary))
    return RegionConvergence(
        rows=tuple(rows),
        slope_residual=fit_loglog_slope([r[0] for r in rows], [r[3] for r in rows]),
    )


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
    it also reports the finite-L rescaled Gauss-Bonnet sum per L; the sum
    tends to 0 but no finite-L value is asserted.
    """
    L_sorted = sorted(float(L) for L in L_values)
    if any(L <= 0 for L in L_sorted):
        raise ValueError("L values must be positive")
    studies = tuple(
        _point_convergence(S, float(u), float(v), L_sorted, direction) for u, v in points
    )
    region_rows = _region_convergence(S, region, L_sorted) if region is not None else None
    return ConvergenceStudy(points=studies, region=region_rows)
