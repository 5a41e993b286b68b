"""Surfaces of revolution about the z-axis and the constant-curvature families.

A surface invariant under rotations is swept from a horizontal generating
curve (a(v), b(v), c(v)) with c' = (a b' - b a')/2:

    f(u, v) = (a cos u - b sin u, b cos u + a sin u, c).

In polar profile coordinates a = r cos(theta), b = r sin(theta) with a
unit-speed parameterization ((a')^2 + (b')^2 = 1) one has

    theta' = sqrt(1 - (r')^2) / r,      c' = r sqrt(1 - (r')^2) / 2,
    A = (ln r^2)' ,                     K_inf = -A' - A^2.

Prescribing a constant K_inf and integrating gives exactly three families:

    K > 0:  A = -sqrt(K) tan(sqrt(K) v),   r = r0 sqrt(cos(sqrt(K) v))
    K = 0:  A = 1/v,                       r = r0 sqrt(v)
    K < 0:  A = sqrt(-K) tanh(sqrt(-K) v), r = r0 sqrt(cosh(sqrt(-K) v))

each defined where (r')^2 <= 1.  The integration constant is normalized
away (a v-translation); ``c1_shift`` reintroduces it as a translation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import expr as _expr
from .errors import DomainViolationError, GeometryError
from .batch import elementwise, power
from .quadrature import gauss_segments, integrate, integrate_with_boundary
from .expr import Dual2
from .surface import SurfacePatch

__all__ = [
    "Profile",
    "family_profile",
    "line_profile",
    "circle_profile",
    "r_family",
    "A_family",
    "domain_bound",
    "theta_c_quadrature",
    "horizontal_lift",
    "rotation_patch",
    "default_v_range",
    "RotationSurfaceSpec",
    "Mesh",
    "build_mesh",
    "sample_generating_curve",
    "e3_chord_ratio",
]

CLAMP = 1e-12  # values of 1 - (r')^2 in [-CLAMP, 0] count as exact zeros
ANCHOR_EPS = 1e-9
THETA_C_TOL = 1e-10  # absolute QUADPACK tolerance of theta(v) and c(v)
THETA_C_CACHE_SIZE = 4096  # theta/c values memoized per family profile


def _sqrt1m(rp2_complement, v):
    """sqrt(1 - r'^2) from 1 - r'^2 at v, for a float or elementwise on arrays."""
    if isinstance(rp2_complement, np.ndarray):
        bad = np.flatnonzero(rp2_complement < -CLAMP)
        if bad.size:
            raise DomainViolationError(f"(r')^2 exceeds 1 at v={np.ravel(v)[bad[0]]!r}")
        return np.sqrt(np.maximum(rp2_complement, 0.0))
    if rp2_complement < -CLAMP:
        raise DomainViolationError(f"(r')^2 exceeds 1 at v={v!r}")
    return math.sqrt(max(rp2_complement, 0.0))


# Profiles take a float or an array.  On arrays they map the scalar libm
# formula over the elements (batch.elementwise), so an array evaluation
# equals the scalar one bit for bit, and every output file is independent
# of how the evaluation is batched.


def _kernels(K_inf: float, r0: float):
    """Scalar r(t) and A(t) of the family at the unshifted parameter t."""
    root = math.sqrt(abs(K_inf))
    if K_inf > 0.0:
        return (
            lambda t: r0 * math.sqrt(max(math.cos(root * t), 0.0)),
            lambda t: -root * math.tan(root * t),
        )
    if K_inf < 0.0:
        return (
            lambda t: r0 * math.sqrt(math.cosh(root * t)),
            lambda t: root * math.tanh(root * t),
        )
    return lambda t: r0 * math.sqrt(t), lambda t: 1.0 / t


def domain_bound(K_inf: float, r0: float) -> tuple[float, float]:
    """Open existence interval of the constant-curvature profile (shift 0).

    Solves (r')^2 = 1 in closed form; for K = 0 the interval is
    (r0^2/4, inf), otherwise it is symmetric about 0.
    """
    if not (math.isfinite(r0) and r0 > 0.0):
        raise ValueError(f"profile radius r0 must be positive, got {r0!r}")
    if not math.isfinite(K_inf):
        raise ValueError("curvature must be finite")
    if K_inf > 0.0:
        q = r0 * r0 * K_inf
        s_star = -2.0 / q + math.sqrt(4.0 / (q * q) + 1.0)
        vmax = math.acos(s_star) / math.sqrt(K_inf)
        return -vmax, vmax
    if K_inf < 0.0:
        q = r0 * r0 * (-K_inf)
        cosh_star = 2.0 / q + math.sqrt(1.0 + 4.0 / (q * q))
        vmax = math.acosh(cosh_star) / math.sqrt(-K_inf)
        return -vmax, vmax
    return r0 * r0 / 4.0, math.inf


def _check_domain(v: float, bounds: tuple[float, float], what: str):
    lo, hi = bounds
    fuzz = 1e-12 * max(1.0, abs(lo) if math.isfinite(lo) else 0.0, abs(hi) if math.isfinite(hi) else 0.0)
    if v < lo - fuzz or v > hi + fuzz:
        raise DomainViolationError(
            f"{what}: v = {v!r} outside the existence domain ({lo!r}, {hi!r})"
        )


def r_family(K_inf: float, r0: float, v: float) -> float:
    """Profile radius of the constant-curvature family (integration constant 0)."""
    _check_domain(v, domain_bound(K_inf, r0), "r_family")
    return _kernels(K_inf, r0)[0](v)


def A_family(K_inf: float, v: float) -> float:
    """Tilt scalar A(v) solving K_inf = -A' - A^2 (integration constant 0)."""
    if K_inf > 0.0 and abs(math.sqrt(K_inf) * v) >= 0.5 * math.pi:
        raise DomainViolationError(f"A_family: |v| = {abs(v)!r} reaches the tan pole")
    if K_inf == 0.0 and v <= 0.0:
        raise DomainViolationError("A_family: v must be positive when the curvature is 0")
    return _kernels(K_inf, 1.0)[1](v)


@dataclass(frozen=True)
class Profile:
    """Unit-speed generating-curve data for a surface of revolution.

    r, dr and A take a float or an array of v; kappa, the planar curvature
    a'b'' - a''b' of the generating curve, takes a float.  kappa gives the
    chart's second partials and picks chord lengths for exported
    polylines.  theta_c(v) is the polar angle and height (theta, c) at v,
    measured from the anchor.
    """

    name: str
    domain: tuple[float, float]
    anchor: float
    r: Callable[[float], float]
    dr: Callable[[float], float]
    A: Callable[[float], float]
    kappa: Callable[[float], float]
    theta_c: Callable[[float], tuple[float, float]]


def family_profile(K_inf: float, r0: float, c1_shift: float = 0.0) -> Profile:
    """Constant-curvature profile; c1_shift translates the profile parameter.

    The closures r, dr, A and kappa do not check the existence domain:
    callers check their interval endpoints once (sample_generating_curve,
    validate).  theta_c checks its v and integrates from the anchor with
    QUADPACK, memoizing the last THETA_C_CACHE_SIZE values.
    """
    lo, hi = domain_bound(K_inf, r0)
    r_t, A_t = _kernels(K_inf, r0)
    lo_s = lo - c1_shift
    hi_s = hi - c1_shift
    if K_inf == 0.0:
        anchor = lo_s + ANCHOR_EPS * max(1.0, abs(lo_s)) if lo_s <= 0 else lo_s * (1.0 + ANCHOR_EPS)
    else:
        anchor = -c1_shift

    def r(v):
        return elementwise(r_t, v + c1_shift)

    def A(v):
        return elementwise(A_t, v + c1_shift)

    def dr(v):
        # r' = r*A/2 since A = (ln r^2)' = 2 r'/r
        return 0.5 * r(v) * A(v)

    def kappa(v):
        rv = r(v)
        s = _sqrt1m(1.0 - (0.5 * rv * A(v)) ** 2, v)
        if s == 0.0:
            return math.inf
        return (K_inf + 2.0 / (rv * rv)) * rv / (2.0 * s)

    name = f"constant-curvature({K_inf}, r0={r0})"
    domain = (lo_s, hi_s)

    @functools.lru_cache(maxsize=THETA_C_CACHE_SIZE)
    def theta_c(v):
        # square-root substitution where 1 - r'^2 vanishes at a domain end
        _check_domain(v, domain, name)
        theta = integrate_with_boundary(lambda t: _integrands(r, dr, t)[0], anchor, v, domain, THETA_C_TOL)
        c = integrate_with_boundary(lambda t: _integrands(r, dr, t)[1], anchor, v, domain, THETA_C_TOL)
        return theta, c

    return Profile(
        name=name,
        domain=domain,
        anchor=anchor,
        r=r,
        dr=dr,
        A=A,
        kappa=kappa,
        theta_c=theta_c,
    )


def line_profile() -> Profile:
    """Radial straight-line profile r = v: the plane z = 0 in polar form."""
    return Profile(
        name="plane",
        domain=(0.0, math.inf),
        anchor=1.0,
        r=lambda v: v,
        dr=lambda v: 1.0,
        A=lambda v: 2.0 / v,
        kappa=lambda v: 0.0,
        theta_c=lambda v: (0.0, 0.0),
    )


def circle_profile() -> Profile:
    """Unit-circle profile r = 1: the vertical cylinder x^2 + y^2 = 1."""
    return Profile(
        name="cylinder",
        domain=(-math.inf, math.inf),
        anchor=0.0,
        r=lambda v: 1.0,
        dr=lambda v: 0.0,
        A=lambda v: 0.0,
        kappa=lambda v: 1.0,
        theta_c=lambda v: (v, 0.5 * v),
    )


def _integrands(r, dr, t):
    """theta' = sqrt(1 - r'^2)/r and c' = r sqrt(1 - r'^2)/2 at t (float or array)."""
    rt = r(t)
    s = _sqrt1m(1.0 - power(dr(t), 2), t)
    return s / rt, 0.5 * rt * s


def theta_c_quadrature(K_inf: float, r0: float, v: float) -> tuple[float, float]:
    """Angle theta(v) and height c(v) of the family profile from the anchor."""
    return family_profile(K_inf, r0).theta_c(v)


def horizontal_lift(a, b, t: float, tol: float = 1e-10) -> float:
    """Height c(t) = (1/2) int_0^t (a b' - b a') restoring horizontality."""
    a_tree = _expr.parse(a) if isinstance(a, str) else a
    b_tree = _expr.parse(b) if isinstance(b, str) else b

    def integrand(s: float) -> float:
        da = _expr.eval_dual_t(a_tree, s)
        db = _expr.eval_dual_t(b_tree, s)
        return 0.5 * (da.value * db.d_u - db.value * da.d_u)

    return integrate(integrand, 0.0, t, tol)


# ---------------------------------------------------------------------------
# Patches and meshes


def rotation_patch(
    profile: Profile,
    v_range: tuple[float, float],
    orientation: int = 1,
    name: Optional[str] = None,
) -> SurfacePatch:
    """Surface of revolution as a patch over [0, 2*pi] x v_range."""
    lo, hi = profile.domain
    if not (lo <= v_range[0] < v_range[1] <= hi):
        raise DomainViolationError(
            f"v_range {v_range!r} not inside the existence domain ({lo!r}, {hi!r})"
        )

    def curve(v: float):
        """The generating curve (a, b, c)(v) and its first two derivatives."""
        r = profile.r(v)
        rp = profile.dr(v)
        theta, c = profile.theta_c(v)
        s = _sqrt1m(1.0 - rp * rp, v)
        ct, st = math.cos(theta), math.sin(theta)
        a, b = r * ct, r * st
        ap = rp * ct - s * st  # r*theta' = sqrt(1 - r'^2) for unit speed
        bp = rp * st + s * ct
        cp = 0.5 * r * s
        # unit speed: (a'', b'') = kappa (-b', a'), so c' = (a b' - b a')/2
        # gives c'' = kappa (a a' + b b')/2 = kappa r r'/2
        k = profile.kappa(v)
        return a, b, float(c), ap, bp, cp, -k * bp, k * ap, 0.5 * k * r * rp

    def jet2(u, v):
        if isinstance(v, np.ndarray):
            # the profile, its quadrature included, stays scalar: once per distinct v
            distinct, at = np.unique(v, return_inverse=True)
            a, b, c, ap, bp, cp, app, bpp, cpp = np.array([curve(x) for x in distinct.tolist()]).T[:, at]
            cu, su = elementwise(math.cos, u), elementwise(math.sin, u)
        else:
            a, b, c, ap, bp, cp, app, bpp, cpp = curve(v)
            cu, su = math.cos(u), math.sin(u)
        x, y = a * cu - b * su, b * cu + a * su
        x_u, y_u = -a * su - b * cu, -b * su + a * cu
        x_v, y_v = ap * cu - bp * su, bp * cu + ap * su
        x_uv, y_uv = -ap * su - bp * cu, -bp * su + ap * cu
        x_vv, y_vv = app * cu - bpp * su, bpp * cu + app * su
        pos = (Dual2(x, x_u, x_v), Dual2(y, y_u, y_v), Dual2(c, 0.0, cp))
        du = (Dual2(x_u, -x, x_uv), Dual2(y_u, -y, y_uv), Dual2(0.0, 0.0, 0.0))
        dv = (Dual2(x_v, x_uv, x_vv), Dual2(y_v, y_uv, y_vv), Dual2(cp, 0.0, cpp))
        return pos, du, dv

    return SurfacePatch(
        jet2=jet2,
        u_range=(0.0, 2.0 * math.pi),
        v_range=tuple(v_range),
        orientation=orientation,
        closed_u=True,
        name=name or profile.name,
    )


def default_v_range(K_inf: float, r0: float, c1_shift: float = 0.0) -> tuple[float, float]:
    """A mesh-friendly band strictly inside the existence domain."""
    lo, hi = domain_bound(K_inf, r0)
    if K_inf == 0.0:
        start = lo * (1.0 + 1e-6) if lo > 0 else lo + 1e-6
        return start - c1_shift, lo + 2.0 - c1_shift
    return -0.98 * hi - c1_shift, 0.98 * hi - c1_shift


@dataclass(frozen=True)
class RotationSurfaceSpec:
    """Parameters of one constant-curvature rotation surface mesh."""

    K_inf: float
    r0: float = 1.0
    c1_shift: float = 0.0
    v_range: Optional[tuple[float, float]] = None
    samples_u: int = 128
    samples_v: int = 128
    n_curves: int = 8
    curve_e3_ratio: float = 1e-8

    def resolved_v_range(self) -> tuple[float, float]:
        if self.v_range is not None:
            return tuple(self.v_range)
        return default_v_range(self.K_inf, self.r0, self.c1_shift)

    def validate(self) -> None:
        if not (math.isfinite(self.r0) and self.r0 > 0.0):
            raise ValueError("r0 must be positive")
        if self.samples_u < 3 or self.samples_v < 2:
            raise ValueError("mesh needs at least 3 x 2 samples")
        if self.n_curves < 0:
            raise ValueError("n_curves must be non-negative")
        profile = family_profile(self.K_inf, self.r0, self.c1_shift)
        v0, v1 = self.resolved_v_range()
        lo, hi = profile.domain
        if not (lo <= v0 < v1 <= hi):
            raise DomainViolationError(
                f"v_range ({v0!r}, {v1!r}) not inside the existence domain "
                f"({lo!r}, {hi!r}) of the K_inf={self.K_inf} family"
            )
        vs = np.linspace(v0, v1, 257)
        r = profile.r(vs)
        rp2_complement = 1.0 - power(profile.dr(vs), 2)
        bad = np.flatnonzero((r <= 0.0) | (rp2_complement < -CLAMP))
        if bad.size and r[bad[0]] <= 0.0:
            raise DomainViolationError(f"profile radius vanishes at v={vs[bad[0]]!r}")
        _sqrt1m(rp2_complement, vs)


@dataclass
class Mesh:
    """Vertex grid with triangles and embedded horizontal polylines."""

    vertices: np.ndarray  # (n, 3)
    faces: np.ndarray  # (m, 3) int indices into vertices
    polylines: list = field(default_factory=list)  # list of (k, 3) arrays
    uv: Optional[np.ndarray] = None  # (n, 2) chart coordinates
    profile_rows: Optional[np.ndarray] = None  # columns: v, r, r', theta, c, A


def e3_chord_ratio(points: np.ndarray) -> np.ndarray:
    """|e^3(chord)| / |chord| at segment midpoints of a polyline."""
    delta = np.diff(points, axis=0)
    mid = 0.5 * (points[1:] + points[:-1])
    e3 = delta[:, 2] + 0.5 * (mid[:, 1] * delta[:, 0] - mid[:, 0] * delta[:, 1])
    norms = np.linalg.norm(delta, axis=1)
    return np.abs(e3) / np.maximum(norms, 1e-300)


def sample_generating_curve(
    profile: Profile,
    v0: float,
    v1: float,
    max_ratio: float = 1e-8,
    max_points: int = 500_000,
) -> np.ndarray:
    """Adaptive samples (v, a, b, c) of the generating horizontal curve.

    Chord lengths are chosen from the profile curvature so that every
    segment satisfies |e^3(midpoint chord)| <= max_ratio * |chord|; a chord
    above that bound raises GeometryError.  theta and c accumulate per
    segment with a fixed Gauss rule (plus the boundary substitution),
    keeping consecutive points consistent to far below the chord tolerance.
    """
    if not (v0 < v1):
        raise ValueError("need v0 < v1")
    _check_domain(v0, profile.domain, profile.name)
    _check_domain(v1, profile.domain, profile.name)
    theta0, c0 = profile.theta_c(v0)

    span = v1 - v0
    dv_cap = span / 64.0
    dv_floor = span * 1e-9
    target = 0.6 * max_ratio

    # Each step depends on the previous v, so the walk stays scalar.
    vs = [v0]
    v = v0
    while v < v1:
        k_here = abs(profile.kappa(v))
        dv = min(math.sqrt(12.0 * target / max(k_here, 1e-12)), dv_cap)
        k_ahead = abs(profile.kappa(min(v + dv, v1)))
        dv = min(dv, math.sqrt(12.0 * target / max(k_ahead, 1e-12)))
        dv = max(dv, dv_floor)
        # the last step ends exactly at v1 and is never shorter than dv_floor
        v = v + dv if v + dv < v1 - dv_floor else v1
        vs.append(v)
        if len(vs) > max_points:
            raise GeometryError("generating-curve sampling exceeded the point budget")
    vs = np.array(vs)
    d_theta, d_c = gauss_segments(functools.partial(_integrands, profile.r, profile.dr), vs[:-1], vs[1:], profile.domain)
    thetas = np.cumsum(np.concatenate(([theta0], d_theta)))
    cs = np.cumsum(np.concatenate(([c0], d_c)))
    r = profile.r(vs)
    pts = np.column_stack([r * elementwise(math.cos, thetas), r * elementwise(math.sin, thetas), cs])

    ratios = e3_chord_ratio(pts)
    k = int(np.argmax(ratios))  # the worst chord; a NaN counts as the worst
    if not ratios[k] <= max_ratio:
        raise GeometryError(
            f"generating-curve chord over v in [{float(vs[k])!r}, {float(vs[k + 1])!r}] has e3 ratio "
            f"{ratios[k]:.3g} above the bound {max_ratio:g}"
        )
    return np.column_stack([vs, pts])


def _rotate_xy(points: np.ndarray, angle: float) -> np.ndarray:
    cu, su = math.cos(angle), math.sin(angle)
    rotated = points.copy()
    rotated[:, 0] = points[:, 0] * cu - points[:, 1] * su
    rotated[:, 1] = points[:, 1] * cu + points[:, 0] * su
    return rotated


def build_mesh(spec: RotationSurfaceSpec) -> Mesh:
    """Vertex grid, triangles, profile table and horizontal polylines."""
    spec.validate()
    profile = family_profile(spec.K_inf, spec.r0, spec.c1_shift)
    v0, v1 = spec.resolved_v_range()
    nu, nv = spec.samples_u, spec.samples_v
    us = np.linspace(0.0, 2.0 * math.pi, nu)
    vvs = np.linspace(v0, v1, nv)

    r, rp, A = profile.r(vvs), profile.dr(vvs), profile.A(vvs)
    _sqrt1m(1.0 - rp * rp, vvs)
    theta, c = np.array([profile.theta_c(v) for v in vvs.tolist()]).T
    a, b = r * elementwise(math.cos, theta), r * elementwise(math.sin, theta)
    cu, su = np.cos(us), np.sin(us)
    x, y = np.outer(a, cu) - np.outer(b, su), np.outer(b, cu) + np.outer(a, su)
    vertices = np.stack([x, y, np.repeat(c, nu).reshape(nv, nu)], axis=-1).reshape(-1, 3)
    uv = np.column_stack([np.tile(us, nv), np.repeat(vvs, nu)])
    k0 = (np.arange(nv - 1)[:, None] * nu + np.arange(nu - 1)).ravel()
    faces = np.stack([k0, k0 + 1, k0 + nu, k0 + 1, k0 + nu + 1, k0 + nu], axis=1).reshape(-1, 3)

    polylines = []
    if spec.n_curves > 0:
        curve = sample_generating_curve(profile, v0, v1, spec.curve_e3_ratio)[:, 1:]
        for k in range(spec.n_curves):
            polylines.append(_rotate_xy(curve, 2.0 * math.pi * k / spec.n_curves))

    return Mesh(
        vertices=vertices,
        faces=faces,
        polylines=polylines,
        uv=uv,
        profile_rows=np.column_stack([vvs, r, rp, theta, c, A]),
    )
