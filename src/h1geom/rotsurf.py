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

import collections
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import expr as _expr
from .errors import DomainViolationError, GeometryError
from .batch import POINT_FAILURES, elementwise, power
from .quadrature import _in_window, gauss_segments, integrate, integrate_with_boundary, kronrod_first_step
from .expr import Dual2
from .hgroup import e3_coefficient
from .surface import SurfacePatch

__all__ = [
    "Profile",
    "family_profile",
    "line_profile",
    "circle_profile",
    "domain_bound",
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
THETA_C_TOL = 1e-10  # absolute QUADPACK tolerance of theta(v) and c(v), and of horizontal_lift's c(t)
THETA_C_CACHE_SIZE = 4096  # theta/c values memoized per family profile
_THETA_C_CHUNK = 512  # values of v integrated per numpy batch, so temporaries stay small
# A path outside both boundary windows that ends nearer a domain bound than this fraction of its
# length goes to QUADPACK without the numpy first step, which would not settle it: in 1,500 random
# families no first step settled a path ending nearer than 0.02 of its length, and in 99% of the
# integrals none nearer than 0.07.
_FIRST_STEP_EDGE = 0.05
# Distinct v from which rotation_patch evaluates its generating curve on one array rather than one float
# at a time: numpy's fixed cost of about 0.1 ms a call pays from about 7 rows whose theta_c is still to
# integrate, and from about 22 memoized ones.
_CURVE_BATCH = 8
CHORD_E3_RATIO = 1e-8  # bound on |e^3(chord)| / |chord| of every generating-curve chord
MAX_CURVE_POINTS = 500_000  # point budget of one generating-curve sampling


def _sqrt1m(rp2_complement, v):
    """sqrt(1 - r'^2) from 1 - r'^2 at v, for a float or elementwise on arrays."""
    if isinstance(rp2_complement, np.ndarray):
        bad = np.flatnonzero(rp2_complement < -CLAMP)
        if bad.size:
            raise DomainViolationError(f"(r')^2 exceeds 1 at v={float(np.ravel(v)[bad[0]])!r}")
        return np.sqrt(np.maximum(rp2_complement, 0.0))
    if rp2_complement < -CLAMP:
        raise DomainViolationError(f"(r')^2 exceeds 1 at v={v!r}")
    return math.sqrt(max(rp2_complement, 0.0))


def _kernels(K_inf: float, r0: float):
    """r(t) and A(t) of the family at the unshifted parameter t: a pair on floats, a pair on arrays.

    Each formula is written once over (libm, sqrt, max).  On arrays only the
    transcendental goes through libm, mapped over the elements
    (batch.elementwise); *, /, sqrt and max are numpy's, which round
    correctly.  So an array evaluation equals the float one bit for bit, and
    every output file is independent of how the evaluation is batched.
    """
    root = math.sqrt(abs(K_inf))

    def family(libm, sqrt, maximum):
        if K_inf > 0.0:
            cos, tan = libm(math.cos), libm(math.tan)
            return lambda t: r0 * sqrt(maximum(cos(root * t), 0.0)), lambda t: -root * tan(root * t)
        if K_inf < 0.0:
            cosh, tanh = libm(math.cosh), libm(math.tanh)
            return lambda t: r0 * sqrt(cosh(root * t)), lambda t: root * tanh(root * t)
        return lambda t: r0 * sqrt(t), lambda t: 1.0 / t

    return family(lambda f: f, math.sqrt, max), family(lambda f: functools.partial(elementwise, f), np.sqrt, np.maximum)


def domain_bound(K_inf: float, r0: float) -> tuple[float, float]:
    """Open existence interval of the constant-curvature profile (shift 0).

    Solves (r')^2 = 1 in closed form; for K = 0 the interval is
    (r0^2/4, inf), otherwise it is symmetric about 0.  With a = 2/(r0^2 |K|)
    and root = sqrt(a^2 + 1) the end is at cos(sqrt(K) v) = root - a for
    K > 0 and at cosh(sqrt(-K) v) = root + a for K < 0; both are read
    through x = root + a - 1, formed without cancellation at any scale.
    """
    if not (math.isfinite(r0) and r0 > 0.0):
        raise ValueError(f"profile radius r0 must be positive, got {r0!r}")
    if not math.isfinite(K_inf):
        raise ValueError("curvature must be finite")
    if K_inf == 0.0:
        return r0 * r0 / 4.0, math.inf
    a = 2.0 / (r0 * r0 * abs(K_inf))
    root = math.sqrt(a * a + 1.0)
    x = a + a * a / (root + 1.0)
    if K_inf > 0.0:  # acos(s) = 2 asin(sqrt((1 - s)/2)), with 1 - s = x/(a + root)
        vmax = 2.0 * math.asin(math.sqrt(x / (a + root) / 2.0)) / math.sqrt(K_inf)
    else:  # acosh(1 + x)
        vmax = math.log1p(x + math.sqrt(x * (2.0 + x))) / math.sqrt(-K_inf)
    return -vmax, vmax


def _check_domain(v, bounds: tuple[float, float], what: str):
    """DomainViolationError unless v lies in the closed domain, to a relative 1e-12; on an array,
    the first element outside it is named."""
    lo, hi = bounds
    fuzz = 1e-12 * max(1.0, abs(lo) if math.isfinite(lo) else 0.0, abs(hi) if math.isfinite(hi) else 0.0)
    if isinstance(v, np.ndarray):
        bad = np.flatnonzero((v < lo - fuzz) | (v > hi + fuzz))
        if bad.size:
            _check_domain(float(v[bad[0]]), bounds, what)
        return
    if v < lo - fuzz or v > hi + fuzz:
        raise DomainViolationError(
            f"{what}: v = {v!r} outside the existence domain ({lo!r}, {hi!r})"
        )


def _check_band(profile: Profile, v_range) -> None:
    """ValueError unless v0 < v1, then DomainViolationError unless lo <= v0 < v1 <= hi
    in the profile's (shifted) existence domain."""
    (v0, v1), (lo, hi) = v_range, profile.domain
    if not v0 < v1:
        raise ValueError(f"v_range ({v0!r}, {v1!r}) must have v0 < v1")
    if not (lo <= v0 and v1 <= hi):
        raise DomainViolationError(
            f"v_range ({v0!r}, {v1!r}) not inside the existence domain ({lo!r}, {hi!r}) of {profile.name}"
        )


_CacheInfo = collections.namedtuple("CacheInfo", "hits misses maxsize currsize")


class _Memo:
    """theta_c's values by v, the THETA_C_CACHE_SIZE most recently used, with lru_cache's counts."""

    def __init__(self):
        self.maxsize = THETA_C_CACHE_SIZE
        self.values = collections.OrderedDict()
        self.hits = self.misses = 0

    def get(self, v):
        """The value at v, or None; counted as a hit or a miss."""
        value = self.values.get(v)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            self.values.move_to_end(v)
        return value

    def put(self, v, value):
        self.values[v] = value
        if len(self.values) > self.maxsize:
            self.values.popitem(last=False)

    def cache_info(self):
        return _CacheInfo(self.hits, self.misses, self.maxsize, len(self.values))


@dataclass(frozen=True)
class Profile:
    """Unit-speed generating-curve data for a surface of revolution.

    r, dr, A, kappa and theta_c take a float or an array of v; on an array
    a profile constant in v may return one float.  kappa, the planar
    curvature a'b'' - a''b' of the generating curve, gives the chart's
    second partials and picks chord lengths for exported polylines.
    theta_c(v) is the polar angle and height (theta, c) at v, a pair of
    arrays of v's shape on an array.
    """

    name: str
    domain: tuple[float, float]
    r: Callable[[float], float]
    dr: Callable[[float], float]
    A: Callable[[float], float]
    kappa: Callable[[float], float]
    theta_c: Callable[[float], tuple[float, float]]


def family_profile(K_inf: float, r0: float, c1_shift: float = 0.0) -> Profile:
    """Constant-curvature profile; c1_shift translates the profile parameter.

    The closures r, dr, A and kappa do not check the existence domain:
    callers check their interval endpoints once (sample_generating_curve,
    validate); they evaluate the family through _kernels.  theta_c checks
    its v and integrates from the anchor with QUADPACK, memoizing the last
    THETA_C_CACHE_SIZE values (theta_c.cache_info() counts as lru_cache's).
    QUADPACK calls its integrand once per node, so theta' and c' are one
    float function body per family, with the operations of _kernels and
    _sqrt1m written inline in the same order: the same bits as _integrands,
    one Python call a node.  On an array, theta_c takes QUADPACK's first
    step for every v it has not memoized at once, _THETA_C_CHUNK at a time,
    over _integrands (quadrature.kronrod_first_step), and calls QUADPACK
    only for the integrals that step does not settle: the values of the
    float path bit for bit.  Where any v of a batch fails, the float path
    runs over the array in order and raises what a scan of it raises.
    """
    lo, hi = domain_bound(K_inf, r0)
    if not math.isfinite(c1_shift):
        raise ValueError(f"c1_shift must be finite, got {c1_shift!r}")
    (r_t, A_t), (r_arrays, A_arrays) = _kernels(K_inf, r0)
    lo_s = lo - c1_shift
    hi_s = hi - c1_shift
    if K_inf == 0.0:
        anchor = lo_s + ANCHOR_EPS * max(1.0, abs(lo_s)) if lo_s <= 0 else lo_s * (1.0 + ANCHOR_EPS)
    else:
        anchor = -c1_shift

    def r(v):
        return (r_arrays if isinstance(v, np.ndarray) else r_t)(v + c1_shift)

    def A(v):
        return (A_arrays if isinstance(v, np.ndarray) else A_t)(v + c1_shift)

    def dr(v):
        # r' = r*A/2 since A = (ln r^2)' = 2 r'/r
        return 0.5 * r(v) * A(v)

    def curvature(rv, s):
        # a float division: it raises where rv * rv underflows to 0, on an array too
        return math.inf if s == 0.0 else (K_inf + 2.0 / (rv * rv)) * rv / (2.0 * s)

    def kappa(v):
        rv = r(v)
        s = _sqrt1m(1.0 - power(0.5 * rv * A(v), 2), v)
        # the sampler's walk calls kappa on a float every step, so a float skips elementwise's dispatch
        return elementwise(curvature, rv, s) if isinstance(v, np.ndarray) else curvature(rv, s)

    shift = f", c1_shift={c1_shift}" if c1_shift else ""
    name = f"constant-curvature({K_inf}, r0={r0}{shift})"
    domain = (lo_s, hi_s)

    root = math.sqrt(abs(K_inf))
    sqrt, cos, tan, cosh, tanh = math.sqrt, math.cos, math.tan, math.cosh, math.tanh

    def rate(k):
        """theta' (k = 0) or c' (k = 1) at a float t, r_t, A_t and _sqrt1m inlined.

        A steep point still raises through _sqrt1m, which owns the message;
        max keeps a NaN, as in _sqrt1m.
        """
        if K_inf > 0.0:

            def f(t):
                x = root * (t + c1_shift)
                rt = r0 * sqrt(max(cos(x), 0.0))
                w = 1.0 - (0.5 * rt * (-root * tan(x))) ** 2
                if w < -CLAMP:
                    _sqrt1m(w, t)
                s = sqrt(max(w, 0.0))
                return 0.5 * rt * s if k else s / rt

        elif K_inf < 0.0:

            def f(t):
                x = root * (t + c1_shift)
                rt = r0 * sqrt(cosh(x))
                w = 1.0 - (0.5 * rt * (root * tanh(x))) ** 2
                if w < -CLAMP:
                    _sqrt1m(w, t)
                s = sqrt(max(w, 0.0))
                return 0.5 * rt * s if k else s / rt

        else:

            def f(t):
                x = t + c1_shift
                rt = r0 * sqrt(x)
                w = 1.0 - (0.5 * rt * (1.0 / x)) ** 2
                if w < -CLAMP:
                    _sqrt1m(w, t)
                s = sqrt(max(w, 0.0))
                return 0.5 * rt * s if k else s / rt

        return f

    theta_rate, c_rate = rate(0), rate(1)

    def integrals(v):
        """theta and c at a float v: one QUADPACK call each."""
        # square-root substitution where 1 - r'^2 vanishes at a domain end
        _check_domain(v, domain, name)
        theta = integrate_with_boundary(theta_rate, anchor, v, domain, THETA_C_TOL)
        c = integrate_with_boundary(c_rate, anchor, v, domain, THETA_C_TOL)
        return theta, c

    def batch_integrals(vs):
        """integrals(v) at each float of the list vs, as two arrays: QUADPACK's first step for all of
        them in numpy, then QUADPACK itself where that step does not settle, on a split path and at
        the anchor."""
        v = np.array(vs)
        _check_domain(v, domain, name)
        a, b = np.minimum(v, anchor), np.maximum(v, anchor)  # the path, as integrate_with_boundary orders it
        near_lo = np.zeros(len(v), dtype=bool) | _in_window(a - lo_s, lo_s)
        near_hi = np.zeros(len(v), dtype=bool) | _in_window(hi_s - b, hi_s)
        lower, upper = near_lo & ~near_hi, near_hi & ~near_lo
        x0, x1 = a.copy(), b.copy()
        x0[lower], x1[lower] = np.sqrt(a[lower] - lo_s), np.sqrt(b[lower] - lo_s)
        x0[upper], x1[upper] = np.sqrt(hi_s - b[upper]), np.sqrt(hi_s - a[upper])
        clear = np.minimum(a - lo_s, hi_s - b) >= _FIRST_STEP_EDGE * (b - a)
        rows = np.flatnonzero((lower | upper | clear) & ~(near_lo & near_hi) & (x0 < x1) & np.isfinite(x1))
        lower, upper = lower[rows], upper[rows]
        window = lower | upper

        def rates(s):
            """theta' and c' at the nodes s, in s = sqrt(t - lo) or sqrt(hi - t) on a window's rows."""
            t = s.copy()
            t[lower] = lo_s + s[lower] * s[lower]
            t[upper] = hi_s - s[upper] * s[upper]
            pair = _integrands(r, A, t)
            for derivative in pair:
                derivative[window] *= 2.0 * s[window]
            return pair

        values = np.empty((2, len(v)))  # theta, c
        settled = np.zeros((2, len(v)), dtype=bool)
        if rows.size:
            flip = v[rows] < anchor
            for k, (result, _, accepted) in enumerate(kronrod_first_step(rates, x0[rows], x1[rows], THETA_C_TOL)):
                values[k, rows] = np.where(flip, -result, result)
                settled[k, rows] = accepted & np.isfinite(result)
        for out, done, f in zip(values, settled, (theta_rate, c_rate)):
            for i in np.flatnonzero(~done).tolist():
                out[i] = integrate_with_boundary(f, anchor, vs[i], domain, THETA_C_TOL)
        return values

    memo = _Memo()

    def memoized(v):
        value = memo.get(v)
        if value is None:
            value = integrals(v)
            memo.put(v, value)
        return value

    def theta_c(v):
        if not isinstance(v, np.ndarray):
            return memoized(v)
        flat = v.ravel().tolist()
        found = {x: memo.get(x) for x in dict.fromkeys(flat)}
        pending = [x for x, value in found.items() if value is None]
        try:
            with np.errstate(all="ignore"):
                for start in range(0, len(pending), _THETA_C_CHUNK):
                    chunk = pending[start : start + _THETA_C_CHUNK]
                    for x, value in zip(chunk, zip(*batch_integrals(chunk).tolist())):
                        found[x] = value
                        memo.put(x, value)
        except POINT_FAILURES:
            # the float path over v in order raises the error that a scan of v raises
            found = {x: memoized(x) for x in flat}
        theta, c = np.array([found[x] for x in flat], dtype=float).reshape(-1, 2).T
        return theta.reshape(v.shape), c.reshape(v.shape)

    theta_c.cache_info = memo.cache_info

    return Profile(
        name=name,
        domain=domain,
        r=r,
        dr=dr,
        A=A,
        kappa=kappa,
        theta_c=theta_c,
    )


def line_profile() -> Profile:
    """Radial straight-line profile r = v: the plane z = 0 in polar form."""

    def theta_c(v):
        zero = np.zeros(v.shape) if isinstance(v, np.ndarray) else 0.0
        return zero, zero

    return Profile(
        name="plane",
        domain=(0.0, math.inf),
        r=lambda v: v,
        dr=lambda v: 1.0,
        A=lambda v: 2.0 / v,
        kappa=lambda v: 0.0,
        theta_c=theta_c,
    )


def circle_profile() -> Profile:
    """Unit-circle profile r = 1: the vertical cylinder x^2 + y^2 = 1."""
    return Profile(
        name="cylinder",
        domain=(-math.inf, math.inf),
        r=lambda v: 1.0,
        dr=lambda v: 0.0,
        A=lambda v: 0.0,
        kappa=lambda v: 1.0,
        theta_c=lambda v: (v, 0.5 * v),
    )


def _integrands(r, A, t):
    """theta' = sqrt(1 - r'^2)/r and c' = r sqrt(1 - r'^2)/2 at t (float or array), with r' = r A/2."""
    rt = r(t)
    s = _sqrt1m(1.0 - power(0.5 * rt * A(t), 2), t)
    return s / rt, 0.5 * rt * s


def horizontal_lift(a, b, t: float) -> float:
    """Height c(t) = (1/2) int_0^t (a b' - b a') restoring horizontality."""
    a_tree = _expr.parse(a) if isinstance(a, str) else a
    b_tree = _expr.parse(b) if isinstance(b, str) else b

    def integrand(s: float) -> float:
        da = _expr._eval_dual_t(a_tree, s)
        db = _expr._eval_dual_t(b_tree, s)
        return 0.5 * (da.value * db.d_u - db.value * da.d_u)

    return integrate(integrand, 0.0, t, THETA_C_TOL)


# ---------------------------------------------------------------------------
# Patches and meshes


def rotation_patch(
    profile: Profile,
    v_range: tuple[float, float],
    orientation: int = 1,
    name: Optional[str] = None,
) -> SurfacePatch:
    """Surface of revolution as a patch over [0, 2*pi] x v_range."""
    _check_band(profile, v_range)

    def curve(v):
        """The generating curve (a, b, c)(v) and its first two derivatives, at a float or an array of v."""
        r = profile.r(v)
        rp = profile.dr(v)
        theta, c = profile.theta_c(v)
        s = _sqrt1m(1.0 - rp * rp, v)
        ct, st = elementwise(math.cos, theta), elementwise(math.sin, theta)
        a, b = r * ct, r * st
        ap = rp * ct - s * st  # r*theta' = sqrt(1 - r'^2) for unit speed
        bp = rp * st + s * ct
        cp = 0.5 * r * s
        # unit speed: (a'', b'') = kappa (-b', a'), so c' = (a b' - b a')/2
        # gives c'' = kappa (a a' + b b')/2 = kappa r r'/2
        k = profile.kappa(v)
        return a, b, c, ap, bp, cp, -k * bp, k * ap, 0.5 * k * r * rp

    def jet2(u, v):
        if isinstance(v, np.ndarray):
            # the distinct v in one call; below _CURVE_BATCH of them, or where that call fails, one at a time
            # in order, which fails as the scalar loop fails
            distinct, at = np.unique(v, return_inverse=True)
            rows = None
            if distinct.size >= _CURVE_BATCH:
                try:
                    with np.errstate(all="ignore"):
                        rows = curve(distinct)
                except POINT_FAILURES:
                    pass
            if rows is None:
                rows = np.array([curve(x) for x in distinct.tolist()]).T
            # a profile constant in v may give one float
            a, b, c, ap, bp, cp, app, bpp, cpp = (x[at] if isinstance(x, np.ndarray) else np.full(at.shape, x) for x in rows)
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
        # up to lo + 2, or, once start has passed that (lo above 2e6), to lo + 3 (start - lo)
        end = lo + 2.0 if lo + 2.0 > start else start + 2.0 * (start - lo)
        return start - c1_shift, end - c1_shift
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

    def resolved_v_range(self) -> tuple[float, float]:
        if self.v_range is not None:
            return tuple(self.v_range)
        return default_v_range(self.K_inf, self.r0, self.c1_shift)

    def validate(self) -> Profile:
        """The family profile, once the sample counts and the band are checked."""
        if self.samples_u < 3 or self.samples_v < 2:
            raise ValueError("mesh needs at least 3 x 2 samples")
        if self.n_curves < 0:
            raise ValueError("n_curves must be non-negative")
        profile = family_profile(self.K_inf, self.r0, self.c1_shift)
        _check_band(profile, self.resolved_v_range())
        return profile


@dataclass
class Mesh:
    """Vertex grid with triangles and embedded horizontal polylines."""

    vertices: np.ndarray  # (n, 3)
    faces: np.ndarray  # (m, 3) int indices into vertices
    polylines: list = field(default_factory=list)  # list of (k, 3) arrays
    profile_rows: Optional[np.ndarray] = None  # columns: v, r, r', theta, c, A


def e3_chord_ratio(points: np.ndarray) -> np.ndarray:
    """|e^3(chord)| / |chord| at segment midpoints of a polyline."""
    delta = np.diff(points, axis=0)
    mid = 0.5 * (points[1:] + points[:-1])
    e3 = e3_coefficient(mid[:, 0], mid[:, 1], delta[:, 0], delta[:, 1], delta[:, 2])
    norms = np.linalg.norm(delta, axis=1)
    return np.abs(e3) / np.maximum(norms, 1e-300)


def sample_generating_curve(profile: Profile, v0: float, v1: float) -> np.ndarray:
    """Adaptive samples (v, a, b, c) of the generating horizontal curve.

    Chord lengths are chosen from the profile curvature so that every
    segment satisfies |e^3(midpoint chord)| <= CHORD_E3_RATIO * |chord|; a
    chord above that bound, or a walk of more than MAX_CURVE_POINTS points,
    raises GeometryError.  theta and c accumulate per segment with a fixed
    Gauss rule (plus the boundary substitution), keeping consecutive points
    consistent to far below the chord tolerance.
    """
    _check_band(profile, (v0, v1))
    theta0, c0 = profile.theta_c(v0)

    span = v1 - v0
    dv_cap = span / 64.0
    dv_floor = span * 1e-9
    target = 0.6 * CHORD_E3_RATIO

    # Each step depends on the previous v, so the walk stays scalar.  A step
    # that k_ahead did not shorten ends where k_ahead was taken: reuse it.
    vs = [v0]
    v = v0
    v_ahead = k_ahead = math.nan
    while v < v1:
        k_here = k_ahead if v == v_ahead else abs(profile.kappa(v))
        dv = min(math.sqrt(12.0 * target / max(k_here, 1e-12)), dv_cap)
        v_ahead = min(v + dv, v1)
        k_ahead = abs(profile.kappa(v_ahead))
        dv = min(dv, math.sqrt(12.0 * target / max(k_ahead, 1e-12)))
        dv = max(dv, dv_floor)
        # the last step ends exactly at v1 and is never shorter than dv_floor
        v = v + dv if v + dv < v1 - dv_floor else v1
        vs.append(v)
        if len(vs) > MAX_CURVE_POINTS:
            raise GeometryError(
                f"generating-curve sampling exceeded the point budget ({MAX_CURVE_POINTS}) "
                f"at v = {v!r} in [{v0!r}, {v1!r}]"
            )
    vs = np.array(vs)
    d_theta, d_c = gauss_segments(functools.partial(_integrands, profile.r, profile.A), vs[:-1], vs[1:], profile.domain)
    thetas = np.cumsum(np.concatenate(([theta0], d_theta)))
    cs = np.cumsum(np.concatenate(([c0], d_c)))
    r = profile.r(vs)
    pts = np.column_stack([r * elementwise(math.cos, thetas), r * elementwise(math.sin, thetas), cs])

    ratios = e3_chord_ratio(pts)
    k = int(np.argmax(ratios))  # the worst chord; a NaN counts as the worst
    if not ratios[k] <= CHORD_E3_RATIO:
        raise GeometryError(
            f"generating-curve chord over v in [{float(vs[k])!r}, {float(vs[k + 1])!r}] has e3 ratio "
            f"{ratios[k]:.3g} above the bound {CHORD_E3_RATIO:g}"
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
    profile = spec.validate()
    v0, v1 = spec.resolved_v_range()
    nu, nv = spec.samples_u, spec.samples_v
    us = np.linspace(0.0, 2.0 * math.pi, nu)
    vvs = np.linspace(v0, v1, nv)

    r, rp, A = profile.r(vvs), profile.dr(vvs), profile.A(vvs)
    _sqrt1m(1.0 - rp * rp, vvs)
    theta, c = profile.theta_c(vvs)
    a, b = r * elementwise(math.cos, theta), r * elementwise(math.sin, theta)
    cu, su = np.cos(us), np.sin(us)
    x, y = np.outer(a, cu) - np.outer(b, su), np.outer(b, cu) + np.outer(a, su)
    vertices = np.stack([x, y, np.repeat(c, nu).reshape(nv, nu)], axis=-1).reshape(-1, 3)
    k0 = (np.arange(nv - 1)[:, None] * nu + np.arange(nu - 1)).ravel()
    faces = np.stack([k0, k0 + 1, k0 + nu, k0 + 1, k0 + nu + 1, k0 + nu], axis=1).reshape(-1, 3)

    polylines = []
    if spec.n_curves > 0:
        curve = sample_generating_curve(profile, v0, v1)[:, 1:]
        for k in range(spec.n_curves):
            polylines.append(_rotate_xy(curve, 2.0 * math.pi * k / spec.n_curves))

    return Mesh(
        vertices=vertices,
        faces=faces,
        polylines=polylines,
        profile_rows=np.column_stack([vvs, r, rp, theta, c, A]),
    )
