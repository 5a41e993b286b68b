import dataclasses
import functools
import math
import sys

import helpers
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate as si

from h1geom import catalog, quadrature, rotsurf
from h1geom.errors import DomainViolationError, GeometryError
from h1geom.export import write_obj
from h1geom.rotsurf import (
    THETA_C_CACHE_SIZE,
    RotationSurfaceSpec,
    build_mesh,
    circle_profile,
    default_v_range,
    domain_bound,
    e3_chord_ratio,
    family_profile,
    horizontal_lift,
    line_profile,
    rotation_patch,
    sample_generating_curve,
)
from h1geom.surface import frame_data, pushforward_frame


# ---------------------------------------------------------------------------
# closed-form families


def test_r_family_values():
    assert family_profile(1.0, 1.0).r(0.0) == 1.0
    assert family_profile(0.0, 1.0).r(4.0) == 2.0
    assert family_profile(-1.0, 1.0).r(0.0) == 1.0
    assert family_profile(2.0, 0.5).r(0.1) == pytest.approx(0.5 * math.sqrt(math.cos(math.sqrt(2) * 0.1)))


def test_A_family_values_and_ode():
    assert family_profile(1.0, 1.0).A(0.0) == 0.0
    assert family_profile(0.0, 1.0).A(2.0) == 0.5
    assert family_profile(-4.0, 1.0).A(0.3) == pytest.approx(2.0 * math.tanh(0.6))
    # K = -dA/dv - A^2 by centered differences
    h = 1e-6
    for K, v in ((1.0, 0.7), (0.0, 1.3), (-1.0, -0.9), (2.5, 0.2), (-0.3, 2.0)):
        A = family_profile(K, 1.0).A
        dA = (A(v + h) - A(v - h)) / (2 * h)
        assert -dA - A(v) ** 2 == pytest.approx(K, abs=1e-9)


def test_A_equals_log_derivative_of_r_squared():
    h = 1e-6
    for K, r0, v in ((1.0, 1.0, 0.5), (0.0, 1.5, 1.2), (-1.0, 0.7, -0.8)):
        profile = family_profile(K, r0)
        fd = (math.log(profile.r(v + h) ** 2) - math.log(profile.r(v - h) ** 2)) / (2 * h)
        assert profile.A(v) == pytest.approx(fd, abs=1e-8)


def _bisect_domain_edge(K, r0):
    """Independent oracle: smallest v > start with r'(v)^2 = 1 by bisection.

    Uses its own profile formulas (valid slightly past the edge), so it does
    not inherit the implementation's domain bookkeeping.
    """

    def r_raw(v):
        if K > 0:
            return r0 * math.sqrt(math.cos(math.sqrt(K) * v))
        if K < 0:
            return r0 * math.sqrt(math.cosh(math.sqrt(-K) * v))
        return r0 * math.sqrt(v)

    def rp_sq(v, h=1e-4):
        # five-point stencil keeps the oracle itself accurate to ~1e-12
        d = (r_raw(v - 2 * h) - 8 * r_raw(v - h) + 8 * r_raw(v + h) - r_raw(v + 2 * h)) / (
            12 * h
        )
        return d * d

    if K > 0:
        lo, hi = 0.0, math.pi / (2 * math.sqrt(K)) * (1 - 1e-12)
    elif K < 0:
        lo, hi = 0.0, 1.0
        while rp_sq(hi) < 1.0:
            hi *= 2.0
    else:
        # K = 0: r'^2 = r0^2/(4v), decreasing; edge where it equals 1
        lo, hi = r0 * r0 / 8.0, 4.0 * r0 * r0
        for _ in range(300):
            mid = 0.5 * (lo + hi)
            if rp_sq(mid) > 1.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if rp_sq(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_domain_bound_against_bisection():
    lo, hi = domain_bound(1.0, 1.0)
    assert hi == pytest.approx(_bisect_domain_edge(1.0, 1.0), abs=1e-9)
    assert hi == pytest.approx(math.acos(math.sqrt(5.0) - 2.0), rel=1e-14)
    assert lo == -hi

    lo, hi = domain_bound(-1.0, 1.0)
    assert hi == pytest.approx(_bisect_domain_edge(-1.0, 1.0), abs=1e-9)
    assert hi == pytest.approx(math.acosh(2.0 + math.sqrt(5.0)), rel=1e-14)

    lo, hi = domain_bound(0.0, 1.0)
    assert lo == 0.25  # exactly r0^2/4
    assert hi == math.inf
    assert lo == pytest.approx(_bisect_domain_edge(0.0, 1.0), abs=1e-9)

    lo2, hi2 = domain_bound(2.0, 0.8)
    assert hi2 == pytest.approx(_bisect_domain_edge(2.0, 0.8), abs=1e-9)


DOMAIN_R0 = (1e-3, 0.5, 1.0, 2.0, 1e2, 1e4, 1e5, 1e8)
# the end of the existence domain for r0 in DOMAIN_R0, from the closed forms
# acos(-2/q + sqrt(4/q^2 + 1))/sqrt(K) and acosh(2/q + sqrt(1 + 4/q^2))/sqrt(-K),
# q = r0^2 |K|, in 60-digit mpmath arithmetic, rounded to the nearest double
DOMAIN_END = {
    0.25: (3.1415925285897934, 3.1103490084866436, 3.016996578792184, 2.664957729970061,
           0.0799893294951629, 0.0007999999893333329, 7.999999998933333e-05, 7.999999999999999e-08),
    1.0: (1.5707960767948965, 1.508498289396092, 1.3324788649850305, 0.9045568943023814,
          0.019999333273340476, 0.00019999999933333334, 1.9999999999333332e-05, 2e-08),
    4.0: (0.7853976633974483, 0.6662394324925153, 0.4522784471511907, 0.24452216513554015,
          0.004999958332395861, 4.9999999958333334e-05, 4.999999999958333e-06, 5e-09),
    -0.25: (34.562492921528005, 9.70442660846156, 6.937298085951865, 4.245100247620143,
            0.0800106628248391, 0.0008000000106666663, 8.000000001066667e-05, 8.000000000000001e-08),
    -1.0: (15.894952099644156, 3.4686490429759327, 2.1225501238100715, 1.0612750619050357,
           0.020000666606659525, 0.00020000000066666666, 2.0000000000666667e-05, 2e-08),
    -4.0: (7.254328869262484, 1.0612750619050357, 0.5306375309525179, 0.2548955733405508,
           0.005000041665729139, 5.0000000041666664e-05, 5.000000000041667e-06, 5e-09),
}


@pytest.mark.parametrize("K", sorted(DOMAIN_END))
def test_domain_bound_within_two_ulp_at_every_scale(K):
    for r0, end in zip(DOMAIN_R0, DOMAIN_END[K]):
        lo, hi = domain_bound(K, r0)
        assert lo == -hi
        assert abs(hi - end) <= 2 * math.ulp(end), (r0, hi, end)


@pytest.mark.parametrize("K", sorted(DOMAIN_END))
def test_domain_bound_meets_its_large_radius_asymptote(K):
    # hi = 2/(r0 |K|) (1 + O(1/(r0^2 |K|)))
    assert domain_bound(K, 1e8)[1] * 1e8 * abs(K) == pytest.approx(2.0, rel=4e-16)


def test_domain_violation_errors():
    with pytest.raises(DomainViolationError):
        sample_generating_curve(family_profile(1.0, 1.0), 0.0, 1.4)
    with pytest.raises(DomainViolationError):
        family_profile(0.0, 1.0).theta_c(0.1)
    with pytest.raises(DomainViolationError):
        rotation_patch(family_profile(0.0, 1.0), (-1.0, 1.0))
    with pytest.raises(ValueError):
        domain_bound(1.0, -1.0)


def test_endpoint_behavior():
    # r'(v)^2 -> 1 approaching the domain edge
    for K in (1.0, -1.0):
        _, vmax = domain_bound(K, 1.0)
        v = vmax - 1e-8
        h = 1e-10
        r = family_profile(K, 1.0).r
        rp = (r(v + h) - r(v - h)) / (2 * h)
        assert rp * rp == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# theta / c quadrature


def test_theta_c_anchor_is_zero():
    for K in (1.0, -1.0):
        assert family_profile(K, 1.0).theta_c(0.0) == (0.0, 0.0)


def test_theta_c_k0_closed_forms():
    # independent antiderivatives for r0 = 1 starting at the domain edge 1/4:
    # c(v) = (4v-1)^{3/2}/24, theta(v) = w - atan(w) with w = sqrt(4v-1)
    thetac = family_profile(0.0, 1.0).theta_c
    for v in (0.5, 1.25, 2.0):
        theta, c = thetac(v)
        w = math.sqrt(4.0 * v - 1.0)
        assert c == pytest.approx((4.0 * v - 1.0) ** 1.5 / 24.0, abs=1e-9)
        assert theta == pytest.approx(w - math.atan(w), abs=1e-9)
    theta, c = thetac(1.25)
    assert c == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert theta == pytest.approx(2.0 - math.atan(2.0), abs=1e-9)


def test_theta_c_integrand_consistency():
    # theta' * r = sqrt(1 - r'^2) and c' = r sqrt(1 - r'^2)/2 at interior points
    h = 1e-6
    for K, v in ((1.0, 0.6), (-1.0, 1.0), (0.0, 0.9)):
        thetac = family_profile(K, 1.0).theta_c
        theta_p = (thetac(v + h)[0] - thetac(v - h)[0]) / (2 * h)
        c_p = (thetac(v + h)[1] - thetac(v - h)[1]) / (2 * h)
        r_of = helpers.reference_family_kernels(K, 1.0, 0.0)[0]
        r = r_of(v)
        rp = (r_of(v + h) - r_of(v - h)) / (2 * h)
        root = math.sqrt(1.0 - rp * rp)
        assert theta_p * r == pytest.approx(root, abs=1e-6)
        assert c_p == pytest.approx(0.5 * r * root, abs=1e-6)


def test_theta_c_outside_domain():
    with pytest.raises(DomainViolationError):
        family_profile(1.0, 1.0).theta_c(1.4)


@pytest.mark.parametrize("K", [1.0, -1.0])
def test_theta_c_on_a_domain_narrower_than_the_boundary_window(K):
    # the domain is (-2e-5, 2e-5), so a path from the anchor 0 near one end is near both;
    # the quadrature used to split it at its own midpoint until RecursionError
    profile = family_profile(K, 1e5)
    lo, hi = profile.domain
    assert hi - lo < quadrature.BOUNDARY_WINDOW

    def integrands(t):
        r = 1e5 * math.sqrt(math.cos(t) if K > 0 else math.cosh(t))
        rp = 0.5 * r * (-math.tan(t) if K > 0 else math.tanh(t))  # r' = r A / 2
        root = math.sqrt(max(1.0 - rp * rp, 0.0))
        return root / r, 0.5 * r * root

    for v in (1e-5, 0.95 * hi, -0.75 * hi, 0.999 * lo):
        expected = [si.quad(lambda t: integrands(t)[j], 0.0, v, epsabs=1e-14, limit=200)[0] for j in (0, 1)]
        assert profile.theta_c(v) == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# horizontal lift


def test_horizontal_lift_circle():
    # (cos t, sin t) lifts with c = t/2
    for t in (0.5, 2.0, -1.2):
        assert horizontal_lift("cos(t)", "sin(t)", t) == pytest.approx(0.5 * t, abs=1e-10)


def test_horizontal_lift_line():
    assert horizontal_lift("t", "0", 3.0) == pytest.approx(0.0, abs=1e-12)


def test_horizontal_lift_is_horizontal():
    # e^3(gamma') = c' + (b a' - a b')/2 = 0 along the lifted curve
    import h1geom.expr as ex

    a_tree, b_tree = ex.parse("t^2"), ex.parse("sin(t)")
    h = 1e-5
    for t in (0.4, 1.1):
        cp = (
            horizontal_lift(a_tree, b_tree, t + h) - horizontal_lift(a_tree, b_tree, t - h)
        ) / (2 * h)
        da = ex._eval_dual_t(a_tree, t)
        db = ex._eval_dual_t(b_tree, t)
        residual = cp + 0.5 * (db.value * da.d_u - da.value * db.d_u)
        assert abs(residual) <= 1e-10


# ---------------------------------------------------------------------------
# profiles and patches


def test_profile_unit_speed():
    # planar speed of the generating curve is 1: (a')^2 + (b')^2 = 1
    for K in (1.0, 0.0, -1.0):
        patch = catalog.constant_curvature(K)
        for v in (0.4, 0.9) if K == 0.0 else (-0.7, 0.5):
            _, _, dv = patch.jet(0.0, v)
            assert dv[0] ** 2 + dv[1] ** 2 == pytest.approx(1.0, abs=1e-10)


def test_generating_sample_matches_eq12_tilt():
    for K in (1.0, 0.0, -1.0):
        profile = family_profile(K, 1.0)
        A = helpers.reference_family_kernels(K, 1.0, 0.0)[1]
        for v in (0.5, 1.1) if K == 0.0 else (-0.4, 0.6):
            assert profile.A(v) == pytest.approx(A(v), rel=1e-12)


def test_pipeline_recovers_constant_curvature():
    rng = np.random.default_rng(20260808)
    for K in (1.0, 0.0, -1.0):
        patch = catalog.constant_curvature(K)
        v0, v1 = patch.v_range
        width = v1 - v0
        for _ in range(25):
            u = float(rng.uniform(0, 2 * math.pi))
            v = float(rng.uniform(v0 + 0.05 * width, v1 - 0.05 * width))
            s, fd = frame_data(patch, u, v)
            assert -fd.dA_f2 - s.A**2 == pytest.approx(K, abs=1e-12)


def test_corrected_alpha_gradient_matches_fd():
    # dalpha/dv = (a' b'' - a'' b')/((a')^2 + (b')^2), checked against the
    # geometric alpha sampled through the adapted frame
    for K in (1.0, -1.0, 0.0):
        patch = catalog.constant_curvature(K)
        v = 0.8 if K == 0.0 else 0.4
        u = 1.0
        h = 1e-5

        def alpha_at(vv):
            return frame_data(patch, u, vv)[0].alpha

        fd_alpha = (alpha_at(v + h) - alpha_at(v - h)) / (2 * h)
        kappa = family_profile(K, 1.0).kappa(v)
        assert fd_alpha == pytest.approx(kappa, abs=1e-6)

        # and kappa agrees with the planar-curvature finite difference of (a', b')
        def planar_derivs(vv):
            _, _, dv_col = patch.jet(0.0, vv)
            return dv_col[0], dv_col[1]

        ap_p, bp_p = planar_derivs(v + h)
        ap_m, bp_m = planar_derivs(v - h)
        ap, bp = planar_derivs(v)
        app = (ap_p - ap_m) / (2 * h)
        bpp = (bp_p - bp_m) / (2 * h)
        assert (ap * bpp - app * bp) / (ap * ap + bp * bp) == pytest.approx(kappa, abs=1e-6)


def test_log_r_squared_ode_reconciliation():
    # K + (ln r^2)'' + ((ln r^2)')^2 = 0, second derivative by 5-point stencil
    h = 1e-3
    for K, v in ((1.0, 0.5), (0.0, 1.0), (-1.0, -0.7)):
        r = family_profile(K, 1.0).r

        def g(vv):
            return math.log(r(vv) ** 2)

        d1 = (g(v - 2 * h) - 8 * g(v - h) + 8 * g(v + h) - g(v + 2 * h)) / (12 * h)
        d2 = (-g(v - 2 * h) + 16 * g(v - h) - 30 * g(v) + 16 * g(v + h) - g(v + 2 * h)) / (
            12 * h * h
        )
        assert K + d2 + d1 * d1 == pytest.approx(0.0, abs=1e-8)


def test_rotation_patch_rejects_bad_range():
    with pytest.raises(DomainViolationError):
        rotation_patch(family_profile(1.0, 1.0), (-1.5, 1.5))


def test_default_v_range_inside_domain():
    for K in (1.0, 0.0, -1.0, 2.5, -0.4):
        lo, hi = default_v_range(K, 1.0)
        dlo, dhi = domain_bound(K, 1.0)
        assert dlo < lo < hi < dhi


@pytest.mark.parametrize("r0", [0.1, 1.0, 100.0, 2000.0, 2828.0, 2829.0, 3000.0, 1e5, 1e8])
def test_zero_curvature_default_band_ends_above_its_start(r0):
    dlo, dhi = domain_bound(0.0, r0)
    lo, hi = default_v_range(0.0, r0)
    assert dlo < lo < hi < dhi
    if dlo + 2.0 > lo:  # a band that was valid keeps its floats
        assert (lo, hi) == (dlo * (1.0 + 1e-6), dlo + 2.0)
    assert default_v_range(0.0, 1.0) == (0.25000025, 2.25)  # figure 2


def test_sqrt1m_names_v_alike_for_a_float_and_an_array():
    v = -2.0651955770338075e-08
    with pytest.raises(DomainViolationError) as one:
        rotsurf._sqrt1m(-0.066, v)
    with pytest.raises(DomainViolationError) as batch:
        rotsurf._sqrt1m(np.array([0.5, -0.066]), np.array([0.0, v]))
    assert str(batch.value) == str(one.value) == f"(r')^2 exceeds 1 at v={v!r}"


# The profile's kernels against the scalar formulas: theta_c hands QUADPACK
# one fused float closure per integral, and the sampler's Gauss nodes go
# through _integrands on arrays, which maps only cos, tan, cosh and tanh
# through libm.  Both must be the reference to the last bit.

FAMILIES = st.tuples(
    st.one_of(st.just(0.0), st.floats(0.25, 4.0), st.floats(-4.0, -0.25)),
    st.floats(0.5, 2.0),
    st.floats(-1.0, 1.0),
)


def _quadpack_integrands(profile):
    """The theta' and c' closures theta_c passes to integrate_with_boundary."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rotsurf, "integrate_with_boundary", lambda f, a, b, bounds, tol: seen.append(f) or 0.0)
        lo, hi = profile.domain
        profile.theta_c(0.5 * (lo + hi) if math.isfinite(hi) else lo + 1.0)
    return seen


@st.composite
def _domain_points(draw):
    """Parameters t inside the existence domain, near either bound within the boundary window or away from both."""
    K, r0, c1_shift = family = draw(FAMILIES)
    lo, hi = family_profile(K, r0, c1_shift).domain
    ts = []
    for where, frac in draw(st.lists(st.tuples(st.sampled_from(["lo", "hi", "inside"]), st.floats(0.0, 1.0)), min_size=1, max_size=64)):
        if where == "lo":
            ts.append(lo + frac * quadrature.BOUNDARY_WINDOW * max(1.0, abs(lo)))
        elif where == "hi" and math.isfinite(hi):
            ts.append(hi - frac * quadrature.BOUNDARY_WINDOW * max(1.0, abs(hi)))
        else:
            ts.append(lo + frac * (min(hi, lo + 3.0) - lo))
    return family, ts


@settings(max_examples=200, deadline=None)
@given(_domain_points())
# points where (r')^2 as libm pow(r', 2) and as r' * r' give theta' or c' one ulp apart
@example(((0.0, 1.0, 0.1), [0.374152776581991]))
@example(((-1.0, 1.0, 0.1), [-2.156897968614158]))
@example(((2.5, 1.0, 0.1), [0.4918093102690827]))
def test_profile_kernels_are_the_scalar_reference_bit_for_bit(point):
    (K, r0, c1_shift), ts = point
    profile = family_profile(K, r0, c1_shift)
    r, A, dr = helpers.reference_family_kernels(K, r0, c1_shift)
    expected = [tuple(map(repr, helpers.reference_integrands(r, dr, t))) for t in ts]
    theta_rate, c_rate = _quadpack_integrands(profile)
    assert [(repr(theta_rate(t)), repr(c_rate(t))) for t in ts] == expected
    theta, c = rotsurf._integrands(profile.r, profile.A, np.array(ts))
    assert list(zip(map(repr, theta.tolist()), map(repr, c.tolist()))) == expected
    for on_array, on_float in ((profile.r, r), (profile.A, A), (profile.dr, dr)):
        assert list(map(repr, on_array(np.array(ts)).tolist())) == [repr(on_float(t)) for t in ts]


@pytest.mark.parametrize("K", [1.0, 0.0, -1.0])
def test_quadpack_integrands_are_one_python_call_per_node(K):
    # QUADPACK calls the integrand once per node from C; an integrand that calls
    # r_t, A_t or _sqrt1m on an in-domain node pays three more Python calls a node
    profile = family_profile(K, 1.0, 0.25)
    lo, hi = profile.domain
    t = 0.5 * (lo + hi) if math.isfinite(hi) else lo + 1.0
    for f in _quadpack_integrands(profile):
        calls = []
        sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code) if event == "call" else None)
        try:
            f(t)
        finally:
            sys.setprofile(None)
        assert calls == [f.__code__]


@settings(max_examples=100, deadline=None)
@given(FAMILIES, st.floats(0.05, 0.95), st.booleans())
def test_profile_kernels_reject_a_steep_point_alike_on_a_float_and_an_array(family, frac, upper):
    K, r0, c1_shift = family
    profile = family_profile(K, r0, c1_shift)
    lo, hi = domain_bound(K, r0)
    if K > 0.0:  # between the domain end and the pole of tan
        x = hi + frac * (0.5 * math.pi / math.sqrt(K) - hi)
    elif K < 0.0:
        x = hi + frac
    else:  # 0 < x < r0^2/4
        x, upper = frac * lo, True
    t = (x if upper else -x) - c1_shift
    r, _, dr = helpers.reference_family_kernels(K, r0, c1_shift)
    inside = 0.5 * sum(profile.domain) if K else profile.domain[0] + 1.0
    message = f"(r')^2 exceeds 1 at v={t!r}"
    for evaluate in (
        *_quadpack_integrands(profile),
        lambda t: helpers.reference_integrands(r, dr, t),
        lambda t: rotsurf._integrands(profile.r, profile.A, np.array([inside, t])),
    ):
        with pytest.raises(DomainViolationError) as info:
            evaluate(t)
        assert str(info.value) == message


# theta_c on an array: QUADPACK's first step in numpy for every v, QUADPACK where it does not settle;
# the values, and the error of a failing v, are those of the float path v by v.


def _theta_c_bits(values):
    return [(float(theta).hex(), float(c).hex()) for theta, c in values]


def _assert_theta_c_array_is_floats(make_profile, vs):
    theta, c = make_profile().theta_c(np.array(vs))
    assert theta.shape == c.shape == (len(vs),)
    floats = make_profile()
    assert _theta_c_bits(zip(theta.tolist(), c.tolist())) == _theta_c_bits(floats.theta_c(v) for v in vs)


@settings(max_examples=150, deadline=None)
@given(_domain_points())
def test_theta_c_on_an_array_is_the_float_path_bit_for_bit(point):
    # points in either boundary window, away from both, and the anchor of K != 0 (repeated, too)
    (K, r0, c1_shift), vs = point
    if K:
        vs += [-c1_shift, -c1_shift]
    _assert_theta_c_array_is_floats(functools.partial(family_profile, K, r0, c1_shift), vs)


@pytest.mark.parametrize("K", [1.0, -1.0])
def test_theta_c_on_an_array_on_a_domain_narrower_than_the_boundary_window(K):
    # every path from the anchor 0 lies in both windows: split at the domain's midpoint or not
    lo, hi = family_profile(K, 1e5).domain
    vs = [1e-5, 0.95 * hi, -0.75 * hi, 0.999 * lo, 0.0, hi, lo, 0.25 * hi]
    _assert_theta_c_array_is_floats(functools.partial(family_profile, K, 1e5), vs)


def test_theta_c_on_an_array_in_chunks_and_a_band_edge(monkeypatch):
    # more v than one batch holds; a band up to the domain end, rows in the window and near it
    monkeypatch.setattr(rotsurf, "_THETA_C_CHUNK", 7)
    lo, hi = family_profile(1.0, 1.0, 0.3).domain
    vs = np.linspace(0.5 * hi, hi, 40).tolist() + np.linspace(lo, 0.0, 9).tolist()
    _assert_theta_c_array_is_floats(functools.partial(family_profile, 1.0, 1.0, 0.3), vs)


@pytest.mark.parametrize(
    "K, values",
    [
        (1.0, lambda lo, hi: [0.3, 1.4, -1.5, 0.2]),  # outside the domain: the first one is named
        (-1.0, lambda lo, hi: [0.1, -0.2, math.nan, 5.0]),
        (0.0, lambda lo, hi: [0.5, 0.3, 0.1]),  # below the K = 0 domain (1/4, inf)
        # hi + 1e-12 passes the domain check, and its substitution takes sqrt(hi - v) < 0 (a ValueError)
        # before the array's domain check reaches 1.5
        (1.0, lambda lo, hi: [0.3, hi + 1e-12, 1.5]),
    ],
    ids=["K=1", "K=-1-nan", "K=0", "K=1-edge"],
)
def test_theta_c_on_an_array_fails_as_a_scan_of_its_floats(K, values):
    vs = values(*family_profile(K, 1.0).domain)
    with pytest.raises(Exception) as scan:
        profile = family_profile(K, 1.0)
        for v in vs:
            profile.theta_c(v)
    with pytest.raises(Exception) as batch:
        family_profile(K, 1.0).theta_c(np.array(vs))
    assert (type(batch.value), str(batch.value)) == (type(scan.value), str(scan.value))


def test_rotation_chart_on_an_array_fails_as_its_scalar_loop():
    # at v = -0.5 the K = 0 chart's r takes sqrt of a negative number before theta_c refuses v;
    # a failed theta_c batch must leave the error to the per-v loop
    patch = rotation_patch(family_profile(0.0, 1.0), (0.5, 1.0))
    with pytest.raises(ValueError) as scalar:
        patch.jet2(0.0, -0.5)
    with pytest.raises(ValueError) as batch:
        patch.jet2(np.zeros(2), np.array([0.5, -0.5]))
    assert (type(batch.value), str(batch.value)) == (type(scalar.value), str(scalar.value)) == (ValueError, "math domain error")


def test_rotation_chart_on_an_array_fails_where_kappa_divides_by_zero():
    # r * r underflows to 0 near v = 1e-150 on this K = 0 chart: the float kappa raises in its division,
    # where numpy's would give inf without a word; enough distinct v that the curve takes them as one array
    patch = rotation_patch(family_profile(0.0, 1e-100), (1e-150, 1.0))
    with pytest.raises(ZeroDivisionError) as scalar:
        patch.jet2(0.0, 1e-150)
    v = np.append(np.linspace(0.5, 1.0, rotsurf._CURVE_BATCH), 1e-150)
    with pytest.raises(ZeroDivisionError) as batch:
        patch.jet2(np.zeros(v.size), v)
    assert str(batch.value) == str(scalar.value) == "float division by zero"


@pytest.mark.parametrize(
    "profile, v_range",
    [(family_profile(1.0, 1.0), (-0.9, 0.9)), (family_profile(-1.0, 0.7, 0.3), (-1.0, 1.0)), (family_profile(0.0, 1.0), (0.26, 2.0)),
     (line_profile(), (0.0, 2.0)), (circle_profile(), (-1.0, 1.0))],
    ids=["K=1", "K=-1-shifted", "K=0", "plane", "cylinder"],
)
def test_rotation_chart_on_an_array_is_its_scalar_loop_bit_for_bit(profile, v_range):
    # enough distinct v that the generating curve takes them as one array; the plane's and the cylinder's
    # profiles give some parts as one float
    patch = rotation_patch(profile, v_range)
    u = np.tile(np.linspace(0.0, 2.0 * np.pi, 3), rotsurf._CURVE_BATCH + 1)
    v = np.repeat(np.linspace(*v_range, rotsurf._CURVE_BATCH + 1), 3)
    with np.errstate(all="ignore"):
        batch = [[(x.value, x.d_u, x.d_v) for x in triple] for triple in patch.jet2(u, v)]
    for k, (uk, vk) in enumerate(zip(u.tolist(), v.tolist())):
        point = [[(x.value, x.d_u, x.d_v) for x in triple] for triple in patch.jet2(uk, vk)]
        assert repr(point) == repr([[tuple(np.broadcast_to(part, u.shape)[k].item() for part in x) for x in triple] for triple in batch])


@pytest.mark.parametrize("K_inf, r0", [(1.0, 1.0), (-1.0, 0.7), (0.0, 1.0), (2.5, 0.3)])
def test_kappa_on_an_array_is_the_float_kappa_bit_for_bit(K_inf, r0):
    # (r A / 2)^2 is libm pow on both paths: numpy's x ** 2 differs from it on about 1 double in 1,000
    profile = family_profile(K_inf, r0)
    lo, hi = profile.domain
    v = np.linspace(lo, min(hi, lo + 10.0), 4001)
    assert list(map(repr, profile.kappa(v).tolist())) == [repr(profile.kappa(x)) for x in v.tolist()]


def test_plane_and_cylinder_theta_c_take_arrays():
    vs = np.array([0.5, 1.4, 2.0])
    assert [part.tolist() for part in line_profile().theta_c(vs)] == [[0.0] * 3, [0.0] * 3]
    assert [part.tolist() for part in circle_profile().theta_c(vs)] == [[0.5, 1.4, 2.0], [0.25, 0.7, 1.0]]


# ---------------------------------------------------------------------------
# meshes


def test_spec_validation():
    spec = RotationSurfaceSpec(K_inf=1.0, v_range=(-1.4, 1.0))
    with pytest.raises(DomainViolationError):
        spec.validate()
    with pytest.raises(ValueError):
        RotationSurfaceSpec(K_inf=1.0, r0=-1.0).validate()
    RotationSurfaceSpec(K_inf=1.0).validate()


def _small_spec(K, **kw):
    return RotationSurfaceSpec(K_inf=K, samples_u=24, samples_v=20, n_curves=3, **kw)


def test_mesh_rotation_invariance():
    mesh = build_mesh(_small_spec(0.0))
    rows = mesh.profile_rows
    for j, row in enumerate(rows):
        block = mesh.vertices[j * 24 : (j + 1) * 24]
        radii = np.hypot(block[:, 0], block[:, 1])
        assert np.max(np.abs(radii - row[1])) <= 1e-10
        assert np.max(np.abs(block[:, 2] - row[4])) <= 1e-12


def test_mesh_vertices_reconstruct_from_profile():
    mesh = build_mesh(_small_spec(-1.0))
    rows = mesh.profile_rows
    for j, row in enumerate(rows):
        v, r, _, theta, c, _ = row
        a, b = r * math.cos(theta), r * math.sin(theta)
        us = np.linspace(0.0, 2.0 * math.pi, 24)
        block = mesh.vertices[j * 24 : (j + 1) * 24]
        expect = np.stack(
            [a * np.cos(us) - b * np.sin(us), b * np.cos(us) + a * np.sin(us), np.full_like(us, c)],
            axis=1,
        )
        assert np.max(np.abs(block - expect)) <= 1e-12


def test_mesh_faces_index_valid():
    mesh = build_mesh(_small_spec(1.0))
    assert mesh.faces.min() >= 0
    assert mesh.faces.max() < len(mesh.vertices)
    assert len(mesh.faces) == 2 * (24 - 1) * (20 - 1)


def test_mesh_polylines_horizontal():
    mesh = build_mesh(_small_spec(1.0))
    assert len(mesh.polylines) == 3
    for curve in mesh.polylines:
        assert np.max(e3_chord_ratio(curve)) <= 1e-8


def test_mesh_frame_decomposition():
    # f_u = r^2 theta' f2 - (r^2/2) f3 on the mesh patch
    profile = family_profile(-1.0, 1.0)
    patch = rotation_patch(profile, (-1.5, 1.5))
    for v in (-1.0, 0.3, 1.2):
        s = frame_data(patch, 0.7, v)[0]
        f_u, _ = pushforward_frame(patch, 0.7, v)
        r = profile.r(v)
        rp = profile.dr(v)
        theta_p = math.sqrt(1.0 - rp * rp) / r
        expect = (
            r * r * theta_p * helpers.coefficients(s.f2)
            + (-0.5 * r * r) * helpers.coefficients(s.f3)
        )
        assert np.max(np.abs(helpers.coefficients(f_u) - expect)) <= 1e-8


def test_generating_curve_endpoints_and_positions():
    profile = family_profile(0.0, 1.0)
    pts = sample_generating_curve(profile, 0.3, 1.5)
    assert pts[0, 0] == 0.3 and pts[-1, 0] == 1.5
    # positions follow the polar profile
    for v, x, y, _ in pts[:: len(pts) // 7]:
        assert math.hypot(x, y) == pytest.approx(profile.r(v), abs=1e-12)


def test_line_and_circle_profiles():
    line = line_profile()
    assert line.theta_c(2.0) == (0.0, 0.0)
    assert line.A(2.0) == 1.0
    circle = circle_profile()
    theta, c = circle.theta_c(1.4)
    assert (theta, c) == (1.4, 0.7)


def test_c1_shift_translates_profile():
    shifted = family_profile(1.0, 1.0, c1_shift=0.2)
    base = family_profile(1.0, 1.0)
    assert shifted.r(0.1) == pytest.approx(base.r(0.3), rel=1e-14)
    assert shifted.A(0.1) == pytest.approx(base.A(0.3), rel=1e-14)
    lo, hi = shifted.domain
    blo, bhi = base.domain
    assert lo == pytest.approx(blo - 0.2) and hi == pytest.approx(bhi - 0.2)
    for v in (-0.9, 0.1, 1.0):
        assert shifted.theta_c(v) == pytest.approx(base.theta_c(v + 0.2), abs=1e-9)


# ---------------------------------------------------------------------------
# array pipeline against the scalar references


def _edge_band(K, r0, c1_shift, end, width=0.3):
    """A band whose outer segments lie in the square-root window at one domain end."""
    lo, hi = family_profile(K, r0, c1_shift).domain
    if end == "lo":
        return lo + 1e-6 * max(1.0, abs(lo)), lo + width
    return hi - width, hi - 1e-6 * max(1.0, abs(hi))


def _kappa_underestimated(profile):
    """The profile with kappa reported 0: every chord is span/64 long, too
    long for the bound, near the boundary window too."""
    return dataclasses.replace(profile, kappa=lambda v: 0.0)


SAMPLER_CASES = [
    (1.0, 1.0, 0.0, None),
    (0.0, 1.0, 0.0, None),
    (-1.0, 1.0, 0.0, None),
    (1.0, 1.0, 0.0, "lo"),
    (1.0, 1.0, 0.0, "hi"),
    (0.0, 1.0, 0.0, "lo"),
    (-1.0, 1.0, 0.0, "lo"),
    (-1.0, 1.0, 0.0, "hi"),
    (2.5, 0.6, 0.3, None),
    (-0.4, 1.0, -0.7, "hi"),
    (0.0, 1.5, 0.3, "lo"),
    (1.0, 1.0, 0.0, (0.5, 0.51)),  # a band whose last step once left a sliver chord
]


@pytest.mark.parametrize("K, r0, c1_shift, end", SAMPLER_CASES)
def test_sampler_matches_scalar_reference(K, r0, c1_shift, end):
    profile = family_profile(K, r0, c1_shift)
    if end is None:
        v0, v1 = default_v_range(K, r0, c1_shift)
        v1 = v0 + 0.25 * (v1 - v0)  # keeps the scalar reference quick
    elif isinstance(end, tuple):
        v0, v1 = end
    else:
        v0, v1 = _edge_band(K, r0, c1_shift, end)
    expected = helpers.reference_sample_generating_curve(profile, v0, v1)
    calls = []
    got = sample_generating_curve(dataclasses.replace(profile, kappa=lambda v: calls.append(v) or profile.kappa(v)), v0, v1)
    assert np.array_equal(got, expected)
    assert np.max(e3_chord_ratio(got[:, 1:])) <= 1e-8
    # kappa once per step, plus once more after a step shorter than the look-ahead v + dv(kappa(v))
    vs, cap, target = got[:, 0].tolist(), (v1 - v0) / 64.0, 0.6 * 1e-8
    shortened = sum(
        b != min(a + min(math.sqrt(12.0 * target / max(abs(profile.kappa(a)), 1e-12)), cap), v1)
        for a, b in zip(vs, vs[1:])
    )
    assert len(calls) <= (len(vs) - 1) + shortened + 1


@pytest.mark.parametrize("K, end", [(1.0, None), (0.0, "lo"), (-1.0, "hi")])
def test_sampler_raises_what_the_scalar_reference_raises(monkeypatch, K, end):
    monkeypatch.setattr(rotsurf, "CHORD_E3_RATIO", 1e-6)
    profile = _kappa_underestimated(family_profile(K, 1.0, 0.2))
    v0, v1 = default_v_range(K, 1.0, 0.2) if end is None else _edge_band(K, 1.0, 0.2, end)
    messages = []
    reference = functools.partial(helpers.reference_sample_generating_curve, max_ratio=1e-6)
    for sample in (sample_generating_curve, reference):
        with pytest.raises(GeometryError) as info:
            sample(profile, v0, v1)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("K, end", [(1.0, None), (0.0, "lo"), (-1.0, "hi"), (1.0, "lo")])
def test_sampler_raises_on_a_chord_above_the_bound(monkeypatch, K, end):
    monkeypatch.setattr(rotsurf, "CHORD_E3_RATIO", 1e-6)
    profile = _kappa_underestimated(family_profile(K, 1.0, 0.2))
    v0, v1 = default_v_range(K, 1.0, 0.2) if end is None else _edge_band(K, 1.0, 0.2, end)
    with pytest.raises(GeometryError, match=r"chord over v in \[\S+, \S+\] has e3 ratio \S+ above the bound 1e-06") as info:
        sample_generating_curve(profile, v0, v1)
    lo, hi = (float(x) for x in str(info.value).split("[")[1].split("]")[0].split(", "))
    assert v0 <= lo < hi <= v1


def test_sampler_last_chord_ends_at_the_band_end():
    # the walk used to stop 2e-15 short of v1 and add a sliver chord whose
    # e3 ratio (1.4e-2) was far above the bound
    pts = sample_generating_curve(family_profile(1.0, 1.0), 0.5, 0.51)
    assert len(pts) == 65 and pts[-1, 0] == 0.51
    assert np.all(np.diff(pts[:, 0]) > 0.01 * 1e-9)
    assert np.max(e3_chord_ratio(pts[:, 1:])) <= 1e-8


@pytest.mark.parametrize("n_curves", [0, 8])
@pytest.mark.parametrize("K, c1_shift", [(1.0, 0.0), (0.0, 0.3), (-1.0, -0.2)])
def test_write_obj_matches_line_by_line_reference(monkeypatch, tmp_path, K, c1_shift, n_curves):
    monkeypatch.setattr(rotsurf, "CHORD_E3_RATIO", 1e-6)  # fewer polyline points
    spec = RotationSurfaceSpec(K_inf=K, c1_shift=c1_shift, samples_u=12, samples_v=9, n_curves=n_curves)
    mesh = build_mesh(spec)
    config = {"K_inf": K, "n_curves": n_curves}
    write_obj(tmp_path / "array.obj", mesh, config)
    helpers.reference_write_obj(tmp_path / "reference.obj", mesh, config)
    assert (tmp_path / "array.obj").read_bytes() == (tmp_path / "reference.obj").read_bytes()


def test_write_obj_nonfinite_and_signed_zero(tmp_path):
    mesh = build_mesh(RotationSurfaceSpec(K_inf=1.0, samples_u=4, samples_v=3, n_curves=0))
    mesh.vertices[:4] = [
        [math.nan, -0.0, math.inf],
        [-math.inf, 1e-300, -1.5e300],
        [0.1, 1 / 3, 2.0],
        [5e-324, 1.0, -1.0],
    ]
    write_obj(tmp_path / "array.obj", mesh, {})
    helpers.reference_write_obj(tmp_path / "reference.obj", mesh, {})
    assert (tmp_path / "array.obj").read_bytes() == (tmp_path / "reference.obj").read_bytes()


def test_mesh_matches_scalar_rows():
    spec = RotationSurfaceSpec(K_inf=-1.0, c1_shift=0.4, samples_u=7, samples_v=11, n_curves=0)
    mesh = build_mesh(spec)
    profile = family_profile(-1.0, 1.0, 0.4)
    thetac = profile.theta_c
    for j, v in enumerate(np.linspace(*spec.resolved_v_range(), 11).tolist()):
        theta, c = thetac(v)
        expect = [v, profile.r(v), profile.dr(v), theta, c, profile.A(v)]
        assert mesh.profile_rows[j].tolist() == expect
        a, b = expect[1] * math.cos(theta), expect[1] * math.sin(theta)
        for i, u in enumerate(np.linspace(0.0, 2.0 * math.pi, 7)):
            cu, su = np.cos(u), np.sin(u)
            assert mesh.vertices[j * 7 + i].tolist() == [a * cu - b * su, b * cu + a * su, c]
    k = 2 * 7 + 3
    assert mesh.faces[2 * (2 * 6 + 3)].tolist() == [k, k + 1, k + 7]
    assert mesh.faces[2 * (2 * 6 + 3) + 1].tolist() == [k + 1, k + 8, k + 7]


# ---------------------------------------------------------------------------
# error paths of the array code


def test_sampler_rejects_endpoint_past_domain():
    profile = family_profile(1.0, 1.0)
    lo, hi = profile.domain
    with pytest.raises(DomainViolationError):
        sample_generating_curve(profile, 0.0, hi + 1e-6)
    with pytest.raises(DomainViolationError):
        sample_generating_curve(profile, lo - 1e-6, 0.0)
    with pytest.raises(DomainViolationError):
        sample_generating_curve(family_profile(0.0, 1.0), 0.2, 1.0)


def test_sampler_point_budget(monkeypatch):
    monkeypatch.setattr(rotsurf, "MAX_CURVE_POINTS", 10)
    profile = family_profile(1.0, 1.0)
    with pytest.raises(GeometryError, match=r"sampling exceeded the point budget \(10\)"):
        sample_generating_curve(profile, -0.5, 0.5)


def test_theta_c_cache_is_bounded(monkeypatch):
    calls = []  # a stub in place of QUADPACK keeps 4,000 misses cheap
    monkeypatch.setattr(rotsurf, "integrate_with_boundary", lambda f, a, b, bounds, tol: calls.append(b) or b - a)
    profile = family_profile(1.0, 1.0)
    vs = np.linspace(-0.5, 0.5, THETA_C_CACHE_SIZE + 100).tolist()
    for v in vs + vs[-10:]:
        profile.theta_c(v)
    info = profile.theta_c.cache_info()
    assert info.maxsize == THETA_C_CACHE_SIZE and info.currsize == THETA_C_CACHE_SIZE
    assert (info.hits, info.misses) == (10, len(vs))
    assert len(calls) == 2 * len(vs)


def test_mesh_rows_rotation_chart_and_sampler_share_theta_c(monkeypatch):
    # each distinct v is integrated once per profile: one row of the numpy first step, and
    # QUADPACK at most once per integral; the sampler's start and a second jet2 integrate nothing
    profiles, step_rows, calls = [], [], []
    make, step, integrate = rotsurf.family_profile, rotsurf.kronrod_first_step, rotsurf.integrate_with_boundary
    monkeypatch.setattr(rotsurf, "family_profile", lambda *args: profiles.append(make(*args)) or profiles[-1])
    monkeypatch.setattr(rotsurf, "kronrod_first_step", lambda f, a, b, tol: step_rows.extend(a.tolist()) or step(f, a, b, tol))
    monkeypatch.setattr(rotsurf, "integrate_with_boundary", lambda *args: calls.append(args[:3:2]) or integrate(*args))

    def integrated(profile, hits, misses):
        info = profile.theta_c.cache_info()
        assert (info.hits, info.misses) == (hits, misses)
        assert len(step_rows) <= misses and len(set(calls)) == len(calls)
        assert len({v for _, v in calls}) <= misses

    build_mesh(RotationSurfaceSpec(K_inf=-1.0, samples_u=8, samples_v=20, n_curves=0))
    integrated(profiles[-1], 0, 20)
    step_rows.clear(), calls.clear()
    build_mesh(RotationSurfaceSpec(K_inf=-1.0, samples_u=8, samples_v=20, n_curves=3))
    integrated(profiles[-1], 1, 20)  # the sampler starts from the first row's theta and c
    step_rows.clear(), calls.clear()
    profile = rotsurf.family_profile(1.0, 1.0)
    patch = rotation_patch(profile, (-0.5, 0.5))
    v = np.array([-0.5, 0.1, 0.1, 0.5])
    patch.jet2(np.zeros(4), v)
    integrated(profile, 0, 3)
    rows, taken = len(step_rows), len(calls)
    monkeypatch.setattr(rotsurf, "CHORD_E3_RATIO", 1e-6)
    sample_generating_curve(profile, -0.5, 0.5)
    patch.jet2(np.ones(4), v)
    integrated(profile, 1 + 3, 3)
    assert (len(step_rows), len(calls)) == (rows, taken)
