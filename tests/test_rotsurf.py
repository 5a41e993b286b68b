import dataclasses
import math

import helpers
import numpy as np
import pytest

from h1geom import catalog, rotsurf
from h1geom.errors import DomainViolationError, GeometryError
from h1geom.export import write_obj
from h1geom.rotsurf import (
    THETA_C_CACHE_SIZE,
    A_family,
    RotationSurfaceSpec,
    build_mesh,
    circle_profile,
    default_v_range,
    domain_bound,
    e3_chord_ratio,
    family_profile,
    horizontal_lift,
    line_profile,
    r_family,
    rotation_patch,
    sample_generating_curve,
    theta_c_quadrature,
)
from h1geom.surface import adapted_frame, pushforward_frame


# ---------------------------------------------------------------------------
# closed-form families


def test_r_family_values():
    assert r_family(1.0, 1.0, 0.0) == 1.0
    assert r_family(0.0, 1.0, 4.0) == 2.0
    assert r_family(-1.0, 1.0, 0.0) == 1.0
    assert r_family(2.0, 0.5, 0.1) == pytest.approx(0.5 * math.sqrt(math.cos(math.sqrt(2) * 0.1)))


def test_A_family_values_and_ode():
    assert A_family(1.0, 0.0) == 0.0
    assert A_family(0.0, 2.0) == 0.5
    assert A_family(-4.0, 0.3) == pytest.approx(2.0 * math.tanh(0.6))
    # K = -dA/dv - A^2 by centered differences
    h = 1e-6
    for K, v in ((1.0, 0.7), (0.0, 1.3), (-1.0, -0.9), (2.5, 0.2), (-0.3, 2.0)):
        dA = (A_family(K, v + h) - A_family(K, v - h)) / (2 * h)
        assert -dA - A_family(K, v) ** 2 == pytest.approx(K, abs=1e-9)


def test_A_equals_log_derivative_of_r_squared():
    h = 1e-6
    for K, r0, v in ((1.0, 1.0, 0.5), (0.0, 1.5, 1.2), (-1.0, 0.7, -0.8)):
        fd = (
            math.log(r_family(K, r0, v + h) ** 2) - math.log(r_family(K, r0, v - h) ** 2)
        ) / (2 * h)
        assert A_family(K, v) == pytest.approx(fd, abs=1e-8)


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


def test_domain_violation_errors():
    with pytest.raises(DomainViolationError):
        r_family(1.0, 1.0, 1.4)
    with pytest.raises(DomainViolationError):
        r_family(0.0, 1.0, 0.1)
    with pytest.raises(DomainViolationError):
        A_family(0.0, -1.0)
    with pytest.raises(ValueError):
        domain_bound(1.0, -1.0)


def test_endpoint_behavior():
    # r'(v)^2 -> 1 approaching the domain edge
    for K in (1.0, -1.0):
        _, vmax = domain_bound(K, 1.0)
        v = vmax - 1e-8
        h = 1e-10
        rp = (r_family(K, 1.0, v + h) - r_family(K, 1.0, v - h)) / (2 * h)
        assert rp * rp == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# theta / c quadrature


def test_theta_c_anchor_is_zero():
    for K in (1.0, -1.0):
        assert theta_c_quadrature(K, 1.0, 0.0) == (0.0, 0.0)


def test_theta_c_k0_closed_forms():
    # independent antiderivatives for r0 = 1 starting at the domain edge 1/4:
    # c(v) = (4v-1)^{3/2}/24, theta(v) = w - atan(w) with w = sqrt(4v-1)
    for v in (0.5, 1.25, 2.0):
        theta, c = theta_c_quadrature(0.0, 1.0, v)
        w = math.sqrt(4.0 * v - 1.0)
        assert c == pytest.approx((4.0 * v - 1.0) ** 1.5 / 24.0, abs=1e-9)
        assert theta == pytest.approx(w - math.atan(w), abs=1e-9)
    theta, c = theta_c_quadrature(0.0, 1.0, 1.25)
    assert c == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert theta == pytest.approx(2.0 - math.atan(2.0), abs=1e-9)


def test_theta_c_integrand_consistency():
    # theta' * r = sqrt(1 - r'^2) and c' = r sqrt(1 - r'^2)/2 at interior points
    h = 1e-6
    for K, v in ((1.0, 0.6), (-1.0, 1.0), (0.0, 0.9)):
        theta_p = (
            theta_c_quadrature(K, 1.0, v + h)[0] - theta_c_quadrature(K, 1.0, v - h)[0]
        ) / (2 * h)
        c_p = (
            theta_c_quadrature(K, 1.0, v + h)[1] - theta_c_quadrature(K, 1.0, v - h)[1]
        ) / (2 * h)
        r = r_family(K, 1.0, v)
        rp = (r_family(K, 1.0, v + h) - r_family(K, 1.0, v - h)) / (2 * h)
        root = math.sqrt(1.0 - rp * rp)
        assert theta_p * r == pytest.approx(root, abs=1e-6)
        assert c_p == pytest.approx(0.5 * r * root, abs=1e-6)


def test_theta_c_outside_domain():
    with pytest.raises(DomainViolationError):
        theta_c_quadrature(1.0, 1.0, 1.4)


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
        da = ex.eval_dual_t(a_tree, t)
        db = ex.eval_dual_t(b_tree, t)
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
        for v in (0.5, 1.1) if K == 0.0 else (-0.4, 0.6):
            assert profile.A(v) == pytest.approx(A_family(K, v), rel=1e-12)


def test_pipeline_recovers_constant_curvature():
    rng = np.random.default_rng(20260808)
    for K in (1.0, 0.0, -1.0):
        patch = catalog.constant_curvature(K)
        v0, v1 = patch.v_range
        width = v1 - v0
        for _ in range(25):
            u = float(rng.uniform(0, 2 * math.pi))
            v = float(rng.uniform(v0 + 0.05 * width, v1 - 0.05 * width))
            from h1geom.surface import frame_data

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
            return adapted_frame(patch, u, vv).alpha

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
        def g(vv):
            return math.log(r_family(K, 1.0, vv) ** 2)

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
        us = mesh.uv[j * 24 : (j + 1) * 24, 0]
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
        s = adapted_frame(patch, 0.7, v)
        f_u, _ = pushforward_frame(patch, 0.7, v)
        r = profile.r(v)
        rp = profile.dr(v)
        theta_p = math.sqrt(1.0 - rp * rp) / r
        expect = (
            r * r * theta_p * s.f2.coefficients()
            + (-0.5 * r * r) * s.f3.coefficients()
        )
        assert np.max(np.abs(f_u.coefficients() - expect)) <= 1e-8


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
]


@pytest.mark.parametrize("K, r0, c1_shift, end", SAMPLER_CASES)
def test_sampler_matches_scalar_reference(K, r0, c1_shift, end):
    profile = family_profile(K, r0, c1_shift)
    if end is None:
        v0, v1 = default_v_range(K, r0, c1_shift)
        v1 = v0 + 0.25 * (v1 - v0)  # keeps the scalar reference quick
    else:
        v0, v1 = _edge_band(K, r0, c1_shift, end)
    expected = helpers.reference_sample_generating_curve(profile, v0, v1)
    got = sample_generating_curve(profile, v0, v1)
    assert np.array_equal(got, expected)
    assert np.max(e3_chord_ratio(got[:, 1:])) <= 1e-8


@pytest.mark.parametrize("K, end", [(1.0, None), (0.0, "lo"), (-1.0, "hi"), (1.0, "lo")])
def test_sampler_raises_on_a_chord_above_the_bound(K, end):
    profile = _kappa_underestimated(family_profile(K, 1.0, 0.2))
    v0, v1 = default_v_range(K, 1.0, 0.2) if end is None else _edge_band(K, 1.0, 0.2, end)
    with pytest.raises(GeometryError, match=r"chord over v in \[\S+, \S+\] has e3 ratio \S+ above the bound 1e-06") as info:
        sample_generating_curve(profile, v0, v1, 1e-6)
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
def test_write_obj_matches_line_by_line_reference(tmp_path, K, c1_shift, n_curves):
    spec = RotationSurfaceSpec(
        K_inf=K, c1_shift=c1_shift, samples_u=12, samples_v=9, n_curves=n_curves,
        curve_e3_ratio=1e-6,
    )
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


def test_sampler_point_budget():
    profile = family_profile(1.0, 1.0)
    with pytest.raises(GeometryError, match="sampling exceeded"):
        sample_generating_curve(profile, -0.5, 0.5, max_points=10)


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
    calls = []
    integrate = rotsurf.integrate_with_boundary
    monkeypatch.setattr(rotsurf, "integrate_with_boundary", lambda *args: calls.append(args[2]) or integrate(*args))
    build_mesh(RotationSurfaceSpec(K_inf=-1.0, samples_u=8, samples_v=20, n_curves=0))
    assert len(calls) == 2 * 20
    calls.clear()
    build_mesh(RotationSurfaceSpec(K_inf=-1.0, samples_u=8, samples_v=20, n_curves=3))
    assert len(calls) == 2 * 20  # the sampler starts from the first row's theta and c
    profile = family_profile(1.0, 1.0)
    patch = rotation_patch(profile, (-0.5, 0.5))
    v = np.array([-0.5, 0.1, 0.1, 0.5])
    patch.jet2(np.zeros(4), v)
    assert len(calls) == 2 * 20 + 2 * 3
    calls.clear()
    sample_generating_curve(profile, -0.5, 0.5, 1e-6)
    patch.jet2(np.ones(4), v)
    assert calls == []
