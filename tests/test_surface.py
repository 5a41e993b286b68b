import functools
import math

import numpy as np
import pytest

import helpers
from h1geom import catalog
from h1geom.errors import CharacteristicPointError
from h1geom.hgroup import coframe_eval, gl_inner
from h1geom.surface import (
    adapted_frame,
    beta,
    characteristic_test,
    frame_data,
    frame_derivatives,
    graph_patch,
    parametric_patch,
    pushforward_frame,
    structure_identity_residual,
    xl_basis,
)

RNG_SEED = 20260808


def catalog_samples():
    """(patch, u-span, v-span) triples covering all catalog geometries."""
    return [
        (catalog.plane(), (0.0, 2 * math.pi), (0.5, 3.0)),
        (catalog.cylinder(), (0.0, 2 * math.pi), (-2.0, 2.0)),
        (catalog.paraboloid(), (0.3, 1.9), (0.3, 1.9)),
        (catalog.constant_curvature(1.0), (0.0, 2 * math.pi), (-1.2, 1.2)),
        (catalog.constant_curvature(0.0), (0.0, 2 * math.pi), (0.3, 2.0)),
        (catalog.constant_curvature(-1.0), (0.0, 2 * math.pi), (-1.9, 1.9)),
    ]


# ---------------------------------------------------------------------------
# pushforward


def test_pushforward_cartesian_plane():
    patch = catalog.plane_cartesian()
    f_u, f_v = pushforward_frame(patch, 1.0, 0.0)
    assert np.allclose(f_u.coefficients(), [1.0, 0.0, 0.0])
    assert np.allclose(f_v.coefficients(), [0.0, 1.0, -0.5])


def test_pushforward_rotation_vertical_component():
    # the u-tangent of a rotation surface has e3-coefficient -(a^2+b^2)/2
    patch = catalog.constant_curvature(-1.0)
    for v in (-1.0, 0.3, 1.4):
        f_u, _ = pushforward_frame(patch, 0.8, v)
        pos = patch.position(0.8, v)
        r2 = pos.x**2 + pos.y**2
        assert f_u.c3 == pytest.approx(-0.5 * r2, rel=1e-12)


def test_pushforward_round_trip():
    patch = catalog.paraboloid()
    _, du, dv = patch.jet(0.7, -0.4)
    f_u, f_v = pushforward_frame(patch, 0.7, -0.4)
    assert np.allclose(f_u.to_coordinates(), du, atol=1e-15)
    assert np.allclose(f_v.to_coordinates(), dv, atol=1e-15)


# ---------------------------------------------------------------------------
# characteristic points


def test_characteristic_cartesian_plane():
    patch = catalog.plane_cartesian()
    f_u, f_v = pushforward_frame(patch, 0.0, 0.0)
    assert characteristic_test(f_u, f_v, 1e-10)
    f_u, f_v = pushforward_frame(patch, 1.0, 0.0)
    assert not characteristic_test(f_u, f_v, 1e-10)
    with pytest.raises(CharacteristicPointError):
        adapted_frame(patch, 0.0, 0.0)


def test_characteristic_cylinder_never():
    patch = catalog.cylinder()
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        f_u, f_v = pushforward_frame(patch, rng.uniform(0, 2 * math.pi), rng.uniform(-3, 3))
        assert not characteristic_test(f_u, f_v, 1e-10)


def test_characteristic_paraboloid_origin():
    patch = catalog.paraboloid()
    with pytest.raises(CharacteristicPointError):
        adapted_frame(patch, 0.0, 0.0)
    adapted_frame(patch, 0.5, 0.1)  # fine away from the origin


# ---------------------------------------------------------------------------
# adapted frame


def test_plane_polar_hand_values():
    # at (x, y) = (1, 0): f2 radial, A = 2, alpha = -pi/2
    patch = catalog.plane()
    s = adapted_frame(patch, 0.0, 1.0)
    assert s.A == pytest.approx(2.0, abs=1e-12)
    assert s.alpha == pytest.approx(-math.pi / 2, abs=1e-12)
    assert np.allclose(s.f2.coefficients(), [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(s.f1.coefficients(), [0.0, -1.0, 0.0], atol=1e-12)


def test_adapted_frame_invariants():
    rng = np.random.default_rng(RNG_SEED)
    for patch, u_span, v_span in catalog_samples():
        for _ in range(10):
            u = float(rng.uniform(*u_span))
            v = float(rng.uniform(*v_span))
            s = adapted_frame(patch, u, v)
            # horizontality and normalization in the horizontal metric
            assert abs(s.f1.c3) <= 1e-12 and abs(s.f2.c3) <= 1e-12
            assert math.hypot(s.f1.c1, s.f1.c2) == pytest.approx(1.0, abs=1e-12)
            assert math.hypot(s.f2.c1, s.f2.c2) == pytest.approx(1.0, abs=1e-12)
            assert s.f1.c1 * s.f2.c1 + s.f1.c2 * s.f2.c2 == pytest.approx(0.0, abs=1e-12)
            # rotation relations and f3 = e3 + A f1
            assert s.f1.c1 == pytest.approx(math.cos(s.alpha), abs=1e-12)
            assert s.f1.c2 == pytest.approx(math.sin(s.alpha), abs=1e-12)
            assert s.f2.c1 == pytest.approx(-math.sin(s.alpha), abs=1e-12)
            assert s.f2.c2 == pytest.approx(math.cos(s.alpha), abs=1e-12)
            assert np.allclose(
                s.f3.coefficients(),
                [s.A * s.f1.c1, s.A * s.f1.c2, 1.0],
                atol=1e-12,
            )
            assert s.area_density > 0.0


def test_conormal_annihilates_tangent_plane():
    rng = np.random.default_rng(RNG_SEED + 1)
    for patch, u_span, v_span in catalog_samples():
        for _ in range(6):
            u = float(rng.uniform(*u_span))
            v = float(rng.uniform(*v_span))
            s = adapted_frame(patch, u, v)
            f_u, f_v = pushforward_frame(patch, u, v)
            ca, sa = math.cos(s.alpha), math.sin(s.alpha)
            for t in (f_u, f_v):
                w = t.to_coordinates()
                value = (
                    ca * coframe_eval(1, s.point, w)
                    + sa * coframe_eval(2, s.point, w)
                    - s.A * coframe_eval(3, s.point, w)
                )
                scale = max(1.0, float(np.max(np.abs(w))))
                assert abs(value) <= 1e-10 * scale


def test_frame_coefficients_reconstruct_tangents():
    # f_u must equal p1 f2 + q1 f3 with the stored change of basis
    patch = catalog.constant_curvature(1.0)
    s = adapted_frame(patch, 1.2, 0.4)
    f_u, f_v = pushforward_frame(patch, 1.2, 0.4)
    minv = np.array([s.f2_uv, s.f3_uv])
    m = np.linalg.inv(minv)
    for row, t in zip(m, (f_u, f_v)):
        rebuilt = row[0] * s.f2.coefficients() + row[1] * s.f3.coefficients()
        assert np.allclose(rebuilt, t.coefficients(), atol=1e-10)


def test_cylinder_tilt_vanishes():
    patch = catalog.cylinder()
    rng = np.random.default_rng(2)
    for _ in range(10):
        s = adapted_frame(patch, rng.uniform(0, 2 * math.pi), rng.uniform(-3, 3))
        assert s.A == pytest.approx(0.0, abs=1e-12)


def test_rotation_tilt_matches_profile_log_derivative():
    # A = d/dv ln r^2, checked through the geometric frame
    from h1geom.rotsurf import A_family, r_family

    for K in (1.0, 0.0, -1.0):
        patch = catalog.constant_curvature(K)
        for v in (0.35, 0.8) if K == 0.0 else (-0.6, 0.4):
            s = adapted_frame(patch, 2.0, v)
            assert s.A == pytest.approx(A_family(K, v), abs=1e-11)
            h = 1e-6
            fd = (
                math.log(r_family(K, 1.0, v + h) ** 2)
                - math.log(r_family(K, 1.0, v - h) ** 2)
            ) / (2 * h)
            assert s.A == pytest.approx(fd, abs=1e-8)


# ---------------------------------------------------------------------------
# frame derivatives


def test_plane_polar_derivative_hand_values():
    patch = catalog.plane()
    for fd in (frame_derivatives(patch, 0.0, 1.0), helpers.fd_frame_derivatives(patch, 0.0, 1.0)):
        assert fd.dA_f2 == pytest.approx(-2.0, abs=1e-6)
        assert fd.dalpha_f3 == pytest.approx(-2.0, abs=1e-6)
        assert fd.dalpha_f2 == pytest.approx(0.0, abs=1e-8)
        assert fd.dA_f3 == pytest.approx(0.0, abs=1e-8)


def test_structure_identity_on_catalog():
    rng = np.random.default_rng(RNG_SEED + 2)
    for patch, u_span, v_span in catalog_samples():
        for _ in range(8):
            u = float(rng.uniform(*u_span))
            v = float(rng.uniform(*v_span))
            s, fd = frame_data(patch, u, v)
            assert abs(structure_identity_residual(fd, s.A)) <= 1e-12 * max(1.0, s.A**2)


def test_fd_matches_analytic_on_rotation_patches():
    rng = np.random.default_rng(RNG_SEED + 3)
    for K in (1.0, 0.0, -1.0):
        patch = catalog.constant_curvature(K)
        v_span = (0.3, 2.0) if K == 0.0 else (-1.0, 1.0)
        for _ in range(6):
            u = float(rng.uniform(0, 2 * math.pi))
            v = float(rng.uniform(*v_span))
            fd = helpers.fd_frame_derivatives(patch, u, v)
            exact = frame_derivatives(patch, u, v)
            for name in ("dA_f2", "dA_f3", "dalpha_f2", "dalpha_f3"):
                got, want = getattr(fd, name), getattr(exact, name)
                assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def test_constant_curvature_recovered_by_fd_pipeline():
    for K, v in ((1.0, 0.7), (0.0, 1.1), (-1.0, -1.3)):
        patch = catalog.constant_curvature(K)
        s = adapted_frame(patch, 2.2, v)
        fd = helpers.fd_frame_derivatives(patch, 2.2, v)
        assert -fd.dA_f2 - s.A**2 == pytest.approx(K, abs=1e-6)


def _rotation_cases():
    """(chart, A(v), dA/dv, kappa(v), K_inf or None, points) with closed forms.

    On a rotation chart A depends on v only, and alpha = u + const along
    each v-circle with dalpha/dv the profile curvature kappa.
    """
    from h1geom.rotsurf import A_family, circle_profile, default_v_range, family_profile, line_profile

    for K in (1.0, 0.0, -1.0, 2.7, -3.1, 0.3):
        for r0 in (0.5, 1.0, 1.9):
            v0, v1 = default_v_range(K, r0)
            A = functools.partial(A_family, K)
            yield (
                catalog.constant_curvature(K, r0), A, lambda v, A=A, K=K: -K - A(v) ** 2,
                family_profile(K, r0).kappa, K, [(0.7, v0), (2.9, 0.5 * (v0 + v1)), (5.1, v1)],
            )
    yield (
        catalog.plane(), lambda v: 2.0 / v, lambda v: -2.0 / (v * v), line_profile().kappa, None,
        [(4.0, 0.3), (0.0, 1.0), (1.3, 7.5)],
    )
    yield catalog.cylinder(), lambda v: 0.0, lambda v: 0.0, circle_profile().kappa, 0.0, [(0.2, -3.0), (3.3, 0.4)]


def test_exact_derivatives_match_rotation_closed_forms():
    count = 0
    for patch, A_of, dA_of, kappa, K, points in _rotation_cases():
        for chart in (patch, patch.with_orientation(-1)):
            flip = float(chart.orientation)
            for u, v in points:
                s, fd = frame_data(chart, u, v)
                assert s.A == pytest.approx(flip * A_of(v), rel=1e-12, abs=1e-12)
                grad_A, grad_al = (0.0, flip * dA_of(v)), (1.0, kappa(v))
                want = {
                    "dA_f2": s.f2_uv[0] * grad_A[0] + s.f2_uv[1] * grad_A[1],
                    "dA_f3": s.f3_uv[0] * grad_A[0] + s.f3_uv[1] * grad_A[1],
                    "dalpha_f2": s.f2_uv[0] * grad_al[0] + s.f2_uv[1] * grad_al[1],
                    "dalpha_f3": s.f3_uv[0] * grad_al[0] + s.f3_uv[1] * grad_al[1],
                }
                for name, expected in want.items():
                    assert abs(getattr(fd, name) - expected) <= 1e-12 * max(1.0, abs(expected))
                if K is not None:
                    assert -fd.dA_f2 - s.A**2 == pytest.approx(K, abs=1e-12 * max(1.0, s.A**2))
                count += 1
    assert count == 2 * (6 * 3 * 3 + 3 + 2)


def test_plane_exact_hand_values_at_4_03():
    # radius 0.3: A = 2/r, dA(f2) = dalpha(f3) = -2/r^2
    for sign in (1, -1):
        s, fd = frame_data(catalog.plane(orientation=sign), 4.0, 0.3)
        assert s.A == pytest.approx(sign * 2.0 / 0.3, rel=1e-14)
        assert fd.dA_f2 == pytest.approx(-2.0 / 0.09, rel=1e-13)
        assert fd.dalpha_f3 == pytest.approx(-2.0 / 0.09, rel=1e-13)
        assert abs(fd.dA_f3) <= 1e-12 and abs(fd.dalpha_f2) <= 1e-12


def test_exact_derivatives_match_fd_reference_on_expression_charts():
    charts = [
        (catalog.paraboloid(), (0.3, 1.9), (0.3, 1.9)),
        (
            graph_patch("0.38*u^2 - 0.1*v^2 - 0.42*u*v + 0.23*sin(-0.5*u + 1.46*v + 5.4)", (-2.5, 2.5), (-2.5, 2.5)),
            (0.45, 1.3),
            (-0.09, 0.86),
        ),
        (
            parametric_patch(
                "(2+cos(v))*cos(u)", "(2+cos(v))*sin(u)", "sin(v)+0.3*sin(u)",
                (0.0, 2 * math.pi), (-0.4, 0.4), closed_u=True,
            ),
            (0.0, 2 * math.pi),
            (-0.35, 0.35),
        ),
        # on v = 0 the exponent v^2 has a zero gradient and a nonzero second partial
        (graph_patch("2^(v^2) + u*v", (-2.0, 2.0), (-2.0, 2.0)), (0.5, 1.7), (0.0, 0.0)),
    ]
    rng = np.random.default_rng(RNG_SEED + 5)
    for patch, u_span, v_span in charts:
        for _ in range(10):
            u = float(rng.uniform(*u_span))
            v = float(rng.uniform(*v_span))
            s, exact = frame_data(patch, u, v)
            fd = helpers.fd_frame_derivatives(patch, u, v)
            for name in ("dA_f2", "dA_f3", "dalpha_f2", "dalpha_f3"):
                got, want = getattr(exact, name), getattr(fd, name)
                assert abs(got - want) <= 1e-6 * max(1.0, abs(want))
            assert abs(structure_identity_residual(exact, s.A)) <= 1e-12 * max(1.0, s.A**2)


def test_frame_values_match_the_float_reference_bit_for_bit():
    # the float frame and the dual pass both reproduce the frame as first
    # written, on jets computed apart; repr keeps the sign of zero
    from h1geom.expr import parse
    from h1geom.rotsurf import family_profile, line_profile

    h = "0.38*u^2 - 0.1*v^2 - 0.42*u*v + 0.23*sin(-0.5*u + 1.46*v + 5.4)"
    charts = [(graph_patch(h, (-2.5, 2.5), (-2.5, 2.5)), helpers.reference_graph_jet(parse(h)))]
    charts.append((catalog.paraboloid(), helpers.reference_graph_jet(parse("(u^2+v^2)/2"))))
    charts.append((catalog.plane(), helpers.reference_rotation_jet(line_profile())))
    for K in (1.0, 0.0, -1.0, 2.7, -3.1):
        charts.append((catalog.constant_curvature(K), helpers.reference_rotation_jet(family_profile(K, 1.0))))
    rng = np.random.default_rng(RNG_SEED + 7)
    for patch, jet in charts:
        for chart in (patch, patch.with_orientation(-1)):
            for _ in range(60):
                u = float(rng.uniform(*chart.u_range))
                v = float(rng.uniform(*chart.v_range))
                try:
                    want = repr(helpers.reference_adapted_frame(jet, u, v, chart.orientation))
                except ZeroDivisionError:  # characteristic
                    continue
                assert repr(helpers.frame_values(adapted_frame(chart, u, v))) == want
                assert repr(helpers.frame_values(frame_data(chart, u, v)[0])) == want


def test_frame_data_sample_equals_adapted_frame():
    # the dual pass reproduces the float frame bit for bit
    rng = np.random.default_rng(RNG_SEED + 6)
    for patch, u_span, v_span in catalog_samples():
        for _ in range(5):
            u = float(rng.uniform(*u_span))
            v = float(rng.uniform(*v_span))
            assert frame_data(patch, u, v)[0] == adapted_frame(patch, u, v)


def test_orientation_flip():
    patch = catalog.plane()
    flipped = patch.with_orientation(-1)
    s = adapted_frame(patch, 0.3, 1.5)
    t = adapted_frame(flipped, 0.3, 1.5)
    assert t.A == pytest.approx(-s.A, abs=1e-12)
    delta = (t.alpha - s.alpha) % (2 * math.pi)
    assert delta == pytest.approx(math.pi, abs=1e-12)
    assert t.area_density == pytest.approx(-s.area_density, rel=1e-12)
    fd_s = frame_derivatives(patch, 0.3, 1.5)
    fd_t = frame_derivatives(flipped, 0.3, 1.5)
    # limit curvature inputs are orientation invariant
    assert fd_t.dA_f2 == pytest.approx(fd_s.dA_f2, abs=1e-10)
    assert -fd_t.dA_f2 - t.A**2 == pytest.approx(-fd_s.dA_f2 - s.A**2, abs=1e-10)


@pytest.mark.parametrize("orientation", [0, 2, 1.5, True])
def test_orientation_must_be_plus_or_minus_one(orientation):
    builders = [
        lambda: catalog.paraboloid(orientation=orientation),
        lambda: catalog.plane(orientation=orientation),
        lambda: parametric_patch("u", "v", "0", (0.0, 1.0), (0.0, 1.0), orientation=orientation),
        lambda: catalog.plane().with_orientation(orientation),
        lambda: catalog.surface_from_config({"kind": "rotation", "K_inf": 1.0, "orientation": orientation}),
    ]
    for build in builders:
        with pytest.raises(ValueError, match="surface orientation must be 1 or -1"):
            build()


# ---------------------------------------------------------------------------
# beta and the g_L basis


def test_beta_values():
    assert beta(4.0, 0.0) == 0.0
    L = 2.7
    assert beta(L, math.sqrt(L)) == pytest.approx(math.pi / 4)


def test_beta_derivative():
    # d(beta)/dA = sqrt(L)/(L+A^2)
    L, A, h = 3.0, 1.2, 1e-6
    fd = (beta(L, A + h) - beta(L, A - h)) / (2 * h)
    assert fd == pytest.approx(math.sqrt(L) / (L + A * A), rel=1e-8)


def test_xl_basis_orthonormal():
    rng = np.random.default_rng(RNG_SEED + 4)
    for patch, u_span, v_span in catalog_samples():
        u = float(rng.uniform(*u_span))
        v = float(rng.uniform(*v_span))
        s = adapted_frame(patch, u, v)
        for L in (1.0, 10.0, 100.0):
            basis = xl_basis(s, L)
            for i, x in enumerate(basis):
                for j, y in enumerate(basis):
                    want = 1.0 if i == j else 0.0
                    assert gl_inner(x, y, L) == pytest.approx(want, abs=1e-12)


def test_xl_basis_zero_tilt():
    patch = catalog.cylinder()
    s = adapted_frame(patch, 0.5, 0.5)
    L = 9.0
    x1, x2, x3 = xl_basis(s, L)
    assert np.allclose(x1.coefficients(), s.f1.coefficients(), atol=1e-12)
    assert np.allclose(x3.coefficients(), [0, 0, 1 / math.sqrt(L)], atol=1e-12)


def test_xl_basis_plane_hand_values():
    # A = 2, L = 1: X1 = (1/sqrt5) f1 - (2/sqrt5) e3^L
    patch = catalog.plane()
    s = adapted_frame(patch, 0.0, 1.0)
    x1, _, _ = xl_basis(s, 1.0)
    expected = (1 / math.sqrt(5)) * s.f1.coefficients() + np.array(
        [0.0, 0.0, -2 / math.sqrt(5)]
    )
    assert np.allclose(x1.coefficients(), expected, atol=1e-12)


# ---------------------------------------------------------------------------
# expression-backed patches


def test_graph_patch_jet():
    patch = graph_patch("u^2+v", name="test")
    pos, du, dv = patch.jet(0.5, 1.0)
    assert np.allclose(pos, [0.5, 1.0, 1.25])
    assert np.allclose(du, [1.0, 0.0, 1.0])
    assert np.allclose(dv, [0.0, 1.0, 1.0])


def test_parametric_patch_jet():
    patch = parametric_patch("cos(u)", "sin(u)", "v", (0, 2 * math.pi), (-1, 1), closed_u=True)
    pos, du, dv = patch.jet(0.0, 0.3)
    assert np.allclose(pos, [1.0, 0.0, 0.3])
    assert np.allclose(du, [0.0, 1.0, 0.0])
    assert np.allclose(dv, [0.0, 0.0, 1.0])
    s = adapted_frame(patch, 0.7, 0.1)
    assert s.A == pytest.approx(0.0, abs=1e-12)

