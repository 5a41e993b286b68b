import math

import pytest

from h1geom import catalog
from h1geom.errors import CharacteristicPointError, NonTransverseError
from h1geom.gaussbonnet import (
    ParamRegion,
    area_integral,
    boundary_integral,
    convergence_study,
    fit_loglog_slope,
    gb_residual,
    stokes_density_check,
)
from h1geom.quadrature import integrate
from h1geom.surface import adapted_frame, graph_patch, parametric_patch

TWO_PI = 2.0 * math.pi
L_SWEEP = (1e2, 1e3, 1e4, 1e5, 1e6)


def annulus(r0, r1):
    return ParamRegion(0.0, TWO_PI, r0, r1, closed_u=True)


# ---------------------------------------------------------------------------
# plane annulus: values known in closed form


def test_plane_annulus_area():
    # K_inf = -2/r^2 against the density r^2/2 integrates to -1 per du dv
    patch = catalog.plane()
    assert area_integral(patch, annulus(1.0, 2.0)) == pytest.approx(-TWO_PI, abs=1e-9)
    assert area_integral(patch, annulus(0.5, 3.0)) == pytest.approx(-2.5 * TWO_PI, abs=1e-9)


def test_plane_annulus_boundary():
    patch = catalog.plane()
    assert boundary_integral(patch, annulus(1.0, 2.0)) == pytest.approx(TWO_PI, abs=1e-9)
    # each circle contributes -pi*A*r^2 = -2*pi*r with its own orientation
    for radius in (1.0, 2.0):
        s = adapted_frame(patch, 0.0, radius)
        value = integrate(lambda t: s.A * (-0.5 * radius * radius), 0.0, TWO_PI, 1e-12)
        assert value == pytest.approx(-TWO_PI * radius, abs=1e-10)


def test_plane_annulus_residual():
    patch = catalog.plane()
    for radii in ((1.0, 2.0), (0.5, 3.0), (2.0, 2.5)):
        report = gb_residual(patch, annulus(*radii))
        assert abs(report.residual) <= 1e-8
        assert report.residual == report.area_integral + report.boundary_integral


def test_area_density_on_rotation_band():
    # the pullback density of f^2^f^3 through the rotation chart is r^2/2
    patch = catalog.constant_curvature(-1.0)
    for v in (-1.2, 0.2, 1.0):
        s = adapted_frame(patch, 1.0, v)
        pos = patch.position(1.0, v)
        assert s.area_density == pytest.approx(0.5 * (pos.x**2 + pos.y**2), rel=1e-10)


# ---------------------------------------------------------------------------
# constant-curvature bands


def test_band_residuals():
    bands = {1.0: (-0.5, 0.8), 0.0: (0.3, 1.2), -1.0: (-1.0, 1.5)}
    for K, (v0, v1) in bands.items():
        patch = catalog.constant_curvature(K)
        report = gb_residual(patch, ParamRegion(0.0, TWO_PI, v0, v1, closed_u=True))
        assert abs(report.residual) <= 1e-8


def test_k0_band_boundary_cancels():
    # A r^2 = (r^2)' = r0^2 on the zero-curvature band, so the two circles cancel
    patch = catalog.constant_curvature(0.0)
    region = ParamRegion(0.0, TWO_PI, 0.3, 1.2, closed_u=True)
    assert boundary_integral(patch, region) == pytest.approx(0.0, abs=1e-9)
    assert area_integral(patch, region) == pytest.approx(0.0, abs=1e-9)


def test_band_boundary_telescopes():
    # oriented circle sum is pi * [(r^2)'] between the band edges
    from h1geom.rotsurf import A_family, r_family

    patch = catalog.constant_curvature(-1.0)
    v0, v1 = -0.8, 1.1
    region = ParamRegion(0.0, TWO_PI, v0, v1, closed_u=True)
    value = boundary_integral(patch, region)
    expect = math.pi * (
        A_family(-1.0, v1) * r_family(-1.0, 1.0, v1) ** 2
        - A_family(-1.0, v0) * r_family(-1.0, 1.0, v0) ** 2
    )
    assert value == pytest.approx(expect, abs=1e-9)


# ---------------------------------------------------------------------------
# region mechanics


def test_degenerate_region_is_zero():
    patch = catalog.plane()
    region = ParamRegion(0.0, TWO_PI, 1.5, 1.5, closed_u=True)
    report = gb_residual(patch, region)
    assert report.area_integral == 0.0
    assert report.boundary_integral == 0.0
    assert report.residual == 0.0


def test_orientation_flip_negates_both():
    patch = catalog.plane()
    plus = gb_residual(patch, annulus(1.0, 2.0))
    minus = gb_residual(
        patch, ParamRegion(0.0, TWO_PI, 1.0, 2.0, closed_u=True, orientation=-1)
    )
    assert minus.area_integral == pytest.approx(-plus.area_integral, rel=1e-12)
    assert minus.boundary_integral == pytest.approx(-plus.boundary_integral, rel=1e-12)
    assert abs(minus.residual) <= 1e-8


def test_additivity_of_bands():
    patch = catalog.constant_curvature(-1.0)
    v0, v1, v2 = -0.9, 0.1, 1.3
    whole = area_integral(patch, ParamRegion(0.0, TWO_PI, v0, v2, closed_u=True))
    left = area_integral(patch, ParamRegion(0.0, TWO_PI, v0, v1, closed_u=True))
    right = area_integral(patch, ParamRegion(0.0, TWO_PI, v1, v2, closed_u=True))
    assert whole == pytest.approx(left + right, abs=2e-9)
    # interior circles cancel, so boundary integrals add too
    b_whole = boundary_integral(patch, ParamRegion(0.0, TWO_PI, v0, v2, closed_u=True))
    b_parts = boundary_integral(
        patch, ParamRegion(0.0, TWO_PI, v0, v1, closed_u=True)
    ) + boundary_integral(patch, ParamRegion(0.0, TWO_PI, v1, v2, closed_u=True))
    assert b_whole == pytest.approx(b_parts, abs=2e-9)


def test_characteristic_region_refused():
    patch = catalog.plane_cartesian()
    with pytest.raises(CharacteristicPointError):
        area_integral(patch, ParamRegion(-0.5, 0.5, -0.5, 0.5))


def test_non_transverse_boundary_refused():
    # radial edges on the polar plane run along f2, killing the f3 component
    patch = catalog.plane()
    with pytest.raises(NonTransverseError):
        boundary_integral(patch, ParamRegion(0.0, 1.0, 1.0, 2.0))


def test_region_validation():
    with pytest.raises(ValueError):
        ParamRegion(1.0, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("orientation", [0, 2, -2])
def test_region_orientation_must_be_plus_or_minus_one(orientation):
    # 0 once reported area -0 and 2 a doubled area, each as a failed residual
    with pytest.raises(ValueError, match="orientation"):
        ParamRegion(1.0, 2.0, -1.0, -0.5, orientation=orientation)


def test_rectangle_region_on_paraboloid():
    # Stokes holds on any rectangle with transverse edges (v - u/2 and
    # u + v/2 must not vanish on them)
    patch = catalog.paraboloid()
    report = gb_residual(patch, ParamRegion(0.5, 0.7, 0.5, 1.2), boundary_tol=1e-11)
    assert abs(report.residual) <= 1e-8


@pytest.mark.parametrize(
    "patch, region",
    [
        (catalog.paraboloid(), ParamRegion(1.0, 2.0, -1.0, -0.5)),
        (
            parametric_patch(
                "(2+cos(v))*cos(u)", "(2+cos(v))*sin(u)", "sin(v)+0.3*sin(u)",
                (0.0, TWO_PI), (-0.4, 0.4), closed_u=True,
            ),
            ParamRegion(0.0, TWO_PI, -0.4, 0.4, closed_u=True),
        ),
        (
            graph_patch(
                "0.383629*u^2 + -0.101786*v^2 + -0.419296*u*v + 0.225044*sin(-0.504825*u + 1.462483*v + 5.415041)",
                (-2.5, 2.5),
                (-2.5, 2.5),
            ),
            ParamRegion(0.42593, 1.30373, -0.09802, 0.86984),
        ),
    ],
    ids=["paraboloid", "closed-parametric-band", "graph-rectangle"],
)
def test_residual_at_rounding_level_on_expression_charts(patch, region):
    # exact derivatives leave only quadrature rounding in the residual
    report = gb_residual(patch, region)
    assert abs(report.residual) <= 1e-13
    assert abs(report.area_integral) > 1e-2


# ---------------------------------------------------------------------------
# Stokes density check


def test_stokes_density_second_order():
    patch = catalog.plane_cartesian()
    ratios = []
    for h in (2e-2, 1e-2, 5e-3):
        lhs, rhs = stokes_density_check(patch, 1.0, 0.0, h)
        ratios.append(abs(lhs - rhs) / (h * h))
    assert ratios[0] >= 2.0 * ratios[1]
    assert ratios[1] >= 2.0 * ratios[2]


def test_stokes_density_zero_tilt():
    patch = catalog.cylinder()
    lhs, rhs = stokes_density_check(patch, 0.3, 0.4, 1e-2)
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert rhs == 0.0


def test_stokes_density_equals_minus_k_inf_density():
    # on a constant-curvature band the density is -K_inf * rho
    patch = catalog.constant_curvature(1.0)
    u, v, h = 0.5, 0.2, 1e-3
    _, rhs = stokes_density_check(patch, u, v, h)
    s = adapted_frame(patch, u + h / 2, v + h / 2)
    assert rhs == pytest.approx(-1.0 * s.area_density * h * h, rel=1e-12)


# ---------------------------------------------------------------------------
# convergence studies


def test_convergence_point_slopes_on_plane():
    patch = catalog.plane()
    study = convergence_study(patch, [(0.0, 1.0)], L_SWEEP, direction=(1.0, 1.0))
    point = study.points[0]
    assert point.K_inf == pytest.approx(-2.0, abs=1e-9)
    assert point.slope_err_K == pytest.approx(-1.0, abs=0.05)
    assert point.slope_sigma == pytest.approx(0.5, abs=0.02)
    assert point.slope_K_L_sigma == pytest.approx(0.5, abs=0.05)
    assert point.slope_err_k_n is not None and point.slope_err_k_n <= -0.45


def test_convergence_zero_tilt_rows_are_exact():
    patch = catalog.cylinder()
    study = convergence_study(patch, [(0.5, 0.5)], (1e2, 1e4), direction=(1.0, 0.0))
    for row in study.points[0].rows:
        assert row.err_K == 0.0
        assert row.err_k_n == pytest.approx(0.0, abs=1e-12)
    assert study.points[0].slope_err_K is None


def test_convergence_region_sum_tends_to_zero():
    # a rectangle: its corners leave (2 pi - exterior angles) / sqrt(L); on an
    # annulus the sum is 0 at every L (test_finite_l_region_sum_is_the_gauss_bonnet_corner_term)
    patch = catalog.paraboloid()
    region = ParamRegion(1.0, 2.0, -1.0, -0.5)
    study = convergence_study(
        patch, [], (1e2, 1e3, 1e4), direction=None, region=region
    )
    residuals = [abs(row[3]) for row in study.region.rows]
    assert residuals[0] > residuals[-1]
    assert residuals[-1] <= 1e-3
    assert study.region.slope_residual is not None and study.region.slope_residual < -0.4


def test_unrescaled_area_element_diverges():
    patch = catalog.plane()
    study = convergence_study(patch, [(0.0, 1.0)], L_SWEEP, direction=None)
    rows = study.points[0].rows
    assert fit_loglog_slope([r.L for r in rows], [r.sigma_L for r in rows]) == pytest.approx(
        0.5, abs=0.02
    )
    # K_L * sigma_L likewise grows ~ sqrt(L): no finite limit
    assert study.points[0].slope_K_L_sigma == pytest.approx(0.5, abs=0.05)
    rescaled = [r.rescaled_sigma for r in rows]
    assert rescaled[-1] == pytest.approx(1.0, rel=1e-5)


# ---------------------------------------------------------------------------
# error budgets and closed regions


def test_boundary_error_estimate_is_quadpack_not_the_tolerance():
    # the estimate sums QUADPACK's per-piece estimates; it used to read the
    # requested tolerance, 1e-10, for every region
    patch = catalog.paraboloid()
    reports = [gb_residual(patch, ParamRegion(1.0, 2.0, v0, -0.5)) for v0 in (-1.0, -1.5)]
    estimates = [report.boundary_error_est for report in reports]
    assert all(0.0 < est < 1e-10 for est in estimates)
    assert estimates[0] != estimates[1]


CLOSED_BAND = parametric_patch(
    "(2+cos(v))*cos(u)", "(2+cos(v))*sin(u)", "sin(v)+0.3*sin(u)",
    (0.0, TWO_PI), (-0.4, 0.4), closed_u=True,
)


@pytest.mark.parametrize(
    "patch, region",
    [
        (CLOSED_BAND, ParamRegion(0.0, 3.0, -0.4, 0.4, closed_u=True)),  # read a residual of 0.75
        (catalog.constant_curvature(1.0), ParamRegion(0.0, 3.0, -0.5, 0.8, closed_u=True)),
        (catalog.paraboloid(), ParamRegion(-2.0, 2.0, 0.5, 1.0, closed_u=True)),  # chart not closed
    ],
)
def test_closed_region_must_span_a_period_of_a_closed_chart(patch, region):
    for integral in (area_integral, boundary_integral, gb_residual):
        with pytest.raises(ValueError, match="closed in u"):
            integral(patch, region)
    with pytest.raises(ValueError, match="closed in u"):
        convergence_study(patch, [], (1e2, 1e3), direction=None, region=region)


def test_closed_regions_over_a_full_period_pass():
    assert abs(gb_residual(CLOSED_BAND, ParamRegion(0.0, TWO_PI, -0.4, 0.4, closed_u=True)).residual) <= 1e-13
    for K, band in ((1.0, (-0.5, 0.8)), (0.0, (0.3, 1.2)), (-1.0, (-1.0, 1.5))):
        report = gb_residual(catalog.constant_curvature(K), ParamRegion(0.0, TWO_PI, *band, closed_u=True))
        assert abs(report.residual) <= 1e-12


# ---------------------------------------------------------------------------
# the winding gate and the cubature's error paths


WINDING = ParamRegion(-0.3, 1.0, -0.2, 0.9)  # holds the paraboloid's characteristic origin


@pytest.mark.parametrize("orientation, winding", [(1, 1), (-1, -1)])
def test_region_winding_around_a_characteristic_point_is_refused(orientation, winding):
    from h1geom.gaussbonnet import _region_prescan

    patch = catalog.paraboloid()
    region = ParamRegion(WINDING.u0, WINDING.u1, WINDING.v0, WINDING.v1, orientation=orientation)
    _region_prescan(patch, region)  # the origin lies between the grid nodes
    for integral in (area_integral, gb_residual):
        with pytest.raises(CharacteristicPointError, match=f"winding number {winding} "):
            integral(patch, region)
    with pytest.raises(CharacteristicPointError, match="winding number"):
        convergence_study(patch, [], (1e2, 1e3), direction=None, region=region)
    # the boundary integral itself is well defined
    assert math.isfinite(boundary_integral(patch, region))


def test_regions_beside_a_characteristic_point_wind_zero():
    # the origin on the far side of an edge, and closed bands of the rotation families
    patch = catalog.paraboloid()
    for region in (ParamRegion(0.02, 1.0, 0.02, 1.0), ParamRegion(-1.0, -0.02, -0.9, 0.3)):
        assert abs(gb_residual(patch, region).residual) <= 1e-13
    for K, band in ((1.0, (-0.5, 0.8)), (-1.0, (-1.0, 1.5))):
        region = ParamRegion(0.0, TWO_PI, *band, closed_u=True)
        assert abs(gb_residual(catalog.constant_curvature(K), region).residual) <= 1e-12


def test_singular_cubature_node_raises_the_point_error():
    from h1geom.errors import DegenerateParametrizationError

    # f_u vanishes on u = 0, the middle line of the cubature's nodes; no prescan tests degeneracy
    patch = parametric_patch("u^3", "v", "v + u^3", (-1.0, 1.0), (0.0, 1.0))
    with pytest.raises(DegenerateParametrizationError, match=r"dependent coordinate tangents .* at \(u, v\) = \(0\.0, "):
        area_integral(patch, ParamRegion(-1.0, 1.0, 0.2, 1.0))


def test_cubature_refuses_unconverged_and_non_finite_results(monkeypatch):
    import numpy as np

    from h1geom import quadrature
    from h1geom.errors import QuadratureError

    with pytest.raises(QuadratureError, match="did not converge"):
        quadrature.cubature(lambda x: np.full(len(x), math.nan), (0.0,), (1.0,), 1e-9)
    with pytest.raises(QuadratureError, match="did not converge"):
        quadrature.cubature(lambda x: 1.0 / x[:, 0], (-1.0,), (2.0,), 1e-9)  # pole inside
    value, error = quadrature.cubature(lambda x: np.stack([np.cos(x[:, 0]), x[:, 0] ** 2], axis=-1), (0.0,), (1.0,), 1e-12)
    assert value == pytest.approx([math.sin(1.0), 1.0 / 3.0], abs=1e-12) and (error <= 1e-12).all()
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 1)
    with pytest.raises(QuadratureError, match="did not converge"):
        gb_residual(catalog.paraboloid(), ParamRegion(0.02, 1.0, 0.02, 1.0))


def test_finite_l_region_sum_is_the_gauss_bonnet_corner_term():
    # with the boundary's rotation rate per unit parameter, each rescaled
    # finite-L sum is Riemannian Gauss-Bonnet's (2 pi - exterior angles) / sqrt(L)
    import numpy as np

    from h1geom.gaussbonnet import _segments
    from h1geom.surface import pushforward_frame

    patch = catalog.paraboloid()
    region = ParamRegion(1.0, 2.0, -1.0, -0.5)
    study = convergence_study(patch, [], L_SWEEP, direction=None, region=region)
    pieces = _segments(region)
    for L, row in zip(L_SWEEP, study.region.rows):
        angles = 0.0
        for (_, d_in, _), (corner, d_out, _) in zip(pieces, pieces[1:] + pieces[:1]):
            f_u, f_v = (t.coefficients() for t in pushforward_frame(patch, *corner))
            t_in, t_out = ((d[0] * f_u + d[1] * f_v) * [1.0, 1.0, math.sqrt(L)] for d in (d_in, d_out))
            angles += math.acos(np.dot(t_in, t_out) / np.linalg.norm(t_in) / np.linalg.norm(t_out))
        assert row[3] == pytest.approx((TWO_PI - angles) / math.sqrt(L), rel=1e-6)
    assert study.region.slope_residual == pytest.approx(-1.0, abs=0.05)
    # an annulus has no corners and Euler characteristic 0: the sum vanishes at every L
    annulus_rows = convergence_study(catalog.plane(), [], L_SWEEP, direction=None, region=annulus(1.0, 2.0)).region.rows
    assert all(abs(row[3]) <= 1e-12 for row in annulus_rows)
