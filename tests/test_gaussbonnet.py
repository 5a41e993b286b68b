import math

import helpers
import pytest

from h1geom import catalog
from h1geom.errors import CharacteristicPointError, NonTransverseError
from h1geom.gaussbonnet import (
    AREA_TOL,
    BOUNDARY_TOL,
    ParamRegion,
    _gb_area_density,
    _gb_boundary_density,
    _region_convergence,
    _sides,
    convergence_study,
    fit_loglog_slope,
    gb_residual,
    stokes_density_check,
)
from h1geom.quadrature import integrate
from h1geom.surface import frame_data, graph_patch, parametric_patch

TWO_PI = 2.0 * math.pi
L_SWEEP = (1e2, 1e3, 1e4, 1e5, 1e6)


def annulus(r0, r1):
    return ParamRegion(0.0, TWO_PI, r0, r1, closed_u=True)


# ---------------------------------------------------------------------------
# plane annulus: values known in closed form


def test_plane_annulus_area():
    # K_inf = -2/r^2 against the density r^2/2 integrates to -1 per du dv
    patch = catalog.plane()
    assert gb_residual(patch, annulus(1.0, 2.0)).area_integral == pytest.approx(-TWO_PI, abs=1e-9)
    assert gb_residual(patch, annulus(0.5, 3.0)).area_integral == pytest.approx(-2.5 * TWO_PI, abs=1e-9)


def test_plane_annulus_boundary():
    patch = catalog.plane()
    assert gb_residual(patch, annulus(1.0, 2.0)).boundary_integral == pytest.approx(TWO_PI, abs=1e-9)
    # each circle contributes -pi*A*r^2 = -2*pi*r with its own orientation
    for radius in (1.0, 2.0):
        s = frame_data(patch, 0.0, radius)[0]
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
        s = frame_data(patch, 1.0, v)[0]
        pos = helpers.position(patch, 1.0, v)
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
    report = gb_residual(patch, region)
    assert report.boundary_integral == pytest.approx(0.0, abs=1e-9)
    assert report.area_integral == pytest.approx(0.0, abs=1e-9)


def test_band_boundary_telescopes():
    # oriented circle sum is pi * [(r^2)'] between the band edges
    r, A, _ = helpers.reference_family_kernels(-1.0, 1.0, 0.0)
    patch = catalog.constant_curvature(-1.0)
    v0, v1 = -0.8, 1.1
    region = ParamRegion(0.0, TWO_PI, v0, v1, closed_u=True)
    value = gb_residual(patch, region).boundary_integral
    expect = math.pi * (A(v1) * r(v1) ** 2 - A(v0) * r(v0) ** 2)
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
    whole, left, right = (
        gb_residual(patch, ParamRegion(0.0, TWO_PI, a, b, closed_u=True)) for a, b in ((v0, v2), (v0, v1), (v1, v2))
    )
    assert whole.area_integral == pytest.approx(left.area_integral + right.area_integral, abs=2e-9)
    # interior circles cancel, so boundary integrals add too
    assert whole.boundary_integral == pytest.approx(left.boundary_integral + right.boundary_integral, abs=2e-9)


def test_characteristic_region_refused():
    patch = catalog.plane_cartesian()
    with pytest.raises(CharacteristicPointError):
        gb_residual(patch, ParamRegion(-0.5, 0.5, -0.5, 0.5))


def test_non_transverse_boundary_refused():
    # radial edges on the polar plane run along f2, killing the f3 component
    patch = catalog.plane()
    with pytest.raises(NonTransverseError):
        gb_residual(patch, ParamRegion(0.0, 1.0, 1.0, 2.0))


def test_region_validation():
    with pytest.raises(ValueError):
        ParamRegion(1.0, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("orientation", [0, 2, -2])
def test_region_orientation_must_be_plus_or_minus_one(orientation):
    # 0 once reported area -0 and 2 a doubled area, each as a failed residual
    with pytest.raises(ValueError, match="orientation"):
        ParamRegion(1.0, 2.0, -1.0, -0.5, orientation=orientation)


def test_region_orientation_is_not_a_boolean():
    # True == 1, so the membership test alone took it as orientation 1
    with pytest.raises(ValueError, match="orientation"):
        ParamRegion(1.0, 2.0, -1.0, -0.5, orientation=True)


def test_rectangle_region_on_paraboloid():
    # Stokes holds on any rectangle with transverse edges (v - u/2 and
    # u + v/2 must not vanish on them)
    patch = catalog.paraboloid()
    report = gb_residual(patch, ParamRegion(0.5, 0.7, 0.5, 1.2))
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
    s = frame_data(patch, u + h / 2, v + h / 2)[0]
    assert rhs == pytest.approx(-1.0 * s.area_density * h * h, rel=1e-12)


# ---------------------------------------------------------------------------
# convergence studies


def test_convergence_point_slopes_on_plane():
    patch = catalog.plane()
    point = convergence_study(patch, (0.0, 1.0), L_SWEEP, (1.0, 1.0))
    assert point.K_inf == pytest.approx(-2.0, abs=1e-9)
    assert point.slope_err_K == pytest.approx(-1.0, abs=0.05)
    assert point.slope_sigma == pytest.approx(0.5, abs=0.02)
    assert point.slope_K_L_sigma == pytest.approx(0.5, abs=0.05)
    assert point.slope_err_k_n is not None and point.slope_err_k_n <= -0.45


def test_convergence_zero_tilt_rows_are_exact():
    patch = catalog.cylinder()
    study = convergence_study(patch, (0.5, 0.5), (1e2, 1e4), (1.0, 0.0))
    for row in study.rows:
        assert row.err_K == 0.0
        assert row.err_k_n == pytest.approx(0.0, abs=1e-12)
    assert study.slope_err_K is None


def test_convergence_region_sum_tends_to_zero():
    # a rectangle: its corners leave (2 pi - exterior angles) / sqrt(L); on an
    # annulus the sum is 0 at every L (test_finite_l_region_sum_is_the_gauss_bonnet_corner_term)
    patch = catalog.paraboloid()
    region = ParamRegion(1.0, 2.0, -1.0, -0.5)
    study = _region_convergence(patch, region, (1e2, 1e3, 1e4))
    residuals = [abs(row[3]) for row in study.rows]
    assert residuals[0] > residuals[-1]
    assert residuals[-1] <= 1e-3
    assert study.slope_residual is not None and study.slope_residual < -0.4


def test_unrescaled_area_element_diverges():
    patch = catalog.plane()
    study = convergence_study(patch, (0.0, 1.0), L_SWEEP, (1.0, 0.0))
    rows = study.rows
    assert fit_loglog_slope([r.L for r in rows], [r.sigma_L for r in rows]) == pytest.approx(
        0.5, abs=0.02
    )
    # K_L * sigma_L likewise grows ~ sqrt(L): no finite limit
    assert study.slope_K_L_sigma == pytest.approx(0.5, abs=0.05)
    rescaled = [r.rescaled_sigma for r in rows]
    assert rescaled[-1] == pytest.approx(1.0, rel=1e-5)


def test_slope_over_one_repeated_L_is_degenerate():
    # a repeated L gives polyfit a rank-1 system (a RankWarning and a meaningless slope)
    assert fit_loglog_slope([100.0, 100.0], [0.5, 0.25]) is None


def test_slope_over_nearly_equal_L_is_degenerate():
    # distinct L 1e-13 apart still leave polyfit rank-deficient: no warning, no slope
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fit_loglog_slope([100.0, 100.0000000000001], [0.5, 0.25]) is None
        assert fit_loglog_slope([100.0, 1000.0], [0.5, 0.25]) == pytest.approx(math.log10(0.5))
    study = convergence_study(catalog.paraboloid(), (0.5, 0.25), [1e2, 1e2, 1e2], (1.0, 0.0))
    assert study.slope_err_K is None and study.slope_sigma is None


def test_slope_over_L_all_equal_to_1_is_degenerate():
    # log10(L) is then a column of zeros, which polyfit divided by its norm 0:
    # a RuntimeWarning, then LAPACK's lines on stderr and an SVD error
    assert fit_loglog_slope([1.0, 1.0], [0.5, 0.25]) is None
    study = convergence_study(catalog.paraboloid(), (0.5, 0.25), [1.0, 1.0], (1.0, 0.0))
    assert study.slope_err_K is None and study.slope_sigma is None


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
    with pytest.raises(ValueError, match="closed in u"):
        gb_residual(patch, region)
    with pytest.raises(ValueError, match="closed in u"):
        _region_convergence(patch, region, (1e2, 1e3))


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
    patch = catalog.paraboloid()
    region = ParamRegion(WINDING.u0, WINDING.u1, WINDING.v0, WINDING.v1, orientation=orientation)
    helpers.reference_region_prescan(patch, region)  # the origin lies between the grid nodes
    with pytest.raises(CharacteristicPointError, match=f"winding number {winding} "):
        gb_residual(patch, region)
    with pytest.raises(CharacteristicPointError, match="winding number"):
        _region_convergence(patch, region, (1e2, 1e3))
    # the boundary integral itself is well defined
    assert math.isfinite(_sides(patch, region, _gb_area_density, _gb_boundary_density, AREA_TOL, BOUNDARY_TOL)[1][0][0])


def test_each_report_makes_one_frame_batch(monkeypatch):
    # the region gate takes its grid and its boundary samples in one pushforward_frame call, before either side
    from h1geom import gaussbonnet

    real, sizes = gaussbonnet.pushforward_frame, []
    monkeypatch.setattr(gaussbonnet, "pushforward_frame", lambda S, u, v: sizes.append(len(u)) or real(S, u, v))
    gb_residual(catalog.paraboloid(), ParamRegion(1.0, 2.0, -1.0, -0.5))
    _region_convergence(catalog.constant_curvature(1.0), ParamRegion(0.0, TWO_PI, -0.5, 0.8, closed_u=True), (1e2, 1e3))
    grid, piece = gaussbonnet.REGION_SCAN**2, gaussbonnet.BOUNDARY_SCAN
    assert sizes == [grid + 4 * piece, grid + 2 * piece]


def test_region_gate_evaluates_no_second_order_jet(monkeypatch):
    # the gate reads positions and tangents alone, so graph and parametric charts serve it from a first-order pass
    from h1geom import expr
    from h1geom.gaussbonnet import _check_region

    calls, real = [], expr.eval_hyperdual
    monkeypatch.setattr(expr, "eval_hyperdual", lambda *args: calls.append(args) or real(*args))
    charts = [
        (catalog.paraboloid(), ParamRegion(1.0, 2.0, -1.0, -0.5)),
        (graph_patch("sin(u) + v^2"), ParamRegion(1.0, 2.0, -1.0, -0.5)),
        (catalog.surface_from_config({"kind": "parametric", "x": "u + v/4", "y": "v", "z": "sin(u)*v", "u_range": [0, 3],
                                       "v_range": [0, 3]}), ParamRegion(1.0, 2.0, 0.5, 1.0)),
    ]
    for patch, region in charts:
        _check_region(patch, region)
    assert calls == []
    frame_data(charts[0][0], 1.5, -0.75)  # the patch reaches the charts' second-order jets
    assert len(calls) == 1


def test_cubature_rule_is_built_once_per_dimension(monkeypatch):
    # two reports, each a 2-D area and a 1-D boundary cubature: the product rule of each dimension is built once
    from h1geom import quadrature

    quadrature._gk21.cache_clear()
    patch = catalog.paraboloid()
    for region in (ParamRegion(1.0, 2.0, -1.0, -0.5), ParamRegion(0.02, 1.0, 0.02, 1.0)):
        gb_residual(patch, region)
    info = quadrature._gk21.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)


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

    # f_v vanishes at the origin alone, the centre node of the cubature's first box; the region gate tests
    # characteristic points and transversality but not degeneracy, and the boundary keeps an f3 component
    patch = parametric_patch("u^2 - v^2", "2*u*v", "u", (-1.0, 1.0), (-1.0, 1.0))
    with pytest.raises(DegenerateParametrizationError, match=r"dependent coordinate tangents .* at \(u, v\) = \(0\.0, 0\.0\)"):
        gb_residual(patch, ParamRegion(-0.5, 0.5, -0.5, 0.5))
    # the line u = 0 of f_u = 0 crosses the edges v = const, so the gate refuses that region first
    patch = parametric_patch("u^3", "v", "v + u^3", (-1.0, 1.0), (0.0, 1.0))
    with pytest.raises(NonTransverseError, match=r"at \(0\.0, 0\.2\)"):
        gb_residual(patch, ParamRegion(-1.0, 1.0, 0.2, 1.0))


def test_cubature_refuses_unconverged_and_non_finite_results(monkeypatch):
    import numpy as np

    from h1geom import quadrature
    from h1geom.errors import QuadratureError

    with pytest.raises(QuadratureError, match="did not converge"):
        quadrature.cubature(lambda x: [np.full(len(x[0]), math.nan)], [((0.0,), (1.0,), 1e-9)])
    with pytest.raises(QuadratureError, match="did not converge"):
        quadrature.cubature(lambda x: [1.0 / x[0][:, 0]], [((-1.0,), (2.0,), 1e-9)])  # pole inside
    [(value, error)] = quadrature.cubature(
        lambda x: [np.stack([np.cos(x[0][:, 0]), x[0][:, 0] ** 2], axis=-1)], [((0.0,), (1.0,), 1e-12)]
    )
    assert value == pytest.approx([math.sin(1.0), 1.0 / 3.0], abs=1e-12) and (error <= 1e-12).all()
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 1)
    with pytest.raises(QuadratureError, match="did not converge"):
        gb_residual(catalog.paraboloid(), ParamRegion(0.02, 1.0, 0.02, 1.0))


def _scipy_cubature(monkeypatch):
    """Run gaussbonnet's cubatures through scipy's public rule="gk21" cubature; returns the list of their subdivisions."""
    from scipy.integrate import cubature as scipy_cubature

    from h1geom import gaussbonnet, quadrature

    subdivisions = []

    def scipy_gk21(f, problems):  # each problem alone, in order
        results = []
        for k, (a, b, tol) in enumerate(problems):
            def f_k(x, k=k):
                return f([None] * k + [x] + [None] * (len(problems) - k - 1))[k]

            result = scipy_cubature(f_k, a, b, rule="gk21", rtol=1e-13, atol=tol, max_subdivisions=quadrature.MAX_SUBDIVISIONS)
            assert result.status == "converged"
            subdivisions.append(result.subdivisions)
            results.append((result.estimate, result.error))
        return results

    monkeypatch.setattr(gaussbonnet, "cubature", scipy_gk21)
    return subdivisions


@pytest.mark.parametrize("region", [ParamRegion(1.0, 2.0, -1.0, -0.5), ParamRegion(0.02, 1.0, 0.02, 1.0)])
def test_each_cubature_box_is_one_frame_call(monkeypatch, region):
    import numpy as np

    from h1geom import gaussbonnet

    rows, frame_tangents = [], gaussbonnet.frame_tangents

    def counted(S, u, v, *args):
        rows.append(np.size(u))
        return frame_tangents(S, u, v, *args)

    monkeypatch.setattr(gaussbonnet, "frame_tangents", counted)
    gb_residual(catalog.paraboloid(), region)
    ours, subdivisions = rows[:], _scipy_cubature(monkeypatch)
    gb_residual(catalog.paraboloid(), region)
    area, boundary = subdivisions
    # 21^2 Kronrod and 10^2 Gauss nodes per area box, 21 + 10 per boundary box and piece: one call per round takes
    # the first box of both sides, then the halves of each side's worst box while that side is open
    later = [4 * 541 * (r <= area) + 2 * 31 * 4 * (r <= boundary) for r in range(1, max(subdivisions) + 1)]
    assert ours == [541 + 31 * 4] + later


def test_each_density_takes_only_its_own_sides_rows():
    # one frame batch a round holds both sides' nodes, and each density gets its own side's rows alone: the finite-L
    # boundary density divides by a^2 + b^2 (L + A^2), which has no meaning at an area node
    seen = []

    def area(sample, fd):
        seen.append(("area", len(sample.A), len(fd.dA_f2)))
        return _gb_area_density(sample, fd)

    def boundary(sample, fd, tangents, direction):
        seen.append(("boundary", len(sample.A), len(tangents[0][0].value), len(direction[0])))
        return _gb_boundary_density(sample, fd, tangents, direction)

    patch, region = catalog.paraboloid(), ParamRegion(0.02, 1.0, 0.02, 1.0)
    (area_value, area_err), (boundary_value, boundary_err) = _sides(patch, region, area, boundary, AREA_TOL, BOUNDARY_TOL)
    report = gb_residual(patch, region)
    assert [area_value[0], boundary_value[0], area_err, boundary_err] == [
        report.area_integral, report.boundary_integral, report.area_error_est, report.boundary_error_est
    ]
    assert seen[:2] == [("area", 541, 541), ("boundary", 31 * 4, 31 * 4, 31 * 4)]
    assert {entry[1] for entry in seen[2:] if entry[0] == "area"} == {4 * 541}
    assert {entry[1:] for entry in seen[2:] if entry[0] == "boundary"} <= {(2 * 31 * 4,) * 3}


def test_gauss_bonnet_report_is_that_of_scipys_gk21_rule(monkeypatch):
    from dataclasses import astuple

    patch, region = catalog.paraboloid(), ParamRegion(0.02, 1.0, 0.02, 1.0)
    report = gb_residual(patch, region)
    subdivisions = _scipy_cubature(monkeypatch)
    scipy_report = gb_residual(patch, region)
    assert list(map(float.hex, astuple(scipy_report))) == list(map(float.hex, astuple(report)))
    # the patch must reach scipy, or the two reports are one rule's twice; and the area side subdivides
    assert len(subdivisions) == 2 and subdivisions[0] >= 3


def test_finite_l_region_sum_is_the_gauss_bonnet_corner_term():
    # with the boundary's rotation rate per unit parameter, each rescaled
    # finite-L sum is Riemannian Gauss-Bonnet's (2 pi - exterior angles) / sqrt(L)
    import numpy as np

    from h1geom.gaussbonnet import _segments
    from h1geom.surface import pushforward_frame

    patch = catalog.paraboloid()
    region = ParamRegion(1.0, 2.0, -1.0, -0.5)
    study = _region_convergence(patch, region, L_SWEEP)
    pieces = _segments(region)
    for L, row in zip(L_SWEEP, study.rows):
        angles = 0.0
        for (_, d_in, _), (corner, d_out, _) in zip(pieces, pieces[1:] + pieces[:1]):
            f_u, f_v = (helpers.coefficients(t) for t in pushforward_frame(patch, *corner))
            t_in, t_out = ((d[0] * f_u + d[1] * f_v) * [1.0, 1.0, math.sqrt(L)] for d in (d_in, d_out))
            angles += math.acos(np.dot(t_in, t_out) / np.linalg.norm(t_in) / np.linalg.norm(t_out))
        assert row[3] == pytest.approx((TWO_PI - angles) / math.sqrt(L), rel=1e-6)
    assert study.slope_residual == pytest.approx(-1.0, abs=0.05)
    # an annulus has no corners and Euler characteristic 0: the sum vanishes at every L
    annulus_rows = _region_convergence(catalog.plane(), annulus(1.0, 2.0), L_SWEEP).rows
    assert all(abs(row[3]) <= 1e-12 for row in annulus_rows)
