"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Every tolerance is pinned here; the independent oracles (hand values,
bisection, closed-form antiderivatives, finite differences) live next to
the assertions they feed.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import helpers
from h1geom import catalog
from h1geom import expr as ex
from h1geom.cli import main
from h1geom.curvature import k_gauss_map, k_inf, k_L, k_n, k_n_L
from h1geom.gaussbonnet import ParamRegion, gb_residual
from h1geom.hgroup import riemann_component
from h1geom.rotsurf import domain_bound, e3_chord_ratio, family_profile
from h1geom.surface import frame_data

TWO_PI = 2.0 * math.pi
L_SWEEP = (1e2, 1e3, 1e4, 1e5, 1e6)


@contextmanager
def criterion(name, budget_seconds=None):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"{name}: {elapsed:.2f}s over budget {budget_seconds}s"
    print(f"[PASS] {name} ({elapsed:.2f}s)")


NONZERO = {}
for base, coeff in (((1, 2, 1, 2), 0.75), ((1, 3, 1, 3), -0.25), ((2, 3, 2, 3), -0.25)):
    a, b, c, d = base
    for image in ((a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a)):
        NONZERO[image] = coeff
    for image in ((b, a, c, d), (a, b, d, c), (d, c, a, b), (c, d, b, a)):
        NONZERO[image] = -coeff


def test_curvature_tensor_table():
    with criterion("curvature tensor table (3L/4, -L/4, zeros)", budget_seconds=1.0):
        for L in (1.0, 10.0, 100.0):
            assert riemann_component(L, 1, 2, 1, 2) == pytest.approx(0.75 * L, rel=1e-12)
            assert riemann_component(L, 1, 3, 1, 3) == pytest.approx(-0.25 * L, rel=1e-12)
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    for k in (1, 2, 3):
                        for l in (1, 2, 3):
                            value = riemann_component(L, i, j, k, l)
                            want = NONZERO.get((i, j, k, l), 0.0) * L
                            if want == 0.0:
                                assert abs(value) <= 1e-12
                            else:
                                assert value == pytest.approx(want, rel=1e-12)


def _identity_surfaces():
    return [
        (catalog.plane(), (0.0, TWO_PI), (0.5, 3.0)),
        (catalog.cylinder(), (0.0, TWO_PI), (-2.0, 2.0)),
        (catalog.paraboloid(), (0.3, 1.9), (0.3, 1.9)),
        (catalog.constant_curvature(1.0), (0.0, TWO_PI), (-1.25, 1.25)),
        (catalog.constant_curvature(0.0), (0.0, TWO_PI), (0.3, 2.1)),
        (catalog.constant_curvature(-1.0), (0.0, TWO_PI), (-2.0, 2.0)),
    ]


def test_structure_identity_suite():
    with criterion("identity dalpha(f3) + dA(f2) + A^2 = 0 at 510 points", budget_seconds=10.0):
        rng = np.random.default_rng(20260808)
        count = 0
        for patch, u_span, v_span in _identity_surfaces():
            for _ in range(85):
                u = float(rng.uniform(*u_span))
                v = float(rng.uniform(*v_span))
                sample, fd = frame_data(patch, u, v)
                residual = fd.dalpha_f3 + fd.dA_f2 + sample.A**2
                assert abs(residual) <= 1e-6
                count += 1
        assert count >= 500


def test_curvatures_do_not_coincide():
    with criterion("K_inf = -2 and K = 4 on the plane at (1, 0, 0)"):
        patch = catalog.plane()
        sample, fd = frame_data(patch, 0.0, 1.0)
        K_inf, K_gauss = k_inf(fd, sample.A), k_gauss_map(fd)
        assert K_inf == pytest.approx(-2.0, abs=1e-6)
        assert K_gauss == pytest.approx(4.0, abs=1e-5)
        # hand-derived closed forms on the plane: A = 2/r, dA(f2) = -2/r^2,
        # dalpha(f3) = -2/r^2, so K_inf = -2/r^2 and K = 4/r^4 at r = 1
        r = 1.0
        assert K_inf == pytest.approx(2.0 / r**2 - (2.0 / r) ** 2, abs=1e-6)
        assert K_gauss == pytest.approx((-2.0 / r**2) * (-2.0 / r**2), abs=1e-5)


def test_convergence_rates():
    with criterion(
        "rates: K_L slope -1, k_n_L slope <= -0.45, area density slope +0.5",
        budget_seconds=10.0,
    ):
        patch = catalog.plane()
        sample, fd = frame_data(patch, 0.0, 1.0)
        K_limit = -fd.dA_f2 - sample.A**2
        errs_K = [abs(k_L(fd, sample.A, L) - K_limit) for L in L_SWEEP]
        assert helpers.loglog_slope(L_SWEEP, errs_K) == pytest.approx(-1.0, abs=0.05)

        curve = helpers.transverse(patch, 0.0, 2.0, (1.0, 1.0))
        limit = k_n(curve.A, curve.b)
        errs_kn = [abs(k_n_L(curve, L) - limit) for L in L_SWEEP]
        assert helpers.loglog_slope(L_SWEEP, errs_kn) <= -0.45

        densities = [math.sqrt(L + sample.A**2) for L in L_SWEEP]
        assert helpers.loglog_slope(L_SWEEP, densities) == pytest.approx(0.5, abs=0.02)


def test_gauss_bonnet_identity():
    with criterion(
        "Gauss-Bonnet residual <= 1e-8 on 3 annuli and 3 bands", budget_seconds=30.0
    ):
        plane = catalog.plane()
        for r0, r1 in ((1.0, 2.0), (0.5, 3.0), (2.0, 2.5)):
            report = gb_residual(plane, ParamRegion(0.0, TWO_PI, r0, r1, closed_u=True))
            assert report.area_integral == pytest.approx(-TWO_PI * (r1 - r0), abs=1e-8)
            assert report.boundary_integral == pytest.approx(TWO_PI * (r1 - r0), abs=1e-8)
            assert abs(report.residual) <= 1e-8
        for K, band in ((1.0, (-0.5, 0.8)), (0.0, (0.3, 1.2)), (-1.0, (-1.0, 1.5))):
            patch = catalog.constant_curvature(K)
            report = gb_residual(patch, ParamRegion(0.0, TWO_PI, *band, closed_u=True))
            assert abs(report.residual) <= 1e-8


def test_constant_curvature_families():
    with criterion("families: pipeline K_inf within 1e-6, domain bounds vs bisection"):
        rng = np.random.default_rng(13)
        for K in (1.0, 0.0, -1.0):
            patch = catalog.constant_curvature(K)
            v0, v1 = patch.v_range
            width = v1 - v0
            for _ in range(100):
                u = float(rng.uniform(0.0, TWO_PI))
                v = float(rng.uniform(v0 + 0.02 * width, v1 - 0.02 * width))
                sample, fd = frame_data(patch, u, v)
                assert -fd.dA_f2 - sample.A**2 == pytest.approx(K, abs=1e-6)

        # bisection oracle on (r')^2 = 1 with its own profile formulas
        def edge(K, r0):
            def r_raw(v):
                if K > 0:
                    return r0 * math.sqrt(math.cos(math.sqrt(K) * v))
                if K < 0:
                    return r0 * math.sqrt(math.cosh(math.sqrt(-K) * v))
                return r0 * math.sqrt(v)

            def rp_sq(v, h=1e-4):
                d = (
                    r_raw(v - 2 * h) - 8 * r_raw(v - h) + 8 * r_raw(v + h) - r_raw(v + 2 * h)
                ) / (12 * h)
                return d * d

            if K > 0:
                lo, hi = 0.0, math.pi / (2 * math.sqrt(K)) * (1 - 1e-9)
                rising = True
            elif K < 0:
                lo, hi = 0.0, 1.0
                while rp_sq(hi) < 1.0:
                    hi *= 2.0
                rising = True
            else:
                lo, hi = r0 * r0 / 8.0, 4.0 * r0 * r0
                rising = False
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if (rp_sq(mid) < 1.0) == rising:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        assert domain_bound(1.0, 1.0)[1] == pytest.approx(edge(1.0, 1.0), abs=1e-9)
        assert domain_bound(1.0, 1.0)[1] == pytest.approx(1.3324788649850303, rel=1e-12)
        assert domain_bound(-1.0, 1.0)[1] == pytest.approx(edge(-1.0, 1.0), abs=1e-9)
        assert domain_bound(-1.0, 1.0)[1] == pytest.approx(2.1225501238100715, rel=1e-12)
        assert domain_bound(0.0, 1.0)[0] == 0.25  # exactly r0^2/4


def test_quadrature_oracles_zero_curvature_family():
    with criterion("theta/c quadrature against closed-form antiderivatives"):
        thetac = family_profile(0.0, 1.0).theta_c
        for v in (0.5, 1.25, 2.0):
            theta, c = thetac(v)
            assert c == pytest.approx((1.0 / 3.0) * (v - 0.25) ** 1.5, abs=1e-9)
            w = 2.0 * math.sqrt(v - 0.25)
            assert theta == pytest.approx(w - math.atan(w), abs=1e-9)


def _parse_obj(path):
    verts = []
    lines = []
    for raw in path.read_text().splitlines():
        if raw.startswith("v "):
            verts.append([float(x) for x in raw.split()[1:]])
        elif raw.startswith("l "):
            lines.append([int(i) - 1 for i in raw.split()[1:]])
    return np.array(verts), lines


def test_exported_meshes_and_horizontal_curves(tmp_path):
    with criterion("figure presets: exact rotation vertices, horizontal polylines"):
        for figure, (K, r0) in ((1, (1.0, 1.0)), (2, (0.0, 1.0)), (3, (-1.0, 1.0))):
            prefix = tmp_path / f"figure{figure}"
            assert main(["rotsurf", "--figure", str(figure), "--out-prefix", str(prefix)]) == 0
            verts, polylines = _parse_obj(tmp_path / f"figure{figure}.obj")
            header, columns, rows, _ = _read_profile(tmp_path / f"figure{figure}_profile.csv")

            # reconstruct the 128 x 128 grid from the exported profile alone
            nu, nv = 128, 128
            us = np.linspace(0.0, TWO_PI, nu)
            worst = 0.0
            for j, row in enumerate(rows):
                _, r, _, theta, c, _ = row
                a, b = r * math.cos(theta), r * math.sin(theta)
                block = verts[j * nu : (j + 1) * nu]
                expect = np.stack(
                    [
                        a * np.cos(us) - b * np.sin(us),
                        b * np.cos(us) + a * np.sin(us),
                        np.full(nu, c),
                    ],
                    axis=1,
                )
                worst = max(worst, float(np.max(np.abs(block - expect))))
            assert worst <= 1e-12
            assert len(rows) == nv

            assert len(polylines) == 8
            for idx in polylines:
                curve = verts[idx]
                assert np.max(e3_chord_ratio(curve)) <= 1e-8


def _read_profile(path):
    lines = path.read_text().splitlines()
    columns = lines[1].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[2:] if not line.startswith("#")]
    return lines[0], columns, rows, []


def test_dual_numbers_match_finite_differences():
    with criterion("dual-number partials vs central differences on 1000 expressions"):
        cases = helpers.build_corpus(1000)
        assert len(cases) >= 1000
        for tree, u, v, fd_u, fd_v in cases:
            d = ex.eval_hyperdual(tree, u, v).value
            assert abs(d.d_u - fd_u) <= 1e-6 * max(1.0, abs(d.d_u), abs(fd_u))
            assert abs(d.d_v - fd_v) <= 1e-6 * max(1.0, abs(d.d_v), abs(fd_v))
