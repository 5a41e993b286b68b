import dataclasses
import math

import numpy as np
import pytest

import helpers
from h1geom import catalog
from h1geom.curvature import (
    TransverseCurveSample,
    area_form_coeffs,
    ds_L_density,
    k_L,
    k_gauss_map,
    k_inf,
    k_n,
    k_n_L,
    length_form_limit,
)
from h1geom.errors import NonTransverseError
from h1geom.gaussbonnet import ParamRegion, _region_convergence, convergence_study
from h1geom.hgroup import connection_coeff
from h1geom.surface import (
    FrameDerivatives,
    beta,
    frame_data,
    pushforward_frame,
    structure_identity_residual,
    xl_basis,
)

L_SWEEP = (1e2, 1e3, 1e4, 1e5, 1e6)

PLANE_FD = FrameDerivatives(dA_f2=-2.0, dA_f3=0.0, dalpha_f2=0.0, dalpha_f3=-2.0)


def test_k_L_plane_hand_value():
    # A=2, dA(f2)=-2, dalpha(f3)=-2 at radius 1: K_1 = 4/25 + 2/25 - 4/5
    assert k_L(PLANE_FD, 2.0, 1.0) == pytest.approx(-0.56, rel=1e-12)


def test_k_L_tends_to_k_inf():
    limit = k_inf(PLANE_FD, 2.0)
    assert limit == -2.0
    errs = [abs(k_L(PLANE_FD, 2.0, L) - limit) for L in L_SWEEP]
    assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    assert helpers.loglog_slope(L_SWEEP, errs) == pytest.approx(-1.0, abs=0.05)
    # |K_L - K_inf| * L stays bounded
    scaled = [e * L for e, L in zip(errs, L_SWEEP)]
    assert max(scaled) / min(scaled) < 1.5


def test_k_L_vanishes_when_tilt_trivial():
    flat = FrameDerivatives(0.0, 0.0, 0.0, 0.0)
    for L in (0.5, 1.0, 42.0):
        assert k_L(flat, 0.0, L) == 0.0


def test_k_inf_examples():
    assert k_inf(PLANE_FD, 2.0) == -2.0
    assert k_inf(FrameDerivatives(0.0, 0.0, 0.0, 0.0), 0.0) == 0.0


def test_k_gauss_map_examples():
    assert k_gauss_map(PLANE_FD) == pytest.approx(4.0)
    assert k_gauss_map(FrameDerivatives(0.0, 0.0, 0.5, -1.0)) == 0.0


def test_curvatures_do_not_coincide_on_plane():
    patch = catalog.plane()
    sample, fd = frame_data(patch, 0.0, 1.0)
    assert k_inf(fd, sample.A) == pytest.approx(-2.0, abs=1e-6)
    assert k_gauss_map(fd) == pytest.approx(4.0, abs=1e-5)
    assert k_L(fd, sample.A, 1.0) == pytest.approx(-0.56, abs=1e-6)
    assert area_form_coeffs(sample.A, 1.0)[1] == 1.0
    assert area_form_coeffs(sample.A, 1.0)[0] == pytest.approx(math.sqrt(5.0), rel=1e-12)


def test_k_n_values():
    assert k_n(2.0, -1.0) == -2.0
    assert k_n(0.0, 5.0) == 0.0
    with pytest.raises(NonTransverseError):
        k_n(1.0, 0.0)


def test_transverse_sample_plane_circle():
    # boundary circle r=1 of the plane: tangent is -(r^2/2) f3, so b < 0
    patch = catalog.plane()
    c = helpers.transverse(patch, 0.3, 1.0, (1.0, 0.0))
    assert c.a == pytest.approx(0.0, abs=1e-10)
    assert c.b == pytest.approx(-0.5, abs=1e-10)
    assert k_n(c.A, c.b) == pytest.approx(-2.0, abs=1e-10)
    assert c.da_dt == pytest.approx(0.0, abs=1e-8)
    assert c.db_dt == pytest.approx(0.0, abs=1e-8)
    assert c.dA_dt == pytest.approx(0.0, abs=1e-8)


def test_transverse_sample_requires_b():
    patch = catalog.plane()
    # radial path: tangent = f_v = f2, no f3 component
    with pytest.raises(NonTransverseError):
        helpers.transverse(patch, 0.5, 1.0, (0.0, 1.0))


def test_k_n_orientation_invariance():
    # flip the surface orientation and the induced curve orientation together:
    # A -> -A and b -> -b, leaving k_n and k_n_L unchanged
    patch = catalog.plane()
    c = helpers.transverse(patch, 0.1, 1.0 + 0.2 * 0.1, (1.0, 0.2))
    c_flip = helpers.transverse(dataclasses.replace(patch, orientation=-1), 0.1, 1.0 + 0.2 * 0.1, (-1.0, -0.2))
    assert c_flip.A == pytest.approx(-c.A, abs=1e-10)
    assert c_flip.b == pytest.approx(-c.b, abs=1e-10)
    assert k_n(c_flip.A, c_flip.b) == pytest.approx(k_n(c.A, c.b), abs=1e-10)
    for L in (1.0, 100.0):
        assert k_n_L(c_flip, L) == pytest.approx(k_n_L(c, L), abs=1e-7)


def test_k_n_L_cylinder_vanishes():
    sample = TransverseCurveSample(
        t=0.0, a=0.7, b=1.3, da_dt=0.0, db_dt=0.0, dA_dt=0.0, A=0.0,
        dalpha_f2=1.0, dalpha_f3=0.0,
    )
    for L in (1.0, 10.0, 1e4):
        assert k_n_L(sample, L) == 0.0


def test_k_n_L_pure_f3_closed_form():
    # a = 0, b = 1, A constant: k_n_L = L*A/(L+A^2) - A*dalpha(f3)/(L+A^2)
    A, dal3 = 1.7, -0.6
    sample = TransverseCurveSample(
        t=0.0, a=0.0, b=1.0, da_dt=0.0, db_dt=0.0, dA_dt=0.0, A=A,
        dalpha_f2=0.4, dalpha_f3=dal3,
    )
    for L in (1.0, 30.0, 1e4):
        expected = L * A / (L + A * A) - A * dal3 / (L + A * A)
        assert k_n_L(sample, L) == pytest.approx(expected, rel=1e-14)
    errs = [abs(k_n_L(sample, L) - k_n(A, 1.0)) for L in L_SWEEP]
    assert helpers.loglog_slope(L_SWEEP, errs) <= -0.9


def test_k_n_L_limit_rate_generic():
    rng = np.random.default_rng(12)
    for _ in range(20):
        sample = TransverseCurveSample(
            t=0.0,
            a=float(rng.uniform(-2, 2)),
            b=float(rng.uniform(0.4, 2.0) * rng.choice([-1.0, 1.0])),
            da_dt=float(rng.uniform(-2, 2)),
            db_dt=float(rng.uniform(-2, 2)),
            dA_dt=float(rng.uniform(-2, 2)),
            A=float(rng.uniform(-2, 2)),
            dalpha_f2=float(rng.uniform(-2, 2)),
            dalpha_f3=float(rng.uniform(-2, 2)),
        )
        limit = k_n(sample.A, sample.b)
        errs = [abs(k_n_L(sample, L) - limit) for L in L_SWEEP]
        if min(errs) < 1e-13:
            continue  # degenerate draw with vanishing constants
        assert helpers.loglog_slope(L_SWEEP, errs) <= -0.45


def test_k_n_L_limit_rate_frozen_components():
    # with a, b frozen along the curve the 1/sqrt(L) term drops out
    rng = np.random.default_rng(99)
    for _ in range(10):
        sample = TransverseCurveSample(
            t=0.0,
            a=float(rng.uniform(-2, 2)),
            b=float(rng.uniform(0.4, 2.0)),
            da_dt=0.0,
            db_dt=0.0,
            dA_dt=float(rng.uniform(-2, 2)),
            A=float(rng.uniform(0.3, 2.0)),
            dalpha_f2=float(rng.uniform(-2, 2)),
            dalpha_f3=float(rng.uniform(-2, 2)),
        )
        limit = k_n(sample.A, sample.b)
        errs = [abs(k_n_L(sample, L) - limit) for L in L_SWEEP]
        assert helpers.loglog_slope(L_SWEEP, errs) <= -0.9


def _covariant_k_n_L_oracle(patch, path, t, direction, L, h=1e-4, h_vel=1e-6):
    """k_n_L from first principles: <D_T T, N>_L via the connection table.

    Uses only the curve, the connection coefficients and the adapted frame;
    independent of the assembled normal-curvature formula.  The velocity
    step h_vel sits well below the outer differentiation step h so the
    nested difference does not amplify rounding noise.
    """

    def velocity(tt):
        u, v = path(tt)
        up, vp = path(tt + h_vel)
        um, vm = path(tt - h_vel)
        du, dv = (up - um) / (2 * h_vel), (vp - vm) / (2 * h_vel)
        f_u, f_v = pushforward_frame(patch, u, v)
        return du * helpers.coefficients(f_u) + dv * helpers.coefficients(f_v)

    def unit_gl(tt):
        raw = velocity(tt)
        gl = np.array([raw[0], raw[1], math.sqrt(L) * raw[2]])
        return gl / np.linalg.norm(gl)

    gl_T = unit_gl(t)
    dT_dt = (unit_gl(t + h) - unit_gl(t - h)) / (2 * h)

    raw_speed = velocity(t)
    gl_speed = np.linalg.norm([raw_speed[0], raw_speed[1], math.sqrt(L) * raw_speed[2]])

    # covariant derivative along the curve in the orthonormal (e1, e2, e3^L) basis
    vel_gl = np.array([raw_speed[0], raw_speed[1], math.sqrt(L) * raw_speed[2]])
    nabla_vel_T = dT_dt.copy()
    for j in (1, 2, 3):
        if gl_T[j - 1] != 0.0:
            correction = np.zeros(3)
            for m in (1, 2, 3):
                correction += vel_gl[m - 1] * connection_coeff(L, m, j)
            nabla_vel_T += gl_T[j - 1] * correction
    nabla_T_T = nabla_vel_T / gl_speed

    u, v = path(t)
    s = frame_data(patch, u, v)[0]
    c = helpers.transverse(patch, u, v, direction)
    m = L + s.A**2
    q = math.sqrt(c.a**2 + c.b**2 * m)
    a_L, b_L = c.a / q, c.b * math.sqrt(m) / q
    x2 = helpers.frame_to_gl_basis(s.f2, L)
    x3 = helpers.frame_to_gl_basis(s.f3, L) / math.sqrt(m)
    normal = -b_L * x2 + a_L * x3
    return float(np.dot(nabla_T_T, normal))


def test_k_n_L_against_covariant_oracle():
    # the assembled formula equals <D_T T, N>_L in the unit g_L speed gauge,
    # so rescale the curve parameter per L before comparing
    patch = catalog.plane()
    cases = [
        (lambda t: (t, 1.0), 0.4, (1.0, 0.0)),          # boundary circle
        (lambda t: (t, 1.5 + 0.3 * t), 0.2, (1.0, 0.3)),  # spiral
    ]
    for path, t0, (du, dv) in cases:
        for L in (1.0, 10.0, 100.0):
            probe = helpers.transverse(patch, *path(t0), (du, dv))
            q = math.sqrt(probe.a**2 + probe.b**2 * (L + probe.A**2))
            unit_path = lambda s, path=path, t0=t0, q=q: path(t0 + s / q)
            c = helpers.transverse(patch, *unit_path(0.0), (du / q, dv / q))
            got = k_n_L(c, L)
            want = _covariant_k_n_L_oracle(patch, unit_path, 0.0, (du / q, dv / q), L)
            assert got == pytest.approx(want, abs=2e-5)


def test_area_form_coeffs():
    assert area_form_coeffs(0.0, 4.0) == (2.0, 1.0)
    sigma_L, limit = area_form_coeffs(2.0, 1e8)
    assert limit == 1.0
    assert sigma_L / math.sqrt(1e8) == pytest.approx(1.0, rel=1e-7)


def test_rescaled_product_law():
    # (1/sqrt(L)) K_L sigma_L -> K_inf at first order on a generic sample
    fd = FrameDerivatives(dA_f2=-0.5, dA_f3=0.3, dalpha_f2=0.2, dalpha_f3=-0.7)
    A = 1.0
    limit = k_inf(fd, A)
    errs = [
        abs(k_L(fd, A, L) * area_form_coeffs(A, L)[0] / math.sqrt(L) - limit) for L in L_SWEEP
    ]
    assert helpers.loglog_slope(L_SWEEP, errs) == pytest.approx(-1.0, abs=0.05)
    # on the plane the 1/L coefficient cancels identically, so the product
    # converges even faster than K_L itself
    plane_errs = [
        abs(k_L(PLANE_FD, 2.0, L) * area_form_coeffs(2.0, L)[0] / math.sqrt(L) + 2.0)
        for L in L_SWEEP
    ]
    assert helpers.loglog_slope(L_SWEEP, plane_errs) <= -0.95


def test_length_form_limit():
    assert length_form_limit(2.5) == 1.0
    assert length_form_limit(-0.1) == -1.0
    with pytest.raises(NonTransverseError):
        length_form_limit(0.0)


def test_ds_L_density_diverges_like_sqrt_L():
    sample = TransverseCurveSample(
        t=0.0, a=0.4, b=-0.8, da_dt=0.1, db_dt=0.0, dA_dt=0.0, A=1.5,
        dalpha_f2=0.0, dalpha_f3=0.0,
    )
    densities = [ds_L_density(sample, L) for L in L_SWEEP]
    assert helpers.loglog_slope(L_SWEEP, densities) == pytest.approx(0.5, abs=0.02)
    rescaled = [d / math.sqrt(L) for d, L in zip(densities, L_SWEEP)]
    assert rescaled[-1] == pytest.approx(length_form_limit(sample.b), rel=1e-4)


def test_limit_consistency_across_catalog():
    # |K_L - K_inf| decays like 1/L at every non-degenerate catalog sample
    cases = [
        (catalog.plane(), 0.4, 1.3),
        (catalog.paraboloid(), 0.8, 0.5),
        (catalog.constant_curvature(1.0), 1.0, 0.6),
        (catalog.constant_curvature(0.0), 2.0, 0.9),
        (catalog.constant_curvature(-1.0), 0.3, -1.1),
    ]
    for patch, u, v in cases:
        sample, fd = frame_data(patch, u, v)
        limit = k_inf(fd, sample.A)
        errs = [abs(k_L(fd, sample.A, L) - limit) for L in L_SWEEP]
        assert helpers.loglog_slope(L_SWEEP, errs) == pytest.approx(-1.0, abs=0.05)
        scaled = [e * L for e, L in zip(errs, L_SWEEP)]
        assert max(scaled) / min(scaled) < 2.0


def test_frame_data_identity_rechecked_on_families():
    for K in (1.0, 0.0, -1.0):
        patch = catalog.constant_curvature(K)
        v = 0.9 if K == 0.0 else 0.5
        sample, fd = frame_data(patch, 1.0, v)
        residual = structure_identity_residual(fd, sample.A)
        assert abs(residual) <= 1e-5 * max(1.0, sample.A * sample.A, abs(fd.dA_f2))
        assert k_inf(fd, sample.A) == pytest.approx(K, abs=1e-9)


@pytest.mark.parametrize("L", [0.0, -1.0, math.nan, math.inf])
def test_every_function_of_L_rejects_what_the_metric_rejects(L):
    # one rule for L: finite and positive; a NaN L once gave k_L = NaN
    curve = TransverseCurveSample(0.0, 0.5, 1.0, 0.1, -0.2, 0.3, 0.4, 0.5, 0.6)
    sample = frame_data(catalog.paraboloid(), 1.0, 0.5)[0]
    calls = [
        lambda: k_L(PLANE_FD, 2.0, L),
        lambda: k_n_L(curve, L),
        lambda: area_form_coeffs(2.0, L),
        lambda: ds_L_density(curve, L),
        lambda: beta(L, 2.0),
        lambda: xl_basis(sample, L),
        lambda: convergence_study(catalog.paraboloid(), (1.0, 0.5), [1.0, L], (1.0, 0.0)),
        lambda: _region_convergence(catalog.paraboloid(), ParamRegion(1.0, 2.0, -1.0, -0.5), [1.0, L]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="metric parameter must be finite and positive"):
            call()
