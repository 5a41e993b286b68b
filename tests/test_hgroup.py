import math

import numpy as np
import pytest

import helpers
from h1geom.hgroup import (
    FrameVec,
    Point,
    coframe_eval,
    connection_coeff,
    frame_at,
    gl_inner,
    group_inv,
    group_mul,
    riemann_component,
    volume_form,
)


def test_group_identity_and_product():
    p = Point(1.3, -0.7, 2.0)
    assert group_mul(p, Point(0.0, 0.0, 0.0)) == p
    assert group_mul(Point(1, 0, 0), Point(0, 1, 0)) == Point(1, 1, 0.5)


def test_group_inverse():
    p = Point(1.0, 0.0, 0.0)
    assert group_mul(p, Point(-1, 0, 0)) == Point(0, 0, 0)
    q = Point(0.3, -2.1, 0.9)
    prod = group_mul(q, group_inv(q))
    assert np.allclose(prod.as_array(), 0.0, atol=1e-15)


def test_group_associativity_randomized():
    rng = np.random.default_rng(7)
    for _ in range(300):
        p, q, r = (Point(*rng.uniform(-10, 10, 3)) for _ in range(3))
        lhs = group_mul(group_mul(p, q), r).as_array()
        rhs = group_mul(p, group_mul(q, r)).as_array()
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(math.nan, 0.0, 0.0)


def test_frame_at():
    e1, e2, e3 = frame_at(Point(0, 0, 0))
    assert np.allclose(e1, [1, 0, 0]) and np.allclose(e2, [0, 1, 0])
    e1, _, _ = frame_at(Point(0, 2, 0))
    assert np.allclose(e1, [1, 0, -1])
    for p in (Point(0, 0, 0), Point(3, -4, 2)):
        assert np.allclose(frame_at(p)[2], [0, 0, 1])


def test_coframe_duality_and_volume():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = Point(*rng.uniform(-5, 5, 3))
        frame = frame_at(p)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert coframe_eval(i, p, frame[j - 1]) == pytest.approx(
                    1.0 if i == j else 0.0, abs=1e-14
                )
    p = Point(2, 0, 0)
    assert coframe_eval(3, p, [0, 1, 0]) == pytest.approx(-1.0)
    assert volume_form(p, [1, 0, 0], [0, 1, 0], [0, 0, 1]) == pytest.approx(1.0)


def test_frame_vec_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = Point(*rng.uniform(-8, 8, 3))
        coeffs = rng.uniform(-5, 5, 3)
        vec = FrameVec(p, *coeffs)
        back = FrameVec.from_coordinates(p, helpers.to_coordinates(vec))
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        assert np.max(np.abs(helpers.coefficients(back) - coeffs)) <= 1e-14 * scale


def test_gl_inner_values():
    p = Point(0.5, -1.0, 2.0)
    e1 = FrameVec(p, 1, 0, 0)
    e3 = FrameVec(p, 0, 0, 1)
    assert gl_inner(e1, e1, 2.0) == 1.0
    assert gl_inner(e3, e3, 4.0) == 4.0
    assert gl_inner(e1, e3, 7.0) == 0.0


def test_gl_inner_base_mismatch():
    u = FrameVec(Point(0, 0, 0), 1, 0, 0)
    v = FrameVec(Point(1, 0, 0), 1, 0, 0)
    with pytest.raises(ValueError):
        gl_inner(u, v, 1.0)


def test_frame_to_gl_basis():
    v = FrameVec(Point(0, 0, 0), 1.0, 2.0, 3.0)
    assert np.allclose(helpers.frame_to_gl_basis(v, 4.0), [1.0, 2.0, 6.0])


def test_connection_table_entries():
    for L in (1.0, 4.0, 25.0):
        half = 0.5 * math.sqrt(L)
        assert np.allclose(connection_coeff(L, 1, 1), 0.0)
        assert np.allclose(connection_coeff(L, 1, 2), [0, 0, half])
        assert np.allclose(connection_coeff(L, 3, 2), [half, 0, 0])
        assert np.allclose(connection_coeff(L, 3, 1), [0, -half, 0])
        assert np.allclose(connection_coeff(L, 2, 1), [0, 0, -half])
    # with L = 1, D_{e1} e2 = e3/2 in raw coefficients
    assert connection_coeff(1.0, 1, 2)[2] == pytest.approx(0.5)


def test_connection_index_errors():
    with pytest.raises(ValueError):
        connection_coeff(1.0, 0, 1)
    with pytest.raises(ValueError):
        riemann_component(1.0, 1, 2, 3, 4)


def test_torsion_free():
    for L in (1.0, 10.0, 100.0):
        root = math.sqrt(L)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                bracket = np.zeros(3)
                if (i, j) == (1, 2):
                    bracket[2] = root
                if (i, j) == (2, 1):
                    bracket[2] = -root
                diff = connection_coeff(L, i, j) - connection_coeff(L, j, i)
                assert np.max(np.abs(diff - bracket)) <= 1e-14 * max(1.0, root)


def test_metric_compatibility():
    # frame inner products are constant, so <D e_j, e_k> + <e_j, D e_k> = 0
    for L in (1.0, 10.0, 100.0):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    lhs = connection_coeff(L, i, j)[k - 1] + connection_coeff(L, i, k)[j - 1]
                    assert abs(lhs) <= 1e-14 * max(1.0, math.sqrt(L))


def test_riemann_table_values():
    assert riemann_component(1.0, 1, 2, 1, 2) == pytest.approx(0.75, rel=1e-12)
    assert riemann_component(4.0, 2, 3, 2, 3) == pytest.approx(-1.0, rel=1e-12)
    assert riemann_component(1.0, 1, 2, 1, 3) == 0.0
    for L in (1.0, 10.0, 100.0):
        assert riemann_component(L, 1, 2, 1, 2) == pytest.approx(0.75 * L, rel=1e-12)
        assert riemann_component(L, 1, 3, 1, 3) == pytest.approx(-0.25 * L, rel=1e-12)
        assert riemann_component(L, 2, 3, 2, 3) == pytest.approx(-0.25 * L, rel=1e-12)
        assert riemann_component(L, 1, 3, 3, 1) == pytest.approx(0.25 * L, rel=1e-12)


def test_riemann_symmetries():
    rng = np.random.default_rng(5)
    for L in rng.uniform(0.5, 50.0, 3):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    for l in (1, 2, 3):
                        r = riemann_component(L, i, j, k, l)
                        assert r == pytest.approx(-riemann_component(L, j, i, k, l), abs=1e-12 * L)
                        assert r == pytest.approx(-riemann_component(L, i, j, l, k), abs=1e-12 * L)
                        assert r == pytest.approx(riemann_component(L, k, l, i, j), abs=1e-12 * L)


def test_riemann_off_table_zero():
    table = {
        frozenset([(1, 2, 1, 2)]),
    }
    nonzero = set()
    for perm in [(1, 2, 1, 2), (1, 3, 1, 3), (2, 3, 2, 3)]:
        a, b, c, d = perm
        for sgn_images in ((a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a),
                           (b, a, c, d), (a, b, d, c), (d, c, a, b), (c, d, b, a)):
            nonzero.add(sgn_images)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                for l in (1, 2, 3):
                    if (i, j, k, l) not in nonzero:
                        assert abs(riemann_component(10.0, i, j, k, l)) <= 1e-12
