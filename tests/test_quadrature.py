import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from h1geom.errors import DomainViolationError, QuadratureError
from h1geom.quadrature import BOUNDARY_WINDOW, MAX_SUBDIVISIONS, gauss_segments, integrate

KINDS = ("interior", "lower", "upper", "both")


def _integrands(lo, hi):
    """Three integrands over (lo, hi) that give the same bits on a float and on an array."""

    def f(t):
        return np.sqrt((t - lo) * (hi - t)) / (1.0 + t * t), t * t - lo, 3.0

    return f


@st.composite
def segment_batches(draw, kind):
    """A domain (lo, hi) and 1-4 segments a < b of one kind: in no boundary window, in the
    lower or the upper window, or in both (a domain narrower than the window)."""
    lo = draw(st.floats(-10.0, 10.0))
    width = draw(st.floats(1e-6, 5e-5) if kind == "both" else st.floats(0.5, 10.0))
    hi = lo + width
    near_lo, near_hi = (BOUNDARY_WINDOW * max(1.0, abs(x)) for x in (lo, hi))
    inner_lo, inner_hi = lo + 1.01 * near_lo, hi - 1.01 * near_hi
    segments = []
    for _ in range(draw(st.integers(1, 4))):
        x, y = draw(st.floats(1e-6, 0.99)), draw(st.floats(1e-6, 0.99))
        if kind == "interior":
            a = inner_lo + x * (inner_hi - inner_lo)
            b = a + y * (inner_hi - a)
        elif kind == "lower":
            a = lo + x * near_lo
            b = a + y * (hi - a)
        elif kind == "upper":
            b = hi - x * near_hi
            a = b - y * (b - inner_lo)
        else:
            a = lo + x * width
            b = a + y * (hi - a)
        if a < b:
            segments.append((a, b))
    return lo, hi, segments


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_gauss_segments_is_the_scalar_rule_bit_for_bit(kind, data):
    lo, hi, segments = data.draw(segment_batches(kind))
    if not segments:
        return
    f = _integrands(lo, hi)
    a, b = (np.array(x) for x in zip(*segments))
    got = gauss_segments(f, a, b, (lo, hi))
    for j, values in enumerate(got):
        expected = [helpers.reference_gauss_segment(lambda t: f(t)[j], x, y, (lo, hi)) for x, y in segments]
        assert list(map(float.hex, values.tolist())) == list(map(float.hex, map(float, expected)))


def test_gauss_segments_integrate_square_root_ends_exactly():
    # in s the window integrands 2 s sqrt(t - lo) = 2 s^2 and 2 s sqrt(hi - t) = 2 s^2 are polynomials
    lo, hi = 0.0, 1.0
    a, b = np.array([0.0, 1.0 - 3e-5]), np.array([2e-5, 1.0])
    at_lo, at_hi = gauss_segments(lambda t: (np.sqrt(t - lo), np.sqrt(hi - t)), a, b, (lo, hi))
    assert at_lo[0] == pytest.approx(2.0 / 3.0 * (2e-5) ** 1.5, rel=1e-14)
    assert at_hi[1] == pytest.approx(2.0 / 3.0 * (3e-5) ** 1.5, rel=1e-14)


# ---------------------------------------------------------------------------
# cubature: scipy's rule="gk21" bit for bit, one integrand call per box


def _peaked_2d(x):
    g = np.exp(-200.0 * ((x[:, 0] - 0.3) ** 2 + (x[:, 1] - 0.7) ** 2))
    return g[:, None] * np.array([1.0, 2.0])


def _kinked_1d(x):
    t = x[:, 0]
    return np.stack([np.sqrt(abs(t - 0.37)), np.cos(40.0 * t)], axis=-1)


CUBATURE_CASES = [(_peaked_2d, (0.0, 0.0), (1.0, 1.0), 1e-9), (_kinked_1d, (0.0,), (1.0,), 1e-10)]


@pytest.mark.parametrize("f, a, b, tol", CUBATURE_CASES)
def test_cubature_is_scipy_gk21_bit_for_bit_with_one_call_per_box(f, a, b, tol):
    from scipy.integrate import cubature as scipy_cubature

    from h1geom import quadrature

    calls = []

    def counted(x):
        calls.append(len(x))
        return f(x)

    value, error = quadrature.cubature(counted, a, b, tol)
    reference = scipy_cubature(f, a, b, rule="gk21", rtol=1e-13, atol=tol, max_subdivisions=200)
    assert reference.subdivisions >= 3
    assert np.array_equal(value, reference.estimate) and np.array_equal(error, reference.error)
    d = len(a)
    # each call takes the box's Kronrod nodes followed by its embedded Gauss nodes
    assert calls == [21**d + 10**d] * (1 + 2**d * reference.subdivisions)


@pytest.mark.parametrize("d", [1, 2])
def test_cubature_rule_has_the_nodes_and_weights_of_scipy_gk21(monkeypatch, d):
    # scipy builds its rule="gk21" from ProductNestedFixed; a release that moves or
    # rebuilds it fails here before results drift
    import scipy.integrate._cubature as scipy_cubature_module
    from scipy.integrate import cubature as scipy_cubature

    from h1geom.quadrature import _GK21

    built = []

    class Recorded(scipy_cubature_module.ProductNestedFixed):
        def __init__(self, base_rules):
            super().__init__(base_rules)
            built.append(self)

    monkeypatch.setattr(scipy_cubature_module, "ProductNestedFixed", Recorded)
    scipy_cubature(lambda x: np.ones(len(x)), (0.0,) * d, (1.0,) * d, rule="gk21")
    assert len(built) == 1, "scipy no longer builds rule='gk21' as a ProductNestedFixed"
    ours = _GK21(d)
    for attribute in ("nodes_and_weights", "lower_nodes_and_weights"):
        for mine, theirs in zip(getattr(ours, attribute), getattr(built[0], attribute)):
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)


def test_cubature_rule_refuses_an_error_without_its_estimate():
    from h1geom.quadrature import _GK21

    rule = _GK21(1)
    a, b = np.array([0.0]), np.array([1.0])
    rule.estimate(_kinked_1d, a, b)
    with pytest.raises(RuntimeError):
        rule.estimate_error(_kinked_1d, a.copy(), b)  # another box
    rule.estimate(_kinked_1d, a, b)
    rule.estimate_error(_kinked_1d, a, b)
    with pytest.raises(RuntimeError):
        rule.estimate_error(_kinked_1d, a, b)  # the stash is spent


# ---------------------------------------------------------------------------
# integrate: one QUADPACK call, its status read without a warning


def test_integrate_at_the_subdivision_limit_raises_naming_its_interval():
    from scipy.integrate import quad

    def f(t):
        return math.cos(1e5 * t)

    *_, message = quad(f, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=MAX_SUBDIVISIONS, full_output=1)
    assert message.startswith(f"The maximum number of subdivisions ({MAX_SUBDIVISIONS}) has been achieved")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(QuadratureError, match=r"^integral over \[0\.0, 1\.0\] did not converge \(estimate "):
            integrate(f, 0.0, 1.0, 1e-10)
    assert caught == []


@pytest.mark.parametrize("a, b", [(0.0, 2.0), (2.0, -1.5)])
def test_integrate_is_scipy_quad_bit_for_bit(a, b):
    from scipy.integrate import quad

    def f(t):
        return math.exp(-t * t) * math.cos(3.0 * t)

    expected = quad(f, a, b, epsabs=1e-10, epsrel=1e-10, limit=MAX_SUBDIVISIONS)[0]
    assert integrate(f, a, b, 1e-10).hex() == expected.hex()


def test_integrate_passes_on_an_integrand_error_unchanged():
    error = DomainViolationError("(r')^2 exceeds 1 at v=0.75")

    def f(t):
        if t > 0.5:
            raise error
        return t

    with pytest.raises(DomainViolationError) as info:
        integrate(f, 0.0, 1.0, 1e-10)
    assert info.value is error
