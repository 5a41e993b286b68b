import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from h1geom.quadrature import BOUNDARY_WINDOW, gauss_segments

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
