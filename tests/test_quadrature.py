import math
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import helpers
from h1geom.errors import DomainViolationError, QuadratureError
from h1geom.batch import elementwise
from h1geom.quadrature import BOUNDARY_WINDOW, MAX_SUBDIVISIONS, gauss_segments, integrate, kronrod_first_step

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


def _square_1d(x):
    # steps at the dyadic box edges k/8: boxes of one level tie in the heap, whose order then sets the sums' order
    t = x[:, 0]
    return np.stack([np.floor(8.0 * t) % 2.0, np.cos(3.0 * t)], axis=-1)


CUBATURE_CASES = [
    (_peaked_2d, (0.0, 0.0), (1.0, 1.0), 1e-9),
    (_kinked_1d, (0.0,), (1.0,), 1e-10),
    (_square_1d, (0.0,), (1.0,), 1e-10),
    (_kinked_1d, (0.1,), (0.7,), 1e-10),  # midpoints where (a + b) / 2 is not a + (b - a) / 2
]


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


def test_cubature_refuses_what_converges_at_its_last_subdivision(monkeypatch):
    # scipy checks the limit after each subdivision, so a result that converges at the last one is refused
    from scipy.integrate import cubature as scipy_cubature

    from h1geom import quadrature

    a, b, tol = (0.0,), (1.0,), 1e-10
    n = scipy_cubature(_square_1d, a, b, rule="gk21", rtol=1e-13, atol=tol, max_subdivisions=200).subdivisions
    assert scipy_cubature(_square_1d, a, b, rule="gk21", rtol=1e-13, atol=tol, max_subdivisions=n).status == "not_converged"
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", n)
    with pytest.raises(QuadratureError, match="did not converge"):
        quadrature.cubature(_square_1d, a, b, tol)
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", n + 1)
    quadrature.cubature(_square_1d, a, b, tol)


@pytest.mark.parametrize("d", [1, 2])
def test_cubature_rule_has_the_nodes_and_weights_of_scipy_gk21(monkeypatch, d):
    # scipy builds its rule="gk21" from ProductNestedFixed; a release that moves or
    # rebuilds it fails here before results drift
    import scipy.integrate._cubature as scipy_cubature_module
    from scipy.integrate import cubature as scipy_cubature
    from scipy.integrate._rules import GaussKronrodQuadrature, ProductNestedFixed

    from h1geom.quadrature import _gk21

    built = []

    class Recorded(scipy_cubature_module.ProductNestedFixed):
        def __init__(self, base_rules):
            super().__init__(base_rules)
            built.append(base_rules)

    monkeypatch.setattr(scipy_cubature_module, "ProductNestedFixed", Recorded)
    scipy_cubature(lambda x: np.ones(len(x)), (0.0,) * d, (1.0,) * d, rule="gk21")
    assert len(built) == 1 and [(type(rule), rule.npoints) for rule in built[0]] == [(GaussKronrodQuadrature, 21)] * d, (
        "scipy no longer builds rule='gk21' as a ProductNestedFixed of 21-point Gauss-Kronrod rules"
    )
    theirs = ProductNestedFixed([GaussKronrodQuadrature(21)] * d)
    (kronrod_nodes, kronrod_weights), (gauss_nodes, gauss_weights) = theirs.nodes_and_weights, theirs.lower_nodes_and_weights
    nodes, weights = _gk21(d)
    n = 21**d
    assert nodes.dtype == weights.dtype == kronrod_nodes.dtype == gauss_weights.dtype == np.float64
    assert np.array_equal(nodes[:n], kronrod_nodes) and np.array_equal(nodes[n:], gauss_nodes)
    assert np.array_equal(weights[:n], kronrod_weights) and np.array_equal(-weights[n:], gauss_weights)


def _smooth(x, c, s):
    return np.cos(s * (x - c).sum(axis=1))


def _peaked(x, c, s):
    return np.exp(-s * ((x - c) ** 2).sum(axis=1))


def _kinked(x, c, s):
    return np.sqrt(s * abs(x - c).sum(axis=1))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 2).flatmap(
        lambda d: st.tuples(
            st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d),
            st.lists(st.floats(1e-3, 3.0), min_size=d, max_size=d),
            st.lists(
                st.tuples(
                    st.sampled_from([_smooth, _peaked, _kinked]),
                    st.lists(st.floats(-2.0, 3.0), min_size=d, max_size=d),
                    st.floats(0.5, 300.0),
                ),
                min_size=2,
                max_size=3,
            ),
        )
    ),
    st.floats(-12.0, -6.0),
)
def test_cubature_is_scipys_public_gk21_cubature(case, log_tol):
    # equal estimate and error bits, and QuadratureError exactly where scipy does not converge or is not finite
    from scipy.integrate import cubature as scipy_cubature

    from h1geom import quadrature

    a, lengths, components = case
    a = np.array(a)
    b, tol = a + lengths, 10.0**log_tol

    def f(x):
        return np.stack([g(x, np.array(c), s) for g, c, s in components], axis=-1)

    reference = scipy_cubature(f, a, b, rule="gk21", rtol=1e-13, atol=tol, max_subdivisions=MAX_SUBDIVISIONS)
    refused = reference.status == "not_converged" or not (
        np.isfinite(reference.estimate).all() and np.isfinite(reference.error).all()
    )
    event("refused" if refused else "subdivided" if reference.subdivisions else "one box")
    if refused:
        with pytest.raises(QuadratureError, match="did not converge"):
            quadrature.cubature(f, a, b, tol)
    else:
        value, error = quadrature.cubature(f, a, b, tol)
        assert value.tobytes() == reference.estimate.tobytes() and error.tobytes() == reference.error.tobytes()


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


# ---------------------------------------------------------------------------
# kronrod_first_step: QUADPACK's first qk21 step, for many intervals at once

# (float integrand for quad, array integrand for the step, half-width of the t range): the same
# operations on floats and on arrays.  Far from 0 a width of 1e-12 spans a few ulps of t, where qk21's
# error estimate is rounding noise and can equal its resasc, a case qagse refuses.
SIMPLE_INTEGRANDS = {
    "zero": (lambda t: 0.0, lambda t: np.zeros(t.shape), 1e3),
    "constant": (lambda t: 3.7, lambda t: np.full(t.shape, 3.7), 1e3),
    "2t": (lambda t: 2.0 * t, lambda t: 2.0 * t, 1e3),
    "sqrt|t|": (lambda t: math.sqrt(abs(t)), lambda t: np.sqrt(np.abs(t)), 1e3),
    "sin 50t": (lambda t: math.sin(50.0 * t), lambda t: elementwise(math.sin, 50.0 * t), 1e3),
    "1e-300 t": (lambda t: 1e-300 * t, lambda t: 1e-300 * t, 1e3),
    "1e300": (lambda t: 1e300, lambda t: np.full(t.shape, 1e300), 1e3),
    "e^t": (math.exp, lambda t: elementwise(math.exp, t), 5.0),
}


def _bits(x) -> str:
    return float(x).hex()


@st.composite
def _intervals(draw, lo, hi):
    """1-20 intervals inside [lo, hi], of widths 1e-12 to 10 (or the room there is), in either orientation."""
    paths = []
    for _ in range(draw(st.integers(1, 20))):
        width = min(10.0 ** draw(st.floats(-12.0, 1.0)), hi - lo)
        a = lo + draw(st.floats(0.0, 1.0)) * (hi - lo - width)
        b = min(a + width, hi)
        paths.append((b, a) if draw(st.booleans()) else (a, b))
    return paths


@st.composite
def _step_cases(draw):
    """(float f, array f, intervals): a simple integrand, or theta' or c' of a random family
    in t, or in s with t = lo + s^2 or t = hi - s^2 and the values times 2 s, as integrate_with_boundary has it."""
    from h1geom.rotsurf import _integrands, family_profile

    kind = draw(st.sampled_from([*SIMPLE_INTEGRANDS, "family"]))
    if kind != "family":
        scalar, array, reach = SIMPLE_INTEGRANDS[kind]
        return scalar, array, draw(_intervals(-reach, reach))
    K = draw(st.one_of(st.just(0.0), st.floats(0.25, 4.0), st.floats(-4.0, -0.25)))
    profile = family_profile(K, draw(st.floats(0.5, 2.0)), draw(st.floats(-1.0, 1.0)))
    lo, hi = profile.domain
    hi = min(hi, lo + 3.0)  # K = 0 has no upper end
    k = draw(st.sampled_from([0, 1]))  # theta' or c'

    def f(t):
        return _integrands(profile.r, profile.A, t)[k]

    where = draw(st.sampled_from(["t", "lo", "hi"] if K else ["t", "lo"]))
    if where == "t":
        return f, f, draw(_intervals(lo, hi))
    bound, sign = (lo, 1.0) if where == "lo" else (profile.domain[1], -1.0)

    def g(s):
        return 2.0 * s * f(bound + sign * (s * s))  # lo + s*s, or hi - s*s

    return g, g, draw(_intervals(0.0, math.sqrt(hi - lo)))


def _assert_first_step_is_quads(scalar, array, a, b, tol):
    """The step's value and error estimate are quad's, and it accepts exactly where quad stops after
    one step without a message."""
    from scipy.integrate import quad

    with np.errstate(all="ignore"):
        ((result, error, accepted),) = kronrod_first_step(lambda x: (array(x),), a, b, tol)
    for i, (x0, x1) in enumerate(zip(a.tolist(), b.tolist())):
        value, estimate, info, *message = quad(scalar, x0, x1, epsabs=tol, epsrel=max(tol, 1e-13), limit=MAX_SUBDIVISIONS, full_output=1)
        assert bool(accepted[i]) == (info["last"] == 1 and not message), (x0, x1)
        if info["last"] == 1:
            assert (_bits(result[i]), _bits(error[i])) == (_bits(value), _bits(estimate)), (x0, x1)


@settings(max_examples=300, deadline=None)
@given(_step_cases(), st.sampled_from([1e-10, 1e-12, 1e-14]))
def test_kronrod_first_step_is_quads_first_step_bit_for_bit(case, tol):
    # this also guards against a scipy whose QUADPACK differs
    scalar, array, paths = case
    _assert_first_step_is_quads(scalar, array, *(np.array(ends) for ends in zip(*paths)), tol)


@pytest.mark.parametrize("name", sorted(SIMPLE_INTEGRANDS))
def test_kronrod_first_step_is_quads_first_step_on_a_fixed_sample(name):
    # 500 seeded intervals per integrand: on these, a swapped weight, qk21's resabs in place of its
    # resasc in qagse's test, and numpy's ** 1.5 in place of libm pow each fail somewhere
    scalar, array, reach = SIMPLE_INTEGRANDS[name]
    rng = np.random.default_rng(sorted(SIMPLE_INTEGRANDS).index(name))
    start, width, flip = rng.uniform(-reach, reach, 500), 10.0 ** rng.uniform(-12.0, 1.0, 500), rng.random(500) < 0.5
    a, b = np.where(flip, start + width, start), np.where(flip, start, start + width)
    _assert_first_step_is_quads(scalar, array, a, b, 1e-10)


def test_kronrod_first_step_runs_every_integrand_over_one_node_array():
    calls = []

    def f(x):
        calls.append(x.copy())
        return np.ones(x.shape), x

    steps = kronrod_first_step(f, np.array([0.0, 3.0]), np.array([2.0, 1.0]))
    assert len(calls) == 1 and calls[0].shape == (2, 21)
    assert calls[0][:, 0].tolist() == [1.0, 2.0]
    assert [result.tolist() for result, _, _ in steps] == [[2.0, -2.0], [2.0, -4.0]]
