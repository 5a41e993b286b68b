import math
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import helpers
from h1geom.errors import DomainViolationError, QuadratureError
from h1geom.batch import elementwise
from h1geom import quadrature
from h1geom.quadrature import BOUNDARY_WINDOW, MAX_SUBDIVISIONS, converged, gauss_segments, integrate, integrate_batch

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


def test_gauss_segments_rule_is_numpys_leggauss_12_bit_for_bit():
    # written as literals, so that no command imports numpy.polynomial for it
    nodes, weights = np.polynomial.legendre.leggauss(12)
    assert quadrature._GL_NODES.tobytes() == nodes.tobytes() and quadrature._GL_WEIGHTS.tobytes() == weights.tobytes()


def test_gauss_segments_integrate_square_root_ends_exactly():
    # in s the window integrands 2 s sqrt(t - lo) = 2 s^2 and 2 s sqrt(hi - t) = 2 s^2 are polynomials
    lo, hi = 0.0, 1.0
    a, b = np.array([0.0, 1.0 - 3e-5]), np.array([2e-5, 1.0])
    at_lo, at_hi = gauss_segments(lambda t: (np.sqrt(t - lo), np.sqrt(hi - t)), a, b, (lo, hi))
    assert at_lo[0] == pytest.approx(2.0 / 3.0 * (2e-5) ** 1.5, rel=1e-14)
    assert at_hi[1] == pytest.approx(2.0 / 3.0 * (3e-5) ** 1.5, rel=1e-14)


# ---------------------------------------------------------------------------
# cubature: scipy's rule="gk21" bit for bit, one integrand call per round


def _cubature(f, a, b, tol):
    """quadrature.cubature of the one problem (a, b, tol): (values, errors)."""
    [result] = quadrature.cubature(lambda nodes: [f(nodes[0])], [(a, b, tol)])
    return result


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

    value, error = _cubature(counted, a, b, tol)
    reference = scipy_cubature(f, a, b, rule="gk21", rtol=1e-13, atol=tol, max_subdivisions=200)
    assert reference.subdivisions >= 3
    assert np.array_equal(value, reference.estimate) and np.array_equal(error, reference.error)
    d = len(a)
    # each box gives its Kronrod nodes followed by its embedded Gauss nodes: the first call takes the first box,
    # each later one the 2^d halves of the box split in that round
    assert calls == [21**d + 10**d] + [2**d * (21**d + 10**d)] * reference.subdivisions


def test_cubature_refuses_what_converges_at_its_last_subdivision(monkeypatch):
    # scipy checks the limit after each subdivision, so a result that converges at the last one is refused
    from scipy.integrate import cubature as scipy_cubature

    from h1geom import quadrature

    a, b, tol = (0.0,), (1.0,), 1e-10
    n = scipy_cubature(_square_1d, a, b, rule="gk21", rtol=1e-13, atol=tol, max_subdivisions=200).subdivisions
    assert scipy_cubature(_square_1d, a, b, rule="gk21", rtol=1e-13, atol=tol, max_subdivisions=n).status == "not_converged"
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", n)
    with pytest.raises(QuadratureError, match="did not converge"):
        _cubature(_square_1d, a, b, tol)
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", n + 1)
    _cubature(_square_1d, a, b, tol)


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
            _cubature(f, a, b, tol)
    else:
        value, error = _cubature(f, a, b, tol)
        assert value.tobytes() == reference.estimate.tobytes() and error.tobytes() == reference.error.tobytes()


# ---------------------------------------------------------------------------
# cubature in lockstep: several problems, each as it runs alone


def _rounds_alone(f, a, b, tol):
    """The number of integrand calls of a problem's cubature alone, one per round."""
    calls = []
    _cubature(lambda x: calls.append(len(x)) or f(x), a, b, tol)
    return len(calls)


@pytest.mark.parametrize(
    "cases",
    [
        [CUBATURE_CASES[0], CUBATURE_CASES[1]],  # a 2-D and a 1-D problem
        [CUBATURE_CASES[2], CUBATURE_CASES[0]],  # the 1-D one first
        [CUBATURE_CASES[1], CUBATURE_CASES[3]],
        CUBATURE_CASES,
    ],
)
def test_lockstep_cubature_gives_each_problem_its_result_alone(cases):
    calls = []

    def f(nodes):
        calls.append([None if x is None else len(x) for x in nodes])
        return [None if x is None else g(x) for (g, _, _, _), x in zip(cases, nodes)]

    results = quadrature.cubature(f, [(a, b, tol) for _, a, b, tol in cases])
    for (g, a, b, tol), (value, error) in zip(cases, results):
        alone_value, alone_error = _cubature(g, a, b, tol)
        assert value.tobytes() == alone_value.tobytes() and error.tobytes() == alone_error.tobytes()
    # one call per round; a problem takes part in as many rounds as it runs alone, the first ones
    rounds = [_rounds_alone(*case) for case in cases]
    assert len(set(rounds)) > 1 and len(calls) == max(rounds)
    for k, (_, a, _, _) in enumerate(cases):
        box = 21 ** len(a) + 10 ** len(a)
        closed = [None] * (len(calls) - rounds[k])
        assert [call[k] for call in calls] == [box] + [2 ** len(a) * box] * (rounds[k] - 1) + closed


def _failing(f, message, span):
    """f, raising ValueError(message) on nodes that span less than span along the first axis: a rule on the
    nodes alone, so that a problem fails in the same round whether it runs alone or in lockstep."""

    def g(x):
        if np.ptp(x[:, 0]) < span:
            raise ValueError(message)
        return f(x)

    return g


def test_lockstep_cubature_raises_what_its_problems_raise_in_turn():
    # the first problem fails in its third round, the second in its first: run in turn, the first one's error is
    # raised, although the lockstep meets the second one's first
    first = (_kinked_1d, (0.0,), (1.0,), 1e-10)
    second = (_peaked_2d, (0.0, 0.0), (1.0, 1.0), 1e-9)
    assert _rounds_alone(*first) > 3
    # the nodes of [0, 1] and of its two halves span nearly 1, those of the halves of a half nearly 0.5
    g1, g2 = _failing(first[0], "first problem, third round", 0.75), _failing(second[0], "second problem", 2.0)
    problems = [first[1:], second[1:]]
    for g, (a, b, tol), message in ((g1, problems[0], "first problem, third round"), (g2, problems[1], "second problem")):
        with pytest.raises(ValueError, match=message):
            _cubature(g, a, b, tol)
    seen = []

    def f(nodes):
        seen.append([x is not None for x in nodes])
        return [None if x is None else g(x) for g, x in zip((g1, g2), nodes)]

    with pytest.raises(ValueError, match="first problem, third round"):
        quadrature.cubature(f, problems)
    # the lockstep's first round, then the first problem alone up to its third round
    assert seen == [[True, True], [True, False], [True, False], [True, False]]
    # a problem that does not converge raises before a later one's point failure, as run in turn
    unconverged = (lambda x: np.full(len(x), math.nan), (0.0,), (1.0,), 1e-9)
    with pytest.raises(QuadratureError, match="did not converge"):
        quadrature.cubature(lambda nodes: [None if x is None else g(x) for g, x in zip((unconverged[0], g2), nodes)],
                            [unconverged[1:], second[1:]])


# ---------------------------------------------------------------------------
# integrate: QUADPACK's dqagse, its status read from the error estimate


def _quad(f, a, b, tol):
    """scipy's quad as integrate runs dqagse: (value, error estimate, last, message or None)."""
    from scipy.integrate import quad

    value, estimate, info, *message = quad(f, a, b, epsabs=tol, epsrel=max(tol, 1e-13), limit=MAX_SUBDIVISIONS, full_output=1)
    return value, estimate, info["last"], (message or [None])[0]


def test_integrate_at_the_subdivision_limit_raises_naming_its_interval():
    def f(t):
        return math.cos(1e5 * t)

    *_, last, message = _quad(f, 0.0, 1.0, 1e-10)
    assert last == MAX_SUBDIVISIONS
    assert message.startswith(f"The maximum number of subdivisions ({MAX_SUBDIVISIONS}) has been achieved")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(QuadratureError, match=r"^integral over \[0\.0, 1\.0\] did not converge \(estimate "):
            integrate(f, 0.0, 1.0, 1e-10)
    assert caught == []


@pytest.mark.parametrize("a, b", [(0.0, 2.0), (2.0, -1.5)])
def test_integrate_is_scipy_quad_bit_for_bit(a, b):
    def f(t):
        return math.exp(-t * t) * math.cos(3.0 * t)

    expected = _quad(f, a, b, 1e-10)[0]
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


@pytest.mark.parametrize("fails_at", [1, 2, 12, 21, 22, 60, 107])
def test_integrate_calls_its_integrand_at_quads_nodes_and_fails_at_the_same_one(fails_at):
    # QUADPACK's node order: each qk21 takes the centre, then -/+ hlgth xgk(j) for j = 2, 4, ..., 10 and
    # j = 1, 3, ..., 9, and a bisection takes the left half first; the integrand's exception ends both runs
    def run(integral):
        nodes = []

        def f(t):
            nodes.append(t)
            if len(nodes) == fails_at:
                raise DomainViolationError(f"node {len(nodes)}")
            return math.sqrt(abs(t - 0.3))

        with pytest.raises(DomainViolationError) as info:
            integral(f)
        return nodes, str(info.value)

    theirs = run(lambda f: _quad(f, 0.0, 1.0, 1e-10))
    assert len(theirs[0]) == fails_at and theirs[1] == f"node {fails_at}"
    ours = run(lambda f: integrate(f, 0.0, 1.0, 1e-10))
    assert list(map(_bits, ours[0])) == list(map(_bits, theirs[0])) and ours[1] == theirs[1]


# ---------------------------------------------------------------------------
# integrate_batch: dqagse for many integrals at once, and the first round, QUADPACK's first qk21 step

# (float integrand for quad, array integrand for the batch, half-width of the t range): the same
# operations on floats and on arrays.  Far from 0 a width of 1e-12 spans a few ulps of t, where qk21's
# error estimate is rounding noise and can equal its resasc, a case dqagse does not accept at once.
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


def _batch(array, a, b, tol):
    """integrate_batch over one integrand, and the integrand twice: the copy must not change a bit."""
    with np.errstate(all="ignore"):
        ((values, errors, lasts),) = integrate_batch(lambda x, paths: (array(x),), a, b, tol)
        for again in integrate_batch(lambda x, paths: (array(x), array(x)), a, b, tol):
            assert all(np.array_equal(x, y, equal_nan=True) for x, y in zip(again, (values, errors, lasts)))
    return values, errors, lasts


def _assert_integrals_are_quads(scalar, array, a, b, tol):
    """integrate_batch's and the float dqagse's value, error estimate and last are quad's bit for bit,
    and integrate raises QuadratureError exactly where integrate's check refuses quad's result."""
    values, errors, lasts = _batch(array, a, b, tol)
    for i, (x0, x1) in enumerate(zip(a.tolist(), b.tolist())):
        value, estimate, last, _ = _quad(scalar, x0, x1, tol)
        expected = (_bits(value), _bits(estimate), last)
        assert (_bits(values[i]), _bits(errors[i]), int(lasts[i])) == expected, (x0, x1)
        ours = quadrature._dqagse(scalar, x0, x1, tol)
        assert (_bits(ours[0]), _bits(ours[1]), ours[2]) == expected, (x0, x1)
        refused = not math.isfinite(value) or estimate > max(100.0 * tol, 1e-8 * abs(value))
        assert bool(converged(values[i], errors[i], tol)) is not refused
        if refused:
            with pytest.raises(QuadratureError, match="did not converge"):
                integrate(scalar, x0, x1, tol)
        elif x0 != x1:
            assert _bits(integrate(scalar, x0, x1, tol)) == _bits(value)


@settings(max_examples=300, deadline=None)
@given(_step_cases(), st.sampled_from([1e-10, 1e-12, 1e-14]))
def test_integrals_are_quads_bit_for_bit(case, tol):
    # this also guards against a scipy whose QUADPACK differs
    scalar, array, paths = case
    _assert_integrals_are_quads(scalar, array, *(np.array(ends) for ends in zip(*paths)), tol)


def _seeded_intervals(name, reach, count):
    rng = np.random.default_rng(sorted(SIMPLE_INTEGRANDS).index(name))
    start, width, flip = rng.uniform(-reach, reach, count), 10.0 ** rng.uniform(-12.0, 1.0, count), rng.random(count) < 0.5
    return np.where(flip, start + width, start), np.where(flip, start, start + width)


@pytest.mark.parametrize("name", sorted(SIMPLE_INTEGRANDS))
def test_integrals_are_quads_on_a_fixed_sample(name):
    scalar, array, reach = SIMPLE_INTEGRANDS[name]
    _assert_integrals_are_quads(scalar, array, *_seeded_intervals(name, reach, 500), 1e-10)


def _power_or_zero(c, p):
    return lambda t: abs(t - c) ** p if t != c else 0.0


def _hard(name, rng):
    """One seeded (f, a, b) of a kind that subdivides far: singular integrands reach dqelg's
    extrapolation, oscillatory ones on wide intervals QUADPACK's roundoff exit (ier = 2) and its limit of
    MAX_SUBDIVISIONS intervals, steps give error estimates that tie in dqpsrt's order, and an odd
    singularity on a nearly symmetric interval a value near 0 where dqelg's irregularity test decides.
    A NaN or an infinity at one node takes QUADPACK's comparisons where they are false both ways."""
    c, w, h = rng.uniform(-1.0, 1.0), rng.uniform(1.0, 60.0), 10.0 ** rng.uniform(-1.0, 1.0)
    a = rng.uniform(-2.0, 0.0)
    b = a + 10.0 ** rng.uniform(-1.0, 0.6)
    near = c + h * (1.0 + 10.0 ** rng.uniform(-8.0, -1.0) * rng.choice([-1.0, 1.0]))
    if name == "x^-0.9":
        return _power_or_zero(c, -0.9), a, b
    if name == "log|x-c|":
        return (lambda t: math.log(abs(t - c)) if t != c else 0.0), a, b
    if name == "|x-c|^0.3 + sin wx":
        return (lambda t: _power_or_zero(c, 0.3)(t) + math.sin(w * t)), a, b
    if name == "sin 50t":
        return (lambda t: math.sin(50.0 * t)), -60.0 * abs(c), 60.0 * h
    if name == "floor(kt) mod 2":
        k = float(rng.integers(2, 12))
        return (lambda t: math.floor(k * t) % 2.0), 0.0, h
    if name == "sign(t-c)":
        return (lambda t: 1.0 if t > c else -1.0), c - h, near
    if name == "NaN or inf at a node":
        bad = (math.nan, math.inf, -math.inf)[int(rng.integers(3))]
        level = int(rng.integers(0, 6))
        point = (int(rng.integers(0, 2**level)) + 0.5) / 2**level  # the centre of a dyadic interval of [0, 1]
        return (lambda t: bad if t == point else math.sqrt(abs(t - c))), 0.0, 1.0
    p = rng.uniform(-0.95, 0.5)  # "odd |t-c|^p"
    return (lambda t: math.copysign(abs(t - c) ** p, t - c) if t != c else 0.0), c - h, near


# kind: seeded cases; on these, dqpsrt's <= and < and >= each made strict or loose, dqelg's
# irregularity bound 1e-4 as 1e-3, the final sum over rlist in reverse order, dqagse's extrapolation
# test written as abseps < abserr (false on NaN) and numpy's NaN-propagating maximum each fail somewhere
HARD_INTEGRANDS = {
    "x^-0.9": 25, "log|x-c|": 25, "|x-c|^0.3 + sin wx": 25, "sin 50t": 25,
    "floor(kt) mod 2": 100, "sign(t-c)": 60, "odd |t-c|^p": 120, "NaN or inf at a node": 40,
}


def _hard_cases(name):
    rng = np.random.default_rng(list(HARD_INTEGRANDS).index(name))
    for _ in range(HARD_INTEGRANDS[name]):
        f, a, b = _hard(name, rng)
        yield f, a, b, 10.0 ** rng.uniform(-14.0, -6.0)


@pytest.mark.parametrize("name", list(HARD_INTEGRANDS))
def test_integrals_that_subdivide_are_quads(name):
    # in both orientations: quad integrates a reversed interval forwards and negates the value
    for f, a, b, tol in _hard_cases(name):
        _assert_integrals_are_quads(f, lambda t: elementwise(f, t), np.array([a, b]), np.array([b, a]), tol)


def test_opposite_infinities_in_the_first_step_stop_it_as_quad_does():
    # qk21's result is inf - inf = NaN with an infinite error, and dqagse's error bound max(epsabs, epsrel |NaN|)
    # is epsabs, so its roundoff test stops after one step (ier = 2); a NaN bound would subdivide
    def f(t):
        return math.inf if t > 0.9 else -math.inf if t < 0.1 else t

    _assert_integrals_are_quads(f, lambda t: elementwise(f, t), np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1e-10)
    assert _quad(f, 0.0, 1.0, 1e-10)[2] == 1


def test_the_hard_sample_reaches_extrapolation_roundoff_and_the_limit():
    # the sample above is only as strong as the exits it reaches: dqelg, ier = 2 and MAX_SUBDIVISIONS
    calls, messages, lasts = [], [], []
    original = quadrature._Subdivision._dqelg

    def counted(self):
        calls.append(self.numrl2)
        return original(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature._Subdivision, "_dqelg", counted)
        for name in HARD_INTEGRANDS:
            for f, a, b, tol in _hard_cases(name):
                quadrature._dqagse(f, a, b, tol)
                *_, last, message = _quad(f, a, b, tol)
                messages.append(message or "")
                lasts.append(last)
    assert len(calls) > 100 and max(calls) >= 5
    assert any(m.startswith("The occurrence of roundoff error") for m in messages), set(messages)
    assert MAX_SUBDIVISIONS in lasts and max(x for x in lasts if x < MAX_SUBDIVISIONS) > 30


def _assert_first_round_is_quads(scalar, array, a, b, tol):
    """integrate_batch's first round settles an integral (last = 1) exactly where quad stops after its
    first qk21 step, and with quad's value and error estimate."""
    values, errors, lasts = _batch(array, a, b, tol)
    for i, (x0, x1) in enumerate(zip(a.tolist(), b.tolist())):
        value, estimate, last, _ = _quad(scalar, x0, x1, tol)
        assert (lasts[i] == 1) == (last == 1), (x0, x1)
        if last == 1:
            assert (_bits(values[i]), _bits(errors[i])) == (_bits(value), _bits(estimate)), (x0, x1)


@settings(max_examples=300, deadline=None)
@given(_step_cases(), st.sampled_from([1e-10, 1e-12, 1e-14]))
def test_kronrod_first_step_is_quads_first_step_bit_for_bit(case, tol):
    scalar, array, paths = case
    _assert_first_round_is_quads(scalar, array, *(np.array(ends) for ends in zip(*paths)), tol)


@pytest.mark.parametrize("name", sorted(SIMPLE_INTEGRANDS))
def test_kronrod_first_step_is_quads_first_step_on_a_fixed_sample(name):
    # 500 seeded intervals per integrand: on these, a swapped weight, qk21's resabs in place of its
    # resasc in dqagse's test, and numpy's ** 1.5 in place of libm pow each fail somewhere
    scalar, array, reach = SIMPLE_INTEGRANDS[name]
    _assert_first_round_is_quads(scalar, array, *_seeded_intervals(name, reach, 500), 1e-10)


def test_kronrod_first_step_runs_every_integrand_over_one_node_array():
    calls = []

    def f(x, paths):
        calls.append((x.copy(), paths.tolist()))
        return np.ones(x.shape), x

    integrals = integrate_batch(f, np.array([0.0, 3.0]), np.array([2.0, 1.0]))
    assert len(calls) == 1 and calls[0][0].shape == (2, 21) and calls[0][1] == [0, 1]
    assert calls[0][0][:, 0].tolist() == [1.0, 2.0]
    assert [values.tolist() for values, _, _ in integrals] == [[2.0, -2.0], [2.0, -4.0]]
    assert [lasts.tolist() for _, _, lasts in integrals] == [[1, 1], [1, 1]]


def test_integrate_batch_bisects_an_interval_two_integrands_share_once():
    # theta' and c' of one path bisect the same intervals until their error estimates part
    calls = []

    def f(x, paths):
        calls.append(paths.tolist())
        return np.sqrt(np.abs(x - 0.3)), 2.0 * np.sqrt(np.abs(x - 0.3))

    (values, _, lasts), (doubled, _, doubled_lasts) = integrate_batch(f, np.array([0.0]), np.array([1.0]))
    assert lasts.tolist() == doubled_lasts.tolist() and lasts[0] > 2
    assert [len(paths) for paths in calls] == [1] + [2] * (lasts[0] - 1)
    assert _bits(values[0]) == _bits(_quad(lambda t: math.sqrt(abs(t - 0.3)), 0.0, 1.0, 1e-10)[0])


# ---------------------------------------------------------------------------
# integrate_with_boundary_batch: integrate_with_boundary for every integrand and path at once


def _boundary_integrands(lo, hi, pole):
    """(name, array f, float f) triples that give the same bits on a float and on an array: a square
    root vanishing at each finite bound, a smooth bell, a constant (a scalar on arrays) and a double
    pole at the point pole, which does not settle on a path across it."""
    def distances(t):
        return (t - lo) if math.isfinite(lo) else 1.0, (hi - t) if math.isfinite(hi) else 1.0

    def root(t):
        d_lo, d_hi = distances(t)
        return np.sqrt(np.maximum(d_lo * d_hi, 0.0)) / (1.0 + t * t)

    def root_float(t):
        d_lo, d_hi = distances(t)
        return math.sqrt(max(d_lo * d_hi, 0.0)) / (1.0 + t * t)

    def bell(t):
        return 1.0 / (1.0 + t * t)

    def double_pole(t):
        return 1.0 / ((t - pole) * (t - pole))  # a ZeroDivisionError on a float node at the pole

    return [("root", root, root_float), ("bell", bell, bell), ("constant", lambda t: 3.0, lambda t: 3.0),
            ("pole", double_pole, double_pole)]


@st.composite
def _boundary_cases(draw):
    """(bounds, paths, integrands): a domain wide, narrower than the boundary window (its paths in both
    windows), or with one or two infinite bounds; 1-12 paths whose ends lie in the window of lo or of
    hi, inside, on a bound (infinite too), or equal to the start (an empty path), in either direction;
    1-3 of _boundary_integrands."""
    kind = draw(st.sampled_from(["wide", "narrow", "upper infinite", "both infinite"]))
    lo = -math.inf if kind == "both infinite" else draw(st.floats(-10.0, 10.0))
    hi = {
        "wide": lambda: lo + draw(st.floats(0.5, 10.0)),
        "narrow": lambda: lo + draw(st.floats(1e-6, 5e-5)),
    }.get(kind, lambda: math.inf)()
    base = lo if math.isfinite(lo) else -5.0
    top = hi if math.isfinite(hi) else base + 10.0

    def end(where, frac):
        x = {
            "lo": lo + frac * BOUNDARY_WINDOW * max(1.0, abs(lo)),
            "hi": hi - frac * BOUNDARY_WINDOW * max(1.0, abs(hi)),
            "inside": base + frac * (top - base),
            "bound": lo if frac < 0.5 else hi,
        }[where]
        return min(max(x, lo), hi)

    ends = st.tuples(st.sampled_from(["lo", "hi", "inside", "inside", "bound"]), st.floats(0.0, 1.0))
    paths = []
    for _ in range(draw(st.integers(1, 12))):
        a = end(*draw(ends))
        b = a if draw(st.integers(0, 7)) == 0 else end(*draw(ends))
        paths.append((b, a) if draw(st.booleans()) else (a, b))
    integrands = _boundary_integrands(lo, hi, base + 0.37 * (top - base))
    chosen = draw(st.lists(st.sampled_from(integrands), min_size=1, max_size=3, unique_by=lambda x: x[0]))
    event(kind)
    return (lo, hi), paths, chosen


@settings(max_examples=300, deadline=None)
@given(_boundary_cases(), st.sampled_from([1e-10, 1e-12]))
def test_boundary_batch_is_integrate_with_boundary_bit_for_bit(case, tol):
    # the value bytes of every integrand on every path, or the error that the float calls in order raise first
    bounds, paths, integrands = case
    a, b = (np.array(ends) for ends in zip(*paths))
    expected = error = None
    try:
        expected = [
            [_bits(quadrature.integrate_with_boundary(g, x, y, bounds, tol)) for x, y in paths] for _, _, g in integrands
        ]
    except (QuadratureError, ZeroDivisionError) as exc:
        error = exc
    event("raises" if error else "values")

    def f(t):
        return tuple(array(t) for _, array, _ in integrands)

    if error is not None:
        with pytest.raises(type(error)) as raised:
            quadrature.integrate_with_boundary_batch(f, [g for _, _, g in integrands], a, b, bounds, tol)
        assert str(raised.value) == str(error)
    else:
        got = quadrature.integrate_with_boundary_batch(f, [g for _, _, g in integrands], a, b, bounds, tol)
        assert got.shape == (len(integrands), len(paths))
        assert [list(map(_bits, row)) for row in got.tolist()] == expected
