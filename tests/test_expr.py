import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from h1geom import expr as ex
from h1geom.batch import POINT_FAILURES


def test_precedence():
    assert helpers.evaluate(ex.parse("2+3*4"), {}) == 14.0
    assert helpers.evaluate(ex.parse("2^3^2"), {}) == 512.0
    assert helpers.evaluate(ex.parse("-2^2"), {}) == -4.0
    assert helpers.evaluate(ex.parse("2^-2"), {}) == 0.25
    assert helpers.evaluate(ex.parse("6/3/2"), {}) == 1.0
    assert helpers.evaluate(ex.parse("2*-3"), {}) == -6.0
    assert helpers.evaluate(ex.parse("(2+3)*4"), {}) == 20.0


def test_constants_and_functions():
    assert helpers.evaluate(ex.parse("sin(pi/2)"), {}) == pytest.approx(1.0)
    assert helpers.evaluate(ex.parse("cosh(0)"), {}) == 1.0
    assert helpers.evaluate(ex.parse("ln(e)"), {}) == pytest.approx(1.0)
    assert helpers.evaluate(ex.parse("atan(1)"), {}) == pytest.approx(math.pi / 4)
    assert helpers.evaluate(ex.parse("abs(-3)"), {}) == 3.0


def test_variables():
    tree = ex.parse("u^2+v")
    assert helpers.evaluate(tree, {"u": 3.0, "v": 1.0}) == 10.0
    with pytest.raises(ex.EvalError):
        helpers.evaluate(tree, {"u": 3.0})


def test_syntax_error_offset():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("2+*3")
    assert err.value.offset == 2
    with pytest.raises(ex.ParseError):
        ex.parse("sin 3")
    with pytest.raises(ex.ParseError):
        ex.parse("(1+2")
    with pytest.raises(ex.ParseError):
        ex.parse("1 2")


def test_unknown_identifier():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("2 + w")
    assert "w" in str(err.value)
    with pytest.raises(ex.ParseError):
        ex.parse("foo(3)")


def test_domain_errors():
    with pytest.raises(ex.ExprDomainError):
        helpers.evaluate(ex.parse("sqrt(u)"), {"u": -1.0})
    with pytest.raises(ex.ExprDomainError):
        helpers.evaluate(ex.parse("ln(0-1)"), {})
    # clamp window: tiny negatives count as zero
    assert helpers.evaluate(ex.parse("sqrt(u)"), {"u": -1e-13}) == 0.0


def test_division_by_zero_is_ieee():
    assert helpers.evaluate(ex.parse("1/u"), {"u": 0.0}) == math.inf
    assert math.isnan(helpers.evaluate(ex.parse("(u-u)/u"), {"u": 0.0}))


def test_eval_dual_examples():
    d = ex.eval_hyperdual(ex.parse("u^2+v"), 3.0, 1.0).value
    assert (d.value, d.d_u, d.d_v) == (10.0, 6.0, 1.0)
    d = ex.eval_hyperdual(ex.parse("sin(u)*cos(v)"), 0.0, 0.0).value
    assert d.value == 0.0
    assert d.d_u == pytest.approx(1.0)
    assert d.d_v == pytest.approx(0.0, abs=1e-16)


def test_eval_dual_t():
    d = ex._eval_dual_t(ex.parse("t^3"), 2.0)
    assert d.value == 8.0
    assert d.d_u == 12.0
    with pytest.raises(ex.EvalError):
        ex._eval_dual_t(ex.parse("u+1"), 0.0)


def test_dual_chain_rule_against_fd_small_corpus():
    cases = helpers.build_corpus(200, seed=42)
    for tree, u, v, fd_u, fd_v in cases:
        d = ex.eval_hyperdual(tree, u, v).value
        for got, want in ((d.d_u, fd_u), (d.d_v, fd_v)):
            assert abs(got - want) <= 1e-6 * max(1.0, abs(got), abs(want))


def test_pretty_round_trip_hand_cases():
    for text in (
        "u+v*t",
        "-(u+v)",
        "-u^2",
        "(u+v)^2",
        "u^-v",
        "u-(v-t)",
        "u/(v*t)",
        "sin(u)*cos(v)+tanh(t)",
        "2^3^2",
        "1e+300",
        "0.5*pi",
    ):
        once = ex.pretty(ex.parse(text))
        again = ex.pretty(ex.parse(once))
        assert once == again
        bindings = {"u": 0.7, "v": 0.3, "t": 1.1}
        assert helpers.evaluate(ex.parse(once), bindings) == pytest.approx(
            helpers.evaluate(ex.parse(text), bindings), rel=1e-15, abs=1e-300
        )


def test_pretty_round_trip_randomized():
    rng = np.random.default_rng(9)
    for _ in range(400):
        tree = helpers.random_expression(rng)
        once = ex.pretty(tree)
        reparsed = ex.parse(once)
        assert ex.pretty(reparsed) == once


def test_sqrt_at_zero_has_finite_value():
    d = ex.eval_hyperdual(ex.parse("sqrt(u*0)"), 1.0, 0.0).value
    assert d.value == 0.0
    assert d.d_u == 0.0  # constant-zero argument carries no derivative


def _parts(d):
    return (d.value, d.d_u, d.d_v)


def test_hyperdual_value_part_is_the_first_order_dual():
    # bit for bit, including the sqrt-at-zero and constant-exponent branches
    cases = helpers.build_corpus(200, seed=7)
    extra = [(ex.parse(text), 1.0, 0.5) for text in ("sqrt(u*0)", "u^(v-v+2)", "2^u", "u^v", "abs(u-1)")]
    for tree, u, v, *_ in list(cases) + extra:
        first = helpers.first_order_dual(tree, u, v)
        hyper = ex.eval_hyperdual(tree, u, v)
        assert _parts(hyper.value) == _parts(first)
        assert hyper.d_u.value == pytest.approx(first.d_u, rel=1e-14, abs=1e-300)
        assert hyper.d_v.value == pytest.approx(first.d_v, rel=1e-14, abs=1e-300)


def _bits(d):
    """The parts of a first-order dual as reprs, which tell -0.0 from 0.0 and match NaN with NaN."""
    return [repr(y) for x in _parts(d) for y in np.ravel(x).tolist()]


def _outcome(evaluate, tree, u, v):
    with np.errstate(all="ignore"):
        try:
            return _bits(evaluate(tree, u, v))
        except POINT_FAILURES as exc:
            return type(exc), str(exc)


# exponents with and without a variable, whose partials vanish or overflow at some of POINTS
EXPONENT_CASES = [
    "u^(1+1)", "u^(1e-320*710/1e308 + 2)", "u^(v-v+2)", "(u-1)^(v^2)", "2^(v^2)+u*v", "v^exp(1000)",
    "(u+2)^(u^2+v^2)", "u^-v", "sqrt(u*0)", "abs(u-1)^(0*u+pi)", "(-1)^(2 + 1e-310*cos(v))", "(u^(2))^0",
]
POINTS = [(-1.0, 0.5), (0.5, 0.0), (1.0, 0.5), (0.0, 0.0), (2.0, -1.0)]


def test_first_order_pass_is_the_value_part_of_the_hyperdual_one_or_fails_alike():
    # both passes take an exponent as constant iff no variable occurs in it, so they branch alike at every point
    trees = [case[0] for seed in (7, 11, 42) for case in helpers.build_corpus(200, seed=seed)]
    trees += [ex.parse(text) for text in EXPONENT_CASES]
    u, v = (np.array(axis) for axis in zip(*POINTS))
    for tree in trees:
        for point in POINTS + [(u, v)]:
            first = _outcome(ex.eval_dual, tree, *point)
            assert first == _outcome(lambda *args: ex.eval_hyperdual(*args).value, tree, *point), ex.pretty(tree)


@pytest.mark.parametrize("text", ["u^(1+1)", "u^(1e-320*710/1e308 + 2)"])
def test_exponent_without_a_variable_is_its_value(text):
    # 1e-320*710/1e308 underflows to 0, and its second partials are NaN: 1e+308 squared overflows in the quotient rule
    tree, square = ex.parse(text), ex.parse("u^2")
    assert _bits(ex.eval_dual(tree, -1.0, 0.5)) == _bits(ex.eval_dual(square, -1.0, 0.5))
    got, want = ex.eval_hyperdual(tree, -1.0, 0.5), ex.eval_hyperdual(square, -1.0, 0.5)
    assert [_bits(x) for x in (got.value, got.d_u, got.d_v)] == [_bits(x) for x in (want.value, want.d_u, want.d_v)]


@pytest.mark.parametrize(
    "text, u, v, message",
    [("u^(v-v+2)", -1.0, 0.5, "non-positive base -1.0 with varying exponent in 'u^(v-v+2)'"),
     ("(u-1)^(v^2)", 0.5, 0.0, "non-positive base -0.5 with varying exponent in '(u-1)^v^2'")],
)
def test_exponent_with_a_variable_varies_where_its_partials_vanish(text, u, v, message):
    tree = ex.parse(text)
    for evaluate in (ex.eval_dual, ex.eval_hyperdual):
        with pytest.raises(ex.ExprDomainError) as info:
            evaluate(tree, u, v)
        assert str(info.value) == message


def test_hyperdual_second_partials_against_fd():
    cases = helpers.build_corpus(120, seed=11)
    checked = 0
    for tree, u, v, *_ in cases:
        h = 1e-5
        try:
            plus_u, minus_u = helpers.first_order_dual(tree, u + h, v), helpers.first_order_dual(tree, u - h, v)
            plus_v, minus_v = helpers.first_order_dual(tree, u, v + h), helpers.first_order_dual(tree, u, v - h)
        except ex.EvalError:
            continue
        fd = (
            (plus_u.d_u - minus_u.d_u) / (2 * h),
            (plus_v.d_u - minus_v.d_u) / (2 * h),
            (plus_v.d_v - minus_v.d_v) / (2 * h),
        )
        hyper = ex.eval_hyperdual(tree, u, v)
        exact = (hyper.d_u.d_u, hyper.d_u.d_v, hyper.d_v.d_v)
        if not all(math.isfinite(x) and abs(x) < 1e3 for x in fd + exact):
            continue
        assert hyper.d_v.d_u == pytest.approx(hyper.d_u.d_v, rel=1e-12, abs=1e-12)
        for got, want in zip(exact, fd):
            assert abs(got - want) <= 1e-4 * max(1.0, abs(want))
        checked += 1
    assert checked >= 80


def test_hyperdual_hand_values():
    d = ex.eval_hyperdual(ex.parse("u^2*v + sin(v)"), 2.0, 0.5)
    assert _parts(d.value) == (2.0 + math.sin(0.5), 2.0, 4.0 + math.cos(0.5))
    assert _parts(d.d_u) == (2.0, 1.0, 4.0)
    assert _parts(d.d_v) == (4.0 + math.cos(0.5), 4.0, -math.sin(0.5))
    # the exponent's gradient vanishes at these points but its Hessian does not
    d = ex.eval_hyperdual(ex.parse("2^(v^2)+u*v"), 1.0, 0.0)
    assert _parts(d.value) == (1.0, 0.0, 1.0)
    assert _parts(d.d_u) == (0.0, 0.0, 1.0)
    assert _parts(d.d_v) == (1.0, 1.0, 2.0 * math.log(2.0))
    d = ex.eval_hyperdual(ex.parse("e^(u*v)"), 0.0, 0.0)
    assert (d.d_u.d_u, d.d_u.d_v, d.d_v.d_v) == (0.0, 1.0, 0.0)
    d = ex.eval_hyperdual(ex.parse("(u+2)^(u^2+v^2)"), 0.0, 0.0)
    assert (d.d_u.d_u, d.d_u.d_v, d.d_v.d_v) == (2.0 * math.log(2.0), 0.0, 2.0 * math.log(2.0))


def test_dual2_compares_and_hashes_by_value():
    assert ex.Dual2(1.0) == ex.Dual2(1.0, 0.0, 0.0)
    assert ex.Dual2(1.0, 2.0) != ex.Dual2(1.0)
    assert hash(ex.Dual2(0.5, 1.0, 2.0)) == hash(ex.Dual2(0.5, 1.0, 2.0))
    assert repr(ex.Dual2(1.0, 2.0, 3.0)) == "Dual2(value=1.0, d_u=2.0, d_v=3.0)"


def test_parser_rejects_deep_nesting():
    for text in ("(" * 5000 + "u" + ")" * 5000, "-" * 5000 + "u", "u" + "+u" * 5000):
        with pytest.raises(ex.ParseError, match="nests deeper"):
            ex.parse(text)
    with pytest.raises(ex.ParseError):
        ex.parse("sin(" * (ex.MAX_DEPTH + 1) + "u" + ")" * (ex.MAX_DEPTH + 1))


def test_expression_at_the_depth_limit_evaluates():
    depth = ex.MAX_DEPTH
    assert helpers.evaluate(ex.parse("(" * depth + "u" + ")" * depth), {"u": 0.25}) == 0.25
    tree = ex.parse("sin(" * depth + "u" + ")" * depth)
    value = 0.4
    for _ in range(depth):
        value = math.sin(value)
    hyper = ex.eval_hyperdual(tree, 0.4, 0.0)
    assert hyper.value.value == value
    assert _parts(hyper.value) == _parts(helpers.first_order_dual(tree, 0.4, 0.0))


# ---------------------------------------------------------------------------
# tokens

DIGITS = "0123456789\u0663"  # ARABIC-INDIC DIGIT THREE is a decimal digit too
SPACES = " \t\n\r\x0b\x0c\u00a0\u2003\u3000"
LETTERS = st.characters(categories=["Lu", "Ll", "Lt", "Lm", "Lo"])


def _numbers():
    digits = st.text(DIGITS, min_size=1, max_size=4)
    fraction = st.one_of(st.just(""), st.builds(lambda d: "." + d, st.text(DIGITS, max_size=3)))
    exponent = st.one_of(st.just(""), st.builds("".join, st.tuples(st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), digits)))
    return st.builds("".join, st.tuples(digits, fraction, exponent))


def _identifiers():
    start = st.one_of(LETTERS, st.just("_"))
    rest = st.lists(st.one_of(LETTERS, st.just("_"), st.sampled_from(DIGITS)), max_size=4).map("".join)
    return st.builds(lambda a, b: a + b, start, rest)


TOKENS = st.one_of(
    st.tuples(st.just("num"), _numbers()),
    st.tuples(st.just("ident"), _identifiers()),
    st.tuples(st.just("op"), st.sampled_from("+-*/^")),
    st.tuples(st.just("lparen"), st.just("(")),
    st.tuples(st.just("rparen"), st.just(")")),
)


@st.composite
def token_strings(draw):
    """(text, [(kind, token, offset)]): tokens joined by random whitespace, which
    is never empty between two numbers or identifiers, or they would run together."""
    text, expected, previous = "", [], None
    for kind, token in draw(st.lists(TOKENS, max_size=8)):
        text += draw(st.text(SPACES, min_size=int({previous, kind} <= {"num", "ident"}), max_size=2))
        expected.append((kind, token, len(text)))
        text += token
        previous = kind
    return text + draw(st.text(SPACES, max_size=2)), expected


def _tokens(text):
    return [(t.kind, t.text, t.pos) for t in ex._tokenize(text)]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1.", [("num", "1.", 0)]),
        ("2.5e-3", [("num", "2.5e-3", 0)]),
        ("3e+07", [("num", "3e+07", 0)]),
        ("1e+", [("num", "1", 0), ("ident", "e", 1), ("op", "+", 2)]),  # an exponent needs digits
        (" _x1*\u03c0 ", [("ident", "_x1", 1), ("op", "*", 4), ("ident", "\u03c0", 5)]),
        ("(u)^-2", [("lparen", "(", 0), ("ident", "u", 1), ("rparen", ")", 2), ("op", "^", 3), ("op", "-", 4), ("num", "2", 5)]),
    ],
)
def test_tokens_by_hand(text, expected):
    assert _tokens(text) == expected + [("end", "", len(text))]


@settings(max_examples=300, deadline=None)
@given(token_strings())
def test_joined_tokens_tokenize_back(case):
    text, expected = case
    assert _tokens(text) == expected + [("end", "", len(text))]


@settings(max_examples=300, deadline=None)
@given(token_strings(), st.characters().filter(lambda c: not (c.isspace() or c.isalnum() or c in "_+-*/^()")), token_strings())
def test_character_outside_every_token_is_unexpected(head, bad, tail):
    text = head[0] + (" " if bad == "." else "") + bad  # '.' right after digits continues a number
    with pytest.raises(ex.ParseError) as err:
        ex._tokenize(text + tail[0])
    assert str(err.value) == f"unexpected character {bad!r} (offset {len(text) - 1})"


@pytest.mark.parametrize(
    "text, message",
    [
        # other numerals (Unicode No, Nl) are no decimal digits but may start and continue identifiers
        ("0\u00b2", "unexpected trailing input '\u00b2' (offset 1)"),
        ("\u00bdu", "unknown identifier '\u00bdu' (offset 0)"),
        ("u*\u216b", "unknown identifier '\u216b' (offset 2)"),
    ],
)
def test_other_numerals_are_identifier_characters(text, message):
    with pytest.raises(ex.ParseError) as err:
        ex.parse(text)
    assert str(err.value) == message
