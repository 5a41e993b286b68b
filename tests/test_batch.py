"""Batched evaluation against the per-point code it replaces.

The curvature and frames grids and the Gauss-Bonnet region gate evaluate all
their points in one call over numpy arrays.  Each must give the per-point
loops of tests/helpers.py back bit for bit: the same CSV bytes (%.17g
prints every double apart, -0 and nan included, so equal bytes mean equal
reprs), the same exit code and message, and the same first failing point.
"""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import helpers
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from h1geom import catalog, cli
from h1geom import expr as ex
from h1geom.batch import POINT_FAILURES, elementwise, first_failure, power
from h1geom.cli import main
from h1geom.errors import CharacteristicPointError, NonTransverseError
from h1geom.expr import Dual2
from h1geom.gaussbonnet import AREA_TOL, BOUNDARY_TOL, ParamRegion, _check_region, gb_residual
from h1geom.hgroup import gl_inner
from h1geom.rotsurf import default_v_range
from h1geom.surface import frame_data, graph_patch, parametric_patch, xl_basis

SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _expression(seed: int) -> str:
    return ex.pretty(helpers.random_expression(np.random.default_rng(seed)))


@st.composite
def _range(draw, lo=-2.5, hi=2.5):
    start = draw(st.floats(lo, hi - 0.2))
    width = draw(st.floats(0.1, hi - start))
    return [start, start + width]


@st.composite
def surfaces(draw):
    """Surface descriptors over every chart kind, in both orientations."""
    kind = draw(st.sampled_from(["graph", "parametric", "rotation", "plane", "cylinder", "paraboloid", "plane-cartesian"]))
    orientation = draw(st.sampled_from([1, -1]))
    if kind == "graph":
        surface = {"h": _expression(draw(st.integers(0, 10**6))), "u_range": draw(_range()), "v_range": draw(_range())}
    elif kind == "parametric":
        surface = {
            "x": _expression(draw(st.integers(0, 10**6))),
            "y": _expression(draw(st.integers(0, 10**6))),
            "z": _expression(draw(st.integers(0, 10**6))),
            "u_range": draw(_range()),
            "v_range": draw(_range()),
        }
    elif kind == "rotation":
        K, r0 = draw(st.sampled_from([1.0, 0.0, -1.0])), draw(st.sampled_from([0.5, 1.0, 1.7]))
        c1_shift = draw(st.sampled_from([0.0, 0.3, -0.45]))
        lo, hi = default_v_range(K, r0, c1_shift)
        t0 = draw(st.floats(0.0, 0.9))
        t1 = draw(st.floats(t0 + 0.05, 1.0))
        surface = {"K_inf": K, "r0": r0, "c1_shift": c1_shift, "v_range": [lo + t0 * (hi - lo), lo + t1 * (hi - lo)]}
    elif kind == "paraboloid":
        a, b = draw(st.floats(0.1, 2.5)), draw(st.floats(0.1, 2.5))
        surface = {"u_range": [-a, a], "v_range": [-b, b]}  # odd sides hit the characteristic origin
    elif kind == "plane-cartesian":
        surface = {"half_width": draw(st.floats(0.1, 3.0))}
    else:
        surface = {}
    return {"kind": kind, "orientation": orientation, **surface}


def _run(cmd, config, grid_rows=None):
    """(exit code, stderr, output text) of one CLI grid, optionally with a stand-in _grid_rows.

    An exception the CLI does not handle stands in for the exit code.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out.csv"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        patch = mock.patch.object(cli, "_grid_rows", grid_rows) if grid_rows else contextlib.nullcontext()
        with patch, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main([cmd, "--config", str(path), "--out", str(out)])
            except ArithmeticError as exc:
                code = repr(exc)
        return code, err.getvalue(), out.read_text() if out.exists() else None


def _assert_grid_matches_points(cmd, surface, nu, nv, directions=((1.0, 0.0),)):
    config = {"surface": surface, "grid": {"nu": nu, "nv": nv}, "kn_directions": [list(d) for d in directions]}
    batched = _run(cmd, config)
    expected = _run(cmd, config, helpers.reference_grid(cmd, directions=directions))
    assert batched == expected


@SETTINGS
@given(
    st.sampled_from(["curvature", "frames"]),
    surfaces(),
    st.integers(1, 7),
    st.integers(1, 7),
    st.lists(st.sampled_from([(1.0, 0.0), (0, 1), (1.0, -2.5), (0.0, 0.0)]), min_size=1, max_size=2),
)
@example("curvature", {"kind": "paraboloid", "orientation": 1, "u_range": [-1, 1], "v_range": [-1, 1]}, 5, 3, [(1.0, 0.0)])
@example("frames", {"kind": "plane-cartesian", "orientation": -1}, 3, 5, [(1.0, 0.0)])
@example("curvature", {"kind": "plane", "orientation": -1}, 4, 4, [(0, 1)])
@example("frames", {"kind": "cylinder", "orientation": 1}, 4, 4, [(0, 1)])
@example("frames", {"kind": "parametric", "orientation": 1, "x": "1e-153*u", "y": "1e-153*v", "z": "1e-162*(u+v)", "u_range": [0.5, 1.5], "v_range": [0.5, 1.5]}, 3, 3, [(1.0, 0.0)])  # A = inf at a regular point
@example("curvature", {"kind": "parametric", "orientation": -1, "x": "1e-153*u", "y": "1e-153*v", "z": "1e-162*(u+v)", "u_range": [0.5, 1.5], "v_range": [0.5, 1.5]}, 2, 4, [(1.0, 0.0)])
def test_grid_matches_point_by_point(cmd, surface, nu, nv, directions):
    _assert_grid_matches_points(cmd, surface, nu, nv, directions)
    # f2's sign comes from the construction: the area density has the chart's orientation
    try:
        patch = catalog.surface_from_config(surface)
        u = np.tile(np.linspace(*patch.u_range, nu), nv)
        v = np.repeat(np.linspace(*patch.v_range, nv), nu)
        sample, _, singular = frame_data(patch, u, v)
    except POINT_FAILURES:
        return
    assert np.all((np.broadcast_to(sample.area_density, u.shape) * patch.orientation > 0)[~singular])


@pytest.mark.parametrize(
    "h, u_range, v_range",
    [
        ("ln(u)", [-1.0, 1.0], [-1.0, 1.0]),  # a domain error inside the grid
        ("sqrt(u)*v + u*v", [-0.5, 1.0], [-1.0, 1.0]),  # sqrt clamped at u = 0, domain error left of it
        ("sqrt(u)*v", [0.0, 1.0], [-1.0, 1.0]),  # the clamped root on one grid column
        ("abs(u)*v + u^2", [-1.0, 1.0], [-1.0, 1.0]),  # the abs slope at 0
        ("u^-1 + v", [0.0, 1.0], [0.5, 1.0]),  # pow slope at a zero base
        ("u^0.5 + v^2", [0.0, 1.0], [-1.0, 1.0]),
        ("u^0.5 + v^2", [-1.0, 1.0], [-1.0, 1.0]),  # negative base, non-integer exponent
        ("2^(v^2) + u*v", [-1.0, 1.0], [-1.0, 1.0]),  # constant exponent only on v = 0
        ("(u+2)^(u^2+v^2) + v", [-1.0, 1.0], [-1.0, 1.0]),  # ... only at the origin
        ("(u-1)^(v^2) + u", [-1.0, 1.0], [-1.0, 1.0]),  # varying exponent over a negative base
        ("exp(800*u) + v", [-1.0, 1.0], [-1.0, 1.0]),  # overflow in A (exit 2)
        ("1/(u*u+v*v) + u", [-1.0, 1.0], [-1.0, 1.0]),  # a non-finite position at the origin
    ],
)
@pytest.mark.parametrize("cmd", ["curvature", "frames"])
def test_grid_branches_and_errors_match_point_by_point(cmd, h, u_range, v_range):
    surface = {"kind": "graph", "h": h, "u_range": u_range, "v_range": v_range}
    _assert_grid_matches_points(cmd, surface, 5, 5)


def test_grid_error_is_that_of_the_first_failing_point():
    # a non-finite position at (1, -1) precedes the domain error at (-1, 0) in scan
    # order, though the batch meets the domain error first
    surface = {"kind": "graph", "h": "exp(800*u*(1-v)) + ln(0.1 - (v+1)*(1-u))", "u_range": [-1, 1], "v_range": [-1, 1]}
    code, err, _ = _run("curvature", {"surface": surface, "grid": {"nu": 3, "nv": 3}})
    assert (code, err) == _run("curvature", {"surface": surface, "grid": {"nu": 3, "nv": 3}}, helpers.reference_grid("curvature"))[:2]
    assert code == 2 and "non-finite" in err


@st.composite
def regions(draw):
    surface = draw(surfaces())
    patch = catalog.surface_from_config(surface)
    if patch.closed_u and draw(st.booleans()):
        v0, v1 = patch.v_range
        t0 = draw(st.floats(0.0, 0.9))
        t1 = draw(st.floats(t0, 1.0))
        # min: v0 + 1.0 * (v1 - v0) can round past v1, out of the chart that the reference assumes
        region = ParamRegion(*patch.u_range, v0 + t0 * (v1 - v0), min(v0 + t1 * (v1 - v0), v1), closed_u=True)
    else:
        u0, u1 = patch.u_range
        v0, v1 = patch.v_range
        s = sorted(draw(st.floats(0.0, 1.0)) for _ in range(2))
        t = sorted(draw(st.floats(0.0, 1.0)) for _ in range(2))
        region = ParamRegion(
            u0 + s[0] * (u1 - u0), min(u0 + s[1] * (u1 - u0), u1), v0 + t[0] * (v1 - v0), min(v0 + t[1] * (v1 - v0), v1),
            orientation=draw(st.sampled_from([1, -1])),
        )
    return patch, region


def _outcome(scan, *args):
    try:
        scan(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return None


@SETTINGS
@given(regions())
@example((catalog.paraboloid(), ParamRegion(-1.0, 1.0, -1.0, 1.0)))
@example((catalog.plane_cartesian(), ParamRegion(-0.5, 0.5, -0.5, 0.5)))
@example((catalog.plane(), ParamRegion(0.0, 1.0, 1.0, 2.0)))
def test_prescans_match_point_by_point(case):
    patch, region = case
    assert _outcome(_check_region, patch, region) == _outcome(helpers.reference_check_region, patch, region)


def test_prescans_raise_at_the_first_point_in_scan_order():
    # characteristic along v = 0, first met at (-1, 0) with u outer and v
    # inner; the batch meets the domain error of ln (u >= 0.5) first
    patch = graph_patch("u*v/2 + 0*ln(0.5 - u)", (-1.0, 1.0), (-1.0, 1.0))
    region = ParamRegion(-1.0, 1.0, -1.0, 1.0)
    expected = _outcome(helpers.reference_check_region, patch, region)
    assert expected == (CharacteristicPointError, "characteristic point inside the region at (-1.0, 0.0)")
    assert _outcome(_check_region, patch, region) == expected
    # radial edges of the polar plane lose f3 on both side pieces
    polar = catalog.plane()
    wedge = ParamRegion(0.0, 1.0, 1.0, 2.0)
    expected = _outcome(helpers.reference_check_region, polar, wedge)
    assert expected == (NonTransverseError, "boundary tangent loses its f3 component at (1.0, 1.0)")
    assert _outcome(_check_region, polar, wedge) == expected


# ---------------------------------------------------------------------------
# the pieces: elementwise maps, the expression jet and first_failure


def _parts(d):
    if type(d) is Dual2:
        return _parts(d.value) + _parts(d.d_u) + _parts(d.d_v)
    return [d]


@SETTINGS
@given(st.integers(0, 10**6), _range(), _range(), st.integers(1, 6), st.integers(1, 6))
@example(seed=6271, u_range=[0.0, 1.0], v_range=[0.0, 1.0], nu=1, nv=1)  # -cos(2.363/v): cos(inf) at v = 0
def test_hyperdual_batch_matches_points(seed, u_range, v_range, nu, nv):
    tree = helpers.random_expression(np.random.default_rng(seed))
    u = np.tile(np.linspace(*u_range, nu), nv)
    v = np.repeat(np.linspace(*v_range, nv), nu)

    def evaluate(lo, hi):
        with np.errstate(all="ignore"):
            return ex.eval_hyperdual(tree, u[lo:hi], v[lo:hi])

    try:
        batch = first_failure(evaluate, len(u))
    except ex.EvalError as exc:
        batch = str(exc)
    expected = []
    for uu, vv in zip(u.tolist(), v.tolist()):
        try:
            expected.append([repr(x) for x in _parts(ex.eval_hyperdual(tree, uu, vv))])
        except ex.EvalError as exc:
            expected = str(exc)
            break
    if isinstance(expected, str):
        assert batch == expected
    else:
        got = [np.broadcast_to(x, u.shape) for x in _parts(batch)]
        assert [[repr(float(x[i])) for x in got] for i in range(len(u))] == expected


def test_elementwise_and_power_are_the_scalar_calls():
    x = np.array([0.1, -2.5, 1e300, 3.0, -0.0, math.inf, math.nan])
    assert [repr(y) for y in elementwise(math.atan2, x, 0.7).tolist()] == [repr(math.atan2(y, 0.7)) for y in x.tolist()]
    y = np.array([0.1, -2.5, 3.0, -0.0, 1e-200, math.inf, math.nan])
    assert [repr(z) for z in power(y, 2).tolist()] == [repr(z**2) for z in y.tolist()]
    assert power(3.0, 2) == 9.0 and elementwise(math.hypot, 3.0, 4.0) == 5.0


# -0.0, 0.0, NaN, +-inf, subnormals, +-1e308 and plain values
POWER_INPUTS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e308, -1e308, 0.5, -2.5, 3.0]


def _power_outcome(f, *args):
    """f(*args), or the type of the ArithmeticError it raises."""
    try:
        return f(*args)
    except ArithmeticError as exc:
        return type(exc)


def _assert_power_is_the_reference(f, reference, p):
    """f on an array of POWER_INPUTS and on each input alone gives the reference's bits, or its error."""
    expected = [_power_outcome(reference, x, p) for x in POWER_INPUTS]
    got = _power_outcome(f, np.array(POWER_INPUTS), p)
    errors = [y for y in expected if isinstance(y, type)]
    if errors:
        assert got is errors[0]
    else:
        assert got.dtype == float and got.tobytes() == np.array(expected).tobytes()
    for x, y in zip(POWER_INPUTS, expected):
        assert repr(_power_outcome(f, x, p)) == repr(y)


@pytest.mark.parametrize("p", [0, 1, 2, 0.0, 1.0, 2.0])
def test_power_is_libm_pow_bit_for_bit_at_every_exponent(p):
    # exponents 0 and 1 skip libm: pow(x, 0) is 1, NaN included, and pow(x, 1) keeps -0.0
    _assert_power_is_the_reference(power, pow, p)


@pytest.mark.parametrize("p", [0.0, 1.0, 2.0])
def test_expression_power_is_safe_pow_bit_for_bit_at_every_exponent(p):
    # _pow's array shortcuts give _safe_pow's values, which are +0.0 for -0.0 at p = 1
    node = ex.parse("u^2")
    _assert_power_is_the_reference(lambda b, p: ex._pow(b, p, node), ex._safe_pow, p)


def _power_call(f):
    """f(), or the type and message of the ArithmeticError it raises."""
    try:
        return f()
    except ArithmeticError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("p", [2, 3, -1, -2])
@pytest.mark.parametrize("kind", ["random", "subnormal", "near overflow"])
def test_power_of_an_array_is_float_power_at_an_int_exponent_bit_for_bit(kind, p):
    # power hands libm the exponent as a float: each value alone, and each run of 16, gives the bits of x ** p at
    # the int p, or the first error
    rng = np.random.default_rng([p + 2, len(kind)])
    sign = rng.choice([-1.0, 1.0], 4096)
    if kind == "random":  # any bit pattern, NaN and inf among them
        x = rng.integers(0, 2**63, 4096, dtype=np.int64).view(float) * sign
    elif kind == "subnormal":
        x = rng.uniform(0.0, 1.0, 4096) * 2.2250738585072014e-308 * sign
    else:  # around the x whose |x| ** p is the largest double
        x = 2.0 ** (1024 / p) * rng.uniform(0.9, 1.1, 4096) * sign
    for chunk in [*np.split(x, 256), *np.split(x, 4096)]:
        expected = _power_call(lambda: [xi**p for xi in chunk.tolist()])
        got = _power_call(lambda: power(chunk, p))
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert got.dtype == float and got.tobytes() == np.array(expected).tobytes()


def _jet_parts(jet):
    """Type, shape and element reprs of each part of a jet's three triples.

    A repr keeps the sign of zero but not that of a NaN, which numpy's loops
    do not fix from one call to the next.
    """
    return [(type(x), np.shape(x), [repr(y) for y in np.ravel(x).tolist()]) for triple in jet for x in triple]


@SETTINGS
@given(st.integers(0, 10**6), st.sampled_from(["graph", "parametric"]), _range(), _range(), st.integers(1, 6), st.integers(1, 6))
def test_first_order_jet_is_the_value_of_jet2(seed, kind, u_range, v_range, nu, nv):
    # the region gate reads jet, which expression charts take from a first-order pass
    rng = np.random.default_rng(seed)
    if kind == "graph":
        patch = graph_patch(helpers.random_expression(rng))
    else:
        patch = parametric_patch(*(helpers.random_expression(rng) for _ in range(3)), (-3.0, 3.0), (-3.0, 3.0))
    assert patch._jet1 is not None  # random exponents are numbers
    u = np.tile(np.linspace(*u_range, nu), nv)
    v = np.repeat(np.linspace(*v_range, nv), nu)
    for point in [(u, v)] + list(zip(u.tolist(), v.tolist())):
        with np.errstate(all="ignore"):
            try:
                expected = _jet_parts([[x.value for x in triple] for triple in patch.jet2(*point)])
            except ex.EvalError:
                expected = None
            try:
                got = _jet_parts(patch.jet(*point))
            except ex.EvalError:
                got = None
        assert got == expected


def test_frame_data_batch_marks_singular_points():
    patch = catalog.paraboloid()
    u = np.array([0.0, 0.5, 0.0])
    v = np.array([0.0, 0.25, 1.0])
    sample, fd, singular = frame_data(patch, u, v)
    assert singular.tolist() == [True, False, False]
    for k in (1, 2):
        one, one_fd = frame_data(patch, float(u[k]), float(v[k]))
        assert repr(float(sample.A[k])) == repr(one.A)
        assert repr(float(fd.dA_f2[k])) == repr(one_fd.dA_f2)
        assert repr(helpers.frame_values(sample, k)) == repr(helpers.frame_values(one))


@pytest.mark.parametrize(
    "patch, u, v",
    [
        (catalog.paraboloid(), [0.5, 1.0, -1.5], [0.25, 0.5, 0.75]),
        (catalog.constant_curvature(1.0), [0.3, 2.0, 5.5], [-0.5, 0.1, 0.8]),
    ],
)
def test_frame_record_methods_on_a_batch_are_the_point_results(patch, u, v):
    sample = frame_data(patch, np.array(u), np.array(v))[0]
    x_batch = xl_basis(sample, 4.0)

    def results(s, xs):
        vectors = (s.f1, s.f2, s.f3, *xs)
        return [
            *(helpers.frame_to_gl_basis(f, 4.0) for f in vectors),
            *(np.asarray(gl_inner(f, g, 4.0)) for f in vectors for g in vectors),
        ]

    batch = results(sample, x_batch)
    for k in range(len(u)):
        one = frame_data(patch, u[k], v[k])[0]
        for got, want in zip(batch, results(one, xl_basis(one, 4.0)), strict=True):
            assert repr(got[..., k].tolist()) == repr(want.tolist())


def test_gl_inner_on_two_batch_records_compares_their_points():
    patch = catalog.paraboloid()
    u, v = np.array([0.5, 1.0]), np.array([0.25, 0.5])
    one, other = frame_data(patch, u, v)[0], frame_data(patch, u, v)[0]
    assert gl_inner(one.f3, other.f3, 2.0).tolist() == gl_inner(one.f3, one.f3, 2.0).tolist()
    with pytest.raises(ValueError, match="based at different points"):
        gl_inner(one.f1, frame_data(patch, u, v + 0.1)[0].f1, 2.0)


# ---------------------------------------------------------------------------
# the Gauss-Bonnet cubatures against nested QUADPACK and the exact transverse
# derivatives against central differences, one scalar frame at a time


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(regions())
@example((catalog.paraboloid(), ParamRegion(1.0, 2.0, -1.0, -0.5)))
@example((catalog.paraboloid(), ParamRegion(0.02, 1.0, 0.02, 1.0, orientation=-1)))  # subdivides
@example((catalog.plane(), ParamRegion(0.0, 2.0 * math.pi, 0.5, 3.0, closed_u=True)))
@example((catalog.constant_curvature(-1.0), ParamRegion(0.0, 2.0 * math.pi, -1.0, 1.5, closed_u=True)))
def test_gauss_bonnet_integrals_match_nested_quadpack(case):
    patch, region = case
    # refused regions, and nodes of either rule that meet a singular or
    # domain point, fail at a point; those errors are tested apart
    try:
        report = gb_residual(patch, region)
        area, area_err = helpers.reference_area_integral(patch, region, 1e-9)
        boundary, boundary_err = helpers.reference_boundary_integral(patch, region, 1e-10)
    except POINT_FAILURES:
        assume(False)
    assert abs(report.area_integral - area) <= 1e-9 + area_err
    assert abs(report.boundary_integral - boundary) <= 1e-10 + boundary_err
    assert report.area_error_est <= 1e-9 and report.boundary_error_est <= 1e-10


@SETTINGS
@given(regions())
@example((catalog.paraboloid(), ParamRegion(1.0, 2.0, -1.0, -0.5)))
@example((catalog.paraboloid(), ParamRegion(0.02, 1.0, 0.02, 1.0, orientation=-1)))
def test_gauss_bonnet_integrals_add_over_a_split_and_flip_with_orientation(case):
    patch, region = case
    assume(not region.closed_u)
    mid = 0.5 * (region.u0 + region.u1)
    parts = [
        region,
        dataclasses.replace(region, u1=mid),
        dataclasses.replace(region, u0=mid),
        dataclasses.replace(region, orientation=-region.orientation),
    ]
    try:
        reports = [gb_residual(patch, part) for part in parts]
    except POINT_FAILURES:
        assume(False)
    for side, tol in (("area", AREA_TOL), ("boundary", BOUNDARY_TOL)):
        whole, left, right, flipped = (getattr(report, f"{side}_integral") for report in reports)
        e_whole, e_left, e_right, e_flipped = (getattr(report, f"{side}_error_est") for report in reports)
        assert abs(whole - left - right) <= 3 * tol + e_whole + e_left + e_right
        assert abs(whole + flipped) <= 2 * tol + e_whole + e_flipped


TRANSVERSE_CHARTS = {
    "graph": graph_patch("0.4*u^2 - 0.3*u*v + 0.2*sin(2*v) + 0.1*u^3", (-2.0, 2.0), (-2.0, 2.0)),
    "parametric": parametric_patch(
        "(2+cos(v))*cos(u)", "(2+cos(v))*sin(u)", "sin(v)+0.3*sin(u)", (0.0, 2.0 * math.pi), (-0.4, 0.4), closed_u=True
    ),
    "rotation": catalog.constant_curvature(-1.0),
}


@pytest.mark.parametrize("chart", sorted(TRANSVERSE_CHARTS))
@pytest.mark.parametrize("orientation", [1, -1])
def test_exact_transverse_derivatives_match_central_differences(chart, orientation):
    patch = dataclasses.replace(TRANSVERSE_CHARTS[chart], orientation=orientation)
    points = {"graph": [(0.7, 1.1), (1.3, -0.6)], "parametric": [(0.4, 0.1), (2.5, -0.3)], "rotation": [(0.3, 0.4), (2.0, -0.7)]}
    checked = 0
    for u, v in points[chart]:
        for du, dv in ((1.0, 0.0), (0.6, -0.8), (-1.0, 0.3)):
            try:
                c = helpers.transverse(patch, u, v, (du, dv))
            except NonTransverseError:
                continue
            ref = helpers.reference_transverse_sample(
                patch, lambda t: (u + t * du, v + t * dv), 0.0, velocity=lambda t: (du, dv)
            )
            scale = max(1.0, abs(ref.da_dt), abs(ref.db_dt))
            assert (c.a, c.b, c.A, c.dA_dt) == (ref.a, ref.b, ref.A, ref.dA_dt)
            assert abs(c.da_dt - ref.da_dt) <= 1e-6 * scale
            assert abs(c.db_dt - ref.db_dt) <= 1e-6 * scale
            checked += 1
    assert checked >= 5


def test_transverse_sample_batch_matches_points():
    patch = TRANSVERSE_CHARTS["graph"]
    u, v = np.linspace(-1.5, 1.5, 7), np.linspace(0.3, 1.9, 7)
    du, dv = np.linspace(-1.0, 1.0, 7), np.full(7, 0.5)
    batch = helpers.transverse(patch, u, v, (du, dv))
    for k in range(7):
        one = helpers.transverse(patch, float(u[k]), float(v[k]), (float(du[k]), float(dv[k])))
        for name in ("a", "b", "da_dt", "db_dt", "dA_dt", "A", "dalpha_f2", "dalpha_f3"):
            assert repr(float(getattr(batch, name)[k])) == repr(getattr(one, name))
