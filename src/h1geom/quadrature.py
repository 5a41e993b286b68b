"""Adaptive quadrature wrappers with square-root boundary substitution.

Profile integrals use scipy's QUADPACK Gauss-Kronrod rule, surface
integrals an adaptive product Gauss-Kronrod cubature of this module's own
(cubature), each behind a small wrapper that checks the reported error
estimate.  Profile integrands of the form g(t)*sqrt(h(t)), with h
vanishing simply at a domain endpoint, lose accuracy for the plain rule;
substituting t = b0 +/- s^2 near that endpoint makes the integrand smooth
again.

QUADPACK's first step, one 21-point Gauss-Kronrod rule over the whole
interval and the test that ends the integral there, also runs in numpy
over many intervals at once (kronrod_first_step).  It reproduces quad's
value, error estimate and decision bit for bit, so a caller with a batch
of integrals calls quad only for those the step does not settle; every
later step stays QUADPACK's.  Its rule is QUADPACK's own literals, and so
is cubature's Kronrod rule: neither needs scipy.

scipy.integrate is imported inside integrate, when quad is first needed,
not with this module: its import (which pulls in scipy.optimize, sparse,
spatial, special, linalg and fft) costs about 0.4 s, two thirds of a fresh
`import h1geom.cli`, and the curvature formulas, the grid commands, the
Gauss-Bonnet cubatures and a configuration error need no quad.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys

import numpy as np

from .batch import elementwise
from .errors import QuadratureError

__all__ = [
    "integrate",
    "kronrod_first_step",
    "cubature",
    "integrate_with_boundary",
    "gauss_segments",
]

BOUNDARY_WINDOW = 1e-4  # switch to the sqrt substitution within this distance of a bound

MAX_SUBDIVISIONS = 200  # QUADPACK's interval limit in integrate, cubature's box limit

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

# QUADPACK dqk21's data statements: Kronrod abscissae xgk(1..10) (xgk(11) is 0),
# Kronrod weights wgk(1..11) and the weights wg(1..5) of the embedded 10-point Gauss rule
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# cubature's embedded 10-point Gauss rule is scipy's roots_legendre(10), as in scipy's gk21, not
# xgk(2j) and wg(j): two of the five node pairs and all five weights differ in the last bits.
# Its non-negative nodes and their weights, exactly:
_GL10_NODES = np.array([float.fromhex(h) for h in (
    "0x1.30e507891e278p-3", "0x1.bbcc009016adcp-2", "0x1.5bdb9228de198p-1", "0x1.bae995e9cb2f2p-1", "0x1.f2a3e062af2d8p-1",
)])
_GL10_WEIGHTS = np.array([float.fromhex(h) for h in (
    "0x1.2e9de7014d6f7p-2", "0x1.13baa7a559c05p-2", "0x1.c0b059d00bc38p-3", "0x1.32138c878efe3p-3", "0x1.1115f8b62dbd7p-4",
)])
_KRONROD_ORDER = [1, 3, 5, 7, 9, 0, 2, 4, 6, 8]  # qk21 sums the Gauss nodes xgk(2), xgk(4), ... first
_WGK_ORDERED = _WGK[_KRONROD_ORDER]
_OFFSETS = np.concatenate([[0.0], -_XGK, _XGK])  # of the 21 nodes from the centre, in half-lengths
_EPMACH, _UFLOW = sys.float_info.epsilon, sys.float_info.min  # d1mach(4), d1mach(1)


def _in_window(distance, bound):
    """Whether a distance (float or array) from a finite domain bound lies in its boundary window."""
    return math.isfinite(bound) and distance < BOUNDARY_WINDOW * max(1.0, abs(bound))


def integrate(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive integral of f over [a, b] to absolute tolerance tol, or to 1e-13 relative.

    One QUADPACK call, with full_output so that an unconverged status comes
    back as a message, not as an IntegrationWarning, and the process-wide
    warning filters are left alone.  QuadratureError if the value is not
    finite or the error estimate exceeds max(100 tol, 1e-8 |value|), as at
    QUADPACK's limit of MAX_SUBDIVISIONS intervals; an exception raised by f
    propagates unchanged.
    """
    if a == b:
        return 0.0
    from scipy.integrate import quad

    value, err = quad(f, a, b, epsabs=tol, epsrel=max(tol, 1e-13), limit=MAX_SUBDIVISIONS, full_output=1)[:2]
    if not math.isfinite(value) or err > max(100.0 * tol, 1e-8 * abs(value)):
        raise QuadratureError(
            f"integral over [{a!r}, {b!r}] did not converge (estimate {err:.3e})"
        )
    return value


def kronrod_first_step(f, a, b, tol: float = 1e-10):
    """The first QUADPACK step of :func:`integrate` over every [a_i, b_i] at once, in numpy.

    integrate's qagse starts with one 21-point Gauss-Kronrod rule (qk21)
    over the whole interval and returns when its error estimate meets the
    tolerance.  This runs that step for the arrays a and b (either
    orientation) with qk21's operations in qk21's order, libm pow included,
    so that each result and error estimate is quad's bit for bit: every
    weighted sum is a running sum (np.add.accumulate, never numpy's
    pairwise reduction) over its terms in the order of qk21's loops.
    f maps an (n, 21) array of nodes to a tuple of (n, 21) value arrays,
    one per integrand: column 0 is the centre, columns 1-10 centre -
    hlgth xgk(j) and 11-20 centre + hlgth xgk(j).  Returns one (results,
    errors, accepted) triple of arrays per integrand; accepted is True
    exactly where quad would stop after this step without a message, with
    the same result.  Run it under np.errstate(all="ignore") where values
    may overflow.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    epsabs, epsrel = tol, max(tol, 1e-13)  # integrate's tolerances
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    nodes = centr[:, None] + hlgth[:, None] * _OFFSETS  # c + h (-x) is c - h x exactly
    nodes[:, 0] = centr  # and c + h 0 would turn a centre of -0.0 into 0.0
    parts = f(nodes)
    values = np.concatenate(parts)  # the integrands one below the other
    hlgth = np.concatenate([hlgth] * len(parts))
    fc, fv1, fv2 = values[:, :1], values[:, 1:11], values[:, 11:]

    def running_sum(first, terms):
        return np.add.accumulate(np.concatenate([first, terms], axis=1), axis=1)[:, -1]

    fsum = (fv1 + fv2)[:, _KRONROD_ORDER]
    resg = running_sum(np.zeros_like(fc), _WG * fsum[:, :5])
    resk0 = _WGK[10] * fc
    resk = running_sum(resk0, _WGK_ORDERED * fsum)
    resabs = running_sum(np.abs(resk0), _WGK_ORDERED * (np.abs(fv1) + np.abs(fv2))[:, _KRONROD_ORDER])
    reskh = (resk * 0.5)[:, None]
    resasc = running_sum(_WGK[10] * np.abs(fc - reskh), _WGK[:10] * (np.abs(fv1 - reskh) + np.abs(fv2 - reskh)))
    dhlgth = np.abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    ratio = elementwise(math.pow, 200.0 * abserr[scaled] / resasc[scaled], 1.5)
    abserr[scaled] = resasc[scaled] * np.minimum(1.0, ratio)
    floor = resabs > _UFLOW / (50.0 * _EPMACH)
    abserr[floor] = np.maximum((_EPMACH * 50.0) * resabs[floor], abserr[floor])
    # qagse's test, where its "resabs" is qk21's resasc; its ier = 2 test
    # needs abserr > errbnd and so never refuses what this accepts
    errbnd = np.maximum(epsabs, epsrel * np.abs(result))
    accepted = ((abserr <= errbnd) & (abserr != resasc)) | (abserr == 0.0)
    shape = (len(parts), len(a))
    return list(zip(result.reshape(shape), abserr.reshape(shape), accepted.reshape(shape)))


@functools.cache
def _gk21(ndim: int):
    """The product rule gk21 on [-1, 1]^ndim: (nodes, weights), 21^ndim Kronrod rows then 10^ndim Gauss rows.

    Built as scipy's ProductNestedFixed of GaussKronrodQuadrature(21) builds
    it: each table is the Cartesian product of the 1-D rule (last axis
    fastest), each weight the product of its factors.  The Gauss weights are
    negated, so the weighted sum over every row is Kronrod minus Gauss.
    """
    kronrod = np.concatenate([_XGK, [0.0], -_XGK[::-1]]), np.concatenate([_WGK, _WGK[9::-1]])
    gauss = np.concatenate([-_GL10_NODES[::-1], _GL10_NODES]), np.concatenate([_GL10_WEIGHTS[::-1], _GL10_WEIGHTS])
    (xk, wk), (xg, wg) = ((_product([x] * ndim), np.prod(_product([w] * ndim), axis=-1)) for x, w in (kronrod, gauss))
    return np.concatenate([xk, xg]), np.concatenate([wk, -wg])


def _product(arrays):
    """The Cartesian product of 1-D arrays as rows, the last array fastest."""
    return np.stack(np.meshgrid(*arrays, indexing="ij"), axis=-1).reshape(-1, len(arrays))


class _Box(tuple):
    """(max |error|, a, b, estimate, error) of a box; heapq pops the largest max |error| first, as scipy does."""

    def __lt__(self, other):
        return self[0] > other[0]


def cubature(f, a, b, tol: float):
    """Adaptive cubature of a vectorized f over the finite box [a, b] (a <= b): (values, error estimates).

    f maps an (n, ndim) array of nodes to an (n, ...) array of values, each
    component integrated to the absolute tolerance tol or to 1e-13 relative.
    This is scipy's cubature(f, a, b, rule="gk21", rtol=1e-13, atol=tol,
    max_subdivisions=MAX_SUBDIVISIONS) bit for bit: the product 21-point
    Gauss-Kronrod rule with the embedded 10-point Gauss rule as error
    estimate, the box of largest error split into 2^ndim halves next, with
    scipy's operations in scipy's order.  f is called once per box, over
    its 21^ndim Kronrod nodes followed by the 10^ndim Gauss nodes:
    1 + 2^ndim * subdivisions calls in all.  QuadratureError if the
    MAX_SUBDIVISIONS-th subdivision is reached or a result is not finite.
    """
    ndim = len(a)
    nodes, weights = _gk21(ndim)

    def box(a_k, b_k):
        lengths = b_k - a_k
        values = f((nodes + 1) * (lengths * 0.5) + a_k)
        terms = (weights * (np.prod(lengths) / 2**ndim)).reshape(-1, *[1] * (values.ndim - 1)) * values
        est, err = np.sum(terms[: 21**ndim], axis=0), np.abs(np.sum(terms, axis=0))
        return _Box((np.max(err), a_k, b_k, est, err))

    heap = [box(np.asarray(a, dtype=float), np.asarray(b, dtype=float))]
    value, error = 0.0 + heap[0][3], 0.0 + heap[0][4]  # scipy's totals start from 0.0, so -0.0 becomes 0.0
    subdivisions = 0
    while subdivisions < MAX_SUBDIVISIONS and np.any(error > tol + 1e-13 * np.abs(value)):
        _, a_k, b_k, est, err = heapq.heappop(heap)
        value, error = value - est, error - err
        mid = (a_k + b_k) / 2
        for corners in zip(_product(np.stack([a_k, mid], axis=1)), _product(np.stack([mid, b_k], axis=1))):
            heapq.heappush(heap, child := box(*corners))
            value, error = value + child[3], error + child[4]
        subdivisions += 1
    if subdivisions == MAX_SUBDIVISIONS or not (np.isfinite(value).all() and np.isfinite(error).all()):
        raise QuadratureError(
            f"cubature over the box {list(a)!r} to {list(b)!r} did not converge (estimate {np.max(error):.3e})"
        )
    return value, error


def integrate_with_boundary(f, a: float, b: float, bounds, tol: float = 1e-10) -> float:
    """Like :func:`integrate`, substituting t = b0 +/- s^2 near a domain bound.

    bounds is the open existence interval (lo, hi) of the integrand; either
    entry may be infinite.  The path [a, b] (a <= b) must lie inside it.
    """
    if a == b:
        return 0.0
    if a > b:
        return -integrate_with_boundary(f, b, a, bounds, tol)
    lo, hi = bounds
    near_lo, near_hi = _in_window(a - lo, lo), _in_window(hi - b, hi)
    if near_lo and near_hi:
        # split at the domain's midpoint: the path's own recurses forever on a domain narrower than the window
        mid = 0.5 * (lo + hi)
        if a < mid < b:
            return integrate_with_boundary(f, a, mid, bounds, 0.5 * tol) + integrate_with_boundary(
                f, mid, b, bounds, 0.5 * tol
            )
        near_lo, near_hi = b <= mid, a >= mid  # then substitute at the nearer bound
    if near_lo:
        # t = lo + s^2, dt = 2 s ds
        sa, sb = math.sqrt(a - lo), math.sqrt(b - lo)
        return integrate(lambda s: 2.0 * s * f(lo + s * s), sa, sb, tol)
    if near_hi:
        # t = hi - s^2, dt = -2 s ds; reversing limits keeps the sign
        sa, sb = math.sqrt(hi - b), math.sqrt(hi - a)
        return integrate(lambda s: 2.0 * s * f(hi - s * s), sa, sb, tol)
    return integrate(f, a, b, tol)


def gauss_segments(f, a: np.ndarray, b: np.ndarray, bounds) -> list[np.ndarray]:
    """Fixed 12-point Gauss-Legendre integrals over the segments [a_i, b_i] (a_i <= b_i) at once.

    Used for incremental accumulation along profile curves, where the
    per-segment truncation error must sit far below adaptive tolerances.
    f maps an (n, 12) array of nodes to a tuple of integrand arrays (scalars
    broadcast) and returns one array of n integrals per integrand.  A
    segment in the boundary window of the open interval ``bounds`` = (lo, hi)
    is integrated in s, with t = lo + s^2 (tested first) or t = hi - s^2 and
    the values times 2 s.  Each weighted sum runs over the nodes in order
    from 0.0, so a segment's integral does not depend on the batch.
    """
    lo, hi = bounds
    lower = np.zeros(len(a), dtype=bool) | _in_window(a - lo, lo)
    upper = ~lower & _in_window(hi - b, hi)
    x0, x1 = a.copy(), b.copy()
    x0[lower], x1[lower] = np.sqrt(a[lower] - lo), np.sqrt(b[lower] - lo)
    x0[upper], x1[upper] = np.sqrt(hi - b[upper]), np.sqrt(hi - a[upper])
    half = 0.5 * (x1 - x0)
    mid = 0.5 * (x0 + x1)
    nodes = mid[:, None] + half[:, None] * _GL_NODES
    window = np.flatnonzero(lower | upper)
    ds = 2.0 * nodes[window]  # dt = +/- 2 s ds; the s limits are ordered, so the sign is +
    nodes[lower] = lo + nodes[lower] ** 2  # numpy's ** 2 on an array is s * s
    nodes[upper] = hi - nodes[upper] ** 2
    results = []
    for values in f(nodes):
        values = np.broadcast_to(values, nodes.shape)
        if window.size:
            values = values.copy()
            values[window] *= ds
        total = np.zeros(len(nodes))
        for k, w in enumerate(_GL_WEIGHTS):
            total = total + w * values[:, k]
        results.append(half * total)
    return results
