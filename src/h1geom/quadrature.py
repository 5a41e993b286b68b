"""Adaptive quadrature wrappers with square-root boundary substitution.

Profile integrals use scipy's QUADPACK Gauss-Kronrod rule, surface
integrals its vectorized Gauss-Kronrod cubature, each behind a small
wrapper that checks the reported error estimate.  Profile integrands of
the form g(t)*sqrt(h(t)), with h vanishing simply at a domain endpoint,
lose accuracy for the plain rule; substituting t = b0 +/- s^2 near that
endpoint makes the integrand smooth again.

scipy.integrate is imported by _load_scipy when the first integral is
taken, not with this module: its import (which pulls in scipy.optimize,
sparse, spatial, special, linalg and fft) costs about 0.4 s, two thirds of
a fresh `import h1geom.cli`, and the curvature formulas, the grid commands
on graph and parametric charts and a configuration error need no
integral.  A PEP 562 module __getattr__ runs the same loader when _si or
_GK21 is first read from outside; after that both are plain globals.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import QuadratureError

__all__ = [
    "integrate",
    "cubature",
    "integrate_with_boundary",
    "gauss_segments",
]

BOUNDARY_WINDOW = 1e-4  # switch to the sqrt substitution within this distance of a bound

MAX_SUBDIVISIONS = 200  # QUADPACK's interval limit in integrate, cubature's box limit

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


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
    _load_scipy()
    value, err = _si.quad(f, a, b, epsabs=tol, epsrel=max(tol, 1e-13), limit=MAX_SUBDIVISIONS, full_output=1)[:2]
    if not math.isfinite(value) or err > max(100.0 * tol, 1e-8 * abs(value)):
        raise QuadratureError(
            f"integral over [{a!r}, {b!r}] did not converge (estimate {err:.3e})"
        )
    return value


@functools.cache
def _load_scipy() -> None:
    """Import scipy.integrate and build the cubature rule on the first integral; bind them as _si and _GK21.

    Runs once per process: later calls return at once and leave both
    globals as they are, so a patched _GK21 is the rule cubature passes on.
    """
    global _si, _GK21  # so the import and the class statement below bind module globals
    from scipy import integrate as _si
    from scipy.integrate._rules import GaussKronrodQuadrature, ProductNestedFixed

    class _GK21(ProductNestedFixed):
        """scipy's product Gauss-Kronrod rule gk21, calling the integrand once per box.

        scipy's cubature asks every box for estimate, over the 21^d Kronrod
        nodes, and then for estimate_error, over those nodes followed by the
        embedded 10^d Gauss nodes.  Here estimate runs the error rule on a
        wrapper that keeps f's values, feeds their Kronrod head to the
        estimate, and leaves the error for estimate_error on the same box.
        Every weighted sum runs over the same values in the same order as
        scipy's own rule="gk21".  One instance serves one cubature call and
        holds that call's stash; the product nodes and weights of each
        dimension are built once, by its first instance, and shared.
        """

        _built = {}  # ndim -> (nodes_and_weights, lower_nodes_and_weights, xp)

        def __init__(self, ndim: int):
            super().__init__([GaussKronrodQuadrature(21)] * ndim)
            if ndim not in self._built:
                self._built[ndim] = (self.nodes_and_weights, self.lower_nodes_and_weights, self.xp)
            # instance attributes shadow scipy's cached properties
            self.nodes_and_weights, self.lower_nodes_and_weights, self.xp = self._built[ndim]
            self._stash = None

        def estimate(self, f, a, b, args=()):
            kept = []

            def keep(x, *args):
                values = f(x, *args)
                kept.append((x, values))
                return values

            error = super().estimate_error(keep, a, b, args)
            (x_all, values), = kept
            n = len(self.nodes_and_weights[0])

            def head(x, *args):
                if not np.array_equal(x, x_all[:n]):
                    raise RuntimeError("gk21 estimate nodes differ from the head of the error nodes")
                return values[:n]

            estimate = super().estimate(head, a, b, args)
            self._stash = (f, a, b, error)
            return estimate

        def estimate_error(self, f, a, b, args=()):
            stash, self._stash = self._stash, None
            if stash is None or stash[0] is not f or stash[1] is not a or stash[2] is not b:
                raise RuntimeError("gk21 estimate_error called without estimate on the same box")
            return stash[3]


def __getattr__(name):
    # PEP 562: the first read of _si or _GK21 from outside loads them
    if name in ("_si", "_GK21"):
        _load_scipy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cubature(f, a, b, tol: float):
    """Adaptive cubature of a vectorized f over the box [a, b]: (values, error estimates).

    f maps an (n, ndim) array of nodes to an (n, ...) array of values, each
    component integrated to the absolute tolerance tol or to 1e-13 relative.
    scipy's adaptive loop runs the product 21-point Gauss-Kronrod rule,
    with results bit for bit those of rule="gk21", but f is called once per
    box: over its 21^ndim Kronrod nodes followed by the 10^ndim embedded
    Gauss nodes, 1 + 2^ndim * subdivisions calls in all.
    QuadratureError if that takes more than MAX_SUBDIVISIONS or a result is
    not finite.
    """
    _load_scipy()
    result = _si.cubature(f, a, b, rule=_GK21(len(a)), rtol=1e-13, atol=tol, max_subdivisions=MAX_SUBDIVISIONS)
    value, error = result.estimate, result.error
    if result.status != "converged" or not (np.isfinite(value).all() and np.isfinite(error).all()):
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
