"""Adaptive quadrature wrappers with square-root boundary substitution.

Profile integrals use scipy's QUADPACK Gauss-Kronrod rule, surface
integrals its vectorized Gauss-Kronrod cubature, each behind a small
wrapper that checks the reported error estimate.  Profile integrands of
the form g(t)*sqrt(h(t)), with h vanishing simply at a domain endpoint,
lose accuracy for the plain rule; substituting t = b0 +/- s^2 near that
endpoint makes the integrand smooth again.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate as _si

from .errors import QuadratureError

__all__ = [
    "integrate",
    "cubature",
    "integrate_with_boundary",
    "gauss_segment",
    "gauss_segments",
]

BOUNDARY_WINDOW = 1e-4  # switch to the sqrt substitution within this distance of a bound

CUBATURE_RULE = "gk21"  # product Gauss-Kronrod, 21 nodes per axis
MAX_SUBDIVISIONS = 200  # as QUADPACK's limit in integrate

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _in_window(distance, bound):
    """Whether a distance (float or array) from a finite domain bound lies in its boundary window."""
    return math.isfinite(bound) and distance < BOUNDARY_WINDOW * max(1.0, abs(bound))


def integrate(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive integral of f over [a, b] to absolute tolerance tol."""
    if a == b:
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _si.IntegrationWarning)
        value, err = _si.quad(f, a, b, epsabs=tol, epsrel=max(tol, 1e-13), limit=200)
    if not math.isfinite(value) or err > max(100.0 * tol, 1e-8 * abs(value)):
        raise QuadratureError(
            f"integral over [{a!r}, {b!r}] did not converge (estimate {err:.3e})"
        )
    return value


def cubature(f, a, b, tol: float):
    """Adaptive cubature of a vectorized f over the box [a, b]: (values, error estimates).

    f maps an (n, ndim) array of nodes to an (n, ...) array of values, each
    component integrated to the absolute tolerance tol.  QuadratureError if
    that takes more than MAX_SUBDIVISIONS or a result is not finite.
    """
    result = _si.cubature(f, a, b, rule=CUBATURE_RULE, rtol=0.0, atol=tol, max_subdivisions=MAX_SUBDIVISIONS)
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
        mid = 0.5 * (a + b)
        return integrate_with_boundary(f, a, mid, bounds, 0.5 * tol) + integrate_with_boundary(
            f, mid, b, bounds, 0.5 * tol
        )
    if near_lo:
        # t = lo + s^2, dt = 2 s ds
        sa, sb = math.sqrt(a - lo), math.sqrt(b - lo)
        return integrate(lambda s: 2.0 * s * f(lo + s * s), sa, sb, tol)
    if near_hi:
        # t = hi - s^2, dt = -2 s ds; reversing limits keeps the sign
        sa, sb = math.sqrt(hi - b), math.sqrt(hi - a)
        return integrate(lambda s: 2.0 * s * f(hi - s * s), sa, sb, tol)
    return integrate(f, a, b, tol)


def gauss_segment(f, a: float, b: float, bounds=None) -> float:
    """Fixed 12-point Gauss-Legendre integral over a short segment.

    Used for incremental accumulation along profile curves, where the
    per-segment truncation error must sit far below adaptive tolerances.
    Applies the sqrt substitution when the segment touches the boundary
    window of the open interval ``bounds``.
    """
    if a == b:
        return 0.0
    if a > b:
        return -gauss_segment(f, b, a, bounds)
    if bounds is not None:
        lo, hi = bounds
        if _in_window(a - lo, lo):
            sa, sb = math.sqrt(a - lo), math.sqrt(b - lo)
            return gauss_segment(lambda s: 2.0 * s * f(lo + s * s), sa, sb)
        if _in_window(hi - b, hi):
            sa, sb = math.sqrt(hi - b), math.sqrt(hi - a)
            return gauss_segment(lambda s: 2.0 * s * f(hi - s * s), sa, sb)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * float(sum(w * f(mid + half * x) for x, w in zip(_GL_NODES, _GL_WEIGHTS)))


def gauss_segments(f, a: np.ndarray, b: np.ndarray, bounds) -> list[np.ndarray]:
    """:func:`gauss_segment` over the segments [a_i, b_i] (a_i <= b_i) at once.

    f maps an (n, 12) array of nodes to a tuple of integrand arrays (scalars
    broadcast) and returns one array of n integrals per integrand.  Weighted
    sums run over the nodes in gauss_segment's order, so each integral is
    gauss_segment's to the last bit.  Segments in the boundary window of
    ``bounds`` go through gauss_segment and its square-root substitution.
    """
    lo, hi = bounds
    window = np.zeros(len(a), dtype=bool) | _in_window(a - lo, lo) | _in_window(hi - b, hi)
    inner = ~window
    half = 0.5 * (b[inner] - a[inner])
    mid = 0.5 * (a[inner] + b[inner])
    nodes = mid[:, None] + half[:, None] * _GL_NODES
    results = []
    for values in f(nodes):
        values = np.broadcast_to(values, nodes.shape)
        total = np.zeros(len(nodes))
        for k, w in enumerate(_GL_WEIGHTS):
            total = total + w * values[:, k]
        out = np.empty(len(a))
        out[inner] = half * total
        results.append(out)
    for i in np.flatnonzero(window).tolist():
        for j, out in enumerate(results):
            out[i] = gauss_segment(lambda t: f(t)[j], float(a[i]), float(b[i]), bounds)
    return results

