"""Batches of points: numpy arrays that reproduce the scalar code bit for bit.

The library evaluates a batch of points as one-dimensional numpy arrays
through the same code that evaluates one point as Python floats.  IEEE
``+ - * /`` and ``sqrt`` give the same bits either way.  Transcendental
functions, ``**``, ``math.hypot`` and ``math.atan2`` do not: numpy's cosh,
tanh, tan, hypot and arctan2 differ from libm in the last bit on part of
their inputs (numpy 2.4, AVX-512), and numpy's array ``** 2`` is d*d where
a Python float's is libm pow (they differ on about 1,720 of 2 million
random doubles, uniform or log-uniform).  On arrays these go through
``elementwise``, which maps the scalar call over the elements, so every
output is independent of how its points are batched.  Only exponents
other than 0 and 1 reach libm: at those two ``power`` and the expression
power give pow's values exactly without a call per element.

The rule is to map only the transcendental call.  A formula such as
``r0 * sqrt(max(cos(k * t), 0))`` maps ``cos`` alone and keeps ``*``,
``sqrt`` and ``max`` as numpy operations on the whole array: these round
correctly and so give the scalar bits, at a fraction of the cost of a
Python call per element.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import GeometryError

__all__ = ["elementwise", "power", "first_failure"]

# what the per-point code raises at a point it cannot evaluate
POINT_FAILURES = (ValueError, ArithmeticError, GeometryError)


def elementwise(f, x, *rest):
    """f(x, *rest); on arrays, the scalar f mapped over the broadcast elements."""
    if not rest:
        if isinstance(x, np.ndarray):
            return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)
        return f(x)
    args = (x, *rest)
    for a in args:  # a loop, not any() over a generator: floats are the hot case
        if isinstance(a, np.ndarray):
            break
    else:
        return f(*args)
    shape = np.broadcast(*args).shape
    columns = [
        (b if b.shape == shape else np.broadcast_to(b, shape)).ravel().tolist()
        if isinstance(b, np.ndarray)
        else itertools.repeat(b)
        for b in args
    ]
    return np.fromiter(map(f, *columns), float, math.prod(shape)).reshape(shape)


def power(x, p):
    """x ** p, with Python's float power (libm pow) element by element on arrays.

    On arrays, exponents 0 and 1 skip libm and give pow's values exactly:
    pow(x, 0) is 1, NaN included, and pow(x, 1) is x, -0.0 included.
    """
    if type(x) is not np.ndarray:
        return x ** p
    if p == 0 or p == 1:
        return np.ones(x.shape) if p == 0 else x.astype(float)
    return elementwise(pow, x, float(p))  # float ** int converts the int on every element: the same bits, slower


def first_failure(evaluate, n: int):
    """evaluate(0, n), failing as a scan of the n points in order would.

    evaluate(lo, hi) runs the points lo .. hi-1 as one batch.  It raises
    when any of them fails, and on a single point it raises what the
    per-point code raises there.  When the whole batch fails, bisection over
    prefixes finds the first failing point, and that point's error is raised.
    """
    try:
        return evaluate(0, n)
    except POINT_FAILURES as exc:
        error = exc
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            evaluate(0, mid + 1)
        except POINT_FAILURES:
            hi = mid
        else:
            lo = mid + 1
    evaluate(lo, lo + 1)
    raise error
