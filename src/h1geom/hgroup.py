"""Exponential-coordinate model of the first Heisenberg group.

The group is R^3 with multiplication twisted by the planar area form,

    (x1,y1,z1) * (x2,y2,z2) = (x1+x2, y1+y2, z1+z2 + (x1*y2 - x2*y1)/2),

carrying the left-invariant frame

    e1 = d/dx - (y/2) d/dz,   e2 = d/dy + (x/2) d/dz,   e3 = d/dz,

with [e1,e2] = e3 and [e3,e1] = [e3,e2] = 0.  The dual coframe is
e^1 = dx, e^2 = dy, e^3 = dz + (y dx - x dy)/2.  For a metric parameter
L > 0, g_L is the metric making (e1, e2, e3/sqrt(L)) orthonormal.

Index convention: in the connection and curvature tables the index 3
always denotes the normalized vector e3^L = e3/sqrt(L), matching the
orthonormal g_L frame: a vector's coefficients on it are those on the
raw frame (e1, e2, e3) with the third multiplied by sqrt(L).

Curvature sign convention: ``riemann_component(L, i, j, k, l)`` returns
<R(e_i, e_j) e_k, e_l>_L with R(X,Y)Z = D_X D_Y Z - D_Y D_X Z - D_[X,Y] Z.
With that slot assignment the non-zero components are
R_1212 = 3L/4 and R_1313 = R_2323 = -L/4 (plus their symmetry images).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError

__all__ = [
    "Point",
    "FrameVec",
    "group_mul",
    "group_inv",
    "frame_at",
    "coframe_eval",
    "e3_coefficient",
    "volume_form",
    "gl_inner",
    "connection_coeff",
    "riemann_component",
]


def _check_finite(record, names, message: str) -> None:
    """Raise NonFiniteError(message) at the first named field, a float or an
    array, that is not finite; message gets the field's name and value (an
    array's first non-finite element)."""
    for name in names:
        x = getattr(record, name)
        if math.isfinite(x) if type(x) is float else np.all(np.isfinite(x)):
            continue
        if np.ndim(x):
            x = float(x[~np.isfinite(x)][0])
        raise NonFiniteError(message.format(name=name, value=x))


@dataclass(frozen=True)
class Point:
    """A point of the group in exponential coordinates: floats, or 1-D arrays for a batch."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        _check_finite(self, ("x", "y", "z"), "non-finite coordinate {name}={value!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


def _as_L(L) -> float:
    value = float(L)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"metric parameter must be finite and positive, got {L!r}")
    return value


@dataclass(frozen=True)
class FrameVec:
    """A tangent vector: coefficients, floats or 1-D arrays, on the left-invariant frame (e1, e2, e3)."""

    base: Point
    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        _check_finite(self, ("c1", "c2", "c3"), "non-finite frame coefficient {name}")

    @classmethod
    def from_coordinates(cls, base: Point, vec) -> "FrameVec":
        """The vector with coordinate components vec = (vx, vy, vz); c3 is e^3 applied to it."""
        vx, vy, vz = vec
        return cls(base, vx, vy, e3_coefficient(base.x, base.y, vx, vy, vz))


def e3_coefficient(x, y, vx, vy, vz):
    """e^3 at a point with coordinates (x, y, .) applied to the vector (vx, vy, vz).

    Plain arithmetic, so the arguments may be floats or dual numbers.
    """
    return vz + 0.5 * (y * vx - x * vy)


def group_mul(p: Point, q: Point) -> Point:
    return Point(
        p.x + q.x,
        p.y + q.y,
        p.z + q.z + 0.5 * (p.x * q.y - q.x * p.y),
    )


def group_inv(p: Point) -> Point:
    # The z-term of the product cancels by antisymmetry, so negation inverts.
    return Point(-p.x, -p.y, -p.z)


def frame_at(p: Point):
    """Coordinate components of (e1, e2, e3) at p: rows of arrays on a batch."""
    one, zero, x, y = np.broadcast_arrays(1.0, 0.0, p.x, p.y)
    return np.array([one, zero, -0.5 * y]), np.array([zero, one, 0.5 * x]), np.array([zero, zero, one])


def coframe_eval(index: int, p: Point, vec) -> float:
    """Apply e^index at p to a coordinate-basis vector; one point only."""
    vx, vy, vz = (float(vec[0]), float(vec[1]), float(vec[2]))
    if index == 1:
        return vx
    if index == 2:
        return vy
    if index == 3:
        return e3_coefficient(p.x, p.y, vx, vy, vz)
    raise ValueError(f"coframe index must be 1, 2 or 3, got {index}")


def volume_form(p: Point, v1, v2, v3) -> float:
    """e^1 ^ e^2 ^ e^3 applied to three coordinate vectors (equals dx^dy^dz)."""
    rows = [[coframe_eval(i, p, v) for v in (v1, v2, v3)] for i in (1, 2, 3)]
    return float(np.linalg.det(np.array(rows)))


def gl_inner(u: FrameVec, v: FrameVec, L) -> float:
    """g_L scalar product: u1*v1 + u2*v2 + L*u3*v3 on raw frame coefficients."""
    if not np.array_equal(u.base.as_array(), v.base.as_array()):
        raise ValueError("frame vectors based at different points")
    return u.c1 * v.c1 + u.c2 * v.c2 + _as_L(L) * u.c3 * v.c3


def _check_index(i: int):
    if i not in (1, 2, 3):
        raise ValueError(f"frame index must be 1, 2 or 3, got {i}")


def connection_coeff(L, i: int, j: int) -> np.ndarray:
    """Coefficients of D_{e_i} e_j on (e1, e2, e3^L), index 3 meaning e3^L.

    Reproduces the Levi-Civita table of g_L: the only non-zero derivatives are

        D_{e1} e2 =  (s/2) e3^L     D_{e1} e3^L = -(s/2) e2
        D_{e2} e1 = -(s/2) e3^L     D_{e2} e3^L =  (s/2) e1
        D_{e3^L} e1 = -(s/2) e2     D_{e3^L} e2 =  (s/2) e1

    with s = sqrt(L).
    """
    _check_index(i)
    _check_index(j)
    half = 0.5 * math.sqrt(_as_L(L))
    table = {
        (1, 2): (0.0, 0.0, half),
        (1, 3): (0.0, -half, 0.0),
        (2, 1): (0.0, 0.0, -half),
        (2, 3): (half, 0.0, 0.0),
        (3, 1): (0.0, -half, 0.0),
        (3, 2): (half, 0.0, 0.0),
    }
    return np.array(table.get((i, j), (0.0, 0.0, 0.0)))


def _bracket_gl(L, i: int, j: int) -> np.ndarray:
    """[e_i, e_j] expanded on (e1, e2, e3^L); only [e1,e2] = sqrt(L) e3^L survives."""
    if (i, j) == (1, 2):
        return np.array([0.0, 0.0, math.sqrt(_as_L(L))])
    if (i, j) == (2, 1):
        return np.array([0.0, 0.0, -math.sqrt(_as_L(L))])
    return np.zeros(3)


def _nabla(L, i: int, coeffs: np.ndarray) -> np.ndarray:
    """D_{e_i} applied to a constant-coefficient field sum_m coeffs[m] e_m."""
    out = np.zeros(3)
    for m in (1, 2, 3):
        c = coeffs[m - 1]
        if c != 0.0:
            out += c * connection_coeff(L, i, m)
    return out


def riemann_component(L, i: int, j: int, k: int, l: int) -> float:
    """<R(e_i, e_j) e_k, e_l>_L computed from the connection table and brackets."""
    for idx in (i, j, k, l):
        _check_index(idx)
    ek = np.zeros(3)
    ek[k - 1] = 1.0
    term1 = _nabla(L, i, _nabla(L, j, ek))
    term2 = _nabla(L, j, _nabla(L, i, ek))
    bracket = _bracket_gl(L, i, j)
    term3 = np.zeros(3)
    for m in (1, 2, 3):
        if bracket[m - 1] != 0.0:
            term3 += bracket[m - 1] * _nabla(L, m, ek)
    result = term1 - term2 - term3
    return float(result[l - 1])
