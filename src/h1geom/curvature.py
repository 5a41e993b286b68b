"""Curvature and measure quantities for surfaces and transverse curves.

For a surface with adapted frame data (A, alpha) the Gaussian curvature
of the approximating metric g_L is

    K_L = L/(L+A^2)^2 * (dalpha ^ dA)(f3, f2)
        - L^2/(L+A^2)^2 * dA(f2) - L/(L+A^2) * A^2,

with limit K_inf = -dA(f2) - A^2 as L -> infinity.  The Gauss-map
curvature K = (dalpha ^ dA)(f3, f2) appears inside K_L as the term that
dies in the limit, which is why the two notions differ.

Transverse curves (tangent a*f2 + b*f3 with b != 0) carry the normal
curvature k_n_L of g_L and its limit k_n = A * sign(b).  Area and length
elements scale like sqrt(L); only the 1/sqrt(L)-rescaled versions have
limits (f^2^f^3 and sign(b) f^3, the Hausdorff forms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batch import elementwise, power
from .errors import GeometryError, NonTransverseError
from .hgroup import _as_L
from .surface import FrameDerivatives

__all__ = [
    "TransverseCurveSample",
    "k_L",
    "k_inf",
    "k_gauss_map",
    "k_n_L",
    "k_n",
    "area_form_coeffs",
    "length_form_limit",
    "ds_L_density",
]


def k_L(fd: FrameDerivatives, A: float, L: float) -> float:
    """Gaussian curvature of the surface in the metric g_L (A and fd may hold arrays)."""
    L = _as_L(L)
    den = L + A * A
    try:
        den2 = power(den, 2)
    except OverflowError:
        raise GeometryError(f"K_L at L = {L!r}: (L + A^2)^2 overflows the float range") from None
    return L / den2 * k_gauss_map(fd) - L * L / den2 * fd.dA_f2 - L / den * A * A


def k_inf(fd: FrameDerivatives, A: float) -> float:
    """Limit curvature -dA(f2) - A^2; depends on A alone."""
    return -fd.dA_f2 - A * A


def k_gauss_map(fd: FrameDerivatives) -> float:
    """Gauss-map curvature (dalpha ^ dA)(f3, f2)."""
    return fd.dalpha_f3 * fd.dA_f2 - fd.dalpha_f2 * fd.dA_f3


@dataclass(frozen=True)
class TransverseCurveSample:
    """Per-point data for a curve with tangent a*f2 + b*f3, b != 0 (all but t may be arrays)."""

    t: float
    a: float
    b: float
    da_dt: float
    db_dt: float
    dA_dt: float
    A: float
    dalpha_f2: float
    dalpha_f3: float

    def __post_init__(self):
        if np.any(self.b == 0.0):
            raise NonTransverseError(f"curve tangent has no f3 component at t={self.t!r}")


def k_n_L(c: TransverseCurveSample, L: float) -> float:
    """Normal curvature of the curve in g_L (four-term assembled formula).

    The terms are, in order: the (a, b) rotation rate, and the dalpha(f2),
    dalpha(f3) and sqrt(L)-tilt contributions of the frame rotation; the
    last one survives the limit, giving k_n = A*sign(b).

    The rotation-rate term reads da/dt, db/dt in the curve's own
    parameterization; the value equals <D_T T, N>_L exactly when the curve
    has unit g_L speed at the point (the classical normalization).  The
    other three terms, and the L -> infinity limit, are parameterization
    independent.
    """
    L = _as_L(L)
    A = c.A
    m = L + A * A
    root_m = elementwise(math.sqrt, m)
    q = elementwise(math.sqrt, c.a * c.a + c.b * c.b * m)
    turn = _turn(c, L)
    term2 = -(A / root_m) * (c.a / q) * c.dalpha_f2
    term3 = -(A * c.b) / (root_m * q) * c.dalpha_f3
    term4 = L * A * c.b / (root_m * q)
    return turn + term2 + term3 + term4


def _turn(c: TransverseCurveSample, L: float) -> float:
    """The (a, b) rotation-rate term of k_n_L, per unit of the curve's own parameter."""
    A = c.A
    m = L + A * A
    return (c.a * c.b * A * c.dA_dt + (c.a * c.db_dt - c.b * c.da_dt) * m) / (
        elementwise(math.sqrt, m) * (c.a * c.a + c.b * c.b * m)
    )


def k_n(A: float, b: float) -> float:
    """Limit normal curvature A * sign(b)."""
    if b == 0.0:
        raise NonTransverseError("limit normal curvature needs b != 0")
    return A * math.copysign(1.0, b)


def area_form_coeffs(A: float, L: float) -> tuple[float, float]:
    """Coefficients of f^2^f^3 in the g_L area form and its rescaled limit.

    Returns (sqrt(L+A^2), 1.0); the unrescaled coefficient diverges like
    sqrt(L) while (1/sqrt(L)) * dsigma_L tends to the Hausdorff form.
    """
    L = _as_L(L)
    return math.sqrt(L + A * A), 1.0


def length_form_limit(b: float) -> float:
    """Coefficient sign(b) of f^3 in the Hausdorff length form of the curve."""
    if b == 0.0:
        raise NonTransverseError("length form limit needs b != 0")
    return math.copysign(1.0, b)


def ds_L_density(c: TransverseCurveSample, L: float) -> float:
    """f^3 coefficient b_L * sqrt(L+A^2) of the raw g_L length element.

    Grows like sqrt(L), so the unrescaled length element has no limit;
    (1/sqrt(L)) * ds_L_density tends to sign(b), the Hausdorff coefficient.
    """
    L = _as_L(L)
    A = c.A
    m = L + A * A
    b_L = c.b * math.sqrt(m) / math.sqrt(c.a * c.a + c.b * c.b * m)
    return b_L * math.sqrt(m)


def _transverse(sample, fd, tangents, direction) -> TransverseCurveSample:
    """Curve data at t = 0 on the parameter line t -> (u + t*du, v + t*dv), direction (du, dv).

    sample, fd and tangents are frame_tangents(S, u, v).  The (f2, f3)
    components (a, b) of gamma' = du*f_u + dv*f_v and their t-derivatives
    are exact: the frame's tangent coefficients are duals carrying their
    gradients in (u, v).  dA/dt = a*dA(f2) + b*dA(f3).  u, v, du and dv may
    be arrays, a batch of points and lines.
    """
    (p1, q1), (p2, q2) = tangents
    du, dv = direction
    a = du * p1 + dv * p2
    b = du * q1 + dv * q2
    return TransverseCurveSample(
        t=0.0, a=a.value, b=b.value, da_dt=du * a.d_u + dv * a.d_v, db_dt=du * b.d_u + dv * b.d_v,
        dA_dt=a.value * fd.dA_f2 + b.value * fd.dA_f3, A=sample.A, dalpha_f2=fd.dalpha_f2, dalpha_f3=fd.dalpha_f3,
    )
