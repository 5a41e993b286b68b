"""Built-in structural identity suite behind the `check` subcommand.

Each check exercises one identity the rest of the toolkit relies on:
group axioms, frame brackets, coframe duality, the Levi-Civita table
(torsion, metric compatibility), the curvature-tensor table, the
adapted-frame identity, the coframe inverse relations, and the Stokes
density identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import catalog
from .hgroup import (
    Point,
    coframe_eval,
    connection_coeff,
    frame_at,
    gl_inner,
    group_inv,
    group_mul,
    riemann_component,
    volume_form,
)
from .gaussbonnet import stokes_density_check
from .surface import frame_data, structure_identity_residual, xl_basis

__all__ = ["CheckResult", "run_identity_suite"]

SEED = 20260808  # the suite's random sample points


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_points(rng, n, span=10.0):
    return [Point(*(rng.uniform(-span, span, 3))) for _ in range(n)]


def _check_group(rng) -> CheckResult:
    worst = 0.0
    for _ in range(200):
        p, q, r = _random_points(rng, 3)
        lhs = group_mul(group_mul(p, q), r)
        rhs = group_mul(p, group_mul(q, r))
        worst = max(worst, float(np.max(np.abs(lhs.as_array() - rhs.as_array()))))
        ident = group_mul(p, group_inv(p))
        worst = max(worst, float(np.max(np.abs(ident.as_array()))))
        same = group_mul(p, Point(0.0, 0.0, 0.0))
        worst = max(worst, float(np.max(np.abs(same.as_array() - p.as_array()))))
    return CheckResult("group axioms", worst <= 1e-12, f"max residual {worst:.3e}")


def _bracket_fd(field_a, field_b, p: Point, h: float = 1e-6) -> np.ndarray:
    """[X, Y] by centered differencing of the coordinate coefficient fields."""

    def jacobian(field):
        J = np.zeros((3, 3))
        base = p.as_array()
        for j in range(3):
            step = np.zeros(3)
            step[j] = h
            plus = field(Point(*(base + step)))
            minus = field(Point(*(base - step)))
            J[:, j] = (plus - minus) / (2.0 * h)
        return J

    Ja, Jb = jacobian(field_a), jacobian(field_b)
    return Jb @ field_a(p) - Ja @ field_b(p)


def _check_brackets(rng) -> CheckResult:
    fields = {
        1: lambda p: frame_at(p)[0],
        2: lambda p: frame_at(p)[1],
        3: lambda p: frame_at(p)[2],
    }
    worst = 0.0
    for _ in range(10):
        p = _random_points(rng, 1)[0]
        e3 = frame_at(p)[2]
        worst = max(worst, float(np.max(np.abs(_bracket_fd(fields[1], fields[2], p) - e3))))
        worst = max(worst, float(np.max(np.abs(_bracket_fd(fields[3], fields[1], p)))))
        worst = max(worst, float(np.max(np.abs(_bracket_fd(fields[3], fields[2], p)))))
    return CheckResult("frame brackets", worst <= 1e-8, f"max residual {worst:.3e}")


def _check_duality(rng) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        p = _random_points(rng, 1)[0]
        frame = frame_at(p)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                value = coframe_eval(i, p, frame[j - 1])
                worst = max(worst, abs(value - (1.0 if i == j else 0.0)))
        worst = max(worst, abs(volume_form(p, *np.eye(3)) - 1.0))
    return CheckResult("coframe duality and volume", worst <= 1e-14, f"max residual {worst:.3e}")


def _check_torsion(rng) -> CheckResult:
    worst = 0.0
    for L in (1.0, 10.0, 100.0):
        root = math.sqrt(L)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                diff = connection_coeff(L, i, j) - connection_coeff(L, j, i)
                bracket = np.zeros(3)
                if (i, j) == (1, 2):
                    bracket[2] = root
                elif (i, j) == (2, 1):
                    bracket[2] = -root
                worst = max(worst, float(np.max(np.abs(diff - bracket))))
    return CheckResult("torsion-free connection", worst <= 1e-14, f"max residual {worst:.3e}")


def _check_metric_compat(rng) -> CheckResult:
    # d<e_j, e_k> = 0 along frame directions, so <D e_j, e_k> + <e_j, D e_k> = 0.
    worst = 0.0
    for L in (1.0, 10.0, 100.0):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    lhs = connection_coeff(L, i, j)[k - 1] + connection_coeff(L, i, k)[j - 1]
                    worst = max(worst, abs(lhs))
    return CheckResult("metric compatibility", worst <= 1e-14, f"max residual {worst:.3e}")


def _check_curvature_table(rng) -> CheckResult:
    worst = 0.0
    table = {
        (1, 2, 1, 2): 0.75,
        (1, 3, 1, 3): -0.25,
        (2, 3, 2, 3): -0.25,
    }
    for L in (1.0, 10.0, 100.0):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    for l in (1, 2, 3):
                        value = riemann_component(L, i, j, k, l) / L
                        expected = 0.0
                        for (a, b, c, d), coeff in table.items():
                            if (i, j, k, l) in (
                                (a, b, c, d),
                                (b, a, d, c),
                                (c, d, a, b),
                                (d, c, b, a),
                            ):
                                expected = coeff
                            elif (i, j, k, l) in (
                                (b, a, c, d),
                                (a, b, d, c),
                                (d, c, a, b),
                                (c, d, b, a),
                            ):
                                expected = -coeff
                        worst = max(worst, abs(value - expected))
    return CheckResult("curvature tensor table", worst <= 1e-12, f"max residual {worst:.3e}")


def _identity_surfaces():
    return [
        (catalog.plane(), (0.0, 2.0 * math.pi), (0.5, 3.0)),
        (catalog.cylinder(), (0.0, 2.0 * math.pi), (-2.0, 2.0)),
        (catalog.paraboloid(), (0.4, 1.9), (0.4, 1.9)),
        (catalog.constant_curvature(1.0), (0.0, 2.0 * math.pi), (-1.2, 1.2)),
        (catalog.constant_curvature(0.0), (0.0, 2.0 * math.pi), (0.3, 2.0)),
        (catalog.constant_curvature(-1.0), (0.0, 2.0 * math.pi), (-1.9, 1.9)),
    ]


def _check_frame_identity(rng) -> CheckResult:
    worst = 0.0
    for patch, u_span, v_span in _identity_surfaces():
        for _ in range(12):
            u = rng.uniform(*u_span)
            v = rng.uniform(*v_span)
            sample, fd = frame_data(patch, u, v)
            worst = max(worst, abs(structure_identity_residual(fd, sample.A)))
    return CheckResult("adapted-frame identity", worst <= 1e-6, f"max residual {worst:.3e}")


def _check_inverse_relations(rng) -> CheckResult:
    # e^1 = cos(a) f^1 - sin(a) f^2 + A cos(a) f^3 and cyclic variants.
    patch = catalog.plane()
    worst = 0.0
    for _ in range(20):
        u = rng.uniform(0.0, 2.0 * math.pi)
        v = rng.uniform(0.5, 3.0)
        s = frame_data(patch, u, v)[0]
        p = s.point
        ca, sa = math.cos(s.alpha), math.sin(s.alpha)
        for _ in range(4):
            w = rng.uniform(-2.0, 2.0, 3)
            f1w = ca * coframe_eval(1, p, w) + sa * coframe_eval(2, p, w) - s.A * coframe_eval(3, p, w)
            f2w = -sa * coframe_eval(1, p, w) + ca * coframe_eval(2, p, w)
            f3w = coframe_eval(3, p, w)
            e1w = ca * f1w - sa * f2w + s.A * ca * f3w
            e2w = sa * f1w + ca * f2w + s.A * sa * f3w
            worst = max(worst, abs(e1w - coframe_eval(1, p, w)))
            worst = max(worst, abs(e2w - coframe_eval(2, p, w)))
            worst = max(worst, abs(f3w - coframe_eval(3, p, w)))
    return CheckResult("coframe inverse relations", worst <= 1e-12, f"max residual {worst:.3e}")


def _check_stokes(rng) -> CheckResult:
    # The Cartesian chart keeps the density non-constant, so the midpoint
    # error is visible and must fall at second order.
    patch = catalog.plane_cartesian()
    ratios = []
    for h in (2e-2, 1e-2, 5e-3):
        lhs, rhs = stokes_density_check(patch, 1.0, 0.0, h)
        ratios.append(abs(lhs - rhs) / (h * h))
    falling = ratios[0] >= 2.0 * ratios[1] and ratios[1] >= 2.0 * ratios[2]
    return CheckResult(
        "Stokes density identity",
        falling,
        "|lhs-rhs|/h^2 = " + ", ".join(f"{r:.3e}" for r in ratios),
    )


def _check_orthonormality(rng) -> CheckResult:
    patch = catalog.constant_curvature(-1.0)
    worst = 0.0
    for _ in range(10):
        u = rng.uniform(0.0, 2.0 * math.pi)
        v = rng.uniform(-1.8, 1.8)
        s = frame_data(patch, u, v)[0]
        for L in (1.0, 25.0):
            basis = xl_basis(s, L)
            for i, x in enumerate(basis):
                for j, y in enumerate(basis):
                    want = 1.0 if i == j else 0.0
                    worst = max(worst, abs(gl_inner(x, y, L) - want))
    return CheckResult("g_L orthonormal basis", worst <= 1e-12, f"max residual {worst:.3e}")


def run_identity_suite() -> list[CheckResult]:
    rng = np.random.default_rng(SEED)
    checks = [
        _check_group,
        _check_brackets,
        _check_duality,
        _check_torsion,
        _check_metric_compat,
        _check_curvature_table,
        _check_frame_identity,
        _check_inverse_relations,
        _check_orthonormality,
        _check_stokes,
    ]
    return [check(rng) for check in checks]
