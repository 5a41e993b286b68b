"""Shared test utilities: random expression corpus, FD oracles (expression
partials, frame derivatives and transverse curve derivatives) and the scalar
reference implementations of the generating-curve sampler, the OBJ and CSV
writers, the curvature and frames grids, the Gauss-Bonnet prescans and the
Gauss-Bonnet integrals."""

import math
import warnings
from pathlib import Path

import numpy as np
from scipy import integrate as si

from h1geom import expr as ex
from h1geom.curvature import TransverseCurveSample, k_gauss_map, k_inf, k_L, k_n
from h1geom.errors import (
    CharacteristicPointError,
    DomainViolationError,
    GeometryError,
    NonTransverseError,
    QuadratureError,
)
from h1geom.export import _stamp, fmt
from h1geom.gaussbonnet import TRANSVERSALITY_TOL, _segments
from h1geom.quadrature import gauss_segment
from h1geom.rotsurf import CLAMP, e3_chord_ratio
from h1geom.hgroup import FrameVec, Point
from h1geom.surface import (
    CHARACTERISTIC_TOL,
    FrameDerivatives,
    adapted_frame,
    characteristic_test,
    frame_data,
    pushforward_frame,
)

FUNCS_SAFE = ("sin", "cos", "tanh", "atan", "exp", "sinh", "cosh", "sqrt", "ln", "abs", "tan")


def random_expression(rng, depth=3):
    """Random AST over u, v with bounded depth."""
    roll = rng.random()
    if depth == 0 or roll < 0.30:
        kind = rng.random()
        if kind < 0.45:
            return ex.Num(round(float(rng.uniform(0.1, 2.5)), 3))
        if kind < 0.90:
            return ex.Var("u" if rng.random() < 0.5 else "v")
        return ex.Const("pi" if rng.random() < 0.5 else "e")
    if roll < 0.70:
        op = str(rng.choice(["+", "-", "*", "/", "^"]))
        left = random_expression(rng, depth - 1)
        if op == "^":
            return ex.Bin("^", left, ex.Num(float(rng.integers(2, 4))))
        return ex.Bin(op, left, random_expression(rng, depth - 1))
    if roll < 0.90:
        fn = str(rng.choice(FUNCS_SAFE))
        return ex.Call(fn, random_expression(rng, depth - 1))
    return ex.Unary(random_expression(rng, depth - 1))


def central_partials(tree, u, v, h_scale=1e-6):
    """Finite-difference oracle for both partials (the spec's step rule)."""
    hu = h_scale * max(1.0, abs(u))
    hv = h_scale * max(1.0, abs(v))
    fu_p = ex.evaluate(tree, {"u": u + hu, "v": v})
    fu_m = ex.evaluate(tree, {"u": u - hu, "v": v})
    fv_p = ex.evaluate(tree, {"u": u, "v": v + hv})
    fv_m = ex.evaluate(tree, {"u": u, "v": v - hv})
    return (fu_p - fu_m) / (2.0 * hu), (fv_p - fv_m) / (2.0 * hv)


def corpus_case(rng):
    """One accepted (tree, u, v, fd_u, fd_v) tuple, or None if rejected.

    Rejection keeps the finite-difference oracle honest: all stencil
    values finite and moderate, and the h and h/2 estimates consistent,
    so truncation error sits far below the comparison tolerance.
    """
    tree = random_expression(rng)
    u = float(rng.uniform(-2.0, 2.0))
    v = float(rng.uniform(-2.0, 2.0))
    try:
        center = ex.evaluate(tree, {"u": u, "v": v})
        fd = central_partials(tree, u, v)
        fd_half = central_partials(tree, u, v, h_scale=5e-7)
    except ex.EvalError:
        return None
    values = (center, *fd, *fd_half)
    if not all(math.isfinite(x) for x in values):
        return None
    if abs(center) > 300.0 or max(abs(fd[0]), abs(fd[1])) > 300.0:
        return None
    for full, half in zip(fd, fd_half):
        if abs(full - half) > 2e-7 * max(1.0, abs(full)):
            return None
    return tree, u, v, fd[0], fd[1]


def build_corpus(n, seed=20260808):
    rng = np.random.default_rng(seed)
    cases = []
    attempts = 0
    while len(cases) < n and attempts < 60 * n:
        attempts += 1
        case = corpus_case(rng)
        if case is not None:
            cases.append(case)
    if len(cases) < n:
        raise RuntimeError(f"could only build {len(cases)} of {n} corpus cases")
    return cases


# ---------------------------------------------------------------------------
# Finite-difference frame derivatives: an independent reference for the
# exact jets, built from the float adapted frame alone.


def _wrap_angle_near(angle, reference):
    while angle - reference > math.pi:
        angle -= 2.0 * math.pi
    while angle - reference < -math.pi:
        angle += 2.0 * math.pi
    return angle


def _scalar_gradient(S, u, v, axis, h, lo, hi, center, tol):
    """Central (or one-sided, at chart edges) differences of (A, alpha)."""

    def sample(uu, vv):
        s = adapted_frame(S, uu, vv, tol)
        return s.A, _wrap_angle_near(s.alpha, center.alpha)

    coord = u if axis == 0 else v
    if S.closed_u and axis == 0:
        lo, hi = -math.inf, math.inf
    room_minus = coord - lo
    room_plus = hi - coord

    def at(offset):
        return sample(u + offset, v) if axis == 0 else sample(u, v + offset)

    if min(room_minus, room_plus) > 1e-3 * h:
        step = min(h, room_minus, room_plus)
        (a_p, al_p), (a_m, al_m) = at(step), at(-step)
        return (a_p - a_m) / (2.0 * step), (al_p - al_m) / (2.0 * step)

    # Pinned to an edge: second-order one-sided stencil into the rectangle.
    sign = 1.0 if room_plus >= room_minus else -1.0
    step = min(h, (room_plus if sign > 0 else room_minus) / 2.0)
    (a1, al1), (a2, al2) = at(sign * step), at(2.0 * sign * step)
    a0, al0 = center.A, center.alpha
    dA = sign * (-3.0 * a0 + 4.0 * a1 - a2) / (2.0 * step)
    dal = sign * (-3.0 * al0 + 4.0 * al1 - al2) / (2.0 * step)
    return dA, dal


def fd_frame_derivatives(S, u, v, rel_step=1e-5, tol=CHARACTERISTIC_TOL):
    """Directional derivatives of A and alpha from differences of adapted_frame."""
    center = adapted_frame(S, u, v, tol)
    hu = rel_step * (S.u_range[1] - S.u_range[0])
    hv = rel_step * (S.v_range[1] - S.v_range[0])
    grad_A, grad_al = zip(
        _scalar_gradient(S, u, v, 0, hu, *S.u_range, center, tol),
        _scalar_gradient(S, u, v, 1, hv, *S.v_range, center, tol),
    )
    s2, s3 = center.f2_uv, center.f3_uv
    return FrameDerivatives(
        dA_f2=s2[0] * grad_A[0] + s2[1] * grad_A[1],
        dA_f3=s3[0] * grad_A[0] + s3[1] * grad_A[1],
        dalpha_f2=s2[0] * grad_al[0] + s2[1] * grad_al[1],
        dalpha_f3=s3[0] * grad_al[0] + s3[1] * grad_al[1],
    )


# ---------------------------------------------------------------------------
# The float adapted frame as first written, on float jets computed apart
# from the charts' second-order jets.  The frame values of the library must
# equal it bit for bit.


def reference_graph_jet(tree):
    def jet(u, v):
        d = ex.eval_dual(tree, u, v)
        return (u, v, d.value), (1.0, 0.0, d.d_u), (0.0, 1.0, d.d_v)

    return jet


def reference_rotation_jet(profile):
    thetac = profile.theta_c

    def jet(u, v):
        r, rp = profile.r(v), profile.dr(v)
        theta, c = thetac(v)
        s = _sqrt1m(1.0 - rp * rp, f"at v={v!r}")
        ct, st = math.cos(theta), math.sin(theta)
        a, b = r * ct, r * st
        ap, bp = rp * ct - s * st, rp * st + s * ct
        cu, su = math.cos(u), math.sin(u)
        pos = (a * cu - b * su, b * cu + a * su, float(c))
        du = (-a * su - b * cu, -b * su + a * cu, 0.0)
        dv = (ap * cu - bp * su, bp * cu + ap * su, 0.5 * r * s)
        return pos, du, dv

    return jet


def reference_adapted_frame(jet, u, v, orientation=1):
    """(point, alpha, A, f1, f2, f3, f2_uv, f3_uv, area_density) as floats."""
    pos, du, dv = jet(u, v)
    p = Point(*pos)
    f_u, f_v = FrameVec.from_coordinates(p, du), FrameVec.from_coordinates(p, dv)
    w1 = f_v.c3 * f_u.c1 - f_u.c3 * f_v.c1
    w2 = f_v.c3 * f_u.c2 - f_u.c3 * f_v.c2
    norm = math.hypot(w1, w2)
    f2h = (w1 / norm, w2 / norm)
    f1h = (f2h[1], -f2h[0])
    h_dots = [t.c1 * f1h[0] + t.c2 * f1h[1] for t in (f_u, f_v)]
    verts = [f_u.c3, f_v.c3]
    A = (h_dots[0] * verts[0] + h_dots[1] * verts[1]) / (verts[0] ** 2 + verts[1] ** 2)
    p1 = f_u.c1 * f2h[0] + f_u.c2 * f2h[1]
    p2 = f_v.c1 * f2h[0] + f_v.c2 * f2h[1]
    q1, q2 = f_u.c3, f_v.c3
    det = p1 * q2 - p2 * q1
    if det * orientation < 0.0:
        f2h = (-f2h[0], -f2h[1])
        f1h = (-f1h[0], -f1h[1])
        A = -A
        p1, p2, det = -p1, -p2, -det
    alpha = math.atan2(-f2h[0], f2h[1])
    return (
        pos, alpha, A, (f1h[0], f1h[1], 0.0), (f2h[0], f2h[1], 0.0), (A * f1h[0], A * f1h[1], 1.0),
        (q2 / det, -q1 / det), (-p2 / det, p1 / det), det,
    )


def frame_values(s):
    """The same tuple read off an AdaptedFrameSample."""
    return (
        (s.point.x, s.point.y, s.point.z), s.alpha, s.A,
        (s.f1.c1, s.f1.c2, s.f1.c3), (s.f2.c1, s.f2.c2, s.f2.c3), (s.f3.c1, s.f3.c2, s.f3.c3),
        s.f2_uv, s.f3_uv, s.area_density,
    )


def loglog_slope(xs, ys):
    xs = np.log10(np.asarray(xs, dtype=float))
    ys = np.log10(np.abs(np.asarray(ys, dtype=float)))
    return float(np.polyfit(xs, ys, 1)[0])


# ---------------------------------------------------------------------------
# Scalar references: one point, one segment and one line at a time.  The
# array code must reproduce them bit for bit.


def _sqrt1m(rp2_complement, context):
    if rp2_complement < -CLAMP:
        raise DomainViolationError(f"(r')^2 exceeds 1 {context}")
    return math.sqrt(max(rp2_complement, 0.0))


def reference_sample_generating_curve(profile, v0, v1, max_ratio=1e-8, max_points=500_000):
    """Point-by-point sampler with a depth-first bisection pass."""
    if not (v0 < v1):
        raise ValueError("need v0 < v1")
    thetac = profile.theta_c
    theta0, c0 = thetac(v0)

    def g_theta(t):
        return _sqrt1m(1.0 - profile.dr(t) ** 2, f"at v={t!r}") / profile.r(t)

    def g_c(t):
        return 0.5 * profile.r(t) * _sqrt1m(1.0 - profile.dr(t) ** 2, f"at v={t!r}")

    span = v1 - v0
    dv_cap = span / 64.0
    dv_floor = span * 1e-9
    target = 0.6 * max_ratio

    vs = [v0]
    thetas = [theta0]
    cs = [c0]
    v = v0
    while v < v1 - 1e-15 * max(1.0, abs(v1)):
        k_here = abs(profile.kappa(v))
        dv = min(math.sqrt(12.0 * target / max(k_here, 1e-12)), dv_cap)
        k_ahead = abs(profile.kappa(min(v + dv, v1)))
        dv = min(dv, math.sqrt(12.0 * target / max(k_ahead, 1e-12)))
        dv = max(dv, dv_floor)
        v_next = min(v + dv, v1)
        thetas.append(thetas[-1] + gauss_segment(g_theta, v, v_next, profile.domain))
        cs.append(cs[-1] + gauss_segment(g_c, v, v_next, profile.domain))
        vs.append(v_next)
        if len(vs) > max_points:
            raise GeometryError("generating-curve sampling exceeded the point budget")
        v = v_next

    def position(idx):
        r = profile.r(vs[idx])
        return np.array([r * math.cos(thetas[idx]), r * math.sin(thetas[idx]), cs[idx]])

    pts = [position(i) for i in range(len(vs))]
    i = 0
    while i < len(vs) - 1:
        seg = np.vstack([pts[i], pts[i + 1]])
        ratio = float(e3_chord_ratio(seg)[0])
        if ratio > 0.9 * max_ratio and (vs[i + 1] - vs[i]) > dv_floor:
            vm = 0.5 * (vs[i] + vs[i + 1])
            theta_m = thetas[i] + gauss_segment(g_theta, vs[i], vm, profile.domain)
            c_m = cs[i] + gauss_segment(g_c, vs[i], vm, profile.domain)
            vs.insert(i + 1, vm)
            thetas.insert(i + 1, theta_m)
            cs.insert(i + 1, c_m)
            pts.insert(i + 1, position(i + 1))
            if len(vs) > max_points:
                raise GeometryError("generating-curve refinement exceeded the point budget")
        else:
            i += 1

    out = np.empty((len(vs), 4))
    out[:, 0] = vs
    out[:, 1:] = np.vstack(pts)
    return out


def reference_write_obj(path, mesh, config):
    """OBJ writer formatting one float with fmt and one line at a time."""
    lines = [f"# {_stamp(config)}"]
    for vert in mesh.vertices:
        lines.append(f"v {fmt(vert[0])} {fmt(vert[1])} {fmt(vert[2])}")
    offset = len(mesh.vertices)
    polyline_indices = []
    for curve in mesh.polylines:
        idx = list(range(offset + 1, offset + 1 + len(curve)))
        for vert in curve:
            lines.append(f"v {fmt(vert[0])} {fmt(vert[1])} {fmt(vert[2])}")
        polyline_indices.append(idx)
        offset += len(curve)
    for face in mesh.faces:
        lines.append(f"f {face[0] + 1} {face[1] + 1} {face[2] + 1}")
    for idx in polyline_indices:
        lines.append("l " + " ".join(str(i) for i in idx))
    Path(path).write_text("\n".join(lines) + "\n")


def reference_write_csv(path, columns, rows, config, footer_comments=()):
    """CSV writer formatting one cell with fmt and one line at a time."""
    lines = [f"# {_stamp(config)}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt(cell) for cell in row))
    for comment in footer_comments:
        lines.append(f"# {comment}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# The curvature and frames grids and the Gauss-Bonnet prescans, one point
# at a time.  The batched code must reproduce their rows and their errors.


def reference_grid_rows(patch, nu, nv, char_tol, n_values, values):
    """Rows u, v, x, y, z, *values(sample, fd), characteristic, point by point."""
    rows = []
    for v in np.linspace(patch.v_range[0], patch.v_range[1], nv).tolist():
        for u in np.linspace(patch.u_range[0], patch.u_range[1], nu).tolist():
            try:
                sample, fd = frame_data(patch, u, v, tol=char_tol)
            except GeometryError:
                pos = patch.position(u, v)
                rows.append([u, v, pos.x, pos.y, pos.z] + [math.nan] * n_values + [1])
                continue
            pos = sample.point
            rows.append([u, v, pos.x, pos.y, pos.z, *values(sample, fd), 0])
    return rows


def reference_curvature_values(L_values, directions):
    def values(sample, fd):
        A = sample.A
        row = [sample.alpha, A, k_inf(fd, A), k_gauss_map(fd)]
        row += [k_L(fd, A, L) for L in L_values]
        for du, dv in directions:
            b = du * sample.f_u_23[1] + dv * sample.f_v_23[1]
            row.append(k_n(A, b) if b != 0.0 else math.nan)
        return row

    return values


def reference_frames_values(s, fd):
    return [
        s.alpha, s.A, s.f1.c1, s.f1.c2, s.f2.c1, s.f2.c2, s.f3.c1, s.f3.c2, s.f3.c3,
        fd.dA_f2, fd.dA_f3, fd.dalpha_f2, fd.dalpha_f3,
    ]


def reference_grid(cmd, L_values=(1.0, 10.0, 100.0), directions=((1.0, 0.0),)):
    """A stand-in for cli._grid_rows running the per-point loop and values of cmd."""
    if cmd == "curvature":
        values = reference_curvature_values(L_values, directions)
        n_values = 4 + len(L_values) + len(directions)
    else:
        values, n_values = reference_frames_values, 13

    def grid_rows(patch, nu, nv, char_tol, batch_values):
        rows = reference_grid_rows(patch, nu, nv, char_tol, n_values, values)
        return np.array(rows, dtype=float).reshape(len(rows), n_values + 6)

    return grid_rows


def reference_region_prescan(S, R, n=21, tol=1e-10):
    for u in np.linspace(R.u0, R.u1, n):
        for v in np.linspace(R.v0, R.v1, n):
            f_u, f_v = pushforward_frame(S, float(u), float(v))
            if characteristic_test(f_u, f_v, tol):
                raise CharacteristicPointError(
                    f"characteristic point inside the region at ({u!r}, {v!r})"
                )


def reference_boundary_prescan(S, R, n=33):
    for start, d, length in _segments(R):
        for t in np.linspace(0.0, length, n):
            u, v = start[0] + d[0] * float(t), start[1] + d[1] * float(t)
            f_u, f_v = pushforward_frame(S, u, v)
            b = d[0] * f_u.c3 + d[1] * f_v.c3
            speed = math.hypot(
                *(d[0] * np.array([f_u.c1, f_u.c2, f_u.c3]) + d[1] * np.array([f_v.c1, f_v.c2, f_v.c3]))
            )
            if abs(b) < TRANSVERSALITY_TOL * max(speed, 1e-300):
                raise NonTransverseError(
                    f"boundary tangent loses its f3 component at ({u!r}, {v!r})"
                )


# ---------------------------------------------------------------------------
# The Gauss-Bonnet integrals one scalar frame at a time: nested QUADPACK over
# the region, QUADPACK per boundary piece, and transverse curve derivatives
# from central differences.  The batched cubatures must agree with them
# within the requested tolerances, and the exact derivatives to 1e-6.


def reference_integrate_2d(f, u0, u1, v0, v1, tol=1e-9):
    """Iterated adaptive integral of f(u, v) over a rectangle: (value, error estimate)."""
    if u0 == u1 or v0 == v1:
        return 0.0, 0.0
    inner_tol = 0.25 * tol / abs(v1 - v0)
    errors = []

    def row(v):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", si.IntegrationWarning)
            value, err = si.quad(lambda u: f(u, v), u0, u1, epsabs=inner_tol, epsrel=1e-12, limit=200)
        errors.append(err)
        return value

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", si.IntegrationWarning)
        value, outer_err = si.quad(row, v0, v1, epsabs=0.5 * tol, epsrel=1e-12, limit=200)
    estimate = outer_err + max(errors, default=0.0) * abs(v1 - v0)
    if not math.isfinite(value) or estimate > max(1e3 * tol, 1e-7 * abs(value)):
        raise QuadratureError(f"2d integral did not converge (estimate {estimate:.3e})")
    return value, estimate


def reference_area_integral(S, R, tol=1e-9):
    """int_R K_inf dsigma by nested QUADPACK: (value, error estimate)."""

    def integrand(u, v):
        sample, fd = frame_data(S, u, v)
        return k_inf(fd, sample.A) * sample.area_density

    value, err = reference_integrate_2d(integrand, R.u0, R.u1, R.v0, R.v1, tol)
    return R.orientation * value, err


def reference_boundary_integral(S, R, tol=1e-10):
    """oint A f^3(gamma') by QUADPACK per piece: (value, summed error estimates)."""
    segments = _segments(R)
    total, err_total = 0.0, 0.0
    for start, d, length in segments:

        def integrand(t, start=start, d=d):
            s = adapted_frame(S, start[0] + d[0] * t, start[1] + d[1] * t)
            return s.A * (d[0] * s.f_u_23[1] + d[1] * s.f_v_23[1])

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", si.IntegrationWarning)
            per_piece = tol / len(segments)
            value, err = si.quad(integrand, 0.0, length, epsabs=per_piece, epsrel=max(per_piece, 1e-13), limit=200)
        if not math.isfinite(value) or err > max(100.0 * per_piece, 1e-8 * abs(value)):
            raise QuadratureError(f"integral over [0.0, {length!r}] did not converge (estimate {err:.3e})")
        total += value
        err_total += err
    return total, err_total


def reference_transverse_sample(S, path, t, h=1e-4, velocity=None):
    """Curve data at t on a path t -> (u, v), with central differences in t.

    (a, b) come from the adapted frame; da/dt and db/dt are central
    differences of them with step h, the path velocity a central difference
    with a smaller inner step unless ``velocity`` gives it exactly.
    """
    h_vel = 1e-6 * max(1.0, abs(t))

    def components(tt, s):
        if velocity is not None:
            du, dv = velocity(tt)
        else:
            up, vp = path(tt + h_vel)
            um, vm = path(tt - h_vel)
            du, dv = (up - um) / (2.0 * h_vel), (vp - vm) / (2.0 * h_vel)
        return du * s.f_u_23[0] + dv * s.f_v_23[0], du * s.f_u_23[1] + dv * s.f_v_23[1]

    sample, fd = frame_data(S, *path(t))
    a, b = components(t, sample)
    ap, bp = components(t + h, adapted_frame(S, *path(t + h)))
    am, bm = components(t - h, adapted_frame(S, *path(t - h)))
    return TransverseCurveSample(
        t=t, a=a, b=b, da_dt=(ap - am) / (2.0 * h), db_dt=(bp - bm) / (2.0 * h),
        dA_dt=a * fd.dA_f2 + b * fd.dA_f3, A=sample.A, dalpha_f2=fd.dalpha_f2, dalpha_f3=fd.dalpha_f3,
    )
