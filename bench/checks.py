"""Output checks, run outside the timed region.

Each check reads the files one job wrote and returns a :class:`Verdict`:
whether the output is well formed (``valid``: counts, headers, finite
values), whether it is also accurate (``ok``: every error within its
tolerance), the worst achieved error divided by its tolerance
(``err_ratio``; above 1 fails the job), and counts the per-layer metrics
are normalised by.  A job whose output misses a tolerance, or whose
program exits non-zero, has failed; a malformed output is also invalid.  Tolerances are pinned here, not
read from the program, so a change to the program cannot loosen them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

E3_CHORD_RATIO = 1e-8  # polyline chords |e^3(chord)| / |chord| (RotationSurfaceSpec default)
IDENTITY_TOL = 1e-5  # dalpha(f3) + dA(f2) + A^2, as h1geom.curvature.IDENTITY_TOL
GB_THRESHOLD = 1e-8  # |area + boundary|, the gauss-bonnet default threshold
K_INF_REL = 1e-9  # closed-form K_inf column against the requested K_inf
ASSEMBLY_REL = 1e-9  # K_L and k_n columns against their formulas in (A, K_inf, K)
SLOPE_TOL = 0.05  # K_L convergence rate over the last decade of the L sweep
EXPANSION_TOL = 0.2  # k_n_L - k_n against its two leading terms, relative
CONVERGED = 1e-9  # an L-sweep error below this (relative) has converged
HEADER_PREFIX = "# h1geom "


@dataclass
class Verdict:
    ok: bool = True
    valid: bool = True
    err_ratio: float = 0.0
    messages: list = field(default_factory=list)
    grid_points: int = 0
    reports: int = 0

    def fail(self, message: str, malformed: bool = True) -> None:
        self.ok = False
        self.valid = self.valid and not malformed
        self.messages.append(message)

    def bound(self, what: str, error: float, tol: float) -> None:
        """Record error / tol; an error above tol, or not finite, fails."""
        if not math.isfinite(error):
            self.fail(f"{what}: error is {error!r}", malformed=False)
            return
        self.err_ratio = max(self.err_ratio, error / tol)
        if error > tol:
            self.fail(f"{what}: error {error:.3e} exceeds {tol:.1e}", malformed=False)


def output_paths(job: dict, stem: Path) -> list[Path]:
    """Files a job writes, given the stem the worker passes on its argv."""
    if job["cmd"] == "rotsurf":
        return [stem.with_suffix(".obj"), stem.parent / (stem.name + "_profile.csv")]
    if job["cmd"] == "gauss-bonnet":
        return [stem.with_suffix(".json")]
    return [stem.with_suffix(".csv")]


def read_csv(path: Path):
    """(column names, float rows as an array, footer comments)."""
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith(HEADER_PREFIX):
        raise ValueError(f"{path.name}: missing h1geom header")
    columns = lines[1].split(",")
    body = [line for line in lines[2:] if not line.startswith("#")]
    footer = [line[2:] for line in lines[2:] if line.startswith("#")]
    rows = np.array([[float(x) for x in line.split(",")] for line in body], dtype=float)
    return columns, rows.reshape(len(body), len(columns)), footer


def e3_chord_ratio(points: np.ndarray) -> np.ndarray:
    """|e^3(chord)| / |chord| at chord midpoints, e^3 = dz + (y dx - x dy)/2."""
    delta = np.diff(points, axis=0)
    mid = 0.5 * (points[1:] + points[:-1])
    e3 = delta[:, 2] + 0.5 * (mid[:, 1] * delta[:, 0] - mid[:, 0] * delta[:, 1])
    return np.abs(e3) / np.maximum(np.linalg.norm(delta, axis=1), 1e-300)


def check_rotsurf(job: dict, paths: list[Path], verdict: Verdict) -> None:
    spec = job["expect"]
    su, sv, n_curves = spec["samples_u"], spec["samples_v"], spec["n_curves"]
    text = paths[0].read_text()
    if not text.startswith(HEADER_PREFIX):
        verdict.fail("OBJ lacks the h1geom header")
    vertex_lines, faces, lines = [], 0, []
    for line in text.splitlines():
        tag = line[:2]
        if tag == "v ":
            vertex_lines.append(line[2:])
        elif tag == "f ":
            faces += 1
        elif tag == "l ":
            lines.append(line)
    vertices = np.array([s.split() for s in vertex_lines], dtype=float)
    curves = [np.array(line.split()[1:], dtype=np.int64) for line in lines]
    lengths = {len(c) for c in curves}
    polyline_total = sum(len(c) for c in curves)
    if len(curves) != n_curves:
        verdict.fail(f"{len(curves)} polylines, expected {n_curves}")
    if faces != 2 * (su - 1) * (sv - 1):
        verdict.fail(f"{faces} faces, expected {2 * (su - 1) * (sv - 1)}")
    if len(vertices) != su * sv + polyline_total:
        verdict.fail(f"{len(vertices)} vertices, expected {su * sv} + {polyline_total}")
    if len(lengths) > 1 or (curves and min(lengths) < 2):
        verdict.fail(f"polyline lengths {sorted(lengths)}")
    if not np.all(np.isfinite(vertices)):
        verdict.fail("non-finite vertex")
    for curve in curves:
        if curve.min() < 1 or curve.max() > len(vertices) or np.any(np.diff(curve) != 1):
            verdict.fail("polyline indices are not a consecutive vertex run")
            break
        ratio = float(np.max(e3_chord_ratio(vertices[curve - 1])))
        verdict.bound("polyline e3 chord ratio", ratio, E3_CHORD_RATIO)
    columns, rows, _ = read_csv(paths[1])
    if columns != ["t", "r", "r_prime", "theta", "c", "A"] or len(rows) != sv:
        verdict.fail(f"profile table has {len(rows)} rows of {columns}, expected {sv}")


def _grid_rows(job: dict, paths: list[Path], verdict: Verdict):
    columns, rows, _ = read_csv(paths[0])
    nu, nv = job["expect"]["nu"], job["expect"]["nv"]
    verdict.grid_points = nu * nv
    if len(rows) != nu * nv:
        verdict.fail(f"{len(rows)} rows, expected {nu * nv}")
    col = {name: rows[:, i] for i, name in enumerate(columns)}
    regular = col["characteristic"] == 0
    if not np.all(np.isfinite(rows[regular])):
        verdict.fail("non-finite value in a non-characteristic row")
    if np.all(~regular):
        verdict.fail("every grid point flagged characteristic")
    return col, regular


def check_frames(job: dict, paths: list[Path], verdict: Verdict) -> None:
    col, ok = _grid_rows(job, paths, verdict)
    A, dA_f2 = col["A"][ok], col["dA_f2"][ok]
    residual = col["dalpha_f3"][ok] + dA_f2 + A * A
    scale = np.maximum(1.0, np.maximum(A * A, np.abs(dA_f2)))
    if residual.size:
        verdict.bound("structural identity", float(np.max(np.abs(residual) / scale)), IDENTITY_TOL)


def check_curvature(job: dict, paths: list[Path], verdict: Verdict) -> None:
    col, ok = _grid_rows(job, paths, verdict)
    A, K_inf, K_gauss = col["A"][ok], col["K_inf"][ok], col["K_gauss"][ok]
    if not A.size:
        return
    surface = job["expect"]["surface"]
    if surface["kind"] == "rotation":
        K = surface["K_inf"]
        scale = np.maximum(1.0, np.maximum(abs(K), A * A))
        verdict.bound("K_inf column against K_inf", float(np.max(np.abs(K_inf - K) / scale)), K_INF_REL)
    # K_L = L/m^2 K - L^2/m^2 dA(f2) - L/m A^2 with m = L + A^2, dA(f2) = -K_inf - A^2
    dA_f2 = -K_inf - A * A
    worst = 0.0
    for name in col:
        if name.startswith("K_L_"):
            L = float(name[4:])
            m = L + A * A
            terms = (L / m**2 * K_gauss, L * L / m**2 * dA_f2, L / m * A * A)
            expected = terms[0] - terms[1] - terms[2]
            scale = np.maximum(1.0, np.max(np.abs(np.stack(terms)), axis=0))
            worst = max(worst, float(np.max(np.abs(col[name][ok] - expected) / scale)))
        elif name.startswith("k_n_"):
            k_n = col[name][ok]
            finite = np.isfinite(k_n)
            if finite.any():
                gap = np.abs(np.abs(k_n[finite]) - np.abs(A[finite]))
                worst = max(worst, float(np.max(gap / np.maximum(1.0, np.abs(A[finite])))))
    verdict.bound("K_L and k_n columns against their formulas", worst, ASSEMBLY_REL)


def check_gauss_bonnet(job: dict, paths: list[Path], verdict: Verdict) -> None:
    report = json.loads(paths[0].read_text())
    verdict.reports = 1
    residual = report["residual"]
    if residual != report["area_integral"] + report["boundary_integral"]:
        verdict.fail("residual is not area + boundary")
    verdict.bound("Gauss-Bonnet residual", abs(residual), GB_THRESHOLD)


def _last_decade_slope(L, err, floor: float) -> float:
    """log10 of the error drop over the last decade of L; -inf once below ``floor``."""
    if err[-1] <= floor:
        return -math.inf
    return math.log10(err[-1] / err[-2]) / math.log10(L[-1] / L[-2]) if err[-2] > 0.0 else math.inf


def _expansion_misfit(L, err, floor: float) -> float:
    """How far a signed error leaves e(L) = a / sqrt(L) + b / L.

    k_n_L - k_n is a series in powers of 1/sqrt(L) (m = L + A^2 and
    q = sqrt(a^2 + b^2 m) in its formula), so its first two terms, fitted
    through the last two L, must predict the error at the third-last L.
    Returns that misfit over |a| / sqrt(L) + |b| / L there; 0 once the last
    error is below ``floor``.  A pure L^-0.4 misfits by 0.24, L^-0.3 by
    0.32 and a constant by 0.43; a large 1/L term does not misfit, though it
    flattens the last-decade slope.  Over the 360 converge jobs of seeds
    1..20 the largest misfit is 0.09.
    """
    if abs(err[-1]) <= floor:
        return 0.0
    at = [L[-2], L[-1]]
    a, b = np.linalg.solve([[x**-0.5, 1.0 / x] for x in at], [err[-2], err[-1]])
    x = L[-3]
    return abs(a * x**-0.5 + b / x - err[-3]) / (abs(a) * x**-0.5 + abs(b) / x)


def check_converge(job: dict, paths: list[Path], verdict: Verdict) -> None:
    columns, rows, footer = read_csv(paths[0])
    L_values = job["config"]["L"]
    if len(rows) != len(L_values) or list(rows[:, 0]) != L_values:
        verdict.fail(f"L column {list(rows[:, 0])}, expected {L_values}")
        return
    facts = dict(line.split(" ", 1) for line in footer)
    K_inf = float(facts["K_inf"])
    col = {name: rows[:, i] for i, name in enumerate(columns)}
    gap = np.abs(np.abs(col["K_L"] - K_inf) - col["abs_err_K"])
    verdict.bound("abs_err_K column", float(np.max(gap)) / max(1.0, abs(K_inf)), ASSEMBLY_REL)
    k_n = float(facts["k_n"])
    err_kn = col["k_n_L"] - k_n
    gap = np.abs(np.abs(err_kn) - col["abs_err_k_n"])
    verdict.bound("abs_err_k_n column", float(np.max(gap)) / max(1.0, abs(k_n)), ASSEMBLY_REL)
    # K_L - K_inf falls like 1/L until it reaches the rounding floor
    slope_K = _last_decade_slope(L_values, col["abs_err_K"], CONVERGED * max(1.0, abs(K_inf)))
    # -inf: converged; +inf: the error grew from zero, which fails
    verdict.bound("K_L convergence rate", 0.0 if slope_K == -math.inf else abs(slope_K + 1.0), SLOPE_TOL)
    misfit = _expansion_misfit(L_values, err_kn, CONVERGED * max(1.0, abs(k_n)))
    verdict.bound("k_n_L - k_n against a / sqrt(L) + b / L", misfit, EXPANSION_TOL)


CHECKS = {
    "rotsurf": check_rotsurf,
    "frames": check_frames,
    "curvature": check_curvature,
    "gauss-bonnet": check_gauss_bonnet,
    "converge": check_converge,
}


def check_job(job: dict, stem: Path, exit_code) -> Verdict:
    """Verdict on one finished job; a non-zero exit or unreadable output fails."""
    verdict = Verdict()
    if exit_code != 0:
        verdict.fail(f"exit code {exit_code}", malformed=False)
        return verdict
    try:
        CHECKS[job["cmd"]](job, output_paths(job, stem), verdict)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        verdict.fail(f"unreadable output: {type(exc).__name__}: {exc}")
    return verdict
