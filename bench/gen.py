"""Seeded job lists for the three benchmark workloads.

A job is a plain dict: the h1geom subcommand, the JSON configuration it
reads, and an ``expect`` record for the output checks.  The program only
ever sees the configuration file and the argv built from the job.

A seed's job list is one *pass*.  A pass holds 52 to 55 distinct jobs, at
least ``measure.MIN_JOBS``, and takes about a third of the declared run
length on a 2-core machine, so a run executes every job at least three
times (see ``worker.py``).

Every seed varies one fixed design.  Job k of a workload draws from its own
``_Jittered`` stream: the draws of the design stream ``"{workload}:design:k"``,
each moved by up to JITTER / 2 of its range by the stream ``"{workload}:{seed}:k"``.
So a seed always gives the same job list, two seeds give job lists of like
cost, and run-to-run spread measures the program, not the draw.  Free draws
did not do: QUADPACK's cost varies tenfold between Gauss-Bonnet rectangles
(0.1 to 1.2 s), and 18 of them do not average that out, so the cost of a
``gb`` pass moved by a third from seed to seed.  The job order is shuffled
per seed.  Job counts per kind are fixed, grid sides and mesh sizes follow
fixed ladders (each mesh band is extended until its estimated polyline
point count meets its rung), and rotation families are taken in turn.

Where the sizes come from: grid sides span the 16..48 range of the
workload definition.  Every mesh pass holds the mesh ``rotsurf --figure 2``
writes: the ``RotationSurfaceSpec`` defaults (128 x 128 samples, 8 curves)
over the preset's default band, 8,360 polyline points per curve.  The other
meshes are smaller (16..72 samples, 100..500 points) so that the pass
holds 54 of them in its third of a run; they cover the regime where per-job
overhead and the vertex grid weigh as much as the curve sampler.

Validity screens use closed forms written here, independent of the program:

* rotation bands lie strictly inside the existence domain of the family;
* graph rectangles for Gauss-Bonnet have transverse edges
  (``h_u + v/2 != 0`` on u-edges, ``h_v - u/2 != 0`` on v-edges) and no
  characteristic point inside, as the identity assumes;
* converge points are non-characteristic and their direction transverse.

Curvature and frame grids are *not* screened: grids may pass close to a
characteristic point, so derivative defects there show as failed checks.
"""

from __future__ import annotations

import math
import random

import numpy as np

WORKLOADS = ("mesh", "grid", "gb")

TAU = 2.0 * math.pi
GRID_SIDE = (16, 48)  # grid side range; the ladder is denser at the small end
GRID_RUNGS = 13  # grids per surface kind
L_SWEEP = [1e2, 1e3, 1e4, 1e5, 1e6]
# Polyline chord step of the sampler, sqrt(12 * 0.6 * e3_ratio) / sqrt(kappa),
# so a band needs about int sqrt(kappa) dv / CHORD points.
CHORD = math.sqrt(12.0 * 0.6 * 1e-8)
MESH_SAMPLES = (16, 72)  # ladder of samples_u = samples_v per small mesh
MESH_POINTS = (100, 500)  # ladder of polyline point targets per small mesh
MESH_REPEATS = 3  # small meshes per (family, n_curves, band) cell
JITTER = 0.05  # spread of a seed's draws around the design, as a share of each range
FIGURE_2 = {"K_inf": 0.0, "r0": 1.0}  # (K_inf, r0) of `rotsurf --figure 2`


# ---------------------------------------------------------------------------
# Constant-K rotation profiles


def domain_bound(K: float, r0: float) -> tuple[float, float]:
    """Existence interval of the constant-K rotation profile, where r'^2 < 1.

    K > 0: r = r0 sqrt(cos(k v)), r'^2 = q (1 - c^2) / (4 c) with c = cos(k v),
    q = r0^2 K; r'^2 = 1 at c = -2/q + sqrt(4/q^2 + 1).  K < 0 is the cosh
    analogue; K = 0 has r = r0 sqrt(v), r'^2 = r0^2 / (4 v).
    """
    if K > 0.0:
        q = r0 * r0 * K
        c = -2.0 / q + math.sqrt(4.0 / (q * q) + 1.0)
        vmax = math.acos(c) / math.sqrt(K)
        return -vmax, vmax
    if K < 0.0:
        q = -r0 * r0 * K
        ch = 2.0 / q + math.sqrt(4.0 / (q * q) + 1.0)
        vmax = math.acosh(ch) / math.sqrt(-K)
        return -vmax, vmax
    return r0 * r0 / 4.0, math.inf


def _sqrt_kappa(K: float, r0: float, v: np.ndarray) -> np.ndarray:
    """sqrt|kappa| of the profile, kappa = (K + 2/r^2) r / (2 sqrt(1 - r'^2))."""
    if K > 0.0:
        k = math.sqrt(K)
        r = r0 * np.sqrt(np.cos(k * v))
        A = -k * np.tan(k * v)
    elif K < 0.0:
        k = math.sqrt(-K)
        r = r0 * np.sqrt(np.cosh(k * v))
        A = k * np.tanh(k * v)
    else:
        r = r0 * np.sqrt(v)
        A = 1.0 / v
    rp = 0.5 * r * A  # A = (ln r^2)'
    s = np.sqrt(np.maximum(1.0 - rp * rp, 1e-300))
    return np.sqrt(np.abs((K + 2.0 / (r * r)) * r / (2.0 * s)))


def band_work(K: float, r0: float, a: float, b: float, n: int = 2001) -> float:
    """int_a^b sqrt|kappa| dv, substituting v = edge -/+ t^2 at the nearer bound."""
    lo, hi = domain_bound(K, r0)
    if K != 0.0 and a < 0.0 < b:
        return band_work(K, r0, a, 0.0, n) + band_work(K, r0, 0.0, b, n)
    if K != 0.0 and b <= 0.0:
        a, b = -b, -a  # the profile is even in v
    if K == 0.0:
        t = np.linspace(math.sqrt(a - lo), math.sqrt(b - lo), n)
        v = lo + t * t
    else:
        t = np.linspace(math.sqrt(hi - b), math.sqrt(hi - a), n)
        v = hi - t * t
    f = 2.0 * t * _sqrt_kappa(K, r0, v)
    return float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(t)))


def _solve_extent(work, lo: float, hi: float, target: float) -> float:
    """x in [lo, hi] with work(x) = target for increasing work; hi if out of reach."""
    if work(hi) <= target:
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if work(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


def _draw_curvature(rng: random.Random, sign: int) -> float:
    """K_inf of the given sign, log-uniform in 1/4..4 in size."""
    if sign == 0:
        return 0.0
    return sign * math.exp(rng.uniform(math.log(0.25), math.log(4.0)))


def _band(rng: random.Random, K: float, r0: float, near_edge: bool, points: float | None = None):
    """A v-band strictly inside the existence domain.

    Near-edge bands end 1e-5..1e-2 (relative) short of the domain bound,
    where the profile curvature kappa blows up like 1/sqrt(distance).  With
    ``points`` the band is extended until it needs about that many polyline
    points; otherwise its width is drawn.
    """
    lo, hi = domain_bound(K, r0)
    target = None if points is None else points * CHORD
    if K == 0.0:
        start = lo * (1.0 + (10.0 ** rng.uniform(-5.0, -2.0) if near_edge else rng.uniform(0.5, 2.0)))
        if target is None:
            band = (start, start + rng.uniform(0.3, 1.5))
        else:
            band = (start, _solve_extent(lambda e: band_work(K, r0, start, e), start, start + 40.0, target))
    elif near_edge:
        end = hi * (1.0 - 10.0 ** rng.uniform(-5.0, -2.0))
        if target is None:
            start = end - hi * rng.uniform(0.2, 0.6)
        else:
            start = -_solve_extent(lambda x: band_work(K, r0, -x, end), -end, end, target)
        band = (start, end) if rng.random() < 0.5 else (-end, -start)
    else:
        start = hi * rng.uniform(-0.8, 0.2)
        if target is None:
            band = (start, start + hi * rng.uniform(0.2, 0.7))
        else:
            band = (start, _solve_extent(lambda e: band_work(K, r0, start, e), start, 0.95 * hi, target))
    if not (lo < band[0] < band[1] < hi):
        raise AssertionError(f"band {band} escapes the domain ({lo}, {hi})")
    return band


def _rotation_surface(rng: random.Random, sign: int) -> dict:
    """A rotation patch over an interior band."""
    K = _draw_curvature(rng, sign)
    r0 = rng.uniform(0.5, 2.0)
    band = _band(rng, K, r0, near_edge=False)
    return {"kind": "rotation", "K_inf": K, "r0": r0, "v_range": list(band)}


# ---------------------------------------------------------------------------
# Graph surfaces z = h(u, v)


class Graph:
    """h = a u^2 + b v^2 + c u v + s sin(w u + m v + p), with closed-form partials.

    Coefficients are rounded to the six decimals the expression prints, so
    the screens see the surface the program sees.
    """

    def __init__(self, rng: random.Random):
        self.a, self.b, self.c = (round(rng.uniform(-0.6, 0.6), 6) for _ in range(3))
        self.s = round(rng.uniform(0.05, 0.4), 6)
        self.w, self.m = (round(rng.uniform(-2.0, 2.0), 6) for _ in range(2))
        self.p = round(rng.uniform(0.0, TAU), 6)

    def surface(self, u_range, v_range) -> dict:
        h = (
            f"{self.a:.6f}*u^2 + {self.b:.6f}*v^2 + {self.c:.6f}*u*v"
            f" + {self.s:.6f}*sin({self.w:.6f}*u + {self.m:.6f}*v + {self.p:.6f})"
        )
        return {"kind": "graph", "h": h, "u_range": list(u_range), "v_range": list(v_range)}

    def grad(self, u, v):
        """(h_u, h_v)."""
        wave = self.s * np.cos(self.w * u + self.m * v + self.p)
        return 2 * self.a * u + self.c * v + self.w * wave, 2 * self.b * v + self.c * u + self.m * wave


class Paraboloid:
    """The catalog paraboloid h = (u^2 + v^2) / 2."""

    def surface(self, u_range, v_range) -> dict:
        return {"kind": "paraboloid", "u_range": list(u_range), "v_range": list(v_range)}

    def grad(self, u, v):
        return u, v


def _tilt(g, u, v):
    """(e^3(f_u), e^3(f_v)) = (h_u + v/2, h_v - u/2); both vanish at characteristic points."""
    hu, hv = g.grad(u, v)
    return hu + 0.5 * v, hv - 0.5 * u


def _edges_transverse(g, ur, vr, margin: float, n: int = 513) -> bool:
    """e^3 of the boundary tangent stays away from 0 on every edge."""
    us, vs = np.linspace(*ur, n), np.linspace(*vr, n)
    u_edges = (np.abs(_tilt(g, us, v)[0]) for v in vr)
    v_edges = (np.abs(_tilt(g, u, vs)[1]) for u in ur)
    return all(float(np.min(b)) >= margin for b in (*u_edges, *v_edges))


def _non_characteristic(g, ur, vr, margin: float, n: int = 97) -> bool:
    uu, vv = np.meshgrid(np.linspace(*ur, n), np.linspace(*vr, n))
    return float(np.min(np.hypot(*_tilt(g, uu, vv)))) >= margin


def _rect(rng: random.Random, span, width):
    wu, wv = rng.uniform(*width), rng.uniform(*width)
    u0 = rng.uniform(span[0], span[1] - wu)
    v0 = rng.uniform(span[0], span[1] - wv)
    return (u0, u0 + wu), (v0, v0 + wv)


def _graph_or_paraboloid(rng: random.Random, p_paraboloid: float):
    return Paraboloid() if rng.random() < p_paraboloid else Graph(rng)


# ---------------------------------------------------------------------------
# Workloads


class _Jittered(random.Random):
    """A draw stream that stays near a fixed design stream.

    Each ``random()`` (and so each ``uniform``) is the design's draw moved by
    up to JITTER / 2, reflected back into [0, 1); integer draws (``choice``,
    ``shuffle``) are the design's.  A job drawn from it is a slight
    variation of the design's job.
    """

    def __init__(self, design: str, seed: str):
        super().__init__(design)
        self._jitter = random.Random(seed)

    def random(self) -> float:
        x = abs(super().random() + JITTER * (self._jitter.random() - 0.5))
        return min(2.0 - x if x >= 1.0 else x, 1.0 - 2.0**-53)

    def getrandbits(self, k: int) -> int:
        return super().getrandbits(k)


def _mesh_jobs(job_rng) -> list[dict]:
    """rotsurf over every (family, n_curves, edge or interior band) cell,
    MESH_REPEATS times, plus the `rotsurf --figure 2` mesh.

    Each small mesh gets one rung of a size ladder per group (with or
    without polylines), and its sample counts and (with polylines) its
    polyline point target all come from that rung.  Meshes without polylines
    skip the curve sampler, so their band width is drawn.  The figure mesh
    is the same in every seed: the preset (K_inf, r0) with the program's
    default band, samples and curves.
    """
    cells = [(sign, nc, edge) for sign in (1, 0, -1) for nc in (0, 4, 8) for edge in (False, True)]
    cells *= MESH_REPEATS
    groups = {False: [k for k, c in enumerate(cells) if c[1] == 0], True: [k for k, c in enumerate(cells) if c[1]]}
    rung = {}
    for members in groups.values():  # stride 5 spreads every family over the ladder
        rung.update((k, 5 * i % len(members)) for i, k in enumerate(members))
    jobs = []
    for k, (sign, n_curves, near_edge) in enumerate(cells):
        rng = job_rng(k)
        size = rung[k] / (len(groups[n_curves > 0]) - 1)
        K = _draw_curvature(rng, sign)
        r0 = rng.uniform(0.5, 2.0)
        points = MESH_POINTS[0] + size * (MESH_POINTS[1] - MESH_POINTS[0]) if n_curves else None
        samples = int(MESH_SAMPLES[0] + size * (MESH_SAMPLES[1] - MESH_SAMPLES[0]))
        section = {
            "K_inf": K,
            "r0": r0,
            "v_range": list(_band(rng, K, r0, near_edge, points)),
            "samples_u": samples,
            "samples_v": samples,
            "n_curves": n_curves,
        }
        jobs.append({"cmd": "rotsurf", "config": {"rotsurf": section}, "expect": dict(section)})
    figure = {**FIGURE_2, "samples_u": 128, "samples_v": 128, "n_curves": 8}
    jobs.append({"cmd": "rotsurf", "config": {"rotsurf": dict(FIGURE_2)}, "expect": figure})
    return jobs


def _grid_jobs(job_rng) -> list[dict]:
    """curvature and frames, half finite-difference and half closed-form patches.

    Each surface kind has 13 grids with sides n = 16 + 32 x^4 on the ladder
    x = 0, 1/12, ..., 1 (16 to 48), taken in turn by curvature and frames.
    """
    jobs = []
    lo, hi = GRID_SIDE
    for j, kind in enumerate(("graph", "paraboloid", "rotation", "rotation")):
        for k in range(GRID_RUNGS):
            cmd = ("curvature", "frames")[k % 2]
            n = int(lo + (hi - lo) * (k / (GRID_RUNGS - 1)) ** 4)
            rng = job_rng(j * GRID_RUNGS + k)
            if kind == "rotation":  # the three families in turn
                surface = _rotation_surface(rng, (1, 0, -1)[(j * GRID_RUNGS + k) % 3])
            else:
                g = Graph(rng) if kind == "graph" else Paraboloid()
                surface = g.surface(*_rect(rng, span=(-2.5, 2.5), width=(1.0, 4.0)))
            config = {"surface": surface, "grid": {"nu": n, "nv": n}}
            jobs.append({"cmd": cmd, "config": config, "expect": {"nu": n, "nv": n, "surface": surface}})
    return jobs


def _gb_rectangle(rng: random.Random, paraboloid: bool) -> dict:
    """Graph or paraboloid rectangle passing both screens (redrawn until it does)."""
    while True:
        g = Paraboloid() if paraboloid else Graph(rng)
        ur, vr = _rect(rng, span=(-2.0, 2.0), width=(0.3, 1.2))
        if _edges_transverse(g, ur, vr, 0.1) and _non_characteristic(g, ur, vr, 0.1):
            return {"surface": g.surface((-2.5, 2.5), (-2.5, 2.5)), "region": {"u": list(ur), "v": list(vr)}}


def _converge_config(rng: random.Random, kind: str) -> dict:
    if kind == "rotation":
        surface = _rotation_surface(rng, rng.choice((1, 0, -1)))
        lo, hi = surface["v_range"]
        point = [rng.uniform(0.0, TAU), rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))]
        # e^3(f_u) = r^2/2 > 0, so the u direction is always transverse
        return {"surface": surface, "point": point, "direction": [1.0, 0.0], "L": L_SWEEP}
    while True:
        g = _graph_or_paraboloid(rng, 0.5)
        angle = rng.choice((0.0, 0.25, 0.5, 0.75)) * math.pi
        direction = [round(math.cos(angle), 12), round(math.sin(angle), 12)]
        u, v = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        bu, bv = _tilt(g, u, v)
        if math.hypot(bu, bv) >= 0.1 and abs(direction[0] * bu + direction[1] * bv) >= 0.1:
            surface = g.surface((-2.5, 2.5), (-2.5, 2.5))
            return {"surface": surface, "point": [u, v], "direction": direction, "L": L_SWEEP}


def _gb_jobs(job_rng) -> list[dict]:
    """18 rectangles (every fourth on the paraboloid, the rest on graphs),
    18 closed rotation bands and 18 converge L-sweeps."""
    jobs = []
    for k in range(18):
        config = _gb_rectangle(job_rng(f"rectangle:{k}"), paraboloid=k % 4 == 0)
        jobs.append({"cmd": "gauss-bonnet", "config": config, "expect": {}})
    for k in range(18):
        surface = _rotation_surface(job_rng(f"band:{k}"), (1, 0, -1)[k % 3])
        region = {"u": [0.0, TAU], "v": list(surface["v_range"]), "closed_u": True}
        jobs.append({"cmd": "gauss-bonnet", "config": {"surface": surface, "region": region}, "expect": {}})
    for k in range(18):
        config = _converge_config(job_rng(f"converge:{k}"), "rotation" if k % 3 == 0 else "graph")
        jobs.append({"cmd": "converge", "config": config, "expect": {}})
    return jobs


_BUILDERS = {"mesh": _mesh_jobs, "grid": _grid_jobs, "gb": _gb_jobs}


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The job list of one pass of ``workload``; the same seed gives the same list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")

    def job_rng(key) -> random.Random:
        return _Jittered(f"{workload}:design:{key}", f"{workload}:{seed}:{key}")

    jobs = _BUILDERS[workload](job_rng)
    random.Random(f"{workload}:{seed}").shuffle(jobs)
    for index, job in enumerate(jobs):
        job["id"] = f"{workload}-{seed}-{index:03d}"
    return jobs
