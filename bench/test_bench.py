"""Self-test of the benchmark's own arithmetic: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import measure  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_nearest_rank_percentile():
    values = [float(v) for v in range(1, 101)]  # 1..100
    assert measure.percentile(values, 50) == 50.0
    assert measure.percentile(values, 90) == 90.0
    assert measure.percentile(values, 100) == 100.0
    assert measure.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert measure.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_tail_needs_ten_samples_beyond():
    assert measure.samples_beyond(100, 90) == 10
    assert measure.samples_beyond(99, 90) == 9
    assert measure.samples_beyond(measure.MIN_JOBS * measure.MIN_PASSES, measure.TAIL_PERCENTILE) >= 10


def test_relative_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 4.0, 8.0, 16.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert measure.relative_spread(values) == (q3 - q1) / q2


def test_self_time_is_duration_minus_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    traced_leaf = tracer.timed("leaf", leaf)

    def middle():
        time.sleep(0.005)
        traced_leaf()
        traced_leaf()

    traced_middle = tracer.timed("middle", middle)
    tracer.timed("top", lambda: (traced_middle(), time.sleep(0.002)))()

    top = tracer.edges[("top", "<job>")]
    mid = tracer.edges[("middle", "top")]
    leaf_edge = tracer.edges[("leaf", "middle")]
    assert (top.calls, mid.calls, leaf_edge.calls) == (1, 1, 2)
    assert leaf_edge.self == pytest.approx(leaf_edge.total, abs=1e-12)
    assert mid.self == pytest.approx(mid.total - leaf_edge.total, abs=1e-12)
    assert top.self == pytest.approx(top.total - mid.total, abs=1e-12)
    assert mid.self >= 0.005 and top.self >= 0.002
    assert tracer.calls("leaf") == 2
    assert tracer.self_time("leaf") == pytest.approx(leaf_edge.total)


def test_self_time_survives_exceptions():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    traced = tracer.timed("boom", boom)
    with pytest.raises(RuntimeError):
        tracer.timed("outer", lambda: traced())()
    assert tracer.calls("boom") == 1 and tracer.calls("outer") == 1
    assert tracer.stack == [["<job>", tracer.stack[0][1]]]


def test_integrand_counted_once_at_the_outermost_integral():
    tracer = Tracer()

    def integrate(f, a, b):
        return sum(f(a + (b - a) * k / 4.0) for k in range(5))

    outer = tracer.timed("quadrature.integrate", integrate, before=tracer._count_integrand)
    # an inner quadrature call made from inside quadrature is not an integral of its own
    nested = tracer.timed("quadrature.gauss_segment", lambda f, a, b: outer(f, a, b), before=tracer._count_integrand)
    outer(lambda x: x, 0.0, 1.0)
    nested(lambda x: x, 0.0, 1.0)
    assert tracer.counts["quadrature.integrals"] == 2
    assert tracer.counts["quadrature.integrand_evals"] == 10


def test_install_patches_every_binding_and_uninstall_restores():
    import h1geom.curvature
    import h1geom.gaussbonnet
    import h1geom.surface

    original = h1geom.surface.adapted_frame
    tracer = Tracer()
    tracer.install()
    try:
        for module in (h1geom.surface, h1geom.curvature, h1geom.gaussbonnet):
            assert module.adapted_frame is not original
        from h1geom import catalog

        h1geom.surface.frame_data(catalog.paraboloid(), 0.5, 1.0)
    finally:
        tracer.uninstall()
    for module in (h1geom.surface, h1geom.curvature, h1geom.gaussbonnet):
        assert module.adapted_frame is original
    assert tracer.calls("surface.adapted_frame") == 6  # 1 + 1 + a 4-point stencil
    assert tracer.counts["hgroup.FrameVec.constructed"] > 0


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    first, again, other = gen.make_jobs(workload, 7), gen.make_jobs(workload, 7), gen.make_jobs(workload, 8)
    assert first == again
    assert first != other
    assert len(first) == len(other) >= measure.MIN_JOBS


def test_seeds_stay_near_the_design():
    design = random.Random("d")
    draws = [design.random() for _ in range(1000)]
    choices = [design.choice(range(7)) for _ in range(100)]
    for seed in ("a", "b"):
        jittered = gen._Jittered("d", seed)
        near = [jittered.random() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 and abs(x - d) <= gen.JITTER / 2 for x, d in zip(near, draws))
        assert near != draws
        assert [jittered.choice(range(7)) for _ in range(100)] == choices


def test_rotation_bands_lie_inside_the_domain():
    for seed in range(3):
        for workload in gen.WORKLOADS:
            for job in gen.make_jobs(workload, seed):
                config = job["config"]
                spec = config.get("rotsurf") or config.get("surface")
                if spec.get("kind", "rotation") != "rotation" or "v_range" not in spec:
                    continue  # a graph, or the program's default band
                lo, hi = gen.domain_bound(spec["K_inf"], spec["r0"])
                v0, v1 = spec["v_range"]
                assert lo < v0 < v1 < hi


def test_domain_bound_is_where_r_prime_reaches_one():
    for K, r0 in ((1.0, 1.0), (-2.0, 0.7), (0.3, 1.9)):
        lo, hi = gen.domain_bound(K, r0)
        k = math.sqrt(abs(K))
        if K > 0:
            r, A = r0 * math.sqrt(math.cos(k * hi)), -k * math.tan(k * hi)
        else:
            r, A = r0 * math.sqrt(math.cosh(k * hi)), k * math.tanh(k * hi)
        assert (0.5 * r * A) ** 2 == pytest.approx(1.0, rel=1e-9)
        assert lo == -hi
    assert gen.domain_bound(0.0, 2.0) == (1.0, math.inf)


def test_transversality_screen_rejects_a_tangent_edge():
    paraboloid = gen.Paraboloid()
    # on the paraboloid, e^3(f_v) = v - u/2 vanishes at (2, 1) on the edge u = 2
    assert not gen._edges_transverse(paraboloid, (0.5, 2.0), (0.2, 1.8), 1e-3)
    assert gen._edges_transverse(paraboloid, (1.0, 2.0), (-1.0, -0.5), 0.1)
    assert not gen._non_characteristic(paraboloid, (-0.5, 0.5), (-0.5, 0.5), 1e-3)


def _converge_verdict(tmp_path, err_K, err_kn):
    """Check a synthetic converge table with K_inf = 1 and k_n = 0."""
    L = gen.L_SWEEP
    rows = [f"{l!r},{1.0 + e!r},{e!r},{f!r},{abs(f)!r}" for l, e, f in zip(L, err_K, err_kn)]
    path = tmp_path / "converge.csv"
    path.write_text("\n".join([checks.HEADER_PREFIX + "converge", "L,K_L,abs_err_K,k_n_L,abs_err_k_n", *rows,
                                "# K_inf 1.0", "# k_n 0.0"]) + "\n")
    verdict = checks.Verdict()
    checks.check_converge({"config": {"L": L}}, [path], verdict)
    return verdict


def test_converge_rate_check(tmp_path):
    one_over_L = [1.0 / l for l in gen.L_SWEEP]
    root_L = [l**-0.5 for l in gen.L_SWEEP]
    assert _converge_verdict(tmp_path, one_over_L, root_L).ok
    assert _converge_verdict(tmp_path, one_over_L, one_over_L).ok  # tangent along f3
    # errors that reach zero have converged
    assert _converge_verdict(tmp_path, one_over_L[:3] + [0.0, 0.0], [0.0] * 5).ok
    # a large 1/L term flattens the last decade (slope -0.38 here) but fits
    crossing = [2.26 / math.sqrt(l) - 234.0 / l for l in gen.L_SWEEP]
    assert _converge_verdict(tmp_path, one_over_L, crossing).ok
    # an error that grows from zero in the last decade fails, for K_L as for k_n
    grown = one_over_L[:3] + [0.0, 1e-3]
    assert not _converge_verdict(tmp_path, grown, root_L).ok
    assert not _converge_verdict(tmp_path, one_over_L, root_L[:3] + [0.0, 1e-3]).ok
    # rates slower than the theory's fail
    assert not _converge_verdict(tmp_path, root_L, root_L).ok
    assert not _converge_verdict(tmp_path, one_over_L, [l**-0.3 for l in gen.L_SWEEP]).ok
    assert not _converge_verdict(tmp_path, one_over_L, [1e-3] * 5).ok
