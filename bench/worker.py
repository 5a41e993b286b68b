"""One workload in one fresh process: run the job list, check, report.

Started by ``run.py`` (never imported by it).  The job list of the seed is
one *pass*, under a third of the declared run length.  The untraced run
repeats whole passes, one client in a closed loop, and stops before a pass
that would take the timed job wall time past ``--seconds``, once
``measure.MIN_PASSES`` passes ran.  Throughput and CPU time per job are
medians over passes, so a burst of noise in one pass does not move them;
latency percentiles are over every execution.  Counts are per pass, so
they repeat exactly for a seed.  The traced run times one untraced pass,
then one pass with ``tracer.Tracer`` installed, and reports per-layer
metrics per pass.

Each job calls ``h1geom.cli.main(argv)`` in-process.  Output checks run
outside the timed region, on a job's first execution; later executions
must write byte-identical files, and one seeded job is re-run to other
paths and byte-compared.  The last stdout line is a JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import gen
import measure
from tracer import Tracer

HARD_CAP_S = 120.0  # stop repeating passes past this much real time


def _load_program(root: Path):
    try:
        import h1geom
        from h1geom import cli
    except ImportError as exc:
        raise SystemExit(f"cannot import h1geom from {root / 'src'}: {exc}")
    location = Path(h1geom.__file__).resolve()
    if (root / "src").resolve() not in location.parents:
        raise SystemExit(f"h1geom imported from {location}, not from {root / 'src'}")
    return cli


class Runner:
    def __init__(self, cli, jobs: list[dict], out: Path):
        self.cli = cli
        self.jobs = jobs
        self.out = out
        self.argv = []
        self.stems = []
        (out / "cfg").mkdir(parents=True)
        for job in jobs:
            config = out / "cfg" / f"{job['id']}.json"
            config.write_text(json.dumps(job["config"], sort_keys=True))
            stem = out / job["id"]
            self.stems.append(stem)
            self.argv.append(self._argv(job, config, stem))
        self.first: dict[int, dict] = {}  # job index -> verdict facts of its first execution
        self.failures: list[str] = []
        self.irreproducible = False

    @staticmethod
    def _argv(job, config: Path, stem: Path) -> list[str]:
        argv = [job["cmd"], "--config", str(config)]
        if job["cmd"] == "rotsurf":
            return argv + ["--out-prefix", str(stem)]
        return argv + ["--out", str(checks.output_paths(job, stem)[0])]

    def execute(self, argv):
        """Run one CLI job; returns (exit code or error text, wall s, cpu s)."""
        sink = io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed job, reported with its traceback
            code = traceback.format_exc(limit=3).strip().splitlines()[-1]
        return code, time.perf_counter() - wall0, time.process_time() - cpu0

    @staticmethod
    def digest(paths) -> tuple[str, int]:
        sha, size = hashlib.sha256(), 0
        for path in paths:
            try:
                data = path.read_bytes()
            except OSError:
                data = b""
            sha.update(data)
            size += len(data)
        return sha.hexdigest(), size

    def settle(self, index: int, code) -> bool:
        """Check (first execution) or byte-compare (later ones); True if passed."""
        job = self.jobs[index]
        paths = checks.output_paths(job, self.stems[index])
        digest, size = self.digest(paths)
        first = self.first.get(index)
        if first is None:
            verdict = checks.check_job(job, self.stems[index], code)
            self.first[index] = first = {
                "ok": verdict.ok,
                "valid": verdict.valid,
                "digest": digest,
                "bytes": size,
                "err_ratio": verdict.err_ratio,
                "grid_points": verdict.grid_points,
                "reports": verdict.reports,
            }
            if not verdict.ok:
                self.failures.append(f"{job['id']} {job['cmd']}: {'; '.join(verdict.messages)}")
            return verdict.ok
        if code != 0:
            self.failures.append(f"{job['id']} {job['cmd']}: exit {code} on a repeat")
            return False
        if digest != first["digest"]:
            self.failures.append(f"{job['id']} {job['cmd']}: output bytes changed on a repeat")
            self.irreproducible = True
            return False
        return first["ok"]

    def run_pass(self, samples: list, cmd_hook=None) -> float:
        """One execution of every job; returns the summed job wall time."""
        total = 0.0
        for index, job in enumerate(self.jobs):
            if cmd_hook is not None:
                cmd_hook(job["cmd"])
            code, wall, cpu = self.execute(self.argv[index])
            samples.append((wall, cpu, self.settle(index, code)))
            total += wall
        return total

    def rerun_compare(self, seed: int) -> bool:
        """Re-run one seeded job to other paths; its files must match byte for byte."""
        index = random.Random(seed).randrange(len(self.jobs))
        job = self.jobs[index]
        stem = self.out / f"rerun-{job['id']}"
        config = self.out / "cfg" / f"{job['id']}.json"
        code, _, _ = self.execute(self._argv(job, config, stem))
        same = code == 0 and all(
            a.read_bytes() == b.read_bytes()
            for a, b in zip(checks.output_paths(job, self.stems[index]), checks.output_paths(job, stem))
        )
        if not same:
            self.failures.append(f"{job['id']} {job['cmd']}: re-run to other paths gave other bytes")
            self.irreproducible = self.irreproducible or code == 0
        return same

    def valid(self) -> bool:
        """Every output well formed and reproducible (failed jobs aside)."""
        return not self.irreproducible and all(fact["valid"] for fact in self.first.values())

    # -- pass-level facts -------------------------------------------------------

    def per_pass(self, key: str) -> float:
        return sum(fact[key] for fact in self.first.values())

    def err_ratio_max(self) -> float:
        return max(fact["err_ratio"] for fact in self.first.values())


def untraced(runner: Runner, seconds: float, seed: int) -> dict:
    samples: list = []
    start = time.perf_counter()
    timed = 0.0
    throughput, cpu_per_job = [], []
    while True:
        first = len(samples)
        pass_wall = runner.run_pass(samples)
        timed += pass_wall
        this_pass = samples[first:]
        throughput.append(sum(1 for s in this_pass if s[2]) / pass_wall)
        cpu_per_job.append(sum(s[1] for s in this_pass) / len(this_pass))
        mean_pass = timed / len(throughput)
        if len(throughput) >= measure.MIN_PASSES and timed + mean_pass > seconds:
            break
        if time.perf_counter() - start > HARD_CAP_S:
            break
    walls = [s[0] for s in samples]
    passed = sum(1 for s in samples if s[2])
    rerun_ok = runner.rerun_compare(seed)
    attempted = len(samples) + 1
    failed = attempted - passed - (1 if rerun_ok else 0)
    metrics = {
        "jobs_per_s": (statistics.median(throughput), "1/s"),
        "job_p50_s": (measure.percentile(walls, 50), "s"),
        "job_p90_s": (measure.percentile(walls, measure.TAIL_PERCENTILE), "s"),
        "cpu_s_per_job": (statistics.median(cpu_per_job), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "output_bytes": (runner.per_pass("bytes"), "bytes"),
        "pass_ratio": (passed / len(samples), "ratio"),
    }
    info = {
        "samples": len(samples),
        "samples_beyond_p90": measure.samples_beyond(len(samples), measure.TAIL_PERCENTILE),
        "passes": len(throughput),
        "jobs_per_pass": len(runner.jobs),
        "timed_s": timed,
        "err_ratio_max": runner.err_ratio_max(),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def traced(runner: Runner, seed: int) -> dict:
    untraced_samples: list = []
    plain_wall = runner.run_pass(untraced_samples)
    tracer = Tracer()
    tracer.install()
    traced_samples: list = []
    try:
        traced_wall = runner.run_pass(traced_samples, cmd_hook=lambda cmd: setattr(tracer, "cmd", cmd))
    finally:
        tracer.uninstall()
    rerun_ok = runner.rerun_compare(seed)
    samples = untraced_samples + traced_samples
    passed = sum(1 for s in samples if s[2])
    attempted = len(samples) + 1
    failed = attempted - passed - (1 if rerun_ok else 0)

    c = tracer.counts
    grid_points = sum(f["grid_points"] for f in runner.first.values())
    reports = sum(f["reports"] for f in runner.first.values())
    integrals = c["quadrature.integrals"]
    thetac_calls = tracer.calls("rotsurf.ThetaC")
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    for name in (
        "expr.eval_dual",
        "surface.adapted_frame",
        "surface.frame_derivatives",
        "surface.pushforward_frame",
        "curvature.transverse_sample",
        "gaussbonnet.gb_residual",
        "quadrature.integrate_2d",
        "quadrature.integrate",
        "quadrature.gauss_segment",
        "rotsurf.sample_generating_curve",
        "rotsurf.r_family",
    ):
        put(f"{name}.calls", tracer.calls(name), "count")
        put(f"{name}.self_s", tracer.self_time(name), "s")
    for name in (
        "gaussbonnet.convergence_study",
        "rotsurf.build_mesh",
        "export.write_obj",
        "export.write_csv",
        "export.write_json_report",
        "cli.main",
    ):
        put(f"{name}.self_s", tracer.self_time(name), "s")
    put("hgroup.Point.constructed", c["hgroup.Point.constructed"], "count")
    put("hgroup.FrameVec.constructed", c["hgroup.FrameVec.constructed"], "count")
    grid_calls = tracer.calls_in("surface.adapted_frame", ("curvature", "frames"))
    report_calls = tracer.calls_in("surface.adapted_frame", ("gauss-bonnet",))
    put("surface.adapted_frame.per_point", grid_calls / grid_points if grid_points else 0.0, "calls/point")
    put("surface.adapted_frame.per_report", report_calls / reports if reports else 0.0, "calls/report")
    put("quadrature.integrand_evals", c["quadrature.integrand_evals"], "count")
    put(
        "quadrature.integrand_evals_per_integral",
        c["quadrature.integrand_evals"] / integrals if integrals else 0.0,
        "evals/integral",
    )
    put("quadrature.errors", c["quadrature.errors"], "count")
    put("rotsurf.polyline_points", c["rotsurf.polyline_points"], "count")
    put("rotsurf.ThetaC.calls", thetac_calls, "count")
    put("rotsurf.ThetaC.hit_ratio", c["rotsurf.ThetaC.hits"] / thetac_calls if thetac_calls else 0.0, "ratio")
    put("export.bytes", c["export.bytes"], "bytes")
    put("fail_ratio", failed / attempted, "ratio")
    put("err_ratio_max", runner.err_ratio_max(), "ratio")
    put("trace.untraced_pass_s", plain_wall, "s")
    put("trace.overhead_s", traced_wall - plain_wall, "s")
    info = {
        "jobs_per_pass": len(runner.jobs),
        "grid_points_per_pass": grid_points,
        "reports_per_pass": reports,
        "traced_pass_s": traced_wall,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="scratch directory for configs and outputs")
    args = parser.parse_args(argv)

    root = Path.cwd()
    cli = _load_program(root)
    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    runner = Runner(cli, gen.make_jobs(args.workload, args.seed), out)
    if args.trace:
        result = traced(runner, args.seed)
    else:
        result = untraced(runner, args.seconds, args.seed)
    result["correct"] = runner.valid()
    result["failures"] = runner.failures[:20]
    result["metrics"] = {
        name: {"value": value if math.isfinite(value) else None, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
