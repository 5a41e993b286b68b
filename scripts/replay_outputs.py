"""Replay the benchmark job lists and the figure meshes against two source trees.

    python scripts/replay_outputs.py OLD_SRC NEW_SRC [--seeds 1 2 3] [--time N]

OLD_SRC and NEW_SRC are h1geom checkouts (or their ``src`` directories),
for example a ``git archive`` copy of a parent commit and the working tree.
For each tree one fresh interpreter imports h1geom from that tree and runs,
in-process through ``h1geom.cli.main``, every job that ``bench/gen.py``
lists for the ``mesh``, ``grid`` and ``gb`` workloads of each seed, then
``rotsurf --figure 1/2/3``, ``gauss-bonnet --preset`` for each of the four
presets and ``check``, whose identities and presets no benchmark job runs.
Each run records its exit code, stdout, stderr and the sha256 of every
file it writes (the files ``bench/checks.py`` names, and each preset's
report).  The two trees run side by side, each in its own scratch directory
with the same relative paths, so their messages compare as text.

Every run whose record differs between the trees is listed, and the exit
status is 1 if any does.  The job lists are this checkout's ``bench/``,
imported and never written.

With ``--time N`` the byte check is followed by a lockstep timing.  Two
long-lived interpreters, one per tree, each hold a ``bench/worker.Runner``
per workload over the jobs of the seeds.  After one untimed warm-up pass
in each, every job runs in one tree and then in the other, the tree that
goes first alternating from job to job and, for each job, from pass to
pass, for N passes.  Per workload it
prints how many passes the new tree took less time on, the median ratio
of pass times (new over old), each tree's pass-time quartiles (first,
median, third: a gain claimed from the medians should exceed the old
tree's interquartile range) and each tree's ``job_p90_s`` (bench's
nearest-rank 90th percentile over every job execution).  Both trees see
the same machine state at almost the same moment, so drifts of the
machine's speed, which can move separate runs of one tree by more than
the change under test, fall on both sides alike.  The exit status is the
byte check's.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mesh", "grid", "gb")
FIGURES = (1, 2, 3)
GB_PRESETS = ("plane-annulus", "band-k1", "band-k0", "band-km1")
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def source_dir(tree: str) -> Path:
    """The directory holding the h1geom package of a checkout or of its src/."""
    path = Path(tree).resolve()
    for candidate in (path / "src", path):
        if (candidate / "h1geom" / "cli.py").is_file():
            return candidate
    raise SystemExit(f"error: no h1geom package under {path}")


def workload_jobs(workload: str, seeds) -> list[dict]:
    import gen

    return [job for seed in seeds for job in gen.make_jobs(workload, seed)]


def runs(seeds):
    """(key, argv, output paths) of every run, with paths relative to the scratch directory."""
    import checks

    for workload in WORKLOADS:
        for job in workload_jobs(workload, seeds):
            config = Path("cfg") / f"{job['id']}.json"
            config.parent.mkdir(exist_ok=True)
            config.write_text(json.dumps(job["config"], sort_keys=True))
            stem = Path("out") / job["id"]
            paths = checks.output_paths(job, stem)
            argv = [job["cmd"], "--config", str(config)]
            argv += ["--out-prefix", str(stem)] if job["cmd"] == "rotsurf" else ["--out", str(paths[0])]
            yield job["id"], argv, paths
    for figure in FIGURES:
        stem = Path("out") / f"figure-{figure}"
        argv = ["rotsurf", "--figure", str(figure), "--out-prefix", str(stem)]
        yield f"figure-{figure}", argv, [stem.with_suffix(".obj"), stem.parent / (stem.name + "_profile.csv")]
    for preset in GB_PRESETS:
        report = Path("out") / f"preset-{preset}.json"
        yield f"preset-{preset}", ["gauss-bonnet", "--preset", preset, "--out", str(report)], [report]
    yield "check", ["check"], []


def record(seeds) -> dict:
    """Run everything with the h1geom on sys.path; one record per run."""
    from h1geom import cli

    Path("out").mkdir()
    records = {}
    for key, argv, paths in runs(seeds):
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is recorded as the run's result, not raised
            code = traceback.format_exc().strip().splitlines()[-1]
        files = {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in paths if path.exists()}
        records[key] = {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "sha256": files}
    return records


def replay(tree: str, seeds, scratch: Path, mode: str = "--record") -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(source_dir(tree)), PYTHONHASHSEED="0")
    env.update({name: "1" for name in SINGLE_THREAD})
    argv = [sys.executable, str(Path(__file__).resolve()), mode, "--seeds", *map(str, seeds)]
    stdin = subprocess.PIPE if mode == "--serve" else None
    return subprocess.Popen(argv, cwd=scratch, env=env, stdin=stdin, stdout=subprocess.PIPE, text=True)


def serve(seeds) -> None:
    """Hold one bench Runner per workload; run each "WORKLOAD INDEX" line of stdin, answer its wall time."""
    import worker
    from h1geom import cli

    runners = {workload: worker.Runner(cli, workload_jobs(workload, seeds), Path("timing") / workload) for workload in WORKLOADS}
    for line in sys.stdin:
        workload, index = line.split()
        runner = runners[workload]
        code, wall, _ = runner.execute(runner.argv[int(index)])
        print(json.dumps([code, wall]), flush=True)


def _quartiles(values) -> list[float]:
    """First quartile, median and third quartile, interpolated between the sorted values."""
    values = list(values)
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def lockstep(trees, seeds, passes: int, dirs) -> None:
    """Time every job of each workload in both trees in lockstep and print one line per workload."""
    import measure

    procs = [replay(tree, seeds, work, "--serve") for tree, work in zip(trees, dirs)]

    def run(side: int, workload: str, index: int) -> float:
        procs[side].stdin.write(f"{workload} {index}\n")
        procs[side].stdin.flush()
        return json.loads(procs[side].stdout.readline())[1]

    try:
        for workload in WORKLOADS:
            jobs = range(len(workload_jobs(workload, seeds)))
            for side in (0, 1):  # warm-up: lazy imports and first-call caches
                for index in jobs:
                    run(side, workload, index)
            pass_times, walls = ([], []), ([], [])
            for number in range(passes):
                totals = [0.0, 0.0]
                for index in jobs:
                    first = (number + index) % 2  # alternates from job to job and, for each job, from pass to pass
                    for side in (first, 1 - first):
                        wall = run(side, workload, index)
                        totals[side] += wall
                        walls[side].append(wall)
                for side in (0, 1):
                    pass_times[side].append(totals[side])
            won = sum(new < old for old, new in zip(*pass_times))
            ratio = statistics.median(new / old for old, new in zip(*pass_times))
            quartiles = ["/".join(f"{q:.4f}" for q in _quartiles(times)) for times in pass_times]
            p90 = [measure.percentile(w, measure.TAIL_PERCENTILE) for w in walls]
            print(
                f"{workload}: new faster in {won} of {passes} passes, median pass time ratio new/old {ratio:.3f}, "
                f"pass time s q1/median/q3 old {quartiles[0]} new {quartiles[1]}, "
                f"job_p90_s old {p90[0]:.5f} new {p90[1]:.5f}"
            )
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trees", nargs="*", metavar="SRC", help="the old and the new source tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--time", type=int, default=0, metavar="N", help="then time every job in lockstep for N passes")
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "bench"))  # gen, checks, measure and worker, imported and never written
    if args.record:
        json.dump(record(args.seeds), sys.stdout)
        return 0
    if args.serve:
        serve(args.seeds)
        return 0
    if len(args.trees) != 2:
        parser.error("give two source trees, OLD_SRC and NEW_SRC")

    with tempfile.TemporaryDirectory(prefix="replay-") as scratch:
        dirs = [Path(scratch) / side for side in ("old", "new")]
        procs = []
        for tree, work in zip(args.trees, dirs):
            work.mkdir()
            procs.append(replay(tree, args.seeds, work))
        outputs = [proc.communicate()[0] for proc in procs]
        if any(proc.returncode != 0 for proc in procs):
            print("error: a replay process failed", file=sys.stderr)
            return 2
        old, new = (json.loads(text) for text in outputs)

        differ = 0
        for key in sorted(old.keys() | new.keys()):
            fields = [name for name in ("exit", "stdout", "stderr", "sha256") if old.get(key, {}).get(name) != new.get(key, {}).get(name)]
            if fields:
                differ += 1
                print(f"DIFFERS {key}: {', '.join(fields)}")
        files = sum(len(entry["sha256"]) for entry in new.values())
        print(f"{len(new)} runs, {files} output files: {differ} differ", flush=True)
        if args.time > 0:
            lockstep(args.trees, args.seeds, args.time, dirs)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
