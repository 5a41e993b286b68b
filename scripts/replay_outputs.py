"""Replay the benchmark job lists and the figure meshes against two source trees.

    python scripts/replay_outputs.py OLD_SRC NEW_SRC [--seeds 1 2 3]

OLD_SRC and NEW_SRC are h1geom checkouts (or their ``src`` directories),
for example a ``git archive`` copy of a parent commit and the working tree.
For each tree one fresh interpreter imports h1geom from that tree and runs,
in-process through ``h1geom.cli.main``, every job that ``bench/gen.py``
lists for the ``mesh``, ``grid`` and ``gb`` workloads of each seed, then
``rotsurf --figure 1/2/3``.  Each run records its exit code, stdout,
stderr and the sha256 of every file it writes (the files ``bench/checks.py``
names).  The two trees run side by side, each in its own scratch directory
with the same relative paths, so their messages compare as text.

Every run whose record differs between the trees is listed, and the exit
status is 1 if any does.  The job lists are this checkout's ``bench/``,
imported and never written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mesh", "grid", "gb")
FIGURES = (1, 2, 3)
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def source_dir(tree: str) -> Path:
    """The directory holding the h1geom package of a checkout or of its src/."""
    path = Path(tree).resolve()
    for candidate in (path / "src", path):
        if (candidate / "h1geom" / "cli.py").is_file():
            return candidate
    raise SystemExit(f"error: no h1geom package under {path}")


def runs(seeds):
    """(key, argv, output paths) of every run, with paths relative to the scratch directory."""
    sys.path.insert(0, str(ROOT / "bench"))
    import checks
    import gen

    for workload in WORKLOADS:
        for seed in seeds:
            for job in gen.make_jobs(workload, seed):
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


def replay(tree: str, seeds, scratch: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(source_dir(tree)), PYTHONHASHSEED="0")
    env.update({name: "1" for name in SINGLE_THREAD})
    argv = [sys.executable, str(Path(__file__).resolve()), "--record", "--seeds", *map(str, seeds)]
    return subprocess.Popen(argv, cwd=scratch, env=env, stdout=subprocess.PIPE, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trees", nargs="*", metavar="SRC", help="the old and the new source tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        json.dump(record(args.seeds), sys.stdout)
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
    print(f"{len(new)} runs, {files} output files: {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
