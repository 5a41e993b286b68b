"""Fresh-process wall times of h1geom's one-shot commands on two source trees.

    python scripts/startup_times.py OLD_SRC NEW_SRC [--out FILE]

OLD_SRC and NEW_SRC are h1geom checkouts (or their ``src`` directories),
for example a ``git archive`` copy of a parent commit and the working tree.
Each case is timed as one fresh interpreter, from start to exit, that
imports h1geom from the tree and runs the command as the ``h1geom``
console script does, in a scratch directory per tree, with one BLAS thread
and a fixed hash seed:

- ``import``: ``import h1geom, h1geom.cli`` (the set-up probe of bench/run.py);
- ``curvature`` and ``frames`` on ``--surface paraboloid``;
- ``config-error``: ``curvature --surface paraboloid --nu 0`` (exit 1);
- ``gauss-bonnet --preset band-k1`` (a rotation band);
- ``gauss-bonnet-graph``: ``gauss-bonnet --surface paraboloid --region 1,2,-1,-0.5`` (a graph chart);
- ``rotsurf --figure 2``;
- ``check`` (the self-check suite);
- ``converge-rotation``: ``converge --kinf 1 --point 0.3,0.2 --direction 1,0.5`` (a rotation chart).

Before any timing, each tree's h1geom is compiled into a bytecode cache
(``PYTHONPYCACHEPREFIX``) under the script's scratch directory, with
``PYTHONDONTWRITEBYTECODE`` unset for the child processes, so that no timed
process compiles h1geom from source, as an installed h1geom does not; the
table says whether h1geom.cli's bytecode was found cached.  Every case then
runs once per tree untimed, which caches the bytecode of what else it
imports.  Then each of REPEATS rounds times both trees, the old one first
in even rounds and the new one first in odd ones.  A run that ends in another
exit code than the case expects stops the script with status 1.  A table
goes to stdout, and the JSON record (medians, quartiles and every run, in
seconds) to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from replay_outputs import SINGLE_THREAD, source_dir

REPEATS = 11
MAIN = "import sys; from h1geom.cli import main; sys.exit(main(sys.argv[1:]))"
# (name, interpreter arguments, expected exit code)
CASES = (
    ("import", ["-c", "import h1geom, h1geom.cli"], 0),
    ("curvature", ["-c", MAIN, "curvature", "--surface", "paraboloid"], 0),
    ("frames", ["-c", MAIN, "frames", "--surface", "paraboloid"], 0),
    ("config-error", ["-c", MAIN, "curvature", "--surface", "paraboloid", "--nu", "0"], 1),
    ("gauss-bonnet", ["-c", MAIN, "gauss-bonnet", "--preset", "band-k1"], 0),
    ("gauss-bonnet-graph", ["-c", MAIN, "gauss-bonnet", "--surface", "paraboloid", "--region", "1,2,-1,-0.5"], 0),
    ("rotsurf", ["-c", MAIN, "rotsurf", "--figure", "2"], 0),
    ("check", ["-c", MAIN, "check"], 0),
    ("converge-rotation", ["-c", MAIN, "converge", "--kinf", "1", "--point", "0.3,0.2", "--direction", "1,0.5"], 0),
)


def timed_run(args, expected: int, cwd: Path, env: dict) -> float:
    start = time.perf_counter()
    run = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, timeout=300)
    elapsed = time.perf_counter() - start
    if run.returncode != expected:
        sys.stderr.write(run.stderr.decode(errors="replace"))
        raise SystemExit(f"error: {args[2:] or args} exited {run.returncode}, expected {expected}")
    return elapsed


def compile_bytecode(src: Path, env: dict) -> bool:
    """Compile h1geom under src into env's bytecode cache; whether h1geom.cli then imports from cached bytecode."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src / "h1geom")], env=env, check=True, capture_output=True)
    probe = "import importlib.util, os, h1geom.cli; print(os.path.exists(importlib.util.cache_from_source(h1geom.cli.__file__)))"
    run = subprocess.run([sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True)
    return run.stdout.split() == ["True"]


def summary(times) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "runs": [round(t, 4) for t in times]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trees", nargs=2, metavar="SRC", help="the old and the new source tree")
    parser.add_argument("--out", type=Path, help="write the JSON record here")
    args = parser.parse_args(argv)

    times = {name: ([], []) for name, _, _ in CASES}
    with tempfile.TemporaryDirectory(prefix="startup-") as scratch:
        envs, cached = [], []
        for tree in args.trees:
            env = dict(os.environ, PYTHONPATH=str(source_dir(tree)), PYTHONHASHSEED="0")
            env.update({name: "1" for name in SINGLE_THREAD}, PYTHONPYCACHEPREFIX=str(Path(scratch) / "pycache"))
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            envs.append(env)
            cached.append(compile_bytecode(source_dir(tree), env))
        print(f"bytecode cached: old {cached[0]}, new {cached[1]}")
        dirs = [Path(scratch) / "old", Path(scratch) / "new"]
        for work in dirs:
            work.mkdir()
        for name, case_args, expected in CASES:
            for side in (0, 1):
                timed_run(case_args, expected, dirs[side], envs[side])
            for repeat in range(REPEATS):
                for side in (0, 1) if repeat % 2 == 0 else (1, 0):
                    times[name][side].append(timed_run(case_args, expected, dirs[side], envs[side]))

    import numpy

    record = {
        "what": "fresh-process wall time from interpreter start to exit, seconds",
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpus": os.cpu_count(),
        },
        "bytecode_cached": {"old": cached[0], "new": cached[1]},
        "repeats": REPEATS,
        "cases": {},
    }
    print(f"{'case':18s} {'old':>14s} {'new':>14s}  ratio (medians)")
    for name, case_args, expected in CASES:
        old, new = (summary(side) for side in times[name])
        record["cases"][name] = {
            "argv": case_args[2:] if case_args[1] == MAIN else case_args,
            "exit": expected,
            "old": old,
            "new": new,
            "ratio": round(new["median"] / old["median"], 3),
        }
        print(f"{name:18s} {old['median']:>13.3f}s {new['median']:>13.3f}s  {new['median'] / old['median']:.2f}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
