"""h1geom benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload {mesh,grid,gb} --seed N --seconds S --trace {0,1}

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric (see BENCHMARK.json).  The workload runs in its own fresh interpreter
(``bench/worker.py``) with one BLAS thread and a fixed hash seed, importing
h1geom from ``src/`` of the current directory.  Set-up time is the median of
several fresh interpreters importing ``h1geom.cli``.  A summary goes to
stdout; the last stdout line is the JSON result.  Exits non-zero, without a
result, when the program or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
RUN_TIMEOUT_S = 170.0
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for name in SINGLE_THREAD:
        env[name] = "1"
    return env


def setup_seconds(root: Path, env: dict, deadline: float) -> float:
    """Median wall time of a fresh interpreter importing h1geom and its CLI.

    The first probe is discarded: it may compile bytecode into the checkout.
    """
    probe = [sys.executable, "-c", "import h1geom, h1geom.cli"]
    times = []
    for _ in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        subprocess.run(probe, cwd=root, env=env, check=True, timeout=max(1.0, deadline - time.monotonic()))
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("mesh", "grid", "gb"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "h1geom" / "cli.py").is_file():
        print(f"error: no h1geom sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = child_env(root)
    out = root / ".bench_out" / f"{args.workload}-{args.seed}-{args.trace}"
    try:
        setup = None if args.trace else setup_seconds(root, env, deadline)
        worker = subprocess.run(
            [
                sys.executable, str(HERE / "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
            ],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if worker.returncode != 0:
        sys.stderr.write(worker.stderr)
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(worker.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if setup is not None:
        metrics = {"setup_s": {"value": setup, "unit": "s"}, **metrics}
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if {m["name"]: m["unit"] for m in declared} != {name: m["unit"] for name, m in metrics.items()}:
        print("error: metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 1
    if any(m["value"] is None for m in metrics.values()):
        print(f"error: non-finite metric in {metrics}", file=sys.stderr)
        return 1

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in result["info"].items():
        print(f"#   {key} = {value}")
    for failure in result["failures"]:
        print(f"#   FAILED {failure}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
