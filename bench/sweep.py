"""Repeat the benchmark over seeds and summarise medians and spreads.

    python3 bench/sweep.py [--write bench/baseline.json]

For each workload it runs ``run.py`` once per seed 1..10 with tracing off
and once traced with seed 1, then reports per end-to-end metric the median
and the interquartile distance over the median (``statistics.quantiles``,
n=4) next to a third of the metric's bound from BENCHMARK.json.  With
``--write`` it also records the environment (Python, numpy, scipy, nproc,
CPU model), the traced per-layer values and the counts per mesh.  Run from
the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import measure  # noqa: E402

SEEDS = list(range(1, 11))
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": model,
    }


def per_mesh_counts(metrics: dict) -> dict:
    """Machine-independent counts per mesh of one traced mesh pass.

    Counts per GB report and per grid point are per-layer metrics already.
    """
    value = {name: m["value"] for name, m in metrics.items()}
    meshes = sum(1 for job in gen.make_jobs("mesh", TRACE_SEED) if job["cmd"] == "rotsurf")
    return {
        "polyline_points_per_sampled_mesh":
            value["rotsurf.polyline_points"] / value["rotsurf.sample_generating_curve.calls"],
        "r_family_calls_per_mesh": value["rotsurf.r_family.calls"] / meshes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", help="path of the JSON record")
    args = parser.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"seconds": bench["run_seconds"], "seeds": SEEDS, "traced_seed": TRACE_SEED, "workloads": {}}
    for workload in gen.WORKLOADS:
        results = [run_once(workload, seed, bench["run_seconds"], 0) for seed in SEEDS]
        entry = {
            "correct": [r["correct"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {},
        }
        print(f"{workload}: correct {entry['correct']} failed {entry['failed']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            spread = measure.relative_spread(values)
            unit = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = {
                "median": statistics.median(values), "unit": unit, "spread": spread, "values": values,
            }
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {name:16s} median {statistics.median(values):14.6g} {unit:6s} "
                  f"spread {spread:.4f}  bound/3 {bound / 3:.4f}  {flag}")
        traced = run_once(workload, TRACE_SEED, bench["run_seconds"], 1)
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        if workload == "mesh":
            entry["counts"] = per_mesh_counts(traced["metrics"])
            print(f"  counts {entry['counts']}")
        record["workloads"][workload] = entry
    if args.write:
        record["environment"] = environment()
        Path(args.write).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
