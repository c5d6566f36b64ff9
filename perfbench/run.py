"""Run one replicacs benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload mc_fig1 --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs one unit of it at ``--jobs 1`` under the span
recorder and reports the per-layer metrics.  Both check the outputs and
exit 1 on a mismatch.  The last stdout line is the result object; the line
before it is the run manifest.  The result, manifest and spans are also
written to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy loads; pool workers inherit the setting
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3


def setup_seconds(name: str) -> float:
    """Median wall time of a fresh interpreter importing the CLI and warming up."""
    code = ("import sys; sys.path[:0] = [{!r}, {!r}]; import workloads; "
            "workloads.warm_up(workloads.WORKLOADS[{!r}])").format(str(BENCH_DIR), str(SRC), name)
    walls = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def manifest(seed: int, jobs: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (REPO / ".git").exists():  # a plain source checkout has no history to ask
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "replicacs" / "cli.py").is_file():
        print(f"replicacs sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    jobs = min(2, len(os.sched_getaffinity(0)))
    chk = wl.Checker(w)
    rec = None
    if args.trace:
        tally, metrics, out, rec = wl.traced_run(w, args.seed, jobs, chk)
    else:
        setup = setup_seconds(w.name)
        tally, metrics, out = wl.timed_run(w, args.seed, args.seconds, jobs, chk)
        metrics = {"setup_s": (setup, "s"), **metrics,
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}

    for problem in chk.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not chk.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = manifest(args.seed, jobs)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(
        json.dumps({"manifest": info, "problems": chk.problems, "result": result,
                    "call_wall_cpu_s": out.timings()}, indent=2) + "\n",
        encoding="utf-8")
    if rec is not None:
        rec.write_spans(stem.with_suffix(".spans.jsonl"))
    print(json.dumps({"manifest": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
