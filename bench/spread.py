#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over seeds.

Runs the benchmark command of BENCHMARK.json once per seed on each
workload, untraced, and reports for every end-to-end metric the median of
the runs and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  A spread
at or below a third of the metric's bound is steady; above the bound, two
sets of runs could not be told apart by it.  ``setup_s`` is reported but
has no spread requirement.

    python3 bench/spread.py --seeds 1-10
    python3 bench/spread.py --seeds 1-5 --workloads lockstep --out spread.json

``--out`` writes every run's metrics, the summary and the environment
(including CPU cache sizes) as JSON; bench/baseline.json was written so.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cpu_caches() -> dict:
    """Cache sizes of CPU 0 as the kernel lists them, e.g. {"L1d": "48K"}."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[f"L{level}{suffix}"] = size
    return caches


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,7,9'")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write runs and summary as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, summary, steady = {}, {}, True
    environment = None
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in _seeds(args.seeds):
            started = time.time()
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
            environment = environment or info["environment"]
            values = {k: m["value"] for k, m in result["metrics"].items()}
            runs[workload].append({"seed": seed, "started": started, "correct": result["correct"],
                                   "attempted": result["attempted"], "failed": result["failed"],
                                   "digests": info["digests"], "metrics": values,
                                   "raw": {"wall_s": info["wall_s"], "cpu_s": info["cpu_s"],
                                           "reference_wall_s": statistics.median(
                                               info["reference_wall_s"])}})
            print(f"{workload:9s} seed {seed:3d} correct={result['correct']} "
                  + " ".join(f"{k}={v:.5g}" for k, v in values.items()), flush=True)
        summary[workload] = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric] for r in runs[workload]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            summary[workload][metric] = {"median": median, "q1": q1, "q3": q3,
                                         "spread": spread, "bound": bound}
            ok = metric == "setup_s" or spread <= bound / 3
            steady &= ok
            print(f"{workload:9s} {metric:14s} median {median:.5g} spread {spread:.4f} "
                  f"bound {bound} {'steady' if ok else 'NOT STEADY'}", flush=True)
        steady &= all(r["correct"] for r in runs[workload])
    if args.out:
        environment = dict(environment or {}, caches=cpu_caches())
        Path(args.out).write_text(json.dumps(
            {"environment": environment, "seconds": args.seconds,
             "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
