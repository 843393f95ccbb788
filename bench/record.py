"""Run every workload on several seeds and write the results as one JSON file.

    python3 bench/record.py --out BENCH_1.json [--seeds 1-10]

Each run is `bench/run.py --trace 0` in a fresh process, for the
`run_seconds` of BENCHMARK.json. The file records the machine (nproc, Python
and numpy versions), every run's result line, and per workload the median and
quartiles of each end-to-end metric, the form in which a performance change
states its before and after figures.
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

import numpy

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = parser.parse_args(argv)
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    runs, summary = [], {}
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            argv_run = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(argv_run, capture_output=True, text=True,
                                  cwd=BENCH.parent, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, **result})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, json.dumps(result), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "runs": len(vals)}
    record = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "machine": platform.machine(),
        "seconds": seconds, "summary": summary, "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
