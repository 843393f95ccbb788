"""Benchmark of dpcvar's release throughput, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It imports dpcvar from ./src, makes one
untimed warm-up pass, runs whole rounds of the workload (see workloads.py)
until S seconds from the warm-up would be overshot by more than half a
round, checks every round's outputs against the oracles, and prints as its
last stdout line one JSON object with the keys correct, attempted, failed
and metrics.

--trace 0 reports the end-to-end metrics: setup_s (median of the set-up
samples), wall_s (median round), releases_per_s (releases per round over
that wall_s) and peak_rss_mib. --trace 1 alternates untraced rounds and
rounds traced by wrappers around each layer's public functions (spans.py),
and reports the per-layer metrics per traced round plus trace.overhead_s,
the median traced minus the median untraced wall_s. Spans of the last
traced round go to bench/.out/<workload>/trace-seed<N>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

from spans import LayerStats, Tracer, per_layer_units
from workloads import WORKLOADS, run_round, warm_up

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / ".out"

# set-up is sampled before the first round and after every round, so that a
# slow spell of the machine at one moment moves the median less
SETUP_SAMPLES = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "releases_per_s": "1/s", "peak_rss_mib": "MiB"}

_SETUP_CODE = (
    "import time, dpcvar.cli; dpcvar.cli.build_parser(); "
    "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
)


class SetupError(Exception):
    """The program cannot be found or imported in this checkout."""


def measure_setup(samples: int) -> list[float]:
    """Times from spawning an interpreter to a built dpcvar.cli parser.

    CLOCK_MONOTONIC is system-wide, so the child's reading after
    build_parser() can be subtracted from the parent's reading before the
    spawn.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(samples):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE], env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"cannot import dpcvar.cli from {SRC}: {proc.stderr.strip()}")
        times.append(float(proc.stdout) - start)
    return times


def load_program() -> types.SimpleNamespace:
    if not (SRC / "dpcvar" / "cli.py").is_file():
        raise SetupError(f"no dpcvar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import dpcvar.cli
    import dpcvar.harness

    if Path(dpcvar.cli.__file__).resolve().parent != SRC / "dpcvar":
        raise SetupError(f"imported dpcvar from {dpcvar.cli.__file__}, not {SRC}")
    return types.SimpleNamespace(cli=dpcvar.cli, harness=dpcvar.harness, numpy=numpy)


def peak_rss_mib() -> float:
    # the workload and its set-up children never run at once, so the peak is the larger
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024.0


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    program = load_program()
    out = OUT / workload.name
    out.mkdir(parents=True, exist_ok=True)
    setup = [] if trace else measure_setup(SETUP_SAMPLES + 1)[1:]  # the first compiles bytecode

    start = time.perf_counter()
    warm_up(workload, program, seed, out)
    rounds, durations, traced = [], [], []
    tracer, stats = (Tracer(), LayerStats()) if trace else (None, None)
    # whole rounds until the run would overshoot `seconds` by more than half a
    # round; a traced run alternates untraced and traced rounds
    while True:
        tracing = trace and len(rounds) % 2 == 1
        began = time.perf_counter()
        window = tracer.installed() if tracing else contextlib.nullcontext()
        rounds.append(run_round(workload, program, seed, out, window))
        durations.append(time.perf_counter() - began)
        traced.append(tracing)
        if tracing:
            last_spans = tracer.drain()
            stats.add(last_spans)
        elif not trace:
            setup += measure_setup(1)
        elapsed = time.perf_counter() - start
        if (not trace or any(traced)) and \
                elapsed + 0.5 * statistics.median(durations) >= seconds:
            break

    digests = {r.digest for r in rounds}
    problems = [p for r in rounds for p in r.problems]
    if len(digests) > 1:
        problems.append(f"outputs differ between rounds of one run: {sorted(digests)}")
    for problem in dict.fromkeys(problems):
        print(f"problem: {problem}", file=sys.stderr)
    print(f"rounds {len(rounds)} outputs sha256 {rounds[0].digest}")
    print("round wall_s " + " ".join(f"{r.wall_s:.4f}" for r in rounds))

    if trace:
        last_spans.write_jsonl(out / f"trace-seed{seed}.jsonl")
        median = {t: statistics.median(r.wall_s for r, u in zip(rounds, traced) if u == t)
                  for t in (False, True)}
        metrics = stats.metrics(tracer, overhead_s=median[True] - median[False])
        units = per_layer_units()
    else:
        # other tenants of the machine slow rounds down in spells of seconds;
        # the median round varied least from run to run, the fastest most
        wall_s = statistics.median(r.wall_s for r in rounds)
        metrics = {"setup_s": statistics.median(setup), "wall_s": wall_s,
                   "releases_per_s": workload.releases / wall_s,
                   "peak_rss_mib": peak_rss_mib()}
        units = END_TO_END_UNITS
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
