"""Self-tests of the benchmark: span arithmetic, oracles, metric names.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent
run.load_program()  # puts the checkout's src/ first on sys.path
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---- self time -------------------------------------------------------------

def test_self_time_of_nested_spans():
    # root [0,10] > a [1,4] > c [2,3]; root > b [5,6]
    ids, parents = [0, 1, 2, 3], [-1, 0, 0, 1]
    starts, ends = [0.0, 1.0, 5.0, 2.0], [10.0, 4.0, 6.0, 3.0]
    assert spans.self_times(ids, parents, starts, ends).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # children on two threads overlap on [3,5]; the last one runs past the parent
    ids, parents = [7, 3, 5, 9], [-1, 7, 7, 7]
    starts, ends = [0.0, 1.0, 3.0, 9.0], [10.0, 5.0, 8.0, 12.0]
    got = spans.self_times(ids, parents, starts, ends)
    assert got[0] == pytest.approx(10.0 - (7.0 + 1.0))
    assert got[1:].tolist() == [4.0, 5.0, 3.0]


def test_self_time_matches_an_interval_union_on_random_trees():
    rng = np.random.default_rng(0)
    parents_of = {i: [] for i in range(6)}
    ids, parents, starts, ends = list(range(6)), [-1] * 6, [], []
    for i in range(6):
        a = float(rng.uniform(0, 50))
        starts.append(a)
        ends.append(a + float(rng.uniform(1, 50)))
    for i in range(6, 200):
        p = int(rng.integers(0, 6))
        a = float(rng.uniform(starts[p] - 2, ends[p]))
        ids.append(i)
        parents.append(p)
        starts.append(a)
        ends.append(a + float(rng.uniform(0, 8)))
        parents_of[p].append(i)

    def union(p):
        total, reach = 0.0, -math.inf
        for a, b in sorted((max(starts[c], starts[p]), min(ends[c], ends[p]))
                           for c in parents_of[p]):
            if b > max(a, reach):
                total += b - max(a, reach)
            reach = max(reach, b)
        return total

    got = spans.self_times(ids, parents, starts, ends)
    want = [ends[i] - starts[i] - union(i) for i in range(6)]
    assert got[:6] == pytest.approx(want, abs=1e-9)
    assert got[6:] == pytest.approx(np.subtract(ends, starts)[6:], abs=1e-12)


def test_self_time_treats_unknown_parent_as_root():
    got = spans.self_times([4, 5], [99, 4], [0.0, 1.0], [2.0, 1.5])
    assert got.tolist() == [1.5, 0.5]


def test_tracer_links_worker_spans_to_the_pool_span():
    tracer = spans.Tracer()
    leaf = tracer.wrap("risk.leaf", lambda x: x + 1)
    outer = tracer.wrap("harness.outer", lambda xs: [leaf(x) for x in xs])

    def run_cells(jobs):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(outer, jobs))

    pooled = tracer._wrap_pool(run_cells)
    main = tracer.wrap("cli.main", lambda: pooled([[1, 2], [3]]))
    assert main() == [[2, 3], [4]]
    got = tracer.drain()
    name = {i: got.names[n] for i, n in zip(got.ids.tolist(), got.name_ids.tolist())}
    parent = dict(zip(got.ids.tolist(), got.parents.tolist()))
    by_name = {}
    for i, n in name.items():
        by_name.setdefault(n, []).append(i)
    (root,), (pool_span,) = by_name["cli.main"], by_name["harness.run_cells"]
    assert parent[root] == -1 and parent[pool_span] == root
    assert all(parent[i] == pool_span for i in by_name["harness.outer"])
    assert all(name[parent[i]] == "harness.outer" for i in by_name["risk.leaf"])
    self_s = spans.self_times(got.ids, got.parents, got.starts, got.ends)
    assert np.all(self_s >= -1e-12)
    assert tracer.drain().ids.size == 0


def test_round_traces_the_timed_commands_only(tmp_path):
    tracer = spans.Tracer()

    def plain(argv):
        return 0

    program = types.SimpleNamespace(cli=types.SimpleNamespace(main=plain))

    class Probe(workloads.Workload):
        def commands(self, seed, out):
            return [["probe"]]

        def outputs(self, out, stdouts):
            return {}

        def check(self, outputs, stdouts):
            return []

        def extra_operations(self, program):
            program.cli.main(["extra"])
            return [True]

    class Window:
        def __enter__(self):
            program.cli.main = tracer.wrap("cli.main", plain)

        def __exit__(self, *exc):
            program.cli.main = plain

    got = workloads.run_round(Probe(), program, 1, tmp_path, Window())
    assert (got.attempted, got.failed) == (2, 0)
    assert tracer.drain().ids.size == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_warm_up_changes_only_its_flags(name, tmp_path):
    w = workloads.WORKLOADS[name]
    timed, warm = w.commands(1, tmp_path), w.warmup_commands(1, tmp_path)
    changed = {}
    for a, b in zip(timed, warm):
        assert len(a) == len(b)
        changed.update({a[i - 1]: y for i, (x, y) in enumerate(zip(a, b)) if x != y})
    assert len(timed) == len(warm) and changed == w.warmup_flags


def test_tracer_restores_every_patched_attribute():
    import dpcvar.harness as harness
    from dpcvar.mechanisms import RandomStream
    from dpcvar.risk import BoundedLossVector

    before = (harness.private_scalar_cvar, vars(RandomStream)["generator"],
              vars(BoundedLossVector)["__init__"], harness._convex_cell)
    tracer = spans.Tracer()
    tracer.install()
    assert harness.private_scalar_cvar is not before[0]
    tracer.uninstall()
    after = (harness.private_scalar_cvar, vars(RandomStream)["generator"],
             vars(BoundedLossVector)["__init__"], harness._convex_cell)
    assert after == before


# ---- oracles ---------------------------------------------------------------

HEADER = "kind,n,tau,eps,delta,M,d,B,G,D,reps,mean_excess,stderr,regime,seed"


def _csv(rows) -> str:
    return "\n".join([HEADER] + [",".join(map(str, r)) for r in rows]) + "\n"


def _slopes(variable, xs, ys) -> str:
    exponent = oracles.loglog_exponent(xs, ys)
    return f"variable,exponent,intercept,r2,n_points\n{variable},{exponent!r},0,1,{len(xs)}\n"


def _rate_outputs(w, rows, slope_text):
    return {f"{w.stem}.csv": _csv(rows), f"{w.stem}_slopes.csv": slope_text}


def _result(rows):
    return f"RESULT pass rows={rows} slopes=1\n"


def _scalar_case(regime="privacy", scale=2.0, reps=None, slope_shift=0.0):
    w = workloads.WORKLOADS["scalar-privacy"]
    reps = w.reps if reps is None else reps
    means = [scale * oracles.point_mass_error(n, w.tau, w.eps, 1.0)[0] for n in w.ns]
    rows = [("scalar", n, w.tau, w.eps, 0, 0, 0, 1, 0, 0, reps, m, 0.001, regime, 1)
            for n, m in zip(w.ns, means)]
    slope = _slopes("n", w.ns, means)
    if slope_shift:
        exp = oracles.loglog_exponent(w.ns, means) + slope_shift
        slope = f"variable,exponent,intercept,r2,n_points\nn,{exp!r},0,1,5\n"
    return w, _rate_outputs(w, rows, slope), [_result(len(w.ns))]


def test_scalar_oracle_accepts_and_rejects():
    w, outputs, stdouts = _scalar_case()
    assert w.check(outputs, stdouts) == []
    for bad in (_scalar_case(regime="mixed"), _scalar_case(scale=0.5),
                _scalar_case(reps=999), _scalar_case(slope_shift=0.01)):
        assert bad[0].check(bad[1], bad[2])
    w, outputs, stdouts = _scalar_case()
    unreadable = outputs["scalar.csv"].replace("scalar,1000,", "scalar,x,")
    assert any("unreadable" in p for p in w.check({**outputs, "scalar.csv": unreadable}, stdouts))
    assert w.check(outputs, ["RESULT pass rows=4 slopes=1\n"])
    assert w.check(outputs, ["RESULT fail rows=5 slopes=1\n"])


def _finite_case(wrong):
    w = workloads.WORKLOADS["finite-selection"]
    outputs, stdouts = {}, []
    for i, (grid, reps) in enumerate(w.parts):
        rows = []
        for m in grid:
            gap = oracles.packing_gap(m, w.n, w.tau, w.eps, 0.125, 1.0)
            rows.append(("finite", w.n, w.tau, w.eps, 0, m, 0, 1, 0, 0, reps,
                         repr(gap * wrong[m] / reps), 0.001, "privacy", 1))
        outputs[f"finite{i}.csv"] = _csv(rows)
        stdouts.append(_result(len(grid)))
    return w.check(outputs, stdouts)


def test_finite_oracle_accepts_and_rejects():
    good = {2: 150, 32: 290, 1024: 100}
    assert _finite_case(good) == []
    # half a misselection: not an integer count of wrong picks
    assert any("integer" in p for p in _finite_case({**good, 32: 290.5}))
    # too few misselections at M=2 breaks the log(2M) ratio law
    assert any("ratio" in p for p in _finite_case({**good, 2: 20}))


def _convex_case(delta=None, exponent=0.5, sign=1.0):
    w = workloads.WORKLOADS["convex-dimension"]
    delta = 1.0 / (w.n * w.n) if delta is None else delta
    means = [0.02 * d**exponent for d in w.ds]
    means[0] *= sign
    rows = [("convex", w.n, w.tau, w.eps, repr(delta), 0, d, 1, 1, 1, w.reps, repr(m),
             0.001, "privacy", 1) for d, m in zip(w.ds, means)]
    slope = _slopes("d", w.ds, [abs(m) for m in means])
    return w, _rate_outputs(w, rows, slope), [_result(4)]


def test_convex_oracle_accepts_and_rejects():
    w, outputs, stdouts = _convex_case()
    assert w.check(outputs, stdouts) == []
    for bad in (_convex_case(delta=1e-6), _convex_case(exponent=1.0), _convex_case(sign=-1.0)):
        assert bad[0].check(bad[1], bad[2])


def _audit_stdouts(status="pass", max_change=1, trials=100):
    return [
        "RESULT pass max_tv=0.011 tv_limit=0.02 max_shortfall_ratio=0.05\n",
        f"witness: n=1\nRESULT {status} max_change={max_change} bound=1 max_dev=0\n",
        f"RESULT pass max_abs_gap=2.2e-16 trials={trials}\n",
    ]


def test_audit_oracle_accepts_and_rejects():
    w = workloads.WORKLOADS["audit"]
    assert oracles.max_sensitivity(w.n_max, w.taus) == 1.0

    def check(stdouts):
        return w.check(w.outputs(None, stdouts), stdouts)

    assert check(_audit_stdouts()) == []
    assert check(_audit_stdouts(status="fail"))
    assert check(_audit_stdouts(max_change=0.5))
    assert check(_audit_stdouts(trials=10))
    assert check(["error: boom\n"] + _audit_stdouts()[1:])


def test_point_mass_error_matches_simulation():
    n, tau, eps = 1000, 0.05, 0.05
    mean, sd = oracles.point_mass_error(n, tau, eps, 1.0)
    s = min(1.0, 1.0 / (n * tau)) / eps
    draws = np.clip(np.random.default_rng(0).laplace(0.0, s, 400_000), 0.0, 1.0)
    assert draws.mean() == pytest.approx(mean, rel=5e-3)
    assert draws.std() == pytest.approx(sd, rel=5e-3)


# ---- metric names ----------------------------------------------------------

def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    empty = spans.LayerStats().metrics(spans.Tracer(), overhead_s=0.0)
    assert list(empty) == list(spans.per_layer_units())
    assert all(math.isfinite(v) for v in empty.values())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "convex-dimension",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=BENCH.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    assert all(v["unit"] == m["unit"] for v, m in zip(result["metrics"].values(), SPEC[section]))
