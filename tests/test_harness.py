"""Sweep harness tests: CSV contracts, determinism, slope fits, audits."""

import math
import os
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from audit_oracles import enumerate_samples, largest_change_by_scan, sensitivity_audit_by_scan
from dpcvar.harness import (
    RATE_COLUMNS,
    SLOPE_COLUMNS,
    RateRow,
    RateTable,
    SweepConfig,
    _largest_change,
    _rival_cvar,
    fit_all_slopes,
    fit_loglog_slope,
    rate_csv_text,
    run_audits,
    run_sweep,
    slope_csv_text,
)
from dpcvar.estimators import ConvexProblem
from dpcvar.instances import make_packing
from dpcvar.mechanisms import PrivacyBudget
from dpcvar.risk import BoundedLossVector, LossBound, TailMass, cvar_rows, empirical_cvar


def make_row(n=100, tau=0.1, eps=1.0, M=0, d=0, mean=1.0, regime="privacy",
             kind="scalar", stderr=0.01):
    return RateRow(
        kind=kind, n=n, tau=tau, eps=eps, delta=0.0, M=M, d=d,
        B=1.0, G=0.0, D=0.0, reps=10, mean_excess=mean, stderr=stderr,
        regime=regime, seed=0,
    )


class TestCsvFormat:
    def test_header_row_exact(self):
        text = rate_csv_text(RateTable([]))
        assert text == "kind,n,tau,eps,delta,M,d,B,G,D,reps,mean_excess,stderr,regime,seed\n"
        assert RATE_COLUMNS == (
            "kind", "n", "tau", "eps", "delta", "M", "d", "B", "G", "D",
            "reps", "mean_excess", "stderr", "regime", "seed",
        )

    def test_seventeen_digit_floats(self):
        text = rate_csv_text(RateTable([make_row(tau=0.1)]))
        line = text.splitlines()[1]
        assert ",0.10000000000000001," in line

    def test_wall_time_never_serialized(self):
        row = RateRow(
            kind="scalar", n=10, tau=0.5, eps=1.0, delta=0.0, M=0, d=0,
            B=1.0, G=0.0, D=0.0, reps=1, mean_excess=0.25, stderr=0.0,
            regime="privacy", seed=3, wall_time=123456.0,
        )
        assert "123456" not in rate_csv_text(RateTable([row]))

    def test_slope_csv_layout(self):
        table = RateTable([make_row(n=n, mean=1.0 / n) for n in (10, 100, 1000)])
        fits = [fit_loglog_slope(table, "n")]
        text = slope_csv_text(fits)
        lines = text.splitlines()
        assert lines[0] == ",".join(SLOPE_COLUMNS) == "variable,exponent,intercept,r2,n_points"
        assert lines[1].startswith("n,-1")
        assert lines[1].endswith(",3")

    def test_parseable_back(self):
        table = RateTable([make_row(n=n, mean=0.5 / n) for n in (10, 20)])
        body = rate_csv_text(table).splitlines()[1:]
        for line, row in zip(body, table.rows):
            parts = line.split(",")
            assert int(parts[1]) == row.n
            assert float(parts[11]) == row.mean_excess


class TestSlopeFits:
    def test_exact_inverse_law(self):
        table = RateTable([make_row(n=n, mean=1.0 / n) for n in (100, 1000, 10000)])
        fit = fit_loglog_slope(table, "n")
        assert fit.exponent == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 3

    def test_intercept_is_log_prefactor(self):
        table = RateTable(
            [make_row(n=n, mean=3.0 / math.sqrt(n)) for n in (16, 64, 256, 1024)]
        )
        fit = fit_loglog_slope(table, "n")
        assert fit.exponent == pytest.approx(-0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_noisy_power_law_recovered(self):
        rng = np.random.default_rng(11)
        rows = []
        for n in (100, 300, 1000, 3000, 10000):
            wobble = 1.0 + 0.01 * rng.standard_normal()
            rows.append(make_row(n=n, mean=wobble * n ** -0.75))
        fit = fit_loglog_slope(RateTable(rows), "n")
        assert fit.exponent == pytest.approx(-0.75, abs=0.05)
        assert fit.r_squared > 0.99

    def test_eps_as_swept_variable(self):
        table = RateTable([make_row(eps=e, mean=0.2 / e) for e in (0.1, 0.4, 1.6)])
        fit = fit_loglog_slope(table, "eps")
        assert fit.exponent == pytest.approx(-1.0, abs=1e-12)

    def test_too_few_rows_raises(self):
        table = RateTable([make_row(n=n, mean=1.0 / n) for n in (10, 100)])
        with pytest.raises(ValueError, match=">= 3 rows"):
            fit_loglog_slope(table, "n")

    def test_repeated_x_raises(self):
        table = RateTable([make_row(n=n, mean=1.0 / n) for n in (10, 10, 100)])
        with pytest.raises(ValueError, match="distinct"):
            fit_loglog_slope(table, "n")

    def test_nonpositive_mean_raises(self):
        rows = [make_row(n=10, mean=0.1), make_row(n=100, mean=0.0),
                make_row(n=1000, mean=0.001)]
        with pytest.raises(ValueError, match="positive"):
            fit_loglog_slope(RateTable(rows), "n")

    def test_varying_other_variable_raises(self):
        rows = [make_row(n=10, tau=0.1), make_row(n=100, tau=0.2),
                make_row(n=1000, tau=0.1)]
        with pytest.raises(ValueError, match="vary"):
            fit_loglog_slope(RateTable(rows), "n")

    def test_unknown_variable_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            fit_loglog_slope(RateTable([]), "reps")


class TestFitAllSlopes:
    def test_groups_by_fixed_variables(self):
        rows = []
        for tau in (0.1, 0.5):
            for n in (100, 1000, 10000):
                rows.append(make_row(n=n, tau=tau, mean=(1.0 / tau) / n))
        fits = fit_all_slopes(RateTable(rows))
        n_fits = [f for f in fits if f.variable == "n"]
        assert len(n_fits) == 2
        for fit in n_fits:
            assert fit.exponent == pytest.approx(-1.0, abs=1e-12)

    def test_regimes_never_mixed(self):
        rows = [
            make_row(n=100, mean=1e-1, regime="privacy"),
            make_row(n=1000, mean=1e-2, regime="privacy"),
            make_row(n=10000, mean=1e-3, regime="statistical"),
        ]
        assert fit_all_slopes(RateTable(rows)) == []

    def test_skips_nonpositive_groups(self):
        rows = [make_row(n=n, mean=m) for n, m in ((10, 0.1), (100, 0.0), (1000, 0.01))]
        assert fit_all_slopes(RateTable(rows)) == []

    def test_two_variables_fit_independently(self):
        rows = []
        for n in (100, 1000, 10000):
            rows.append(make_row(n=n, eps=1.0, mean=0.5 / n))
        for e in (0.125, 0.25, 0.5):
            rows.append(make_row(n=250, eps=e, mean=0.01 / e))
        fits = fit_all_slopes(RateTable(rows))
        by_var = {f.variable: f for f in fits}
        assert set(by_var) == {"n", "eps"}
        assert by_var["n"].exponent == pytest.approx(-1.0, abs=1e-12)
        assert by_var["eps"].exponent == pytest.approx(-1.0, abs=1e-12)


class TestConfigValidation:
    def test_capped_cell_rejected_by_default(self):
        with pytest.raises(ValueError, match="allow_capped"):
            SweepConfig(kind="scalar", ns=(100,), taus=(0.001,))

    def test_capped_cell_allowed_when_opted_in(self):
        SweepConfig(kind="scalar", ns=(100,), taus=(0.001,), allow_capped=True)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SweepConfig(kind="quantum")

    def test_scalar_delta_must_be_zero(self):
        with pytest.raises(ValueError, match="pure"):
            SweepConfig(kind="scalar", deltas=(1e-6,))

    def test_convex_delta_window(self):
        SweepConfig(kind="convex", ns=(100,), deltas=(1e-4,))
        with pytest.raises(ValueError, match="n\\^-2"):
            SweepConfig(kind="convex", ns=(100,), deltas=(1e-3,))

    def test_finite_needs_two_predictors(self):
        with pytest.raises(ValueError, match="M >= 2"):
            SweepConfig(kind="finite", Ms=(1,))

    def test_bad_grids_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(kind="scalar", taus=())
        with pytest.raises(ValueError):
            SweepConfig(kind="scalar", taus=(1.5,))
        with pytest.raises(ValueError):
            SweepConfig(kind="scalar", epsilons=(0.0,))
        with pytest.raises(ValueError, match="delta grid must be nonempty"):
            SweepConfig(kind="convex", deltas=())


SCALAR_CFG = dict(kind="scalar", ns=(100, 200), taus=(0.5,), epsilons=(0.4,),
                  replicates=8, base_seed=123)


class TestSweepDeterminism:
    def test_byte_identical_reruns(self):
        first = rate_csv_text(run_sweep(SweepConfig(**SCALAR_CFG)))
        second = rate_csv_text(run_sweep(SweepConfig(**SCALAR_CFG)))
        assert first == second

    def test_threads_do_not_change_output(self):
        serial = run_sweep(SweepConfig(**SCALAR_CFG))
        threaded = run_sweep(SweepConfig(**{**SCALAR_CFG, "threads": 2}))
        assert rate_csv_text(serial) == rate_csv_text(threaded)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="worker processes are forked")
    @pytest.mark.parametrize("kind, grid", [
        ("finite", dict(ns=(60,), taus=(0.25,), epsilons=(0.5,), Ms=(2, 4, 8))),
        ("convex", dict(ns=(50,), taus=(1.0, 0.5), epsilons=(2.0,), ds=(2,), iterations=20,
                        gamma=0.4)),
    ])
    def test_worker_processes_do_not_change_output(self, monkeypatch, kind, grid):
        import dpcvar.harness as harness

        # two workers even on a one-CPU host; three finite cells split unevenly
        monkeypatch.setattr(harness, "_worker_count", lambda threads, cells: threads)
        config = dict(kind=kind, replicates=5, base_seed=4, **grid)
        serial = rate_csv_text(run_sweep(SweepConfig(**config)))
        assert rate_csv_text(run_sweep(SweepConfig(threads=2, **config))) == serial

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="worker processes are forked")
    def test_workers_inherit_unpicklable_problem_callables(self, monkeypatch):
        # benchmark tracing wraps the ConvexProblem callables in local closures
        import dpcvar.harness as harness

        calls_here = []

        def problem(**kwargs):
            for key in ("loss_batch", "subgrad_batch"):
                def traced(*args, fn=kwargs[key]):
                    calls_here.append(os.getpid())
                    return fn(*args)
                kwargs[key] = traced
            return ConvexProblem(**kwargs)

        monkeypatch.setattr(harness, "ConvexProblem", problem)
        monkeypatch.setattr(harness, "_worker_count", lambda threads, cells: threads)
        config = dict(kind="convex", ns=(50,), taus=(1.0,), epsilons=(2.0,), ds=(2, 3),
                      replicates=3, iterations=10, base_seed=6)
        serial = rate_csv_text(run_sweep(SweepConfig(**config)))
        assert set(calls_here) == {os.getpid()}
        calls_here.clear()
        assert rate_csv_text(run_sweep(SweepConfig(threads=2, **config))) == serial
        assert calls_here == []  # every cell ran in a worker process

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="worker processes are forked")
    def test_failing_worker_fails_the_sweep_and_leaves_no_child(self, monkeypatch):
        import dpcvar.harness as harness

        def fail(problem, draw, tau, budget, streams, **kwargs):
            raise ValueError(f"no learner for {len(streams)} replicates")

        monkeypatch.setattr(harness, "private_convex_cvar_block", fail)
        monkeypatch.setattr(harness, "_worker_count", lambda threads, cells: threads)
        config = SweepConfig(kind="convex", ns=(50,), taus=(1.0,), epsilons=(2.0,), ds=(2, 3),
                             replicates=3, iterations=5, threads=2)
        with pytest.raises(RuntimeError,
                           match=r"cell worker 0 of 2 failed: ValueError\('no learner"):
            run_sweep(config)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="worker processes are forked")
    @pytest.mark.parametrize("failing", [0, 2])
    def test_workers_after_a_failure_are_killed_and_reaped(self, monkeypatch, failing):
        import time

        import dpcvar.harness as harness

        def job(k):
            if k == failing:
                raise KeyError(failing)
            if k > failing:
                time.sleep(60)  # only a kill ends these in time
            return make_row(n=k)

        monkeypatch.setattr(harness, "_worker_count", lambda threads, cells: threads)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=f"cell worker {failing} of 3 failed: KeyError"):
            harness._run_cells([partial(job, k) for k in range(3)], 3)
        assert time.monotonic() - start < 30.0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="worker processes are forked")
    @pytest.mark.parametrize("jobs", [3, 5])
    def test_worker_rows_come_back_in_job_order(self, monkeypatch, jobs):
        import dpcvar.harness as harness

        # worker k runs jobs k, k + 2, ...; the parent interleaves their rows again
        monkeypatch.setattr(harness, "_worker_count", lambda threads, cells: threads)
        table = harness._run_cells([partial(make_row, n=k) for k in range(jobs)], 2)
        assert [row.n for row in table.rows] == list(range(jobs))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_count_is_capped(self, monkeypatch):
        # a pure function of its inputs and the host: nothing is started
        import dpcvar.harness as harness

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert harness._worker_count(10**9, 12) == 4
        assert harness._worker_count(10**9, 3) == 3
        assert harness._worker_count(2, 12) == 2
        assert harness._worker_count(1, 12) == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert harness._worker_count(10**9, 12) == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert harness._worker_count(10**9, 12) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        monkeypatch.delattr(os, "fork", raising=False)
        assert harness._worker_count(10**9, 12) == 1

    def test_rows_independent_of_grid_shape(self):
        joint = run_sweep(SweepConfig(**SCALAR_CFG))
        alone = run_sweep(SweepConfig(**{**SCALAR_CFG, "ns": (200,)}))
        joint_by_n = {row.n: row for row in joint.rows}
        assert rate_csv_text(RateTable([joint_by_n[200]])) == rate_csv_text(
            RateTable(alone.rows)
        )

    @pytest.mark.parametrize("kind, grid", [
        ("scalar", dict(ns=(100, 200), taus=(0.5,), epsilons=(0.4,))),
        ("finite", dict(ns=(60,), taus=(0.25,), epsilons=(0.5,), Ms=(2, 4))),
        ("convex", dict(ns=(50,), taus=(1.0,), epsilons=(2.0,), ds=(2,),
                        deltas=(1e-4,), iterations=20)),
        ("scalar", dict(ns=(100,), taus=(1,), epsilons=(1, 2))),
    ])
    def test_numpy_typed_grids_write_the_same_csv(self, kind, grid):
        # a grid value picks its streams by value: 1, 1.0 and np.float64(1.0) agree
        base = dict(kind=kind, replicates=30, base_seed=5, **grid)
        floats = ("taus", "epsilons", "deltas")

        def retyped(float_type, int_type):
            return {key: tuple(map(float_type if key in floats else int_type, value))
                    if isinstance(value, tuple) else value for key, value in base.items()}

        typed = retyped(np.float64, np.int64)
        assert isinstance(typed["taus"][0], np.float64)
        assert isinstance(typed["ns"][0], np.int64)
        expected = rate_csv_text(run_sweep(SweepConfig(**retyped(float, int))))
        assert rate_csv_text(run_sweep(SweepConfig(**typed))) == expected
        assert rate_csv_text(run_sweep(SweepConfig(**base))) == expected

    def test_numpy_integer_tau_and_bound_write_the_csv_of_floats(self):
        # TailMass and LossBound take any real number, numpy integers included
        base = dict(kind="scalar", ns=(100,), epsilons=(1.0,), replicates=10, base_seed=5)
        expected = rate_csv_text(run_sweep(SweepConfig(taus=(1.0,), bound=1.0, **base)))
        typed = SweepConfig(taus=(np.int64(1),), bound=np.int64(1), **base)
        assert rate_csv_text(run_sweep(typed)) == expected

    def test_convex_csv_bytes_are_pinned(self):
        # written by the learner that sums over each sample's distinct records and
        # steps a cell's replicates as one block; the plain per-record sum of
        # earlier versions rounds differently (|delta mean_excess| < 5e-16)
        cfg = SweepConfig(kind="convex", ns=(2000,), taus=(1.0,), epsilons=(2.5,),
                          ds=(2, 8, 32), replicates=2, iterations=60, base_seed=31)
        assert rate_csv_text(run_sweep(cfg)) == (
            "kind,n,tau,eps,delta,M,d,B,G,D,reps,mean_excess,stderr,regime,seed\n"
            "convex,2000,1,2.5,2.4999999999999999e-07,0,2,1,1,1,2,"
            "0.029117032205141113,0.0037375745353281915,mixed,31\n"
            "convex,2000,1,2.5,2.4999999999999999e-07,0,8,1,1,1,2,"
            "0.046719536740883916,0.008594809966119497,mixed,31\n"
            "convex,2000,1,2.5,2.4999999999999999e-07,0,32,1,1,1,2,"
            "0.088884326546823933,0.0037088524591759593,privacy,31\n"
        )

    def test_convex_sample_draws_are_pinned(self):
        # at tau = 1 and gamma = 1 every record is (1, +1, ..., +1) whatever the
        # uniforms, so the pin above cannot see the data draws; this cell can
        cfg = SweepConfig(kind="convex", ns=(500,), taus=(0.3,), epsilons=(2.5,),
                          ds=(2, 3), replicates=2, iterations=30, gamma=0.4, base_seed=5)
        assert rate_csv_text(run_sweep(cfg)) == (
            "kind,n,tau,eps,delta,M,d,B,G,D,reps,mean_excess,stderr,regime,seed\n"
            "convex,500,0.29999999999999999,2.5,3.9999999999999998e-06,0,2,1,1,1,2,"
            "0.22466319748537572,0.030293676281192835,mixed,5\n"
            "convex,500,0.29999999999999999,2.5,3.9999999999999998e-06,0,3,1,1,1,2,"
            "0.19425969928874465,0.00018570587736760347,privacy,5\n"
        )

    def test_scalar_csv_bytes_are_pinned(self):
        # written by the per-kind sweeps that each built their own streams and rows
        cfg = SweepConfig(kind="scalar", ns=(100, 1000), taus=(0.1, 0.5),
                          epsilons=(0.5,), replicates=8, base_seed=3)
        assert rate_csv_text(run_sweep(cfg)) == (
            "kind,n,tau,eps,delta,M,d,B,G,D,reps,mean_excess,stderr,regime,seed\n"
            "scalar,100,0.10000000000000001,0.5,0,0,0,1,0,0,8,"
            "0.096460480349191774,0.055046150908410363,privacy,3\n"
            "scalar,100,0.5,0.5,0,0,0,1,0,0,8,"
            "0.026204257798385852,0.012510565850157843,privacy,3\n"
            "scalar,1000,0.10000000000000001,0.5,0,0,0,1,0,0,8,"
            "0.0029902751426517582,0.00049027514265175833,privacy,3\n"
            "scalar,1000,0.5,0.5,0,0,0,1,0,0,8,"
            "0.0023572070678105767,0.0012438576437581608,privacy,3\n"
        )

    def test_scalar_csv_bytes_at_a_bound_not_a_power_of_two_are_pinned(self):
        # written by the counted scalar sample, which scores c draws of B as B*c
        # rounded once; the dense sample of earlier versions summed c copies of
        # B and differs in the last digits (0.0058299896307996667 in the first row)
        cfg = SweepConfig(kind="scalar", ns=(1000, 10000), taus=(0.3, 0.05), epsilons=(1.0,),
                          bound=0.3, pair_eps=1e-12, replicates=50, base_seed=3)
        assert rate_csv_text(run_sweep(cfg)) == (
            "kind,n,tau,eps,delta,M,d,B,G,D,reps,mean_excess,stderr,regime,seed\n"
            "scalar,1000,0.29999999999999999,1,0,0,0,0.29999999999999999,0,0,50,"
            "0.0058299896307996658,0.0007901631615800553,statistical,3\n"
            "scalar,1000,0.050000000000000003,1,0,0,0,0.29999999999999999,0,0,50,"
            "0.014276650141865254,0.0014579817326204818,mixed,3\n"
            "scalar,10000,0.29999999999999999,1,0,0,0,0.29999999999999999,0,0,50,"
            "0.0015774908644711947,0.00016113794627553493,statistical,3\n"
            "scalar,10000,0.050000000000000003,1,0,0,0,0.29999999999999999,0,0,50,"
            "0.0037870410822810284,0.00047369965028171048,statistical,3\n"
        )

    def test_finite_csv_bytes_are_pinned(self):
        cfg = SweepConfig(kind="finite", ns=(200,), taus=(0.25,), epsilons=(0.5, 2.0),
                          Ms=(2, 8), replicates=20, base_seed=9)
        assert rate_csv_text(run_sweep(cfg)) == (
            "kind,n,tau,eps,delta,M,d,B,G,D,reps,mean_excess,stderr,regime,seed\n"
            "finite,200,0.25,0.5,0,2,0,1,0,0,20,"
            "0.0019061547465398499,0.00039555444256457565,privacy,9\n"
            "finite,200,0.25,0.5,0,8,0,1,0,0,20,"
            "0.0093574869375592611,0.00071558491098811764,privacy,9\n"
            "finite,200,0.25,2,0,2,0,1,0,0,20,"
            "0.00047653868663496247,9.8888610641143911e-05,privacy,9\n"
            "finite,200,0.25,2,0,8,0,1,0,0,20,"
            "0.0022094066380348256,0.0002129291010986187,privacy,9\n"
        )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_run_sweep_calls_the_cells_it_finds_at_call_time(self, monkeypatch, threads):
        # benchmark tracing wraps the cells by name and reads every row's wall time
        import dpcvar.harness as harness

        sweeps = {
            "_scalar_cell": dict(kind="scalar", ns=(100, 200), taus=(0.5,), epsilons=(0.4,)),
            "_finite_cell": dict(kind="finite", ns=(60,), taus=(0.25,), epsilons=(0.5,),
                                 Ms=(2, 4)),
            "_convex_cell": dict(kind="convex", ns=(50,), taus=(1.0,), epsilons=(2.0,),
                                 ds=(2, 3), iterations=5),
        }
        for name, grid in sweeps.items():
            # with two threads a cell may run in a worker: only its row comes back
            def wrapped(*args, cell=getattr(harness, name)):
                return replace(cell(*args), regime=f"wrapped {args[1:]}")

            monkeypatch.setattr(harness, name, wrapped)
            table = run_sweep(SweepConfig(replicates=2, threads=threads, **grid))
            marks = [row.regime for row in table.rows]
            assert len(marks) == len(set(marks)) == 2
            assert all(mark.startswith("wrapped (") for mark in marks)
            assert all(row.wall_time > 0.0 for row in table.rows)

    def test_seed_changes_output(self):
        base = run_sweep(SweepConfig(**SCALAR_CFG))
        other = run_sweep(SweepConfig(**{**SCALAR_CFG, "base_seed": 124}))
        means = [r.mean_excess for r in base.rows]
        assert means != [r.mean_excess for r in other.rows]


class TestSweepStatistics:
    def test_stderr_shrinks_with_replicates(self):
        small = run_sweep(SweepConfig(kind="scalar", ns=(400,), taus=(0.5,),
                                      epsilons=(0.5,), replicates=50, base_seed=7))
        large = run_sweep(SweepConfig(kind="scalar", ns=(400,), taus=(0.5,),
                                      epsilons=(0.5,), replicates=200, base_seed=7))
        ratio = small.rows[0].stderr / large.rows[0].stderr
        assert 1.3 < ratio < 3.1

    def test_finite_mean_is_gap_times_misselection(self):
        cfg = SweepConfig(kind="finite", ns=(200,), taus=(0.25,), epsilons=(0.5,),
                          Ms=(4,), replicates=40, base_seed=9)
        row = run_sweep(cfg).rows[0]
        from dpcvar.instances import make_packing
        from dpcvar.mechanisms import PrivacyBudget
        from dpcvar.risk import LossBound, TailMass
        inst = make_packing(4, 200, TailMass(0.25), PrivacyBudget(0.5), LossBound(1.0))
        counts = row.mean_excess * 40 / inst.gap
        assert counts == pytest.approx(round(counts), abs=1e-9)
        assert 0.0 <= row.mean_excess <= inst.gap

    def test_scalar_regime_labels_move_with_eps(self):
        starved = run_sweep(SweepConfig(kind="scalar", ns=(1000,), taus=(0.1,),
                                        epsilons=(0.01,), replicates=4, base_seed=2))
        flush = run_sweep(SweepConfig(kind="scalar", ns=(1000,), taus=(0.1,),
                                      epsilons=(1000.0,), replicates=4, base_seed=2))
        assert starved.rows[0].regime == "privacy"
        assert flush.rows[0].regime == "statistical"

    def test_convex_row_records_geometry(self):
        cfg = SweepConfig(kind="convex", ns=(300,), taus=(0.5,), epsilons=(2.0,),
                          ds=(3,), replicates=2, iterations=40, base_seed=5)
        row = run_sweep(cfg).rows[0]
        assert (row.d, row.G, row.D) == (3, 1.0, 1.0)
        assert row.delta == pytest.approx(1.0 / 300 ** 2)
        assert row.regime in ("privacy", "statistical", "mixed")
        assert row.mean_excess >= 0.0


class TestAudits:
    def test_sensitivity_audit_passes(self):
        report = run_audits(SweepConfig(kind="sensitivity-audit", n_max=4,
                                        taus=(0.2, 0.5, 1.0), value_levels=4))
        assert report.passed
        metrics = dict(report.metrics)
        assert metrics["max_dev"] <= 1e-10
        assert report.result_line().startswith("RESULT pass max_change=")
        assert report.witness

    def test_mech_audit_passes(self):
        cfg = SweepConfig(kind="mech-audit", Ms=(2, 8), ns=(200,), taus=(0.25,),
                          epsilons=(1.0,), draws=20_000, trials=400, base_seed=3)
        report = run_audits(cfg)
        assert report.passed
        metrics = dict(report.metrics)
        assert metrics["max_tv"] <= 0.02
        assert metrics["max_shortfall_ratio"] <= 1.0

    def test_embed_check_passes(self):
        cfg = SweepConfig(kind="embed-check", taus=(0.05, 0.3, 1.0), trials=25,
                          base_seed=4)
        report = run_audits(cfg)
        assert report.passed
        assert dict(report.metrics)["max_abs_gap"] <= 1e-12

    @pytest.mark.parametrize("seed, gap", [
        (0, "2.220446049250313e-16"),
        (1, "2.220446049250313e-16"),
        (2, "1.1102230246251565e-16"),
    ])
    def test_embed_check_gap_is_pinned(self, seed, gap):
        # captured before embed-check moved to `embedded_table_law`
        report = run_audits(SweepConfig(kind="embed-check", trials=100,
                                        taus=(0.05, 0.3, 1.0), base_seed=seed))
        assert repr(dict(report.metrics)["max_abs_gap"]) == gap

    def test_result_line_is_machine_greppable(self):
        report = run_audits(SweepConfig(kind="embed-check", trials=5, base_seed=1))
        line = report.result_line()
        status, *pairs = line.split()
        assert status == "RESULT"
        assert pairs[0] in ("pass", "fail")
        for pair in pairs[1:]:
            key, _, value = pair.partition("=")
            assert key and value
            float(value)

    @pytest.mark.parametrize("bound, levels, n_max, taus", [
        (1.0, 5, 5, (0.2, 0.5, 1.0)),
        (2.5, 3, 6, (0.3,)),
        (0.3, 2, 7, (0.05, 0.7, 1.0)),
        (0.0, 4, 4, (0.5, 1.0)),
        (1.0, 7, 4, (1.0,)),
    ])
    def test_sensitivity_audit_matches_exhaustive_scan(self, bound, levels, n_max, taus):
        report = run_audits(SweepConfig(kind="sensitivity-audit", bound=bound,
                                        value_levels=levels, n_max=n_max, taus=taus))
        metrics, witness = sensitivity_audit_by_scan(bound, levels, n_max, taus)
        assert report.metrics == metrics
        assert report.witness == witness
        # every cell, not only the witness cell: n = 1 always attains B first
        grid = np.linspace(0.0, bound, levels)
        for n in range(1, n_max + 1):
            values, digits = enumerate_samples(grid, n)
            for tau_v in taus:
                cv = cvar_rows(values, n * tau_v)
                assert _largest_change(cv, levels, n) == largest_change_by_scan(cv, digits, levels)

    @pytest.mark.parametrize("m, n, tau_v, b", [
        (2, 40, 0.25, 1.0),
        (8, 37, 0.3, 0.3),
        (5, 9, 1.0, 2.5),
        (16, 300, 0.01, 0.7),
    ])
    def test_rival_cvar_matches_per_predictor_kernel(self, m, n, tau_v, b):
        tau, bound = TailMass(tau_v), LossBound(b)
        inst = make_packing(m, n, tau, PrivacyBudget(1.0), bound)
        gen = np.random.default_rng(m * n)
        n_tau = n * tau_v
        seen = set()
        for trial in range(60):
            j = int(gen.integers(m))
            # c = 0, a c between 0 and floor(n*tau), a c past it, and the packing's own draws
            c = (0, min(n, int(n_tau) // 2 + 1), n, None)[trial % 4]
            if c is None:
                pts = inst.distribution(j).sample(n, gen)
            else:
                pts = np.where(np.arange(n) < c, j + 1.0, 0.0)
                gen.shuffle(pts)
            c = int(np.count_nonzero(pts))
            seen.add("zero" if c == 0 else "past" if c > math.floor(n_tau) else "within")
            rival = _rival_cvar(c, n, b, n_tau)
            for r in range(m):
                kernel = empirical_cvar(BoundedLossVector(inst.loss_of(r, pts), bound), tau)
                if r == j:
                    assert kernel == 0.0
                else:
                    assert rival == pytest.approx(kernel, rel=1e-12, abs=0.0)
        # at tau = 1, n*tau = n and no c lies past floor(n*tau)
        assert seen == ({"zero", "within"} | ({"past"} if n_tau < n else set()))

    def test_sweep_kind_rejected_by_audit_runner(self):
        with pytest.raises(ValueError):
            run_audits(SweepConfig(kind="scalar"))
