"""Sweep harness tests: CSV contracts, determinism, slope fits, audits."""

import math

import numpy as np
import pytest

from dpcvar.harness import (
    RATE_COLUMNS,
    SLOPE_COLUMNS,
    RateRow,
    RateTable,
    SweepConfig,
    fit_all_slopes,
    fit_loglog_slope,
    rate_csv_text,
    run_audits,
    run_sweep,
    slope_csv_text,
)


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
        cfg = SweepConfig(kind="scalar", ns=(100,), taus=(0.001,))
        with pytest.raises(ValueError, match="allow_capped"):
            cfg.validate()

    def test_capped_cell_allowed_when_opted_in(self):
        cfg = SweepConfig(kind="scalar", ns=(100,), taus=(0.001,), allow_capped=True)
        cfg.validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SweepConfig(kind="quantum").validate()

    def test_scalar_delta_must_be_zero(self):
        cfg = SweepConfig(kind="scalar", deltas=(1e-6,))
        with pytest.raises(ValueError, match="pure"):
            cfg.validate()

    def test_convex_delta_window(self):
        good = SweepConfig(kind="convex", ns=(100,), deltas=(1e-4,))
        good.validate()
        bad = SweepConfig(kind="convex", ns=(100,), deltas=(1e-3,))
        with pytest.raises(ValueError, match="n\\^-2"):
            bad.validate()

    def test_finite_needs_two_predictors(self):
        with pytest.raises(ValueError, match="M >= 2"):
            SweepConfig(kind="finite", Ms=(1,)).validate()

    def test_bad_grids_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(kind="scalar", taus=()).validate()
        with pytest.raises(ValueError):
            SweepConfig(kind="scalar", taus=(1.5,)).validate()
        with pytest.raises(ValueError):
            SweepConfig(kind="scalar", epsilons=(0.0,)).validate()


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
    ])
    def test_numpy_typed_grids_write_the_same_csv(self, kind, grid):
        def as_numpy(value):
            if isinstance(value, tuple):
                return tuple(np.float64(v) if isinstance(v, float) else np.int64(v)
                             for v in value)
            return value

        base = dict(kind=kind, replicates=30, base_seed=5, **grid)
        typed = {key: as_numpy(value) for key, value in base.items()}
        assert isinstance(typed["taus"][0], np.float64)
        assert isinstance(typed["ns"][0], np.int64)
        assert rate_csv_text(run_sweep(SweepConfig(**typed))) == rate_csv_text(
            run_sweep(SweepConfig(**base))
        )

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

    def test_filter_selects_rows(self):
        table = RateTable([make_row(n=10, regime="privacy"),
                           make_row(n=20, regime="statistical")])
        assert [r.n for r in table.filter(regime="privacy").rows] == [10]
        assert [r.n for r in table.filter(n=20).rows] == [20]


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

    def test_sweep_kind_rejected_by_audit_runner(self):
        with pytest.raises(ValueError):
            run_audits(SweepConfig(kind="scalar"))
