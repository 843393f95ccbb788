"""Acceptance gate: twelve end-to-end checks, one pass/fail line each.

Identities are verified exactly (tight tolerances, exhaustive small cases);
scaling laws are verified as fitted log-log exponents inside stated windows,
never as absolute constants. Every check is deterministic given its seed.
Run with -s to see the per-check summary lines.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats

from cvar_oracles import minimize_ru_breakpoints
from dpcvar.estimators import private_scalar_cvar
from dpcvar.harness import (
    SweepConfig,
    fit_loglog_slope,
    rate_csv_text,
    run_audits,
    run_sweep,
)
from dpcvar.instances import (
    DUMMY,
    build_synthetic_cvar_sample,
    make_packing,
)
from dpcvar.mechanisms import PrivacyBudget, RandomStream, stable_stream_id
from dpcvar.risk import (
    BoundedLossVector,
    DiscreteDistribution,
    LossBound,
    TailMass,
    empirical_cvar,
    population_cvar_discrete,
)

N_HALF_DECADES = (1000, 3162, 10000, 31623, 100000)


def _report(num, name, ok, detail):
    print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"acceptance check {num} ({name}) failed: {detail}"


def test_01_sensitivity_bound_is_tight():
    t0 = time.monotonic()
    cfg = SweepConfig(kind="sensitivity-audit", n_max=6, value_levels=5,
                      taus=(0.2, 0.5, 1.0))
    report = run_audits(cfg)
    elapsed = time.monotonic() - t0
    metrics = dict(report.metrics)
    ok = (report.passed and metrics["max_dev"] <= 1e-10
          and report.witness is not None and elapsed < 10.0)
    _report(1, "one-record sensitivity tightness", ok,
            f"max_dev={metrics['max_dev']:.3g} witness=({report.witness}) "
            f"elapsed={elapsed:.2f}s")


def test_02_variational_minimum_matches_sorting():
    t0 = time.monotonic()
    gen = RandomStream(202, stable_stream_id("dual-oracle")).generator
    bound = LossBound(1.0)
    worst = 0.0
    for _ in range(10_000):
        n = int(gen.integers(1, 9))
        tau = TailMass(float(gen.uniform(1e-3, 1.0)))
        sample = BoundedLossVector(gen.random(n), bound)
        direct = empirical_cvar(sample, tau)
        _, via_breakpoints = minimize_ru_breakpoints(sample, tau)
        worst = max(worst, abs(direct - via_breakpoints))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(2, "sorting vs variational breakpoint minimum", ok,
            f"max_gap={worst:.3g} over 10000 instances elapsed={elapsed:.2f}s")


def test_03_two_point_tail_value_is_exact():
    gen = RandomStream(303, stable_stream_id("bernoulli-identity")).generator
    worst = 0.0
    for _ in range(100):
        tau = float(gen.uniform(0.05, 1.0))
        p = tau * float(gen.uniform(0.0, 1.0))
        b = float(gen.uniform(0.1, 2.0))
        dist = DiscreteDistribution(np.array([b, 0.0]), np.array([p, 1.0 - p]))
        got = population_cvar_discrete(dist, TailMass(tau))
        worst = max(worst, abs(got - p * b / tau))
    ok = worst <= 1e-12
    _report(3, "two-point population tail value p*B/tau", ok,
            f"max_abs_err={worst:.3g} over 100 draws")


def test_04_embedding_preserves_expected_loss():
    t0 = time.monotonic()
    cfg = SweepConfig(kind="embed-check", trials=100, taus=(0.05, 0.3, 1.0),
                      base_seed=404)
    report = run_audits(cfg)
    elapsed = time.monotonic() - t0
    gap = dict(report.metrics)["max_abs_gap"]
    ok = report.passed and gap <= 1e-12 and elapsed < 5.0
    _report(4, "tail embedding identity", ok,
            f"max_abs_gap={gap:.3g} over 100x3 cases elapsed={elapsed:.2f}s")


def test_05_selection_mechanism_distribution_and_utility():
    t0 = time.monotonic()
    cfg = SweepConfig(kind="mech-audit", Ms=(2, 8, 64), ns=(200,), taus=(0.25,),
                      epsilons=(1.0,), draws=100_000, trials=10_000, base_seed=17)
    report = run_audits(cfg)
    elapsed = time.monotonic() - t0
    metrics = dict(report.metrics)
    ok = (report.passed and metrics["max_tv"] <= 0.02
          and metrics["max_shortfall_ratio"] <= 1.0)
    _report(5, "softmax selection frequencies and shortfall envelope", ok,
            f"max_tv={metrics['max_tv']:.4f} "
            f"max_shortfall_ratio={metrics['max_shortfall_ratio']:.4f} "
            f"elapsed={elapsed:.1f}s")


def test_06_scalar_error_halves_like_root_n_without_noise():
    t0 = time.monotonic()
    cfg = SweepConfig(kind="scalar", ns=N_HALF_DECADES, taus=(0.1,),
                      epsilons=(1000.0,), pair_eps=1e-12, replicates=2000,
                      base_seed=601)
    table = run_sweep(cfg)
    fit = fit_loglog_slope(table, "n")
    elapsed = time.monotonic() - t0
    labels = {r.regime for r in table.rows}
    ok = (-0.65 <= fit.exponent <= -0.35 and labels == {"statistical"}
          and elapsed < 180.0)
    _report(6, "noise-free scalar slope vs n", ok,
            f"slope={fit.exponent:.3f} (window [-0.65,-0.35]) r2={fit.r_squared:.4f} "
            f"regimes={sorted(labels)} elapsed={elapsed:.1f}s")


def test_07_scalar_privacy_slopes_vs_n_and_eps():
    t0 = time.monotonic()
    n_cfg = SweepConfig(kind="scalar", ns=N_HALF_DECADES, taus=(0.05,),
                        epsilons=(0.05,), replicates=2000, base_seed=701)
    n_table = run_sweep(n_cfg)
    n_fit = fit_loglog_slope(n_table, "n")
    eps_cfg = SweepConfig(kind="scalar", ns=(10_000,), taus=(0.05,),
                          epsilons=(0.02, 0.05, 0.1, 0.2), replicates=2000,
                          base_seed=702)
    eps_table = run_sweep(eps_cfg)
    eps_fit = fit_loglog_slope(eps_table, "eps")
    elapsed = time.monotonic() - t0
    labels = {r.regime for r in n_table.rows + eps_table.rows}
    ok = (-1.2 <= n_fit.exponent <= -0.8 and -1.2 <= eps_fit.exponent <= -0.8
          and labels == {"privacy"} and elapsed < 300.0)
    _report(7, "privacy-dominated scalar slopes", ok,
            f"slope_n={n_fit.exponent:.3f} slope_eps={eps_fit.exponent:.3f} "
            f"(window [-1.2,-0.8]) regimes={sorted(labels)} elapsed={elapsed:.1f}s")


def test_08_selection_excess_tracks_log_class_size():
    t0 = time.monotonic()
    n, tau, eps = 640, 0.05, 0.05
    cfg = SweepConfig(kind="finite", ns=(n,), taus=(tau,), epsilons=(eps,),
                      Ms=(2, 32, 1024), replicates=2000, base_seed=801)
    table = run_sweep(cfg)
    elapsed = time.monotonic() - t0
    by_m = {row.M: row.mean_excess for row in table.rows}
    ms = sorted(by_m)
    ratio_devs = {}
    for small, big in itertools.combinations(ms, 2):
        dev = (by_m[big] / by_m[small]) / (math.log(2 * big) / math.log(2 * small))
        ratio_devs[(small, big)] = dev
    ratios_ok = all(0.5 <= dev <= 2.0 for dev in ratio_devs.values())
    envelope_ok = True
    max_constant = 0.0
    for m in ms:
        inst = make_packing(m, n, TailMass(tau), PrivacyBudget(eps), LossBound(1.0))
        statistical = math.sqrt(inst.p * math.log(2 * m) / n) / tau
        privacy = 2.0 * math.log(2 * m) / (eps * n * tau)
        if by_m[m] > 2.0 * (statistical + privacy):
            envelope_ok = False
        max_constant = max(max_constant, by_m[m] * eps * n * tau / math.log(2 * m))
    labels = {r.regime for r in table.rows}
    ok = (ratios_ok and envelope_ok and max_constant <= 8.0
          and labels == {"privacy"} and elapsed < 300.0)
    devs = ", ".join(f"{k}: {v:.3f}" for k, v in ratio_devs.items())
    _report(8, "log-class-size law for private selection", ok,
            f"ratio_devs=({devs}) window [0.5,2] fitted_constant={max_constant:.3f} "
            f"(limit 8) regimes={sorted(labels)} elapsed={elapsed:.1f}s")


def test_09_convex_learner_scaling_exponents():
    t0 = time.monotonic()
    d_cfg = SweepConfig(kind="convex", ns=(2000,), taus=(1.0,), epsilons=(2.5,),
                        ds=(2, 8, 32, 128), replicates=12, iterations=400,
                        base_seed=31)
    tau_cfg = SweepConfig(kind="convex", ns=(5000,), taus=(0.02, 0.05, 0.1, 0.25),
                          epsilons=(7.4,), ds=(2,), replicates=10,
                          iterations=16_000, base_seed=37)
    n_cfg = SweepConfig(kind="convex", ns=(2000, 4000, 8000), taus=(0.1,),
                        epsilons=(6.0,), ds=(2,), replicates=10,
                        iterations=24_000, base_seed=41)
    d_table = run_sweep(d_cfg)
    tau_table = run_sweep(tau_cfg)
    n_table = run_sweep(n_cfg)
    elapsed = time.monotonic() - t0
    d_fit = fit_loglog_slope(d_table, "d")
    tau_fit = fit_loglog_slope(tau_table, "tau")
    n_fit = fit_loglog_slope(n_table, "n")
    rows = d_table.rows + tau_table.rows + n_table.rows
    labels = {r.regime for r in rows}
    deltas_ok = all(r.delta == pytest.approx(1.0 / r.n**2) for r in rows)
    ok = (0.3 <= d_fit.exponent <= 0.7
          and -1.25 <= tau_fit.exponent <= -0.75
          and -1.25 <= n_fit.exponent <= -0.75
          and labels == {"privacy"} and deltas_ok and elapsed < 900.0)
    _report(9, "convex slopes vs d, tau, n", ok,
            f"slope_d={d_fit.exponent:.3f} (window [0.3,0.7]) "
            f"slope_tau={tau_fit.exponent:.3f} slope_n={n_fit.exponent:.3f} "
            f"(window [-1.25,-0.75]) regimes={sorted(labels)} "
            f"elapsed={elapsed:.1f}s")


class _PatternRng:
    """Stand-in generator that realizes one chosen activation pattern."""

    def __init__(self, bits):
        self.bits = np.asarray(bits, dtype=bool)

    def random(self, size):
        assert size == self.bits.size
        return np.where(self.bits, 0.0, 1.0)


def test_10_transfer_layout_stability_and_overflow():
    diffs_ok = True
    layout_ok = True
    for n in range(1, 7):
        for m in range(1, 7):
            ordinary = [0.1 * (i + 1) for i in range(m)]
            for bits in itertools.product((0, 1), repeat=n):
                base = build_synthetic_cvar_sample(
                    ordinary, n, TailMass(0.5), DUMMY, _PatternRng(bits)
                )
                active = sum(bits)
                data_slots = [rec for rec in base if rec[0] == 1 and rec[1] is not DUMMY]
                if len(data_slots) != min(active, m):
                    layout_ok = False
                if any(rec != (0, DUMMY) for rec, bit in zip(base, bits) if not bit):
                    layout_ok = False
                for j in range(m):
                    swapped = list(ordinary)
                    swapped[j] = 0.97
                    rebuilt = build_synthetic_cvar_sample(
                        swapped, n, TailMass(0.5), DUMMY, _PatternRng(bits)
                    )
                    changed = sum(a != b for a, b in zip(base, rebuilt))
                    if changed > 1:
                        diffs_ok = False
    n_big, tau_big, trials = 250, 0.1, 100_000
    m_big = math.ceil(4 * n_big * tau_big)
    gen = RandomStream(1010, stable_stream_id("overflow", n_big, m_big)).generator
    pool = list(np.linspace(0.0, 1.0, m_big))
    overflows = 0
    for _ in range(trials):
        out = build_synthetic_cvar_sample(pool, n_big, TailMass(tau_big), DUMMY, gen)
        if sum(flag for flag, _ in out) > m_big:
            overflows += 1
    rate = overflows / trials
    oracle = float(stats.binom.sf(m_big, n_big, tau_big))
    se = math.sqrt(max(oracle * (1.0 - oracle), 1e-300) / trials)
    overflow_ok = rate <= 1e-3 and abs(rate - oracle) <= 3.0 * se
    ok = diffs_ok and layout_ok and overflow_ok
    _report(10, "embedding transfer: one-record stability and overflow", ok,
            f"stability exhaustive n,m<=6 diffs<=1={diffs_ok} layout={layout_ok} "
            f"overflow_rate={rate:.2e} oracle={oracle:.2e} (limit 1e-3)")


def test_11_no_output_region_breaks_the_privacy_ratio():
    t0 = time.monotonic()
    eps, tau, draws = 0.8, 0.6, 5000
    levels = (0.0, 0.5, 1.0)
    budget = PrivacyBudget(eps)
    bound = LossBound(1.0)
    edges = np.concatenate(([-0.5, 1e-9], np.linspace(0.125, 0.875, 7),
                            [1 - 1e-9, 1.5]))
    hists = {}
    for n in range(1, 5):
        for sample in itertools.product(levels, repeat=n):
            stream = RandomStream(99, stable_stream_id("dp-falsify", n, *sample))
            vec = BoundedLossVector(np.array(sample), bound)
            outs = np.empty(draws)
            for i in range(draws):
                outs[i] = private_scalar_cvar(vec, TailMass(tau), budget, stream).output
            hists[sample] = np.histogram(outs, bins=edges)[0] / draws
    worst = 0.0
    pairs = 0
    for sample, p1 in hists.items():
        for j, alt in itertools.product(range(len(sample)), levels):
            if alt == sample[j]:
                continue
            p2 = hists[sample[:j] + (alt,) + sample[j + 1:]]
            pairs += 1
            for a, b in zip(p1, p2):
                if a * draws < 25 or b * draws < 25:
                    continue
                rel_se = (math.sqrt(a * (1 - a) / draws) / a
                          + math.sqrt(b * (1 - b) / draws) / b)
                worst = max(worst, (a / b) / (math.exp(eps) * (1 + 5 * rel_se)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1.0 and pairs == 852 and elapsed < 120.0
    _report(11, "binned likelihood ratios stay under exp(eps)", ok,
            f"worst_ratio_over_limit={worst:.3f} neighbor_pairs={pairs} "
            f"elapsed={elapsed:.1f}s")


def test_12_same_seed_reproduces_identical_csv(tmp_path):
    cfg_kwargs = dict(kind="scalar", ns=(10_000,), taus=(0.05,),
                      epsilons=(0.02, 0.05, 0.1, 0.2), replicates=2000,
                      base_seed=702)
    first = rate_csv_text(run_sweep(SweepConfig(**cfg_kwargs)))
    second = rate_csv_text(run_sweep(SweepConfig(**cfg_kwargs)))
    sweep_ok = first == second
    from dpcvar.cli import main
    argv_for = lambda name: [
        "convex-rate", "--seed", "41", "--out", str(tmp_path / name),
        "--n-grid", "2000", "--tau-grid", "0.1", "--eps-grid", "6.0",
        "--d-grid", "2", "--reps", "2", "--iters", "200",
    ]
    assert main(argv_for("a.csv")) == 0
    assert main(argv_for("b.csv")) == 0
    cli_ok = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    ok = sweep_ok and cli_ok
    _report(12, "byte-identical reruns under a fixed seed", ok,
            f"sweep_rerun_identical={sweep_ok} cli_rerun_identical={cli_ok}")
