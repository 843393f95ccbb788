"""Tail-risk primitives against independent oracles.

The empirical CVaR is checked two independent ways: minimizing the threshold
objective over its breakpoints, and enumerating the vertices of the capped
dual weight polytope {0 <= q <= 1/tau, mean(q) = 1}.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from cvar_oracles import cvar_dual_value, lifted_loss, minimize_ru_breakpoints, ru_objective
from dpcvar.risk import (
    BoundedLossVector,
    DiscreteDistribution,
    LossBound,
    TailMass,
    cvar_sensitivity_bound,
    empirical_cvar,
    lift_scale,
    lifted_gradient_bound,
    lifted_terms,
    population_cvar_discrete,
)

B1 = LossBound(1.0)


def vec(values, b=1.0):
    return BoundedLossVector(np.asarray(values, dtype=float), LossBound(b))


def dual_vertex_oracle(values: np.ndarray, tau: float) -> float:
    """Max of mean(q * x) over vertices of {0 <= q <= 1/tau, mean(q) = 1}.

    At a vertex all coordinates sit at a bound except at most one fractional
    one. Exhaustive over subsets, so only usable for small n.
    """
    n = values.size
    cap = 1.0 / tau
    k = int(math.floor(n / cap)) if cap > 0 else n
    best = -math.inf
    if k >= n:
        return float(values.mean())
    for capped in itertools.combinations(range(n), k):
        remainder = n - k * cap
        base = cap * sum(values[i] for i in capped)
        if abs(remainder) <= 1e-12:
            best = max(best, base / n)
            continue
        for j in range(n):
            if j in capped:
                continue
            if -1e-12 <= remainder <= cap + 1e-12:
                best = max(best, (base + remainder * values[j]) / n)
    return best


def test_worked_examples():
    x = vec([1.0, 2.0, 3.0, 4.0], b=4.0)
    assert empirical_cvar(x, TailMass(0.5)) == pytest.approx(3.5, abs=1e-12)
    assert empirical_cvar(x, TailMass(0.375)) == pytest.approx(11.0 / 3.0, abs=1e-12)
    assert empirical_cvar(x, TailMass(1.0)) == pytest.approx(2.5, abs=1e-12)


def test_single_point_and_capped_regime():
    assert empirical_cvar(vec([0.7]), TailMass(0.3)) == pytest.approx(0.7, abs=1e-12)
    # n*tau <= 1 puts all weight on the maximum
    x = vec([0.1, 0.9, 0.4, 0.2, 0.3])
    assert empirical_cvar(x, TailMass(0.2)) == pytest.approx(0.9, abs=1e-12)
    assert empirical_cvar(x, TailMass(0.1)) == pytest.approx(0.9, abs=1e-12)


def test_matches_breakpoint_minimization():
    rng = np.random.default_rng(20240913)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        x = vec(rng.random(n))
        tau = TailMass(float(rng.uniform(0.05, 1.0)))
        _, oracle = minimize_ru_breakpoints(x, tau)
        assert empirical_cvar(x, tau) == pytest.approx(oracle, abs=1e-10)


def test_matches_dual_vertex_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        x = rng.random(n)
        tau = float(rng.uniform(0.05, 1.0))
        got = empirical_cvar(vec(x), TailMass(tau))
        want = dual_vertex_oracle(x, tau)
        assert got == pytest.approx(want, abs=1e-9)


def test_dual_value_never_exceeds_cvar():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        x = vec(rng.random(n))
        tau = TailMass(float(rng.uniform(0.2, 1.0)))
        cvar = empirical_cvar(x, tau)
        # random feasible weighting: start uniform, push mass toward the cap
        q = np.full(n, 1.0)
        assert cvar_dual_value(x, tau, q) <= cvar + 1e-12


def test_monotone_in_tau_and_above_mean():
    rng = np.random.default_rng(3)
    x = vec(rng.random(40))
    taus = [0.05, 0.1, 0.25, 0.5, 0.75, 1.0]
    vals = [empirical_cvar(x, TailMass(t)) for t in taus]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(float(x.values.mean()), abs=1e-12)
    assert all(v >= float(x.values.mean()) - 1e-12 for v in vals)


def test_ru_objective_domain_and_identity():
    x = vec([0.2, 0.8, 0.5])
    with pytest.raises(ValueError):
        ru_objective(-0.1, x, TailMass(0.5))
    with pytest.raises(ValueError):
        ru_objective(1.5, x, TailMass(0.5))
    eta, val = minimize_ru_breakpoints(x, TailMass(0.5))
    assert 0.0 <= eta <= 1.0
    assert val == pytest.approx(empirical_cvar(x, TailMass(0.5)), abs=1e-12)


def test_population_cvar_examples():
    dist = DiscreteDistribution([0.0, 1.0, 2.0], [0.5, 0.3, 0.2])
    assert population_cvar_discrete(dist, TailMass(0.25)) == pytest.approx(1.8, abs=1e-12)
    assert population_cvar_discrete(dist, TailMass(1.0)) == pytest.approx(0.7, abs=1e-12)
    point = DiscreteDistribution([0.42], [1.0])
    for t in (0.1, 0.5, 1.0):
        assert population_cvar_discrete(point, TailMass(t)) == pytest.approx(0.42, abs=1e-14)


def test_population_cvar_bernoulli_identity():
    rng = np.random.default_rng(101)
    for _ in range(100):
        tau = float(rng.uniform(0.05, 1.0))
        p = float(rng.uniform(0.0, tau))
        b = float(rng.uniform(0.1, 5.0))
        dist = DiscreteDistribution([b, 0.0], [p, 1.0 - p])
        want = p * b / tau
        assert population_cvar_discrete(dist, TailMass(tau)) == pytest.approx(want, abs=1e-12)


def test_sensitivity_bound_values():
    assert cvar_sensitivity_bound(100, TailMass(0.1), B1) == pytest.approx(0.1, abs=1e-15)
    assert cvar_sensitivity_bound(2, TailMass(1.0), LossBound(5.0)) == pytest.approx(2.5)
    # capped regime: n*tau <= 1 makes one record worth the whole bound
    assert cvar_sensitivity_bound(3, TailMass(0.25), B1) == pytest.approx(1.0)


def test_sensitivity_attained_exhaustively_small():
    # every one-record change on a small grid stays within the bound, and the
    # all-zeros vs single-B pair attains it
    grid = np.array([0.0, 0.5, 1.0])
    for n in (1, 2, 3, 4):
        for tau in (0.2, 0.5, 1.0):
            t = TailMass(tau)
            bound = cvar_sensitivity_bound(n, t, B1)
            worst = 0.0
            for combo in itertools.product(grid, repeat=n):
                base = empirical_cvar(vec(list(combo)), t)
                for j in range(n):
                    for new in grid:
                        if new == combo[j]:
                            continue
                        other = list(combo)
                        other[j] = new
                        delta = abs(empirical_cvar(vec(other), t) - base)
                        worst = max(worst, delta)
                        assert delta <= bound + 1e-10
            witness = abs(
                empirical_cvar(vec([1.0] + [0.0] * (n - 1)), t)
                - empirical_cvar(vec([0.0] * n), t)
            )
            assert witness == pytest.approx(bound, abs=1e-10)
            assert worst == pytest.approx(bound, abs=1e-10)


def lifted_grad(loss, g, u, lam, tau, l_lift=math.inf):
    """One point's (w, u) subgradient of the lifted loss, built from `lifted_terms`
    the way the learner builds it: w-part coeff * g, u-part factor * gu."""
    sw = np.array([1.0 / tau.tau if loss - lam * u > 0.0 else 0.0])
    coeff, factor, gu = lifted_terms(sw, np.array([float(g @ g)]), lam, l_lift)
    return coeff[0] * g, float(factor[0] * gu[0])


def test_lifted_one_record_bound():
    # one record moves the empirical lifted objective by at most B/(n*tau)
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        tau = float(rng.uniform(0.05, 1.0))
        lam = float(rng.uniform(0.1, 3.0))
        u = float(rng.uniform(0.0, 1.0 / lam))
        losses = rng.random(n)
        j = int(rng.integers(n))
        new = float(rng.random())
        t = TailMass(tau)
        before = np.mean([lifted_loss(v, u, lam, t) for v in losses])
        losses[j] = new
        after = np.mean([lifted_loss(v, u, lam, t) for v in losses])
        assert abs(after - before) <= B1.b / (n * tau) + 1e-12


def test_lifted_loss_and_subgradient_cases():
    t = TailMass(0.5)
    # inactive branch, including the tie
    assert lifted_loss(0.2, 0.5, 1.0, t) == pytest.approx(0.5)
    assert lifted_loss(0.5, 0.5, 1.0, t) == pytest.approx(0.5)
    # active branch doubles the overshoot at tau = 1/2
    assert lifted_loss(0.8, 0.5, 1.0, t) == pytest.approx(0.5 + 2.0 * 0.3)
    g = np.array([0.3, -0.4])
    gw, gu = lifted_grad(0.8, g, 0.5, 1.0, t)
    np.testing.assert_allclose(gw, 2.0 * g)
    assert gu == pytest.approx(-1.0)
    gw, gu = lifted_grad(0.5, g, 0.5, 1.0, t)  # tie: inactive side
    np.testing.assert_allclose(gw, 0.0)
    assert gu == pytest.approx(1.0)
    # the active joint norm is sqrt(2); clipping at 1 scales both parts by 1/sqrt(2)
    gw, gu = lifted_grad(0.8, g, 0.5, 1.0, t, l_lift=1.0)
    np.testing.assert_allclose(gw, math.sqrt(2.0) * g)
    assert gu == pytest.approx(-1.0 / math.sqrt(2.0))
    # a batch with mixed active weights gives the bits of per-point constant batches
    sw = np.array([2.0, 0.0, 2.0, 0.0])
    grad_sq = np.array([0.25, 0.25, 4.0, 0.01])
    mixed = lifted_terms(sw, grad_sq, 1.0, 1.0)
    for got, tail, body in zip(mixed, lifted_terms(np.full(4, 2.0), grad_sq, 1.0, 1.0),
                               lifted_terms(np.zeros(4), grad_sq, 1.0, 1.0)):
        np.testing.assert_array_equal(got, np.where(sw > 0.0, tail, body))


def test_lift_scale():
    assert lift_scale(2.0, 8.0, 4.0) == pytest.approx(2.0)
    assert lift_scale(1.0, 1.0, 1.0) == 1.0
    # a zero G or B keeps the u-range [0, B/lam] equal to [0, B]
    assert lift_scale(0.0, 3.0, 2.0) == 1.0
    assert lift_scale(3.0, 0.0, 2.0) == 1.0


def test_lifted_subgradient_norm_bound():
    rng = np.random.default_rng(23)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        tau = TailMass(float(rng.uniform(0.05, 1.0)))
        lam = float(rng.uniform(0.1, 3.0))
        g_cap = float(rng.uniform(0.1, 2.0))
        g = rng.normal(size=d)
        g *= rng.uniform(0, g_cap) / max(np.linalg.norm(g), 1e-12)
        u = float(rng.uniform(0.0, 1.0 / lam))
        loss = float(rng.random())
        bound = lifted_gradient_bound(g_cap, lam, tau)
        # unclipped: the exact subgradient already respects the joint bound
        gw, gu = lifted_grad(loss, g, u, lam, tau)
        joint = math.hypot(float(np.linalg.norm(gw)), gu)
        assert joint <= bound + 1e-12
        np.testing.assert_array_equal(lifted_grad(loss, g, u, lam, tau, bound)[0], gw)
        # clipped below the bound: the joint norm is at most l_lift, same direction
        l_lift = float(rng.uniform(0.01, 1.0)) * bound
        cw, cu = lifted_grad(loss, g, u, lam, tau, l_lift)
        clipped = math.hypot(float(np.linalg.norm(cw)), cu)
        assert clipped <= l_lift * (1.0 + 1e-12)
        assert clipped == pytest.approx(min(joint, l_lift), rel=1e-12)
        np.testing.assert_allclose(np.append(cw, cu) * joint,
                                   np.append(gw, gu) * clipped, atol=1e-12)


def test_lifted_subgradient_finite_differences():
    rng = np.random.default_rng(29)
    t_half = 1e-6
    checked = 0
    while checked < 100:
        d = int(rng.integers(1, 5))
        tau = TailMass(float(rng.uniform(0.1, 1.0)))
        lam = float(rng.uniform(0.3, 2.0))
        c = rng.normal(size=d) * 0.3
        a0 = float(rng.uniform(0.2, 0.8))
        w = rng.normal(size=d) * 0.2
        u = float(rng.uniform(0.05, 0.5))
        loss = float(c @ w + a0)
        if abs(loss - lam * u) < 1e-3:  # stay away from the kink
            continue
        gw, gu = lifted_grad(loss, c, u, lam, tau)
        direction = rng.normal(size=d + 1)
        direction /= np.linalg.norm(direction)

        def f(wv, uv):
            return lifted_loss(float(c @ wv + a0), uv, lam, tau)

        plus = f(w + t_half * direction[:d], u + t_half * direction[d])
        minus = f(w - t_half * direction[:d], u - t_half * direction[d])
        numeric = (plus - minus) / (2.0 * t_half)
        analytic = float(gw @ direction[:d]) + gu * direction[d]
        assert numeric == pytest.approx(analytic, rel=1e-5, abs=1e-7)
        checked += 1


def test_type_validation():
    with pytest.raises(ValueError):
        TailMass(0.0)
    with pytest.raises(ValueError):
        TailMass(1.0 + 1e-9)
    with pytest.raises(ValueError):
        LossBound(-0.1)
    with pytest.raises(ValueError):
        BoundedLossVector(np.array([0.5, 1.2]), B1)
    with pytest.raises(ValueError):
        BoundedLossVector(np.array([]), B1)
    with pytest.raises(ValueError):
        DiscreteDistribution([0.0, 1.0], [0.6, 0.5])
    with pytest.raises(ValueError):
        DiscreteDistribution([0.0, 1.0], [-0.1, 1.1])
    # values exactly at the endpoints are legal
    BoundedLossVector(np.array([0.0, 1.0]), B1)


@pytest.mark.parametrize(
    "values, message",
    [
        ([0.5, np.nan], "non-finite"),
        ([np.inf, 0.5], "non-finite"),
        ([-np.inf, 0.5], "non-finite"),
        ([-1.0, np.nan], "non-finite"),  # non-finite wins over out of range
        ([0.5, 1.5], r"must lie in \[0, 1.0\]"),
        ([-0.1, 0.5], r"must lie in \[0, 1.0\]"),
    ],
)
def test_loss_validation_messages(values, message):
    with pytest.raises(ValueError, match=message):
        BoundedLossVector(np.array(values), B1)


@pytest.mark.parametrize(
    "counts, message",
    [
        ([1.0, -1.0, 2.0], "nonnegative whole"),
        ([1.0, 0.5, 2.0], "nonnegative whole"),
        ([1.0, np.nan, 2.0], "nonnegative whole"),
        ([1.0, np.inf, 2.0], "nonnegative whole"),
        ([2.0**53, 0.0, 0.0], "sum to n"),
        ([1.0, 2.0], "one per atom"),
        ([0.0, 0.0, 0.0], "sum to n"),
    ],
)
def test_counted_sample_validation(counts, message):
    with pytest.raises(ValueError, match=message):
        BoundedLossVector(np.array([0.0, 0.5, 1.0]), B1, np.array(counts))


def test_counted_sample_size_and_atom_check():
    sample = BoundedLossVector([1.0, 0.0], B1, np.array([0.0, 7.0]))  # a zero count is legal
    assert sample.n == len(sample) == 7 and type(sample.n) is int
    assert empirical_cvar(sample, TailMass(0.5)) == 0.0
    with pytest.raises(ValueError, match=r"must lie in \[0, 1.0\]"):
        BoundedLossVector([1.5, 0.0], B1, np.array([0.0, 7.0]))  # atoms are checked, counted or not


def test_counted_sample_keeps_its_own_counts():
    counts = np.array([2.0, 5.0])
    sample = BoundedLossVector([1.0, 0.0], B1, counts)
    counts[:] = [7.0, 0.0]  # the caller's array is not the sample's
    assert sample.counts.tolist() == [2.0, 5.0] and sample.n == 7
    assert empirical_cvar(sample, TailMass(0.5)) == 2.0 / 3.5
    with pytest.raises(ValueError):
        sample.counts[0] = 0.0
    with pytest.raises(AttributeError):
        sample.n = 3
