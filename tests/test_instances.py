"""Tests for the constructed problem families and the tail embedding."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dpcvar.instances import (
    DUMMY,
    build_synthetic_cvar_sample,
    embedded_table_law,
    make_linear_family,
    make_packing,
    make_scalar_pair,
)
from dpcvar.mechanisms import PrivacyBudget
from dpcvar.risk import (
    DiscreteDistribution,
    LossBound,
    TailMass,
    population_cvar_discrete,
)

B1 = LossBound(1.0)


def test_scalar_pair_worked_example():
    pair = make_scalar_pair(
        n=8, tau=TailMass(0.5), budget=PrivacyBudget(0.25), bound=B1, c1=1.0 / 8.0
    )
    # min(tau, 1/(eps*n)) = min(0.5, 0.5) = 0.5, so p = 1/16 and gap = 1/8
    assert pair.p == pytest.approx(1.0 / 16.0)
    assert pair.gap == pytest.approx(1.0 / 8.0)
    assert pair.true_cvar(0) == 0.0
    assert pair.true_cvar(1) == pytest.approx(pair.gap)
    got = population_cvar_discrete(pair.p1, TailMass(0.5))
    assert got == pytest.approx(pair.gap, abs=1e-12)
    assert population_cvar_discrete(pair.p0, TailMass(0.5)) == 0.0


def test_scalar_pair_privacy_branch():
    pair = make_scalar_pair(
        n=1000, tau=TailMass(0.5), budget=PrivacyBudget(0.1), bound=B1, c1=0.25
    )
    assert pair.p == pytest.approx(0.25 / 100.0)
    assert pair.gap == pytest.approx(pair.p * 1.0 / 0.5)


def test_scalar_pair_rejects_bad_constants():
    with pytest.raises(ValueError):
        make_scalar_pair(n=0, tau=TailMass(0.5), budget=PrivacyBudget(1.0), bound=B1)
    with pytest.raises(ValueError):
        make_scalar_pair(n=5, tau=TailMass(0.5), budget=PrivacyBudget(1.0), bound=B1, c1=0.0)
    with pytest.raises(ValueError):
        make_scalar_pair(n=5, tau=TailMass(0.5), budget=PrivacyBudget(1.0), bound=B1, c1=1.5)


def test_packing_excess_matches_population_cvar():
    tau = TailMass(0.2)
    inst = make_packing(M=6, n=50, tau=tau, budget=PrivacyBudget(0.5), bound=B1)
    for j in range(inst.M):
        dist = inst.distribution(j)
        pops = []
        for r in range(inst.M):
            losses = inst.loss_of(r, dist.values)
            pops.append(
                population_cvar_discrete(DiscreteDistribution(losses, dist.probs), tau)
            )
        assert pops[j] == pytest.approx(0.0, abs=1e-15)
        for r in range(inst.M):
            assert pops[r] - pops[j] == pytest.approx(inst.excess_of(r, j), abs=1e-12)


def test_packing_loss_table_shape():
    inst = make_packing(
        M=3, n=40, tau=TailMass(0.5), budget=PrivacyBudget(1.0), bound=LossBound(2.0)
    )
    pts = np.array([0.0, 1.0, 2.0, 3.0, 0.0])
    np.testing.assert_array_equal(inst.loss_of(0, pts), [0.0, 0.0, 2.0, 2.0, 0.0])
    np.testing.assert_array_equal(inst.loss_of(2, pts), [0.0, 2.0, 2.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        inst.loss_of(3, pts)
    with pytest.raises(ValueError):
        inst.distribution(-1)


def test_packing_int_index_equals_one_row_block():
    inst = make_packing(
        M=5, n=40, tau=TailMass(0.5), budget=PrivacyBudget(1.0), bound=LossBound(0.7)
    )
    pts = np.random.default_rng(3).integers(0, inst.M + 1, size=60).astype(np.float64)
    for r in range(inst.M):
        block_row = inst.loss_of(np.array([r]), pts)[0]
        for index in (r, np.int64(r)):
            got = inst.loss_of(index, pts)
            assert got.shape == (pts.size,)
            assert got.tobytes() == block_row.tobytes()
    for bad in (-1, inst.M, np.int64(inst.M)):
        with pytest.raises(ValueError, match="predictor index"):
            inst.loss_of(bad, pts)


def test_packing_draw_is_index_then_sample():
    inst = make_packing(M=7, n=30, tau=TailMass(0.5), budget=PrivacyBudget(1.0), bound=B1)
    for seed in range(5):
        j, pts = inst.draw(30, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        want_j = int(rng.integers(inst.M))
        assert j == want_j
        assert pts.tobytes() == inst.distribution(want_j).sample(30, rng).tobytes()


def test_packing_requires_two_predictors():
    with pytest.raises(ValueError):
        make_packing(M=1, n=10, tau=TailMass(0.5), budget=PrivacyBudget(1.0), bound=B1)


def test_embedding_identity_random_tables():
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        raw_p = rng.random(k)
        raw_p /= raw_p.sum()
        raw_p[-1] = 1.0 - raw_p[:-1].sum()
        values = rng.random(k)
        tau = TailMass(float(rng.choice([0.05, 0.3, 1.0])))
        law = embedded_table_law(values, raw_p, tau, B1)
        base = float(np.dot(values, raw_p))
        assert population_cvar_discrete(law, tau) == pytest.approx(base, abs=1e-12)


def test_embedding_induced_distribution_mass():
    law = embedded_table_law([0.5, 1.0], [0.25, 0.75], TailMass(0.2), B1)
    np.testing.assert_array_equal(law.values, [0.5, 1.0, 0.0])
    np.testing.assert_allclose(law.probs, [0.2 * 0.25, 0.2 * 0.75, 0.8], rtol=1e-15)
    assert float(law.probs.sum()) == pytest.approx(1.0, abs=1e-12)
    got = population_cvar_discrete(law, TailMass(0.2))
    assert got == pytest.approx(0.5 * 0.25 + 1.0 * 0.75, abs=1e-12)


@pytest.mark.parametrize("values, probs", [
    ([0.5, 1.0], [1.0]),  # lengths differ
    ([], []),  # empty
    ([[0.5]], [[1.0]]),  # not one-dimensional
    ([0.5, 1.5], [0.5, 0.5]),  # a value above B
    ([-0.1, 0.5], [0.5, 0.5]),  # a negative value
    ([0.5, 1.0], [1.5, -0.5]),  # a negative probability
    ([0.5, 1.0], [0.5, 0.6]),  # probabilities sum past 1
])
def test_embedded_table_law_rejects_bad_tables(values, probs):
    with pytest.raises(ValueError):
        embedded_table_law(values, probs, TailMass(0.5), B1)


def test_synthetic_sample_layout():
    ordinary = ["a", "b", "c"]
    rng = np.random.default_rng(2)
    sample = build_synthetic_cvar_sample(ordinary, n=50, tau=TailMass(0.4), dummy=DUMMY, rng=rng)
    assert len(sample) == 50
    placed = [y for t, y in sample if t == 1 and y is not DUMMY]
    assert placed == ordinary[: len(placed)]
    for t, y in sample:
        if t == 0:
            assert y is DUMMY


def test_synthetic_sample_one_record_stability():
    # Changing one ordinary point changes at most one synthetic record.
    for n in (2, 3, 4):
        for m in (1, 2, 3):
            for seed in range(6):
                base = [f"p{i}" for i in range(m)]
                for j in range(m):
                    other = list(base)
                    other[j] = "q"
                    a = build_synthetic_cvar_sample(
                        base, n=n, tau=TailMass(0.5), dummy=DUMMY,
                        rng=np.random.default_rng(seed),
                    )
                    b = build_synthetic_cvar_sample(
                        other, n=n, tau=TailMass(0.5), dummy=DUMMY,
                        rng=np.random.default_rng(seed),
                    )
                    diffs = sum(1 for ra, rb in zip(a, b) if ra != rb)
                    assert diffs <= 1


def test_linear_family_geometry():
    fam = make_linear_family(d=4, diameter=2.0, lipschitz=3.0, bound=LossBound(1.0))
    assert fam.g0 == pytest.approx(min(3.0, 1.0 / 2.0))
    assert fam.r0 == pytest.approx(fam.g0 * 2.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = fam.project(rng.normal(size=4) * 5)
        assert np.linalg.norm(w) <= 1.0 + 1e-12
        zs = np.column_stack((rng.integers(0, 2, 8), np.sign(rng.normal(size=(8, 4)))))
        vals = fam.loss_batch(w, zs)
        assert vals.shape == (8,)
        assert np.all(-1e-12 <= vals) and np.all(vals <= fam.r0 + 1e-12)
        for (t, *v), val in zip(zs, vals):
            want = t * ((fam.g0 / 2.0) * (np.array(v) @ w) + fam.shift)  # sqrt(d) = 2
            assert val == pytest.approx(want, abs=1e-12)
        grads = fam.subgrad_batch(w, zs)
        np.testing.assert_allclose(np.linalg.norm(grads, axis=1), fam.g0 * zs[:, 0], atol=1e-12)
        np.testing.assert_array_equal(grads, fam.subgrad_batch(np.zeros(4), zs))


def test_linear_family_population_optimum_matches_grid():
    fam = make_linear_family(d=2, diameter=1.0, lipschitz=1.0, bound=B1)
    mu = np.array([0.6, -0.3])
    best = fam.population_optimum(mu)
    angles = np.linspace(0.0, 2 * math.pi, 5000, endpoint=False)
    radius = fam.diameter / 2.0
    grid = min(
        fam.population_value(radius * np.array([math.cos(a), math.sin(a)]), mu)
        for a in angles
    )
    assert best == pytest.approx(grid, abs=1e-5)
    w_star = -(fam.diameter / 2.0) * mu / np.linalg.norm(mu)
    assert fam.population_value(w_star, mu) == pytest.approx(best, abs=1e-12)
    assert fam.population_excess(w_star, mu) == pytest.approx(0.0, abs=1e-12)


def test_linear_family_sign_sampling():
    fam = make_linear_family(d=3, diameter=1.0, lipschitz=1.0, bound=B1)
    mu = np.array([0.5, -0.5, 0.0])
    rng = np.random.default_rng(4)
    rows = fam.sample_embedded(mu, TailMass(0.3), 40_000, rng)
    assert rows.shape == (40_000, 4)
    active, vs = rows[:, 0], rows[:, 1:]
    assert set(np.unique(active)) <= {0.0, 1.0}
    assert active.mean() == pytest.approx(0.3, abs=0.01)
    assert set(np.unique(vs)) <= {-1.0, 1.0}
    np.testing.assert_allclose(vs.mean(axis=0), mu, atol=0.02)
    # the activations come first in the stream, then the signs
    again = np.random.default_rng(4)
    np.testing.assert_array_equal(active, again.random(40_000) < 0.3)
    np.testing.assert_array_equal(vs > 0.0, again.random((40_000, 3)) < (1.0 + mu) / 2.0)
    with pytest.raises(ValueError):
        fam.sample_embedded(np.array([2.0, 0.0, 0.0]), TailMass(0.3), 5, rng)
