"""Distributional checks for the base mechanisms.

Continuous mechanisms are tested with Kolmogorov-Smirnov against their
closed-form CDFs (significance 1e-3 at 1e5 draws); the selector is tested in
total variation against its exact softmax distribution.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from dpcvar.mechanisms import (
    PrivacyBudget,
    RandomStream,
    SensitivityValue,
    exponential_mechanism,
    exponential_mechanism_probs,
    gaussian_noise,
    gaussian_sigma_for_budget,
    laplace_noise,
    stable_stream_id,
)
from dpcvar.mechanisms import _gaussian_delta

N_DRAWS = 100_000
KS_SIGNIFICANCE = 1e-3


def test_laplace_ks_and_moments():
    rng = RandomStream(seed=1, stream_id=10)
    scale = 0.7
    draws = laplace_noise(scale, rng, size=N_DRAWS)
    res = stats.kstest(draws, stats.laplace(scale=scale).cdf)
    assert res.pvalue >= KS_SIGNIFICANCE
    assert abs(float(np.mean(draws))) <= 5.0 * scale * math.sqrt(2.0 / N_DRAWS)
    assert float(np.mean(np.abs(draws))) == pytest.approx(scale, rel=0.02)


def test_laplace_batch_matches_sequential():
    batch = laplace_noise(0.5, RandomStream(seed=9, stream_id=3), size=64)
    seq_stream = RandomStream(seed=9, stream_id=3)
    seq = np.array([laplace_noise(0.5, seq_stream) for _ in range(64)])
    np.testing.assert_array_equal(batch, seq)


def test_laplace_rejects_bad_scale():
    with pytest.raises(ValueError):
        laplace_noise(0.0, RandomStream(seed=1))
    with pytest.raises(ValueError):
        laplace_noise(-1.0, RandomStream(seed=1))


def test_gaussian_ks():
    rng = RandomStream(seed=2, stream_id=0)
    sigma = 1.3
    draws = gaussian_noise(sigma, N_DRAWS, rng)
    res = stats.kstest(draws, stats.norm(scale=sigma).cdf)
    assert res.pvalue >= KS_SIGNIFICANCE


def test_exponential_mechanism_matches_softmax():
    scores = np.array([0.0, -0.3, -0.9, -2.0])
    sens = SensitivityValue(0.5)
    budget = PrivacyBudget(epsilon=1.0)
    probs = exponential_mechanism_probs(scores, sens, budget)
    logits = (budget.epsilon / (2.0 * sens.value)) * scores
    want = np.exp(logits - logits.max())
    want /= want.sum()
    np.testing.assert_allclose(probs, want, atol=1e-12)
    rng = RandomStream(seed=3, stream_id=1)
    counts = np.zeros(scores.size)
    for _ in range(N_DRAWS):
        counts[exponential_mechanism(scores, sens, budget, rng)] += 1
    tv = 0.5 * float(np.abs(counts / N_DRAWS - probs).sum())
    assert tv <= 0.02


def test_exponential_mechanism_uniform_when_flat():
    scores = np.zeros(4)
    rng = RandomStream(seed=4, stream_id=2)
    counts = np.zeros(4)
    for _ in range(20_000):
        counts[exponential_mechanism(scores, SensitivityValue(0.0), PrivacyBudget(1.0), rng)] += 1
    freqs = counts / 20_000
    se = math.sqrt(0.25 * 0.75 / 20_000)
    assert np.all(np.abs(freqs - 0.25) <= 5.0 * se)


def test_exponential_mechanism_shift_invariance():
    scores = np.array([0.1, -0.4, 0.7, 0.0, -1.2])
    sens = SensitivityValue(0.3)
    budget = PrivacyBudget(epsilon=0.8)
    a = RandomStream(seed=5, stream_id=7)
    b = RandomStream(seed=5, stream_id=7)
    for _ in range(500):
        i = exponential_mechanism(scores, sens, budget, a)
        j = exponential_mechanism(scores + 123.456, sens, budget, b)
        assert i == j


def test_exponential_mechanism_preconditions():
    rng = RandomStream(seed=6)
    with pytest.raises(ValueError):
        exponential_mechanism(np.array([0.0, 1.0]), SensitivityValue(0.0), PrivacyBudget(1.0), rng)
    with pytest.raises(ValueError):
        exponential_mechanism(
            np.array([0.0, 1.0]), SensitivityValue(0.5), PrivacyBudget(1.0, delta=1e-6), rng
        )
    with pytest.raises(ValueError):
        exponential_mechanism(np.array([]), SensitivityValue(0.5), PrivacyBudget(1.0), rng)


@pytest.mark.parametrize("scores, sens, budget, message", [
    ([0.0, 1.0], 0.0, PrivacyBudget(1.0), "zero sensitivity"),
    ([0.0, np.nan], 0.5, PrivacyBudget(1.0), "finite"),
    ([0.0, np.inf], 0.5, PrivacyBudget(1.0), "finite"),
    ([0.0, 1.0], 0.5, PrivacyBudget(1.0, delta=1e-6), "pure DP"),
])
def test_exponential_mechanism_probs_refuses_what_the_sampler_refuses(
    scores, sens, budget, message
):
    # the closed-form law once answered [0.5, 0.5], NaN or probabilities here
    scores = np.array(scores)
    with pytest.raises(ValueError, match=message):
        exponential_mechanism(scores, SensitivityValue(sens), budget, RandomStream(seed=6))
    with pytest.raises(ValueError, match=message):
        exponential_mechanism_probs(scores, SensitivityValue(sens), budget)


def _exact_gaussian_delta(eps: float, sigma: float):
    """delta(eps) of one Gaussian release at sensitivity 1, in 60-digit arithmetic.

    Balle & Wang (ICML 2018), Theorem 8: Phi(1/(2s) - eps*s) - e^eps Phi(-1/(2s) - eps*s).
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        s = mpmath.mpf(sigma)
        a, b = 1 / (2 * s), eps * s
        return mpmath.ncdf(a - b) - mpmath.exp(eps) * mpmath.ncdf(-a - b)


@pytest.mark.parametrize("eps, delta", [
    (0.1, 1e-5), (1.0, 1e-6), (2.5, 1e-8), (10.0, 1e-6), (10.0, 1e-5), (50.0, 1e-10),
    (1000.0, 1e-6),
])
def test_sigma_single_release_meets_exact_delta(eps, delta):
    budget = PrivacyBudget(epsilon=eps, delta=delta)
    sigma = gaussian_sigma_for_budget(1.0, budget, iterations=1)
    exact = _exact_gaussian_delta(eps, sigma)
    assert exact <= delta * (1.0 + 1e-9)
    assert _gaussian_delta(eps, sigma) == pytest.approx(float(exact), rel=1e-10, abs=0.0)
    # and no looser than it must be: 1e-9 less noise already misses the target
    assert _exact_gaussian_delta(eps, sigma * (1.0 - 1e-9)) > delta
    assert gaussian_sigma_for_budget(2.0, budget, 1) == pytest.approx(2.0 * sigma, rel=1e-12)


def test_sigma_monotonicity():
    budget = PrivacyBudget(epsilon=0.5, delta=1e-6)
    sigmas = [gaussian_sigma_for_budget(1.0, budget, t) for t in (1, 2, 4, 8, 16)]
    assert all(a < b for a, b in zip(sigmas, sigmas[1:]))
    # spreading over 4 releases costs at least a factor 2 per release
    assert sigmas[2] >= 2.0 * sigmas[0]
    by_eps = [
        gaussian_sigma_for_budget(1.0, PrivacyBudget(e, 1e-6), 8) for e in (0.1, 0.2, 0.5, 1.0)
    ]
    assert all(a > b for a, b in zip(by_eps, by_eps[1:]))


def test_sigma_requires_positive_delta():
    with pytest.raises(ValueError):
        PrivacyBudget(epsilon=1.0, delta=0.0) and gaussian_sigma_for_budget(
            1.0, PrivacyBudget(1.0, 0.0), 4
        )


def test_streams_reproduce_bit_for_bit():
    a = RandomStream(seed=123, stream_id=456).generator.random(32)
    b = RandomStream(seed=123, stream_id=456).generator.random(32)
    np.testing.assert_array_equal(a, b)
    c = RandomStream(seed=123, stream_id=457).generator.random(32)
    assert not np.array_equal(a, c)


def test_stable_stream_id_is_order_sensitive_and_stable():
    x = stable_stream_id("scalar", 100, 0.1)
    assert x == stable_stream_id("scalar", 100, 0.1)
    assert x != stable_stream_id("scalar", 0.1, 100)
    assert 0 <= x < 2**63


def test_stable_stream_id_ignores_numpy_scalar_types():
    text = "'scalar'|100|0.05|True"
    pinned = int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") & (2**63 - 1)
    assert stable_stream_id("scalar", 100, 0.05, True) == pinned
    typed = stable_stream_id("scalar", np.int64(100), np.float64(0.05), np.bool_(True))
    assert typed == pinned


def test_budget_validation():
    with pytest.raises(ValueError):
        PrivacyBudget(epsilon=0.0)
    with pytest.raises(ValueError):
        PrivacyBudget(epsilon=1.0, delta=1.0)
    with pytest.raises(ValueError):
        SensitivityValue(-1.0)
    assert PrivacyBudget(epsilon=2.0).is_pure
