"""Base differential-privacy mechanisms with reproducible randomness.

Every mechanism draws from a RandomStream: a (seed, stream_id) pair that maps
to an independent generator. Identical pairs reproduce identical draws
bit-for-bit on one build, which is what makes the sweep harness byte-stable
and lets tests replay mechanism outputs exactly. A single stream is stateful:
use it from one thread at a time. The sweep harness gives each replicate its
own stream, so replicates may run in any order or process.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) differential-privacy budget.

    epsilon must be positive; delta in [0, 1). delta = 0 means pure DP.
    Calibrated experiments keep epsilon <= 1; larger values are legal and are
    used to make noise negligible in nonprivate baselines.
    """

    epsilon: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if not (math.isfinite(self.delta) and 0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must lie in [0, 1), got {self.delta!r}")

    @property
    def is_pure(self) -> bool:
        return self.delta == 0.0


@dataclass(frozen=True)
class SensitivityValue:
    """A nonnegative, finite sensitivity bound for a query."""

    value: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise ValueError(f"sensitivity must be nonnegative and finite, got {self.value!r}")


def stable_stream_id(*parts: object) -> int:
    """Map a tuple of parameters to a 63-bit stream id, stably across runs.

    Built on sha256 of the repr strings, so it does not depend on Python's
    per-process hash seed and permuting caller execution order cannot change
    any stream's draws. numpy scalars are hashed as the equal Python number,
    so np.float64(0.05) and 0.05 give the same id (1 and 1.0 still differ).
    """
    text = "|".join(repr(p.item() if isinstance(p, np.generic) else p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << 63) - 1)


@dataclass
class RandomStream:
    """Reproducible randomness source keyed by (seed, stream_id)."""

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence([int(self.seed), int(self.stream_id)])
            self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen


def laplace_noise(scale: float, rng: RandomStream, size: int | None = None):
    """Laplace(0, scale) noise via inverse CDF, one uniform per draw.

    Returns a float when size is None, else an ndarray of that length.
    """
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    g = rng.generator
    u = g.random() if size is None else g.random(size)
    # u in [0, 1); shift to the signed half-interval and guard the log endpoint
    p = u - 0.5
    core = 1.0 - 2.0 * np.abs(p)
    core = np.maximum(core, 1e-300)
    draw = -scale * np.sign(p) * np.log(core)
    return float(draw) if size is None else draw


def gaussian_noise(sigma: float, dim: int, rng: RandomStream, rows: int | None = None):
    """iid N(0, sigma^2) vector of length dim.

    With `rows`, a (rows, dim) block equal to `rows` single calls.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return rng.generator.normal(0.0, sigma, size=dim if rows is None else (rows, dim))


def _checked_scores(
    scores: np.ndarray, sensitivity: SensitivityValue, budget: PrivacyBudget
) -> tuple[np.ndarray, bool]:
    """The scores as a float array and whether they are all equal; raises
    ValueError on any input the exponential mechanism refuses."""
    if not budget.is_pure:
        raise ValueError("the exponential mechanism is pure DP; delta must be 0")
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("scores must be a nonempty one-dimensional array")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    all_equal = bool(s.max() == s.min())
    if sensitivity.value == 0.0 and not all_equal:
        raise ValueError("zero sensitivity requires all scores equal")
    return s, all_equal


def exponential_mechanism(
    scores: np.ndarray,
    sensitivity: SensitivityValue,
    budget: PrivacyBudget,
    rng: RandomStream,
    size: int | None = None,
) -> int | np.ndarray:
    """Sample an index with probability proportional to exp(eps*score/(2*Dq)).

    Higher scores are better. Uses max-subtraction before exponentiation and
    inverts the cumulative distribution with one uniform per draw. A zero
    sensitivity is only legal when all scores are equal (the choice is then
    uniform and leaks nothing). With `size`, returns an int array of that many
    independent draws, equal to `size` single calls on the same stream.
    """
    s, all_equal = _checked_scores(scores, sensitivity, budget)
    m = s.size
    u = rng.generator.random(size)
    if all_equal:
        idx = (np.asarray(u) * m).astype(np.int64)
    else:
        logits = (budget.epsilon / (2.0 * sensitivity.value)) * s
        logits -= logits.max()
        weights = np.exp(logits)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        idx = np.searchsorted(cdf, u, side="right")
    idx = np.minimum(idx, m - 1)
    return int(idx) if size is None else idx


def exponential_mechanism_probs(
    scores: np.ndarray, sensitivity: SensitivityValue, budget: PrivacyBudget
) -> np.ndarray:
    """The exact selection distribution the mechanism samples from; refuses
    the inputs the mechanism refuses."""
    s, all_equal = _checked_scores(scores, sensitivity, budget)
    if all_equal:
        return np.full(s.size, 1.0 / s.size)
    logits = (budget.epsilon / (2.0 * sensitivity.value)) * s
    logits -= logits.max()
    weights = np.exp(logits)
    return weights / weights.sum()


def _mills_ratio(x: float) -> float:
    """Phi(-x) / phi(x) for x >= 0, the standard normal Mills ratio, without overflow."""
    if x < 25.0:
        return math.sqrt(0.5 * math.pi) * math.exp(0.5 * x * x) * math.erfc(x / math.sqrt(2.0))
    # asymptotic series (1/x) * sum_k (-1)^k (2k-1)!! / x^(2k); at x >= 25 the
    # first omitted term is below 1e-22 of the sum
    term, total = 1.0 / x, 0.0
    for k in range(12):
        total += term
        term *= -(2 * k + 1) / (x * x)
    return total


def _gaussian_delta(eps: float, ratio: float) -> float:
    """Exact delta of one Gaussian release with sigma = ratio * sensitivity at eps.

    Balle & Wang (ICML 2018), Theorem 8: delta = Phi(a - b) - e^eps * Phi(-a - b)
    with a = 1/(2*ratio) and b = eps*ratio. As (a + b)^2 - (b - a)^2 = 2*eps,
    e^eps * phi(a + b) = phi(b - a), so the second term is phi(b - a) times
    the Mills ratio at a + b, which neither overflows nor underflows.
    """
    a, b = 0.5 / ratio, eps * ratio
    density = math.exp(-0.5 * (b - a) * (b - a)) / math.sqrt(2.0 * math.pi)
    return 0.5 * math.erfc((b - a) / math.sqrt(2.0)) - density * _mills_ratio(a + b)


def gaussian_sigma_for_budget(
    l2_sensitivity: float, budget: PrivacyBudget, iterations: int
) -> float:
    """Per-release Gaussian scale so `iterations` releases meet the budget.

    A single release uses the analytic Gaussian mechanism: the smallest sigma
    whose exact delta at eps (`_gaussian_delta`) is at most the budget's
    delta, found by bisection; its computed delta never exceeds the target.
    For T >= 2 the budget is split by advanced composition: each release runs
    at eps0 = eps/(2*sqrt(2*T*ln(2/delta))) and delta0 = delta/(2*T), with the
    classical scale sigma = S * sqrt(2*ln(1.25/delta0)) / eps0.
    """
    if not (math.isfinite(l2_sensitivity) and l2_sensitivity >= 0.0):
        raise ValueError(f"l2 sensitivity must be nonnegative, got {l2_sensitivity!r}")
    if budget.delta <= 0.0:
        raise ValueError("Gaussian calibration requires delta > 0")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    eps, delta = budget.epsilon, budget.delta
    if iterations > 1:
        t = float(iterations)
        eps0 = eps / (2.0 * math.sqrt(2.0 * t * math.log(2.0 / delta)))
        delta0 = delta / (2.0 * t)
        return l2_sensitivity * math.sqrt(2.0 * math.log(1.25 / delta0)) / eps0
    # the exact delta falls from 1 towards 0 as sigma grows: bracket the target, then bisect
    lo = hi = math.sqrt(2.0 * math.log(1.25 / delta)) / eps
    while _gaussian_delta(eps, hi) > delta:
        hi *= 2.0
    while _gaussian_delta(eps, lo) <= delta:
        lo *= 0.5
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _gaussian_delta(eps, mid) > delta:
            lo = mid
        else:
            hi = mid
    return l2_sensitivity * hi
