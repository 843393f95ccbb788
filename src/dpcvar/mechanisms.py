"""Base differential-privacy mechanisms with reproducible randomness.

Every mechanism draws from a RandomStream: a (seed, stream_id) pair that maps
to an independent generator. Identical pairs reproduce identical draws
bit-for-bit on one build, which is what makes the sweep harness byte-stable
and lets tests replay mechanism outputs exactly. A single stream is stateful
and must not be shared across threads.
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
    if not budget.is_pure:
        raise ValueError("the exponential mechanism is pure DP; delta must be 0")
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("scores must be a nonempty one-dimensional array")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    m = s.size
    dq = sensitivity.value
    all_equal = bool(s.max() == s.min())
    if dq == 0.0 and not all_equal:
        raise ValueError("zero sensitivity requires all scores equal")
    u = rng.generator.random(size)
    if dq == 0.0 or all_equal:
        idx = (np.asarray(u) * m).astype(np.int64)
    else:
        logits = (budget.epsilon / (2.0 * dq)) * s
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
    """The exact selection distribution the mechanism samples from."""
    s = np.asarray(scores, dtype=np.float64)
    dq = sensitivity.value
    if dq == 0.0 or s.max() == s.min():
        return np.full(s.size, 1.0 / s.size)
    logits = (budget.epsilon / (2.0 * dq)) * s
    logits -= logits.max()
    weights = np.exp(logits)
    return weights / weights.sum()


def gaussian_sigma_for_budget(
    l2_sensitivity: float, budget: PrivacyBudget, iterations: int
) -> float:
    """Per-release Gaussian scale so `iterations` releases meet the budget.

    A single release uses the classical calibration
    sigma = S * sqrt(2*ln(1.25/delta)) / eps. For T >= 2 the budget is split
    by advanced composition: each release runs at eps0 = eps/(2*sqrt(2*T*ln(2/delta)))
    and delta0 = delta/(2*T), and sigma is the classical scale at (eps0, delta0).
    """
    if not (math.isfinite(l2_sensitivity) and l2_sensitivity >= 0.0):
        raise ValueError(f"l2 sensitivity must be nonnegative, got {l2_sensitivity!r}")
    if budget.delta <= 0.0:
        raise ValueError("Gaussian calibration requires delta > 0")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    eps, delta = budget.epsilon, budget.delta
    if iterations == 1:
        return l2_sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / eps
    t = float(iterations)
    eps0 = eps / (2.0 * math.sqrt(2.0 * t * math.log(2.0 / delta)))
    delta0 = delta / (2.0 * t)
    return l2_sensitivity * math.sqrt(2.0 * math.log(1.25 / delta0)) / eps0
