"""Tail-risk primitives: empirical and population CVaR, sensitivity constants,
and the lifted reformulation used by the convex learner.

Conventions used throughout:
  * losses live in [0, B] for a known bound B >= 0,
  * tail mass tau is in (0, 1]; tau = 1 degenerates to the mean,
  * CVaR at level tau is the average of the worst tau-fraction of the loss
    distribution, computed with capped weights so that fractional order
    statistics are handled exactly.

There is one empirical CVaR kernel, `cvar_rows`, which scores every row of an
(R, n) loss block with one row-wise sort, or of an (R, k) block of distinct
records weighted by their counts; `empirical_cvar` runs it on a one-row view
of a sample, dense or counted (`DiscreteDistribution.sample_counts` draws the
counts of a finitely supported law without building the n losses, and skips
a one-atom law's uniforms by advancing its stream past them). Sorting beats
`np.partition` here on the heavily tied 0/B losses the hard instances produce.

The convex learner minimizes the lifted (Rockafellar-Uryasev) objective
lam*u + (1/tau)*(loss - lam*u)_+ over (w, u): `lift_scale` picks lam,
`lifted_gradient_bound` bounds the joint subgradient norm, and
`lifted_terms` gives every point's clipped subgradient terms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Bit generators whose `advance(k)` moves the stream as k `random()` doubles
# do; Philox's counts 4-output blocks, and MT19937 and SFC64 have none.
_ADVANCEABLE = (np.random.PCG64, np.random.PCG64DXSM)
# Most values one transient block holds (uniforms `sample_counts` draws, signs
# `sample_embedded` writes, losses `private_finite_class` scores, noise the
# convex learner draws, samples the sensitivity audit enumerates): a whole
# (1024, 640) loss block would add about 10 MiB of transients, 2**15 a few
# hundred KiB, still amortizing each call.
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class TailMass:
    """Tail probability level tau in (0, 1]."""

    tau: float

    def __post_init__(self) -> None:
        if not (isinstance(self.tau, numbers.Real) and math.isfinite(self.tau)):
            raise ValueError(f"tail mass must be a finite number, got {self.tau!r}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tail mass must lie in (0, 1], got {self.tau}")


@dataclass(frozen=True)
class LossBound:
    """Known upper bound B >= 0 on the loss range [0, B]."""

    b: float

    def __post_init__(self) -> None:
        if not (isinstance(self.b, numbers.Real) and math.isfinite(self.b)):
            raise ValueError(f"loss bound must be a finite number, got {self.b!r}")
        if self.b < 0.0:
            raise ValueError(f"loss bound must be nonnegative, got {self.b}")


def check_losses(values: np.ndarray, bound: LossBound) -> None:
    """Raise unless every entry of a nonempty float array is finite and in [0, B].

    NaN and infinities fail the range test, so `isfinite` only picks the message.
    """
    lo, hi = values.min(), values.max()
    if not (0.0 <= lo and hi <= bound.b):
        if not np.all(np.isfinite(values)):
            raise ValueError("loss vector contains non-finite entries")
        raise ValueError(f"loss values must lie in [0, {bound.b}]")


class BoundedLossVector:
    """A sample of n >= 1 losses, each validated into [0, B].

    Values exactly at 0 or B are legal; anything outside raises. With
    `counts`, `values` are atoms and the sample holds counts[i] copies of
    values[i]: the counts are nonnegative whole numbers (float64, zeros
    allowed) summing to n in [1, 2**53), and the sample stands for
    `np.repeat(values, counts)`. The counts are copied into a read-only array
    and `n` is fixed here, so the two stay in step and reading `n` never
    re-sums the counts.
    """

    __slots__ = ("values", "bound", "counts", "_n")

    def __init__(self, values: Sequence[float] | np.ndarray, bound: LossBound,
                 counts: Sequence[float] | np.ndarray | None = None):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("loss vector must be one-dimensional with n >= 1")
        check_losses(arr, bound)
        n = arr.size
        if counts is not None:
            counts = np.array(counts, dtype=np.float64)
            counts.flags.writeable = False
            listed = counts.tolist()  # a few atoms: Python floats check faster than ufuncs
            if counts.shape != arr.shape or not all(c >= 0.0 and c.is_integer() for c in listed):
                raise ValueError("counts must be nonnegative whole numbers, one per atom")
            total = sum(listed)  # exact: whole numbers, and the total is checked below 2**53
            if not 1.0 <= total < 2.0**53:
                raise ValueError(f"counts must sum to n in [1, 2**53), got {total}")
            n = int(total)
        self.values = arr
        self.bound = bound
        self.counts = counts
        self._n = n

    @property
    def n(self) -> int:
        return self._n

    def __len__(self) -> int:
        return self._n


class DiscreteDistribution:
    """Finitely supported distribution given by atoms (value, prob).

    Probabilities must be nonnegative and sum to 1 within 1e-12.
    """

    __slots__ = ("values", "probs", "_cum")

    def __init__(self, values: Sequence[float] | np.ndarray, probs: Sequence[float] | np.ndarray):
        v = np.asarray(values, dtype=np.float64)
        p = np.asarray(probs, dtype=np.float64)
        if v.ndim != 1 or p.shape != v.shape or v.size < 1:
            raise ValueError("values and probs must be matching one-dimensional arrays")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(p))):
            raise ValueError("atoms must be finite")
        if p.min() < 0.0:
            raise ValueError("atom probabilities must be nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError(f"atom probabilities sum to {p.sum()!r}, expected 1 within 1e-12")
        self.values = v
        self.probs = p
        self._cum = np.cumsum(p)
        self._cum[-1] = 1.0  # guard the last edge against rounding

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw `count` iid atoms by inverse CDF over a uniform block.

        A uniform u takes atom i when i interior CDF edges are <= u, found by
        comparing u against each edge in turn.
        """
        u = rng.random(count)
        out = np.full(count, self.values[0])
        for edge, value in zip(self._cum[:-1], self.values[1:]):
            np.putmask(out, u >= edge, value)
        return out

    def sample_counts(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """How many of `count` draws of `sample` on this stream take each atom.

        Float64 counts, one per atom (zero for an atom no draw takes), equal to
        the `np.bincount` of the atom indices `sample` would draw from the same
        uniforms against the same CDF edges, and the generator is left
        exactly where `sample` leaves it. The uniforms are drawn
        `_BLOCK_ELEMENTS` at a time into one reused buffer, so no array of
        `count` values is made. A one-atom distribution ignores its uniforms:
        on a PCG64 or PCG64DXSM stream with no buffered 32-bit half it
        advances the stream past them instead of drawing them, which leaves
        the generator exactly where `rng.random(count)` would.
        """
        bits = rng.bit_generator
        if self.values.size == 1 and type(bits) in _ADVANCEABLE and not bits.state["has_uint32"]:
            bits.advance(int(count))  # advance rejects numpy integers
            return np.array([float(count)])
        edges = self._cum[:-1].tolist()
        counts = [0] * self.values.size
        u = np.empty(min(count, _BLOCK_ELEMENTS))
        for drawn in range(0, count, _BLOCK_ELEMENTS):
            block = rng.random(out=u[:min(_BLOCK_ELEMENTS, count - drawn)])
            # atom i takes cum[i-1] <= u < cum[i]: the draws past edge i-1 but not edge i
            passed = [block.size, *(np.count_nonzero(block >= edge) for edge in edges), 0]
            counts = [c + a - b for c, a, b in zip(counts, passed, passed[1:])]
        return np.array(counts, dtype=np.float64)


def cvar_rows(values: np.ndarray, n_tau: float, counts: np.ndarray | None = None) -> np.ndarray:
    """Empirical CVaR of each row of an (R, n) loss block, with n_tau = n*tau.

    Capped-weight tail average: with k = floor(n*tau), the worst k order
    statistics of a row get full weight and the (k+1)-th gets the fractional
    remainder, all divided by n*tau; when n*tau >= n it is the row mean.
    It is computed as nxt + (top - k*nxt) / (n*tau), with top the sum of
    the worst k and nxt the (k+1)-th: on subnormal losses the difference is
    exact and only the division rounds, where (top + (n*tau - k)*nxt) / (n*tau)
    underflows (to 0 for the row [5e-324] at n*tau = 0.5).

    With `counts`, column c of an (R, m) block stands for counts[c] equal
    losses, so the block is that of n = counts.sum() losses and the result
    is that of `np.repeat(values, counts, axis=1)`; the mean path is
    (values @ counts) / n. Each row is argsorted and filled from the top: a
    column gets the full weight clip(k - count above it, 0, its count), and
    nxt is the column in which the (k+1)-th loss falls. Only the summation
    order differs from the repeated block, so on 0/B losses with B a power
    of two the result is bitwise the same.
    """
    if counts is None:
        if n_tau >= values.shape[1]:
            return values.mean(axis=1)
        return _sorted_cvar_rows(np.sort(values, axis=1), n_tau)
    n = counts.sum()
    if n_tau >= n:
        return values @ counts / n
    k = math.floor(n_tau)
    order = values.argsort(axis=1)
    rows = np.arange(len(values))
    ordered = values[rows[:, None], order]
    weights = counts[order]
    # k minus the count above each column (np.add.accumulate: cumsum without its Python layer)
    room = np.add.accumulate(weights, axis=1) - (n - k)
    top = np.einsum("ij,ij->i", ordered, np.minimum(np.maximum(room, 0.0), weights))
    nxt = ordered[rows, (room >= 0.0).argmax(axis=1)]
    return nxt + (top - k * nxt) / n_tau


def _sorted_cvar_rows(ordered: np.ndarray, n_tau: float) -> np.ndarray:
    """`cvar_rows` of a block whose rows are sorted ascending, for n_tau < n."""
    n = ordered.shape[1]
    k = int(math.floor(n_tau))
    top = ordered[:, n - k:].sum(axis=1)
    nxt = ordered[:, n - k - 1]
    return nxt + (top - k * nxt) / n_tau


def empirical_cvar(sample: BoundedLossVector, tau: TailMass) -> float:
    """Empirical CVaR of the sample at tail mass tau (`cvar_rows` on one row)."""
    return float(cvar_rows(sample.values[None, :], sample.n * tau.tau, sample.counts)[0])


def population_cvar_discrete(dist: DiscreteDistribution, tau: TailMass) -> float:
    """Population CVaR of a finitely supported distribution.

    Sorts atoms by decreasing value and fills tail mass tau greedily; the last
    atom taken may enter with partial weight. tau = 1 gives the mean.
    """
    t = tau.tau
    order = np.argsort(-dist.values, kind="stable")
    acc = 0.0
    remaining = t
    for i in order:
        if remaining <= 0.0:
            break
        w = min(float(dist.probs[i]), remaining)
        acc += w * float(dist.values[i])
        remaining -= w
    return acc / t


def cvar_sensitivity_bound(n: int, tau: TailMass, bound: LossBound) -> float:
    """Worst-case change of empirical CVaR under one substituted record.

    The bound B * min{1, 1/(n*tau)} is exact: it is attained by changing one
    record between 0 and B in an otherwise all-zero sample.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    return bound.b * min(1.0, 1.0 / (n * tau.tau))


def lifted_gradient_bound(lipschitz: float, lam: float, tau: TailMass) -> float:
    """Joint norm bound sqrt(G^2 + lam^2)/tau for lifted subgradients."""
    return math.sqrt(lipschitz * lipschitz + lam * lam) / tau.tau


def lift_scale(lipschitz: float, bound: float, diameter: float) -> float:
    """Lift scale lam = sqrt(G*B/D) of the threshold coordinate.

    It balances the threshold direction against the weight directions. When
    G or B is 0 the scale is 1, which keeps the u-range [0, B/lam] equal to
    [0, B].
    """
    if lipschitz == 0.0 or bound == 0.0:
        return 1.0
    return math.sqrt(lipschitz * bound / diameter)


def lifted_terms(sw: np.ndarray, grad_sq: np.ndarray, lam: float, l_lift: float):
    """Per-point clipped subgradient terms of the lifted loss.

    The lifted loss of one point is lam*u + (1/tau)*(loss - lam*u)_+ over
    (w, u). With the point's active weight sw = 1{loss - lam*u > 0}/tau (the
    tie takes 0) and its loss subgradient g, where grad_sq = |g|^2, its
    subgradient is (sw * g, lam * (1 - sw)). Each point's joint norm is
    clipped to `l_lift` by a factor c <= 1. Returns (c * sw, c, lam * (1 - sw)):
    the clipped w-part is (c * sw) * g and the clipped u-part c * lam * (1 - sw).

    All elementwise, so selecting per point from two evaluations at constant
    `sw` gives the same bits as one evaluation at the mixed `sw`.
    """
    gu = lam * (1.0 - sw)
    norms = np.sqrt(sw * sw * grad_sq + gu * gu)
    factors = np.where(norms > l_lift, l_lift / np.maximum(norms, 1e-300), 1.0)
    return factors * sw, factors, gu
