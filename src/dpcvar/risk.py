"""Tail-risk primitives: empirical and population CVaR, sensitivity constants,
and the lifted reformulation used by the convex learner.

Conventions used throughout:
  * losses live in [0, B] for a known bound B >= 0,
  * tail mass tau is in (0, 1]; tau = 1 degenerates to the mean,
  * CVaR at level tau is the average of the worst tau-fraction of the loss
    distribution, computed with capped weights so that fractional order
    statistics are handled exactly.

There is one empirical CVaR kernel, `cvar_rows`, which scores every row of an
(R, n) loss block with one row-wise sort; `empirical_cvar` runs it on a
one-row view. Sorting beats `np.partition` here on the heavily tied 0/B
losses the hard instances produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class TailMass:
    """Tail probability level tau in (0, 1]."""

    tau: float

    def __post_init__(self) -> None:
        if not (isinstance(self.tau, (int, float)) and math.isfinite(self.tau)):
            raise ValueError(f"tail mass must be a finite number, got {self.tau!r}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tail mass must lie in (0, 1], got {self.tau}")


@dataclass(frozen=True)
class LossBound:
    """Known upper bound B >= 0 on the loss range [0, B]."""

    b: float

    def __post_init__(self) -> None:
        if not (isinstance(self.b, (int, float)) and math.isfinite(self.b)):
            raise ValueError(f"loss bound must be a finite number, got {self.b!r}")
        if self.b < 0.0:
            raise ValueError(f"loss bound must be nonnegative, got {self.b}")


@dataclass(frozen=True)
class Envelope:
    """Inverse tail level kappa >= 1; the envelope at kappa is CVaR at 1/kappa."""

    kappa: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.kappa) or self.kappa < 1.0:
            raise ValueError(f"envelope parameter must be >= 1, got {self.kappa!r}")


def check_losses(values: np.ndarray, bound: LossBound) -> None:
    """Raise unless every entry of a nonempty float array is finite and in [0, B]."""
    if not np.all(np.isfinite(values)):
        raise ValueError("loss vector contains non-finite entries")
    if values.min() < 0.0 or values.max() > bound.b:
        raise ValueError(f"loss values must lie in [0, {bound.b}]")


class BoundedLossVector:
    """A sample of n >= 1 losses, each validated into [0, B].

    Values exactly at 0 or B are legal; anything outside raises.
    """

    __slots__ = ("values", "bound")

    def __init__(self, values: Sequence[float] | np.ndarray, bound: LossBound):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("loss vector must be one-dimensional with n >= 1")
        check_losses(arr, bound)
        self.values = arr
        self.bound = bound

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.n


class DiscreteDistribution:
    """Finitely supported distribution given by atoms (value, prob).

    Probabilities must be nonnegative and sum to 1 within 1e-12.
    """

    __slots__ = ("values", "probs")

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

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[float, float]]) -> "DiscreteDistribution":
        vals = [v for v, _ in pairs]
        ps = [p for _, p in pairs]
        return cls(vals, ps)

    def mean(self) -> float:
        return float(self.values @ self.probs)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw `count` iid atoms by inverse CDF over a uniform block."""
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0  # guard the last edge against rounding
        u = rng.random(count)
        idx = np.searchsorted(cum, u, side="right")
        return self.values[idx]


@dataclass
class LiftedPoint:
    """A point (w, u) of the lifted domain W x [0, B/lambda]."""

    w: np.ndarray
    u: float


def cvar_rows(values: np.ndarray, n_tau: float) -> np.ndarray:
    """Empirical CVaR of each row of an (R, n) loss block, with n_tau = n*tau.

    Capped-weight tail average: with k = floor(n*tau), the worst k order
    statistics of a row get full weight and the (k+1)-th gets the fractional
    remainder, all divided by n*tau; when n*tau >= n it is the row mean.
    """
    n = values.shape[1]
    if n_tau >= n:
        return values.mean(axis=1)
    k = int(math.floor(n_tau))
    ordered = np.sort(values, axis=1)
    top = ordered[:, n - k:].sum(axis=1)
    nxt = ordered[:, n - k - 1]
    return (top + (n_tau - k) * nxt) / n_tau


def empirical_cvar(sample: BoundedLossVector, tau: TailMass) -> float:
    """Empirical CVaR of the sample at tail mass tau (`cvar_rows` on one row)."""
    return float(cvar_rows(sample.values[None, :], sample.n * tau.tau)[0])


def ru_objective(eta: float, sample: BoundedLossVector, tau: TailMass) -> float:
    """Threshold objective eta + (1/(n*tau)) * sum_i (x_i - eta)_+.

    Minimizing over eta in [0, B] recovers the empirical CVaR; the minimum is
    attained at a breakpoint (a sample value, or an endpoint of [0, B]).
    """
    b = sample.bound.b
    if not (0.0 <= eta <= b):
        raise ValueError(f"threshold must lie in [0, {b}], got {eta}")
    excess = np.maximum(sample.values - eta, 0.0)
    return float(eta + excess.sum() / (sample.n * tau.tau))


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


def lifted_sensitivity_bound(n: int, tau: TailMass, bound: LossBound) -> float:
    """Pointwise one-record bound B/(n*tau) for the lifted objective.

    One record contributes at most (1/(n*tau)) * (loss - lam*u)_+ <= B/(n*tau)
    to the empirical lifted objective, uniformly over the lifted domain.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    return bound.b / (n * tau.tau)


def envelope_empirical_risk(sample: BoundedLossVector, env: Envelope) -> float:
    """Empirical risk envelope at kappa: the empirical CVaR at tau = 1/kappa."""
    return empirical_cvar(sample, TailMass(1.0 / env.kappa))


def lifted_loss(loss_value: float, u: float, lam: float, tau: TailMass) -> float:
    """Lifted loss lam*u + (1/tau) * (loss - lam*u)_+ at threshold height u.

    Requires loss in [0, B] scale handled by the caller; the value lies in
    [0, B/tau] whenever lam*u in [0, B].
    """
    if lam <= 0.0:
        raise ValueError(f"lift scale must be positive, got {lam}")
    if u < 0.0:
        raise ValueError(f"lifted coordinate must be nonnegative, got {u}")
    return lam * u + max(loss_value - lam * u, 0.0) / tau.tau


def lifted_subgradient(
    loss_value: float,
    loss_subgrad_w: np.ndarray,
    u: float,
    lam: float,
    tau: TailMass,
    lipschitz: float | None = None,
) -> tuple[np.ndarray, float]:
    """Subgradient of the lifted loss in (w, u).

    Uses the active indicator s = 1{loss - lam*u > 0} (the tie takes s = 0):
    the w-part is s * (1/tau) * loss_subgrad_w and the u-part is
    lam * (1 - s/tau). If `lipschitz` is given, the input subgradient norm is
    validated against it.
    """
    if lam <= 0.0:
        raise ValueError(f"lift scale must be positive, got {lam}")
    g = np.asarray(loss_subgrad_w, dtype=np.float64)
    if lipschitz is not None:
        norm = float(np.linalg.norm(g))
        if norm > lipschitz + 1e-9:
            raise ValueError(f"loss subgradient norm {norm} exceeds Lipschitz bound {lipschitz}")
    s = 1.0 if loss_value - lam * u > 0.0 else 0.0
    t = tau.tau
    grad_w = (s / t) * g
    grad_u = lam * (1.0 - s / t)
    return grad_w, grad_u


def lifted_gradient_bound(lipschitz: float, lam: float, tau: TailMass) -> float:
    """Joint norm bound sqrt(G^2 + lam^2)/tau for lifted subgradients."""
    return math.sqrt(lipschitz * lipschitz + lam * lam) / tau.tau


def minimize_ru_breakpoints(sample: BoundedLossVector, tau: TailMass) -> tuple[float, float]:
    """Minimize the threshold objective over its breakpoints.

    Candidates are the endpoints {0, B} and the sample values; returns
    (best_eta, best_value). Used as an independent route to the empirical
    CVaR, since the piecewise-linear objective attains its minimum at a
    breakpoint.
    """
    candidates = np.concatenate(([0.0, sample.bound.b], sample.values))
    best_eta = 0.0
    best_val = math.inf
    for eta in candidates:
        val = ru_objective(float(eta), sample, tau)
        if val < best_val:
            best_val = val
            best_eta = float(eta)
    return best_eta, best_val


def cvar_dual_value(
    sample: BoundedLossVector, tau: TailMass, weights: np.ndarray
) -> float:
    """Value (1/n) * sum_i q_i * x_i of a capped dual weighting q.

    Feasible weightings satisfy 0 <= q_i <= 1/tau and (1/n) * sum q_i = 1;
    the empirical CVaR is the maximum over them.
    """
    q = np.asarray(weights, dtype=np.float64)
    t = tau.tau
    if q.shape != sample.values.shape:
        raise ValueError("weight vector shape must match the sample")
    if q.min() < -1e-12 or q.max() > 1.0 / t + 1e-9:
        raise ValueError("weights violate the cap 0 <= q <= 1/tau")
    if abs(q.mean() - 1.0) > 1e-9:
        raise ValueError("weights must average to 1")
    return float((q * sample.values).mean())
