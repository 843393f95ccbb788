"""Calibrated hard instances and the tail-embedding transfer tools.

Two finite constructions expose exact optima for the sweep harness:

  * a two-point pair whose CVaR separation p*B/tau is matched to the privacy
    budget through p = C1 * min{tau, 1/(eps*n)},
  * a packing of M predictors over the domain {0, 1, ..., M} where predictor
    j is the only zero-CVaR choice under the j-th distribution and every
    wrong choice pays exactly the same gap.

The tail embedding turns an ordinary-risk problem into a CVaR problem whose
population CVaR at tail mass tau equals the ordinary risk exactly: losses
activate on a Bernoulli(tau) coordinate and vanish on a reserved dummy point
(`embedded_table_law` gives the law for a finite base table). Each instance
draws its own samples, so the harness rebuilds no instance layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .mechanisms import PrivacyBudget
from .risk import DiscreteDistribution, LossBound, TailMass


class _DummyPoint:
    """Reserved sentinel for the inactive branch of an embedded sample."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<dummy>"


DUMMY = _DummyPoint()

# tail-mass constants of the two-point pair (c1) and the packing (c0); the
# sweeps check exponents and ratio laws, so no caller needs another value
C1 = 0.125
C0 = 0.125


@dataclass(frozen=True)
class ScalarHardPair:
    """Two-point scalar pair: P0 = delta_0, P1 puts mass p at B."""

    p0: DiscreteDistribution
    p1: DiscreteDistribution
    p: float
    gap: float

    def true_cvar(self, which: int) -> float:
        if which == 0:
            return 0.0
        if which == 1:
            return self.gap
        raise ValueError(f"which must be 0 or 1, got {which}")


def make_scalar_pair(
    n: int,
    tau: TailMass,
    budget: PrivacyBudget,
    bound: LossBound,
) -> ScalarHardPair:
    """Build the calibrated two-point pair at sample size n.

    The tail mass p = C1 * min{tau, 1/(eps*n)} keeps the pair statistically
    confusable at budget eps while separating the CVaRs by exactly p*B/tau;
    C1 <= 1, so p <= tau always holds.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    b = bound.b
    t = tau.tau
    p = C1 * min(t, 1.0 / (budget.epsilon * n))
    gap = p * b / t
    p0 = DiscreteDistribution([0.0], [1.0])
    p1 = DiscreteDistribution([b, 0.0], [p, 1.0 - p])
    return ScalarHardPair(p0=p0, p1=p1, p=p, gap=gap)


@dataclass(frozen=True)
class PackingInstance:
    """M-way packing over the domain {0, 1, ..., M}.

    Predictor r (0-based) corresponds to label r+1 and loses B on any nonzero
    point other than its own label. Under the j-th distribution (mass p on
    label j+1, rest on 0) predictor j has CVaR 0 and every other predictor
    has CVaR exactly `gap`.
    """

    M: int
    p: float
    gap: float
    bound: float
    _laws: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def distribution(self, j: int) -> DiscreteDistribution:
        """P_j, built on first use and then shared by every draw from it."""
        if not 0 <= j < self.M:
            raise ValueError(f"distribution index must lie in [0, {self.M}), got {j}")
        law = self._laws.get(j)
        if law is None:
            law = self._laws[j] = DiscreteDistribution([float(j + 1), 0.0],
                                                       [self.p, 1.0 - self.p])
        return law

    def draw(self, n: int, rng: np.random.Generator) -> tuple[int, np.ndarray]:
        """A uniform distribution index j, then n iid points of P_j, from rng."""
        j = int(rng.integers(self.M))
        return j, self.distribution(j).sample(n, rng)

    def loss_of(self, r: int | np.ndarray, points: np.ndarray) -> np.ndarray:
        """Vectorized loss of predictor r over an array of n domain points.

        An index array of length R gives the (R, n) block whose row i holds the
        losses of predictor r[i]; an int r, a 0-d index, gives the (n,) row.
        """
        idx = np.asarray(r)
        if idx.size and not (0 <= idx.min() and idx.max() < self.M):
            raise ValueError(f"predictor index must lie in [0, {self.M}), got {r}")
        z = np.asarray(points, dtype=np.float64)
        hit = (z != 0.0) & (z != (idx + 1.0)[..., None])
        return np.multiply(hit, self.bound, dtype=np.float64)  # one float temporary, not two

    def excess_of(self, r: int, j: int) -> float:
        """Exact population excess CVaR of predictor r under distribution j."""
        return 0.0 if r == j else self.gap


def make_packing(
    M: int,
    n: int,
    tau: TailMass,
    budget: PrivacyBudget,
    bound: LossBound,
) -> PackingInstance:
    """Build the M-way packing with p = C0 * min{tau, ln(M)/(eps*n)}."""
    if M < 2:
        raise ValueError(f"packing needs M >= 2, got {M}")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    t = tau.tau
    p = C0 * min(t, math.log(M) / (budget.epsilon * n))
    gap = p * bound.b / t
    return PackingInstance(M=M, p=p, gap=gap, bound=bound.b)


def embedded_table_law(
    values: Sequence[float], probs: Sequence[float], tau: TailMass, bound: LossBound
) -> DiscreteDistribution:
    """Law of the tail-embedded loss t * a(y) of the finite base table a = values.

    With t ~ Bernoulli(tau) and y ~ probs when active (else the dummy point, loss
    0), the loss is values[i] w.p. tau * probs[i] and 0 w.p. 1 - tau, so its
    population CVaR at tail mass tau is the base expected loss values @ probs.
    """
    table = np.asarray(values, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or table.shape != p.shape or p.size < 1:
        raise ValueError("values and probs must match and be nonempty")
    if table.min() < 0.0 or table.max() > bound.b:
        raise ValueError(f"table values must lie in [0, {bound.b}]")
    if p.min() < 0.0 or abs(float(p.sum()) - 1.0) > 1e-12:
        raise ValueError("probs must be a probability vector (sum 1 within 1e-12)")
    t = tau.tau
    return DiscreteDistribution(np.append(table, 0.0), np.append(t * p, 1.0 - t))


def build_synthetic_cvar_sample(
    ordinary: Sequence[Any],
    n: int,
    tau: TailMass,
    dummy: Any,
    rng: np.random.Generator,
) -> list[tuple[int, Any]]:
    """Place m ordinary records into n embedded slots.

    Activation indicators are iid Bernoulli(tau); the first min(K, m) active
    slots receive the ordinary records in order, any remaining active slots
    overflow onto the dummy point. Changing ordinary[j] changes at most the
    one record holding it, so one-record privacy transfers from the ordinary
    sample to the synthetic one.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    active = rng.random(n) < tau.tau
    records = iter(ordinary)  # past the last record, active slots overflow onto dummy
    return [(1, next(records, dummy)) if on else (0, dummy) for on in active.tolist()]


@dataclass(frozen=True)
class LinearLowerFamily:
    """Shifted linear losses over sign vectors on a centered ball.

    Points are sign vectors v in {-1, +1}^d; the loss of w at v is
    (g0/sqrt(d)) * <v, w> + shift with shift = r0/2, where g0 = min{G, B/D}
    and r0 = g0 * D. Values stay in [0, r0] subset [0, B] on the ball of
    radius D/2 and the gradient norm is exactly g0 <= G. `loss_batch` and
    `subgrad_batch` evaluate tail-embedded records: rows (t, v) of a
    (k, 1+d) array, or of an (R, k, 1+d) stack of R replicates' records,
    where the activation t in {0, 1} scales the loss.
    """

    dim: int
    diameter: float
    g0: float
    r0: float
    shift: float

    def loss_batch(self, w: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Losses t * ((g0/sqrt(d)) * <v, w> + shift) of the rows (t, v) at w.

        Leading axes broadcast: (R, d) iterates and (R, k, 1+d) rows give
        (R, k) losses, and a d-vector with (k, 1+d) rows gives (k,).
        """
        inner = np.matmul(zs[..., 1:], w[..., None])[..., 0]
        return zs[..., 0] * ((self.g0 / math.sqrt(self.dim)) * inner + self.shift)

    def subgrad_batch(self, w: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Gradients t * (g0/sqrt(d)) * v of `loss_batch`, the same at every w:
        (R, k, d) for (R, k, 1+d) rows, (k, d) for (k, 1+d)."""
        return ((self.g0 / math.sqrt(self.dim)) * zs[..., 0])[..., None] * zs[..., 1:]

    def project(self, w: np.ndarray) -> np.ndarray:
        """Each row of w (along the last axis) scaled back onto the ball of radius D/2."""
        radius = self.diameter / 2.0
        # the bits of np.linalg.norm of each row, without its dispatch
        norm = np.sqrt(np.matmul(w[..., None, :], w[..., :, None]))[..., 0]
        # the radius is positive, so a row inside the ball is scaled by exactly 1
        return w * (radius / np.maximum(norm, radius))

    def sample_embedded(
        self, mu: np.ndarray, tau: TailMass, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """n iid tail-embedded records: the (n, 1+d) rows (t, v).

        The n activations t ~ Bernoulli(tau) are drawn first, then the sign
        vectors v with coordinatewise means mu in [-1, 1]^d. The signs are
        written into the rows a slice of about 2**15 uniforms at a time;
        consecutive draws continue one stream, so the slices take the same
        uniforms as one (n, d) draw, and no full-size temporary is made.
        """
        mu = np.asarray(mu, dtype=np.float64)
        if mu.shape != (self.dim,) or np.abs(mu).max() > 1.0:
            raise ValueError("mu must be a d-vector with entries in [-1, 1]")
        rows = np.empty((n, 1 + self.dim))
        rows[:, 0] = rng.random(n) < tau.tau
        up = (1.0 + mu) / 2.0
        step = max(1, (1 << 15) // self.dim)
        for lo in range(0, n, step):
            signs = rows[lo:lo + step, 1:]
            signs[...] = np.where(rng.random(signs.shape) < up, 1.0, -1.0)
        return rows

    def population_value(self, w: np.ndarray, mu: np.ndarray) -> float:
        return float((self.g0 / math.sqrt(self.dim)) * (mu @ w) + self.shift)

    def population_optimum(self, mu: np.ndarray) -> float:
        norm = float(np.linalg.norm(mu))
        return self.shift - (self.g0 * self.diameter / (2.0 * math.sqrt(self.dim))) * norm

    def population_excess(self, w: np.ndarray, mu: np.ndarray) -> float:
        """Exact excess ordinary risk of w; zero at the population minimizer."""
        return self.population_value(w, mu) - self.population_optimum(mu)


def make_linear_family(
    d: int, diameter: float, lipschitz: float, bound: LossBound
) -> LinearLowerFamily:
    """Build the shifted linear family with effective slope min{G, B/D}."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not (math.isfinite(diameter) and diameter > 0.0):
        raise ValueError(f"diameter must be positive, got {diameter!r}")
    if not (math.isfinite(lipschitz) and lipschitz >= 0.0):
        raise ValueError(f"Lipschitz constant must be nonnegative, got {lipschitz!r}")
    g0 = min(lipschitz, bound.b / diameter)
    r0 = g0 * diameter
    return LinearLowerFamily(dim=d, diameter=diameter, g0=g0, r0=r0, shift=r0 / 2.0)
