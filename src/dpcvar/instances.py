"""Calibrated hard instances and the tail-embedding transfer tools.

Two finite constructions expose exact optima for the sweep harness:

  * a two-point pair whose CVaR separation p*B/tau is matched to the privacy
    budget through p = c1 * min{tau, 1/(eps*n)},
  * a packing of M predictors over the domain {0, 1, ..., M} where predictor
    j is the only zero-CVaR choice under the j-th distribution and every
    wrong choice pays exactly the same gap.

The embedding tools turn an ordinary-risk problem into a CVaR problem whose
population CVaR at tail mass tau equals the ordinary risk exactly: losses
activate on a Bernoulli(tau) coordinate and vanish on a reserved dummy point.

Finite instances serialize to a versioned plain-text format: one header line
`dpcvar-instance v1 kind=<kind> key=value ...`, then one `atom <label> <value>
<prob>` line per atom, floats written with repr (17 significant digits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .mechanisms import PrivacyBudget
from .risk import DiscreteDistribution, LossBound, TailMass, population_cvar_discrete


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


@dataclass(frozen=True)
class ScalarHardPair:
    """Two-point scalar pair: P0 = delta_0, P1 puts mass p at B."""

    p0: DiscreteDistribution
    p1: DiscreteDistribution
    p: float
    gap: float
    n: int
    tau: float
    epsilon: float
    bound: float
    c1: float

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
    c1: float = 0.125,
) -> ScalarHardPair:
    """Build the calibrated two-point pair at sample size n.

    The tail mass p = c1 * min{tau, 1/(eps*n)} keeps the pair statistically
    confusable at budget eps while separating the CVaRs by exactly p*B/tau.
    Requires c1 in (0, 1] so that p <= tau always holds.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if not 0.0 < c1 <= 1.0:
        raise ValueError(f"c1 must lie in (0, 1], got {c1}")
    b = bound.b
    t = tau.tau
    p = c1 * min(t, 1.0 / (budget.epsilon * n))
    gap = p * b / t
    p0 = DiscreteDistribution([0.0], [1.0])
    p1 = DiscreteDistribution([b, 0.0], [p, 1.0 - p])
    return ScalarHardPair(
        p0=p0, p1=p1, p=p, gap=gap, n=n, tau=t, epsilon=budget.epsilon, bound=b, c1=c1
    )


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
    n: int
    tau: float
    epsilon: float
    bound: float
    c0: float

    def distribution(self, j: int) -> DiscreteDistribution:
        if not 0 <= j < self.M:
            raise ValueError(f"distribution index must lie in [0, {self.M}), got {j}")
        return DiscreteDistribution([float(j + 1), 0.0], [self.p, 1.0 - self.p])

    def loss_of(self, r: int | np.ndarray, points: np.ndarray) -> np.ndarray:
        """Vectorized loss of predictor r over an array of n domain points.

        An int r gives the (n,) loss vector; an index array of length R gives
        the (R, n) block whose row i holds the losses of predictor r[i].
        """
        idx = np.asarray(r)
        if idx.size and not (0 <= idx.min() and idx.max() < self.M):
            raise ValueError(f"predictor index must lie in [0, {self.M}), got {r}")
        z = np.asarray(points, dtype=np.float64)
        labels = np.expand_dims(idx + 1.0, -1)
        return self.bound * ((z != 0.0) & (z != labels)).astype(np.float64)

    def excess_of(self, r: int, j: int) -> float:
        """Exact population excess CVaR of predictor r under distribution j."""
        return 0.0 if r == j else self.gap


def make_packing(
    M: int,
    n: int,
    tau: TailMass,
    budget: PrivacyBudget,
    bound: LossBound,
    c0: float = 0.125,
) -> PackingInstance:
    """Build the M-way packing with p = c0 * min{tau, ln(M)/(eps*n)}."""
    if M < 2:
        raise ValueError(f"packing needs M >= 2, got {M}")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if not 0.0 < c0 <= 1.0:
        raise ValueError(f"c0 must lie in (0, 1], got {c0}")
    t = tau.tau
    p = c0 * min(t, math.log(M) / (budget.epsilon * n))
    gap = p * bound.b / t
    return PackingInstance(
        M=M, p=p, gap=gap, n=n, tau=t, epsilon=budget.epsilon, bound=bound.b, c0=c0
    )


@dataclass
class EmbeddedInstance:
    """Tail embedding of an ordinary-risk problem.

    Records are pairs (t, y): t ~ Bernoulli(tau) activates the base loss, and
    y is drawn from the base distribution when active, else the dummy point.
    The induced loss t * a(w, y) has population CVaR at tail mass tau equal to
    the base expected loss E[a(w, Y)] exactly.
    """

    points: Sequence[Any]
    probs: np.ndarray
    loss: Callable[[Any, Any], float]
    tau: TailMass
    bound: LossBound
    dummy: Any = DUMMY

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1 or len(self.points) != p.size or p.size < 1:
            raise ValueError("points and probs must match and be nonempty")
        if p.min() < 0.0 or abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError("probs must be a probability vector (sum 1 within 1e-12)")
        self.probs = p

    @classmethod
    def from_table(
        cls, values: Sequence[float], probs: Sequence[float], tau: TailMass, bound: LossBound
    ) -> "EmbeddedInstance":
        """Instance whose base loss at any w is a fixed table over the support."""
        table = np.asarray(values, dtype=np.float64)
        if table.min() < 0.0 or table.max() > bound.b:
            raise ValueError(f"table values must lie in [0, {bound.b}]")
        points = list(range(table.size))
        return cls(
            points=points,
            probs=np.asarray(probs, dtype=np.float64),
            loss=lambda _w, x: float(table[x]),
            tau=tau,
            bound=bound,
        )

    def base_expectation(self, w: Any) -> float:
        """Ordinary risk E[a(w, Y)] under the base distribution."""
        vals = np.array([self.loss(w, x) for x in self.points], dtype=np.float64)
        return float(vals @ self.probs)

    def induced_loss_distribution(self, w: Any) -> DiscreteDistribution:
        """Distribution of the embedded loss t * a(w, y) at a fixed w."""
        t = self.tau.tau
        vals = [self.loss(w, x) for x in self.points]
        values = np.array(vals + [0.0], dtype=np.float64)
        probs = np.concatenate((t * self.probs, [1.0 - t]))
        return DiscreteDistribution(values, probs)

    def population_cvar(self, w: Any) -> float:
        """CVaR at tail mass tau of the embedded loss at w."""
        return population_cvar_discrete(self.induced_loss_distribution(w), self.tau)


class EmbeddedSampler:
    """Draws (t, y) records of an embedded instance."""

    def __init__(self, inst: EmbeddedInstance):
        self.inst = inst
        self._cum = np.cumsum(inst.probs)
        self._cum[-1] = 1.0

    def draw(self, count: int, rng: np.random.Generator) -> list[tuple[int, Any]]:
        t = rng.random(count) < self.inst.tau.tau
        u = rng.random(count)
        idx = np.searchsorted(self._cum, u, side="right")
        out: list[tuple[int, Any]] = []
        for i in range(count):
            if t[i]:
                out.append((1, self.inst.points[int(idx[i])]))
            else:
                out.append((0, self.inst.dummy))
        return out


def embed_distribution(inst: EmbeddedInstance) -> EmbeddedSampler:
    """Sampler over (t, y) pairs for an embedded instance."""
    return EmbeddedSampler(inst)


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
    out: list[tuple[int, Any]] = []
    used = 0
    m = len(ordinary)
    for i in range(n):
        if active[i]:
            if used < m:
                out.append((1, ordinary[used]))
                used += 1
            else:
                out.append((1, dummy))  # overflow: active but carries no data
        else:
            out.append((0, dummy))
    return out


@dataclass(frozen=True)
class LinearLowerFamily:
    """Shifted linear losses over sign vectors on a centered ball.

    Points are sign vectors v in {-1, +1}^d; the loss of w at v is
    (g0/sqrt(d)) * <v, w> + shift with shift = r0/2, where g0 = min{G, B/D}
    and r0 = g0 * D. Values stay in [0, r0] subset [0, B] on the ball of
    radius D/2 and the gradient norm is exactly g0 <= G.
    """

    dim: int
    diameter: float
    lipschitz: float
    bound: float
    g0: float
    r0: float
    shift: float

    def loss(self, w: np.ndarray, v: np.ndarray) -> float:
        return float((self.g0 / math.sqrt(self.dim)) * (v @ w) + self.shift)

    def subgrad(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        return (self.g0 / math.sqrt(self.dim)) * np.asarray(v, dtype=np.float64)

    def project(self, w: np.ndarray) -> np.ndarray:
        radius = self.diameter / 2.0
        norm = float(np.linalg.norm(w))
        if norm <= radius or norm == 0.0:
            return w
        return w * (radius / norm)

    def sample_sign_vectors(
        self, mu: np.ndarray, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """iid sign vectors with coordinatewise means mu in [-1, 1]^d."""
        mu = np.asarray(mu, dtype=np.float64)
        if mu.shape != (self.dim,) or np.abs(mu).max() > 1.0:
            raise ValueError("mu must be a d-vector with entries in [-1, 1]")
        u = rng.random((count, self.dim))
        return np.where(u < (1.0 + mu) / 2.0, 1.0, -1.0)

    def population_value(self, w: np.ndarray, mu: np.ndarray) -> float:
        return float((self.g0 / math.sqrt(self.dim)) * (mu @ w) + self.shift)

    def population_minimizer(self, mu: np.ndarray) -> np.ndarray:
        norm = float(np.linalg.norm(mu))
        if norm == 0.0:
            return np.zeros(self.dim)
        return -(self.diameter / 2.0) * np.asarray(mu, dtype=np.float64) / norm

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
    return LinearLowerFamily(
        dim=d,
        diameter=diameter,
        lipschitz=lipschitz,
        bound=bound.b,
        g0=g0,
        r0=r0,
        shift=r0 / 2.0,
    )


_FORMAT_VERSION = "v1"


def _header(kind: str, fields: dict[str, object]) -> str:
    parts = [f"dpcvar-instance {_FORMAT_VERSION} kind={kind}"]
    parts += [f"{k}={v!r}" for k, v in fields.items()]
    return " ".join(parts)


def _parse_header(line: str, kind: str) -> dict[str, str]:
    tokens = line.strip().split()
    if len(tokens) < 3 or tokens[0] != "dpcvar-instance":
        raise ValueError(f"not an instance header: {line!r}")
    if tokens[1] != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {tokens[1]!r}")
    fields = dict(tok.split("=", 1) for tok in tokens[2:])
    if fields.get("kind") != kind:
        raise ValueError(f"expected kind={kind}, got {fields.get('kind')!r}")
    return fields


def scalar_pair_to_text(pair: ScalarHardPair) -> str:
    lines = [
        _header(
            "scalar-pair",
            {
                "n": pair.n,
                "tau": pair.tau,
                "eps": pair.epsilon,
                "B": pair.bound,
                "c1": pair.c1,
                "p": pair.p,
                "gap": pair.gap,
            },
        )
    ]
    for label, dist in ((0, pair.p0), (1, pair.p1)):
        for v, q in zip(dist.values, dist.probs):
            lines.append(f"atom {label} {float(v)!r} {float(q)!r}")
    return "\n".join(lines) + "\n"


def scalar_pair_from_text(text: str) -> ScalarHardPair:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    fields = _parse_header(lines[0], "scalar-pair")
    atoms: dict[int, list[tuple[float, float]]] = {0: [], 1: []}
    for ln in lines[1:]:
        tag, label, v, q = ln.split()
        if tag != "atom":
            raise ValueError(f"unexpected line: {ln!r}")
        atoms[int(label)].append((float(v), float(q)))
    return ScalarHardPair(
        p0=DiscreteDistribution.from_pairs(atoms[0]),
        p1=DiscreteDistribution.from_pairs(atoms[1]),
        p=float(fields["p"]),
        gap=float(fields["gap"]),
        n=int(fields["n"]),
        tau=float(fields["tau"]),
        epsilon=float(fields["eps"]),
        bound=float(fields["B"]),
        c1=float(fields["c1"]),
    )


def packing_to_text(inst: PackingInstance) -> str:
    lines = [
        _header(
            "packing",
            {
                "M": inst.M,
                "n": inst.n,
                "tau": inst.tau,
                "eps": inst.epsilon,
                "B": inst.bound,
                "c0": inst.c0,
                "p": inst.p,
                "gap": inst.gap,
            },
        )
    ]
    for j in range(inst.M):
        dist = inst.distribution(j)
        for v, q in zip(dist.values, dist.probs):
            lines.append(f"atom {j} {float(v)!r} {float(q)!r}")
    return "\n".join(lines) + "\n"


def packing_from_text(text: str) -> PackingInstance:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    fields = _parse_header(lines[0], "packing")
    inst = PackingInstance(
        M=int(fields["M"]),
        p=float(fields["p"]),
        gap=float(fields["gap"]),
        n=int(fields["n"]),
        tau=float(fields["tau"]),
        epsilon=float(fields["eps"]),
        bound=float(fields["B"]),
        c0=float(fields["c0"]),
    )
    # atoms are reconstructible from the parameters; validate a few lines
    for ln in lines[1:3]:
        if not ln.startswith("atom "):
            raise ValueError(f"unexpected line: {ln!r}")
    return inst
