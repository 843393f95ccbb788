"""Private CVaR estimators and learners.

Three release paths share the LearnerReport shape:

  * `private_scalar_cvar`: empirical CVaR plus Laplace noise at the exact
    one-record sensitivity B * min{1, 1/(n*tau)}, clamped back to [0, B].
  * `private_finite_class`: exponential mechanism over predictors scored by
    negative empirical CVaR, with score sensitivity B/(n*tau).
  * `private_convex_cvar`: noisy projected subgradient descent on the lifted
    empirical objective over W x [0, B/lam], releasing only the averaged w
    (and the threshold lam*u alongside it), with lam and the clipped
    per-point subgradient terms from `risk.lift_scale` and
    `risk.lifted_terms`. A `ConvexProblem` evaluates its losses and
    subgradients on the whole sample per call; one marked `affine` has its
    subgradients evaluated once per learner call.

Intermediate iterates are never part of a report; only the privatized output
is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .mechanisms import (
    PrivacyBudget,
    RandomStream,
    SensitivityValue,
    exponential_mechanism,
    gaussian_noise,
    gaussian_sigma_for_budget,
    laplace_noise,
)
from .risk import (
    BoundedLossVector,
    LossBound,
    TailMass,
    check_losses,
    cvar_rows,
    cvar_sensitivity_bound,
    empirical_cvar,
    lift_scale,
    lifted_gradient_bound,
    lifted_terms,
)

# Most values one block holds (losses private_finite_class scores, noise
# private_convex_cvar draws): a whole (1024, 640) loss block would add about
# 10 MiB of transients, 2**15 a few hundred KiB, still amortizing each call.
_BLOCK_ELEMENTS = 1 << 15


@dataclass
class LearnerReport:
    """What a private estimator hands back.

    `output` is the released object (a scalar estimate, a predictor index, or
    a weight vector), `epsilon`/`delta` the budget consumed, `noise_scales`
    the calibrated per-release scales, and `iterations` the number of noisy
    releases composed.
    """

    output: Any
    epsilon: float
    delta: float
    noise_scales: tuple[float, ...]
    iterations: int
    threshold: float | None = None


def private_scalar_cvar(
    sample: BoundedLossVector,
    tau: TailMass,
    budget: PrivacyBudget,
    rng: RandomStream,
) -> LearnerReport:
    """Release the empirical CVaR under pure eps-DP via the Laplace mechanism.

    The noise scale is the exact sensitivity divided by eps, and the noised
    value is clamped to [0, B] (post-processing, so the guarantee is kept).
    """
    if not budget.is_pure:
        raise ValueError("scalar release is pure DP; delta must be 0")
    b = sample.bound.b
    delta_tau = cvar_sensitivity_bound(sample.n, tau, sample.bound)
    est = empirical_cvar(sample, tau)
    scale = delta_tau / budget.epsilon
    if scale > 0.0:
        est = est + laplace_noise(scale, rng)
    out = min(max(est, 0.0), b)
    return LearnerReport(
        output=out,
        epsilon=budget.epsilon,
        delta=0.0,
        noise_scales=(scale,),
        iterations=1,
    )


@dataclass
class FiniteClassInstance:
    """A finite predictor class with vectorized loss evaluation.

    `loss_of(indices, points)` takes an integer array of predictor indices and
    an array of n data points and returns the (len(indices), n) loss block:
    row i holds the losses of predictor indices[i]. Values must lie in [0, B].
    """

    num_predictors: int
    loss_of: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bound: LossBound

    def __post_init__(self) -> None:
        if self.num_predictors < 1:
            raise ValueError(f"need at least one predictor, got {self.num_predictors}")


def private_finite_class(
    instance: FiniteClassInstance,
    points: np.ndarray,
    tau: TailMass,
    budget: PrivacyBudget,
    rng: RandomStream,
) -> LearnerReport:
    """Select a predictor index by the exponential mechanism.

    Scores are negative empirical CVaRs; replacing one record moves every
    score by at most B/(n*tau), which is the sensitivity used. Predictors are
    scored in blocks of consecutive indices, one `loss_of` and one `cvar_rows`
    call per block.
    """
    if not budget.is_pure:
        raise ValueError("finite-class selection is pure DP; delta must be 0")
    pts = np.asarray(points)
    n = pts.shape[0]
    if n < 1:
        raise ValueError("need at least one data point")
    m = instance.num_predictors
    rows = max(1, _BLOCK_ELEMENTS // n)
    scores = np.empty(m, dtype=np.float64)
    for lo in range(0, m, rows):
        indices = np.arange(lo, min(lo + rows, m))
        block = np.asarray(instance.loss_of(indices, pts), dtype=np.float64)
        if block.shape != (indices.size, n):
            raise ValueError(
                f"loss_of must return one loss per predictor and data point: "
                f"expected shape {(indices.size, n)}, got {block.shape}"
            )
        check_losses(block, instance.bound)
        scores[lo:lo + indices.size] = -cvar_rows(block, n * tau.tau)
    sens = SensitivityValue(instance.bound.b / (n * tau.tau))
    if m == 1:
        return LearnerReport(
            output=0, epsilon=budget.epsilon, delta=0.0, noise_scales=(), iterations=0
        )
    idx = exponential_mechanism(scores, sens, budget, rng)
    return LearnerReport(
        output=idx,
        epsilon=budget.epsilon,
        delta=0.0,
        noise_scales=(sens.value,),
        iterations=1,
    )


@dataclass
class ConvexProblem:
    """A G-Lipschitz convex loss over a closed domain of diameter D.

    `project` maps any vector to the domain. The losses are evaluated on the
    whole sample at once: `loss_batch(w, points)` returns the (n,) losses of
    the n points at w, and `subgrad_batch(w, points)` the (n, d) matrix whose
    row i is a subgradient of point i's loss at w. `affine = True` states
    that every loss is affine in w, so its subgradient does not depend on w
    and the learner evaluates `subgrad_batch` once instead of at every step.
    """

    dim: int
    diameter: float
    lipschitz: float
    bound: LossBound
    project: Callable[[np.ndarray], np.ndarray]
    loss_batch: Callable[[np.ndarray, Any], np.ndarray]
    subgrad_batch: Callable[[np.ndarray, Any], np.ndarray]
    affine: bool = False

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if self.diameter < 0.0 or not math.isfinite(self.diameter):
            raise ValueError(f"diameter must be nonnegative, got {self.diameter!r}")
        if self.lipschitz < 0.0 or not math.isfinite(self.lipschitz):
            raise ValueError(f"Lipschitz constant must be nonnegative, got {self.lipschitz!r}")


def _batch_eval(problem: ConvexProblem, name: str, w: np.ndarray, points: Any, shape: tuple):
    values = np.asarray(getattr(problem, name)(w, points), dtype=np.float64)
    if values.shape != shape:
        raise ValueError(f"{name} must return shape {shape}, got {values.shape}")
    return values


def private_convex_cvar(
    problem: ConvexProblem,
    points: Sequence[Any] | np.ndarray,
    tau: TailMass,
    budget: PrivacyBudget,
    rng: RandomStream,
    *,
    iterations: int | None = None,
) -> LearnerReport:
    """Minimize CVaR over a convex class under (eps, delta)-DP.

    Works on the lifted objective lam*u + (1/tau)*(loss - lam*u)_+ over
    W x [0, B/lam] with lam = `lift_scale(G, B, D)` = sqrt(G*B/D), which
    balances the threshold direction against the weight directions. Each of
    the T iterations takes a full-batch lifted subgradient step (per-example
    contributions defensively clipped at the lifted gradient bound, by
    `lifted_terms`), adds Gaussian noise calibrated by composition to the
    2*L/n step sensitivity, and projects back. The step
    size is D_Theta / sqrt(T * (L^2 + (d+1) * sigma^2)), and the release is
    the uniformly averaged w. `iterations = None` runs T = n.

    For an affine problem the subgradient matrix and its row norms are
    computed once, at the start point. Clipping stays per step (it depends on
    u through the active set) and the noise scale is unchanged, so `affine`
    changes only where the subgradients come from, never the guarantee.

    Requires delta in (0, n^-2]. A zero-diameter domain short-circuits: the
    single feasible w does not depend on the data and is returned without
    noise, and no threshold is released, since a noiseless one would.
    """
    n = len(points)
    if n < 1:
        raise ValueError("need at least one data point")
    b = problem.bound.b
    g_lip = problem.lipschitz
    d = problem.dim
    t = tau.tau

    if problem.diameter == 0.0:
        return LearnerReport(
            output=problem.project(np.zeros(d)),
            epsilon=budget.epsilon,
            delta=budget.delta,
            noise_scales=(),
            iterations=0,
        )

    if not (0.0 < budget.delta <= 1.0 / (n * n)):
        raise ValueError(f"delta must lie in (0, n^-2] = (0, {1.0 / (n * n)!r}]")

    lam = lift_scale(g_lip, b, problem.diameter)
    u_max = b / lam
    lift_dim = d + 1
    l_lift = lifted_gradient_bound(g_lip, lam, tau)
    d_theta = math.sqrt(problem.diameter**2 + u_max**2)

    if iterations is None:
        iterations = n
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    sensitivity = 2.0 * l_lift / n
    sigma = gaussian_sigma_for_budget(sensitivity, budget, iterations)

    step = d_theta / math.sqrt(iterations * (l_lift**2 + lift_dim * sigma**2))

    w = problem.project(np.zeros(d)).astype(np.float64)
    u = 0.0
    w_acc = np.zeros(d)
    u_acc = 0.0
    inv_t = 1.0 / t
    if problem.affine:
        grads = _batch_eval(problem, "subgrad_batch", w, points, (n, d))
        grad_sq = np.einsum("ij,ij->i", grads, grads)
        tail = lifted_terms(np.full(n, inv_t), grad_sq, lam, l_lift)
        body = lifted_terms(np.zeros(n), grad_sq, lam, l_lift)
    rows = max(1, _BLOCK_ELEMENTS // lift_dim)
    for lo in range(0, iterations, rows):
        for noise in gaussian_noise(sigma, lift_dim, rng, rows=min(rows, iterations - lo)):
            w_acc += w
            u_acc += u
            losses = _batch_eval(problem, "loss_batch", w, points, (n,))
            active = losses - lam * u > 0.0
            if problem.affine:
                coeff, factors, gu = (np.where(active, x, y) for x, y in zip(tail, body))
            else:
                grads = _batch_eval(problem, "subgrad_batch", w, points, (n, d))
                grad_sq = np.einsum("ij,ij->i", grads, grads)
                sw = np.where(active, inv_t, 0.0)
                coeff, factors, gu = lifted_terms(sw, grad_sq, lam, l_lift)
            gw_avg = (grads.T @ coeff) / n
            gu_avg = float(factors @ gu) / n
            w = problem.project(w - step * (gw_avg + noise[:d]))
            u = min(max(u - step * (gu_avg + float(noise[d])), 0.0), u_max)

    return LearnerReport(
        output=w_acc / iterations,
        epsilon=budget.epsilon,
        delta=budget.delta,
        noise_scales=(sigma,),
        iterations=iterations,
        threshold=lam * (u_acc / iterations),
    )
