"""Private CVaR estimators and learners.

Three release paths share the LearnerReport shape:

  * `private_scalar_cvar`: empirical CVaR plus Laplace noise at the exact
    one-record sensitivity B * min{1, 1/(n*tau)}, clamped back to [0, B].
  * `private_finite_class`: exponential mechanism over predictors scored by
    negative empirical CVaR, with score sensitivity B/(n*tau).
  * `private_convex_cvar`: noisy projected subgradient descent on the lifted
    empirical objective over W x [0, B/lam], releasing only the averaged w
    (and the threshold lam*u alongside it).

Intermediate iterates are never part of a report; only the privatized output
is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    lifted_gradient_bound,
)

# Most losses private_finite_class scores at once: a whole (1024, 640) block
# would add about 10 MiB of transients to the process, a block of 2**15 a few
# hundred KiB, while still amortizing the per-call overhead.
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

    `project` maps any vector to the domain. `loss_at`/`subgrad_at` evaluate
    one data point; the optional `loss_batch`/`subgrad_batch` evaluate an
    array of points at once and are preferred when present (same semantics,
    vectorized).
    """

    dim: int
    diameter: float
    lipschitz: float
    bound: LossBound
    project: Callable[[np.ndarray], np.ndarray]
    loss_at: Callable[[np.ndarray, Any], float]
    subgrad_at: Callable[[np.ndarray, Any], np.ndarray]
    loss_batch: Callable[[np.ndarray, Any], np.ndarray] | None = None
    subgrad_batch: Callable[[np.ndarray, Any], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if self.diameter < 0.0 or not math.isfinite(self.diameter):
            raise ValueError(f"diameter must be nonnegative, got {self.diameter!r}")
        if self.lipschitz < 0.0 or not math.isfinite(self.lipschitz):
            raise ValueError(f"Lipschitz constant must be nonnegative, got {self.lipschitz!r}")


@dataclass
class ConvexLearnerConfig:
    """Knobs of the noisy subgradient learner.

    iterations = None runs the default T = n. The noise-aware step rule is
    D_Theta / sqrt(T * (L^2 + d_lift * sigma^2)); "classic" ignores the noise
    term. Uniform iterate averaging is the default release.
    """

    iterations: int | None = None
    step_size_rule: str = "noise_aware"
    averaging: bool = True
    record_path: bool = False
    path: list[np.ndarray] = field(default_factory=list, repr=False)


def _lifted_batch_eval(
    problem: ConvexProblem, w: np.ndarray, points: Any
) -> tuple[np.ndarray, np.ndarray]:
    if problem.loss_batch is not None and problem.subgrad_batch is not None:
        return (
            np.asarray(problem.loss_batch(w, points), dtype=np.float64),
            np.asarray(problem.subgrad_batch(w, points), dtype=np.float64),
        )
    losses = np.array([problem.loss_at(w, z) for z in points], dtype=np.float64)
    grads = np.stack([problem.subgrad_at(w, z) for z in points]).astype(np.float64)
    return losses, grads


def private_convex_cvar(
    problem: ConvexProblem,
    points: Sequence[Any] | np.ndarray,
    tau: TailMass,
    budget: PrivacyBudget,
    rng: RandomStream,
    config: ConvexLearnerConfig | None = None,
) -> LearnerReport:
    """Minimize CVaR over a convex class under (eps, delta)-DP.

    Works on the lifted objective lam*u + (1/tau)*(loss - lam*u)_+ over
    W x [0, B/lam] with lam = sqrt(G*B/D), which balances the threshold
    direction against the weight directions. Each of the T iterations takes a
    full-batch lifted subgradient step (per-example contributions defensively
    clipped at the lifted gradient bound), adds Gaussian noise calibrated by
    composition to the 2*L/n step sensitivity, and projects back. The release
    is the uniformly averaged w.

    Requires delta in (0, n^-2]. A zero-diameter domain short-circuits: the
    single feasible w does not depend on the data and is returned without
    noise, and no threshold is released, since a noiseless one would.
    """
    if config is None:
        config = ConvexLearnerConfig()
    pts = points if not isinstance(points, np.ndarray) else points
    n = len(pts)
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

    if g_lip == 0.0 or b == 0.0:
        lam = 1.0  # degenerate scale: keep the u-range equal to [0, B]
    else:
        lam = math.sqrt(g_lip * b / problem.diameter)
    u_max = b / lam
    lift_dim = d + 1
    l_lift = lifted_gradient_bound(g_lip, lam, tau)
    d_theta = math.sqrt(problem.diameter**2 + u_max**2)

    iterations = config.iterations if config.iterations is not None else n
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    sensitivity = 2.0 * l_lift / n
    sigma = gaussian_sigma_for_budget(sensitivity, budget, iterations)

    if config.step_size_rule == "noise_aware":
        step = d_theta / math.sqrt(iterations * (l_lift**2 + lift_dim * sigma**2))
    elif config.step_size_rule == "classic":
        step = d_theta / (l_lift * math.sqrt(iterations))
    else:
        raise ValueError(f"unknown step size rule {config.step_size_rule!r}")

    w = problem.project(np.zeros(d)).astype(np.float64)
    u = 0.0
    w_acc = np.zeros(d)
    u_acc = 0.0
    inv_t = 1.0 / t
    for _ in range(iterations):
        w_acc += w
        u_acc += u
        if config.record_path:
            config.path.append(np.append(w, u))
        losses, grads = _lifted_batch_eval(problem, w, pts)
        active = losses - lam * u > 0.0
        sw = np.where(active, inv_t, 0.0)
        gu = lam * (1.0 - sw)
        grad_sq = np.einsum("ij,ij->i", grads, grads)
        norms = np.sqrt(sw * sw * grad_sq + gu * gu)
        factors = np.where(norms > l_lift, l_lift / np.maximum(norms, 1e-300), 1.0)
        coeff = factors * sw
        gw_avg = (grads.T @ coeff) / n
        gu_avg = float(factors @ gu) / n
        noise = gaussian_noise(sigma, lift_dim, rng)
        w = problem.project(w - step * (gw_avg + noise[:d]))
        u = min(max(u - step * (gu_avg + float(noise[d])), 0.0), u_max)

    if config.averaging:
        w_out = w_acc / iterations
        u_out = u_acc / iterations
    else:
        w_out = w
        u_out = u
    return LearnerReport(
        output=w_out,
        epsilon=budget.epsilon,
        delta=budget.delta,
        noise_scales=(sigma,),
        iterations=iterations,
        threshold=lam * u_out,
    )
