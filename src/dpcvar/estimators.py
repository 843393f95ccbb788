"""Private CVaR estimators and learners.

Three release paths share the LearnerReport shape:

  * `private_scalar_cvar`: empirical CVaR plus Laplace noise at the exact
    one-record sensitivity B * min{1, 1/(n*tau)}, clamped back to [0, B];
    the sample may be dense or given as atom counts.
  * `private_finite_class`: exponential mechanism over predictors scored by
    negative empirical CVaR, with score sensitivity B/(n*tau), scored on the
    sample's distinct records weighted by their counts (the same function of
    the sample, so the same sensitivity).
  * `private_convex_cvar_block`: noisy projected subgradient descent on the
    lifted empirical objective over W x [0, B/lam], once per replicate
    stream, on the sample that its `draw` callable takes from that stream,
    releasing only each averaged w (and the threshold lam*u alongside it),
    with lam and the clipped per-point subgradient terms from
    `risk.lift_scale` and `risk.lifted_terms`. `private_convex_cvar` is its
    one-sample case. The learner reduces each sample to its bitwise-distinct
    records with their counts before the next is drawn: identical
    records contribute identical clipped terms, so the count-weighted sum is
    the same full-batch sum, regrouped, at the same sensitivity 2*L/n, and
    only its rounding changes. A `ConvexProblem` evaluates its losses and
    subgradients, and projects its iterates, for a whole block of replicates
    per call, on a leading replicate axis; one marked `affine` has its
    subgradients evaluated once per block.

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
# private_convex_cvar draws, samples the sensitivity audit enumerates): a whole
# (1024, 640) loss block would add about 10 MiB of transients, 2**15 a few
# hundred KiB, still amortizing each call.
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
    an array of k data points (records along axis 0) and returns the
    (len(indices), k) loss block: entry (i, c) is the loss of predictor
    indices[i] on point c. Values must lie in [0, B]. Selection passes the
    sample's distinct records, so entry (i, c) may depend on record c only.
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
    scored in blocks of consecutive indices, one `loss_of` call on the k
    distinct records (`_distinct_records`) and one count-weighted `cvar_rows`
    call per block.
    """
    if not budget.is_pure:
        raise ValueError("finite-class selection is pure DP; delta must be 0")
    pts = np.asarray(points)
    records, counts = _distinct_records(pts)
    n, k = pts.shape[0], counts.size
    m = instance.num_predictors
    rows = max(1, _BLOCK_ELEMENTS // k)
    scores = np.empty(m, dtype=np.float64)
    for lo in range(0, m, rows):
        indices = np.arange(lo, min(lo + rows, m))
        block = np.asarray(instance.loss_of(indices, records), dtype=np.float64)
        if block.shape != (indices.size, k):
            raise ValueError(
                f"loss_of must return one loss per predictor and data point: "
                f"expected shape {(indices.size, k)}, got {block.shape}"
            )
        check_losses(block, instance.bound)
        scores[lo:lo + indices.size] = -cvar_rows(block, n * tau.tau, counts)
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

    The callables work on R replicates at once, stacked on a leading axis.
    `project` maps an (R, d) array of points to the domain, row by row.
    `loss_batch(w, points)` takes the (R, d) iterates and the (R, k, ...)
    records (k records per replicate, along axis 1) and returns the (R, k)
    losses: entry (r, i) is the loss of record i of replicate r at w[r].
    `subgrad_batch(w, points)` returns the (R, k, d) array whose entry (r, i)
    is a subgradient of that loss at w[r]. The learner passes each
    replicate's distinct records, so each output row may depend on its own
    replicate's iterate and records only, and entry (r, i) on record i of
    replicate r only. `affine = True` states that every loss is affine in w,
    so its subgradient does not depend on w and the learner evaluates
    `subgrad_batch` once instead of at every step.
    """

    dim: int
    diameter: float
    lipschitz: float
    bound: LossBound
    project: Callable[[np.ndarray], np.ndarray]
    loss_batch: Callable[[np.ndarray, np.ndarray], np.ndarray]
    subgrad_batch: Callable[[np.ndarray, np.ndarray], np.ndarray]
    affine: bool = False

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if self.diameter < 0.0 or not math.isfinite(self.diameter):
            raise ValueError(f"diameter must be nonnegative, got {self.diameter!r}")
        if self.lipschitz < 0.0 or not math.isfinite(self.lipschitz):
            raise ValueError(f"Lipschitz constant must be nonnegative, got {self.lipschitz!r}")


def _stacked_eval(problem: ConvexProblem, name: str, w: np.ndarray, records: np.ndarray,
                  shape: tuple) -> np.ndarray:
    """`problem.<name>(w, records)` as float64, checked to hold `shape` per replicate."""
    values = np.asarray(getattr(problem, name)(w, records), dtype=np.float64)
    stacked = (len(w),) + shape
    if values.shape != stacked:
        want, got = ((shape, values.shape[1:]) if values.shape[:1] == stacked[:1]
                     else (stacked, values.shape))
        raise ValueError(f"{name} must return shape {want}, got {got}")
    return values


def _distinct_records(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bitwise-distinct records of `points` (along axis 0) and their counts.

    Records are compared as raw bytes, so 0.0 and -0.0 stay two records;
    `np.unique(axis=0)` would merge them. The records come in byte order, each
    taken at its first occurrence, and the counts are float64. A stable
    argsort of the byte keys finds the runs of equal records; only the sorted
    keys and the k distinct records are copied. A record of 1, 2, 4 or 8 bytes
    is keyed as a big-endian unsigned integer, which orders as its bytes do
    and sorts several times faster.
    """
    pts = np.ascontiguousarray(points)
    if pts.ndim < 1 or pts.dtype.kind not in "biufc":
        raise ValueError("points must be a numeric array with one record per row")
    if pts.size == 0:
        raise ValueError("need at least one data point")
    n, width = pts.shape[0], pts.nbytes // pts.shape[0]
    key = np.dtype(f">u{width}") if width in (1, 2, 4, 8) else np.dtype((np.void, width))
    keys = pts.reshape(n, -1).view(key)[:, 0]
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    edges = np.concatenate(([True], ordered[1:] != ordered[:-1], [True])).nonzero()[0]
    return pts[order[edges[:-1]]], (edges[1:] - edges[:-1]).astype(np.float64)


def private_convex_cvar_block(
    problem: ConvexProblem,
    draw: Callable[[np.random.Generator], np.ndarray],
    tau: TailMass,
    budget: PrivacyBudget,
    rngs: Sequence[RandomStream],
    *,
    iterations: int | None = None,
) -> list[LearnerReport]:
    """Minimize CVaR over a convex class under (eps, delta)-DP, once per stream.

    For each stream r of `rngs`, in order, `draw(rngs[r].generator)` is
    called once and returns replicate r's sample, an array of n records along
    axis 0; the r-th report is the learner's release on that sample with that
    stream. Each sample is reduced to its distinct records before the next
    one is drawn and before any of its stream's noise, so one raw sample is
    held at a time.

    Works on the lifted objective lam*u + (1/tau)*(loss - lam*u)_+ over
    W x [0, B/lam] with lam = `lift_scale(G, B, D)` = sqrt(G*B/D), which
    balances the threshold direction against the weight directions. Each of
    the T iterations takes a full-batch lifted subgradient step (per-example
    contributions defensively clipped at the lifted gradient bound, by
    `lifted_terms`), adds Gaussian noise calibrated by composition to the
    2*L/n step sensitivity, and projects back. The step size is
    D_Theta / sqrt(T * (L^2 + (d+1) * sigma^2)), and the release is the
    uniformly averaged w. `iterations = None` runs T = n.

    The full-batch sum runs over each sample's bitwise-distinct records, each
    weighted by how often it occurs. Identical records have identical losses,
    activity and clipped subgradients, so this is the same clipped sum,
    regrouped; replacing one record still moves it by at most 2*L, and the
    sensitivity 2*L/n, sigma and T are those of the plain sum. Regrouping
    changes only the summation order, that is the rounding.

    A record is active when its loss exceeds lam*u (the tie takes inactive).
    Each step's averaged lifted subgradient is its value with no record
    active plus, for each active record, the change that record's activity
    makes, both weighted by the record's share count/n of the sample. For an
    affine problem the subgradient rows, their norms and these two terms are
    computed once per replicate, at the start point; otherwise at every step,
    by the same code. Clipping stays per step (it depends on u through the
    active set) and the noise scale is unchanged, so `affine` changes only
    where the subgradients come from, never the guarantee.

    Replicates with the same number k of distinct records step together as
    one block of R <= max(1, n // k) replicates, so a block holds no more
    subgradient rows than one plain sample and no replicate's sums see
    another's rows. Each replicate keeps its own stream (its noise is drawn
    in blocks of `_BLOCK_ELEMENTS` values across the block) and its own
    iterate. The block's records are stacked once into one (R, k, ...)
    array, and each step makes one `loss_batch` and one `project` call for
    the whole block (plus one `subgrad_batch` call when the problem is not
    affine). The block sums are stacked `np.matmul` products, whose slices
    equal the one-replicate products bit for bit, and the problem's rows
    depend on their own replicate only, so a report does not depend on which
    replicates share its block.

    Requires every sample to hold the n records of the first, and delta in
    (0, n^-2]. A zero-diameter domain short-circuits: the
    single feasible w does not depend on the data and is returned without
    noise for every stream, `draw` is never called, and no threshold is
    released, since a noiseless one would.
    """
    d = problem.dim
    if problem.diameter == 0.0:
        return [LearnerReport(output=problem.project(np.zeros((1, d)))[0],
                              epsilon=budget.epsilon, delta=budget.delta, noise_scales=(),
                              iterations=0)
                for _ in rngs]

    b = problem.bound.b
    lam = lift_scale(problem.lipschitz, b, problem.diameter)
    u_max = b / lam
    lift_dim = d + 1
    l_lift = lifted_gradient_bound(problem.lipschitz, lam, tau)
    d_theta = math.sqrt(problem.diameter**2 + u_max**2)
    inv_t = 1.0 / tau.tau
    start = problem.project(np.zeros((1, d)))[0].astype(np.float64)
    reports: list = [None] * len(rngs)

    def run(block: list[tuple[int, np.ndarray, np.ndarray]]) -> None:
        records = np.stack([rec for _, rec, _ in block])
        block_rngs = [rngs[r] for r, _, _ in block]
        shares = np.stack([counts for _, _, counts in block]) / n
        size, k = shares.shape
        w = np.tile(start, (size, 1))
        u = np.zeros(size)
        w_acc = np.zeros((size, d))
        u_acc = np.zeros(size)

        def lifted_sums() -> tuple[np.ndarray, np.ndarray]:
            # the averaged clipped lifted subgradient at w with no record active,
            # which has no w-part, and the (R, k, d+1) change each record makes to
            # it when active
            grads = _stacked_eval(problem, "subgrad_batch", w, records, (k, d))
            grad_sq = np.einsum("rij,rij->ri", grads, grads)
            _, factors, gu = lifted_terms(np.zeros((size, k)), grad_sq, lam, l_lift)
            idle = shares * (factors * gu)
            coeff, factors, gu = lifted_terms(np.full((size, k), inv_t), grad_sq, lam, l_lift)
            change = np.empty((size, k, lift_dim))
            np.multiply((shares * coeff)[..., None], grads, out=change[..., :d])
            change[..., d] = shares * (factors * gu) - idle
            base = np.zeros((size, lift_dim))
            base[:, d] = np.matmul(idle[:, None, :], np.ones(k))[:, 0]
            return base, change

        if problem.affine:
            base, change = lifted_sums()
        rows = max(1, _BLOCK_ELEMENTS // (size * lift_dim))
        for lo in range(0, iterations, rows):
            m = min(rows, iterations - lo)
            noise = np.stack([gaussian_noise(sigma, lift_dim, s, rows=m) for s in block_rngs],
                             axis=1)
            for z in noise:
                w_acc += w
                u_acc += u
                losses = _stacked_eval(problem, "loss_batch", w, records, (k,))
                if not problem.affine:
                    base, change = lifted_sums()
                active = losses > (lam * u)[:, None]
                moves = step * (base + np.matmul(active[:, None, :], change)[:, 0] + z)
                w = problem.project(w - moves[:, :d])
                u = np.minimum(np.maximum(u - moves[:, d], 0.0), u_max)
        for i, (r, _, _) in enumerate(block):
            reports[r] = LearnerReport(
                output=w_acc[i] / iterations,
                epsilon=budget.epsilon,
                delta=budget.delta,
                noise_scales=(sigma,),
                iterations=iterations,
                threshold=float(lam * (u_acc[i] / iterations)),
            )

    pending: dict[int, list] = {}
    for r, stream in enumerate(rngs):
        records, counts = _distinct_records(draw(stream.generator))
        if r == 0:  # the first sample fixes n, and with it T and the calibration
            n = int(counts.sum())
            if not (0.0 < budget.delta <= 1.0 / (n * n)):
                raise ValueError(f"delta must lie in (0, n^-2] = (0, {1.0 / (n * n)!r}]")
            if iterations is None:
                iterations = n
            sigma = gaussian_sigma_for_budget(2.0 * l_lift / n, budget, iterations)
            step = d_theta / math.sqrt(iterations * (l_lift**2 + lift_dim * sigma**2))
        elif counts.sum() != n:
            raise ValueError(f"every sample must hold n = {n} records")
        group = pending.setdefault(counts.size, [])
        group.append((r, records, counts))
        if len(group) == max(1, n // counts.size):
            run(pending.pop(counts.size))
        del records, group  # only pending blocks keep records while the next sample is drawn
    for group in pending.values():
        run(group)
    return reports


def private_convex_cvar(
    problem: ConvexProblem,
    points: np.ndarray,
    tau: TailMass,
    budget: PrivacyBudget,
    rng: RandomStream,
    *,
    iterations: int | None = None,
) -> LearnerReport:
    """The learner of `private_convex_cvar_block` on one sample and one stream.

    `points` holds the n records along axis 0; the report is the one the
    sample would get inside any block of replicates.
    """
    return private_convex_cvar_block(problem, lambda _: points, tau, budget, [rng],
                                     iterations=iterations)[0]
