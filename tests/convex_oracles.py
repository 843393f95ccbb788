"""Reference convex learner the tests check the package against.

`reference_convex_cvar` is the one-replicate learner loop as it ran before the
package learned on distinct records: it evaluates the problem on every record
of the sample, sums the clipped subgradients row by row, and steps one
replicate at a time, calling the problem on a stack of that one replicate.
`dpcvar.estimators.private_convex_cvar_block` regroups the same sums by
identical records and steps many replicates at once, so its reports agree
with this loop up to summation order. `interval_problem` is a problem that is
not affine, on 1-D points, shared by the learner tests.
"""

from __future__ import annotations

import math

import numpy as np

from dpcvar.estimators import _BLOCK_ELEMENTS, ConvexProblem, LearnerReport
from dpcvar.mechanisms import (
    PrivacyBudget,
    RandomStream,
    gaussian_noise,
    gaussian_sigma_for_budget,
)
from dpcvar.risk import LossBound, TailMass, lift_scale, lifted_gradient_bound, lifted_terms


def interval_problem(dim=1, diameter=1.0, lipschitz=1.0, b=1.0):
    """Absolute-deviation loss |w[0] - z| of 1-D points z on a centered ball: a
    problem that is not affine. Its callables take R replicates stacked on a
    leading axis: (R, dim) iterates and (R, k) points."""

    def project(w):
        norm = np.linalg.norm(w, axis=-1, keepdims=True)
        radius = diameter / 2.0
        return w * (radius / np.maximum(norm, radius))  # a row inside the ball: w * 1

    return ConvexProblem(
        dim=dim,
        diameter=diameter,
        lipschitz=lipschitz,
        bound=LossBound(b),
        project=project,
        loss_batch=lambda w, zs: np.abs(w[:, :1] - zs),
        subgrad_batch=lambda w, zs: np.sign(w[:, :1] - zs + 1e-300)[..., None],
    )


def _batch_eval(problem: ConvexProblem, name: str, w: np.ndarray, points: np.ndarray,
                shape: tuple):
    # one replicate: a stack of one iterate and one sample
    values = np.asarray(getattr(problem, name)(w[None], points[None]), dtype=np.float64)
    if values.shape != (1,) + shape:
        raise ValueError(f"{name} must return shape {(1,) + shape}, got {values.shape}")
    return values[0]


def _project(problem: ConvexProblem, w: np.ndarray) -> np.ndarray:
    return problem.project(w[None])[0]


def reference_convex_cvar(
    problem: ConvexProblem,
    points: np.ndarray,
    tau: TailMass,
    budget: PrivacyBudget,
    rng: RandomStream,
    *,
    iterations: int | None = None,
) -> LearnerReport:
    """Noisy projected lifted-subgradient descent on the whole sample, one step at a time."""
    n = len(points)
    if n < 1:
        raise ValueError("need at least one data point")
    b = problem.bound.b
    g_lip = problem.lipschitz
    d = problem.dim
    t = tau.tau

    if problem.diameter == 0.0:
        return LearnerReport(
            output=_project(problem, np.zeros(d)),
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

    w = _project(problem, np.zeros(d)).astype(np.float64)
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
            w = _project(problem, w - step * (gw_avg + noise[:d]))
            u = min(max(u - step * (gu_avg + float(noise[d])), 0.0), u_max)

    return LearnerReport(
        output=w_acc / iterations,
        epsilon=budget.epsilon,
        delta=budget.delta,
        noise_scales=(sigma,),
        iterations=iterations,
        threshold=lam * (u_acc / iterations),
    )
