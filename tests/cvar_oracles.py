"""Independent CVaR routes the tests check the package against.

None of these run in the package: each restates a definition from the paper
directly, one point or one threshold at a time, so the vectorized kernels in
`dpcvar.risk` can be compared with it.
"""

from __future__ import annotations

import math

import numpy as np

from dpcvar.risk import BoundedLossVector, TailMass


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


def lifted_loss(loss_value: float, u: float, lam: float, tau: TailMass) -> float:
    """Lifted loss lam*u + (1/tau) * (loss - lam*u)_+ of one point at height u."""
    return lam * u + max(loss_value - lam * u, 0.0) / tau.tau
