"""Property tests for the CVaR kernel, block-scored selection and batched draws.

The row kernel `cvar_rows` is checked against the one-row `empirical_cvar`
(bitwise) and against the independent breakpoint minimization of the threshold
objective, then for the order properties of CVaR. Block-scored finite-class
selection is checked against a per-predictor reference loop that draws from
the same seeded stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcvar.estimators import _BLOCK_ELEMENTS, FiniteClassInstance, private_finite_class
from dpcvar.mechanisms import (
    PrivacyBudget,
    RandomStream,
    SensitivityValue,
    exponential_mechanism,
)
from dpcvar.risk import (
    BoundedLossVector,
    LossBound,
    TailMass,
    cvar_rows,
    empirical_cvar,
    minimize_ru_breakpoints,
)

PROPERTY = settings(max_examples=60, deadline=None)

taus = st.floats(min_value=1e-3, max_value=1.0)
bounds = st.floats(min_value=0.0, max_value=10.0)


@st.composite
def loss_blocks(draw, bound=None):
    """An (R, n) block in [0, B]: real-valued, or two-valued {0, B} as in the sweeps."""
    b = draw(bounds) if bound is None else bound
    rows = draw(st.integers(1, 5))
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    if draw(st.booleans()):
        values = gen.random((rows, n)) * b
    else:
        values = np.where(gen.random((rows, n)) < draw(st.floats(0.0, 1.0)), b, 0.0)
    return values, b


@PROPERTY
@given(loss_blocks(), taus)
def test_cvar_rows_matches_one_row_kernel_and_breakpoint_oracle(block, tau_v):
    values, b = block
    tau = TailMass(tau_v)
    n = values.shape[1]
    got = cvar_rows(values, n * tau_v)
    assert got.shape == (values.shape[0],)
    for row, value in zip(values, got):
        sample = BoundedLossVector(row, LossBound(b))
        assert value == empirical_cvar(sample, tau)
        _, oracle = minimize_ru_breakpoints(sample, tau)
        assert abs(value - oracle) <= 1e-12 * b


@PROPERTY
@given(loss_blocks(bound=1.0), taus, taus)
def test_cvar_is_non_increasing_in_tau_and_between_mean_and_max(block, t1, t2):
    values, _ = block
    n = values.shape[1]
    lo, hi = min(t1, t2), max(t1, t2)
    at_lo = cvar_rows(values, n * lo)
    at_hi = cvar_rows(values, n * hi)
    tol = 1e-12
    assert np.all(at_lo >= at_hi - tol)
    for cv in (at_lo, at_hi):
        assert np.all(cv >= values.mean(axis=1) - tol)
        assert np.all(cv <= values.max(axis=1) + tol)


@PROPERTY
@given(
    loss_blocks(bound=1.0),
    taus,
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_cvar_is_translation_and_scale_equivariant(block, tau_v, shift, scale):
    values, _ = block
    n_tau = values.shape[1] * tau_v
    base = cvar_rows(values, n_tau)
    np.testing.assert_allclose(
        cvar_rows(values + shift, n_tau), base + shift, rtol=0.0, atol=1e-12 * (1.0 + abs(shift))
    )
    np.testing.assert_allclose(
        cvar_rows(scale * values, n_tau), scale * base, rtol=1e-12, atol=1e-300
    )


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), taus, st.floats(min_value=0.05, max_value=50.0))
def test_block_selection_matches_per_predictor_reference(seed, tau_v, eps):
    n = 1000
    rows = _BLOCK_ELEMENTS // n
    m = 2 * rows + 3  # not a multiple of the block rows; m * n exceeds the budget
    assert m % rows != 0 and m * n > _BLOCK_ELEMENTS
    gen = np.random.default_rng(seed)
    tables = gen.random((m, n))
    pts = np.zeros(n)
    tau, budget = TailMass(tau_v), PrivacyBudget(eps)
    calls: list[int] = []

    def loss_of(indices, points):
        calls.append(len(indices))
        return tables[indices, : len(points)]

    inst = FiniteClassInstance(num_predictors=m, loss_of=loss_of, bound=LossBound(1.0))
    got = private_finite_class(inst, pts, tau, budget, RandomStream(seed, 3)).output

    assert sum(calls) == m and max(calls) * n <= _BLOCK_ELEMENTS
    scores = np.array(
        [-empirical_cvar(BoundedLossVector(tables[r], LossBound(1.0)), tau) for r in range(m)]
    )
    sens = SensitivityValue(1.0 / (n * tau_v))
    want = exponential_mechanism(scores, sens, budget, RandomStream(seed, 3))
    assert got == want


@pytest.mark.parametrize(
    "make_block",
    [
        lambda idx, n: np.zeros((len(idx), n - 1)),
        lambda idx, n: np.zeros((n, len(idx))),
        lambda idx, n: np.zeros(n),
        lambda idx, n: np.full((len(idx), n), 1.5),
        lambda idx, n: np.full((len(idx), n), -0.1),
        lambda idx, n: np.full((len(idx), n), np.nan),
    ],
    ids=["short-rows", "transposed", "one-dimensional", "above-B", "negative", "nan"],
)
def test_malformed_loss_block_raises(make_block):
    n = 7
    inst = FiniteClassInstance(
        num_predictors=3, loss_of=lambda idx, z: make_block(idx, len(z)), bound=LossBound(1.0)
    )
    with pytest.raises(ValueError):
        private_finite_class(
            inst, np.zeros(n), TailMass(0.5), PrivacyBudget(1.0), RandomStream(seed=1)
        )


@PROPERTY
@given(
    st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=12),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.integers(0, 200),
    st.integers(0, 2**32 - 1),
)
def test_batched_exponential_draws_equal_single_draws(scores, sens_value, k, seed):
    s = np.asarray(scores)
    if sens_value == 0.0:
        s = np.full(s.size, s[0])  # zero sensitivity is legal only on flat scores
    sens, budget = SensitivityValue(sens_value), PrivacyBudget(0.7)
    batch = exponential_mechanism(s, sens, budget, RandomStream(seed, 5), size=k)
    stream = RandomStream(seed, 5)
    singles = [exponential_mechanism(s, sens, budget, stream) for _ in range(k)]
    assert batch.shape == (k,)
    assert batch.tolist() == singles
    assert all(isinstance(i, int) and 0 <= i < s.size for i in singles)
