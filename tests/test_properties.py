"""Property tests for the CVaR kernel, block-scored selection, batched draws,
the discrete sampler, the exponential mechanism's probabilities and the affine
path of the convex learner.

The row kernel `cvar_rows` is checked against the one-row `empirical_cvar`
(bitwise) and against the independent breakpoint minimization of the threshold
objective in exact rationals, then for the order properties of CVaR.
Block-scored finite-class selection is checked against a per-predictor
reference loop that draws from the same seeded stream. The convex learner's
affine path, which evaluates the subgradients once, is checked bitwise against
the path that evaluates them at every step. The block learner, which sums
over distinct records weighted by their counts and steps several replicates
at once, is checked against the one-replicate loop of `convex_oracles` to
1e-12, and bitwise against itself on one replicate. The discrete sampler, which
compares uniforms against the CDF edges and skips the uniforms of one-atom
draws, is checked bitwise against a binary search over the same stream, and
for leaving the stream where drawing the uniforms would.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dpcvar.estimators as estimators
from convex_oracles import interval_problem, reference_convex_cvar
from dpcvar.estimators import (
    _BLOCK_ELEMENTS,
    ConvexProblem,
    FiniteClassInstance,
    private_convex_cvar,
    private_convex_cvar_block,
    private_finite_class,
)
from dpcvar.instances import make_linear_family
from dpcvar.mechanisms import (
    PrivacyBudget,
    RandomStream,
    SensitivityValue,
    exponential_mechanism,
    exponential_mechanism_probs,
    gaussian_noise,
)
from dpcvar.risk import (
    _MAX_COMPARED_EDGES,
    BoundedLossVector,
    DiscreteDistribution,
    LossBound,
    TailMass,
    cvar_rows,
    empirical_cvar,
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
# a subnormal next order statistic: (n*tau - k) * nxt = 0.5 * 5e-324 underflows to 0
@example((np.array([[5e-324]]), 5e-324), 0.5)
# an exact tie: the mean 1.5 * 5e-324 rounds half to even, up to 1e-323
@example((np.array([[5e-324, 1e-323]]), 1e-323), 1.0)
# a tie off the mean path: nxt = 5e-324 plus round(0.5 * 5e-324) = 0 stays on the odd
# neighbour 5e-324 of the exact 1.5 * 5e-324, where the oracle rounds up to 1e-323
@example((np.array([[0.0, 5e-324, 1e-323, 1e-323, 0.0, 5e-324, 5e-324, 0.0]]), 1e-323), 0.5)
def test_cvar_rows_matches_one_row_kernel_and_breakpoint_oracle(block, tau_v):
    values, b = block
    tau = TailMass(tau_v)
    n = values.shape[1]
    got = cvar_rows(values, n * tau_v)
    assert got.shape == (values.shape[0],)
    for row, value in zip(values, got):
        sample = BoundedLossVector(row, LossBound(b))
        assert value == empirical_cvar(sample, tau)
        exact = _exact_breakpoint_minimum(row, b, n * tau_v)
        oracle = float(exact)  # the one rounding, half to even
        # on subnormal rows the kernel rounds (top - k*nxt)/(n*tau) and then adds nxt
        # exactly, so at an exact half-step tie it may take the neighbour of the
        # oracle that is just as near the exact value
        tie = abs(Fraction(value) - exact) == abs(Fraction(oracle) - exact)
        assert abs(value - oracle) <= 1e-12 * b or tie


def _exact_breakpoint_minimum(row, b, n_tau):
    """Minimum of eta + sum_i (x_i - eta)_+ / n_tau over the breakpoints {0, B, x_i},
    in exact rationals."""
    xs = [Fraction(float(x)) for x in row]
    scale = Fraction(n_tau)
    return min(
        eta + sum(x - eta for x in xs if x > eta) / scale
        for eta in [Fraction(0), Fraction(b), *xs]
    )


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


@PROPERTY
@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.integers(1, 9),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_gaussian_noise_block_equals_single_draws(sigma, dim, k, seed):
    block = gaussian_noise(sigma, dim, RandomStream(seed, 6), rows=k)
    stream = RandomStream(seed, 6)
    singles = [gaussian_noise(sigma, dim, stream) for _ in range(k)]
    assert block.shape == (k, dim)
    assert block.tobytes() == np.array(singles).tobytes()


def _linear_problem(n, d, tau_v, seed, affine):
    """The harness's linear lower-bound family, with a call counter on subgrad_batch."""
    bound = LossBound(1.0)
    fam = make_linear_family(d, 1.0, 1.0, bound)
    gen = np.random.default_rng(seed)
    active = (gen.random(n) < tau_v).astype(np.float64)
    mu = gen.uniform(-1.0, 1.0, size=d)
    signs = np.where(gen.random((n, d)) < (1.0 + mu) / 2.0, 1.0, -1.0)
    data = np.concatenate((active[:, None], signs), axis=1)
    coef = fam.g0 / np.sqrt(d)
    calls = []

    def subgrad_batch(w, zs):
        calls.append(1)
        return (coef * zs[:, 0])[:, None] * zs[:, 1:]

    problem = ConvexProblem(
        dim=d, diameter=1.0, lipschitz=1.0, bound=bound, project=fam.project,
        loss_batch=lambda w, zs: zs[:, 0] * (coef * (zs[:, 1:] @ w) + fam.shift),
        subgrad_batch=subgrad_batch, affine=affine,
    )
    return problem, data, calls


def _affine_and_general_agree(n, d, tau_v, iterations, eps, seed):
    reports = {}
    for affine in (True, False):
        problem, data, calls = _linear_problem(n, d, tau_v, seed, affine)
        reports[affine] = private_convex_cvar(
            problem, data, TailMass(tau_v), PrivacyBudget(eps, 1.0 / n**2),
            RandomStream(seed, 7), iterations=iterations,
        )
        assert len(calls) == (1 if affine else iterations)
    fast, general = reports[True], reports[False]
    assert fast.output.tobytes() == general.output.tobytes()
    assert fast.threshold == general.threshold
    assert fast.noise_scales == general.noise_scales


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 60),  # delta = n^-2 must lie below 1
    st.integers(1, 12),
    taus,
    st.integers(1, 120),
    st.floats(min_value=0.05, max_value=50.0),
    st.integers(0, 2**32 - 1),
)
def test_affine_learner_is_bitwise_equal_to_per_step_subgradients(n, d, tau_v, iterations, eps,
                                                                  seed):
    _affine_and_general_agree(n, d, tau_v, iterations, eps, seed)


def test_affine_learner_agrees_across_noise_blocks():
    d, iterations = 32, 2100
    assert iterations * (d + 1) > 2 * _BLOCK_ELEMENTS  # the noise spans three blocks
    _affine_and_general_agree(n=25, d=d, tau_v=0.3, iterations=iterations, eps=1.0, seed=11)


def _family_problem(d, affine):
    """The harness's convex problem: the linear lower-bound family on the unit ball."""
    fam = make_linear_family(d, 1.0, 1.0, LossBound(1.0))
    return ConvexProblem(dim=d, diameter=1.0, lipschitz=1.0, bound=LossBound(1.0),
                         project=fam.project, loss_batch=fam.loss_batch,
                         subgrad_batch=fam.subgrad_batch, affine=affine)


def _samples(kind, n, d, tau_v, pools, seed):
    """One sample of n records per pool size p: each of p drawn records, then
    n - p more drawn from those, shuffled. So p == n gives n distinct records
    where the record space allows it, and p == 1 one record n times."""
    gen = np.random.default_rng(seed)
    out = []
    for p in pools:
        if kind == "interval":
            pool = gen.uniform(-0.4, 0.4, size=p)
        else:
            mu = gen.uniform(-0.9, 0.9, size=d)
            active = (gen.random(p) < tau_v).astype(np.float64)
            signs = np.where(gen.random((p, d)) < (1.0 + mu) / 2.0, 1.0, -1.0)
            pool = np.concatenate((active[:, None], signs), axis=1)
        picks = np.concatenate((np.arange(p), gen.integers(p, size=n - p)))
        out.append(pool[gen.permutation(picks)])
    return out


@st.composite
def convex_blocks(draw):
    kind = draw(st.sampled_from(["affine", "general", "interval"]))
    n = draw(st.integers(2, 60))
    # the family starts at d = 2: at d = 1 its optimum is a boundary point where
    # every record along mu has loss exactly 0, so a last-bit difference in the
    # projected iterate flips that record's activity and the two runs part
    d = 1 if kind == "interval" else draw(st.integers(2, 6))
    pools = draw(st.lists(st.sampled_from([1, min(2, n), min(3, n), n]), min_size=1,
                          max_size=5))
    tau_v = draw(taus)
    samples = _samples(kind, n, d, tau_v, pools, draw(st.integers(0, 2**32 - 1)))
    problem = interval_problem() if kind == "interval" else _family_problem(d, kind == "affine")
    return problem, samples, tau_v


@settings(max_examples=40, deadline=None)
@given(convex_blocks(), st.integers(1, 150), st.floats(min_value=0.05, max_value=50.0),
       st.integers(0, 2**32 - 1))
def test_block_learner_matches_the_one_replicate_reference(case, iterations, eps, seed):
    # the block sums run over distinct records in another order, so agreement is
    # to rounding, not bitwise; replicates of unequal k land in different blocks
    problem, samples, tau_v = case
    n = len(samples[0])
    tau, budget = TailMass(tau_v), PrivacyBudget(eps, 1.0 / n**2)
    reports = private_convex_cvar_block(
        problem, iter(samples), tau, budget,
        [RandomStream(seed, r) for r in range(len(samples))], iterations=iterations)
    assert len(reports) == len(samples)
    for r, (sample, report) in enumerate(zip(samples, reports)):
        want = reference_convex_cvar(problem, sample, tau, budget, RandomStream(seed, r),
                                     iterations=iterations)
        np.testing.assert_allclose(report.output, want.output, rtol=0.0, atol=1e-12)
        assert abs(report.threshold - want.threshold) <= 1e-12
        assert report.noise_scales == want.noise_scales
        assert report.iterations == want.iterations == iterations


@pytest.mark.parametrize("kind", ["affine", "general"])
def test_block_reports_equal_lone_runs_byte_for_byte(monkeypatch, kind):
    # k = 3 three times (one block of 3), k = 20 twice at n = 40 (a block of 2,
    # the most that n allows) and k = 1 once; at d = 32 a lone run draws its 700
    # steps of noise in one chunk, a block of 3 in chunks of 330 steps and a
    # block of 2 in chunks of 496
    d, n, iterations = 32, 40, 700
    problem = _family_problem(d, kind == "affine")
    pools = [3, 20, 3, 1, 20, 3]
    samples = _samples(kind, n, d, 0.6, pools, seed=21)
    assert [len({row.tobytes() for row in sample}) for sample in samples] == pools
    tau, budget = TailMass(0.6), PrivacyBudget(2.0, 1.0 / n**2)
    chunks = []

    def noise(sigma, dim, rng, rows=None, draw=estimators.gaussian_noise):
        chunks.append(rows)
        return draw(sigma, dim, rng, rows=rows)

    monkeypatch.setattr(estimators, "gaussian_noise", noise)
    together = private_convex_cvar_block(
        problem, iter(samples), tau, budget, [RandomStream(9, r) for r in range(len(samples))],
        iterations=iterations)
    assert {330, 496} <= set(chunks) and _BLOCK_ELEMENTS // (3 * (d + 1)) == 330
    for r, sample in enumerate(samples):
        chunks.clear()
        alone = private_convex_cvar(problem, sample, tau, budget, RandomStream(9, r),
                                    iterations=iterations)
        assert chunks == [iterations]
        assert alone.output.tobytes() == together[r].output.tobytes()
        assert alone.threshold == together[r].threshold
        assert alone.noise_scales == together[r].noise_scales


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.MT19937,
                  np.random.SFC64]


def _same_state(a, b) -> bool:
    """Equal bit-generator states (nested dicts; MT19937 keeps its key as an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


def _binary_search_sample(dist, count, rng):
    """The reference inverse CDF: one binary search per uniform."""
    cum = np.cumsum(dist.probs)
    cum[-1] = 1.0
    return dist.values[np.searchsorted(cum, rng.random(count), side="right")]


@st.composite
def atom_tables(draw):
    """One atom up to three past the edge-comparison crossover, some of zero
    probability, with probabilities summing to 1 only within 1e-12."""
    k = draw(st.integers(1, _MAX_COMPARED_EDGES + 4))
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k))
    weights = np.array(
        draw(st.lists(st.just(0.0) | st.floats(1e-3, 1.0), min_size=k, max_size=k))
    )
    if weights.sum() == 0.0:
        weights[draw(st.integers(0, k - 1))] = 1.0
    return values, weights / weights.sum() * (1.0 + draw(st.floats(-4e-13, 4e-13)))


@PROPERTY
@given(atom_tables(), st.integers(0, 300), st.sampled_from(BIT_GENERATORS),
       st.integers(0, 2**32 - 1))
def test_sample_equals_binary_search_on_the_same_stream(atoms, count, bit_generator, seed):
    dist = DiscreteDistribution(*atoms)
    rng, ref = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
    got = dist.sample(count, rng)
    assert got.tobytes() == _binary_search_sample(dist, count, ref).tobytes()
    assert _same_state(rng.bit_generator.state, ref.bit_generator.state)


@pytest.mark.parametrize("zeros", [0, 1, _MAX_COMPARED_EDGES + 2])
def test_a_uniform_on_an_edge_takes_the_next_atom(zeros):
    u0 = np.random.default_rng(9).random()
    probs = [0.0] * zeros + [u0, 1.0 - u0]  # the cumulative sum hits u0 exactly
    dist = DiscreteDistribution(np.arange(len(probs), dtype=np.float64), probs)
    got = dist.sample(50, np.random.default_rng(9))
    assert got[0] == zeros + 1
    assert got.tobytes() == _binary_search_sample(dist, 50, np.random.default_rng(9)).tobytes()


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered-uint32"])
def test_one_atom_sample_leaves_the_stream_where_drawing_would(bit_generator, buffered):
    rng, ref = np.random.Generator(bit_generator(4)), np.random.Generator(bit_generator(4))
    if buffered:  # a small bounded integer leaves half of a 64-bit output buffered
        rng.integers(7), ref.integers(7)
    got = DiscreteDistribution([-0.0], [1.0]).sample(np.int64(100_000), rng)  # numpy-typed n
    ref.random(100_000)
    assert got.tobytes() == np.full(100_000, -0.0).tobytes()
    assert _same_state(rng.bit_generator.state, ref.bit_generator.state)
    assert rng.integers(2**20, size=4).tolist() == ref.integers(2**20, size=4).tolist()
    assert rng.laplace(0.0, 1.0) == ref.laplace(0.0, 1.0)


@PROPERTY
@given(st.integers(1, 40), st.floats(0.1, 10.0), st.floats(0.0, 1e3), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_project_is_bitwise_the_linalg_norm_form(d, diameter, scale, zero, seed):
    fam = make_linear_family(d, diameter, 1.0, LossBound(1.0))
    w = np.zeros(d) if zero else np.random.default_rng(seed).normal(size=d) * scale
    radius, norm = diameter / 2.0, float(np.linalg.norm(w))
    want = w if norm <= radius or norm == 0.0 else w * (radius / norm)
    assert fam.project(w).tobytes() == want.tobytes()


@PROPERTY
@given(
    st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12),
    st.floats(0.5, 5.0),
    st.floats(0.01, 2.0),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_exponential_mechanism_probs_are_the_softmax_and_eps_dp(scores, dq, eps, extreme, seed):
    s = np.asarray(scores)
    sens, budget = SensitivityValue(dq), PrivacyBudget(eps)
    probs = exponential_mechanism_probs(s, sens, budget)
    weights = [math.exp(eps * x / (2.0 * dq)) for x in scores]
    np.testing.assert_allclose(probs, [w / math.fsum(weights) for w in weights], rtol=1e-12)
    assert abs(math.fsum(probs) - 1.0) <= 1e-12
    # a neighbouring score vector moves each entry by at most the sensitivity
    gen = np.random.default_rng(seed)
    step = np.where(gen.random(s.size) < 0.5, -1.0, 1.0) if extreme else gen.uniform(-1, 1, s.size)
    other = exponential_mechanism_probs(s + dq * step, sens, budget)
    bound = math.exp(eps) * (1.0 + 1e-9)
    assert np.all(probs <= bound * other) and np.all(other <= bound * probs)
