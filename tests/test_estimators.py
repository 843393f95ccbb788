"""Behavioral tests for the three private release paths."""

from __future__ import annotations

import dataclasses
import math
import weakref

import numpy as np
import pytest

from convex_oracles import interval_problem
from cvar_oracles import lifted_loss
from dpcvar.estimators import (
    ConvexProblem,
    FiniteClassInstance,
    _distinct_records,
    convex_calibration,
    private_convex_cvar,
    private_convex_cvar_block,
    private_finite_class,
    private_scalar_cvar,
)
from dpcvar.mechanisms import (
    PrivacyBudget,
    RandomStream,
    exponential_mechanism_probs,
    SensitivityValue,
    gaussian_sigma_for_budget,
)
from dpcvar.risk import (
    BoundedLossVector,
    LossBound,
    TailMass,
    empirical_cvar,
    lifted_gradient_bound,
)

B1 = LossBound(1.0)


def vec(values, b=1.0):
    return BoundedLossVector(np.asarray(values, dtype=float), LossBound(b))


def test_scalar_high_budget_tracks_empirical():
    rng_data = np.random.default_rng(0)
    x = vec(rng_data.random(100))
    tau = TailMass(0.1)
    report = private_scalar_cvar(x, tau, PrivacyBudget(epsilon=1e3), RandomStream(seed=1))
    assert abs(report.output - empirical_cvar(x, tau)) <= 0.01
    assert report.iterations == 1
    assert report.noise_scales == (0.1 / 1e3,)


def test_scalar_all_zero_sample_clamps_half_the_mass():
    x = vec(np.zeros(20))
    tau = TailMass(0.5)
    stream = RandomStream(seed=2, stream_id=0)
    hits = 0
    draws = 10_000
    for _ in range(draws):
        out = private_scalar_cvar(x, tau, PrivacyBudget(epsilon=1.0), stream).output
        assert 0.0 <= out <= 1.0
        if out == 0.0:
            hits += 1
    assert hits / draws == pytest.approx(0.5, abs=0.02)


def test_scalar_requires_pure_budget():
    with pytest.raises(ValueError):
        private_scalar_cvar(
            vec([0.5]), TailMass(1.0), PrivacyBudget(1.0, delta=1e-6), RandomStream(seed=1)
        )


def test_scalar_zero_bound_degenerates():
    x = BoundedLossVector(np.zeros(5), LossBound(0.0))
    report = private_scalar_cvar(x, TailMass(0.5), PrivacyBudget(1.0), RandomStream(seed=3))
    assert report.output == 0.0
    assert report.noise_scales == (0.0,)


def test_finite_single_predictor_is_returned():
    inst = FiniteClassInstance(
        num_predictors=1, loss_of=lambda r, z: np.zeros((len(r), len(z))), bound=B1
    )
    report = private_finite_class(
        inst, np.zeros(10), TailMass(0.5), PrivacyBudget(1.0), RandomStream(seed=4)
    )
    assert report.output == 0
    assert report.iterations == 0


def test_finite_two_predictor_odds():
    # scores 0 and -B at sensitivity B/(n*tau): odds exp(eps*n*tau/2)
    n, tau = 10, TailMass(0.4)
    eps = math.log(3.0) / 2.0
    losses = np.stack([np.zeros(n), np.ones(n)])
    # losses indexed by record, not by position: selection passes distinct records
    inst = FiniteClassInstance(
        num_predictors=2, loss_of=lambda r, z: losses[r][:, z.astype(int)], bound=B1
    )
    stream = RandomStream(seed=5, stream_id=1)
    draws = 100_000
    picked_bad = 0
    pts = np.arange(n, dtype=float)
    for _ in range(draws):
        picked_bad += private_finite_class(inst, pts, tau, PrivacyBudget(eps), stream).output
    want = 1.0 / (1.0 + 3.0)
    se = math.sqrt(want * (1 - want) / draws)
    assert picked_bad / draws == pytest.approx(want, abs=5 * se)


def test_finite_selection_total_variation():
    rng_data = np.random.default_rng(6)
    n, m = 30, 8
    tables = rng_data.random((m, n))
    inst = FiniteClassInstance(
        num_predictors=m, loss_of=lambda r, z: tables[r][:, z.astype(int)], bound=B1
    )
    tau = TailMass(0.3)
    budget = PrivacyBudget(epsilon=0.9)
    scores = np.array(
        [-empirical_cvar(vec(tables[r]), tau) for r in range(m)]
    )
    probs = exponential_mechanism_probs(scores, SensitivityValue(1.0 / (n * tau.tau)), budget)
    stream = RandomStream(seed=7, stream_id=2)
    draws = 20_000
    counts = np.zeros(m)
    pts = np.arange(n, dtype=float)
    for _ in range(draws):
        counts[private_finite_class(inst, pts, tau, budget, stream).output] += 1
    tv = 0.5 * float(np.abs(counts / draws - probs).sum())
    assert tv <= 0.02


def test_convex_low_noise_reaches_minimum():
    rng_data = np.random.default_rng(8)
    zs = rng_data.uniform(0.0, 0.5, size=400)
    problem = interval_problem()
    tau = TailMass(1.0)
    budget = PrivacyBudget(epsilon=1e6, delta=1.0 / 400**2)
    report = private_convex_cvar(
        problem, zs, tau, budget, RandomStream(seed=9), iterations=600
    )
    w = report.output
    assert np.linalg.norm(w) <= 0.5 + 1e-9
    got = float(np.mean(np.abs(float(w[0]) - zs)))
    best = min(float(np.mean(np.abs(c - zs))) for c in np.linspace(-0.5, 0.5, 2001))
    assert got <= best + 0.15


def test_convex_iterates_and_threshold_stay_feasible():
    rng_data = np.random.default_rng(10)
    zs = rng_data.uniform(0.0, 0.5, size=50)
    problem = interval_problem()
    iterates = []

    def recording_project(w, project=problem.project):
        iterates.append(project(w))
        return iterates[-1]

    problem.project = recording_project
    report = private_convex_cvar(
        problem,
        zs,
        TailMass(0.5),
        PrivacyBudget(epsilon=0.8, delta=1.0 / 50**2),
        RandomStream(seed=11),
        iterations=80,
    )
    lam = 1.0  # sqrt(G*B/D) with G = B = D = 1
    assert len(iterates) == 81  # the start point and one iterate per step
    for w in iterates:
        assert np.linalg.norm(w) <= 0.5 + 1e-9
    assert report.threshold is not None and 0.0 <= report.threshold <= 1.0 + 1e-9
    assert report.iterations == 80
    want_sigma = gaussian_sigma_for_budget(
        2.0 * lifted_gradient_bound(1.0, lam, TailMass(0.5)) / 50,
        PrivacyBudget(epsilon=0.8, delta=1.0 / 2500),
        80,
    )
    assert report.noise_scales == (want_sigma,)


def test_convex_calibration_is_the_learners():
    # sigma is the scale the learner reports; the step is D_Theta/sqrt(T(L^2 + (d+1) sigma^2))
    # with L = sqrt(G^2 + lam^2)/tau and D_Theta = sqrt(D^2 + (B/lam)^2), lam = sqrt(G*B/D)
    tau, budget = TailMass(0.5), PrivacyBudget(epsilon=0.8, delta=1.0 / 50**2)
    problem = interval_problem(diameter=1.5, lipschitz=2.0, b=0.7)
    report = private_convex_cvar(problem, np.linspace(0.0, 0.5, 50), tau, budget,
                                 RandomStream(seed=11), iterations=80)
    lam, u_max, l_lift, sigma, step = convex_calibration(2.0, 0.7, 1.5, 1, tau, 50, budget, 80)
    assert sigma == report.noise_scales[0]
    assert lam == pytest.approx(math.sqrt(2.0 * 0.7 / 1.5), rel=1e-15)
    assert u_max == pytest.approx(0.7 / lam, rel=1e-15)
    assert l_lift == pytest.approx(math.sqrt(4.0 + lam * lam) / 0.5, rel=1e-15)
    d_theta = math.sqrt(1.5 * 1.5 + u_max * u_max)
    assert step == pytest.approx(d_theta / math.sqrt(80 * (l_lift**2 + 2 * sigma**2)),
                                 rel=1e-15)
    # a zero G or B leaves the threshold coordinate unscaled
    for g, b in ((0.0, 0.7), (2.0, 0.0)):
        assert convex_calibration(g, b, 1.5, 1, tau, 50, budget, 80)[0] == 1.0
    with pytest.raises(ValueError, match="n\\^-2"):
        convex_calibration(2.0, 0.7, 1.5, 1, tau, 100, budget, 80)  # delta > 100^-2


def test_convex_release_satisfies_threshold_inequality():
    rng_data = np.random.default_rng(12)
    zs = rng_data.uniform(0.0, 0.5, size=120)
    problem = interval_problem()
    tau = TailMass(0.25)
    report = private_convex_cvar(
        problem,
        zs,
        tau,
        PrivacyBudget(epsilon=1.0, delta=1.0 / 120**2),
        RandomStream(seed=13),
    )
    w, eta = report.output, report.threshold
    losses = np.abs(float(w[0]) - zs)
    lifted_value = float(
        np.mean([lifted_loss(lv, eta, 1.0, tau) for lv in losses])
    )
    assert empirical_cvar(vec(losses), tau) <= lifted_value + 1e-9


def test_convex_default_iteration_count_is_n():
    zs = np.full(30, 0.25)
    report = private_convex_cvar(
        interval_problem(),
        zs,
        TailMass(1.0),
        PrivacyBudget(epsilon=1.0, delta=1.0 / 900),
        RandomStream(seed=14),
    )
    assert report.iterations == 30


def test_convex_delta_window_enforced():
    zs = np.full(10, 0.2)
    with pytest.raises(ValueError):
        private_convex_cvar(
            interval_problem(),
            zs,
            TailMass(1.0),
            PrivacyBudget(epsilon=1.0, delta=0.5),  # > n^-2
            RandomStream(seed=15),
        )
    with pytest.raises(ValueError):
        private_convex_cvar(
            interval_problem(),
            zs,
            TailMass(1.0),
            PrivacyBudget(epsilon=1.0),  # pure budget: no Gaussian calibration
            RandomStream(seed=15),
        )


def test_convex_zero_diameter_short_circuits():
    fixed = np.array([0.2])
    problem = ConvexProblem(
        dim=1,
        diameter=0.0,
        lipschitz=1.0,
        bound=B1,
        project=lambda w: np.tile(fixed, (len(w), 1)),
        loss_batch=lambda w, zs: np.abs(w[:, :1] - zs),
        subgrad_batch=lambda w, zs: np.ones(zs.shape + (1,)),
    )
    zs = np.array([0.0, 0.4, 0.9])
    report = private_convex_cvar(
        problem, zs, TailMass(0.5), PrivacyBudget(epsilon=1.0), RandomStream(seed=16)
    )
    np.testing.assert_array_equal(report.output, fixed)
    assert report.noise_scales == ()
    assert report.iterations == 0
    # a noiseless threshold would be a function of the data, so none is released
    assert report.threshold is None


@pytest.mark.parametrize("affine", [False, True])
@pytest.mark.parametrize(
    "callable_name, bad, message",
    [
        ("loss_batch", lambda w, zs: np.abs(w[:, :1] - zs)[..., None],
         r"loss_batch must return shape \(6,\), got \(6, 1\)"),
        ("subgrad_batch", lambda w, zs: np.ones(zs.shape),
         r"subgrad_batch must return shape \(6, 1\), got \(6,\)"),
    ],
)
def test_convex_callable_shapes_are_checked(callable_name, bad, message, affine):
    # a (n, 1) loss column would otherwise broadcast the clip norms to (n, n)
    problem = interval_problem()
    setattr(problem, callable_name, bad)
    problem.affine = affine
    with pytest.raises(ValueError, match=message):
        private_convex_cvar(
            problem,
            np.linspace(0.0, 0.5, 6),
            TailMass(0.5),
            PrivacyBudget(epsilon=1.0, delta=1.0 / 36),
            RandomStream(seed=18),
            iterations=3,
        )


def test_signed_zero_records_stay_apart_with_their_own_counts():
    zero, minus_zero, one = (np.float64(x).tobytes() for x in (0.0, -0.0, 1.0))
    records, counts = _distinct_records(np.array([0.0, -0.0, 0.0, 1.0, -0.0, 0.0]))
    assert dict(zip((r.tobytes() for r in records), counts)) == {
        zero: 3.0, minus_zero: 2.0, one: 1.0}
    rows, row_counts = _distinct_records(np.array([[1.0, 0.0], [1.0, -0.0], [1.0, 0.0]]))
    assert dict(zip((r.tobytes() for r in rows), row_counts)) == {
        np.array([1.0, 0.0]).tobytes(): 2.0, np.array([1.0, -0.0]).tobytes(): 1.0}
    # the learner's callables see both zeros as records of their own
    seen = []
    problem = interval_problem()
    problem.loss_batch = lambda w, zs, f=problem.loss_batch: seen.append(zs.copy()) or f(w, zs)
    private_convex_cvar(problem, np.array([0.0, -0.0, 0.0]), TailMass(0.5),
                        PrivacyBudget(epsilon=1.0, delta=1.0 / 9), RandomStream(seed=20),
                        iterations=2)
    assert sorted(r.tobytes() for r in seen[0][0]) == sorted([zero, minus_zero])


def test_convex_block_needs_one_sample_of_n_records_per_stream():
    zs = np.linspace(0.0, 0.5, 10)
    args = (TailMass(0.5), PrivacyBudget(epsilon=1.0, delta=1e-2))
    streams = [RandomStream(seed=21, stream_id=r) for r in range(2)]
    with pytest.raises(ValueError, match="n = 10 records"):
        private_convex_cvar_block(interval_problem(), lambda _, it=iter([zs, zs[:9]]): next(it),
                                  *args, streams)
    with pytest.raises(ValueError, match="numeric array"):
        private_convex_cvar(interval_problem(), np.array(["a", "b"]), *args, streams[0])


def test_convex_block_draws_each_sample_from_its_own_stream_before_the_next():
    # one draw per stream, in stream order, given that stream's own generator; when
    # a draw runs, no raw sample drawn earlier is alive; zero diameter draws nothing
    streams = [RandomStream(seed=22, stream_id=r) for r in range(5)]
    args = (TailMass(0.5), PrivacyBudget(epsilon=1.0, delta=1e-4))
    calls, drawn = [], []

    def draw(gen):
        assert all(ref() is None for ref in drawn)
        calls.append(gen)
        sample = gen.uniform(-0.5, 0.5, size=100)
        if len(calls) % 2:
            sample[:90] = sample[0]  # k = 11: replicates 0, 2 and 4 share one block
        drawn.append(weakref.ref(sample))
        return sample

    reports = private_convex_cvar_block(interval_problem(), draw, *args, streams, iterations=4)
    assert len(reports) == len(streams)
    assert [id(gen) for gen in calls] == [id(s.generator) for s in streams]
    flat = dataclasses.replace(interval_problem(), diameter=0.0, project=np.zeros_like)
    never = private_convex_cvar_block(flat, lambda gen: pytest.fail("drew a sample"), *args,
                                      streams)
    assert [report.iterations for report in never] == [0] * len(streams)


def test_private_paths_are_deterministic_per_stream():
    rng_data = np.random.default_rng(17)
    x = vec(rng_data.random(40))
    tau = TailMass(0.2)
    a = private_scalar_cvar(x, tau, PrivacyBudget(0.5), RandomStream(seed=18, stream_id=4))
    b = private_scalar_cvar(x, tau, PrivacyBudget(0.5), RandomStream(seed=18, stream_id=4))
    assert a.output == b.output
    zs = rng_data.uniform(0.0, 0.5, size=60)
    pa = private_convex_cvar(
        interval_problem(),
        zs,
        tau,
        PrivacyBudget(0.5, delta=1.0 / 3600),
        RandomStream(seed=19, stream_id=5),
    )
    pb = private_convex_cvar(
        interval_problem(),
        zs,
        tau,
        PrivacyBudget(0.5, delta=1.0 / 3600),
        RandomStream(seed=19, stream_id=5),
    )
    np.testing.assert_array_equal(pa.output, pb.output)
