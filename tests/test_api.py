"""The package's public names: a pinned list, each one importable."""

import dpcvar

PUBLIC_API = [
    "BoundedLossVector",
    "ConvexProblem",
    "DUMMY",
    "DiscreteDistribution",
    "FiniteClassInstance",
    "LearnerReport",
    "LinearLowerFamily",
    "LossBound",
    "PackingInstance",
    "PrivacyBudget",
    "RandomStream",
    "ScalarHardPair",
    "SensitivityValue",
    "TailMass",
    "build_synthetic_cvar_sample",
    "cvar_sensitivity_bound",
    "embedded_table_law",
    "empirical_cvar",
    "exponential_mechanism",
    "exponential_mechanism_probs",
    "gaussian_noise",
    "gaussian_sigma_for_budget",
    "laplace_noise",
    "lift_scale",
    "lifted_gradient_bound",
    "lifted_terms",
    "make_linear_family",
    "make_packing",
    "make_scalar_pair",
    "population_cvar_discrete",
    "private_convex_cvar",
    "private_convex_cvar_block",
    "private_finite_class",
    "private_scalar_cvar",
    "stable_stream_id",
]


def test_public_api_is_pinned():
    # a name added to or dropped from __all__ must be added to or dropped from here
    assert sorted(dpcvar.__all__) == PUBLIC_API


def test_every_public_name_resolves():
    missing = [name for name in dpcvar.__all__ if not hasattr(dpcvar, name)]
    assert missing == []
