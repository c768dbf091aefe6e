"""The public surface: the exact names ``haldane`` exports, and every
module's ``__all__`` resolving to a real attribute."""

import importlib
import types

import pytest

import haldane

PUBLIC = {
    # environments and regimes
    "EnvironmentModel", "FinitePmfFamily", "LinearFractionalFamily", "PoissonFamily",
    "RegimeParams", "expansion_check", "make_environment", "regime_classify",
    # numerics
    "EstimateResult", "InverseGammaParams", "RandomStream", "invgamma_cdf", "invgamma_laplace",
    "invgamma_pdf", "ks_one_sample", "ks_two_sample", "laplace_ode_residual", "lower_reg_gamma",
    "rng_stream", "upper_reg_gamma",
    # offspring laws
    "FinitePmf", "LinearFractional", "OffspringLaw", "Poisson",
    # perpetuities
    "ConstantLaw", "DiracLimit", "FitResult", "InadmissibleRegimeError", "PerpetuityRegime",
    "PerpetuitySpec", "TwoPointLaw", "annuity_residual", "from_environment", "limit_fit_test",
    "limit_law", "regime_of",
    # survival
    "EnvPath", "SurvivalIdentity", "SweepRow", "backward_extinction", "estimate_survival_gf",
    "gw_fixed_point_survival", "haldane_prediction", "haldane_sweep", "lf_exact_extinction",
    "sample_env_path", "simulate_population", "survival_identity",
}

# Names that only their own module and tests used; they stay gone.
DELETED = {
    "AssumptionReport", "EnvMoments", "ExpansionCheck", "LimitLaw", "analytic_moments",
    "assumption_check", "family_from_name", "invgamma_sample", "mean_reciprocal",
    "sample_chain", "sample_series", "summarize",
}

MODULES = ("cli", "environment", "numerics", "offspring", "perpetuity", "survival", "verify")


def test_package_exports_exactly_the_public_names():
    exported = {
        name for name, value in vars(haldane).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"haldane.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    for entry in module.__all__:
        assert hasattr(module, entry), f"haldane.{name}.__all__ names missing {entry!r}"
    assert not DELETED & set(module.__all__)
    assert not DELETED & set(vars(module))
