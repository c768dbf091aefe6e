"""Simulation and numerical-verification toolkit for slightly supercritical
branching processes in iid random environments.

The package estimates limiting survival probabilities three independent
ways (generating-function composition, the annuity-sum form of the
survival identity for linear-fractional laws, and agent-level population
simulation), verifies the shape-function representation of conditional
survival path by path, and simulates the associated random discounted
series together with their degenerate and inverse-gamma limit laws.

Quick start::

    from haldane import make_environment, estimate_survival_gf

    model = make_environment("linear_fractional", epsilon=0.02, nu=0.02)
    result = estimate_survival_gf(model, n_reps=100_000, seed=7)
    print(result.estimate, "+/-", result.std_error)

The ``haldane`` command-line tool wraps survival sweeps, perpetuity fits,
and the invariant verification suite; see the README.
"""

from .environment import (
    EnvironmentModel,
    FinitePmfFamily,
    LinearFractionalFamily,
    PoissonFamily,
    RegimeParams,
    expansion_check,
    make_environment,
    regime_classify,
)
from .numerics import (
    EstimateResult,
    InverseGammaParams,
    RandomStream,
    invgamma_cdf,
    invgamma_laplace,
    invgamma_pdf,
    ks_one_sample,
    ks_two_sample,
    laplace_ode_residual,
    lower_reg_gamma,
    rng_stream,
    upper_reg_gamma,
)
from .offspring import FinitePmf, LinearFractional, OffspringLaw, Poisson
from .perpetuity import (
    ConstantLaw,
    DiracLimit,
    FitResult,
    InadmissibleRegimeError,
    PerpetuityRegime,
    PerpetuitySpec,
    TwoPointLaw,
    annuity_residual,
    from_environment,
    limit_fit_test,
    limit_law,
    regime_of,
)
from .survival import (
    EnvPath,
    SurvivalIdentity,
    SweepRow,
    backward_extinction,
    estimate_survival_gf,
    gw_fixed_point_survival,
    haldane_prediction,
    haldane_sweep,
    lf_exact_extinction,
    sample_env_path,
    simulate_population,
    survival_identity,
)

__version__ = "0.1.0"
