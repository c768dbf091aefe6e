"""Perpetuity tests: environment coupling, regime arithmetic, series and
chain samplers, annuity diagnostics, and limit-law mapping."""

import functools
import math

import numpy as np
import pytest

from haldane import perpetuity
from haldane import (
    ConstantLaw,
    DiracLimit,
    InadmissibleRegimeError,
    InverseGammaParams,
    PerpetuityRegime,
    PerpetuitySpec,
    TwoPointLaw,
    annuity_residual,
    from_environment,
    ks_two_sample,
    limit_fit_test,
    limit_law,
    make_environment,
    regime_of,
    rng_stream,
)
from haldane.numerics import ks_threshold
from haldane.perpetuity import (
    NonContractiveError,
    _limit_shape_values,
    contraction_rate,
    default_burn_in,
    sample_chain_batch,
    sample_series_batch,
)


# ---------------------------------------------------------------------------
# Environment coupling
# ---------------------------------------------------------------------------

def test_from_environment_degenerate_pairs():
    model = make_environment("poisson", epsilon=0.05, nu=0.0)
    spec = from_environment(model)
    a, b = spec.sample_pairs(rng_stream(1, 0), 100)
    # Poisson laws have limit shape value 1/2 regardless of the rate
    assert np.all(a == 0.5)
    assert np.allclose(b, 1 / 1.05, atol=1e-15)
    assert spec.coupled


def test_from_environment_two_point_support():
    model = make_environment("poisson", epsilon=0.01, nu=0.01)
    spec = from_environment(model)
    _, b = spec.sample_pairs(rng_stream(1, 1), 2000)
    assert set(np.round(np.unique(b), 12)) == {
        round(1 / 1.11, 12),
        round(1 / 0.91, 12),
    }


def test_alpha_approaches_half_variance():
    # E[A] -> sigma^2/2 as the environment parameters vanish
    for family, sigma_sq in (("poisson", 1.0), ("linear_fractional", 2 * 0.3 / 0.7)):
        alphas = []
        for eps in (0.05, 0.005):
            model = make_environment(family, epsilon=eps, nu=eps / 2)
            alphas.append(regime_of(from_environment(model)).alpha)
        assert abs(alphas[1] - sigma_sq / 2) < abs(alphas[0] - sigma_sq / 2) + 1e-12
        assert alphas[1] == pytest.approx(sigma_sq / 2, rel=0.02)


@pytest.mark.parametrize("noise", ["two_point", "uniform"])
def test_finite_shape_values_match_per_mean_loop(noise):
    model = make_environment("finite", epsilon=0.02, nu=0.02, noise=noise)
    means = model.sample_means(rng_stream(8, 0), size=200)
    expected = np.array([model.law_for_mean(float(m)).shape_at_one() for m in means])
    assert np.array_equal(_limit_shape_values(model, means), expected)


def test_finite_shape_values_five_point_template():
    # the vectorized uniform-noise shape sums five terms per row in another
    # order than the per-law fsum, so it agrees to rounding, not bit for bit
    template = (0.35, 0.3, 0.15, 0.1, 0.1)
    model = make_environment("finite", epsilon=0.02, nu=0.02, noise="uniform", template=template)
    means = model.sample_means(rng_stream(8, 1), size=2000)
    expected = np.array([model.law_for_mean(float(m)).shape_at_one() for m in means])
    np.testing.assert_allclose(_limit_shape_values(model, means), expected, rtol=1e-14, atol=0.0)


def test_two_point_law_sample_exact_values():
    law = TwoPointLaw(0.3, 1.7)
    n = 1_000_000
    x = law.sample(rng_stream(7, 0), n)
    is_hi = x == 1.7
    assert np.all(is_hi | (x == 0.3))
    # share of the upper value within 5 sigma of 1/2
    assert abs(np.count_nonzero(is_hi) / n - 0.5) <= 5.0 * 0.5 / math.sqrt(n)
    assert np.array_equal(x, law.sample(rng_stream(7, 0), n))


def test_spec_construction_validation():
    with pytest.raises(ValueError):
        PerpetuitySpec()  # neither scalar laws nor a model
    with pytest.raises(ValueError):
        PerpetuitySpec(
            a_law=ConstantLaw(1.0),
            b_law=ConstantLaw(0.5),
            model=make_environment("poisson", epsilon=0.01, nu=0.0),
        )
    with pytest.raises(ValueError):
        ConstantLaw(-1.0)
    with pytest.raises(ValueError):
        TwoPointLaw(0.5, 0.2)


# ---------------------------------------------------------------------------
# Regimes
# ---------------------------------------------------------------------------

def test_regime_constant_discount():
    regime = regime_of(PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=ConstantLaw(0.99)))
    assert regime.beta == pytest.approx(0.01, abs=1e-15)
    assert regime.gamma == 0.0
    assert math.isinf(regime.rho_hat)


def test_regime_environment_expansions():
    # beta = eps - nu + o(eps), gamma = nu + o(eps) from exact reciprocals
    eps = 0.01
    model = make_environment("poisson", epsilon=eps, nu=eps)
    regime = regime_of(from_environment(model))
    assert abs(regime.beta - 0.0) <= 3 * eps**2
    assert regime.gamma == pytest.approx(eps, rel=0.05)
    model = make_environment("poisson", epsilon=eps, nu=eps / 2)
    regime = regime_of(from_environment(model))
    assert regime.beta == pytest.approx(eps / 2, rel=0.1)
    assert regime.gamma == pytest.approx(eps / 2, rel=0.05)


def test_regime_inadmissible_two_point():
    # E[B] = 1.05 so beta = -0.05, below -gamma/2 = -0.03125
    spec = PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=TwoPointLaw(0.8, 1.3))
    with pytest.raises(InadmissibleRegimeError):
        regime_of(spec)
    # both samplers gate on admissibility before computing a contraction rate
    for sampler in (sample_series_batch, sample_chain_batch):
        with pytest.raises(InadmissibleRegimeError):
            sampler(spec, 10, rng_stream(1, 0))


# ---------------------------------------------------------------------------
# Limit laws
# ---------------------------------------------------------------------------

def test_limit_law_mapping():
    dirac = limit_law(PerpetuityRegime(beta=0.01, gamma=0.0, rho_hat=math.inf, alpha=0.5))
    assert isinstance(dirac, DiracLimit) and dirac.alpha == 0.5
    ig = limit_law(PerpetuityRegime(beta=0.0, gamma=0.1, rho_hat=0.0, alpha=0.5))
    assert isinstance(ig, InverseGammaParams)
    assert (ig.a, ig.b) == (1.0, 1.0)
    ig = limit_law(PerpetuityRegime(beta=0.1, gamma=0.1, rho_hat=1.0, alpha=1.0))
    assert (ig.a, ig.b) == (3.0, 2.0)


def test_limit_law_region_error():
    with pytest.raises(InadmissibleRegimeError):
        PerpetuityRegime(beta=-0.2, gamma=0.1, rho_hat=-2.0, alpha=1.0)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def test_series_geometric():
    spec = PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=ConstantLaw(0.5))
    values, flags = sample_series_batch(spec, 1, rng_stream(1, 0), tol=1e-9)
    assert not flags[0]
    assert values[0] == pytest.approx(2.0, abs=1e-8)


def test_series_zero_discount():
    spec = PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=ConstantLaw(0.0))
    values, flags = sample_series_batch(spec, 1, rng_stream(1, 0))
    assert values[0] == 1.0 and not flags[0]


def test_series_fixed_point_value_constant_spec():
    # the truncated sum must satisfy the annuity recursion up to tol
    spec = PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=ConstantLaw(0.5))
    (y,), flags = sample_series_batch(spec, 1, rng_stream(1, 0), tol=1e-10)
    assert not flags[0]
    assert abs(y - (1.0 + 0.5 * y)) < 1e-10


def test_series_degenerate_env_mean_identity():
    # with a degenerate environment the series is deterministic: beta Y = alpha
    model = make_environment("poisson", epsilon=0.01, nu=0.0)
    spec = from_environment(model)
    regime = regime_of(spec)
    (y,), flags = sample_series_batch(spec, 1, rng_stream(2, 0), tol=1e-10)
    assert not flags[0]
    assert regime.beta * y == pytest.approx(regime.alpha, rel=1e-6)


def test_series_mean_identity_random_spec():
    model = make_environment("linear_fractional", epsilon=0.05, nu=0.025)
    spec = from_environment(model)
    regime = regime_of(spec)
    values, flags = sample_series_batch(spec, 20_000, rng_stream(2, 1))
    assert not flags.any()
    target = regime.alpha / regime.beta
    se = float(np.std(values, ddof=1)) / math.sqrt(values.size)
    assert float(np.mean(values)) == pytest.approx(target, abs=5 * se)


def test_chain_contraction():
    spec = PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=ConstantLaw(0.5))
    assert sample_chain_batch(spec, 1, rng_stream(1, 0), burn_in=60)[0] == pytest.approx(2.0, abs=1e-12)
    spec0 = PerpetuitySpec(a_law=ConstantLaw(0.7), b_law=ConstantLaw(0.0))
    assert sample_chain_batch(spec0, 1, rng_stream(1, 0), burn_in=1)[0] == 0.7


def test_default_burn_in_forgetting():
    spec = from_environment(make_environment("poisson", epsilon=0.02, nu=0.02))
    u, theta = contraction_rate(spec)
    t = default_burn_in(spec)
    assert (spec.b_power_mean(u)) ** (t / u) < 1e-8


def test_chain_and_series_share_law():
    spec = from_environment(make_environment("poisson", epsilon=0.05, nu=0.025))
    n = 5000
    series, _ = sample_series_batch(spec, n, rng_stream(9, 0))
    chain = sample_chain_batch(spec, n, rng_stream(9, 1))
    assert ks_two_sample(series, chain) < ks_threshold(n, n, alpha=0.01)


# ---------------------------------------------------------------------------
# Annuity diagnostics
# ---------------------------------------------------------------------------

def test_annuity_residual_zero_discount_constant():
    # B = 0 makes both samples identical copies of the constant A
    spec = PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=ConstantLaw(0.0))
    assert annuity_residual(spec, 1000, rng_stream(3, 0)) == 0.0


def test_annuity_residual_zero_discount_two_point():
    spec = PerpetuitySpec(a_law=TwoPointLaw(0.5, 1.5), b_law=ConstantLaw(0.0))
    ks = annuity_residual(spec, 5000, rng_stream(3, 1))
    assert ks < ks_threshold(5000, 5000, alpha=0.01)


def test_annuity_residual_environment():
    spec = from_environment(make_environment("poisson", epsilon=0.02, nu=0.02))
    n = 10_000
    ks = annuity_residual(spec, n, rng_stream(3, 2))
    assert ks < ks_threshold(n, n, alpha=0.01)


def test_annuity_residual_needs_samples():
    spec = PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=ConstantLaw(0.5))
    with pytest.raises(ValueError):
        annuity_residual(spec, 100, rng_stream(0, 0))


# ---------------------------------------------------------------------------
# Limit fits
# ---------------------------------------------------------------------------

def test_limit_fit_constant_concentrates():
    spec = PerpetuitySpec(a_law=ConstantLaw(0.5), b_law=ConstantLaw(0.99))
    fit = limit_fit_test(spec, 2000, rng_stream(4, 0))
    assert fit.scaled_by == "beta"
    assert fit.concentration == 1.0
    assert fit.ks_distance is None


def test_limit_fit_environment_inverse_gamma():
    spec = from_environment(make_environment("poisson", epsilon=0.02, nu=0.02))
    fit = limit_fit_test(spec, 10_000, rng_stream(4, 1), tol=1e-4)
    assert fit.scaled_by == "gamma"
    assert isinstance(fit.limit, InverseGammaParams)
    regime = regime_of(spec)
    assert fit.limit.a == pytest.approx(2 * regime.rho_hat + 1)
    assert fit.limit.b == pytest.approx(2 * regime.alpha)
    assert fit.ks_distance < 0.05
    assert fit.n_flagged == 0


def test_flagged_series_draws_are_reported(monkeypatch):
    """Draws cut at k_max reach the fit's n_flagged, and the annuity
    diagnostic refuses them."""
    spec = from_environment(make_environment("poisson", epsilon=0.02, nu=0.02))
    # 16 terms leave every discount near 0.98**16, far above the tail bound
    short = functools.partial(perpetuity.sample_series_batch, k_max=16)
    monkeypatch.setattr(perpetuity, "sample_series_batch", short)
    fit = limit_fit_test(spec, 1000, rng_stream(4, 2), tol=1e-3)
    assert fit.n_flagged == 1000
    with pytest.raises(NonContractiveError, match="1000 of 1000"):
        annuity_residual(spec, 1000, rng_stream(4, 3))
