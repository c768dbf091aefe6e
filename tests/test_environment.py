"""Environment-model tests: construction invariants, exact moments against
quadrature and Monte Carlo oracles, expansions, regimes, and the moment
assumption checker."""

import math

import numpy as np
import pytest
from scipy import integrate

from haldane import (
    FinitePmfFamily,
    LinearFractionalFamily,
    PoissonFamily,
    RegimeParams,
    analytic_moments,
    assumption_check,
    expansion_check,
    make_environment,
    regime_classify,
    rng_stream,
)

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_make_environment_positivity_error():
    with pytest.raises(ValueError, match="positivity"):
        make_environment("poisson", epsilon=0.01, nu=1.2)  # sqrt(1.2) > 1.01


def test_make_environment_family_domain_error():
    # LF with p0=0.3 needs means >= 0.7; sqrt(0.2) pushes the lower mean to ~0.57
    with pytest.raises(ValueError, match="family mean domain"):
        make_environment("linear_fractional", epsilon=0.01, nu=0.2, p0=0.3)
    with pytest.raises(ValueError, match="family mean domain"):
        make_environment("finite", epsilon=1.5, nu=0.0)  # mean 2.5 > max support 2


def test_make_environment_degenerate_collapses():
    model = make_environment("poisson", epsilon=0.05, nu=0.0)
    rng = rng_stream(0, 0)
    laws = {model.law_for_mean(m).lam for m in model.sample_means(rng, size=10)}
    assert laws == {1.05}


def test_two_point_support():
    model = make_environment("poisson", epsilon=0.01, nu=0.01)
    lo, hi = model.support_means()
    assert lo == pytest.approx(0.91, abs=1e-12)
    assert hi == pytest.approx(1.11, abs=1e-12)


def test_two_point_sample_means_exact_bounds():
    model = make_environment("linear_fractional", epsilon=0.05, nu=0.02)
    n = 1_000_000
    means = model.sample_means(rng_stream(6, 1), size=n)
    lo, hi = model.mean_bounds()
    is_hi = means == hi
    assert np.all(is_hi | (means == lo))
    # share of the upper mean within 5 sigma of 1/2
    assert abs(np.count_nonzero(is_hi) / n - 0.5) <= 5.0 * 0.5 / math.sqrt(n)
    assert np.array_equal(means, model.sample_means(rng_stream(6, 1), size=n))


def test_uniform_sample_means_one_uniform_each():
    model = make_environment("poisson", epsilon=0.05, nu=0.02, noise="uniform")
    u = rng_stream(6, 2).uniforms(1000)
    expected = 1.0 + 0.05 + math.sqrt(0.02) * ((2.0 * u - 1.0) * SQRT3)
    assert np.array_equal(model.sample_means(rng_stream(6, 2), size=1000), expected)


def test_unknown_family_and_noise():
    with pytest.raises(ValueError, match="unknown family"):
        make_environment("geometricish", epsilon=0.01, nu=0.0)
    with pytest.raises(ValueError, match="noise"):
        make_environment("poisson", epsilon=0.01, nu=0.0, noise="gaussian")


def test_lf_family_mean_solution():
    family = LinearFractionalFamily(p0=0.3)
    law = family.law_for_mean(0.875)
    # p = 1 - 0.7/0.875
    assert law.p == pytest.approx(0.2, abs=1e-12)


def test_finite_family_tilt_hits_mean():
    family = FinitePmfFamily((0.25, 0.5, 0.25))
    for m in (0.8, 0.95, 1.0, 1.1, 1.4):
        assert family.law_for_mean(m).mean() == pytest.approx(m, abs=1e-12)


def test_sigma_sq_limits():
    assert PoissonFamily().sigma_sq_limit() == pytest.approx(1.0)
    assert LinearFractionalFamily(0.3).sigma_sq_limit() == pytest.approx(2 * 0.3 / 0.7, abs=1e-12)
    assert FinitePmfFamily((0.25, 0.5, 0.25)).sigma_sq_limit() == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

def test_log_mean_sign_examples():
    # 0.5*log((1+eps)^2 - nu), positive for rho < 2 and negative beyond
    model = make_environment("poisson", epsilon=0.01, nu=0.02)
    assert analytic_moments(model, 1.0).log_mean == pytest.approx(0.5 * math.log(1.0001), rel=1e-12)
    model = make_environment("poisson", epsilon=0.01, nu=0.03)
    assert analytic_moments(model, 1.0).log_mean == pytest.approx(0.5 * math.log(0.9901), rel=1e-12)
    assert analytic_moments(model, 1.0).log_mean < 0.0


def test_inverse_moment_degenerate():
    model = make_environment("poisson", epsilon=0.07, nu=0.0)
    assert model.inverse_moment(1.0) == pytest.approx(1.0 / 1.07, rel=1e-14)


def test_two_point_inverse_moment_closed_form():
    model = make_environment("poisson", epsilon=0.01, nu=0.01)
    for r in (0.5, 1.0, 2.0, 3.5):
        expected = 0.5 * (0.91 ** (-r) + 1.11 ** (-r))
        assert model.inverse_moment(r) == pytest.approx(expected, rel=1e-13)


def test_uniform_moments_match_quadrature():
    model = make_environment("poisson", epsilon=0.02, nu=0.01, noise="uniform")
    lo, hi = model.mean_bounds()
    assert lo == pytest.approx(1.02 - SQRT3 * 0.1, abs=1e-13)
    for r in (0.0, 1.0, 2.0, 3.7):
        oracle, _ = integrate.quad(lambda t: t ** (-r), lo, hi)
        oracle /= hi - lo
        assert model.inverse_moment(r) == pytest.approx(oracle, rel=1e-9)
    oracle_log, _ = integrate.quad(math.log, lo, hi)
    assert model.log_moment() == pytest.approx(oracle_log / (hi - lo), rel=1e-9)


def test_analytic_moments_match_sampling():
    n = 200_000
    for noise in ("two_point", "uniform"):
        model = make_environment("poisson", epsilon=0.03, nu=0.02, noise=noise)
        m = model.sample_means(rng_stream(11, 5), size=n)
        mom = analytic_moments(model, 1.5)
        assert float(np.mean(m)) == pytest.approx(mom.mean, abs=5 * float(np.std(m)) / math.sqrt(n))
        inv = m**-1.5
        assert float(np.mean(inv)) == pytest.approx(
            mom.inverse_moment, abs=5 * float(np.std(inv)) / math.sqrt(n)
        )


def test_analytic_moments_r_domain():
    model = make_environment("poisson", epsilon=0.03, nu=0.02)
    with pytest.raises(ValueError):
        analytic_moments(model, 4.5)
    with pytest.raises(ValueError):
        analytic_moments(model, -0.5)


# ---------------------------------------------------------------------------
# Expansion checks
# ---------------------------------------------------------------------------

def test_expansion_check_degenerate_exact():
    eps = 0.05
    model = make_environment("poisson", epsilon=eps, nu=0.0)
    out = expansion_check(model, 1.0)
    assert out.exact == pytest.approx(1 / (1 + eps), rel=1e-14)
    assert out.expansion == pytest.approx(1 - eps, rel=1e-14)
    assert out.abs_error == pytest.approx(eps**2 / (1 + eps), rel=1e-10)


def test_expansion_error_order():
    # |exact - expansion| = O(eps^2) for the two-point closed form
    model = make_environment("poisson", epsilon=0.01, nu=0.01)
    assert expansion_check(model, 2.0).abs_error < 10.0 * 0.01**1.5


def test_expansion_sweep_ratio():
    errors = []
    for eps in (1e-2, 1e-3):
        model = make_environment("poisson", epsilon=eps, nu=eps)
        errors.append(expansion_check(model, 1.0).abs_error)
    # at least the eps^1.5 decay claimed by the expansion remainder
    assert errors[1] <= errors[0] / 10**1.5


def test_expansion_r_domain():
    model = make_environment("poisson", epsilon=0.01, nu=0.01)
    with pytest.raises(ValueError):
        expansion_check(model, 2.5)


# ---------------------------------------------------------------------------
# Regimes
# ---------------------------------------------------------------------------

def test_regime_classify():
    base = dict(epsilon=0.02, sigma_sq=1.0)
    assert regime_classify(RegimeParams(nu=0.0, rho=0.0, **base)) == "case_i"
    assert regime_classify(RegimeParams(nu=0.02, rho=1.0, **base)) == "case_ii"
    assert regime_classify(RegimeParams(nu=0.04, rho=2.0, **base)) == "boundary"
    assert regime_classify(RegimeParams(nu=0.06, rho=3.0, **base)) == "case_iii"


def test_regime_params_validation():
    with pytest.raises(ValueError):
        RegimeParams(epsilon=0.0, nu=0.0, rho=0.0, sigma_sq=1.0)
    with pytest.raises(ValueError):
        RegimeParams(epsilon=0.01, nu=0.01, rho=-1.0, sigma_sq=1.0)
    with pytest.raises(ValueError):
        RegimeParams(epsilon=0.01, nu=0.01, rho=1.0, sigma_sq=0.0)


def test_regime_params_from_environment():
    model = make_environment("linear_fractional", epsilon=0.02, nu=0.01, p0=0.3)
    params = RegimeParams.from_environment(model)
    assert params.rho == pytest.approx(0.5)
    assert params.sigma_sq == pytest.approx(2 * 0.3 / 0.7)


# ---------------------------------------------------------------------------
# Assumption checker
# ---------------------------------------------------------------------------

def _poisson_fourth_moment_oracle(lam: float) -> float:
    # direct series sum of k^4 * pmf over a generous support
    ks = np.arange(0, 200)
    log_pmf = ks * math.log(lam) - lam - np.array([math.lgamma(k + 1) for k in ks])
    return float(np.sum(np.exp(log_pmf) * ks**4.0))


def test_assumption_check_two_point_ratio_exact():
    model = make_environment("poisson", epsilon=0.02, nu=0.01)
    report = assumption_check(model)
    assert report.centered_ratio == pytest.approx(1.0, abs=1e-15)
    assert report.passed


def test_assumption_check_degenerate_convention():
    model = make_environment("poisson", epsilon=0.05, nu=0.0)
    report = assumption_check(model)
    assert report.centered_ratio == 0.0
    assert report.fourth_moment == pytest.approx(_poisson_fourth_moment_oracle(1.05), rel=1e-10)
    assert report.passed


def test_assumption_check_uniform_ratio():
    model = make_environment("poisson", epsilon=0.02, nu=0.01, noise="uniform")
    report = assumption_check(model, delta=0.5)
    assert report.centered_ratio == pytest.approx(3.0**2.25 / 5.5, rel=1e-12)
    assert report.passed
