"""Environment-model tests: construction invariants, exact moments against
quadrature and Monte Carlo oracles, expansions, regimes, and the vectorized
tilt solve."""

import math

import numpy as np
import pytest
from scipy import integrate

from haldane import (
    FinitePmfFamily,
    LinearFractionalFamily,
    PoissonFamily,
    RegimeParams,
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
    assert model.log_moment() == pytest.approx(0.5 * math.log(1.0001), rel=1e-12)
    model = make_environment("poisson", epsilon=0.01, nu=0.03)
    assert model.log_moment() == pytest.approx(0.5 * math.log(0.9901), rel=1e-12)
    assert model.log_moment() < 0.0


def test_inverse_moment_degenerate():
    """At nu = 0 both noise kinds give the moments of the point mass at
    1 + eps exactly."""
    transform = lambda t: t * math.exp(-t)
    for noise in ("two_point", "uniform"):
        model = make_environment("poisson", epsilon=0.07, nu=0.0, noise=noise)
        for r in (0.5, 1.0, 2.0):
            assert model.inverse_moment(r) == 1.07 ** (-r)
        assert model.log_moment() == math.log(1.07)
        assert model.mean_expectation(transform) == transform(1.07)


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
        assert float(np.mean(m)) == pytest.approx(1.03, abs=5 * float(np.std(m)) / math.sqrt(n))
        inv = m**-1.5
        assert float(np.mean(inv)) == pytest.approx(
            model.inverse_moment(1.5), abs=5 * float(np.std(inv)) / math.sqrt(n)
        )


# ---------------------------------------------------------------------------
# Expansion checks
# ---------------------------------------------------------------------------

def test_expansion_check_degenerate_exact():
    eps = 0.05
    model = make_environment("poisson", epsilon=eps, nu=0.0)
    # 1/(1 + eps) - (1 - eps) = eps^2/(1 + eps)
    assert expansion_check(model, 1.0) == pytest.approx(eps**2 / (1 + eps), rel=1e-10)


def test_expansion_error_order():
    # |exact - expansion| = O(eps^2) for the two-point closed form
    model = make_environment("poisson", epsilon=0.01, nu=0.01)
    assert expansion_check(model, 2.0) < 10.0 * 0.01**1.5


def test_expansion_sweep_ratio():
    errors = []
    for eps in (1e-2, 1e-3):
        model = make_environment("poisson", epsilon=eps, nu=eps)
        errors.append(expansion_check(model, 1.0))
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
# Family value equality and the vectorized tilt solve
# ---------------------------------------------------------------------------

FIVE_POINT = (0.1, 0.2, 0.3, 0.25, 0.15)


def test_families_compare_and_hash_by_value():
    pairs = [
        (PoissonFamily(), PoissonFamily()),
        (LinearFractionalFamily(0.3), LinearFractionalFamily(p0=0.3)),
        (FinitePmfFamily((0.25, 0.5, 0.25)), FinitePmfFamily([0.25, 0.5, 0.25])),
        (make_environment("poisson", 0.05, 0.025), make_environment("poisson", 0.05, 0.025)),
        (make_environment("finite", 0.05, 0.025, template=FIVE_POINT),
         make_environment("finite", 0.05, 0.025, template=list(FIVE_POINT))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert LinearFractionalFamily(0.3) != LinearFractionalFamily(0.4)
    assert FinitePmfFamily((0.25, 0.5, 0.25)) != FinitePmfFamily(FIVE_POINT)
    assert make_environment("linear_fractional", 0.05, 0.025, p0=0.3) != make_environment(
        "linear_fractional", 0.05, 0.025, p0=0.4
    )
    assert make_environment("finite", 0.05, 0.025) != make_environment(
        "finite", 0.05, 0.025, template=FIVE_POINT
    )
    assert PoissonFamily() != LinearFractionalFamily()
    assert repr(FinitePmfFamily()) == "FinitePmfFamily(template=(0.25, 0.5, 0.25))"


def _brentq_tilted_weights(template, m):
    """Independent oracle: tilt solved by brentq on the tilted mean."""
    from scipy.optimize import brentq

    z = np.arange(len(template))
    positive = np.asarray(template) > 0.0
    log_w = np.log(np.where(positive, template, 1.0))

    def weights(t):
        logits = np.where(positive, log_w + z * t, -np.inf)
        w = np.exp(logits - logits.max())
        return w / w.sum()

    t = brentq(lambda t: float(weights(t) @ z) - m, -60.0, 60.0, xtol=1e-15, rtol=8.9e-16)
    return weights(t)


@pytest.mark.parametrize("template, lo, hi", [((0.25, 0.5, 0.25), 0.6, 1.5), (FIVE_POINT, 0.6, 3.0)])
def test_tilt_solve_matches_brentq_oracle(template, lo, hi):
    family = FinitePmfFamily(template)
    means = np.linspace(lo, hi, 97)
    weights = family.tilted_weights(family.law_params(means))
    oracle = np.array([_brentq_tilted_weights(template, m) for m in means])
    positive = oracle > 0.0
    assert np.all(weights[~positive] == 0.0)
    assert np.max(np.abs(weights - oracle)[positive] / oracle[positive]) <= 1e-14
    for m in means[::8]:
        assert family.law_for_mean(float(m)).mean() == pytest.approx(m, rel=1e-14)


@pytest.mark.parametrize("template", [(0.25, 0.5, 0.25), FIVE_POINT])
def test_tilt_solve_is_batch_independent(template):
    """Converged rows are frozen and every operation is elementwise, so a
    mean's tilt does not depend on which other means share its batch."""
    family = FinitePmfFamily(template)
    rng = np.random.default_rng(4)
    k = len(template) - 1
    means = np.concatenate([rng.uniform(0.01, k - 0.01, 3000), [family._mean, 1e-3, k - 1e-3]])
    tilts = family.law_params(means)
    for order in (rng.permutation(means.size), np.arange(means.size)[::-7]):
        assert np.array_equal(family.law_params(means[order]), tilts[order])
    for i in rng.choice(means.size, 25, replace=False):
        assert family.law_params([means[i]])[0] == tilts[i]
        assert family.law_for_mean(float(means[i])).weights == tuple(family.tilted_weights(tilts[i]))
    assert np.array_equal(family.law_params(means[:3000].reshape(60, 50)), tilts[:3000].reshape(60, 50))


def test_tilt_keeps_exact_template_at_template_mean():
    template = FIVE_POINT
    family = FinitePmfFamily(template)
    mean = math.fsum(z * w for z, w in enumerate(template))
    assert np.array_equal(family.law_params([mean, mean + 5e-16]), [0.0, 0.0])
    assert family.law_for_mean(mean).weights == template
    assert family.law_params([mean + 1e-9])[0] != 0.0
    degenerate = FinitePmfFamily((0.0, 0.0, 1.0))
    assert degenerate.law_for_mean(2.0).weights == (0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="family mean domain"):
        degenerate.law_for_mean(1.5)
    with pytest.raises(ValueError, match="family mean domain"):
        family.law_params([1.0, 4.0])
