"""Numerics tests with independent oracles: closed forms and a local erfc
series for the incomplete gamma family (itself scipy.special's), scipy.stats
for the inverse gamma law, quadrature and Monte Carlo for the Laplace
transform (itself a Bessel closed form), and scipy.stats for the KS
statistics."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from haldane import (
    InverseGammaParams,
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
from haldane.numerics import RandomStream, combine_batch_stats, ks_threshold, two_point_octets


# ---------------------------------------------------------------------------
# Regularized incomplete gamma
# ---------------------------------------------------------------------------

def _erfc_series(x: float) -> float:
    """Independent complementary error function from the Maclaurin series
    erf(x) = 2/sqrt(pi) * sum (-1)^n x^(2n+1) / (n! (2n+1))."""
    total = 0.0
    term = x
    sign = 1.0
    for n in range(0, 80):
        if n > 0:
            term *= x * x / n
        total += sign * term / (2 * n + 1)
        sign = -sign
    return 1.0 - 2.0 / math.sqrt(math.pi) * total


def test_upper_gamma_exponential_identity():
    assert upper_reg_gamma(1.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-14)
    assert upper_reg_gamma(1.0, 3.7) == pytest.approx(math.exp(-3.7), abs=1e-14)


def test_upper_gamma_at_zero():
    assert upper_reg_gamma(2.5, 0.0) == 1.0
    assert lower_reg_gamma(2.5, 0.0) == 0.0


def test_upper_gamma_half_integer_erfc():
    # Q(1/2, x) = erfc(sqrt(x)); oracle is a locally implemented series
    assert upper_reg_gamma(0.5, 1.0) == pytest.approx(_erfc_series(1.0), abs=1e-12)


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        upper_reg_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        upper_reg_gamma(-1.0, 1.0)
    with pytest.raises(ValueError):
        lower_reg_gamma(1.0, -0.5)


def test_gamma_complementarity():
    for a in (0.5, 1.0, 3.0, 10.0):
        for x in (0.01, 0.5, 1.0, 5.0, 20.0):
            assert lower_reg_gamma(a, x) + upper_reg_gamma(a, x) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Inverse gamma distribution
# ---------------------------------------------------------------------------

def test_invgamma_cdf_closed_form():
    params = InverseGammaParams(1.0, 2.0)
    assert invgamma_cdf(params, 2.0) == pytest.approx(math.exp(-1.0), abs=1e-14)


def test_invgamma_cdf_limits_and_domain():
    params = InverseGammaParams(3.0, 2.0)
    assert invgamma_cdf(params, 1e9) == pytest.approx(1.0, abs=1e-9)
    assert invgamma_cdf(params, 1e-9) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        invgamma_cdf(params, 0.0)
    with pytest.raises(ValueError):
        invgamma_pdf(params, -1.0)
    with pytest.raises(ValueError):
        InverseGammaParams(0.0, 1.0)


def test_invgamma_cdf_on_arrays():
    params = InverseGammaParams(2.3, 1.7)
    x = np.concatenate([np.geomspace(1e-3, 1e4, 400), [0.25, 1.0, 7.5]])
    values = invgamma_cdf(params, x)
    assert values.shape == x.shape
    scalar = np.array([invgamma_cdf(params, float(v)) for v in x])
    assert np.array_equal(values, scalar)
    with pytest.raises(ValueError):
        invgamma_cdf(params, np.array([0.5, 0.0, 2.0]))


def test_invgamma_matches_scipy():
    params = InverseGammaParams(2.3, 1.7)
    dist = stats.invgamma(2.3, scale=1.7)
    for x in (0.1, 0.5, 1.0, 3.0, 10.0):
        assert invgamma_cdf(params, x) == pytest.approx(float(dist.cdf(x)), abs=1e-12)
        assert invgamma_pdf(params, x) == pytest.approx(float(dist.pdf(x)), rel=1e-12)


def test_invgamma_laplace_total_mass_and_monotone():
    params = InverseGammaParams(2.0, 1.0)
    assert invgamma_laplace(params, 0.0) == 1.0
    assert invgamma_laplace(params, 1.0) < invgamma_laplace(params, 0.5)


def _laplace_by_quadrature(a: float, b: float, lam: float) -> float:
    """E[exp(-lam W)] by adaptive quadrature after the substitution
    x = b/(-log u), which maps the half line onto (0, 1):
    (1/Gamma(a)) int_0^1 (-log u)**(a-1) exp(-lam*b/(-log u)) du."""
    inv_gamma_a = math.exp(-math.lgamma(a))

    def integrand(u: float) -> float:
        t = -math.log(u)
        return inv_gamma_a * t ** (a - 1.0) * math.exp(-lam * b / t)

    value, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=800)
    return value


def test_invgamma_laplace_against_bessel_and_mc():
    """The Bessel closed form against quadrature and Monte Carlo."""
    for a, b, lam in ((0.5, 0.5, 0.1), (3.0, 2.0, 1.0), (5.0, 0.5, 5.0)):
        oracle = _laplace_by_quadrature(a, b, lam)
        assert invgamma_laplace(InverseGammaParams(a, b), lam) == pytest.approx(oracle, rel=1e-10)
    params = InverseGammaParams(3.0, 2.0)
    w = 1.0 / rng_stream(6, 1).generator.gamma(shape=params.a, scale=1.0 / params.b, size=200_000)
    values = np.exp(-w)
    se = float(np.std(values, ddof=1)) / math.sqrt(values.size)
    assert invgamma_laplace(params, 1.0) == pytest.approx(float(np.mean(values)), abs=5 * se)


def test_laplace_ode_residual_examples():
    assert laplace_ode_residual(InverseGammaParams(2.0, 1.0), 1.0, 1e-3) < 1e-5
    assert laplace_ode_residual(InverseGammaParams(1.0, 2.0), 0.5, 1e-3) < 1e-5
    coarse = laplace_ode_residual(InverseGammaParams(2.0, 1.0), 1.0, 8e-3)
    fine = laplace_ode_residual(InverseGammaParams(2.0, 1.0), 1.0, 4e-3)
    assert 3.0 <= coarse / fine <= 5.0
    with pytest.raises(ValueError):
        laplace_ode_residual(InverseGammaParams(2.0, 1.0), 1e-4, 1e-3)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov statistics
# ---------------------------------------------------------------------------

def test_ks_one_sample_exact_quantiles():
    n = 100
    samples = (np.arange(1, n + 1) - 0.5) / n
    assert ks_one_sample(samples, lambda x: x) == pytest.approx(1.0 / (2 * n), abs=1e-15)


def test_ks_one_sample_matches_scipy():
    rng = rng_stream(8, 0)
    x = rng.generator.normal(size=500)
    ours = ks_one_sample(x, stats.norm.cdf)
    theirs = float(stats.kstest(x, "norm").statistic)
    assert ours == pytest.approx(theirs, abs=1e-12)


def test_ks_two_sample_matches_scipy():
    rng = rng_stream(8, 1)
    x = rng.generator.normal(size=400)
    y = rng.generator.normal(size=300) + 0.1
    ours = ks_two_sample(x, y)
    theirs = float(stats.ks_2samp(x, y, method="asymp").statistic)
    assert ours == pytest.approx(theirs, abs=1e-12)
    assert ks_two_sample(x, x) == 0.0


def test_ks_null_threshold():
    n = 10_000
    u = rng_stream(8, 2).uniforms(n)
    assert ks_one_sample(u, lambda x: x) < ks_threshold(n, alpha=0.01)


def test_ks_validation():
    with pytest.raises(ValueError):
        ks_one_sample([1.0], lambda x: x)
    with pytest.raises(ValueError):
        ks_two_sample([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# Estimates
# ---------------------------------------------------------------------------

def test_combine_batch_stats_order_insensitive():
    # batches hold (count, sum, squared deviations from the batch mean)
    # of [1, 1, 1] and [0, 1]
    batches = [(3, 3.0, 0.0), (2, 1.0, 0.5)]
    a = combine_batch_stats(batches, seed=1)
    b = combine_batch_stats(list(reversed(batches)), seed=1)
    assert a == b
    direct = np.array([1.0, 1.0, 1.0, 0.0, 1.0])
    assert a.estimate == pytest.approx(float(np.mean(direct)), abs=1e-15)
    assert a.std_error == pytest.approx(float(np.std(direct, ddof=1)) / math.sqrt(direct.size), abs=1e-15)


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------

def test_stream_reproducibility():
    a = rng_stream(123, 7).uniforms(1000)
    b = rng_stream(123, 7).uniforms(1000)
    assert np.array_equal(a, b)


def test_stream_distinct_ids_differ():
    a = rng_stream(123, 7).uniforms(100)
    b = rng_stream(123, 8).uniforms(100)
    c = rng_stream(124, 7).uniforms(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_crosscorrelation():
    n = 1_000_000
    x = rng_stream(9, 0).uniforms(n)
    y = rng_stream(9, 1).uniforms(n)
    assert abs(float(np.corrcoef(x, y)[0, 1])) < 5.0 / math.sqrt(n)


def test_stream_bits_fair_and_reproducible():
    n = 1_000_000
    bits = rng_stream(5, 3).bits(n)
    assert bits.dtype == bool and bits.shape == (n,)
    # share of ones within 5 sigma of 1/2
    assert abs(np.count_nonzero(bits) / n - 0.5) <= 5.0 * 0.5 / math.sqrt(n)
    assert np.array_equal(bits, rng_stream(5, 3).bits(n))
    assert not np.array_equal(bits[:100], rng_stream(5, 4).bits(100))
    assert rng_stream(5, 3).bits((3, 7)).shape == (3, 7)


# Sizes around the byte (8) and stream word (32) boundaries.
_BIT_SIZES = (0, 1, 3, 5, 7, 9, 31, 32, 33, 64, 100, 1000, 16384, 16385)


@pytest.mark.parametrize("seed", [0, 17, 2**63 + 5])
def test_packed_bits_read_the_stream_as_bool_draws(seed):
    # The reference draws from an identical Philox stream: bounded boolean
    # draws, 32 bits to a word, low bit first.  Between draws both streams
    # serve 64-bit consumers (random, poisson) and 32-bit ones (permutation,
    # small integers), which leave half a 64-bit output buffered.
    stream = rng_stream(seed, 3)
    reference = np.random.Generator(np.random.Philox(key=(3 << 64) | seed))
    for size in _BIT_SIZES:
        packed = stream.packed_bits(size)
        assert packed.dtype == np.uint8 and packed.shape == (4 * -(-size // 32),)
        expected = reference.integers(0, 2, size, dtype=bool)
        assert np.array_equal(np.unpackbits(packed, count=size, bitorder="little").view(bool), expected)
        assert np.array_equal(stream.bits(size), reference.integers(0, 2, size, dtype=bool))
        assert np.array_equal(stream.bits((3, size)), reference.integers(0, 2, (3, size), dtype=bool))
        for gen in (stream.generator, reference):
            gen.random(3)
            gen.permutation(size % 7 + 2)
            gen.integers(0, 10)
            gen.poisson(4.0, 2)
            gen.integers(0, 10)
    # counter, key, buffered outputs and the buffered 32-bit half
    assert repr(stream.generator.bit_generator.state) == repr(reference.bit_generator.state)


def test_two_point_octets_expand_every_byte():
    lo, hi = 0.9, 1.1
    table = two_point_octets(lo, hi)
    assert table.shape == (256, 8) and not table.flags.writeable
    for byte in range(256):
        bits = np.unpackbits(np.array([byte], dtype=np.uint8), bitorder="little")
        assert np.array_equal(table[byte], np.take(np.array([lo, hi]), bits))


@pytest.mark.parametrize("size", [1, 7, 9, 31, 33, 100, 1001, 16385])
def test_two_point_draws_match_a_bitwise_take(size):
    lo, hi = 0.3, 1.7
    stream, twin = rng_stream(4, size), rng_stream(4, size)
    draws = stream.two_point(two_point_octets(lo, hi), size)
    assert draws.shape == (size,)
    assert np.array_equal(draws, np.take(np.array([lo, hi]), twin.bits(size).view(np.uint8)))
    assert stream.generator.integers(0, 2**32) == twin.generator.integers(0, 2**32)


def test_stream_validation():
    with pytest.raises(ValueError):
        RandomStream(-1, 0)
    with pytest.raises(ValueError):
        RandomStream(0, 2**64)
