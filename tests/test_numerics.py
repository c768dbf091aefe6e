"""Numerics tests with independent oracles: scipy.special, closed forms and
a local erfc series for the numpy incomplete gamma family (power series and
continued fraction), scipy.stats for the inverse gamma law, scipy.special's
``kve``, quadrature and Monte Carlo for the Laplace transform (a Bessel
closed form evaluated by the trapezoid rule), and scipy.stats for the KS
statistics.  SciPy is only an oracle here: the library's run paths load
none of it."""

import hashlib
import math

import numpy as np
import pytest
from scipy import integrate, special, stats

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
from haldane import verify
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


@pytest.mark.parametrize("a", np.geomspace(0.05, 100.0, 25).tolist() + [1.02, 1.04, 7.38])
def test_incomplete_gamma_matches_scipy(a):
    """P and Q within 1e-13 of scipy.special's relative to the value, plus
    one unit in the last place of its logarithm: a value near e**-600 is
    exp of an argument whose last bit is worth 1.1e-13, and there SciPy's
    own error reaches 1.35e-13.  Points where SciPy's value is below
    1e-290 are skipped."""
    x = np.concatenate([np.geomspace(1e-8, 700.0, 400), a * np.linspace(0.5, 2.0, 61), a + np.linspace(0.9, 1.1, 21)])
    for ours, theirs in ((lower_reg_gamma(a, x), special.gammainc(a, x)), (upper_reg_gamma(a, x), special.gammaincc(a, x))):
        kept = theirs > 1e-290
        rtol = 1e-13 + np.abs(np.log(theirs[kept])) * 2.0**-52
        assert np.all(np.abs(ours[kept] - theirs[kept]) <= rtol * theirs[kept])


def test_incomplete_gamma_edges_and_broadcasting():
    """x = 0, x = inf and subnormal x give the limits without a
    RuntimeWarning (which the test configuration makes an error), and an
    array of shapes broadcasts against an array of arguments."""
    x = np.array([0.0, np.inf, 5e-324, 1e-310, 1e-300])
    for a in (0.05, 1.02, 7.38, 60.0):
        p, q = lower_reg_gamma(a, x), upper_reg_gamma(a, x)
        assert p[:2].tolist() == [0.0, 1.0] and q[:2].tolist() == [1.0, 0.0]
        # below x = 1e-300 the series is its first term, x**a / Gamma(a + 1)
        first = [math.exp(a * math.log(v) - math.lgamma(a + 1.0)) for v in x[2:]]
        assert p[2:] == pytest.approx(first, rel=1e-13, abs=1e-320)
        assert q[2:] == pytest.approx(1.0 - p[2:], rel=1e-15)
    a = np.array([[0.5], [2.0], [30.0]])
    x = np.array([0.0, 0.3, 3.0, 40.0, np.inf])
    q = upper_reg_gamma(a, x)
    assert q.shape == (3, 5)
    assert np.allclose(q, special.gammaincc(a, x), rtol=1e-13, atol=0.0)
    assert isinstance(upper_reg_gamma(2.5, 1.3), np.floating)
    assert upper_reg_gamma(1.0, np.array([])).shape == (0,)


def test_incomplete_gamma_grid_is_pinned_bitwise():
    """P and Q on a grid of 67 shapes (10**-3 to 10**3, and both sides of
    the Stirling switch at a = 10) by 246 arguments (0, the smallest
    subnormal, 1e-300, inf, 10**-6 to 10**4, and 0.5 a to 1.5 a), and Q at
    the benchmark's shape 3.04, hash to the digest of the implementation
    before its fixed cost per call was cut: the cut changed no bit."""
    a = np.concatenate([np.geomspace(1e-3, 1e3, 61), [2.5, 3.04, 9.99, 10.0, 10.01, 50.0]])[:, None]
    x = np.concatenate([[0.0, 5e-324, 1e-300, np.inf], np.geomspace(1e-6, 1e4, 201)])
    x = np.concatenate([np.broadcast_to(x, (a.size, x.size)), a * np.linspace(0.5, 1.5, 41)], axis=1)
    digest = hashlib.blake2b(digest_size=16)
    for values in (lower_reg_gamma(a, x), upper_reg_gamma(a, x), upper_reg_gamma(3.04, x[0])):
        digest.update(np.ascontiguousarray(values).tobytes())
    assert digest.hexdigest() == "0c3d7eaee6f02c29a176ac1ecb5121ea"


def test_incomplete_gamma_lanes_are_independent():
    """Each lane retires on its own test, so a value is bitwise the same
    alone, in a batch and under any permutation of the batch."""
    rng = np.random.default_rng(30)
    for a in (0.3, 1.02, 7.38, 45.0):
        x = np.concatenate([rng.gamma(a, 1.0, 300), np.geomspace(1e-6, 600.0, 100)])
        order = rng.permutation(x.size)
        for fn in (lower_reg_gamma, upper_reg_gamma):
            batch = fn(a, x)
            assert np.array_equal(batch, [fn(a, v) for v in x])
            assert np.array_equal(batch[order], fn(a, x[order]))


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


@pytest.mark.parametrize("a, b", [(0.5, 2.0), (1.0, 2.0), (3.0, 2.0)])
def test_pdf_mass_by_trapezoid_rule_matches_quad(a, b):
    """The trapezoid-rule mass of ``haldane verify``'s invgamma-cdf-pdf
    check agrees with adaptive quadrature of the same pdf at its three
    (a, b)."""
    params = InverseGammaParams(a, b)
    mass, _ = integrate.quad(lambda x: invgamma_pdf(params, x), 1e-12, np.inf, limit=400)
    assert abs(verify._invgamma_pdf_mass(params) - mass) <= 1e-12


def test_invgamma_laplace_total_mass_and_monotone():
    params = InverseGammaParams(2.0, 1.0)
    assert invgamma_laplace(params, 0.0) == 1.0
    assert invgamma_laplace(params, 1.0) < invgamma_laplace(params, 0.5)
    for lam in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            invgamma_laplace(params, lam)


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


def test_invgamma_laplace_matches_kve():
    """The trapezoid-rule transform against the closed form through
    scipy.special.kve, to 1e-13, for shapes 0.5-10 and z = 2 sqrt(b lam)
    from 1e-3 to 200."""
    for a in np.linspace(0.5, 10.0, 12):
        for b in (0.5, 2.0):
            for z in np.geomspace(1e-3, 200.0, 25):
                lam = z * z / (4.0 * b)
                closed = math.exp(math.log(2.0) + 0.5 * a * math.log(b * lam) + math.log(special.kve(a, z))
                                  - z - math.lgamma(a))
                assert invgamma_laplace(InverseGammaParams(a, b), lam) == pytest.approx(closed, rel=1e-13)


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


def _raw_twin(stream):
    """An independent bit generator on the stream's key, read raw."""
    return np.random.Philox(key=(stream.stream_id << 64) | stream.master_seed)


def _twin_bytes(twin, count):
    """``count`` flips as ``ceil(count / 64)`` raw outputs, little-endian bytes."""
    return twin.random_raw(-(-count // 64)).astype("<u8").view(np.uint8)


def _flips(packed, count):
    return np.unpackbits(packed, count=count, bitorder="little").view(bool)


def test_stream_bits_fair_and_reproducible():
    n = 1_000_000
    stream = rng_stream(5, 3)
    packed = stream.packed_bits(n)
    assert packed.dtype == np.uint8 and packed.shape == (n // 8,)
    assert np.array_equal(packed, _twin_bytes(_raw_twin(stream), n))
    bits = _flips(packed, n)
    # share of ones within 5 sigma of 1/2
    assert abs(np.count_nonzero(bits) / n - 0.5) <= 5.0 * 0.5 / math.sqrt(n)
    assert np.array_equal(bits, _flips(rng_stream(5, 3).packed_bits(n), n))
    assert not np.array_equal(bits[:100], _flips(rng_stream(5, 4).packed_bits(100), 100))
    assert rng_stream(5, 3).packed_bits(21).shape == (8,)


# Sizes around the byte (8), 32-bit word and 64-bit output boundaries.
_BIT_SIZES = (0, 1, 3, 5, 7, 9, 31, 32, 33, 64, 65, 100, 1000, 16384, 16385)


@pytest.mark.parametrize("seed", [0, 17, 2**63 + 5])
def test_packed_bits_read_the_stream_as_bool_draws(seed):
    # The flips are the bits of the reference's next ceil(size / 64) raw
    # outputs, low bit first, whatever the size.  Between draws both
    # streams serve 64-bit consumers (random, poisson) and 32-bit ones
    # (permutation, small integers), which leave half a 64-bit output
    # buffered; the bit draws read past it.
    stream = rng_stream(seed, 3)
    reference = np.random.Generator(np.random.Philox(key=(3 << 64) | seed))
    for size in _BIT_SIZES:
        packed = stream.packed_bits(size)
        assert packed.dtype == np.uint8 and packed.shape == (8 * -(-size // 64),)
        expected = _twin_bytes(reference.bit_generator, size)
        assert np.array_equal(packed, expected)
        assert np.array_equal(_flips(packed, size), _flips(expected, size))
        assert np.array_equal(stream.packed_bits(3 * size), _twin_bytes(reference.bit_generator, 3 * size))
        for gen in (stream.generator, reference):
            gen.random(3)
            gen.permutation(size % 7 + 2)
            gen.integers(0, 10)
            gen.poisson(4.0, 2)
            gen.integers(0, 10)
    # counter, key, buffered outputs and the buffered 32-bit half
    assert repr(stream.generator.bit_generator.state) == repr(reference.bit_generator.state)


def test_two_point_rows_read_the_stream_as_successive_calls():
    # between draws both streams serve 64-bit and 32-bit consumers, as in
    # test_packed_bits_read_the_stream_as_bool_draws
    octets = two_point_octets(0.3, 1.7)
    stream, twin = rng_stream(5, 1), rng_stream(5, 1)
    for width in (1, 7, 31, 32, 33, 100, 4097):
        draws = stream.two_point(octets, width)
        assert draws.shape == (width,)
        assert np.array_equal(draws, twin.two_point(octets, width))
        for gen in (stream.generator, twin.generator):
            gen.random(3)
            gen.integers(0, 10)
            gen.permutation(width % 7 + 2)
    # counter, key, buffered outputs and the buffered 32-bit half
    assert repr(stream.generator.bit_generator.state) == repr(twin.generator.bit_generator.state)


def _lane_bytes_oracle(raw_bytes, width, rows):
    """Lane i's byte holds bit j of stream byte i in its bit j for j <
    ``rows``: unpack the stream bytes lane-major, weigh, sum."""
    flips = np.unpackbits(raw_bytes, bitorder="little").reshape(-1, 8)[:width, :rows].astype(np.intp)
    return (flips << np.arange(rows)).sum(axis=1)


def _check_bit_draws(stream, twin, count):
    """``packed_bits``, ``two_point`` and ``lane_bytes`` of ``stream`` read
    the raw twin's next outputs, byte for byte."""
    assert np.array_equal(stream.packed_bits(count), _twin_bytes(twin, count))
    flips = _flips(_twin_bytes(twin, count), count)
    assert np.array_equal(stream.two_point(two_point_octets(0.3, 1.7), count), np.where(flips, 1.7, 0.3))
    for rows, width in ((8, count), (3, count), (1, count + 1)):
        expected = _lane_bytes_oracle(_twin_bytes(twin, 64 * -(-width // 8)), width, rows)
        assert np.array_equal(stream.lane_bytes(rows * width, rows), expected)


@pytest.mark.parametrize("seed", [0, 2**63 + 5])
def test_stream_draws_match_a_raw_twin(seed):
    # every bit draw reads ceil(count / 64) whole raw outputs, odd 32-bit
    # word counts included, so every byte must match a twin read raw
    stream = rng_stream(seed, 9)
    twin = _raw_twin(stream)
    for count in (64, 32, 0, 96, 1, 33, 64, 1000, 31, 4096, 16385, 40):
        _check_bit_draws(stream, twin, count)
        assert repr(stream.generator.bit_generator.state) == repr(twin.state)
    # the generator's 32-bit consumers may leave a half buffered; the bit
    # draws read on raw from the next output
    for gen in (stream.generator, np.random.Generator(twin)):
        gen.permutation(5)
        gen.integers(0, 10)
    for count in (64, 32, 128):
        assert np.array_equal(stream.packed_bits(count), _twin_bytes(twin, count))
    # counter, key, buffered outputs and the buffered 32-bit half
    assert repr(stream.generator.bit_generator.state) == repr(twin.state)


def test_bit_draws_read_past_a_buffered_half():
    # a 32-bit word leaves the high half of its 64-bit output buffered;
    # the bit draws read the twin's next raw outputs, and the half stays
    # buffered for the generator's next 32-bit word
    stream = rng_stream(8, 2)
    twin = _raw_twin(stream)
    word = stream.generator.integers(0, 2**32, 1, dtype=np.uint32)
    assert np.array_equal(word, np.random.Generator(twin).integers(0, 2**32, 1, dtype=np.uint32))
    half = twin.state["uinteger"]
    for count in (1, 33, 64, 100, 4097):
        _check_bit_draws(stream, twin, count)
        state = stream.generator.bit_generator.state
        assert (state["has_uint32"], state["uinteger"]) == (1, half)
        assert repr(state) == repr(twin.state)
    assert stream.generator.integers(0, 2**32, 1, dtype=np.uint32) == half


@pytest.mark.parametrize("rows", range(1, 9))
def test_lane_bytes_match_an_unpackbits_oracle(rows):
    for width in (1, 7, 31, 32, 33, 297, 4097, 16385):
        stream = rng_stream(12, width)
        twin = _raw_twin(stream)
        lane_bytes = stream.lane_bytes(rows * width, rows)
        assert lane_bytes.dtype == np.intp and lane_bytes.shape == (width,)
        raw = twin.random_raw(-(-width // 8)).astype("<u8").view(np.uint8)
        assert np.array_equal(lane_bytes, _lane_bytes_oracle(raw, width, rows))
        next_words = stream.generator.integers(0, 2**32, 4, dtype=np.uint32)
        assert np.array_equal(next_words, np.random.Generator(twin).integers(0, 2**32, 4, dtype=np.uint32))


@pytest.mark.parametrize("width", [1, 7, 8, 9, 297, 4097, 16385, 25000])
def test_lane_bytes_read_whole_raw_outputs(width):
    # a draw of any rows <= 8 reads exactly ceil(width / 8) 64-bit outputs
    # and buffers no 32-bit half
    for rows in range(1, 9):
        stream = rng_stream(3, width)
        twin = _raw_twin(stream)
        for _ in range(2):
            lane_bytes = stream.lane_bytes(rows * width, rows)
            assert lane_bytes.dtype == np.intp and lane_bytes.shape == (width,)
            assert np.all(lane_bytes >> rows == 0)
            twin.random_raw(-(-width // 8))
            assert repr(stream.generator.bit_generator.state) == repr(twin.state)
            assert not twin.state["has_uint32"]


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
    stream = rng_stream(4, size)
    twin = _raw_twin(stream)
    draws = stream.two_point(two_point_octets(lo, hi), size)
    assert draws.shape == (size,)
    flips = np.unpackbits(_twin_bytes(twin, size), count=size, bitorder="little")
    assert np.array_equal(draws, np.take(np.array([lo, hi]), flips))
    assert stream.generator.integers(0, 2**32) == np.random.Generator(twin).integers(0, 2**32)


def test_stream_validation():
    with pytest.raises(ValueError):
        RandomStream(-1, 0)
    with pytest.raises(ValueError):
        RandomStream(0, 2**64)
