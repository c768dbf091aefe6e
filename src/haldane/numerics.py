"""Numerical support layer: regularized incomplete gamma functions, the
inverse-gamma distribution (CDF, density, Laplace transform), Kolmogorov-
Smirnov statistics, the estimate type with its batch merge, and
deterministic splittable random streams.

Everything here is deliberately small: the incomplete gamma functions are
``scipy.special``'s behind domain checks, the Laplace transform is a Bessel
closed form, and the CDF and KS routines work on whole arrays.  SciPy is
imported inside the functions that use it, so importing this module loads
numpy only.  The rest of the package treats these functions as trusted
primitives, and the test suite cross-checks them against independent
oracles (closed forms, quadrature, a local erfc series, scipy.stats, and
Monte Carlo).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EstimateResult",
    "InverseGammaParams",
    "RandomStream",
    "invgamma_cdf",
    "invgamma_laplace",
    "invgamma_pdf",
    "ks_one_sample",
    "ks_two_sample",
    "laplace_ode_residual",
    "lower_reg_gamma",
    "rng_stream",
    "two_point_octets",
    "upper_reg_gamma",
]

# 97.5% standard normal quantile, for two-sided 95% intervals.
_Z_95 = 1.959963984540054


# ---------------------------------------------------------------------------
# Regularized incomplete gamma functions
# ---------------------------------------------------------------------------

def _check_gamma_domain(a, x) -> None:
    if np.any(np.asarray(a) <= 0.0):
        raise ValueError(f"shape parameter must be positive, got a={a}")
    if np.any(np.asarray(x) < 0.0):
        raise ValueError(f"argument must be nonnegative, got x={x}")


def lower_reg_gamma(a, x):
    """Regularized lower incomplete gamma function P(a, x), elementwise
    (``scipy.special.gammainc``).

    Raises:
        ValueError: if any ``a <= 0`` or any ``x < 0``.
    """
    from scipy import special

    _check_gamma_domain(a, x)
    return special.gammainc(a, x)


def upper_reg_gamma(a, x):
    """Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x),
    elementwise (``scipy.special.gammaincc``, accurate where Q is tiny)."""
    from scipy import special

    _check_gamma_domain(a, x)
    return special.gammaincc(a, x)


# ---------------------------------------------------------------------------
# Inverse gamma distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InverseGammaParams:
    """Shape/scale parameters of an inverse gamma law.

    The density is ``b**a / Gamma(a) * x**(-a-1) * exp(-b/x)`` on x > 0,
    i.e. the law of 1/G for G gamma with shape ``a`` and rate ``b``.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError(f"shape must be positive and finite, got a={self.a}")
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise ValueError(f"scale must be positive and finite, got b={self.b}")


def invgamma_pdf(params: InverseGammaParams, x: float) -> float:
    """Inverse gamma density at ``x > 0``."""
    if x <= 0.0:
        raise ValueError(f"density argument must be positive, got x={x}")
    a, b = params.a, params.b
    return math.exp(a * math.log(b) - math.lgamma(a) - (a + 1.0) * math.log(x) - b / x)


def invgamma_cdf(params: InverseGammaParams, x):
    """Inverse gamma CDF P(W <= x) = Q(a, b/x), elementwise over ``x``."""
    if np.any(np.asarray(x) <= 0.0):
        raise ValueError(f"CDF argument must be positive, got x={x}")
    return upper_reg_gamma(params.a, params.b / x)


def invgamma_laplace(params: InverseGammaParams, lam: float) -> float:
    """Laplace transform E[exp(-lam * W)] of an inverse gamma variate, in
    closed form:

        h(lam) = 2 (b*lam)**(a/2) K_a(2 sqrt(b*lam)) / Gamma(a),

    evaluated in logs through the exponentially scaled Bessel function
    ``kve(a, z) = K_a(z) e**z`` with z = 2 sqrt(b*lam), so that no factor
    overflows or underflows on its own; h(0) = 1 exactly.
    """
    if lam < 0.0:
        raise ValueError(f"transform argument must be nonnegative, got {lam}")
    if lam == 0.0:
        return 1.0
    from scipy.special import kve

    a, b = params.a, params.b
    z = 2.0 * math.sqrt(b * lam)
    return math.exp(
        math.log(2.0) + 0.5 * a * math.log(b * lam) + math.log(kve(a, z)) - z - math.lgamma(a)
    )


def laplace_ode_residual(params: InverseGammaParams, lam: float, step: float) -> float:
    """Residual of the second-order ODE satisfied by the inverse gamma
    Laplace transform, lam*h'' = (a-1)*h' + b*h, via central differences.

    The returned value combines the rounding error of the transform and
    the O(step**2) differencing error; it stays below 1e-5 for steps near
    1e-3.
    """
    if not (lam > step > 0.0):
        raise ValueError(f"need lam > step > 0, got lam={lam}, step={step}")
    h_minus = invgamma_laplace(params, lam - step)
    h_mid = invgamma_laplace(params, lam)
    h_plus = invgamma_laplace(params, lam + step)
    d1 = (h_plus - h_minus) / (2.0 * step)
    d2 = (h_plus - 2.0 * h_mid + h_minus) / (step * step)
    return abs(lam * d2 - (params.a - 1.0) * d1 - params.b * h_mid)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov statistics
# ---------------------------------------------------------------------------

def ks_one_sample(samples, cdf) -> float:
    """Sup distance between the empirical CDF of ``samples`` and ``cdf``.

    ``cdf`` is a vectorized callable, called once on the whole sorted
    sample.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 samples")
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    return float(max(d_plus, d_minus))


def ks_two_sample(x_samples, y_samples) -> float:
    """Sup distance between the empirical CDFs of two samples."""
    x = np.sort(np.asarray(x_samples, dtype=float))
    y = np.sort(np.asarray(y_samples, dtype=float))
    if x.size < 2 or y.size < 2:
        raise ValueError("need at least 2 samples on each side")
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / x.size
    cdf_y = np.searchsorted(y, grid, side="right") / y.size
    return float(np.max(np.abs(cdf_x - cdf_y)))


def ks_threshold(n: int, m: int | None = None, alpha: float = 0.01) -> float:
    """Asymptotic KS rejection threshold at level ``alpha``.

    One-sample when ``m`` is None, two-sample otherwise.  The level enters
    through c(alpha) = sqrt(-log(alpha/2)/2); c(0.01) is about 1.63.
    """
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    if m is None:
        return c / math.sqrt(n)
    return c * math.sqrt((n + m) / (n * m))


# ---------------------------------------------------------------------------
# Estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimateResult:
    """A Monte Carlo point estimate with normal-theory error bars.

    ``n_flagged`` counts replicates that stopped on a resource limit
    (adaptive horizon exhausted); ``n_overrun`` counts replicates that hit
    the hard per-replicate work cap of the population simulator.
    """

    estimate: float
    std_error: float
    ci_lo: float
    ci_hi: float
    n_reps: int
    seed: int
    n_flagged: int = 0
    n_overrun: int = 0

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise ValueError("standard error must be nonnegative")
        if not (self.ci_lo <= self.estimate <= self.ci_hi):
            raise ValueError("confidence interval must contain the estimate")


def combine_batch_stats(batches, *, seed: int, n_flagged: int = 0, n_overrun: int = 0) -> EstimateResult:
    """Merge per-batch (count, sum, M2) triples into an estimate.

    ``M2`` is the batch's sum of squared deviations from its own mean; the
    merge adds the between-batch term ``n_b (mean_b - mean)^2`` (Chan, Golub
    and LeVeque), so the variance does not cancel when the spread is tiny
    next to the mean.  Sums are combined with ``math.fsum`` so the result
    does not depend on the order in which batches were produced.
    """
    n = int(sum(b[0] for b in batches))
    if n < 1:
        raise ValueError("no samples")
    mean = math.fsum(b[1] for b in batches) / n
    if n > 1:
        m2 = math.fsum(b[2] for b in batches) + math.fsum(
            count * (total / count - mean) ** 2 for count, total, _ in batches
        )
        se = math.sqrt(m2 / (n - 1) / n)
    else:
        se = 0.0
    return EstimateResult(
        estimate=mean,
        std_error=se,
        ci_lo=mean - _Z_95 * se,
        ci_hi=mean + _Z_95 * se,
        n_reps=n,
        seed=seed,
        n_flagged=n_flagged,
        n_overrun=n_overrun,
    )


# ---------------------------------------------------------------------------
# Deterministic splittable random streams
# ---------------------------------------------------------------------------

_U64_MAX = 2**64 - 1


@dataclass
class RandomStream:
    """A counter-based random stream addressed by (master_seed, stream_id).

    Backed by the Philox bit generator, whose 128-bit key is formed from
    the two identifiers, so stream j is reachable without generating
    streams below j, distinct identifiers give statistically independent
    output, and identical identifiers reproduce identical sequences.

    A stream must be owned by a single consumer at a time; creating one is
    cheap, so each replicate or batch gets its own.
    """

    master_seed: int
    stream_id: int
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in (("master_seed", self.master_seed), ("stream_id", self.stream_id)):
            if not (0 <= value <= _U64_MAX):
                raise ValueError(f"{name} must fit in 64 unsigned bits, got {value}")
        key = (self.stream_id << 64) | self.master_seed
        self._gen = np.random.Generator(np.random.Philox(key=key))

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy Generator (advances this stream's counter)."""
        return self._gen

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` uniforms on [0, 1)."""
        return self._gen.random(n)

    def packed_bits(self, count: int) -> np.ndarray:
        """Next ``count`` fair coin flips, flip k in bit ``k % 8`` (low bit
        first) of byte ``k // 8``.

        The flips are ``ceil(count / 32)`` whole 32-bit stream words as
        little-endian bytes; bits past ``count`` are the unused rest of the
        last word.  ``generator.integers(0, 2, count, dtype=bool)`` reads
        the same words, low bit first, so its stream use is the same.
        """
        words = self._gen.integers(0, 2**32, -(-count // 32), dtype=np.uint32)
        return words.astype("<u4", copy=False).view(np.uint8)

    def bits(self, size) -> np.ndarray:
        """Next fair coin flips as a boolean array of shape ``size``.

        The unpacked view of :meth:`packed_bits`, filled in C order: each
        value costs one bit of the stream, against 64 bits for a uniform.
        """
        shape = tuple(size) if np.ndim(size) else (int(size),)
        count = math.prod(shape)
        flips = np.unpackbits(self.packed_bits(count), count=count, bitorder="little")
        return flips.view(bool).reshape(shape)

    def two_point(self, octets: np.ndarray, size: int) -> np.ndarray:
        """Next ``size`` draws of a two-point law, one stream bit each.

        ``octets`` is a :func:`two_point_octets` table; each byte of
        :meth:`packed_bits` selects its row, the values of 8 draws.
        """
        return octets.take(self.packed_bits(size), axis=0).reshape(-1)[:size]


def two_point_octets(lo: float, hi: float) -> np.ndarray:
    """Read-only (256, 8) table whose row b holds the draws that byte b of
    :meth:`RandomStream.packed_bits` encodes: column k is ``hi`` where bit
    k of b is set and ``lo`` where it is clear."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    table = np.where(bits.view(bool), hi, lo)
    table.flags.writeable = False
    return table


def rng_stream(master_seed: int, stream_id: int) -> RandomStream:
    """Create the random stream addressed by (master_seed, stream_id)."""
    return RandomStream(master_seed=master_seed, stream_id=stream_id)
