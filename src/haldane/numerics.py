"""Numerical support layer: regularized incomplete gamma functions, the
inverse-gamma distribution (CDF, density, Laplace transform), Kolmogorov-
Smirnov statistics, the estimate type with its batch merge, and
deterministic splittable random streams, whose bit draws take whole raw
64-bit Philox outputs.

Everything here is deliberately small and runs on numpy alone: the
incomplete gamma functions are a power series and a continued fraction
whose converged lanes retire, the Laplace transform is a Bessel closed form
whose integral is taken by the trapezoid rule, and the CDF and KS routines
work on whole arrays.  The rest of the package treats these functions as
trusted primitives, and the test suite cross-checks them against
independent oracles (scipy.special, closed forms, quadrature, a local erfc
series, scipy.stats, and Monte Carlo).
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

def lower_reg_gamma(a, x):
    """Regularized lower incomplete gamma function P(a, x), elementwise;
    raises ValueError if any ``a <= 0`` or any ``x < 0``."""
    return _reg_gamma(a, x)[0]


def upper_reg_gamma(a, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x), elementwise, accurate where Q is tiny."""
    return _reg_gamma(a, x)[1]


# Stirling: lgamma(a) = (a - 1/2) log a - a + log(2 pi)/2 + polyval(_STIRLING, 1/a^2)/a to 1e-15 at a >= 10
_STIRLING = np.array([-691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12])


def _reg_gamma(a, x):
    """(P, Q) as in DiDonato and Morris (ACM TOMS 12, 1986): the series of P
    where x < a + 1, else the Lentz continued fraction of Q, times
    x**a e**-x / Gamma(a) (its log in Stirling form where a >= 10 and
    |x - a| <= 0.4 a).  A lane retires at the first multiple of 8 terms
    where its term / sum or |delta - 1| is at most 2**-53.

    The fixed cost per call is kept low, as the 100-point fits call it
    with few points: the fraction's 8 coefficients of a round are formed
    at once and its updates work in place, and the retirement and Stirling
    steps run only where some lane takes them."""
    a_in, x_in = a, x
    a, x = np.asarray(a, dtype=float), np.asarray(x, dtype=float)
    if np.any(a <= 0.0):
        raise ValueError(f"shape parameter must be positive, got a={a_in}")
    if np.any(x < 0.0):
        raise ValueError(f"argument must be nonnegative, got x={x_in}")
    shape = np.broadcast_shapes(a.shape, x.shape)
    lg = np.array([math.lgamma(v) for v in a.flat]).reshape(a.shape)
    a, lg, x = (np.broadcast_to(v, shape).ravel() for v in (a, lg, x))
    p = np.where(x == 0.0, 0.0, np.where(x == np.inf, 1.0, np.nan))  # nan inputs stay nan
    q = 1.0 - p
    lower = x < a + 1.0
    series = np.flatnonzero(lower & (x > 0.0))
    fraction = np.flatnonzero(~lower & (x < np.inf))
    lanes, x_l, ak, total = series, x[series], a[series], 1.0 / a[series]
    term = total.copy()
    while lanes.size:
        for _ in range(8):
            ak += 1.0
            term *= x_l
            term /= ak
            total += term
        done = term <= 2.0**-53 * total
        if done.any():
            p[lanes[done]] = total[done]
            keep = ~done
            lanes, x_l, ak, term, total = lanes[keep], x_l[keep], ak[keep], term[keep], total[keep]
    lanes, a_l, b = fraction, a[fraction], x[fraction] + 1.0 - a[fraction]
    h = 1.0 / b
    d, c, delta, k = h.copy(), np.full(lanes.size, np.inf), np.empty(lanes.size), 0.0
    while lanes.size:
        ks = np.arange(k + 1.0, k + 9.0)[:, None]
        k += 8.0
        for an in ks * (a_l - ks):
            b += 2.0
            d *= an  # d = 1 / (an d + b)
            d += b
            np.divide(1.0, d, out=d)
            np.divide(an, c, out=c)  # c = b + an / c
            c += b
            np.multiply(c, d, out=delta)
            h *= delta
        done = np.abs(delta - 1.0) <= 2.0**-53
        if done.any():
            q[lanes[done]] = h[done]
            keep = ~done
            lanes, a_l, b, h, d, c, delta = (v[keep] for v in (lanes, a_l, b, h, d, c, delta))
    lanes = np.concatenate([series, fraction])
    a, x = a[lanes], x[lanes]
    log_pre = a * np.log(x) - x - lg[lanes]
    near = np.flatnonzero((a >= 10.0) & (np.abs(x - a) <= 0.4 * a))
    if near.size:
        a, t = a[near], (x[near] - a[near]) / a[near]
        log_pre[near] = np.log(a / (2 * np.pi)) / 2 - np.polyval(_STIRLING, 1 / (a * a)) / a + a * (np.log1p(t) - t)
    pre = np.exp(log_pre)
    p[series] *= pre[:series.size]
    q[fraction] *= pre[series.size:]
    q[series], p[fraction] = 1.0 - p[series], 1.0 - q[fraction]
    return p.reshape(shape)[()], q.reshape(shape)[()]


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

        h(lam) = 2 (b*lam)**(a/2) K_a(z) / Gamma(a),  z = 2 sqrt(b*lam),

    evaluated in logs, so that no factor overflows or underflows on its
    own; h(0) = 1 exactly.  ``kve(a, z) = K_a(z) e**z``, the integral over
    t > 0 of exp(-z (cosh t - 1)) cosh(a t), is taken by the trapezoid rule,
    which converges exponentially on this even analytic integrand: step
    1/32 (finer past z = 256), summed in logs up to where the log-integrand
    has fallen 40 below its peak.
    """
    if not 0.0 <= lam < math.inf:  # the grid below would grow without end on inf or nan
        raise ValueError(f"transform argument must be finite and nonnegative, got {lam}")
    if lam == 0.0:
        return 1.0
    a, b = params.a, params.b
    z = 2.0 * math.sqrt(b * lam)
    step = min(1.0 / 32.0, 0.5 / math.sqrt(z))
    t = step * np.arange(256)
    while True:
        log_f = a * t - 2.0 * z * np.sinh(0.5 * t) ** 2 + np.log1p(np.exp(-2.0 * a * t))
        peak = log_f.max()
        if log_f[-1] < min(log_f[-2], peak - 40.0):
            break
        t = step * np.arange(2 * t.size)
    f = np.exp(log_f - peak)
    log_kve = peak + math.log(0.5 * step * (f.sum() - 0.5 * f[0]))
    return math.exp(math.log(2.0) + 0.5 * a * math.log(b * lam) + log_kve - z - math.lgamma(a))


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

# Row b holds the bits of byte b, low bit first: the flips that byte b of
# packed_bits encodes, or the pairs that a lane byte b selects.
BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
BYTE_BITS.flags.writeable = False


@dataclass
class RandomStream:
    """A counter-based random stream addressed by (master_seed, stream_id).

    Backed by the Philox bit generator, whose 128-bit key is formed from
    the two identifiers, so stream j is reachable without generating
    streams below j, distinct identifiers give statistically independent
    output, and identical identifiers reproduce identical sequences.
    Every bit draw reads whole raw 64-bit outputs of the bit generator
    (:meth:`packed_bits`), whatever :attr:`generator`'s own draws left
    buffered.  A stream must be owned by a single consumer at a time;
    creating one is cheap, so each replicate or batch gets its own.
    """

    master_seed: int
    stream_id: int
    # the underlying numpy Generator (its draws advance this stream's counter)
    generator: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in (("master_seed", self.master_seed), ("stream_id", self.stream_id)):
            if not (0 <= value <= _U64_MAX):
                raise ValueError(f"{name} must fit in 64 unsigned bits, got {value}")
        key = (self.stream_id << 64) | self.master_seed
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` uniforms on [0, 1)."""
        return self.generator.random(n)

    def packed_bits(self, count: int) -> np.ndarray:
        """Next ``count`` fair coin flips, flip k in bit ``k % 8`` (low bit
        first) of byte ``k // 8``: the little-endian bytes of ``ceil(count /
        64)`` whole raw 64-bit outputs.  Bits past ``count`` go unused; a
        32-bit half that :attr:`generator` holds buffered is left as it is.
        """
        return self.generator.bit_generator.random_raw(-(-count // 64)).astype("<u8", copy=False).view(np.uint8)

    def two_point(self, octets: np.ndarray, size: int) -> np.ndarray:
        """Next ``size`` draws of a two-point law, one stream bit each:
        each byte of :meth:`packed_bits` selects a row of the
        :func:`two_point_octets` table ``octets``, the values of 8 draws."""
        return octets.take(self.packed_bits(size), axis=0).reshape(-1)[:size]

    def lane_bytes(self, size: int, rows: int = 1) -> np.ndarray:
        """Next fair coin flips for ``rows <= 8`` rows of ``width = size //
        rows`` lanes, read lane-major: an intp array of one byte per lane
        whose bit j is the lane's flip in row j (the draw of one LF check
        interval; :meth:`lane_byte_rows` draws more rows at once).

        Lane i's byte is byte i of ``ceil(width / 8)`` whole 64-bit stream
        outputs (:meth:`packed_bits` of ``64 * ceil(width / 8)`` flips), so
        no transpose is needed.  The bits from ``rows`` on, drawn but
        unused, are cleared.
        """
        width = size // rows
        block = self.packed_bits(64 * -(-width // 8))[:width].astype(np.intp)
        if rows < 8:
            block &= (1 << rows) - 1
        return block

    def lane_byte_rows(self, size: int, rows: int) -> np.ndarray:
        """Next fair coin flips for ``rows`` rows of ``width = size //
        rows`` lanes, as ``ceil(rows / 8)`` rows of lane bytes: a uint8
        array whose row r holds, for each lane, the byte whose bit j is
        the lane's flip in row ``8 r + j``.

        One :meth:`packed_bits` call reads ``ceil(rows / 8)`` groups of
        ``ceil(width / 8)`` whole 64-bit outputs; row r, lane i is byte i
        of group r, so row 0 is what :meth:`lane_bytes` reads.  The bits
        from ``rows`` on, drawn but unused, are cleared.
        """
        width = size // rows
        groups, cols = -(-rows // 8), 8 * -(-width // 8)
        block = self.packed_bits(8 * groups * cols).reshape(groups, cols)[:, :width]
        if rows % 8:
            block[-1] &= (1 << rows % 8) - 1
        return block


def two_point_octets(lo: float, hi: float) -> np.ndarray:
    """Read-only (256, 8) table whose row b holds the draws that byte b of
    :meth:`RandomStream.packed_bits` encodes: column k is ``hi`` where bit
    k of b is set and ``lo`` where it is clear."""
    table = np.where(BYTE_BITS.view(bool), hi, lo)
    table.flags.writeable = False
    return table


def rng_stream(master_seed: int, stream_id: int) -> RandomStream:
    """Create the random stream addressed by (master_seed, stream_id)."""
    return RandomStream(master_seed=master_seed, stream_id=stream_id)
