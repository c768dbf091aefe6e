"""Vectorized batch engines behind the survival estimators.

Replicates are processed in fixed-size batches; batch ``j`` of a run draws
all of its randomness from the counter-based stream ``(seed, base + j)``,
so results are reproducible bit-for-bit for a given ``(seed, n_reps)`` no
matter how batches are scheduled.  Aggregation happens in
:func:`haldane.numerics.combine_batch_stats`, which is order-insensitive.

Three generating-function routes exist:

* a scalar fixed-point iteration when the environment is degenerate
  (every path is identical, so one iteration settles all replicates);
* for linear-fractional families, the reciprocal-survival identity as an
  annuity sum, one running sum and one discount per lane, with the
  stopping rule tested every ``_CHECK_EVERY`` generations;
* for every other family under either noise kind, a block-doubling
  backward replay over a stored environment matrix (packed stream bits
  under two-point noise, one float64 law parameter per lane and
  generation under uniform noise) at geometrically spaced checkpoint
  horizons, one family evaluation per lane-generation.

``gf_scalar_path`` replays one path law by law in pure Python; it is the
per-path oracle of the tests, not an estimator route.

The benchmark's tracer (``perfbench/tracing.py``) wraps these kernels by
name and reads their arguments by position, so renaming one or changing
its call shape needs the tracer changed with it.
"""

from __future__ import annotations

import math

import numpy as np

from .environment import TWO_POINT, EnvironmentModel
from .numerics import rng_stream
from .offspring import OffspringLaw

BATCH_SIZE = 16384

# Conditional survival below this is indistinguishable from certain
# extinction: the future increase of the extinction probability is bounded
# by the remaining survival mass, so stopping here is exact to 1e-15.
EXTINCTION_FLOOR = 1e-15

# The annuity-sum loops test their stopping rules every this many
# generations (and at their horizon cap): between checks a generation is
# one draw and two array updates.
_CHECK_EVERY = 8

# Storage guard for the replay engine's environment matrix (bytes per
# batch): 1/8 byte per lane-generation packed, 8 bytes as float64.  The
# matrix counts twice: growing it copies it, and so do replaying a subset of
# its rows and retiring lanes.
_MAX_BITS_BYTES = 1 << 29


class HorizonStorageError(RuntimeError):
    """Raised when the replay engine's environment matrix would exceed its
    storage budget."""


# ---------------------------------------------------------------------------
# Deterministic environment: one path decides every replicate
# ---------------------------------------------------------------------------

def gf_deterministic(law: OffspringLaw, tol_q: float, tol_mu: float, n_max: int):
    """Iterate the one-step survival map of a fixed law.

    Returns (survival, flagged, n_steps): the conditional survival at the
    adaptive horizon, whether the horizon was exhausted, and the number of
    generations composed.
    """
    log_m = math.log(law.mean())
    log_tol_mu = math.log(tol_mu)
    r = 1.0
    flagged = True
    n = 0
    for n in range(1, n_max + 1):
        r_new = law.survival_map(r)
        inc = r - r_new
        r = r_new
        if r < EXTINCTION_FLOOR:
            flagged = False
            break
        if inc < tol_q and n * log_m > -log_tol_mu:
            flagged = False
            break
    return r, flagged, n


# ---------------------------------------------------------------------------
# Linear-fractional families: the survival identity as an annuity sum
# ---------------------------------------------------------------------------

def gf_lf_batch(
    model: EnvironmentModel,
    n_lanes: int,
    seed: int,
    stream_id: int,
    tol_q: float,
    tol_mu: float,
    n_max: int,
):
    """Survival per replicate for a linear-fractional family batch.

    A linear-fractional law of mean m has the constant shape function
    psi = 1/(1-p0) - 1/m, so the reciprocal-survival identity
        1/r_n = 1/mu_n + sum_{k<n} psi_{k+1}/mu_k
              = 1/mu_n + S_n/(1-p0) - (S_n - 1 + 1/mu_n) = 1 + kappa*S_n
    with S_n = sum_{k<n} 1/mu_k and kappa = p0/(1-p0).  Each lane carries
    the running sum S and the discount C = 1/mu, and needs no path storage.

    The stopping rule (r_n below the extinction floor, or the one-step
    increment r_{n-1} - r_n below tol_q once C < tol_mu) is evaluated only
    at every ``_CHECK_EVERY``-th generation and at ``n_max``, so a lane runs
    at most ``_CHECK_EVERY - 1`` generations past its first eligible stop;
    the extra generations only shrink the truncation error.

    Returns (survival values, flagged mask) as arrays of length n_lanes.
    """
    stream = rng_stream(seed, stream_id)
    p0 = model.family.p0
    kappa = p0 / (1.0 - p0)

    total = np.zeros(n_lanes)     # S_n
    discount = np.ones(n_lanes)   # 1/mu_n
    idx = np.arange(n_lanes)

    values = np.zeros(n_lanes)
    flagged = np.zeros(n_lanes, dtype=bool)

    for n in range(1, n_max + 1):
        m = model.sample_means(stream, size=idx.size)
        check = n % _CHECK_EVERY == 0 or n == n_max
        if check:
            prev_r = 1.0 / (1.0 + kappa * total)
        total += discount
        discount /= m
        if not check:
            continue
        r = 1.0 / (1.0 + kappa * total)
        done = (r < EXTINCTION_FLOOR) | ((prev_r - r < tol_q) & (discount < tol_mu))
        if n == n_max:
            values[idx] = r
            flagged[idx] = ~done
            break
        if np.any(done):
            values[idx[done]] = r[done]
            keep = ~done
            total, discount, idx = total[keep], discount[keep], idx[keep]
            if idx.size == 0:
                break
    return values, flagged


# ---------------------------------------------------------------------------
# Generic families: backward replay over a stored environment matrix
# ---------------------------------------------------------------------------

# Generations per transposed block of the replay (a multiple of 8, so a
# block of packed bits starts on a byte).
_REPLAY_BLOCK = 32

# Set bits of each byte value.
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1, dtype=np.uint8)


def _survival_backward_pair(family, table, env: np.ndarray, n: int):
    """Conditional survival of horizons n and n-1 over a stored environment.

    ``env`` has one row per lane.  Under two-point noise it holds the
    stream bits packed 8 generations per byte (bit ``k % 8`` of byte
    ``k // 8``, little-endian) and ``table[:, b]`` holds the survival-step
    coefficients of the law that bit b selects; under uniform noise
    ``table`` is None and ``env[:, k]`` holds the law parameter of
    generation k+1.  Returns (u, v) with u the survival for the length-n
    path and v for the same path truncated after n-1 generations; u <= v
    lane-wise.  Both are advanced by one family evaluation per generation.
    """
    uv = np.ones((2, env.shape[0]))
    for start in range((n - 1) // _REPLAY_BLOCK * _REPLAY_BLOCK, -1, -_REPLAY_BLOCK):
        stop = min(start + _REPLAY_BLOCK, n)
        if table is None:
            coefs = family.step_coefficients(np.ascontiguousarray(env[:, start:stop].T))
        else:
            block = env[:, start // 8:(stop + 7) // 8].T
            coefs = table[:, np.unpackbits(block, axis=0, count=stop - start, bitorder="little")]
        for g in range(stop - start - 1, -1, -1):
            if start + g == n - 1:
                uv[0] = family.survival_step(coefs[:, g], uv[0])
            else:
                uv = family.survival_step(coefs[:, g], uv)
    return uv[0], uv[1]


def _draw_environment(model: EnvironmentModel, stream, env: np.ndarray, log_mu: np.ndarray,
                      n: int, target: int, log_support) -> None:
    """Draw generations n+1..target of every row of ``env`` into it and
    add their log means to ``log_mu``.

    Under two-point noise (``log_support`` holds the two log support
    means) ``env`` takes the stream bits packed 8 to a byte, otherwise
    (``log_support`` is None) one law parameter per generation.

    When ``n`` and ``width`` are multiples of 8 (every checkpoint but an
    unaligned ``n_max``), a row's bits are whole bytes of the stream, so
    the stream's packed bytes go into ``env`` as drawn and a popcount
    table counts the high means; otherwise the bits are unpacked and
    repacked row by row.

    Rows are drawn in chunks of a multiple of 32 rows whose draws take at
    most 1/32 of the storage budget, so the chunk's temporaries fit in the
    half of the budget that the guard keeps for a copy of the matrix.  A
    chunk of bits then ends on a 32-bit word of the stream, so the chunks
    read the stream exactly as one block would.
    """
    width = target - n
    # a draw takes a byte unpacked, as a mean takes 8 (packed draws take 1/8)
    rows = max(32, (_MAX_BITS_BYTES >> 5) // (width * env.itemsize) // 32 * 32)
    for lo in range(0, env.shape[0], rows):
        chunk = slice(lo, min(lo + rows, env.shape[0]))
        count = chunk.stop - lo
        if log_support is not None:
            log_lo, log_hi = log_support
            if n % 8 == 0 and width % 8 == 0:
                packed = stream.packed_bits(count * width)[:count * width // 8].reshape(count, -1)
                n_hi = _POPCOUNT.take(packed).sum(axis=1, dtype=np.int64)
            else:
                fresh = stream.bits((count, width))
                n_hi = np.count_nonzero(fresh, axis=1)
                packed = np.packbits(fresh, axis=1, bitorder="little")
            log_mu[chunk] += n_hi * log_hi + (width - n_hi) * log_lo
            env[chunk, n // 8:(target + 7) // 8] = packed
        else:
            means = model.sample_means(stream, size=count * width).reshape(count, width)
            log_mu[chunk] += np.log(means).sum(axis=1)
            env[chunk, n:target] = model.family.law_params(means)


def gf_replay_batch(
    model: EnvironmentModel,
    n_lanes: int,
    seed: int,
    stream_id: int,
    tol_q: float,
    tol_mu: float,
    n_max: int,
):
    """Survival per replicate for a batch of a generic family, either noise.

    The environment of each lane is stored as it is drawn: under two-point
    noise one stream bit per generation, packed 8 to a byte; under uniform
    noise one float64 law parameter per generation (``family.law_params``
    of the drawn mean), drawn in row chunks at each checkpoint.  At
    checkpoint horizons (powers of two times 256, capped at ``n_max``) the
    backward survival recursion is replayed over the stored matrix for
    lanes whose mean-growth condition is satisfied, and converged lanes are
    retired.  Total backward work is at most about
    twice the forward work thanks to the doubling schedule.
    """
    family = model.family
    packed = model.noise == TWO_POINT
    log_tol_mu = -math.log(tol_mu)
    log_floor = math.log(EXTINCTION_FLOOR)
    if packed:
        m_lo, m_hi = model.support_means()
        log_support = (math.log(m_lo), math.log(m_hi))
        table = family.step_coefficients(family.law_params([m_lo, m_hi]))
    else:
        log_support = table = None

    stream = rng_stream(seed, stream_id)
    values = np.zeros(n_lanes)
    flagged = np.zeros(n_lanes, dtype=bool)

    idx = np.arange(n_lanes)
    log_mu = np.zeros(n_lanes)
    env = np.zeros((n_lanes, 0), dtype=np.uint8 if packed else np.float64)
    n = 0

    checkpoint = 256
    while True:
        target = min(checkpoint, n_max)
        cols = (target + 7) // 8 if packed else target
        if cols > env.shape[1]:
            nbytes = 2 * idx.size * cols * env.itemsize
            if nbytes > _MAX_BITS_BYTES:
                raise HorizonStorageError(
                    f"environment storage for {idx.size} live lanes to horizon {target} "
                    f"needs {nbytes} bytes (the matrix and a copy), over the budget of "
                    f"{_MAX_BITS_BYTES}; lower n_max or the replicates per batch, or use a "
                    "linear-fractional family for deep subcritical horizons"
                )
            grown = np.zeros((idx.size, cols), dtype=env.dtype)
            grown[:, :env.shape[1]] = env
            env = grown

        _draw_environment(model, stream, env, log_mu, n, target, log_support)
        n = target

        # certain-extinction proxy: survival <= conditional mean population
        extinct = log_mu < log_floor
        mu_ok = log_mu > log_tol_mu
        check = ~extinct & (mu_ok | (n >= n_max))
        done = extinct.copy()
        if np.any(check):
            # the copy of the checked rows is freed before retiring copies env
            u, v = _survival_backward_pair(family, table, env if check.all() else env[check], n)
            converged = (u < EXTINCTION_FLOOR) | (mu_ok[check] & (v - u < tol_q))
            rows = np.flatnonzero(check)
            values[idx[rows]] = u
            if n >= n_max:
                flagged[idx[rows]] = ~converged
                done[rows] = True
            else:
                done[rows] = converged
        if n >= n_max or np.all(done):
            return values, flagged
        if np.any(done):
            keep = ~done
            idx, log_mu, env = idx[keep], log_mu[keep], env[keep]
        checkpoint *= 2


# The benchmark tracer wraps the engine under this name.
gf_two_point_batch = gf_replay_batch


# ---------------------------------------------------------------------------
# Per-path oracle (tests only; no estimator calls it)
# ---------------------------------------------------------------------------

def gf_scalar_path(model: EnvironmentModel, stream, tol_q: float, tol_mu: float, n_max: int):
    """One replicate by law-by-law replay in pure Python, any noise kind.

    The stopping rules are those of :func:`gf_replay_batch`; the laws come
    from ``model.law_for_mean``, one per drawn mean.
    """
    log_tol_mu = -math.log(tol_mu)
    means: list[float] = []
    laws: list[OffspringLaw] = []
    log_mu = 0.0
    n = 0
    checkpoint = 256
    while True:
        target = min(checkpoint, n_max)
        fresh = model.sample_means(stream, size=target - n)
        for m in fresh:
            means.append(float(m))
            laws.append(model.law_for_mean(float(m)))
            log_mu += math.log(float(m))
        n = target
        if log_mu < math.log(EXTINCTION_FLOOR):
            return 0.0, False, n
        if log_mu > log_tol_mu or n >= n_max:
            u = 1.0
            v = 1.0
            for k in range(n - 1, -1, -1):
                u = laws[k].survival_map(u)
                if k < n - 1:
                    v = laws[k].survival_map(v)
            inc = v - u
            if u < EXTINCTION_FLOOR or (log_mu > log_tol_mu and inc < tol_q):
                return u, False, n
            if n >= n_max:
                return u, True, n
        checkpoint *= 2


# ---------------------------------------------------------------------------
# Population simulation by family-exact thinning
# ---------------------------------------------------------------------------

def _offspring_sum_poisson(gen, m, z):
    # sum of z iid Poisson(m) draws is Poisson(m*z)
    return gen.poisson(m * z)


def _offspring_sum_lf(gen, p0, p, z):
    # nonzero-children count is binomial; each contributes 1 + geometric
    n_pos = gen.binomial(z.astype(np.int64), 1.0 - p0)
    total = n_pos.astype(np.int64).copy()
    has = n_pos > 0
    if np.any(has):
        total[has] += gen.negative_binomial(n_pos[has], 1.0 - p[has])
    return total


def _offspring_sum_finite(gen, weights, z):
    """Sum of z iid draws from per-lane finite pmfs.

    ``weights`` has one row per lane; the multinomial split is realized as
    a chain of conditional binomials from the top of the support down.
    """
    rows, k_plus_1 = weights.shape
    remaining = z.astype(np.int64).copy()
    cum = np.cumsum(weights, axis=1)  # cum[:, v] = mass of {0, ..., v}
    total = np.zeros(rows, dtype=np.int64)
    for value in range(k_plus_1 - 1, 0, -1):
        mass = cum[:, value]
        frac = np.zeros(rows)
        np.divide(weights[:, value], mass, out=frac, where=mass > 1e-300)
        count = gen.binomial(remaining, np.clip(frac, 0.0, 1.0))
        total += value * count
        remaining -= count
    return total


def population_batch(
    model: EnvironmentModel,
    n_lanes: int,
    seed: int,
    stream_id: int,
    cap: int,
    max_individuals: int,
):
    """Simulate one batch of populations until extinction or the cap.

    Each generation draws one law mean per live lane from ``model`` (a
    constant environment is a model with ``nu = 0``).  Returns (survived,
    overrun) boolean arrays.  Lanes whose cumulative simulated individuals
    exceed ``max_individuals`` while undecided are counted as survived and
    flagged as overruns.
    """
    stream = rng_stream(seed, stream_id)
    gen = stream.generator
    family = model.family

    survived = np.zeros(n_lanes, dtype=bool)
    overrun = np.zeros(n_lanes, dtype=bool)
    idx = np.arange(n_lanes)
    z = np.ones(n_lanes, dtype=np.int64)
    work = np.zeros(n_lanes, dtype=np.int64)

    two_point_weights = None
    if family.name == "finite" and model.noise == TWO_POINT and model.nu > 0.0:
        m_lo, m_hi = model.support_means()
        two_point_weights = (
            np.asarray(model.law_for_mean(m_lo).weights),
            np.asarray(model.law_for_mean(m_hi).weights),
        )

    while idx.size:
        m = model.sample_means(stream, size=idx.size)
        if family.name == "poisson":
            z = _offspring_sum_poisson(gen, m, z)
        elif family.name == "linear_fractional":
            z = _offspring_sum_lf(gen, family.p0, 1.0 - (1.0 - family.p0) / m, z)
        else:
            if two_point_weights is not None:
                lo_w, hi_w = two_point_weights
                hi_mask = m > (1.0 + model.epsilon)
                weights = np.where(hi_mask[:, None], hi_w[None, :], lo_w[None, :])
            else:
                weights = family.tilted_weights(family.law_params(m))
            z = _offspring_sum_finite(gen, weights, z)

        work = work + z
        hit_cap = z >= cap
        extinct = z == 0
        blown = (work > max_individuals) & ~hit_cap & ~extinct
        done = hit_cap | extinct | blown
        if np.any(done):
            survived[idx[done]] = (hit_cap | blown)[done]
            overrun[idx[done]] = blown[done]
            keep = ~done
            idx, z, work = idx[keep], z[keep], work[keep]
    return survived, overrun
