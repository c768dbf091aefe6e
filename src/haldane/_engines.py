"""Vectorized batch engines behind the survival estimators.

Replicates are processed in fixed-size batches; batch ``j`` of a run draws
all of its randomness from the counter-based stream ``(seed, base + j)``,
so results are reproducible bit-for-bit for a given ``(seed, n_reps)`` no
matter how batches are scheduled.  Aggregation happens in
:func:`haldane.numerics.combine_batch_stats`, which is order-insensitive.

Four generating-function routes exist:

* a scalar fixed-point iteration when the environment is degenerate
  (every path is identical, so one iteration settles all replicates);
* for linear-fractional families, the reciprocal-survival identity as an
  annuity sum, one running sum and one discount per lane, with the
  stopping rule tested every ``_CHECK_EVERY`` generations;
* a block-doubling backward recursion for other families under two-point
  noise, replaying stored environment bits (one stream bit per lane and
  generation) at geometrically spaced checkpoint horizons;
* a per-replicate Python fallback for the remaining (small-scale)
  combinations.

The benchmark's tracer (``perfbench/tracing.py``) wraps these kernels by
name and reads their arguments by position, so renaming one or changing
its call shape needs the tracer changed with it.
"""

from __future__ import annotations

import math

import numpy as np

from .environment import TWO_POINT, EnvironmentModel
from .numerics import rng_stream
from .offspring import FinitePmf, LinearFractional, OffspringLaw, Poisson

BATCH_SIZE = 16384

# Conditional survival below this is indistinguishable from certain
# extinction: the future increase of the extinction probability is bounded
# by the remaining survival mass, so stopping here is exact to 1e-15.
EXTINCTION_FLOOR = 1e-15

# The annuity-sum loops test their stopping rules every this many
# generations (and at their horizon cap): between checks a generation is
# one draw and two array updates.
_CHECK_EVERY = 8

# Storage guard for the bit-replay engine (bytes per batch).
_MAX_BITS_BYTES = 1 << 29


class HorizonStorageError(RuntimeError):
    """Raised when the bit-replay engine would exceed its storage budget."""


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
# Generic families under two-point noise: bit replay with doubling horizons
# ---------------------------------------------------------------------------

def _survival_backward_pair(law_lo, law_hi, bits: np.ndarray, n: int):
    """Conditional survival of horizons n and n-1 over stored noise bits.

    ``bits[:, k]`` selects the law of generation k+1.  Returns (u, v) with
    u the survival for the length-n path and v for the same path truncated
    after n-1 generations; u <= v lane-wise.
    """
    rows = bits.shape[0]
    u = np.ones(rows)
    v = np.ones(rows)
    for k in range(n - 1, -1, -1):
        col = bits[:, k]
        u_lo = law_lo.survival_map(u)
        u_hi = law_hi.survival_map(u)
        u = np.where(col, u_hi, u_lo)
        if k < n - 1:
            v_lo = law_lo.survival_map(v)
            v_hi = law_hi.survival_map(v)
            v = np.where(col, v_hi, v_lo)
    return u, v


def gf_two_point_batch(
    model: EnvironmentModel,
    n_lanes: int,
    seed: int,
    stream_id: int,
    tol_q: float,
    tol_mu: float,
    n_max: int,
):
    """Survival per replicate for a two-point-noise batch of a generic family.

    The environment of each lane is recorded as one bit per generation;
    at checkpoint horizons (powers of two times 256, capped at ``n_max``)
    the backward survival recursion is replayed over the stored bits for
    lanes whose mean-growth condition is satisfied, and converged lanes
    are retired.  Total backward work is at most about twice the forward
    work thanks to the doubling schedule.
    """
    m_lo, m_hi = model.support_means()
    law_lo = model.law_for_mean(m_lo)
    law_hi = model.law_for_mean(m_hi)
    log_lo, log_hi = math.log(m_lo), math.log(m_hi)
    log_tol_mu = -math.log(tol_mu)
    log_floor = math.log(EXTINCTION_FLOOR)

    stream = rng_stream(seed, stream_id)
    values = np.zeros(n_lanes)
    flagged = np.zeros(n_lanes, dtype=bool)

    idx = np.arange(n_lanes)
    log_mu = np.zeros(n_lanes)
    cap = 256
    bits = np.zeros((n_lanes, cap), dtype=bool)
    n = 0

    checkpoint = 256
    while True:
        target = min(checkpoint, n_max)
        if target > cap:
            new_cap = cap
            while new_cap < target:
                new_cap *= 2
            if idx.size * new_cap > _MAX_BITS_BYTES:
                raise HorizonStorageError(
                    "environment storage budget exceeded; lower n_max or use a "
                    "linear-fractional family for deep subcritical horizons"
                )
            grown = np.zeros((idx.size, new_cap), dtype=bool)
            grown[:, :cap] = bits
            bits, cap = grown, new_cap

        width = target - n
        fresh = stream.bits((idx.size, width))
        bits[:, n:target] = fresh
        n_hi = np.count_nonzero(fresh, axis=1)
        log_mu += n_hi * log_hi + (width - n_hi) * log_lo
        n = target

        # certain-extinction proxy: survival <= conditional mean population
        extinct = log_mu < log_floor
        mu_ok = log_mu > log_tol_mu
        check = extinct | mu_ok | (n >= n_max)
        if np.any(check):
            u, v = _survival_backward_pair(law_lo, law_hi, bits[check], n)
            inc = v - u
            done_local = extinct[check] | (u < EXTINCTION_FLOOR) | (mu_ok[check] & (inc < tol_q))
            if n >= n_max:
                flag_local = ~done_local
                done_local = np.ones_like(done_local)
            else:
                flag_local = np.zeros_like(done_local)
            check_rows = np.flatnonzero(check)
            done_rows = check_rows[done_local]
            values[idx[done_rows]] = np.where(extinct[done_rows], 0.0, u[done_local])
            flagged[idx[done_rows]] = flag_local[done_local]
            keep = np.ones(idx.size, dtype=bool)
            keep[done_rows] = False
            if not np.all(keep):
                idx = idx[keep]
                log_mu = log_mu[keep]
                bits = bits[keep]
                if idx.size == 0:
                    return values, flagged
        if n >= n_max:
            values[idx] = 0.0  # unreachable: n_max retires every lane above
            flagged[idx] = True
            return values, flagged
        checkpoint *= 2


# ---------------------------------------------------------------------------
# Per-replicate fallback (uniform noise with a generic family)
# ---------------------------------------------------------------------------

def gf_scalar_path(model: EnvironmentModel, stream, tol_q: float, tol_mu: float, n_max: int):
    """One replicate by stored-path replay, any noise kind, pure Python."""
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
        p_has = p[has] if np.ndim(p) else np.full(int(np.count_nonzero(has)), p)
        total[has] += gen.negative_binomial(n_pos[has], 1.0 - p_has)
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
    model,
    fixed_law,
    n_lanes: int,
    seed: int,
    stream_id: int,
    cap: int,
    max_individuals: int,
):
    """Simulate one batch of populations until extinction or the cap.

    Exactly one of ``model`` / ``fixed_law`` is set; a fixed law acts as a
    degenerate environment.  Returns (survived, overrun) boolean arrays.
    Lanes whose cumulative simulated individuals exceed ``max_individuals``
    while undecided are counted as survived and flagged as overruns.
    """
    stream = rng_stream(seed, stream_id)
    gen = stream.generator

    if fixed_law is not None:
        kind, law = _law_kind(fixed_law)
    else:
        family = model.family
        kind = family.name
        law = None

    survived = np.zeros(n_lanes, dtype=bool)
    overrun = np.zeros(n_lanes, dtype=bool)
    idx = np.arange(n_lanes)
    z = np.ones(n_lanes, dtype=np.int64)
    work = np.zeros(n_lanes, dtype=np.int64)

    two_point_weights = None
    if fixed_law is None and kind == "finite" and model.noise == TWO_POINT and model.nu > 0.0:
        m_lo, m_hi = model.support_means()
        two_point_weights = (
            np.asarray(model.law_for_mean(m_lo).weights),
            np.asarray(model.law_for_mean(m_hi).weights),
        )

    while idx.size:
        rows = idx.size
        if fixed_law is not None:
            m = None
        else:
            m = model.sample_means(stream, size=rows)

        if kind == "poisson":
            lam = law.lam if fixed_law is not None else m
            z = _offspring_sum_poisson(gen, lam, z)
        elif kind == "linear_fractional":
            if fixed_law is not None:
                p0, p = law.p0, law.p
            else:
                p0 = model.family.p0
                p = 1.0 - (1.0 - p0) / m
            z = _offspring_sum_lf(gen, p0, p, z)
        else:
            if fixed_law is not None:
                weights = np.broadcast_to(np.asarray(law.weights), (rows, len(law.weights)))
            elif two_point_weights is not None:
                lo_w, hi_w = two_point_weights
                hi_mask = m > (1.0 + model.epsilon)
                weights = np.where(hi_mask[:, None], hi_w[None, :], lo_w[None, :])
            else:
                weights = np.stack([np.asarray(model.law_for_mean(float(v)).weights) for v in m])
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


def _law_kind(law: OffspringLaw):
    if isinstance(law, Poisson):
        return "poisson", law
    if isinstance(law, LinearFractional):
        return "linear_fractional", law
    if isinstance(law, FinitePmf):
        return "finite", law
    raise TypeError(f"unsupported offspring law {law!r}")
