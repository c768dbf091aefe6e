"""Vectorized batch engines behind the survival estimators.

Replicates are processed in fixed-size batches; batch ``j`` of a run draws
all of its randomness from the counter-based stream ``(seed, base + j)``,
so results are reproducible bit-for-bit for a given ``(seed, n_reps)`` no
matter how batches are scheduled.  Aggregation happens in
:func:`haldane.numerics.combine_batch_stats`, which is order-insensitive.

Two generating-function routes exist, one per family kind (a degenerate
environment runs one lane of its family's route):

* for linear-fractional families, the reciprocal-survival identity as an
  annuity sum (:func:`gf_lf_batch`) in :func:`annuity_batch`, the kernel
  that the perpetuity series sampler shares.  It advances every live lane
  by one check interval, which its caller sets (``_LF_CHECK_EVERY`` = 8
  generations for LF, 64 terms for the series), then tests the stopping
  rule (LF forms its increment only below ``tol_mu``).  Under two-point
  noise an advance is a handful of numpy calls per 8 generations at any
  width (a raw read of 64-bit stream outputs whose byte i is lane i's, a
  cast to intp, two or three :func:`annuity_byte_tables` lookups),
  otherwise one draw and step per generation;
* for every other family under either noise kind, a block-doubling
  backward replay over an append-only environment log (:class:`_EnvLog`:
  packed stream bits under two-point noise, one law parameter per
  lane-generation under uniform noise: a rate, or a tilt, in closed form
  on {0, 1, 2}) at doubling checkpoints, in blocks of 32
  (:func:`_survival_backward_pair`); Poisson replays horizon n alone, and
  n-1 too only where a concavity bound on the increment leaves the
  stopping rule undecided.

``gf_scalar_path`` replays one path law by law in pure Python; it is the
per-path oracle of the tests, not an estimator route.

The benchmark's tracer (``perfbench/tracing.py``) wraps these kernels by
name and reads their arguments by position, so renaming one or changing
its call shape needs the tracer changed with it.  It counts the LF
kernel's lane-generations from the ``size`` (third positional argument)
of its ``sample_means`` calls, and the series' terms from that of its
``sample_pairs`` calls, so the lane-byte draws stay calls of those
methods (with ``packed=True``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .environment import TWO_POINT, EnvironmentModel
from .numerics import BYTE_BITS, rng_stream, two_point_octets
from .offspring import OffspringLaw

BATCH_SIZE = 16384

# Conditional survival below this is indistinguishable from certain
# extinction: the future increase of the extinction probability is bounded
# by the remaining survival mass, so stopping here is exact to 1e-15.
EXTINCTION_FLOOR = 1e-15

# Generations per check interval of the LF kernel (fewer at its horizon
# cap).  Its tol_mu rule at rho > 2 depends on when it is tested, so the
# interval stays short (ROADMAP item 2).
_LF_CHECK_EVERY = 8


# Storage guard for the replay engine's environment log (bytes per batch):
# 1/8 byte per lane-generation packed, 8 bytes as float64.  A checkpoint
# holds the log, its new segment and the largest transient of its step at
# once: a chunk of draws, or the copy that compacts a segment.
_MAX_BITS_BYTES = 1 << 29


class HorizonStorageError(RuntimeError):
    """Raised when the replay engine's environment log would exceed its
    storage budget."""


# ---------------------------------------------------------------------------
# Annuity sums: the LF survival kernel and the perpetuity series
# ---------------------------------------------------------------------------

def annuity_batch(n_lanes: int, n_max: int, every: int, advance, stop):
    """Run ``n_lanes`` annuity sums ``acc = sum_k c_k a_{k+1}``, each lane
    to its own stopping generation or to ``n_max``.

    Each lane carries the running sum ``acc`` (from 0) and the discount
    ``c`` (from 1).  Once per check interval, ``advance(acc, c, rows)``
    draws the interval's ``rows`` generations (``every``, or those left
    to ``n_max``) for the live lanes and returns ``(acc, c, prev)``: the
    advanced arrays (in place or new) and ``prev``, which maps an index
    array of lanes to their sums one generation before the last (None if
    ``stop`` does not read them).  ``stop(acc, c, prev)`` then returns the
    done mask of the live lanes, so a lane runs at most ``every - 1``
    generations past its first eligible stop.  Done lanes retire with
    their sum; lanes still live at ``n_max`` keep theirs and are flagged.
    A longer interval pays the fixed cost of a check (the draw call,
    ``stop``, the retirement) less often, and fits a rule that a later
    check only tightens, such as the series' tail bound.

    Returns (values, flagged mask) as arrays of length n_lanes.
    """
    if n_max < 1:
        raise ValueError(f"need a horizon of at least 1 generation, got {n_max}")
    acc = np.zeros(n_lanes)
    c = np.ones(n_lanes)
    idx = np.arange(n_lanes)
    values = np.zeros(n_lanes)
    flagged = np.zeros(n_lanes, dtype=bool)

    n = 0
    while idx.size and n < n_max:
        rows = min(every, n_max - n)
        acc, c, prev = advance(acc, c, rows)
        n += rows
        done = stop(acc, c, prev)
        if n == n_max:
            values[idx] = acc
            flagged[idx] = ~done
        elif done.any():
            values[idx[done]] = acc[done]
            keep = ~done
            acc, c, idx = acc[keep], c[keep], idx[keep]
    return values, flagged


@functools.lru_cache(maxsize=64)
def annuity_byte_tables(a_clear: float, b_clear: float, a_set: float, b_set: float, divide: bool = False):
    """Read-only (9, 256) tables ``(sums, products)`` of the annuity over
    the generations that a lane byte encodes: bit j of byte b selects the
    pair (A, B) of generation j, ``(a_set, b_set)`` where it is set and
    ``(a_clear, b_clear)`` where it is clear.  Row w holds, for every b,
    the partial sum ``sum_{j<w} B_0...B_{j-1} A_j`` and the product
    ``B_0...B_{w-1}`` of its first w generations (later bits do not
    enter), accumulated generation by generation: an advance of w
    generations adds ``c * sums[w][b]`` to the sum and multiplies the
    discount by ``products[w][b]``, and ``sums[w - 1]`` gives the sum one
    generation earlier.  With ``divide`` the products divide by the given
    values, as the LF float path does (``C /= m``): multiplying by a
    rounded 1/m would bias every generation alike, about 7e-13 relative
    after 3,500 generations at rho = 3.  Cached per coefficient pair, so a
    model or spec builds its tables once."""
    bits = BYTE_BITS.view(bool)
    sums, products = np.zeros((9, 256)), np.ones((9, 256))
    for j in range(8):
        a, b = np.where(bits[:, j], a_set, a_clear), np.where(bits[:, j], b_set, b_clear)
        sums[j + 1] = sums[j] + products[j] * a
        products[j + 1] = products[j] / b if divide else products[j] * b
    sums.flags.writeable = products.flags.writeable = False
    return sums, products


def byte_step(tables, draw, scratch: np.ndarray, with_prev: bool):
    """An :func:`annuity_batch` advance over lane bytes, through the
    :func:`annuity_byte_tables` pair ``tables``.  ``with_prev`` (LF, at
    most 8 generations per interval) ``draw(rows, lanes)`` returns one
    intp byte per live lane whose bit j selects the pair of generation j;
    the advance writes new arrays, whose ``prev`` looks the sums one
    generation before the last up from the interval's starting arrays on
    the lanes asked for.  Otherwise (the series, any ``rows``) it returns
    ``ceil(rows / 8)`` uint8 rows of lane bytes, row r's bit j selecting
    the pair of generation 8 r + j, and the advance works in place,
    casting one row at a time to intp into a buffer kept for the whole
    run.  Either way a row of 8 generations costs two table lookups per
    lane.  ``scratch`` holds a float64 per lane."""
    sums, products = tables
    index = None if with_prev else np.empty(scratch.size, dtype=np.intp)

    def advance(acc, c, rows):
        block = draw(rows, c.size)
        term = scratch[:c.size]
        # byte indices never clip; "clip" lets take write into out unbuffered
        if with_prev:
            sums[rows].take(block, out=term, mode="clip")
            term *= c
            acc_new = acc + term
            products[rows].take(block, out=term, mode="clip")
            return acc_new, c * term, lambda lanes: c[lanes] * sums[rows - 1][block[lanes]] + acc[lanes]
        lane = index[:c.size]
        for r, row in enumerate(block):
            w = min(8, rows - 8 * r)
            np.copyto(lane, row)
            sums[w].take(lane, out=term, mode="clip")
            term *= c
            acc += term
            products[w].take(lane, out=term, mode="clip")
            c *= term
        return acc, c, None

    return advance


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
    with S_n = sum_{k<n} 1/mu_k and kappa = p0/(1-p0): an annuity with
    A = 1 and B = 1/m, run by :func:`annuity_batch`.  A lane stops when
    r_n is below the extinction floor, tested as S_n >= the exact
    threshold of :func:`_floor_threshold`, or once C = 1/mu_n < tol_mu
    when the one-step increment r_{n-1} - r_n (formed on those lanes
    only) is below tol_q; r_n is formed once, from the final sums.

    Under two-point noise with nu > 0 each check interval is one
    ``sample_means`` draw of lane bytes, and a lane advances by the
    whole interval through :func:`annuity_byte_tables` (``S_prev = S +
    C*T_prev[b]``, ``S += C*T_sum[b]``, ``C *= T_prod[b]``); otherwise
    each generation is one ``sample_means`` draw (none at nu = 0: every
    generation divides by the one mean 1 + eps), stepped as ``S += C;
    C /= m``.  A lane-byte draw reads ``ceil(lanes / 8)`` 64-bit stream
    outputs per interval, byte i for lane i, where a generation's draw
    reads a stream bit per lane; the byte path rounds once per interval.

    Returns (survival values, flagged mask) as arrays of length n_lanes.
    """
    stream = rng_stream(seed, stream_id)
    p0 = model.family.p0
    kappa = p0 / (1.0 - p0)
    s_floor = _floor_threshold(kappa)

    survival = lambda total: 1.0 / (1.0 + kappa * total)

    def stop(total, discount, prev):
        done = total >= s_floor
        near = np.flatnonzero(discount < tol_mu)
        if near.size:
            done[near] |= survival(prev(near)) - survival(total[near]) < tol_q
        return done

    if model.noise == TWO_POINT and model.nu > 0.0:
        m_lo, m_hi = model.mean_bounds()
        tables = annuity_byte_tables(1.0, m_lo, 1.0, m_hi, divide=True)

        def draw(rows, lanes):
            return model.sample_means(stream, rows * lanes, rows, packed=True)

        advance = byte_step(tables, draw, np.empty(n_lanes), with_prev=True)
        values, flags = annuity_batch(n_lanes, n_max, _LF_CHECK_EVERY, advance, stop)
        return survival(values), flags

    mean = 1.0 + model.epsilon if model.nu == 0.0 else None

    def advance(total, discount, rows):
        for j in range(rows):
            if j == rows - 1:
                prev = total.copy()
            total += discount
            discount /= model.sample_means(stream, discount.size) if mean is None else mean
        return total, discount, prev.__getitem__

    values, flags = annuity_batch(n_lanes, n_max, _LF_CHECK_EVERY, advance, stop)
    return survival(values), flags


@functools.lru_cache(maxsize=16)
def _floor_threshold(kappa: float) -> float:
    """The smallest double S with 1/(1 + kappa*S) < EXTINCTION_FLOOR, by
    bisection over the bit patterns of the doubles in [0, inf], which
    order as the doubles do; the rounded map is nonincreasing in S, so
    the floor test on r is exactly S >= this (inf where kappa = 0)."""
    double = lambda bits: np.array(bits, dtype=np.int64).view(np.float64).item()
    lo, hi = 0, 0x7FF0000000000000
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if 1.0 / (1.0 + kappa * double(mid)) < EXTINCTION_FLOOR else (mid, hi)
    return double(hi)


# ---------------------------------------------------------------------------
# Generic families: backward replay over an append-only environment log
# ---------------------------------------------------------------------------

# Generations per transposed block of the replay (a multiple of 8, so a
# block of packed bits starts on a byte).
_REPLAY_BLOCK = 32

# Set bits of each byte value.
_POPCOUNT = BYTE_BITS.sum(axis=1, dtype=np.uint8)


class _EnvLog:
    """The stored environment of ``lanes`` lanes: one (first generation, end
    generation, data, row of each lane) per checkpoint in ``segments``, row
    ``rows[i]`` of ``data`` holding lane i's generations first+1..end from
    column 0.  Checkpoints start on multiples of ``_REPLAY_BLOCK``, so no
    replay block spans two segments.  The tracer reads ``shape``."""

    def __init__(self, segments, lanes: int):
        self.segments, self.shape = segments, (lanes, segments[-1][1])

    def __getitem__(self, lanes: np.ndarray) -> "_EnvLog":
        """The log of the lanes at the sorted distinct indices ``lanes``
        (itself if that is all of them); copies only the row vectors."""
        if lanes.size == self.shape[0]:
            return self
        return _EnvLog([(lo, hi, data, rows[lanes]) for lo, hi, data, rows in self.segments], lanes.size)

    def block(self, start: int, stop: int, per_column: int) -> np.ndarray:
        """Generations start+1..stop of every lane, ``per_column`` to a column."""
        lo, _, data, rows = next(s for s in self.segments if s[0] <= start < s[1])
        return data[rows, (start - lo) // per_column:(stop - lo + per_column - 1) // per_column]


def _survival_backward_pair(family, table, env, n: int, slopes: bool = False):
    """Conditional survival of horizons n and n-1 over a stored environment.

    ``env`` is an :class:`_EnvLog` of the lanes to replay, or a 2-D array
    with one row per lane, read as a one-segment log.  Under two-point
    noise it holds the stream bits packed 8 generations per byte (bit
    ``k % 8`` of byte ``k // 8``, little-endian) and ``table[:, b]`` holds
    the survival-step coefficients of the law that bit b selects; under
    uniform noise ``table`` is None and column k holds the law parameter of
    generation k+1.  Returns (u, v) with u the survival for the length-n
    path and v for the same path truncated after n-1 generations; u <= v
    lane-wise.  Both are advanced by one family evaluation per generation.
    With ``slopes`` (Poisson only) it replays u alone and returns (u, s), s
    the sum of the products -lam r that its steps pass to ``expm1``.

    ``env`` is read as transposed blocks of ``_REPLAY_BLOCK`` generations,
    each gathered from the segment that holds it.
    Under two-point noise each coefficient row gets one
    :func:`two_point_octets` table, which expands a stored byte into the
    coefficients of its 8 generations, and the bytes are expanded one at a
    time into one (K, 8, L) buffer kept for the whole call: a buffer for
    a whole block would be 4x larger, and at 16,384 lanes over numpy's
    4 MiB huge-page threshold.  The steps write into two (2, L) arrays in
    turn, or three (L,) with ``slopes``, and allocate nothing (but for a
    finite template beyond {0, 1, 2}, the temporaries of ``finite_tail_sum``).
    """
    if isinstance(env, np.ndarray):
        env = _EnvLog([(0, n, env, slice(None))], env.shape[0])
    lanes = env.shape[0]
    if slopes:  # on w = -u with the rates, a step is w <- expm1(lam w)
        table = None if table is None else -table
        w, p, total = np.full(lanes, -1.0), np.empty(lanes), np.zeros(lanes)
    else:
        uv, out = np.ones((2, lanes)), np.empty((2, lanes))
    if table is not None:
        octets = [np.ascontiguousarray(two_point_octets(lo, hi).T) for lo, hi in table]
        coefs = np.empty((len(octets), 8, lanes))
    for start in range((n - 1) // _REPLAY_BLOCK * _REPLAY_BLOCK, -1, -_REPLAY_BLOCK):
        stop = min(start + _REPLAY_BLOCK, n)
        if table is None:
            block = family.step_coefficients(np.ascontiguousarray(env.block(start, stop, 1).T))
            if slopes:
                np.negative(block, out=block)
        else:
            # intp once per block: take would copy byte indices to intp per row
            block = np.ascontiguousarray(env.block(start, stop, 8).T, dtype=np.intp)
        for g in range(stop - start - 1, -1, -1):
            if table is not None and (g % 8 == 7 or g == stop - start - 1):
                for row, octet in zip(coefs, octets):
                    # byte indices never clip; "clip" lets take write into out unbuffered
                    octet.take(block[g // 8], axis=1, out=row, mode="clip")
            step = block[:, g] if table is None else coefs[:, g % 8]
            if slopes:
                np.multiply(step[0], w, out=p)
                total += p
                np.expm1(p, out=w)
            elif start + g == n - 1:
                uv[0] = family.survival_step(step, uv[0], out[0])
            else:
                uv, out = family.survival_step(step, uv, out), uv
    return (np.negative(w, out=w), total) if slopes else (uv[0], uv[1])


def _draw_rows(width: int, itemsize: int) -> int:
    """Rows per chunk of draws: a multiple of 32 whose unpacked draws (a byte
    per stream bit, 8 per mean) take at most 256 KiB and 1/32 of the budget,
    or 32 rows where those take more.  32 rows of whole bytes are whole
    64-bit stream outputs."""
    return max(32, min(1 << 18, _MAX_BITS_BYTES >> 5) // (width * itemsize) // 32 * 32)


def _draw_environment(model: EnvironmentModel, stream, env: np.ndarray, log_mu: np.ndarray,
                      n: int, target: int, log_support) -> None:
    """Draw generations n+1..target of every row of ``env``, a new log
    segment, into it and add their log means to ``log_mu``.

    Under two-point noise (``log_support`` holds the two log support
    means) row i of a chunk is bytes ``[i * cols, (i + 1) * cols)`` of the
    chunk's :meth:`~haldane.numerics.RandomStream.packed_bits`, ``cols``
    the row's bytes, its bits past ``target - n`` cleared; a popcount table
    counts the high means.  Otherwise (``log_support`` is None) ``env``
    takes one law parameter per generation.

    Rows are drawn in chunks of :func:`_draw_rows`, so a chunk ends on a
    64-bit output of the stream: the chunks read it as one block would.
    """
    width = target - n
    rows = _draw_rows(width, env.itemsize)
    for lo in range(0, env.shape[0], rows):
        chunk = slice(lo, min(lo + rows, env.shape[0]))
        count = chunk.stop - lo
        if log_support is not None:
            log_lo, log_hi = log_support
            cols = env.shape[1]
            packed = stream.packed_bits(8 * count * cols)[:count * cols].reshape(count, cols)
            if width % 8:
                packed[:, -1] &= (1 << width % 8) - 1
            # indexing, unlike take, does not first copy the uint8 indices
            # to intp (8 bytes per stored byte)
            n_hi = _POPCOUNT[packed].sum(axis=1, dtype=np.int64)
            log_mu[chunk] += n_hi * log_hi + (width - n_hi) * log_lo
            env[chunk] = packed
        else:
            means = model.sample_means(stream, size=count * width).reshape(count, width)
            log_mu[chunk] += np.log(means).sum(axis=1)
            env[chunk] = model.family.law_params(means)


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
    of the drawn mean), in a new segment of an append-only log
    (:class:`_EnvLog`) per checkpoint.  At checkpoint horizons (powers of
    two times 256, capped at ``n_max``) the backward survival recursion is
    replayed over the log for lanes whose mean-growth condition is
    satisfied, and converged lanes are retired: from the row vectors, and
    from a segment's data once fewer than half of its rows are live (if
    the copy fits the budget).  Total backward work is at most about
    twice the forward work thanks to the doubling schedule.
    """
    family = model.family
    packed = model.noise == TWO_POINT
    dtype = np.dtype(np.uint8 if packed else np.float64)
    log_tol_mu = -math.log(tol_mu)
    log_floor = math.log(EXTINCTION_FLOOR)
    if packed:
        m_lo, m_hi = model.mean_bounds()
        log_support = (math.log(m_lo), math.log(m_hi))
        table = family.step_coefficients(family.law_params([m_lo, m_hi]))
    else:
        log_support = table = None
    # Poisson: H = h_1...h_{n-1} is concave with H(0) = 0, so v - u = H(1) -
    # H(h_n(1)) <= H'(h_n(1)) (1 - h_n(1)) = exp(log_mu + s - log lam_n), and
    # lam_n >= m_lo.  Below tol_q / 2 it certifies a lane while the rounding
    # of v - u (about 4n ulp: relative errors do not grow through concave
    # maps fixing 0) stays below tol_q / 4 and that of s (n^2 ulp) small.
    log_half_tol = math.log(tol_q / 2.0) - max(0.0, -math.log(model.mean_bounds()[0]))
    fell_back = False  # once a u-only replay sent most lanes on to the pair, replay the pair

    stream = rng_stream(seed, stream_id)
    values = np.zeros(n_lanes)
    flagged = np.zeros(n_lanes, dtype=bool)

    idx = np.arange(n_lanes)
    log_mu = np.zeros(n_lanes)
    segments = []  # (first generation, end generation, data, row of each live lane)
    n = 0

    checkpoint = 256
    while True:
        target = min(checkpoint, n_max)
        width = target - n
        cols = (width + 7) // 8 if packed else width
        held = sum(data.nbytes for _, _, data, _ in segments) + idx.size * cols * dtype.itemsize
        # and a chunk of draws (retiring checks a compaction copy where it makes it)
        nbytes = held + min(_draw_rows(width, dtype.itemsize), idx.size) * width * dtype.itemsize
        if nbytes > _MAX_BITS_BYTES:
            raise HorizonStorageError(
                f"environment storage for {idx.size} live lanes to horizon {target} "
                f"needs {nbytes} bytes (the log, its new segment and a chunk of draws), over the "
                f"budget of {_MAX_BITS_BYTES}; lower n_max or the replicates per batch, or use a "
                "linear-fractional family for deep subcritical horizons"
            )
        data = np.empty((idx.size, cols), dtype)
        _draw_environment(model, stream, data, log_mu, n, target, log_support)
        segments.append((n, target, data, np.arange(idx.size)))
        n = target

        # certain-extinction proxy: survival <= conditional mean population
        extinct = log_mu < log_floor
        mu_ok = log_mu > log_tol_mu
        check = ~extinct & (mu_ok | (n >= n_max))
        done = extinct.copy()
        if np.any(check):
            rows = np.flatnonzero(check)
            checked = _EnvLog(segments, idx.size)[rows]
            if family.name == "poisson" and not fell_back and n * 2.0**-49 < tol_q and n < 1 << 22:
                u, slope = _survival_backward_pair(family, table, checked, n, slopes=True)
                converged = u < EXTINCTION_FLOOR
                pending = mu_ok[check] & ~converged
                certified = pending & (log_mu[check] + slope < log_half_tol)
                converged |= certified
                redo = np.flatnonzero(pending & ~certified)
                fell_back = 2 * redo.size > pending.size
                if redo.size:
                    u_redo, v = _survival_backward_pair(family, table, checked[redo], n)
                    converged[redo] = v - u_redo < tol_q
            else:
                u, v = _survival_backward_pair(family, table, checked, n)
                converged = (u < EXTINCTION_FLOOR) | (mu_ok[check] & (v - u < tol_q))
            del checked
            values[idx[rows]] = u
            if n >= n_max:
                flagged[idx[rows]] = ~converged
                done[rows] = True
            else:
                done[rows] = converged
        if n >= n_max or np.all(done):
            return values, flagged
        if np.any(done):
            keep = np.flatnonzero(~done)
            idx, log_mu = idx[keep], log_mu[keep]
            for i, (first, end, data, live) in enumerate(segments):
                live, copy = live[keep], keep.size * data[0].nbytes
                # compact once fewer than half of the rows are live, if the copy fits
                if 2 * live.size < data.shape[0] and held + copy <= _MAX_BITS_BYTES:
                    held -= data.nbytes - copy
                    data, live = data[live], np.arange(live.size)
                segments[i] = (first, end, data, live)
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
# Population simulation by exact offspring sums
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
    """Sum of z iid draws from per-lane finite pmfs, the rows of
    ``weights``: the value counts are one exact multinomial draw per lane."""
    return gen.multinomial(z, weights) @ np.arange(weights.shape[1])


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

    support_weights = None  # the (low, high) support laws' weight rows
    if family.name == "finite" and model.noise == TWO_POINT and model.nu > 0.0:
        support_weights = np.array([model.law_for_mean(m).weights for m in model.support_means()])

    while idx.size:
        m = model.sample_means(stream, size=idx.size)
        if family.name == "poisson":
            z = _offspring_sum_poisson(gen, m, z)
        elif family.name == "linear_fractional":
            z = _offspring_sum_lf(gen, family.p0, 1.0 - (1.0 - family.p0) / m, z)
        else:
            if support_weights is not None:
                weights = support_weights[(m > 1.0 + model.epsilon).astype(np.intp)]
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
