"""Survival-module tests: path composition, the reciprocal-survival
identity, the closed-form composition oracle, estimators, and sweeps."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from haldane import _engines
from haldane import (
    EnvPath,
    FinitePmf,
    LinearFractional,
    Poisson,
    RegimeParams,
    backward_extinction,
    estimate_survival_gf,
    gw_fixed_point_survival,
    haldane_prediction,
    haldane_sweep,
    lf_exact_extinction,
    make_environment,
    rng_stream,
    sample_env_path,
    simulate_population,
    survival_identity,
)
from haldane.survival import lf_exact_survival


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

def test_env_path_basics():
    model = make_environment("poisson", epsilon=0.05, nu=0.0)
    path = sample_env_path(model, 1, rng_stream(1, 0))
    assert path.n == 1
    assert path.cum_log_mean[0] == 0.0
    assert path.cum_log_mean[1] == pytest.approx(math.log(1.05), rel=1e-14)


def test_env_path_degenerate_growth():
    model = make_environment("poisson", epsilon=0.05, nu=0.0)
    path = sample_env_path(model, 100, rng_stream(1, 0))
    assert path.cum_log_mean[100] == pytest.approx(100 * math.log(1.05), rel=1e-12)


def test_env_path_lln():
    model = make_environment("poisson", epsilon=0.01, nu=0.01)
    n = 10_000
    path = sample_env_path(model, n, rng_stream(2, 0))
    log_means = np.diff(path.cum_log_mean)
    target = model.log_moment()
    spread = float(np.std(log_means))
    assert path.cum_log_mean[n] / n == pytest.approx(target, abs=5 * spread / math.sqrt(n))


def test_env_path_validation():
    with pytest.raises(ValueError):
        EnvPath(laws=(), cum_log_mean=np.array([0.0]))
    with pytest.raises(ValueError):
        EnvPath(laws=(Poisson(1.0),), cum_log_mean=np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        sample_env_path(make_environment("poisson", epsilon=0.01, nu=0.0), 0, rng_stream(0, 0))


# ---------------------------------------------------------------------------
# Backward composition and oracles
# ---------------------------------------------------------------------------

def test_backward_single_step_is_zero_mass():
    path = EnvPath.from_laws([LinearFractional(0.3, 0.2)])
    q = backward_extinction(path)
    assert q[-1] == 0.0
    assert q[0] == pytest.approx(0.3, abs=1e-15)


def test_backward_one_child_laws_fix_zero():
    path = EnvPath.from_laws([FinitePmf((0.0, 1.0))] * 17)
    assert backward_extinction(path)[0] == 0.0


def test_backward_two_lf_matches_direct_composition():
    law = LinearFractional(0.3, 0.2)
    path = EnvPath.from_laws([law, law])
    expected = law.pgf(law.pgf(0.0))
    assert backward_extinction(path)[0] == pytest.approx(expected, abs=1e-14)
    assert lf_exact_extinction(path) == pytest.approx(expected, abs=1e-14)


def test_lf_oracle_agreement_long_paths():
    model = make_environment("linear_fractional", epsilon=0.02, nu=0.02, p0=0.3)
    rng = rng_stream(3, 1)
    for _ in range(20):
        path = sample_env_path(model, 200, rng)
        assert lf_exact_extinction(path) == pytest.approx(
            backward_extinction(path)[0], abs=1e-12
        )


def test_lf_oracle_single_law():
    assert lf_exact_extinction(EnvPath.from_laws([LinearFractional(0.3, 0.2)])) == pytest.approx(
        0.3, abs=1e-14
    )


def test_lf_oracle_type_error():
    with pytest.raises(TypeError):
        lf_exact_extinction(EnvPath.from_laws([Poisson(1.0)]))


def test_extinction_monotone_in_horizon():
    model = make_environment("finite", epsilon=0.03, nu=0.03)
    rng = rng_stream(4, 0)
    path = sample_env_path(model, 80, rng)
    values = [backward_extinction(EnvPath.from_laws(path.laws[:n]))[0] for n in range(1, 81)]
    assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Reciprocal-survival identity
# ---------------------------------------------------------------------------

def test_identity_deterministic_poisson():
    path = EnvPath.from_laws([Poisson(1.1)] * 200)
    ident = survival_identity(path)
    assert not ident.extinction_certain
    assert ident.identity_residual < 1e-9


def test_identity_one_child_laws():
    path = EnvPath.from_laws([FinitePmf((0.0, 1.0))] * 10)
    ident = survival_identity(path)
    assert ident.shape_series == 0.0
    assert ident.mean_inverse_tail == pytest.approx(1.0)
    assert ident.identity_residual == 0.0


def test_identity_floor_random_paths():
    model = make_environment("linear_fractional", epsilon=0.02, nu=0.02)
    rng = rng_stream(5, 2)
    for _ in range(50):
        ident = survival_identity(sample_env_path(model, 100, rng))
        assert ident.shape_series + ident.mean_inverse_tail >= 1.0 - 1e-12
        assert ident.identity_residual < 1e-9


def test_identity_reports_underflowed_survival():
    # the two weak generations take the survival below the smallest double
    # (1e-400) before the strong first one scales it back up, while every
    # mean product stays within range
    ident = survival_identity(EnvPath.from_laws([Poisson(1e300), Poisson(1e-200), Poisson(1e-200)]))
    assert ident.extinction_certain
    assert ident.survival == 0.0 and math.isnan(ident.identity_residual)
    assert ident.mean_inverse_tail == pytest.approx(1e100)


@pytest.mark.parametrize("laws, tail_overflows", [
    ([Poisson(0.5)] * 1100, True),  # the reciprocal mean product 2**1025 overflows at generation 1,025
    ([Poisson(1e-200)] * 4, True),  # and 1e400 here at generation 2
    ([Poisson(1e300), Poisson(1e-200), Poisson(1e-200)], False),
], ids=["subcritical-1100", "tiny-means", "in-range"])
def test_identity_flags_certain_extinction_past_the_double_range(laws, tail_overflows):
    # a partial mean product below the doubles has a reciprocal past them:
    # the identity reports certain extinction instead of raising
    ident = survival_identity(EnvPath.from_laws(laws))
    assert ident.extinction_certain
    assert ident.survival == 0.0 and math.isnan(ident.identity_residual)
    assert (ident.mean_inverse_tail == math.inf) == tail_overflows
    assert ident.shape_series == (math.inf if tail_overflows else pytest.approx(0.5 * (1 + 1e-300 + 1e-100)))


def test_identity_detects_corrupted_shape(monkeypatch):
    """Dropping the mean-product term from the shape function must break
    the identity (mutation sensitivity of the central check)."""
    bad = lambda self, r: 1.0 / max(self.survival_map(r), 1e-300)
    monkeypatch.setattr(Poisson, "shape_from_survival", bad)
    path_laws = [Poisson(1.1)] * 50
    ident = survival_identity(EnvPath.from_laws(path_laws))
    assert ident.identity_residual > 1e-3


# ---------------------------------------------------------------------------
# Fixed-point oracle
# ---------------------------------------------------------------------------

def test_gw_fixed_point_against_transcendental_root():
    for eps in (0.1, 0.02):
        lam = 1.0 + eps
        survival = gw_fixed_point_survival(Poisson(lam))
        oracle = brentq(lambda x: 1 - math.exp(-lam * x) - x, 1e-12, 1.0, xtol=1e-15)
        assert survival == pytest.approx(oracle, abs=1e-12)
    assert gw_fixed_point_survival(Poisson(0.95)) == 0.0
    assert gw_fixed_point_survival(FinitePmf((0.0, 0.0, 1.0))) == 1.0


@pytest.mark.parametrize("family", ["poisson", "linear_fractional", "finite"])
def test_gw_fixed_point_against_brentq(family):
    # bisection to adjacent doubles against Brent's bracketed root of the
    # same gap, from just above criticality to mean 3
    fam = make_environment(family, 0.0, 0.0, template=(0.2, 0.2, 0.2, 0.2, 0.2)).family
    for mean in (1.0 + 1e-4, 1.001, 1.01, 1.05, 1.2, 1.5, 2.0, 3.0):
        law = fam.law_for_mean(mean)
        oracle = brentq(lambda r: law.survival_map(r) - r, 1e-14, 1.0, xtol=1e-15, rtol=8.9e-16)
        assert abs(gw_fixed_point_survival(law) - oracle) <= 2e-15


def test_gw_fixed_point_poisson_expansion():
    # pi(1+eps)/(2 eps) = 1 - (4/3) eps + (14/9) eps^2 + O(eps^3), the
    # approach to 1 that A1 checks; the cubic term is about -1.7 eps^3
    for eps in (0.02, 0.01, 0.005):
        ratio = gw_fixed_point_survival(Poisson(1.0 + eps)) / (2.0 * eps)
        assert abs(ratio - (1.0 - 4.0 / 3.0 * eps + 14.0 / 9.0 * eps**2)) < 2.0 * eps**3


# ---------------------------------------------------------------------------
# Haldane predictions
# ---------------------------------------------------------------------------

def test_haldane_prediction_values():
    assert haldane_prediction(RegimeParams(0.05, 0.0, 0.0, 1.0)) == pytest.approx(0.10)
    assert haldane_prediction(RegimeParams(0.05, 0.05, 1.0, 1.0)) == pytest.approx(0.05)
    assert haldane_prediction(RegimeParams(0.05, 0.125, 2.5, 1.0)) == 0.0
    with pytest.raises(ValueError):
        haldane_prediction(RegimeParams(0.05, 0.1, 2.0, 1.0))


# ---------------------------------------------------------------------------
# Generating-function estimator
# ---------------------------------------------------------------------------

def test_gf_estimator_degenerate_matches_oracle():
    model = make_environment("poisson", epsilon=0.1, nu=0.0)
    res = estimate_survival_gf(model, n_reps=1000, seed=9)
    oracle = brentq(lambda x: 1 - math.exp(-1.1 * x) - x, 1e-12, 1.0, xtol=1e-15)
    assert res.std_error == 0.0
    assert res.estimate == pytest.approx(oracle, abs=3 * res.std_error + 1e-5)
    assert res.n_flagged == 0


@pytest.mark.parametrize("noise", ["two_point", "uniform"])
@pytest.mark.parametrize("family", ["poisson", "linear_fractional", "finite"])
def test_gf_estimator_degenerate_runs_family_engine(family, noise):
    """With nu = 0 every path coincides, and one lane of the family's own
    engine gives the estimate: the fixed point to within the engine's
    truncation (the replay, whose first horizon is 256 generations, to
    1e-10), and every replicate flagged when n_max is too short."""
    for eps in (0.1, 0.05, 0.02):
        model = make_environment(family, epsilon=eps, nu=0.0, noise=noise)
        oracle = gw_fixed_point_survival(model.law_for_mean(1.0 + eps))
        res = estimate_survival_gf(model, n_reps=1000, seed=3)
        assert abs(res.estimate - oracle) < (1e-6 if family == "linear_fractional" else 1e-10)
        assert (res.std_error, res.n_flagged, res.n_reps) == (0.0, 0, 1000)
        assert estimate_survival_gf(model, n_reps=1000, seed=3, n_max=50).n_flagged == 1000


def test_gf_estimator_one_child_flags_horizon():
    model = make_environment("finite", epsilon=0.0, nu=0.0, template=(0.0, 1.0))
    res = estimate_survival_gf(model, n_reps=50, seed=9, n_max=200)
    assert res.estimate == 1.0
    assert res.n_flagged == 50


def test_gf_estimator_deterministic_given_seed():
    model = make_environment("linear_fractional", epsilon=0.05, nu=0.05)
    a = estimate_survival_gf(model, n_reps=20_000, seed=33)
    b = estimate_survival_gf(model, n_reps=20_000, seed=33)
    c = estimate_survival_gf(model, n_reps=20_000, seed=34)
    assert a == b
    assert a.estimate != c.estimate


def test_gf_estimator_validation():
    model = make_environment("poisson", epsilon=0.05, nu=0.0)
    with pytest.raises(ValueError):
        estimate_survival_gf(model, n_reps=0, seed=1)
    with pytest.raises(ValueError):
        estimate_survival_gf(model, n_reps=10, seed=1, tol_q=2.0)


def test_gf_engines_agree_across_families():
    """The annuity-sum and backward-replay engines estimate the same
    quantity: compare overlapping configurations statistically."""
    lf = make_environment("linear_fractional", epsilon=0.05, nu=0.025)
    po = make_environment("poisson", epsilon=0.05, nu=0.025)
    r_lf = estimate_survival_gf(lf, n_reps=40_000, seed=41)
    r_po = estimate_survival_gf(po, n_reps=40_000, seed=42)
    # same epsilon/rho, different sigma_sq: compare each to its prediction
    for model, res in ((lf, r_lf), (po, r_po)):
        pred = haldane_prediction(RegimeParams.from_environment(model))
        assert res.estimate == pytest.approx(pred, rel=0.25)


class _RecordingModel:
    """Stand-in for a one-lane environment model that keeps every mean it
    hands out; a packed draw is decoded, bit j of the lane byte selecting
    the high mean of generation j."""

    def __init__(self, model):
        self._model = model
        self.means = []

    def __getattr__(self, name):
        return getattr(self._model, name)

    def sample_means(self, rng, size, rows=1, *, packed=False):
        draws = self._model.sample_means(rng, size, rows, packed=packed)
        if packed:
            assert size == rows
            m_lo, m_hi = self._model.mean_bounds()
            self.means.extend(m_hi if int(draws[0]) >> j & 1 else m_lo for j in range(rows))
        else:
            self.means.extend(draws.ravel().tolist())
        return draws


@pytest.mark.parametrize(
    "eps, rho, n_max, tol_q, some_flagged",
    [
        (0.05, 1.0, 480, 1e-8, True),  # lanes stop on convergence; about half hit n_max
        (0.02, 3.0, 100_000, 1e-8, False),  # lanes stop on the extinction floor
        (0.05, 1.0, 100_000, 1e-11, False),  # the increment rule, not tol_mu, binds
    ],
    ids=["0.05-1.0-480-True", "0.02-3.0-100000-False", "0.05-1.0-100000-tol_q=1e-11-False"],
)
def test_lf_kernel_matches_moebius_oracle_per_path(eps, rho, n_max, tol_q, some_flagged):
    """Each lane of the LF kernel equals the Moebius product over the very
    environment it drew, stops at the first check generation (a multiple of
    the check stride, or n_max) where the oracle's stopping rule holds, and
    is flagged exactly when that rule still fails at n_max."""
    tol_mu = 1e-6
    stride = _engines._LF_CHECK_EVERY
    model = make_environment("linear_fractional", epsilon=eps, nu=rho * eps)

    def oracle(laws):
        """(survival, whether the stopping rule holds) after len(laws) generations."""
        path = EnvPath.from_laws(laws)
        r = lf_exact_survival(path)
        r_prev = lf_exact_survival(EnvPath.from_laws(laws[:-1])) if len(laws) > 1 else 1.0
        mu_n = math.exp(path.cum_log_mean[-1])
        return r, r < _engines.EXTINCTION_FLOOR or (r_prev - r < tol_q and mu_n > 1.0 / tol_mu)

    n_flagged = 0
    for stream_id in range(40):
        recorder = _RecordingModel(model)
        values, flags = _engines.gf_lf_batch(recorder, 1, 7, stream_id, tol_q, tol_mu, n_max)
        laws = [model.law_for_mean(m) for m in recorder.means]
        n = len(laws)
        r, stops = oracle(laws)
        assert abs(values[0] - r) <= 1e-12 * r
        assert n <= n_max
        assert n % stride == 0 or n == n_max
        assert flags[0] == (n == n_max and not stops)
        assert flags[0] or stops
        previous_check = (n - 1) // stride * stride
        if previous_check:
            assert not oracle(laws[:previous_check])[1]
        n_flagged += int(flags[0])
    assert (n_flagged > 0) == some_flagged


@pytest.mark.parametrize("noise", ["two_point", "uniform"])
def test_lf_stop_matches_the_full_width_rule(monkeypatch, noise):
    # the stop forms the increment only on lanes below tol_mu and tests the
    # floor on the sum; its done mask and the survival of the sums must be
    # bitwise the rule evaluated on every lane, with lanes on both sides of
    # tol_mu, of tol_q and of the extinction floor
    model = make_environment("linear_fractional", epsilon=0.05, nu=0.025, noise=noise)
    kappa, tol_q, tol_mu = 0.3 / 0.7, 1e-8, 1e-6
    gen = np.random.default_rng(21)
    n = 4096
    total = 10.0 ** gen.uniform(0.0, 17.0, n)
    stops = []

    def capture(n_lanes, n_max, every, advance, stop):
        stops.append(stop)
        return total, None

    monkeypatch.setattr(_engines, "annuity_batch", capture)
    survival, _ = _engines.gf_lf_batch(model, 1, 1, 0, tol_q, tol_mu, 100)
    stop, = stops
    prev_total = total - 10.0 ** gen.uniform(-12.0, 0.0, n) * total
    r = 1.0 / (1.0 + kappa * total)
    prev_r = 1.0 / (1.0 + kappa * prev_total)
    for discount in (10.0 ** gen.uniform(-9.0, -3.0, n), np.full(n, 1e-3), np.full(n, 1e-9)):
        done = (r < _engines.EXTINCTION_FLOOR) | ((prev_r - r < tol_q) & (discount < tol_mu))
        stopped = stop(total, discount, prev_total.__getitem__)
        assert np.array_equal(survival, r) and np.array_equal(stopped, done)
    assert 0 < np.count_nonzero(r < _engines.EXTINCTION_FLOOR) < n
    assert 0 < np.count_nonzero(prev_r - r < tol_q) < n


@pytest.mark.parametrize("p0", [0.1, 0.3, 0.6])
def test_lf_floor_threshold_is_exact(p0):
    # the stop tests the floor as S >= threshold; the double below it must
    # keep r at or above the floor and the threshold itself take r below,
    # evaluated as the kernel evaluates r
    kappa = p0 / (1.0 - p0)
    threshold = _engines._floor_threshold(kappa)
    s = np.array([np.nextafter(threshold, 0.0), threshold])
    r = 1.0 / (1.0 + kappa * s)
    assert r[0] >= _engines.EXTINCTION_FLOOR > r[1]
    assert threshold == pytest.approx((1.0 / _engines.EXTINCTION_FLOOR - 1.0) / kappa, rel=1e-12)


def _lf_one_generation_per_draw(model, n_lanes, stream, tol_q, tol_mu, n_max):
    """The LF kernel stepping one generation at a time (the loop the block
    draws replaced).  Uniform noise and nu = 0 draw each generation by
    ``sample_means``.  Two-point noise reads the stream lane-major, as the
    block draws do: each check interval unpacks ceil(live / 8) raw 64-bit
    outputs of ``stream`` into a (live, 8) bit array whose bit (i, j)
    selects lane i's mean for the interval's generation j."""
    kappa = model.family.p0 / (1.0 - model.family.p0)
    total, discount, idx = np.zeros(n_lanes), np.ones(n_lanes), np.arange(n_lanes)
    values, flagged = np.zeros(n_lanes), np.zeros(n_lanes, dtype=bool)
    lane_major = model.noise == "two_point" and model.nu > 0.0
    if lane_major:
        bit_generator = stream.generator.bit_generator
        support = np.array(model.mean_bounds())
    for n in range(1, n_max + 1):
        if not lane_major:
            m = model.sample_means(stream, size=idx.size)
        else:
            if (n - 1) % _engines._LF_CHECK_EVERY == 0:
                raw = bit_generator.random_raw(-(-idx.size // 8)).astype("<u8").view(np.uint8)
                flips = np.unpackbits(raw, bitorder="little").reshape(-1, 8)[:idx.size]
            m = support.take(flips[:, (n - 1) % _engines._LF_CHECK_EVERY])
        check = n % _engines._LF_CHECK_EVERY == 0 or n == n_max
        if check:
            prev_r = 1.0 / (1.0 + kappa * total)
        total += discount
        discount /= m
        if not check:
            continue
        r = 1.0 / (1.0 + kappa * total)
        done = (r < _engines.EXTINCTION_FLOOR) | ((prev_r - r < tol_q) & (discount < tol_mu))
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


def _capture_streams(monkeypatch):
    """Make ``_engines.rng_stream`` keep every stream it creates."""
    streams = []
    create = _engines.rng_stream
    monkeypatch.setattr(_engines, "rng_stream", lambda *args: streams.append(create(*args)) or streams[-1])
    return streams


@pytest.mark.parametrize("n_max", [5, 21, 100_000])
@pytest.mark.parametrize("eps, rho", [(0.05, 1.0), (0.02, 3.0)])
def test_lf_block_draws_match_one_generation_per_draw(monkeypatch, eps, rho, n_max):
    # lanes retire on convergence at rho = 1 and on the extinction floor
    # at rho = 3; n_max = 5 and 21 cut the last block short.  Under
    # two-point noise the kernel steps whole blocks through byte tables,
    # which round once per block, so values match to rounding; flags and
    # stream use match exactly
    model = make_environment("linear_fractional", epsilon=eps, nu=eps * rho)
    streams = _capture_streams(monkeypatch)
    for n_lanes in (1, 33, 4097, 16_385):
        values, flagged = _engines.gf_lf_batch(model, n_lanes, 5, n_lanes, 1e-8, 1e-6, n_max)
        ref_rng = rng_stream(5, n_lanes)
        ref_values, ref_flagged = _lf_one_generation_per_draw(model, n_lanes, ref_rng, 1e-8, 1e-6, n_max)
        np.testing.assert_allclose(values, ref_values, rtol=1e-12, atol=0.0)
        assert np.array_equal(flagged, ref_flagged)
        next_words = (r.generator.integers(0, 2**32, 4, dtype=np.uint32) for r in (streams[-1], ref_rng))
        assert np.array_equal(*next_words)


@pytest.mark.parametrize("n_max", [5, 21, 100_000])
@pytest.mark.parametrize("eps, nu", [(0.05, 0.02), (0.01, 0.03), (0.05, 0.0)])
def test_lf_uniform_draws_match_one_generation_per_draw(monkeypatch, eps, nu, n_max):
    # under uniform noise (and at nu = 0) the kernel draws and steps one
    # generation at a time, so values, flags and stream use match bitwise;
    # lanes retire on convergence at eps = 0.05 and on the extinction
    # floor at rho = 3
    streams = _capture_streams(monkeypatch)
    model = make_environment("linear_fractional", epsilon=eps, nu=nu, noise="uniform")
    for n_lanes in (1, 33, 4097):
        values, flagged = _engines.gf_lf_batch(model, n_lanes, 5, n_lanes, 1e-8, 1e-6, n_max)
        ref_rng = rng_stream(5, n_lanes)
        ref_values, ref_flagged = _lf_one_generation_per_draw(model, n_lanes, ref_rng, 1e-8, 1e-6, n_max)
        assert np.array_equal(values, ref_values) and np.array_equal(flagged, ref_flagged)
        next_words = (r.generator.integers(0, 2**32, 4, dtype=np.uint32) for r in (streams[-1], ref_rng))
        assert np.array_equal(*next_words)


def test_empty_lf_batch_returns_without_drawing(monkeypatch):
    model = make_environment("linear_fractional", epsilon=0.05, nu=0.05)
    calls = []
    draw = type(model).sample_means
    monkeypatch.setattr(type(model), "sample_means", lambda *args: calls.append(args) or draw(*args))
    streams = _capture_streams(monkeypatch)
    values, flagged = _engines.gf_lf_batch(model, 0, 3, 3, 1e-8, 1e-6, 100_000)
    assert values.shape == flagged.shape == (0,) and calls == []
    assert streams[0].generator.integers(0, 2**32) == rng_stream(3, 3).generator.integers(0, 2**32)


def test_gf_std_error_survives_tiny_spread():
    """At nu = 1e-18 the lanes differ in the 11th digit; the batch merge
    must keep that spread instead of cancelling it against the mean."""
    model = make_environment("linear_fractional", epsilon=0.05, nu=1e-18)
    n = 4096
    res = estimate_survival_gf(model, n_reps=n, seed=1)
    values, _ = _engines.gf_lf_batch(model, n, 1, 0, 1e-8, 1e-6, 100_000)
    direct = float(np.std(values, ddof=1)) / math.sqrt(n)
    assert direct > 0.0
    assert res.std_error == pytest.approx(direct, rel=1e-6, abs=0.0)


def test_gf_scalar_fallback_uniform_noise():
    """Uniform noise goes through the replay engine: the estimate is near
    its prediction and reproducible."""
    model = make_environment("poisson", epsilon=0.1, nu=0.02, noise="uniform")
    res = estimate_survival_gf(model, n_reps=300, seed=8)
    pred = haldane_prediction(RegimeParams.from_environment(model))
    assert res.estimate == pytest.approx(pred, rel=0.4)
    again = estimate_survival_gf(model, n_reps=300, seed=8)
    assert res == again


# ---------------------------------------------------------------------------
# The backward-replay engine on shared stored environments
# ---------------------------------------------------------------------------

FIVE_POINT = (0.1, 0.2, 0.3, 0.25, 0.15)
FAMILIES = {
    "poisson": {"family": "poisson"},
    "finite": {"family": "finite"},
    "finite5": {"family": "finite", "template": FIVE_POINT},
    "lf": {"family": "linear_fractional", "p0": 0.5},
}


def _replay_inputs(model, rows, n, seed):
    """A shared stored environment: the means of every lane-generation and
    the matrix the replay reads (packed bits with the law table under
    two-point noise, law parameters under uniform noise)."""
    family = model.family
    stream = rng_stream(seed, 0)
    if model.noise == "two_point":
        packed = stream.packed_bits(rows * n)
        bits = np.unpackbits(packed, count=rows * n, bitorder="little").view(bool).reshape(rows, n)
        lo, hi = model.support_means()
        means = np.where(bits, hi, lo)
        table = family.step_coefficients(family.law_params(model.support_means()))
        return means, bits, table, np.packbits(bits, axis=1, bitorder="little")
    means = model.sample_means(stream, rows * n).reshape(rows, n)
    return means, None, None, family.law_params(means)


@pytest.mark.parametrize("noise", ["two_point", "uniform"])
@pytest.mark.parametrize("name", ["poisson", "finite", "finite5"])
def test_replay_matches_law_by_law_recursion(name, noise):
    """Per path, the replay equals the scalar survival_map recursion over
    the laws of the same stored means, for horizons n and n-1."""
    model = make_environment(epsilon=0.05, nu=0.05, noise=noise, **FAMILIES[name])
    rows, n = 12, 301
    means, _, table, env = _replay_inputs(model, rows, n, seed=5)
    u, v = _engines._survival_backward_pair(model.family, table, env, n)
    for i in range(rows):
        laws = [model.law_for_mean(float(m)) for m in means[i]]
        r = r_short = 1.0
        for law in reversed(laws):
            r = law.survival_map(r)
        for law in reversed(laws[:-1]):
            r_short = law.survival_map(r_short)
        assert abs(u[i] - r) <= 1e-12 * r
        assert abs(v[i] - r_short) <= 1e-12 * r_short


def _two_law_recursion(law_lo, law_hi, bits, n):
    """Reference replay over unpacked bits: both laws on every lane, then a
    select."""
    u = np.ones(bits.shape[0])
    v = np.ones(bits.shape[0])
    for k in range(n - 1, -1, -1):
        col = bits[:, k]
        u = np.where(col, law_hi.survival_map(u), law_lo.survival_map(u))
        if k < n - 1:
            v = np.where(col, law_hi.survival_map(v), law_lo.survival_map(v))
    return u, v


# horizons ending inside a byte and inside a block, and with the first
# (horizon n-1) step on either side of a block edge; one lane and 40
@pytest.mark.parametrize("n", [1, 7, 8, 31, 32, 33, 40, 64, 333])
@pytest.mark.parametrize("name", ["poisson", "finite", "finite5"])
def test_packed_replay_bitwise_equals_two_law_recursion(name, n):
    model = make_environment(epsilon=0.05, nu=0.05, **FAMILIES[name])
    laws = [model.law_for_mean(m) for m in model.support_means()]
    for lanes in (1, 40):
        _, bits, table, env = _replay_inputs(model, lanes, n, seed=6)
        u, v = _engines._survival_backward_pair(model.family, table, env, n)
        u_ref, v_ref = _two_law_recursion(*laws, bits, n)
        assert np.array_equal(u, u_ref) and np.array_equal(v, v_ref)


@pytest.mark.parametrize("noise", ["two_point", "uniform"])
@pytest.mark.parametrize("name", ["poisson", "finite5"])
def test_replay_engine_matches_scalar_oracle_per_lane(name, noise):
    """A one-lane batch reads the stream exactly as the per-path oracle
    does, so value, flag and stopping rules must agree lane for lane."""
    model = make_environment(epsilon=0.05, nu=0.05, noise=noise, **FAMILIES[name])
    flagged = []
    for stream_id in range(12):
        n_max = 300 if stream_id % 3 == 0 else 100_000  # these lanes hit n_max
        values, flags = _engines.gf_replay_batch(model, 1, 11, stream_id, 1e-8, 1e-6, n_max)
        r, flag, _ = _engines.gf_scalar_path(model, rng_stream(11, stream_id), 1e-8, 1e-6, n_max)
        assert flags[0] == flag
        assert abs(values[0] - r) <= 1e-12 * r
        flagged.append(flag)
    assert any(flagged) and not all(flagged)


def test_scalar_oracle_stops_at_certain_extinction():
    # means 0.1 and 1.9: the log mean product after 256 generations is
    # about -212 (sd 24), far below the extinction floor's log(1e-15)
    model = make_environment("poisson", epsilon=0.0, nu=0.81)
    for stream_id in range(5):
        assert _engines.gf_scalar_path(model, rng_stream(3, stream_id), 1e-8, 1e-6, 100_000) == (0.0, False, 256)


# nu = 0.2 puts the lower means below 1, where the bound needs its
# -log lam_n: without it, it failed on about 5% of these lanes
@pytest.mark.parametrize("nu, n", [(0.05, 20), (0.05, 301), (0.2, 20), (0.2, 60)])
@pytest.mark.parametrize("noise", ["two_point", "uniform"])
def test_poisson_slope_bound_holds_lane_wise(noise, nu, n):
    """The u-only replay gives the pair's u bitwise, and its slope sum s
    bounds the increment through the concavity of the composed map:
    v - u <= exp(log mu_n - log lam_n + s), up to the rounding of u and v."""
    model = make_environment("poisson", epsilon=0.05, nu=nu, noise=noise)
    means, _, table, env = _replay_inputs(model, 200, n, seed=7)
    u, v = _engines._survival_backward_pair(model.family, table, env, n)
    u_only, slope = _engines._survival_backward_pair(model.family, table, env, n, slopes=True)
    assert u_only.tobytes() == u.tobytes()
    bound = np.exp(np.log(means).sum(axis=1) - np.log(means[:, -1]) + slope)
    assert np.all(v - u <= bound + 4 * n * 2.0**-53)
    assert np.any(v - u > 1e-6)  # increments above rounding level are bounded too


@pytest.mark.parametrize("tol_q, tol_mu, n_max", [
    (1e-4, 1e-6, 100_000),
    (1e-8, 1e-6, 100_000),
    (1e-12, 1e-6, 100_000),
    (1e-8, 1e-6, 1001),  # unaligned: the last draw and replay end inside a byte
    (1e-12, 0.99, 300),  # every checked lane falls back to the pair
])
@pytest.mark.parametrize("noise", ["two_point", "uniform"])
def test_poisson_replay_equals_pair_only_replay(monkeypatch, noise, tol_q, tol_mu, n_max):
    """Certifying increments by the concavity bound changes no value and no
    flag: the batch equals, bitwise, a run in which every lane the
    mean-growth condition admits replays the pair."""
    model = make_environment("poisson", 0.05, 0.025, noise)
    replay = _engines._survival_backward_pair
    calls = []

    def spy(family, table, env, n, slopes=False):
        calls.append((n, slopes, env.shape[0]))
        return replay(family, table, env, n, slopes)

    monkeypatch.setattr(_engines, "_survival_backward_pair", spy)
    values, flags = _engines.gf_replay_batch(model, 256, 4, 1, tol_q, tol_mu, n_max)
    # lanes the u-only replay certified, per horizon it ran at
    certified = [
        sum(lanes if slopes else -lanes for m, slopes, lanes in calls if m == n)
        for n, slopes, _ in calls if slopes
    ]
    if tol_mu == 0.99 or tol_q == 1e-12:
        # at 1e-12 the bound holds only to n = 512, and the lanes at 256
        # all fell back to the pair, so 512 replays the pair alone
        assert certified and not any(certified)
    else:
        assert any(certified)

    def pair_only(family, table, env, n, slopes=False):
        u, s = replay(family, table, env, n, slopes)
        return (u, np.full(u.shape, np.inf)) if slopes else (u, s)

    monkeypatch.setattr(_engines, "_survival_backward_pair", pair_only)
    ref_values, ref_flags = _engines.gf_replay_batch(model, 256, 4, 1, tol_q, tol_mu, n_max)
    assert values.tobytes() == ref_values.tobytes() and flags.tobytes() == ref_flags.tobytes()


def test_gf_two_point_values_pinned():
    """Pinned two-point outputs (stream use and replay arithmetic); they
    may change only with an announced change of stream use."""
    res = estimate_survival_gf(make_environment("poisson", 0.05, 0.025), n_reps=512, seed=3)
    assert (res.estimate, res.std_error, res.n_flagged) == (
        0.07157579300920744, 0.0017518476004960031, 0
    )
    res = estimate_survival_gf(make_environment("finite", 0.05, 0.025), n_reps=512, seed=3)
    assert res.estimate == pytest.approx(0.13849656226860163, rel=1e-13)
    # n_max = 300 is not a multiple of 8: the last draw is unaligned
    res = estimate_survival_gf(make_environment("poisson", 0.05, 0.025), n_reps=512, seed=3, n_max=300)
    assert (res.estimate, res.std_error, res.n_flagged) == (
        0.07159021744177127, 0.001751902398568668, 433
    )


# Seeds 4-6 at tol_q = 1e-12: every lane checked at n = 256 falls back to
# the pair, and at n = 512 (the last horizon the bound is used at) 236-245
# lanes ran the u-only replay before and 185-207 of them the pair again.
@pytest.mark.parametrize("noise, seed, digest", [
    ("two_point", 4, "a3b72507a9467d5cc7899ca91394d2eaa10a35b980475bf9be0e709a5099b3ca"),
    ("two_point", 5, "df267766859fc0255017e66c1140ada935148ece2b3bc504de04a38b9f044ed9"),
    ("two_point", 6, "54af5211973c2cffc29bd426d6ec29bef0b10070b67947bbe3c45d88cf34899a"),
    ("uniform", 4, "d2e1044a6e134efa83ed60c0bb8a2786da5594a90a491de729227cd238094aee"),
    ("uniform", 5, "001ca7a7c0e80d7b385e7df414391774769f89756a062e8f67382450584f4522"),
    ("uniform", 6, "19461a9b6fd7f56adb90c5c2dea8a2ec443dd2ce6f8d37623fd5f7a6ae70bfec"),
])
def test_poisson_skips_u_only_replay_after_a_fall_back(monkeypatch, noise, seed, digest):
    """Once most lanes of a u-only replay replayed the pair again, later
    checkpoints replay the pair alone; values and flags keep their digests
    from before the skip."""
    model = make_environment("poisson", 0.05, 0.025, noise)
    replay = _engines._survival_backward_pair
    calls = []

    def spy(family, table, env, n, slopes=False):
        calls.append((n, slopes, env.shape[0]))
        return replay(family, table, env, n, slopes)

    monkeypatch.setattr(_engines, "_survival_backward_pair", spy)
    values, flags = _engines.gf_replay_batch(model, 256, seed, 1, 1e-12, 1e-6, 100_000)
    (_, _, lanes), (_, _, again) = [call for call in calls if call[0] == 256]
    assert calls[0] == (256, True, lanes) and 2 * again > lanes
    assert [slopes for n, slopes, _ in calls if n > 256] == [False] * (len(calls) - 2)
    assert any(n == 512 for n, _, _ in calls)
    assert hashlib.sha256(values.tobytes() + flags.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("noise, lanes, horizon, segment_bytes", [
    ("two_point", 64, 256, 64 * 256 // 8),
    ("uniform", 64, 256, 64 * 256 * 8),
])
def test_horizon_storage_guard_counts_bytes(monkeypatch, noise, lanes, horizon, segment_bytes):
    """The guard counts the log, the checkpoint's new segment and the
    unpacked bytes (one per stream bit, 8 per mean) of a chunk of draws: 32
    rows, the fewest, as 1/32 of these budgets holds fewer.  Both
    checkpoints here draw ``horizon`` generations."""
    model = make_environment("poisson", 0.05, 0.025, noise=noise)
    row_bytes = segment_bytes // lanes
    unpacked = horizon * (1 if noise == "two_point" else 8)  # per row of a chunk

    def refused(budget):
        monkeypatch.setattr(_engines, "_MAX_BITS_BYTES", budget)
        with pytest.raises(_engines.HorizonStorageError) as info:
            estimate_survival_gf(model, n_reps=lanes, seed=2)
        found = re.search(r"(\d+) live lanes to horizon (\d+) needs (\d+) bytes", str(info.value))
        return tuple(map(int, found.groups()))

    nbytes = segment_bytes + 32 * unpacked
    assert refused(nbytes - 1) == (lanes, horizon, nbytes)
    live, target, needed = refused(nbytes)
    # the first segment keeps its dead rows while at least half are live
    first = segment_bytes if 2 * live >= lanes else live * row_bytes
    chunk = min(32, live) * unpacked
    assert target == 2 * horizon and needed == first + live * row_bytes + chunk
    assert refused(needed - 1) == (live, 2 * horizon, needed)
    monkeypatch.setattr(_engines, "_MAX_BITS_BYTES", needed)
    try:
        estimate_survival_gf(model, n_reps=lanes, seed=2)
    except _engines.HorizonStorageError as exc:
        assert f"to horizon {2 * horizon} " not in str(exc)


def test_log_guard_admits_what_twice_the_matrix_refused(monkeypatch):
    """A uniform-noise batch whose budget is below twice the matrix of
    the live lanes at some checkpoint (the guard before the log) runs to
    the end under it, bitwise as under the default budget."""
    model = make_environment("poisson", 0.02, 0.02, noise="uniform")
    draw = _engines._draw_environment
    live_to = []

    def spy(model, stream, env, log_mu, n, target, log_support):
        live_to.append((env.shape[0], target))
        return draw(model, stream, env, log_mu, n, target, log_support)

    monkeypatch.setattr(_engines, "_draw_environment", spy)
    whole = _engines.gf_replay_batch(model, 256, 9, 0, 1e-8, 1e-6, 100_000)
    twice_matrix = max(2 * live * target * 8 for live, target in live_to)
    assert len(live_to) >= 4  # horizon 2,048 or deeper
    monkeypatch.setattr(_engines, "_MAX_BITS_BYTES", twice_matrix - 1)
    tight = _engines.gf_replay_batch(model, 256, 9, 0, 1e-8, 1e-6, 100_000)
    for a, b in zip(whole, tight):
        assert a.tobytes() == b.tobytes()


# Traced bytes per lane the replay may hold beyond its storage budget: the
# replay's coefficient buffer and block of byte indices (96 bytes per lane
# for the Poisson family) and the per-lane state vectors and masks.
_REPLAY_BYTES_PER_LANE = 512


@pytest.mark.parametrize("noise, lanes, budget", [
    ("two_point", 1024, 1 << 20),
    ("uniform", 256, 1 << 23),
])
def test_replay_peak_memory_within_storage_budget(monkeypatch, noise, lanes, budget):
    """The replay's traced peak, while it draws, replays and retires lanes
    up to the deepest horizon its guard admits, stays within the budget plus
    a per-lane allowance: the environment draws come in chunks, and the
    guard counts the copy of the checked rows."""
    # rho = 2: the mean product drifts neither up nor down, so lanes stay live
    model = make_environment("poisson", 0.02, 0.04, noise=noise)
    # first-use allocations (the Philox seeding imports) stay out of the peak
    _engines.gf_replay_batch(model, 64, 7, 1, 1e-8, 1e-6, 300)
    monkeypatch.setattr(_engines, "_MAX_BITS_BYTES", budget)
    tracemalloc.start()
    try:
        with pytest.raises(_engines.HorizonStorageError):
            _engines.gf_replay_batch(model, lanes, 7, 0, 1e-8, 1e-6, 100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= budget + _REPLAY_BYTES_PER_LANE * lanes


@pytest.mark.parametrize("name", ["poisson", "finite"])
def test_replay_and_draw_transients_stay_small(name):
    """The backward replay holds at most 320 traced bytes per lane (its
    state, one byte of coefficients per row and a block of byte indices;
    a whole block of coefficients took 577 for Poisson), and a packed draw
    at most 3 bytes per stored byte (the stream words and the popcounts;
    casting the popcount indices to intp took 10).  These transients set
    the process's peak memory, on top of the stored log."""
    model = make_environment(name, 0.05, 0.025)
    family = model.family
    table = family.step_coefficients(family.law_params(model.support_means()))
    lanes, n = 4096, 1024
    env = rng_stream(1, 0).packed_bits(lanes * n).reshape(lanes, n // 8)
    segment, log_mu = np.empty((lanes, n // 8), dtype=np.uint8), np.zeros(lanes)
    log_support = tuple(math.log(m) for m in model.support_means())
    _engines._survival_backward_pair(family, table, env[:1], n)  # first-use allocations
    tracemalloc.start()
    try:
        _engines._survival_backward_pair(family, table, env, n)
        replay_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _engines._draw_environment(model, rng_stream(2, 0), segment, log_mu, n, 2 * n, log_support)
        draw_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert replay_peak <= 320 * lanes
    assert draw_peak <= 3 * env.nbytes


def test_three_point_finite_step_allocates_nothing():
    """A finite template on {0, 1, 2} steps in place: temporaries of a few
    hundred kB per step made the finite replay several times slower."""
    family = make_environment("finite", 0.05, 0.025).family
    coefs = family.step_coefficients(family.law_params(np.linspace(0.9, 1.2, 16384)))
    r, out = np.full((2, 16384), 0.1), np.empty((2, 16384))
    family.survival_step(coefs, r, out)
    tracemalloc.start()
    try:
        family.survival_step(coefs, r, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16384  # one temporary takes 262,144 bytes


def test_u_only_replay_holds_less_than_the_pair():
    """The u-only replay's transients stay within the replay's allowance
    per lane beyond the storage budget, and below the pair's."""
    model = make_environment("poisson", 0.05, 0.025)
    family = model.family
    table = family.step_coefficients(family.law_params(model.support_means()))
    lanes, n = 4096, 1024
    env = rng_stream(1, 0).packed_bits(lanes * n).reshape(lanes, n // 8)
    _engines._survival_backward_pair(family, table, env[:1], n, slopes=True)  # first-use allocations
    peaks = []
    for slopes in (False, True):
        tracemalloc.start()
        try:
            _engines._survival_backward_pair(family, table, env, n, slopes)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] and peaks[1] <= _REPLAY_BYTES_PER_LANE * lanes


@pytest.mark.parametrize("noise, lanes, budget, n_max", [
    ("two_point", 333, 1 << 20, 3001),
    ("uniform", 100, 1 << 22, 2001),
])
def test_replay_chunked_draws_read_the_stream_as_one_block(monkeypatch, noise, lanes, budget, n_max):
    """A small budget splits every checkpoint's draws into chunks of 32 to
    128 rows (the odd final width included); the outputs stay bitwise those
    of one block per checkpoint."""
    model = make_environment("poisson", 0.02, 0.02, noise=noise)
    whole = _engines.gf_replay_batch(model, lanes, 5, 3, 1e-8, 1e-6, n_max)
    monkeypatch.setattr(_engines, "_MAX_BITS_BYTES", budget)
    chunked = _engines.gf_replay_batch(model, lanes, 5, 3, 1e-8, 1e-6, n_max)
    assert whole[1].any()  # some lanes reach n_max, so every width is drawn
    for a, b in zip(whole, chunked):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("budget", [None, 1 << 15])
def test_unaligned_replay_draw_reads_whole_row_bytes(monkeypatch, budget):
    """At n_max = 300 the last segment is 44 generations wide, 6 bytes a
    row.  Row i of each segment holds bytes [i cols, (i + 1) cols) of the
    stream's next raw outputs, the bits past the width cleared, and log_mu
    adds exactly the row's high and low means, counted from an unpackbits
    oracle.  A budget of 2**15 draws chunks of 32 rows."""
    if budget is not None:
        monkeypatch.setattr(_engines, "_MAX_BITS_BYTES", budget)
    model = make_environment("poisson", 0.05, 0.025)
    log_lo, log_hi = (math.log(m) for m in model.mean_bounds())
    draw = _engines._draw_environment
    draws = []

    def spy(model, stream, env, log_mu, n, target, log_support):
        before = stream.generator.bit_generator.state, log_mu.copy()
        draw(model, stream, env, log_mu, n, target, log_support)
        draws.append((before, env, log_mu.copy(), stream.generator.bit_generator.state, target - n))

    monkeypatch.setattr(_engines, "_draw_environment", spy)
    _engines.gf_replay_batch(model, 333, 4, 7, 1e-8, 1e-6, 300)
    # 322 lanes are live at n = 256: their 1,932 bytes end inside a 64-bit output
    assert [(env.shape, width) for _, env, _, _, width in draws] == [((333, 32), 256), ((322, 6), 44)]
    for (state, log_mu), env, new_log_mu, after, width in draws:
        twin = np.random.Philox()
        twin.state = state
        lanes, cols = env.shape
        rows = twin.random_raw(-(-lanes * cols // 8)).astype("<u8").view(np.uint8)[:lanes * cols].reshape(lanes, cols)
        assert repr(after) == repr(twin.state)
        expected = rows.copy()
        if width % 8:
            expected[:, -1] &= (1 << width % 8) - 1
        assert np.array_equal(env, expected)
        n_hi = np.unpackbits(rows, axis=1, count=width, bitorder="little").sum(axis=1, dtype=np.int64)
        assert new_log_mu.tobytes() == (log_mu + (n_hi * log_hi + (width - n_hi) * log_lo)).tobytes()


def test_gf_never_falls_back_to_the_scalar_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("gf_scalar_path is a test oracle, not an estimator route")

    monkeypatch.setattr(_engines, "gf_scalar_path", refuse)
    for name in ("poisson", "finite", "lf"):
        for noise in ("two_point", "uniform"):
            model = make_environment(epsilon=0.05, nu=0.025, noise=noise, **FAMILIES[name])
            res = estimate_survival_gf(model, n_reps=64, seed=4)
            assert 0.0 < res.estimate < 1.0 and res.n_flagged == 0


# ---------------------------------------------------------------------------
# Population simulation
# ---------------------------------------------------------------------------

# Every individual has exactly two children: a constant environment (nu = 0)
# of the finite family with a one-point template at 2.
DOUBLING = dict(family="finite", epsilon=1.0, nu=0.0, template=(0.0, 0.0, 1.0))


def test_population_trivia():
    res = simulate_population(make_environment(**DOUBLING), n_reps=500, seed=3)
    assert res.estimate == 1.0 and res.n_overrun == 0


def test_population_rejects_offspring_law():
    with pytest.raises(TypeError, match="nu = 0"):
        simulate_population(FinitePmf((0.0, 0.0, 1.0)), n_reps=10, seed=1)


def test_population_overrun_guard():
    # doubling every generation, the work budget runs out long before the cap
    res = simulate_population(
        make_environment(**DOUBLING), n_reps=50, seed=1, cap_multiplier=1e9, max_individuals=100
    )
    assert res.n_overrun == 50
    assert res.estimate == 1.0


def test_population_rejects_subcritical_model():
    model = make_environment("poisson", epsilon=0.02, nu=0.06)
    with pytest.raises(ValueError, match="rho"):
        simulate_population(model, n_reps=10, seed=1)


@pytest.mark.parametrize("cap_multiplier", [0.0, -5.0, math.inf, math.nan])
def test_population_rejects_cap_multiplier_outside_open_half_line(cap_multiplier):
    # 0 or below would cap every replicate at K = 2, and inf overflows ceil
    model = make_environment("poisson", epsilon=0.05, nu=0.025)
    with pytest.raises(ValueError, match="cap_multiplier"):
        simulate_population(model, n_reps=10, seed=1, cap_multiplier=cap_multiplier)


def test_population_agrees_with_gf_small():
    model = make_environment("poisson", epsilon=0.1, nu=0.0)
    gf = estimate_survival_gf(model, n_reps=10_000, seed=21)
    pop = simulate_population(model, n_reps=10_000, seed=22)
    joint = math.hypot(gf.std_error, pop.std_error)
    assert abs(gf.estimate - pop.estimate) <= 5.0 * joint


def test_population_lf_family_small():
    model = make_environment("linear_fractional", epsilon=0.1, nu=0.05)
    gf = estimate_survival_gf(model, n_reps=20_000, seed=23)
    pop = simulate_population(model, n_reps=20_000, seed=24)
    joint = math.hypot(gf.std_error, pop.std_error)
    assert abs(gf.estimate - pop.estimate) <= 5.0 * joint


def test_population_finite_uniform_noise_agrees_with_gf():
    # one tilted weight row per lane and generation, as the replay's
    # uniform-noise laws are
    model = make_environment("finite", epsilon=0.05, nu=0.025, noise="uniform")
    gf = estimate_survival_gf(model, n_reps=1000, seed=25)
    pop = simulate_population(model, n_reps=4000, seed=26)
    joint = math.hypot(gf.std_error, pop.std_error)
    assert pop.n_overrun == 0
    assert abs(gf.estimate - pop.estimate) <= 5.0 * joint


def _pmf_moments(pmf):
    """Mean, variance and fourth cumulant of a pmf on {0, 1, ...}."""
    values = np.arange(len(pmf))
    mean = float(np.dot(pmf, values))
    central = [float(np.dot(pmf, (values - mean) ** k)) for k in (2, 4)]
    return mean, central[0], central[1] - 3.0 * central[0] ** 2


def _lf_pmf(p0, p, top=400):
    return np.concatenate([[p0], (1.0 - p0) * (1.0 - p) * p ** np.arange(top)])


def _finite_sum(weights):
    return lambda gen, z: _engines._offspring_sum_finite(gen, np.tile(weights, (z.size, 1)), z)


# (id, sum of z offspring counts per lane, one individual's offspring pmf)
_KERNELS = [
    ("poisson", lambda gen, z: _engines._offspring_sum_poisson(gen, np.full(z.size, 1.3), z),
     [math.exp(-1.3) * 1.3**k / math.factorial(k) for k in range(60)]),
    ("lf", lambda gen, z: _engines._offspring_sum_lf(gen, 0.3, np.full(z.size, 0.4), z), _lf_pmf(0.3, 0.4)),
    ("lf-p0", lambda gen, z: _engines._offspring_sum_lf(gen, 0.3, np.zeros(z.size), z), _lf_pmf(0.3, 0.0)),
    ("finite5", _finite_sum([0.1, 0.2, 0.3, 0.25, 0.15]), [0.1, 0.2, 0.3, 0.25, 0.15]),
    ("finite-zero-top", _finite_sum([0.2, 0.5, 0.3, 0.0]), [0.2, 0.5, 0.3, 0.0]),
]


@pytest.mark.parametrize("z", [1, 5, 200])
@pytest.mark.parametrize("kernel, pmf", [k[1:] for k in _KERNELS], ids=[k[0] for k in _KERNELS])
def test_offspring_sum_kernels_match_their_moments(kernel, pmf, z):
    """Each kernel's sums of z offspring counts have mean z m and variance
    z sigma^2, within 5 sigma of the sample mean and variance."""
    lanes = 20_000
    sums = kernel(rng_stream(31, z).generator, np.full(lanes, z, dtype=np.int64))
    assert sums.shape == (lanes,) and sums.dtype == np.int64 and sums.min() >= 0
    mean, var, kappa4 = _pmf_moments(np.asarray(pmf, dtype=float))
    assert abs(sums.mean() - z * mean) <= 5.0 * math.sqrt(z * var / lanes)
    # Var(sample variance) ~ (mu4 - sigma^4) / n, with mu4 = kappa4 + 3 sigma^4 of the sum
    spread = math.sqrt((z * kappa4 + 2.0 * (z * var) ** 2) / lanes)
    assert abs(sums.var(ddof=1) - z * var) <= 5.0 * spread
    if pmf[-1] == 0.0:
        assert sums.max() <= z * (len(pmf) - 2)


def test_population_deterministic_given_seed():
    model = make_environment("poisson", epsilon=0.1, nu=0.0)
    a = simulate_population(model, n_reps=5000, seed=77)
    b = simulate_population(model, n_reps=5000, seed=77)
    assert a == b


def test_two_point_population_chances_match_per_lane_weights(monkeypatch):
    """Under two-point noise each lane's multinomial chances, its weight
    row, are bitwise the weights of its support law."""
    model = make_environment("finite", 0.05, 0.025)
    laws = [np.asarray(model.law_for_mean(m).weights) for m in model.support_means()]
    means, seen = [], []
    sample_means, offspring_sum = type(model).sample_means, _engines._offspring_sum_finite

    def record_means(self, *args, **kwargs):
        means.append(sample_means(self, *args, **kwargs))
        return means[-1]

    def record_weights(gen, weights, z):
        seen.append(weights)
        return offspring_sum(gen, weights, z)

    monkeypatch.setattr(type(model), "sample_means", record_means)
    monkeypatch.setattr(_engines, "_offspring_sum_finite", record_weights)
    _engines.population_batch(model, 500, 3, 0, 200, 10**6)
    assert len(seen) == len(means) > 5
    for m, weights in zip(means, seen):
        assert weights.shape == (m.size, 3)
        for mean, row in zip(m, weights):
            assert row.tobytes() == laws[int(mean > 1.05)].tobytes()


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_sweep_degenerate_ratios_increase():
    rows = haldane_sweep("poisson", rho=0.0, eps_list=(0.1, 0.05, 0.02), n_reps=100, seed=1)
    ratios = [row.ratio for row in rows]
    assert ratios[0] < ratios[1] < ratios[2] < 1.0
    for row in rows:
        assert row.prediction == pytest.approx(2 * row.epsilon, rel=1e-12)
        oracle = brentq(
            lambda x: 1 - math.exp(-(1 + row.epsilon) * x) - x, 1e-12, 1.0, xtol=1e-15
        )
        assert row.result.estimate == pytest.approx(oracle, abs=1e-5)


def test_sweep_subcritical_row():
    rows = haldane_sweep(
        "linear_fractional", rho=3.0, eps_list=[0.02], n_reps=2000, seed=6, n_max=4000
    )
    assert rows[0].prediction == 0.0
    assert rows[0].result.estimate < 5e-3
    assert rows[0].ratio == rows[0].result.estimate


def test_sweep_rows_without_prediction():
    # the paper predicts nothing at the transition rho = 2, nor at eps = 0
    # (rho = nu/eps = inf): those rows carry their estimate and no ratio
    at_transition = haldane_sweep("poisson", rho=2.0, eps_list=(0.05, 0.02), n_reps=256, seed=3, n_max=2000)
    assert [row.rho for row in at_transition] == [2.0, 2.0]
    ending_at_zero = haldane_sweep("poisson", rho=1.0, eps_list=(0.05, 0.0), n_reps=64, seed=3, n_max=500)
    assert ending_at_zero[0].prediction == pytest.approx(0.05) and ending_at_zero[1].rho == math.inf
    for row in (*at_transition, ending_at_zero[1]):
        assert (row.prediction, row.ratio) == (None, None)
        assert 0.0 < row.result.estimate < 1.0


def test_sweep_validation():
    with pytest.raises(ValueError, match="decreasing"):
        haldane_sweep("poisson", rho=0.0, eps_list=(0.02, 0.05), n_reps=10, seed=1)
    with pytest.raises(ValueError, match="rho"):
        haldane_sweep("poisson", rho=-1.0, eps_list=(0.05,), n_reps=10, seed=1)
