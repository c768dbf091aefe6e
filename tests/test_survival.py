"""Survival-module tests: path composition, the reciprocal-survival
identity, the closed-form composition oracle, estimators, and sweeps."""

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
    """Stand-in for an environment model that keeps every mean it hands out."""

    def __init__(self, model):
        self.family = model.family
        self._model = model
        self.means = []

    def sample_means(self, rng, size):
        means = self._model.sample_means(rng, size)
        self.means.extend(means.tolist())
        return means


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
    stride = _engines._CHECK_EVERY
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
        bits = stream.bits((rows, n))
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


@pytest.mark.parametrize("n", [1, 7, 64, 333])
@pytest.mark.parametrize("name", ["poisson", "finite", "finite5"])
def test_packed_replay_bitwise_equals_two_law_recursion(name, n):
    model = make_environment(epsilon=0.05, nu=0.05, **FAMILIES[name])
    _, bits, table, env = _replay_inputs(model, 40, n, seed=6)
    laws = [model.law_for_mean(m) for m in model.support_means()]
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
        0.07159124754394972, 0.0017518550593582816, 432
    )


@pytest.mark.parametrize("noise, lanes, horizon, matrix_bytes", [
    ("two_point", 64, 256, 64 * 256 // 8),
    ("uniform", 64, 256, 64 * 256 * 8),
])
def test_horizon_storage_guard_counts_bytes(monkeypatch, noise, lanes, horizon, matrix_bytes):
    # The matrix counts twice, because growing it, replaying a subset of its
    # rows and retiring lanes each copy it.
    model = make_environment("poisson", 0.05, 0.025, noise=noise)
    nbytes = 2 * matrix_bytes
    monkeypatch.setattr(_engines, "_MAX_BITS_BYTES", nbytes - 1)
    message = f"{lanes} live lanes to horizon {horizon} needs {nbytes} bytes"
    with pytest.raises(_engines.HorizonStorageError, match=message):
        estimate_survival_gf(model, n_reps=lanes, seed=2)
    monkeypatch.setattr(_engines, "_MAX_BITS_BYTES", nbytes)
    with pytest.raises(_engines.HorizonStorageError, match=f"to horizon {2 * horizon} "):
        estimate_survival_gf(model, n_reps=lanes, seed=2)
    # The grown matrix alone fits this budget, twice over it does not.
    monkeypatch.setattr(_engines, "_MAX_BITS_BYTES", 3 * matrix_bytes)
    with pytest.raises(_engines.HorizonStorageError, match=f"to horizon {2 * horizon} ") as info:
        estimate_survival_gf(model, n_reps=lanes, seed=2)
    live, needed = map(int, re.search(r"(\d+) live lanes .* needs (\d+) bytes", str(info.value)).groups())
    per_lane_generation = matrix_bytes / (lanes * horizon)
    assert needed == 2 * live * 2 * horizon * per_lane_generation
    assert live * 2 * horizon * per_lane_generation <= 3 * matrix_bytes


# Traced bytes per lane the replay may hold beyond its storage budget: the
# 32-generation coefficient block of one replay step (256 bytes per lane for
# the Poisson family) and the per-lane state vectors and masks.
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


def test_population_deterministic_given_seed():
    model = make_environment("poisson", epsilon=0.1, nu=0.0)
    a = simulate_population(model, n_reps=5000, seed=77)
    b = simulate_population(model, n_reps=5000, seed=77)
    assert a == b


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


def test_sweep_validation():
    with pytest.raises(ValueError, match="decreasing"):
        haldane_sweep("poisson", rho=0.0, eps_list=(0.02, 0.05), n_reps=10, seed=1)
    with pytest.raises(ValueError, match="rho"):
        haldane_sweep("poisson", rho=-1.0, eps_list=(0.05,), n_reps=10, seed=1)
