"""Perpetuity tests: environment coupling, regime arithmetic, series and
chain samplers, annuity diagnostics, and limit-law mapping."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from haldane import perpetuity
from haldane import (
    ConstantLaw,
    DiracLimit,
    FinitePmfFamily,
    InadmissibleRegimeError,
    InverseGammaParams,
    PerpetuityRegime,
    PerpetuitySpec,
    TwoPointLaw,
    annuity_residual,
    from_environment,
    ks_two_sample,
    limit_fit_test,
    limit_law,
    make_environment,
    regime_of,
    rng_stream,
)
from haldane.numerics import ks_threshold
from haldane.perpetuity import (
    _SERIES_CHECK_EVERY,
    NonContractiveError,
    _limit_shape_values,
    contraction_rate,
    default_burn_in,
    sample_chain_batch,
    sample_series_batch,
)


# ---------------------------------------------------------------------------
# Environment coupling
# ---------------------------------------------------------------------------

def test_from_environment_degenerate_pairs():
    model = make_environment("poisson", epsilon=0.05, nu=0.0)
    spec = from_environment(model)
    a, b = spec.sample_pairs(rng_stream(1, 0), 100)
    # Poisson laws have limit shape value 1/2 regardless of the rate
    assert np.all(a == 0.5)
    assert np.allclose(b, 1 / 1.05, atol=1e-15)
    assert spec.coupled


def test_from_environment_two_point_support():
    model = make_environment("poisson", epsilon=0.01, nu=0.01)
    spec = from_environment(model)
    _, b = spec.sample_pairs(rng_stream(1, 1), 2000)
    assert set(np.round(np.unique(b), 12)) == {
        round(1 / 1.11, 12),
        round(1 / 0.91, 12),
    }


def test_alpha_approaches_half_variance():
    # E[A] -> sigma^2/2 as the environment parameters vanish
    for family, sigma_sq in (("poisson", 1.0), ("linear_fractional", 2 * 0.3 / 0.7)):
        alphas = []
        for eps in (0.05, 0.005):
            model = make_environment(family, epsilon=eps, nu=eps / 2)
            alphas.append(regime_of(from_environment(model)).alpha)
        assert abs(alphas[1] - sigma_sq / 2) < abs(alphas[0] - sigma_sq / 2) + 1e-12
        assert alphas[1] == pytest.approx(sigma_sq / 2, rel=0.02)


@pytest.mark.parametrize("noise", ["two_point", "uniform"])
def test_finite_shape_values_match_per_mean_loop(noise):
    model = make_environment("finite", epsilon=0.02, nu=0.02, noise=noise)
    means = model.sample_means(rng_stream(8, 0), size=200)
    expected = np.array([model.law_for_mean(float(m)).shape_at_one() for m in means])
    assert np.array_equal(_limit_shape_values(model, means), expected)


def test_finite_shape_values_five_point_template():
    # the vectorized uniform-noise shape sums five terms per row in another
    # order than the per-law fsum, so it agrees to rounding, not bit for bit
    template = (0.35, 0.3, 0.15, 0.1, 0.1)
    model = make_environment("finite", epsilon=0.02, nu=0.02, noise="uniform", template=template)
    means = model.sample_means(rng_stream(8, 1), size=2000)
    expected = np.array([model.law_for_mean(float(m)).shape_at_one() for m in means])
    np.testing.assert_allclose(_limit_shape_values(model, means), expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("template", [(0.25, 0.5, 0.25), (0.1, 0.2, 0.3, 0.25, 0.15)])
@pytest.mark.parametrize("nu", [0.02, 0.0])
def test_finite_two_point_bounds_take_the_support_laws_only(monkeypatch, template, nu):
    # two-point and degenerate noise draw A at the support means only, so
    # the bound on A and the series build those laws once (a grid of means
    # cost 65 tilt solves per spec)
    calls = []
    law_for_mean = FinitePmfFamily.law_for_mean
    monkeypatch.setattr(FinitePmfFamily, "law_for_mean",
                        lambda self, m: calls.append(m) or law_for_mean(self, m))
    model = make_environment("finite", epsilon=0.02, nu=nu, template=template)
    spec = from_environment(model)
    shapes = [law_for_mean(model.family, m).shape_at_one() for m in model.support_means()]
    assert spec.a_upper() == max(shapes) * (1.0 + 1e-9)
    sample_series_batch(spec, 100, rng_stream(4, 0))
    assert sorted(calls) == sorted(model.support_means())


def test_uniform_bound_on_a_covers_the_drawn_means():
    model = make_environment("finite", epsilon=0.02, nu=0.02, noise="uniform", template=(0.1, 0.2, 0.3, 0.25, 0.15))
    means = model.sample_means(rng_stream(8, 2), size=2000)
    assert from_environment(model).a_upper() >= _limit_shape_values(model, means).max()


def _pairs_from_means(model, means):
    """The coupled pair mapped from drawn means one by one: A = 1/2
    (Poisson), 1/(1-p0) - 1/m (linear-fractional) or the law's shape at
    one (finite), and B = 1/m."""
    family = model.family
    if family.name == "poisson":
        a = np.full(means.shape, 0.5)
    elif family.name == "linear_fractional":
        a = 1.0 / (1.0 - family.p0) - 1.0 / means
    else:
        shape = {m: model.law_for_mean(m).shape_at_one() for m in model.support_means()}
        a = np.vectorize(shape.__getitem__, otypes=[float])(means)
    return a, 1.0 / means


_TWO_POINT_MODELS = {
    "poisson": lambda: make_environment("poisson", 0.05, 0.05),
    "lf": lambda: make_environment("linear_fractional", 0.05, 0.05),
    "finite": lambda: make_environment("finite", 0.05, 0.05),
    "finite5": lambda: make_environment("finite", 0.05, 0.025, template=(0.1, 0.2, 0.3, 0.25, 0.15)),
}


@pytest.mark.parametrize("rows", [1, 8])
@pytest.mark.parametrize("name", sorted(_TWO_POINT_MODELS))
def test_two_point_pairs_match_pairs_from_means(name, rows):
    """Under two-point noise, over ``rows`` successive draws, the pairs
    are bitwise those of the drawn means, and the stream reads on as after
    the means draws (the bits past each draw's count included)."""
    model = _TWO_POINT_MODELS[name]()
    spec = from_environment(model)
    for width in (1, 31, 33, 4097):
        rng, twin = rng_stream(14, width), rng_stream(14, width)
        for _ in range(rows):
            a, b = spec.sample_pairs(rng, width)
            ref_a, ref_b = _pairs_from_means(model, model.sample_means(twin, width))
            assert a.shape == b.shape == ref_a.shape == (width,)
            assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b)
        next_words = (r.generator.integers(0, 2**32, 4, dtype=np.uint32) for r in (rng, twin))
        assert np.array_equal(*next_words)


@pytest.mark.parametrize("name", sorted(_TWO_POINT_MODELS))
def test_packed_pairs_step_as_the_pairs_do(name):
    """Packed pairs are ceil(rows / 8) rows of lane bytes, row 0 the
    model's lane bytes, and the byte tables hold, bitwise, what w one-term
    steps from (sum, discount) = (0, 1) give over a row's block of w
    terms.  The terms come from the same stream words read lane-major: 8
    float pairs per lane, reshaped to (lanes, 8), hold lane i's terms of
    the row in row i, and reading them uses the stream as the lane bytes
    do."""
    model = _TWO_POINT_MODELS[name]()
    spec = from_environment(model)
    sums, products = spec.byte_tables()
    for rows in (*range(1, 10), 20, 63, 64):
        rng, twin = rng_stream(16, rows), rng_stream(16, rows)
        lane_bytes = spec.sample_pairs(rng, rows * 4097, rows, packed=True)
        assert lane_bytes.shape == (-(-rows // 8), 4097)
        assert np.array_equal(lane_bytes[0], model.sample_means(twin, min(rows, 8) * 4097, min(rows, 8), packed=True))
        one_term = rng_stream(16, rows)
        for r, row in enumerate(lane_bytes):
            w = min(8, rows - 8 * r)
            a, b = (x.reshape(-1, 8)[:4097] for x in spec.sample_pairs(one_term, 64 * -(-4097 // 8)))
            acc, c = np.zeros(4097), np.ones(4097)
            for j in range(w):
                acc, c = acc + c * a[:, j], c * b[:, j]
            assert np.all(row >> w == 0)
            assert np.array_equal(sums[w][row], acc)
            assert np.array_equal(products[w][row], c)
        next_words = (r.generator.integers(0, 2**32, 4, dtype=np.uint32) for r in (rng, one_term))
        assert np.array_equal(*next_words)


def test_packed_pairs_need_a_two_point_environment():
    for spec in (_ORACLE_SPECS["poisson-uniform"](), _ORACLE_SPECS["scalar"](), _ORACLE_SPECS["finite-nu0"]()):
        assert spec.byte_tables() is None
        with pytest.raises(ValueError, match="two-point"):
            spec.sample_pairs(rng_stream(1, 0), 8, 8, packed=True)


def test_series_peak_memory_per_lane_plus_two_blocks():
    """25,000 lanes draw 64 terms per call.  The traced peak stays within
    one float64 row of A and of B plus 64 bytes per lane, the bound of
    pairs drawn one term at a time; a two-point spec draws 8 bytes per
    lane instead, and stays within 96 bytes per lane: its state (values,
    flags, index, discount, sum and term, 41 bytes), the intp row buffer
    (8 bytes), the draw (8 stream bytes) and the masks and compacted
    copies of a retirement.
    One live float64 block (64 bytes per lane at 8 rows) would pass that
    bound, but not the 8 rows cast to intp as one block."""
    lanes = 25_000
    spec = from_environment(make_environment("linear_fractional", 0.05, 0.05))
    sample_series_batch(spec, 64, rng_stream(9, 0))  # first-use allocations
    tracemalloc.start()
    try:
        values, flags = sample_series_batch(spec, lanes, rng_stream(9, 1), tol=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not flags.any()
    assert peak <= 64 * lanes + 2 * 8 * lanes
    assert peak <= 96 * lanes


def test_two_point_law_sample_exact_values():
    law = TwoPointLaw(0.3, 1.7)
    n = 1_000_000
    x = law.sample(rng_stream(7, 0), n)
    is_hi = x == 1.7
    assert np.all(is_hi | (x == 0.3))
    # share of the upper value within 5 sigma of 1/2
    assert abs(np.count_nonzero(is_hi) / n - 0.5) <= 5.0 * 0.5 / math.sqrt(n)
    assert np.array_equal(x, law.sample(rng_stream(7, 0), n))


def test_spec_construction_validation():
    with pytest.raises(ValueError):
        PerpetuitySpec()  # neither scalar laws nor a model
    with pytest.raises(ValueError):
        PerpetuitySpec(
            a_law=ConstantLaw(1.0),
            b_law=ConstantLaw(0.5),
            model=make_environment("poisson", epsilon=0.01, nu=0.0),
        )
    with pytest.raises(ValueError):
        ConstantLaw(-1.0)
    with pytest.raises(ValueError):
        TwoPointLaw(0.5, 0.2)


# ---------------------------------------------------------------------------
# Regimes
# ---------------------------------------------------------------------------

def test_regime_constant_discount():
    regime = regime_of(PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=ConstantLaw(0.99)))
    assert regime.beta == pytest.approx(0.01, abs=1e-15)
    assert regime.gamma == 0.0
    assert math.isinf(regime.rho_hat)


def test_regime_environment_expansions():
    # beta = eps - nu + o(eps), gamma = nu + o(eps) from exact reciprocals
    eps = 0.01
    model = make_environment("poisson", epsilon=eps, nu=eps)
    regime = regime_of(from_environment(model))
    assert abs(regime.beta - 0.0) <= 3 * eps**2
    assert regime.gamma == pytest.approx(eps, rel=0.05)
    model = make_environment("poisson", epsilon=eps, nu=eps / 2)
    regime = regime_of(from_environment(model))
    assert regime.beta == pytest.approx(eps / 2, rel=0.1)
    assert regime.gamma == pytest.approx(eps / 2, rel=0.05)


def test_regime_inadmissible_two_point():
    # E[B] = 1.05 so beta = -0.05, below -gamma/2 = -0.03125
    spec = PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=TwoPointLaw(0.8, 1.3))
    with pytest.raises(InadmissibleRegimeError):
        regime_of(spec)
    # both samplers gate on admissibility before computing a contraction rate
    for sampler in (sample_series_batch, sample_chain_batch):
        with pytest.raises(InadmissibleRegimeError):
            sampler(spec, 10, rng_stream(1, 0))


# ---------------------------------------------------------------------------
# Limit laws
# ---------------------------------------------------------------------------

def test_limit_law_mapping():
    dirac = limit_law(PerpetuityRegime(beta=0.01, gamma=0.0, rho_hat=math.inf, alpha=0.5))
    assert isinstance(dirac, DiracLimit) and dirac.alpha == 0.5
    ig = limit_law(PerpetuityRegime(beta=0.0, gamma=0.1, rho_hat=0.0, alpha=0.5))
    assert isinstance(ig, InverseGammaParams)
    assert (ig.a, ig.b) == (1.0, 1.0)
    ig = limit_law(PerpetuityRegime(beta=0.1, gamma=0.1, rho_hat=1.0, alpha=1.0))
    assert (ig.a, ig.b) == (3.0, 2.0)


def test_limit_law_region_error():
    with pytest.raises(InadmissibleRegimeError):
        PerpetuityRegime(beta=-0.2, gamma=0.1, rho_hat=-2.0, alpha=1.0)


@pytest.mark.parametrize("rho_hat", [-0.5, -3.0, math.nan])
def test_limit_law_rejects_rho_hat_outside_its_domain(rho_hat):
    # an admissible (beta, gamma) beside a rho_hat that no regime_of gives
    with pytest.raises(InadmissibleRegimeError, match="outside"):
        limit_law(PerpetuityRegime(beta=0.1, gamma=0.1, rho_hat=rho_hat, alpha=1.0))


# ---------------------------------------------------------------------------
# Contraction rate
# ---------------------------------------------------------------------------

_RATE_SPECS = {
    "poisson-two-point": lambda: from_environment(make_environment("poisson", 0.02, 0.02)),
    "lf-two-point": lambda: from_environment(make_environment("linear_fractional", 0.05, 0.1)),
    "poisson-uniform": lambda: from_environment(make_environment("poisson", 0.02, 0.02, noise="uniform")),
    "finite-uniform": lambda: from_environment(make_environment("finite", 0.05, 0.05, noise="uniform")),
    "scalar-two-point": lambda: PerpetuitySpec(a_law=TwoPointLaw(0.2, 0.8), b_law=TwoPointLaw(0.9, 1.05)),
    "scalar-two-point-zero": lambda: PerpetuitySpec(a_law=TwoPointLaw(0.2, 0.8), b_law=TwoPointLaw(0.0, 1.5)),
    "constant": lambda: PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=ConstantLaw(0.5)),
    "bound-rho-0.25": lambda: from_environment(make_environment("poisson", 0.02, 0.005)),
    "bound-rho-0.25-uniform": lambda: from_environment(make_environment("poisson", 0.02, 0.005, noise="uniform")),
}


@pytest.mark.parametrize("name", sorted(_RATE_SPECS))
def test_contraction_rate_against_bounded_brent(name):
    # the minimum is never above SciPy's bounded Brent's, which stops about
    # sqrt(eps) u short of a bound where the minimum sits on it
    from scipy.optimize import minimize_scalar

    spec = _RATE_SPECS[name]()
    oracle = minimize_scalar(spec.b_power_mean, bounds=(1e-6, 1.0 - 1e-6), method="bounded",
                             options={"xatol": 1e-10})
    u, theta = contraction_rate(spec)
    assert 1e-6 <= u <= 1.0 - 1e-6
    assert spec.b_power_mean(u) == math.exp(-theta)
    assert spec.b_power_mean(u) <= oracle.fun * (1.0 + 1e-15)
    if name.startswith(("bound", "scalar-two-point", "constant")):
        assert u in (1e-6, 1.0 - 1e-6)
    else:
        assert u == pytest.approx(oracle.x, abs=1e-6)


@pytest.mark.parametrize("b_law", [ConstantLaw(1.0), TwoPointLaw(1.0, 1.5)])
def test_contraction_rate_rejects_discounts_never_below_one(b_law):
    with pytest.raises(NonContractiveError, match="cannot be certified"):
        contraction_rate(PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=b_law))


@pytest.mark.parametrize("eps, nu", [(0.02, 0.02), (0.05, 0.05), (0.01, 0.015), (0.001, 0.001)])
def test_two_valued_contraction_rate_closed_form(eps, nu):
    # E[m^-u] = (m_lo^-u + m_hi^-u)/2 is stationary where
    # (m_hi/m_lo)^u = log m_hi / -log m_lo, inside (0, 1) at these rho >= 1
    m_lo, m_hi = 1.0 + eps - math.sqrt(nu), 1.0 + eps + math.sqrt(nu)
    u_star = math.log(math.log(m_hi) / -math.log(m_lo)) / (math.log(m_hi) - math.log(m_lo))
    theta_star = -math.log(0.5 * (m_lo**-u_star + m_hi**-u_star))
    u, theta = contraction_rate(from_environment(make_environment("poisson", eps, nu)))
    assert u == pytest.approx(u_star, rel=1e-12)
    assert theta == pytest.approx(theta_star, rel=1e-12)
    lo, hi = 0.5, 1.8  # the same for a scalar two-point B
    u_star = math.log(-math.log(lo) / math.log(hi)) / math.log(hi / lo)
    u, theta = contraction_rate(PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=TwoPointLaw(lo, hi)))
    assert u == pytest.approx(u_star, rel=1e-12)
    assert theta == pytest.approx(-math.log(0.5 * (lo**u_star + hi**u_star)), rel=1e-12)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def test_series_geometric():
    spec = PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=ConstantLaw(0.5))
    values, flags = sample_series_batch(spec, 1, rng_stream(1, 0), tol=1e-9)
    assert not flags[0]
    assert values[0] == pytest.approx(2.0, abs=1e-8)


def test_series_zero_discount():
    spec = PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=ConstantLaw(0.0))
    values, flags = sample_series_batch(spec, 1, rng_stream(1, 0))
    assert values[0] == 1.0 and not flags[0]


def test_series_rejects_empty_horizon():
    # with no term summed no lane has met its tail bound
    spec = PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=ConstantLaw(0.5))
    with pytest.raises(ValueError, match="horizon"):
        sample_series_batch(spec, 4, rng_stream(1, 0), k_max=0)


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.inf, math.nan])
def test_series_rejects_tol_outside_open_half_line(tol):
    # tol <= 0 never stops a lane before k_max; inf stops every lane at once
    spec = PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=TwoPointLaw(0.3, 0.9))
    with pytest.raises(ValueError, match="tol"):
        sample_series_batch(spec, 4, rng_stream(1, 0), tol=tol)
    with pytest.raises(ValueError, match="tol"):
        perpetuity.limit_fit_test(spec, 4, rng_stream(1, 0), tol=tol)


def test_fit_rejects_fewer_than_two_samples():
    spec = PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=TwoPointLaw(0.3, 0.9))
    with pytest.raises(ValueError, match="n_samples must be at least 2, got 1"):
        perpetuity.limit_fit_test(spec, 1, rng_stream(1, 0))


def test_series_fixed_point_value_constant_spec():
    # the truncated sum must satisfy the annuity recursion up to tol
    spec = PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=ConstantLaw(0.5))
    (y,), flags = sample_series_batch(spec, 1, rng_stream(1, 0), tol=1e-10)
    assert not flags[0]
    assert abs(y - (1.0 + 0.5 * y)) < 1e-10


def test_series_degenerate_env_mean_identity():
    # with a degenerate environment the series is deterministic: beta Y = alpha
    model = make_environment("poisson", epsilon=0.01, nu=0.0)
    spec = from_environment(model)
    regime = regime_of(spec)
    (y,), flags = sample_series_batch(spec, 1, rng_stream(2, 0), tol=1e-10)
    assert not flags[0]
    assert regime.beta * y == pytest.approx(regime.alpha, rel=1e-6)


def test_series_mean_identity_random_spec():
    model = make_environment("linear_fractional", epsilon=0.05, nu=0.025)
    spec = from_environment(model)
    regime = regime_of(spec)
    values, flags = sample_series_batch(spec, 20_000, rng_stream(2, 1))
    assert not flags.any()
    target = regime.alpha / regime.beta
    se = float(np.std(values, ddof=1)) / math.sqrt(values.size)
    assert float(np.mean(values)) == pytest.approx(target, abs=5 * se)


def _series_one_term_per_draw(spec, n, rng, *, k_max=200_000):
    """The series sampler stepping one term at a time (the loop the block
    draws replaced), at the default tolerance, testing the rule every 64
    terms.  Specs without byte tables draw each term by ``sample_pairs``.
    A two-point spec reads the stream lane-major, as its block draws do:
    each 64-term check interval unpacks 8 * ceil(live / 8) raw 64-bit
    outputs of ``rng`` as 8 groups of ceil(live / 8) into an (8, live, 8)
    bit array whose bit (r, i, j) selects lane i's support mean for the
    interval's term 8 r + j, mapped to its pair by
    :func:`_pairs_from_means`; an interval cut short by ``k_max`` reads
    only the groups it needs."""
    every = 64
    _, theta = contraction_rate(spec)
    tail_scale = spec.a_upper() if math.isinf(theta) else spec.a_upper() / (-math.expm1(-theta))
    c_tol = 1e-6 / max(tail_scale, 1e-300)
    values = np.zeros(n)
    flags = np.ones(n, dtype=bool)
    idx = np.arange(n)
    c = np.ones(n)
    acc = np.zeros(n)
    lane_major = spec.byte_tables() is not None
    if lane_major:
        bit_generator = rng.generator.bit_generator
        support = _pairs_from_means(spec.model, np.array(spec.model.mean_bounds()))
    for k in range(1, k_max + 1):
        if not lane_major:
            a, b = spec.sample_pairs(rng, idx.size)
        else:
            t = (k - 1) % every
            if t == 0:
                groups = -(-min(every, k_max - k + 1) // 8)
                raw = bit_generator.random_raw(groups * -(-idx.size // 8)).astype("<u8").view(np.uint8)
                flips = np.unpackbits(raw, bitorder="little").reshape(groups, -1, 8)[:, :idx.size]
            a, b = (x.take(flips[t // 8, :, t % 8]) for x in support)
        acc += c * a
        c *= b
        if k % every and k < k_max:
            continue
        done = c < c_tol
        if np.any(done):
            values[idx[done]] = acc[done]
            flags[idx[done]] = False
            keep = ~done
            idx, c, acc = idx[keep], c[keep], acc[keep]
            if idx.size == 0:
                break
    if idx.size:
        values[idx] = acc
    return values, flags


_ORACLE_SPECS = {
    "poisson": lambda: from_environment(make_environment("poisson", 0.05, 0.05)),
    "finite": lambda: from_environment(make_environment("finite", 0.05, 0.05)),
    "lf": lambda: from_environment(make_environment("linear_fractional", 0.05, 0.05)),
    "poisson-uniform": lambda: from_environment(make_environment("poisson", 0.05, 0.05, "uniform")),
    "scalar": lambda: PerpetuitySpec(a_law=TwoPointLaw(0.2, 0.8), b_law=TwoPointLaw(0.9, 1.05)),
    # nu = 0: the finite family takes the per-distinct-mean shape path
    "finite-nu0": lambda: from_environment(make_environment("finite", 0.05, 0.0)),
}


@pytest.mark.parametrize("k_max", [5, 21, 100, 200_000])
@pytest.mark.parametrize("name", sorted(_ORACLE_SPECS))
def test_series_block_draws_match_one_term_per_draw(name, k_max):
    # k_max = 5, 21 and 100 cut the last block short.  Two-point environments
    # step whole blocks through byte tables, which round once per block,
    # so their values match to rounding; the other specs' float rows match
    # bitwise.  Flags and stream use match exactly
    spec = _ORACLE_SPECS[name]()
    for n in (1, 33, 4097, 20_000):
        rng, ref_rng = rng_stream(12, n), rng_stream(12, n)
        values, flags = sample_series_batch(spec, n, rng, k_max=k_max)
        ref_values, ref_flags = _series_one_term_per_draw(spec, n, ref_rng, k_max=k_max)
        if spec.byte_tables() is None:
            assert np.array_equal(values, ref_values)
        np.testing.assert_allclose(values, ref_values, rtol=1e-12, atol=0.0)
        assert np.array_equal(flags, ref_flags)
        next_words = (r.generator.integers(0, 2**32, 4, dtype=np.uint32) for r in (rng, ref_rng))
        assert np.array_equal(*next_words)


@pytest.mark.parametrize("k_max", [100, 200_000])
@pytest.mark.parametrize("name", ["poisson", "lf", "poisson-uniform", "scalar"])
def test_series_lanes_stop_every_64_terms_below_the_tail_bound(monkeypatch, name, k_max):
    """Every lane stops at a multiple of 64 terms with its discount below
    the tail bound's c_tol, or runs to k_max; a lane checked above c_tol
    runs on.  The checks are observed through the kernel's advance and
    stop, counting the terms drawn since the start."""
    spec = _ORACLE_SPECS[name]()
    _, theta = contraction_rate(spec)
    c_tol = 1e-6 / (spec.a_upper() / (-math.expm1(-theta)))
    checks = []

    def observed(n_lanes, n_max, every, advance, stop):
        terms = [0]

        def counted(acc, c, rows):
            terms[0] += rows
            return advance(acc, c, rows)

        def checked(acc, c, prev):
            done = stop(acc, c, prev)
            checks.append((terms[0], c.copy(), done.copy()))
            return done

        return annuity_batch(n_lanes, n_max, every, counted, checked)

    annuity_batch = perpetuity.annuity_batch
    monkeypatch.setattr(perpetuity, "annuity_batch", observed)
    n = 4097
    _, flags = sample_series_batch(spec, n, rng_stream(5, 2), k_max=k_max)
    stopped = 0
    for terms, c, done in checks:
        assert terms % _SERIES_CHECK_EVERY == 0 or terms == k_max
        assert np.array_equal(done, c < c_tol)
        stopped += np.count_nonzero(done)
    assert _SERIES_CHECK_EVERY == 64
    assert checks[-1][0] <= k_max
    assert stopped == n - np.count_nonzero(flags)
    assert (checks[-1][0] == k_max) == bool(flags.any())


@pytest.mark.parametrize(
    "make_spec",
    [_ORACLE_SPECS["finite-nu0"], lambda: PerpetuitySpec(a_law=ConstantLaw(0.5), b_law=ConstantLaw(0.99))],
    ids=["finite-nu0", "constant"],
)
def test_constant_series_run_one_lane(monkeypatch, make_spec):
    # every lane of a constant spec does the same arithmetic, so one lane
    # repeated gives the one-term oracle's values and flags bitwise; its
    # pairs read no stream words
    spec = make_spec()
    assert spec.constant
    widths = []
    draw = PerpetuitySpec.sample_pairs
    monkeypatch.setattr(PerpetuitySpec, "sample_pairs",
                        lambda self, rng, size: widths.append(size) or draw(self, rng, size))
    for k_max in (5, 21, 200_000):
        for n in (1, 33, 4097):
            widths.clear()
            values, flags = sample_series_batch(spec, n, rng_stream(12, n), k_max=k_max)
            assert set(widths) == {1}
            rng = rng_stream(12, n)
            ref_values, ref_flags = _series_one_term_per_draw(spec, n, rng, k_max=k_max)
            assert np.array_equal(values, ref_values) and np.array_equal(flags, ref_flags)
            next_words = (r.generator.integers(0, 2**32, 4, dtype=np.uint32) for r in (rng, rng_stream(12, n)))
            assert np.array_equal(*next_words)


def test_only_packed_pairs_take_rows():
    for name in ("poisson", "poisson-uniform", "scalar", "finite-nu0"):
        with pytest.raises(ValueError, match="only packed pairs"):
            _ORACLE_SPECS[name]().sample_pairs(rng_stream(1, 0), 16, 2)


def test_empty_series_returns_without_drawing(monkeypatch):
    calls = []
    draw = PerpetuitySpec.sample_pairs
    monkeypatch.setattr(PerpetuitySpec, "sample_pairs", lambda *args: calls.append(args) or draw(*args))
    spec = from_environment(make_environment("poisson", 0.05, 0.05))
    rng = rng_stream(3, 3)
    values, flags = sample_series_batch(spec, 0, rng)
    assert values.shape == flags.shape == (0,) and calls == []
    assert rng.generator.integers(0, 2**32) == rng_stream(3, 3).generator.integers(0, 2**32)


def test_chain_contraction():
    spec = PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=ConstantLaw(0.5))
    assert sample_chain_batch(spec, 1, rng_stream(1, 0), burn_in=60)[0] == pytest.approx(2.0, abs=1e-12)
    spec0 = PerpetuitySpec(a_law=ConstantLaw(0.7), b_law=ConstantLaw(0.0))
    assert sample_chain_batch(spec0, 1, rng_stream(1, 0), burn_in=1)[0] == 0.7


def test_default_burn_in_forgetting():
    spec = from_environment(make_environment("poisson", epsilon=0.02, nu=0.02))
    u, theta = contraction_rate(spec)
    t = default_burn_in(spec)
    assert (spec.b_power_mean(u)) ** (t / u) < 1e-8


def test_default_burn_in_of_a_zero_discount_is_one():
    # E[B**u] = 0: the rate is infinite and the first step forgets the start
    spec = PerpetuitySpec(a_law=ConstantLaw(0.7), b_law=ConstantLaw(0.0))
    assert contraction_rate(spec)[1] == math.inf
    assert default_burn_in(spec) == 1


def test_chain_and_series_share_law():
    spec = from_environment(make_environment("poisson", epsilon=0.05, nu=0.025))
    n = 5000
    series, _ = sample_series_batch(spec, n, rng_stream(9, 0))
    chain = sample_chain_batch(spec, n, rng_stream(9, 1))
    assert ks_two_sample(series, chain) < ks_threshold(n, n, alpha=0.01)


# ---------------------------------------------------------------------------
# Annuity diagnostics
# ---------------------------------------------------------------------------

def test_annuity_residual_zero_discount_constant():
    # B = 0 makes both samples identical copies of the constant A
    spec = PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=ConstantLaw(0.0))
    assert annuity_residual(spec, 1000, rng_stream(3, 0)) == 0.0


def test_annuity_residual_zero_discount_two_point():
    spec = PerpetuitySpec(a_law=TwoPointLaw(0.5, 1.5), b_law=ConstantLaw(0.0))
    ks = annuity_residual(spec, 5000, rng_stream(3, 1))
    assert ks < ks_threshold(5000, 5000, alpha=0.01)


def test_annuity_residual_environment():
    spec = from_environment(make_environment("poisson", epsilon=0.02, nu=0.02))
    n = 10_000
    ks = annuity_residual(spec, n, rng_stream(3, 2))
    assert ks < ks_threshold(n, n, alpha=0.01)


def test_annuity_residual_needs_samples():
    spec = PerpetuitySpec(a_law=ConstantLaw(1.0), b_law=ConstantLaw(0.5))
    with pytest.raises(ValueError):
        annuity_residual(spec, 100, rng_stream(0, 0))


# ---------------------------------------------------------------------------
# Limit fits
# ---------------------------------------------------------------------------

def test_limit_fit_constant_concentrates():
    spec = PerpetuitySpec(a_law=ConstantLaw(0.5), b_law=ConstantLaw(0.99))
    fit = limit_fit_test(spec, 2000, rng_stream(4, 0))
    assert fit.scaled_by == "beta"
    assert fit.concentration == 1.0
    assert fit.ks_distance is None


def test_limit_fit_environment_inverse_gamma():
    spec = from_environment(make_environment("poisson", epsilon=0.02, nu=0.02))
    fit = limit_fit_test(spec, 10_000, rng_stream(4, 1), tol=1e-4)
    assert fit.scaled_by == "gamma"
    assert isinstance(fit.limit, InverseGammaParams)
    regime = regime_of(spec)
    assert fit.limit.a == pytest.approx(2 * regime.rho_hat + 1)
    assert fit.limit.b == pytest.approx(2 * regime.alpha)
    assert fit.ks_distance < 0.05
    assert fit.n_flagged == 0


def test_flagged_series_draws_are_reported(monkeypatch):
    """Draws cut at k_max reach the fit's n_flagged, and the annuity
    diagnostic refuses them."""
    spec = from_environment(make_environment("poisson", epsilon=0.02, nu=0.02))
    # 16 terms leave every discount near 0.98**16, far above the tail bound
    short = functools.partial(perpetuity.sample_series_batch, k_max=16)
    monkeypatch.setattr(perpetuity, "sample_series_batch", short)
    fit = limit_fit_test(spec, 1000, rng_stream(4, 2), tol=1e-3)
    assert fit.n_flagged == 1000
    with pytest.raises(NonContractiveError, match="1000 of 1000"):
        annuity_residual(spec, 1000, rng_stream(4, 3))
