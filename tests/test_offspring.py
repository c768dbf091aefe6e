"""Offspring-law unit and property tests.

Expected values are frozen from independent closed forms (stated next to
each assertion); near-one shape accuracy is checked against an
arbitrary-precision evaluation of the defining difference.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haldane import FinitePmf, LinearFractional, Poisson, rng_stream


# ---------------------------------------------------------------------------
# Law strategies
# ---------------------------------------------------------------------------

def finite_pmfs():
    def normalize(raw):
        total = math.fsum(raw)
        return FinitePmf(tuple(v / total for v in raw))

    return (
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8)
        .filter(lambda raw: math.fsum(raw[1:]) > 1e-3 and math.fsum(raw) > 1e-2)
        .map(normalize)
    )


def poissons():
    return st.floats(0.05, 8.0).map(Poisson)


def linear_fractionals():
    return st.builds(
        LinearFractional,
        p0=st.floats(0.0, 0.9),
        p=st.floats(0.0, 0.9),
    )


def any_law():
    return st.one_of(poissons(), linear_fractionals(), finite_pmfs())


# ---------------------------------------------------------------------------
# Frozen-value examples
# ---------------------------------------------------------------------------

def test_pgf_values():
    assert Poisson(1.0).pgf(1.0) == pytest.approx(1.0, abs=1e-15)
    # closed form exp(lam*(s-1)) at s=0
    assert Poisson(1.0).pgf(0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert LinearFractional(0.3, 0.2).pgf(0.0) == pytest.approx(0.3, abs=1e-15)


def test_pgf_domain_errors():
    with pytest.raises(ValueError):
        Poisson(1.0).pgf(-0.1)
    with pytest.raises(ValueError):
        Poisson(1.0).pgf(1.5)
    with pytest.raises(ValueError):
        FinitePmf((0.5, 0.5)).shape(np.array([0.2, 1.2]))


def test_constructor_validation():
    with pytest.raises(ValueError):
        Poisson(0.0)
    with pytest.raises(ValueError):
        LinearFractional(1.0, 0.2)
    with pytest.raises(ValueError):
        LinearFractional(0.2, 1.0)
    with pytest.raises(ValueError):
        FinitePmf((0.5, 0.4))  # does not sum to 1
    with pytest.raises(ValueError):
        FinitePmf((-0.1, 1.1))
    with pytest.raises(ValueError):
        FinitePmf((1.0,) + (0.0,) * 70)  # support cap 64


def test_mean_values():
    assert Poisson(1.1).mean() == pytest.approx(1.1, abs=1e-15)
    # (1 - p0) / (1 - p) = 0.7 / 0.8
    assert LinearFractional(0.3, 0.2).mean() == pytest.approx(0.875, abs=1e-15)
    assert FinitePmf((0.25, 0.5, 0.25)).mean() == pytest.approx(1.0, abs=1e-15)


def test_finite_mean_is_the_weights_fsum_and_leaves_equality_alone():
    weights = (0.1, 0.2, 0.3, 0.25, 0.15)
    law = FinitePmf(weights)
    assert law.mean() == math.fsum(z * w for z, w in enumerate(weights))
    assert law == FinitePmf(list(weights)) and hash(law) == hash(FinitePmf(list(weights)))
    assert repr(law) == f"FinitePmf(weights={weights!r})"


def test_second_factorial_moment_values():
    assert Poisson(2.0).second_factorial_moment() == pytest.approx(4.0, abs=1e-15)
    # 2 (1-p0) p / (1-p)^2 = 2 * 0.7 * 0.2 / 0.64
    assert LinearFractional(0.3, 0.2).second_factorial_moment() == pytest.approx(0.4375, abs=1e-15)
    # only z=2 contributes: 2 * 1 * 0.25
    assert FinitePmf((0.25, 0.5, 0.25)).second_factorial_moment() == pytest.approx(0.5, abs=1e-15)


def test_variance_values():
    assert Poisson(1.0).variance() == pytest.approx(1.0, abs=1e-15)
    # 0.5 + 1 - 1
    assert FinitePmf((0.25, 0.5, 0.25)).variance() == pytest.approx(0.5, abs=1e-15)
    assert FinitePmf((0.0, 1.0)).variance() == pytest.approx(0.0, abs=1e-15)


def test_shape_values():
    one_child = FinitePmf((0.0, 1.0))
    assert one_child.shape(0.5) == pytest.approx(0.0, abs=1e-15)
    lf = LinearFractional(0.3, 0.2)
    for s in (0.0, 0.5, 0.99):
        # linear-fractional shape is the constant p/(1-p0)
        assert lf.shape(s) == pytest.approx(0.2 / 0.7, abs=1e-12)
    assert Poisson(1.0).shape(1.0) == pytest.approx(0.5, abs=1e-15)


def test_shape_at_one_values():
    assert Poisson(2.0).shape_at_one() == pytest.approx(0.5, abs=1e-15)  # 4/(2*4)
    assert FinitePmf((0.25, 0.5, 0.25)).shape_at_one() == pytest.approx(0.25, abs=1e-15)
    assert FinitePmf((0.0, 1.0)).shape_at_one() == pytest.approx(0.0, abs=1e-15)


def test_shape_requires_positive_mean():
    dead = FinitePmf((1.0,))
    with pytest.raises(ValueError):
        dead.shape(0.5)
    with pytest.raises(ValueError):
        dead.shape_at_one()


def test_shape_matches_highprecision_near_one():
    """Arbitrary-precision oracle for the defining difference
    1/(1-f(s)) - 1/(m(1-s)) where the double-precision form cancels."""
    mpmath.mp.dps = 50
    # dyadic finite weights: their double sum is exactly 1, so the oracle's
    # defining difference stays finite all the way to s = 1
    laws = (Poisson(1.3), LinearFractional(0.3, 0.2), FinitePmf((0.25, 0.375, 0.25, 0.125)))

    def pgf_mp(law, s):
        if isinstance(law, Poisson):
            return mpmath.e ** (mpmath.mpf(law.lam) * (s - 1))
        if isinstance(law, LinearFractional):
            p0, p = mpmath.mpf(law.p0), mpmath.mpf(law.p)
            return p0 + (1 - p0) * (1 - p) * s / (1 - p * s)
        return sum(mpmath.mpf(w) * s**z for z, w in enumerate(law.weights))

    def mean_mp(law):
        # the oracle needs the mean at full precision: a one-ulp error is
        # amplified by 1/(1-s) in the defining difference
        if isinstance(law, Poisson):
            return mpmath.mpf(law.lam)
        if isinstance(law, LinearFractional):
            return (1 - mpmath.mpf(law.p0)) / (1 - mpmath.mpf(law.p))
        return sum(z * mpmath.mpf(w) for z, w in enumerate(law.weights))

    for law in laws:
        m = mean_mp(law)
        for delta in (1e-3, 1e-6, 1e-9, 1e-12):
            s = 1.0 - delta
            s_mp = mpmath.mpf(s)
            oracle = 1 / (1 - pgf_mp(law, s_mp)) - 1 / (m * (1 - s_mp))
            assert law.shape(s) == pytest.approx(float(oracle), rel=1e-10)


def test_sampling_trivia():
    rng = rng_stream(1, 0)
    draws = FinitePmf((0.0, 1.0)).sample(rng, size=1000)
    assert np.all(draws == 1)
    draws = LinearFractional(1.0 - 1e-12, 0.5).sample(rng, size=1000)
    assert np.all(draws == 0)


def test_poisson_sampling_mean_clt():
    n = 1_000_000
    lam = 1.05
    draws = Poisson(lam).sample(rng_stream(7, 3), size=n)
    assert abs(float(np.mean(draws)) - lam) <= 4.0 * math.sqrt(lam / n)


class _TopGenerator(np.random.Generator):
    """A generator whose uniforms all equal the largest double below 1."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.full(() if size is None else size, 1.0 - 2.0**-53)


class _TopStream:
    generator = _TopGenerator(np.random.Philox(0))


@pytest.mark.parametrize("weights", [(0.5, 0.5 - 4e-13), (0.5, 0.5 - 4e-13, 0.0)])
def test_finite_sample_stays_in_support(weights):
    # the weights sum to just under 1, so u can exceed the last cumulative
    # weight; numpy's choice reads its uniforms through the overridden random
    law = FinitePmf(weights)
    assert law.sample(_TopStream()) == 1
    assert law.sample(_TopStream(), size=3).tolist() == [1, 1, 1]


def test_lf_sample_without_tail_draws_zero_and_one():
    draws = LinearFractional(0.3, 0.0).sample(rng_stream(2, 0), size=10_000)
    assert set(np.unique(draws).tolist()) == {0, 1}
    assert abs(float(np.mean(draws)) - 0.7) <= 5.0 * math.sqrt(0.21 / draws.size)


def test_childless_law_never_survives():
    # no weight beyond 0: the tail sum of no weights is zero, of the argument's shape
    law = FinitePmf((1.0,))
    assert law.survival_map(0.3) == 0.0
    assert law.survival_map(np.array([0.0, 0.5, 1.0])).tolist() == [0.0, 0.0, 0.0]


def test_sample_scalar_types():
    rng = rng_stream(5, 0)
    assert isinstance(Poisson(1.0).sample(rng), int)
    assert isinstance(LinearFractional(0.3, 0.2).sample(rng), int)
    assert isinstance(FinitePmf((0.5, 0.5)).sample(rng), int)


@pytest.mark.parametrize("law", [
    LinearFractional(0.3, 0.2),
    Poisson(1.05),
    Poisson(3.7),
    FinitePmf((0.25, 0.5, 0.25)),
    FinitePmf((0.1, 0.2, 0.3, 0.25, 0.15)),
    FinitePmf((0.0, 1.0)),
], ids=repr)
def test_float_matches_one_element_array(law):
    """A float argument runs the array formula: it returns a float equal to
    element 0 of the one-element array result, bitwise except for Poisson,
    whose floats take math.expm1 (at most 8.2e-16 relative from np.expm1)."""
    rel = 1e-15 if isinstance(law, Poisson) else 0.0
    points = np.concatenate([np.linspace(0.0, 1.0, 41), np.logspace(-17, 0, 35), 1.0 - np.logspace(-16, -1, 16)])
    for method in ("survival_map", "shape", "shape_from_survival"):
        fn = getattr(law, method)
        for x in points:
            expected = fn(np.array([x]))[0]
            for arg in (float(x), np.float64(x)):
                value = fn(arg)
                assert isinstance(value, float), (method, arg, type(value))
                assert abs(value - expected) <= rel * abs(expected), (method, arg)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(any_law())
def test_pgf_monotone_convex_bounded(law):
    s = np.linspace(0.0, 1.0, 101)
    f = law.pgf(s)
    assert abs(f[-1] - 1.0) < 1e-12
    assert np.all(f >= f[0] - 1e-13)
    assert np.all(f <= 1.0 + 1e-13)
    assert np.all(np.diff(f) >= -1e-12)
    assert np.all(np.diff(f, 2) >= -1e-12)


@settings(max_examples=150, deadline=None)
@given(any_law())
def test_shape_bounds_property(law):
    if law.mean() <= 0.0:
        return
    s = np.linspace(0.0, 1.0, 101)
    psi = law.shape(s)
    assert np.all(psi >= 0.5 * law.shape(0.0) - 1e-12)
    assert np.all(psi <= 2.0 * law.shape_at_one() + 1e-12)


@settings(max_examples=150, deadline=None)
@given(any_law())
def test_shape_defining_identity_property(law):
    if law.mean() <= 0.0:
        return
    m = law.mean()
    for s in (0.0, 0.3, 0.6, 0.9, 1.0 - 1e-3):
        f = law.pgf(s)
        residual = law.shape(s) * (1.0 - f) * m * (1.0 - s) + (1.0 - f) - m * (1.0 - s)
        assert abs(residual) < 1e-10


@settings(max_examples=100, deadline=None)
@given(any_law())
def test_survival_map_matches_pgf(law):
    for r in (1.0, 0.7, 0.2, 1e-4, 1e-9):
        assert law.survival_map(r) == pytest.approx(1.0 - law.pgf(1.0 - r), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(any_law())
def test_shape_from_survival_consistent(law):
    if law.mean() <= 0.0:
        return
    for r in (1.0, 0.5, 1e-2, 1e-5):
        assert law.shape_from_survival(r) == pytest.approx(law.shape(1.0 - r), rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(any_law(), st.integers(0, 2**63 - 1))
def test_sampling_matches_pmf_mean(law, seed):
    n = 4000
    draws = law.sample(rng_stream(seed, 1), size=n)
    se = math.sqrt(max(law.variance(), 1e-12) / n)
    assert abs(float(np.mean(draws)) - law.mean()) <= 6.0 * se + 1e-9
