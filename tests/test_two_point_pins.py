"""Bitwise pins of outputs drawn from two-point noise (and of the replay
engine under uniform noise).

Each pin is a SHA-256 prefix of the output arrays (little-endian bytes)
and, where the caller keeps the stream, of the next four 32-bit words it
yields, so a change in how the stream's bits are read or how many are
consumed shows here.  The pins may change only with an announced change of
stream use or of the order of rounding.
"""

import hashlib

import numpy as np
import pytest

from haldane import (
    TwoPointLaw,
    from_environment,
    make_environment,
    rng_stream,
    simulate_population,
)
from haldane import _engines
from haldane.perpetuity import sample_series_batch


FIVE_POINT = (0.1, 0.2, 0.3, 0.25, 0.15)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in map(np.asarray, arrays):
        h.update(a.astype(a.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()[:32]


def _next_words(rng) -> np.ndarray:
    return rng.generator.integers(0, 2**32, 4, dtype=np.uint32)


# the LF and series pins hold the byte-table arithmetic (one rounding per
# block of 8 generations); the ids leave the digests out so that a
# re-recorded pin keeps its name
@pytest.mark.parametrize("rho, digest, total", [
    (1.0, "e5e5e9eea16ba0b102df6f2f3fae2acf", 46.21295100082731),
    (3.0, "2565070c52006c92e8f232b8cd79747e", 0.20532155866598195),
], ids=["rho1", "rho3"])
def test_gf_lf_batch_pinned(rho, digest, total):
    model = make_environment("linear_fractional", 0.02, 0.02 * rho)
    values, flagged = _engines.gf_lf_batch(model, 2048, 4, 0, 1e-8, 1e-6, 100_000)
    assert (_digest(values, flagged), float(values.sum())) == (digest, total)


# eps = 0.05, rho = 0.5 (nu = 0.025) throughout; the last case stops at an
# unaligned n_max, so its final draw and replay end inside a byte
@pytest.mark.parametrize("family, noise, n_max, digest, total", [
    ("poisson", "two_point", 100_000, "02608b2d9aa6996dcc009953654804c7", 149.77766504241887),
    ("finite", "two_point", 100_000, "716a68c711373320feb5e18a67ab666b", 289.84030191787303),
    ("finite5", "two_point", 100_000, "10ac956646f9885f3b72b66d96d5609e", 147.67134253540547),
    ("poisson", "uniform", 100_000, "3b751eac5ddc8217fb2387256c4516b9", 144.61745167026555),
    ("poisson", "two_point", 300, "4aac5d1d03d18f3147b1e98f82b6c0eb", 149.79602957004835),
])
def test_gf_replay_batch_pinned(family, noise, n_max, digest, total):
    # the values pin the replay's arithmetic lane by lane; the estimates
    # pinned in test_survival.py average them
    kwargs = {"template": FIVE_POINT} if family == "finite5" else {}
    model = make_environment(family.rstrip("5"), 0.05, 0.025, noise, **kwargs)
    values, flagged = _engines.gf_replay_batch(model, 2048, 4, 0, 1e-8, 1e-6, n_max)
    assert (_digest(values, flagged), float(values.sum())) == (digest, total)


@pytest.mark.parametrize("family, eps, n, digest, total", [
    ("poisson", 0.05, 1000, "53917ec0b4614d997d714782bd7bd236", 174969.9746981325),
    ("poisson", 0.05, 20_000, "111bb0c644f7a9862f9ca3ea657e6527", 4589073.228075218),
    ("finite", 0.02, 200, "41a026a548c8dc845dd6666a7079d1c2", 45332.887580599454),
], ids=["poisson-0.05-1000", "poisson-0.05-20000", "finite-0.02-200"])
def test_sample_series_batch_pinned(family, eps, n, digest, total):
    # rho = 1: nu = eps
    rng = rng_stream(6, 2)
    spec = from_environment(make_environment(family, eps, eps))
    values, flags = sample_series_batch(spec, n, rng)
    assert (_digest(values, flags, _next_words(rng)), float(values.sum())) == (digest, total)


def test_finite_two_point_population_pinned():
    res = simulate_population(make_environment("finite", 0.05, 0.025), n_reps=2000, seed=5)
    assert (res.estimate, res.std_error, res.n_overrun) == (0.134, 0.007619122358431867, 0)


def test_two_point_law_sample_pinned():
    rng = rng_stream(7, 1)
    x = TwoPointLaw(0.3, 1.7).sample(rng, 1001)
    assert (_digest(x, _next_words(rng)), int(np.count_nonzero(x == 1.7))) == (
        "ee6de191fef18ec42f8be19bbd10dd32", 504
    )
