"""Bitwise pins of outputs drawn from two-point noise.

Each pin is a SHA-256 prefix of the output arrays (little-endian bytes)
and, where the caller keeps the stream, of the next four 32-bit words it
yields, so a change in how the stream's bits are read or how many are
consumed shows here.  The pins may change only with an announced change of
stream use.
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


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in map(np.asarray, arrays):
        h.update(a.astype(a.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()[:32]


def _next_words(rng) -> np.ndarray:
    return rng.generator.integers(0, 2**32, 4, dtype=np.uint32)


@pytest.mark.parametrize("rho, digest, total", [
    (1.0, "64986da2dcc1ab77362c6a5b8c73715c", 47.78889484223592),
    (3.0, "5e5524d3cb27cc4bfecf034fefc6c2f5", 0.5239789467911533),
])
def test_gf_lf_batch_pinned(rho, digest, total):
    model = make_environment("linear_fractional", 0.02, 0.02 * rho)
    values, flagged = _engines.gf_lf_batch(model, 2048, 4, 0, 1e-8, 1e-6, 100_000)
    assert (_digest(values, flagged), float(values.sum())) == (digest, total)


@pytest.mark.parametrize("family, eps, n, digest, total", [
    ("poisson", 0.05, 1000, "fe1db300c5d2044a506f91a79da01a32", 104621.65295192557),
    ("finite", 0.02, 200, "723f7d364566262977cd9600844f2fa4", 15970.548251200704),
])
def test_sample_series_batch_pinned(family, eps, n, digest, total):
    # rho = 1: nu = eps
    rng = rng_stream(6, 2)
    spec = from_environment(make_environment(family, eps, eps))
    values, flags = sample_series_batch(spec, n, rng)
    assert (_digest(values, flags, _next_words(rng)), float(values.sum())) == (digest, total)


def test_finite_two_point_population_pinned():
    res = simulate_population(make_environment("finite", 0.05, 0.025), n_reps=2000, seed=5)
    assert (res.estimate, res.std_error, res.n_overrun) == (0.1435, 0.007841212744764315, 0)


def test_two_point_law_sample_pinned():
    rng = rng_stream(7, 1)
    x = TwoPointLaw(0.3, 1.7).sample(rng, 1001)
    assert (_digest(x, _next_words(rng)), int(np.count_nonzero(x == 1.7))) == (
        "ee6de191fef18ec42f8be19bbd10dd32", 504
    )
