"""Offspring-distribution models: generating-function evaluation, factorial
moments, exact sampling, and a numerically safe shape function.

Three law families are supported, each immutable after construction:

* :class:`FinitePmf` -- an explicit pmf on {0, ..., K} with K <= 64;
* :class:`Poisson` -- Poisson offspring with positive rate;
* :class:`LinearFractional` -- an atom at zero plus a geometric tail, whose
  generating function is a Moebius map (so compositions stay closed form).

The shape function of a law with generating function f and mean m is the
correction term in ``1/(1 - f(s)) = 1/(m*(1-s)) + shape(s)``, extended
continuously to s = 1 by ``f''(1) / (2 f'(1)**2)``.  Evaluating it by that
defining difference cancels catastrophically near s = 1, so every family
here uses an algebraically rearranged form that is accurate to machine
precision on all of [0, 1] (see the individual ``shape`` implementations).

All evaluation methods accept scalars or numpy arrays, with each formula
written once: ``_elementwise`` runs it on a float as it is (10-50x cheaper
than on a 0-d array) and on anything else as a float array, so a float
gives the bits of a one-element array.  Only Poisson keeps a float path of
its own, ``math.expm1``: 10x faster on a float than ``np.expm1``, and up
to 8.2e-16 relative away from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import RandomStream

__all__ = [
    "FinitePmf",
    "LinearFractional",
    "OffspringLaw",
    "Poisson",
    "SUPPORT_CAP",
]

# Largest offspring count a finite pmf may carry.
SUPPORT_CAP = 64

_WEIGHT_SUM_TOL = 1e-12


def _check_unit_interval(s) -> np.ndarray:
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("generating-function argument must lie in [0, 1]")
    return arr


def _scalar_like(value: np.ndarray, template) -> float | np.ndarray:
    if np.isscalar(template) or np.ndim(template) == 0:
        return float(value)
    return value


def _elementwise(formula):
    """Method decorator: ``formula(self, x)`` on a float ``x`` as it is (so
    np.float64 in gives np.float64 out), on anything else as a float array."""

    @functools.wraps(formula)
    def method(self, x):
        if isinstance(x, float):
            return formula(self, x)
        return _scalar_like(formula(self, np.asarray(x, dtype=float)), x)

    return method


class _Law:
    """What the three laws share: the variance from the factorial moments."""

    def variance(self) -> float:
        m = self.mean()
        return self.second_factorial_moment() + m - m * m


@dataclass(frozen=True)
class Poisson(_Law):
    """Poisson offspring law with rate ``lam``."""

    lam: float

    def __post_init__(self) -> None:
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"Poisson rate must be positive and finite, got {self.lam}")

    def pgf(self, s):
        arr = _check_unit_interval(s)
        return _scalar_like(np.exp(self.lam * (arr - 1.0)), s)

    def survival_map(self, r):
        """One-step survival recursion 1 - f(1 - r), cancellation free."""
        if isinstance(r, float):
            return -math.expm1(-self.lam * r)
        return _scalar_like(-np.expm1(-self.lam * np.asarray(r, dtype=float)), r)

    def mean(self) -> float:
        return self.lam

    def second_factorial_moment(self) -> float:
        return self.lam * self.lam

    @_elementwise
    def shape(self, s):
        _check_unit_interval(s)
        return self.shape_from_survival(1.0 - s)

    @_elementwise
    def shape_from_survival(self, r):
        """shape(1 - r) evaluated directly from the survival weight r."""
        return _shifted_coth(self.lam * r)

    def shape_at_one(self) -> float:
        return 0.5

    def sample(self, rng: RandomStream, size: int | None = None):
        # numpy's Poisson sampler is exact: inversion for small rates and
        # transformed rejection above, never a normal approximation.
        draw = rng.generator.poisson(self.lam, size=size)
        return int(draw) if size is None else draw


def _coth_series(x):
    # 1/(1-e^{-x}) - 1/x = 1/2 + x/12 - x^3/720 + x^5/30240 - x^7/1209600 ...
    x2 = x * x
    return 0.5 + x * (1.0 / 12.0 + x2 * (-1.0 / 720.0 + x2 * (1.0 / 30240.0 - x2 / 1209600.0)))


def _shifted_coth(x):
    """g(x) = 1/(1 - exp(-x)) - 1/x, the Poisson shape profile.

    Series below 0.5 (the direct form cancels there), expm1 form above.
    g(0) = 1/2 and g is increasing on [0, inf).
    """
    if isinstance(x, float):
        return _coth_series(x) if x < 0.5 else 1.0 / (-math.expm1(-x)) - 1.0 / x
    small = x < 0.5
    out = np.empty_like(x)
    out[small] = _coth_series(x[small])
    xl = x[~small]
    out[~small] = 1.0 / (-np.expm1(-xl)) - 1.0 / xl
    return out


@dataclass(frozen=True)
class LinearFractional(_Law):
    """Offspring law with zero-mass ``p0`` and geometric tail parameter ``p``:
    weight (1-p0)*(1-p)*p**(k-1) at k >= 1.

    Its generating function is a Moebius map, which keeps compositions of
    such laws in closed form; the shape function is the constant p/(1-p0).
    """

    p0: float
    p: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p0 < 1.0):
            raise ValueError(f"zero-offspring mass must lie in [0, 1), got {self.p0}")
        if not (0.0 <= self.p < 1.0):
            raise ValueError(f"tail parameter must lie in [0, 1), got {self.p}")

    def pgf(self, s):
        arr = _check_unit_interval(s)
        value = self.p0 + (1.0 - self.p0) * (1.0 - self.p) * arr / (1.0 - self.p * arr)
        return _scalar_like(value, s)

    @_elementwise
    def survival_map(self, r):
        # 1 - f(1-r) = (1-p0) r / ((1-p) + p r): all terms positive.
        return (1.0 - self.p0) * r / ((1.0 - self.p) + self.p * r)

    def mean(self) -> float:
        return (1.0 - self.p0) / (1.0 - self.p)

    def second_factorial_moment(self) -> float:
        return 2.0 * (1.0 - self.p0) * self.p / ((1.0 - self.p) ** 2)

    def shape(self, s):
        _check_unit_interval(s)
        return self.shape_from_survival(s)  # a constant: shape(s) = shape(1 - s)

    def shape_from_survival(self, r):
        const = self.shape_at_one()
        return const if np.isscalar(r) else _scalar_like(np.full(np.shape(r), const), r)

    def shape_at_one(self) -> float:
        return self.p / (1.0 - self.p0)

    def moebius(self) -> tuple[float, float, float, float]:
        """(a, b, c, d) with 1 - f(1-r) = (a*r + b)/(c*r + d), all entries
        nonnegative, for stable closed-form composition in survival form."""
        return (1.0 - self.p0, 0.0, self.p, 1.0 - self.p)

    def sample(self, rng: RandomStream, size: int | None = None):
        # numpy's geometric sampler is exact; its support {1, 2, ...} is the tail's
        gen = rng.generator
        n = 1 if size is None else size
        tail = gen.random(n) >= self.p0
        draws = np.zeros(n, dtype=np.int64)
        draws[tail] = gen.geometric(1.0 - self.p, int(np.count_nonzero(tail)))
        return int(draws[0]) if size is None else draws


def finite_tail_sum(weights, s: np.ndarray) -> np.ndarray:
    """T(s) = sum_{z>=1} w_z (1 + s + ... + s^{z-1}) for weights w_1, w_2, ...

    A weight may be a float or an array broadcasting against ``s`` (one
    law per lane).  Every term is nonnegative on [0, 1].  The sum starts
    from w_1 itself (its factor is 1), so T may only broadcast against s.
    """
    if len(weights) == 0:
        return 0.0 * s
    total, h = weights[0], 1.0  # h_z(s) = 1 + s + ... + s^{z-1}
    for w in weights[1:]:
        h = h * s + 1.0
        total = total + w * h
    return total


@dataclass(frozen=True)
class FinitePmf(_Law):
    """Offspring law given by explicit weights on {0, ..., K}, K <= 64."""

    weights: tuple[float, ...]
    _mean: float = field(init=False, repr=False, compare=False)  # every shape call reads it

    def __init__(self, weights) -> None:
        w = tuple(float(v) for v in weights)
        if len(w) == 0:
            raise ValueError("weights must be nonempty")
        if len(w) > SUPPORT_CAP + 1:
            raise ValueError(f"support cap is {SUPPORT_CAP}, got max value {len(w) - 1}")
        if any(v < 0.0 for v in w):
            raise ValueError("weights must be nonnegative")
        if abs(math.fsum(w) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {_WEIGHT_SUM_TOL}, got {math.fsum(w)}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_mean", math.fsum(z * v for z, v in enumerate(w)))

    def pgf(self, s):
        arr = _check_unit_interval(s)
        value = np.zeros_like(arr)
        for w in reversed(self.weights):
            value = value * arr + w
        return _scalar_like(value, s)

    @_elementwise
    def survival_map(self, r):
        # 1 - f(1-r) = r * T(1-r) with T(s) = sum_z w_z (1 + s + ... + s^{z-1});
        # every term is nonnegative, so no cancellation anywhere on [0, 1].
        return r * finite_tail_sum(self.weights[1:], 1.0 - r)

    def mean(self) -> float:
        return self._mean

    def second_factorial_moment(self) -> float:
        return math.fsum(z * (z - 1) * w for z, w in enumerate(self.weights))

    @_elementwise
    def shape(self, s):
        _check_unit_interval(s)
        return self._shape_impl(s)

    @_elementwise
    def shape_from_survival(self, r):
        return self._shape_impl(1.0 - r)

    def _shape_impl(self, s):
        # shape(s) = U(s) / (m * T(s)) with T as in survival_map and
        # U(s) = sum_z w_z sum_{j<z} h_j(s); this is the defining difference
        # 1/(1-f) - 1/(m(1-s)) with the common (1-s) factor cancelled
        # symbolically, hence exact up to rounding for every s in [0, 1].
        m = self.mean()
        if m <= 0.0:
            raise ValueError("shape function requires positive mean offspring")
        h = h_cum = t_total = u_total = 0.0  # h_cum: sum_{j<z} h_j(s)
        for w in self.weights[1:]:
            u_total = u_total + w * h_cum  # uses h_cum for current z before update
            h = h * s + 1.0
            h_cum = h_cum + h
            t_total = t_total + w * h
        return u_total / (m * t_total)

    def shape_at_one(self) -> float:
        m = self.mean()
        if m <= 0.0:
            raise ValueError("shape function requires positive mean offspring")
        return self.second_factorial_moment() / (2.0 * m * m)

    def sample(self, rng: RandomStream, size: int | None = None):
        # choice normalises its cumulative weights, so every uniform below 1
        # lands on a value with positive weight
        draw = rng.generator.choice(len(self.weights), size, p=self.weights)
        return int(draw) if size is None else draw


OffspringLaw = Poisson | LinearFractional | FinitePmf
