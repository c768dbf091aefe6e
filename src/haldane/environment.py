"""Parametric random environments for branching processes.

An :class:`EnvironmentModel` draws iid offspring laws whose mean is
``1 + epsilon + sqrt(nu) * zeta`` with a centered, unit-variance, bounded
noise variable ``zeta`` (a symmetric two-point law or a uniform law).  The
mean excess ``epsilon`` and the mean variance ``nu`` are therefore exact
model parameters, not asymptotic targets, which keeps every moment used by
the verification suite in closed form.

Three offspring families map a realized mean to a concrete law:

* ``poisson``           -- Poisson with rate equal to the mean;
* ``linear_fractional`` -- fixed zero-mass p0, geometric tail solved from
                           the mean;
* ``finite``            -- an exponentially tilted copy of a template pmf.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .numerics import RandomStream, two_point_octets
from .offspring import FinitePmf, LinearFractional, OffspringLaw, Poisson, finite_tail_sum

__all__ = [
    "EnvironmentModel",
    "FinitePmfFamily",
    "LinearFractionalFamily",
    "PoissonFamily",
    "RegimeParams",
    "expansion_check",
    "make_environment",
    "regime_classify",
]

TWO_POINT = "two_point"
UNIFORM = "uniform"
_NOISE_KINDS = (TWO_POINT, UNIFORM)
_SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# Offspring families
# ---------------------------------------------------------------------------
#
# Besides ``law_for_mean``, the families the backward replay of ``_engines``
# runs on (all but linear-fractional) map a whole array of means at once to
# one float64 law parameter per mean (``law_params``), the parameters to the
# coefficients of the one-step survival map (``step_coefficients``, stacked
# on a new leading axis), and apply that map lane by lane into an output
# array (``survival_step``).

@dataclass(frozen=True)
class PoissonFamily:
    """Maps a mean m to the Poisson(m) offspring law."""

    name: ClassVar[str] = "poisson"

    def law_for_mean(self, m: float) -> Poisson:
        return Poisson(m)

    def law_params(self, means) -> np.ndarray:
        """The rate of each law: the mean itself."""
        return np.array(means, dtype=float)

    def step_coefficients(self, params: np.ndarray) -> np.ndarray:
        """The negated rates, so that a step computes (-lam)*r in place."""
        return -params[None]

    @staticmethod
    def survival_step(coefs, r, out) -> np.ndarray:
        """1 - f(1 - r) = -expm1(-lam r) into ``out``, with ``coefs[0]`` the
        negated rates."""
        np.multiply(coefs[0], r, out=out)
        np.expm1(out, out=out)
        return np.negative(out, out=out)

    def validate_mean_range(self, m_lo: float, m_hi: float) -> None:
        if m_lo <= 0.0:
            raise ValueError(
                f"family mean domain: Poisson needs positive means, support reaches {m_lo}"
            )

    def sigma_sq_limit(self) -> float:
        return 1.0


@dataclass(frozen=True)
class LinearFractionalFamily:
    """Maps a mean m to the linear-fractional law with fixed zero mass p0.

    The geometric tail parameter solving the mean is p = 1 - (1-p0)/m,
    which lies in [0, 1) exactly when m >= 1 - p0.
    """

    p0: float = 0.3
    name: ClassVar[str] = "linear_fractional"

    def __post_init__(self) -> None:
        if not (0.0 <= self.p0 < 1.0):
            raise ValueError(f"zero-offspring mass must lie in [0, 1), got {self.p0}")

    def law_for_mean(self, m: float) -> LinearFractional:
        p = 1.0 - (1.0 - self.p0) / m
        if not (0.0 <= p < 1.0):
            raise ValueError(
                f"family mean domain: mean {m} gives tail parameter {p} outside [0, 1)"
            )
        return LinearFractional(p0=self.p0, p=p)

    def validate_mean_range(self, m_lo: float, m_hi: float) -> None:
        if m_lo < 1.0 - self.p0:
            raise ValueError(
                "family mean domain: linear-fractional with p0="
                f"{self.p0} needs means >= {1.0 - self.p0}, support reaches {m_lo}"
            )

    def sigma_sq_limit(self) -> float:
        return 2.0 * self.p0 / (1.0 - self.p0)


# Safeguarded Newton for the tilt: iteration cap, and the step (relative to
# max(1, |t|)) below which a tilt is final.
_TILT_MAX_ITER = 200
_TILT_STEP_TOL = 4.0 * np.finfo(float).eps
_TILT_CHUNK = 1 << 14


@dataclass(frozen=True)
class FinitePmfFamily:
    """Maps a mean m to an exponentially tilted copy of a template pmf.

    Tilting preserves the support and moves the mean monotonically, so any
    mean strictly between the smallest and largest support points carrying
    weight is attainable.  The law parameter is the tilt t: weights
    proportional to ``template[z] * exp(t z)``; t = 0 gives the template
    itself, exactly.
    """

    template: tuple[float, ...] = (0.25, 0.5, 0.25)
    name: ClassVar[str] = "finite"
    _support: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _log_weights: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _mean: float = field(init=False, repr=False, compare=False)
    _variance: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        template = FinitePmf(self.template).weights  # validates weights
        support = tuple(z for z, w in enumerate(template) if w > 0.0)
        object.__setattr__(self, "template", template)
        object.__setattr__(self, "_support", support)
        object.__setattr__(self, "_log_weights", tuple(math.log(template[z]) for z in support))
        object.__setattr__(self, "_mean", math.fsum(z * w for z, w in enumerate(template)))
        object.__setattr__(self, "_variance", FinitePmf(template).variance())

    def law_for_mean(self, m: float) -> FinitePmf:
        return FinitePmf(self.tilted_weights(self.law_params([m]))[0])

    def law_params(self, means) -> np.ndarray:
        """The tilt of each law, by a vectorized safeguarded Newton solve.

        Every operation acts elementwise and a converged row is frozen, so
        each tilt is bitwise independent of the other means in the batch.
        Means within 1e-15 of the template mean get the tilt 0 exactly.
        """
        m = np.array(means, dtype=float)
        t = np.zeros(m.shape)
        todo = np.flatnonzero(np.abs(m - self._mean) > 1e-15)
        if todo.size == 0:
            return t
        z_min, z_max = self._support[0], self._support[-1]
        if z_min == z_max:
            raise ValueError(
                f"family mean domain: degenerate template only attains mean {float(z_min)}"
            )
        target = m.ravel()[todo]
        outside = ~((z_min < target) & (target < z_max))
        if np.any(outside):
            raise ValueError(
                f"family mean domain: mean {target[outside][0]} not attainable by tilting the template"
            )
        # chunks small enough to stay in cache; rows never interact
        t.ravel()[todo] = np.concatenate([
            self._solve_tilt(target[i:i + _TILT_CHUNK]) for i in range(0, target.size, _TILT_CHUNK)
        ])
        return t

    def _solve_tilt(self, target: np.ndarray) -> np.ndarray:
        # The first Newton step from t = 0 in closed form; [lo, hi] brackets
        # the root (the tilted mean increases with t).
        t = (target - self._mean) / self._variance
        lo = np.where(target > self._mean, 0.0, -np.inf)
        hi = np.where(target < self._mean, 0.0, np.inf)
        active = np.arange(target.size)
        ta, goal = t, target
        for _ in range(_TILT_MAX_ITER):
            terms, total = self._tilt_terms(ta)
            mean = sum(z * e for z, e in zip(self._support, terms)) / total
            var = sum(z * z * e for z, e in zip(self._support, terms)) / total - mean * mean
            gap = mean - goal
            lo = np.where(gap < 0.0, ta, lo)
            hi = np.where(gap > 0.0, ta, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = ta - gap / var
            scale = np.maximum(1.0, np.abs(ta))
            bad = np.flatnonzero(~((step > lo) & (step < hi)))  # also catches nan
            if bad.size:
                # bisect, or step out by max(1, |t|) while one side is open
                tb, lb, hb, sb = ta[bad], lo[bad], hi[bad], scale[bad]
                step[bad] = np.where(
                    np.isinf(hb), tb + sb, np.where(np.isinf(lb), tb - sb, 0.5 * (lb + hb))
                )
            tol = _TILT_STEP_TOL * scale
            done = (gap == 0.0) | (np.abs(step - ta) <= tol) | (hi - lo <= tol)
            step = np.where(gap == 0.0, ta, step)
            t[active] = step
            keep = ~done
            if not keep.any():
                return t
            active = active[keep]
            ta, goal, lo, hi = step[keep], goal[keep], lo[keep], hi[keep]
        raise ValueError("family mean domain: tilt solve did not converge")

    def _tilt_terms(self, t: np.ndarray):
        """Unnormalized tilted weights on the support (largest term 1) and their sum."""
        logits = [lw + z * t for z, lw in zip(self._support, self._log_weights)]
        top = logits[0]
        for logit in logits[1:]:
            top = np.maximum(top, logit)
        terms = [np.exp(logit - top) for logit in logits]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return terms, total

    def _tilted_columns(self, t: np.ndarray) -> list[np.ndarray]:
        """Weight of each value 0..K under the tilts t, one array per value."""
        terms, total = self._tilt_terms(t)
        at_template = t == 0.0
        columns = [np.zeros(t.shape) for _ in self.template]
        for z, term in zip(self._support, terms):
            columns[z] = np.where(at_template, self.template[z], term / total)
        return columns

    def tilted_weights(self, t) -> np.ndarray:
        """Tilted template weights, one row per tilt."""
        return np.stack(self._tilted_columns(np.asarray(t, dtype=float)), axis=-1)

    def step_coefficients(self, params: np.ndarray) -> np.ndarray:
        """The weights of the values 1..K (the zero mass does not enter)."""
        return np.stack(self._tilted_columns(params)[1:])

    @staticmethod
    def survival_step(coefs, r, out) -> np.ndarray:
        """1 - f(1 - r) lane by lane into ``out`` (which must not be ``r``),
        with ``coefs[z-1]`` the weights w_z."""
        return np.multiply(r, finite_tail_sum(coefs, np.subtract(1.0, r, out=out)), out=out)

    def validate_mean_range(self, m_lo: float, m_hi: float) -> None:
        z_min, z_max = float(self._support[0]), float(self._support[-1])
        if z_min == z_max:
            # degenerate template: only its own mean is attainable
            if m_lo == m_hi == self._mean:
                return
            raise ValueError(
                f"family mean domain: degenerate template only attains mean {z_min}"
            )
        if not (z_min < m_lo and m_hi < z_max):
            raise ValueError(
                "family mean domain: tilted template attains means in "
                f"({z_min}, {z_max}), support reaches [{m_lo}, {m_hi}]"
            )

    def sigma_sq_limit(self) -> float:
        return self.law_for_mean(1.0).variance()


OffspringFamily = PoissonFamily | LinearFractionalFamily | FinitePmfFamily


# ---------------------------------------------------------------------------
# Environment model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvironmentModel:
    """Distribution over offspring laws with exact mean excess and variance.

    The law mean is ``1 + epsilon + sqrt(nu) * zeta`` where zeta is either
    symmetric two-point (+-1) or uniform on [-sqrt(3), sqrt(3)]; both have
    zero mean and unit variance, so E[mean] = 1 + epsilon and
    Var(mean) = nu hold exactly.
    """

    family: OffspringFamily
    epsilon: float
    nu: float
    noise: str = TWO_POINT

    def __post_init__(self) -> None:
        if not (self.epsilon >= 0.0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be nonnegative and finite, got {self.epsilon}")
        if not (self.nu >= 0.0 and math.isfinite(self.nu)):
            raise ValueError(f"nu must be nonnegative and finite, got {self.nu}")
        if self.noise not in _NOISE_KINDS:
            raise ValueError(f"noise must be one of {_NOISE_KINDS}, got {self.noise!r}")
        m_lo, m_hi = self.mean_bounds()
        if m_lo <= 0.0:
            raise ValueError(
                "positivity: law means must stay positive, but "
                f"1 + epsilon - {'sqrt(nu)' if self.noise == TWO_POINT else 'sqrt(3 nu)'} = {m_lo}"
            )
        self.family.validate_mean_range(m_lo, m_hi)

    # -- support ------------------------------------------------------------

    def noise_half_width(self) -> float:
        """Largest |zeta| in the noise support (1 for two-point, sqrt 3 for uniform)."""
        return 1.0 if self.noise == TWO_POINT else _SQRT3

    def mean_bounds(self) -> tuple[float, float]:
        spread = self.noise_half_width() * math.sqrt(self.nu)
        center = 1.0 + self.epsilon
        return center - spread, center + spread

    def support_means(self) -> tuple[float, ...]:
        """Law means carrying positive probability (two-point / degenerate only)."""
        if self.nu == 0.0:
            return (1.0 + self.epsilon,)
        if self.noise == TWO_POINT:
            return self.mean_bounds()
        raise ValueError("uniform noise has no finite mean support")

    def law_for_mean(self, m: float) -> OffspringLaw:
        """The family law of mean m; the laws at the support means of
        two-point or degenerate noise are built once per model."""
        law = self._support_laws.get(m)
        return law if law is not None else self.family.law_for_mean(m)

    @functools.cached_property
    def _support_laws(self) -> dict[float, OffspringLaw]:
        if self.noise == UNIFORM and self.nu > 0.0:
            return {}
        return {m: self.family.law_for_mean(m) for m in self.support_means()}

    # -- sampling -----------------------------------------------------------

    def sample_means(self, rng: RandomStream, size: int, rows: int = 1) -> np.ndarray:
        """``size`` iid law means, as ``rows`` rows of ``size // rows`` when
        ``rows > 1``; row j holds what the j-th of ``rows`` successive
        calls of that width would return.

        Two-point noise costs one stream bit per mean and returns exactly
        the values of :meth:`mean_bounds`: the bits are read as whole
        32-bit stream words (:meth:`RandomStream.packed_bits`) and each
        byte expands to 8 means through one row of a 256-entry table.
        Uniform noise costs one uniform per mean.
        """
        shape = (rows, size // rows) if rows > 1 else size
        if self.nu == 0.0:
            return np.full(shape, 1.0 + self.epsilon)
        if self.noise == TWO_POINT:
            return rng.two_point(self._two_point_octets, size, rows)
        u = rng.generator.random(shape)
        return 1.0 + self.epsilon + math.sqrt(self.nu) * ((2.0 * u - 1.0) * _SQRT3)

    @functools.cached_property
    def _two_point_octets(self) -> np.ndarray:
        return two_point_octets(*self.mean_bounds())

    # -- exact moments of the law mean ---------------------------------------
    # A point mass (m_lo == m_hi, nu = 0) takes the two-point formulas: 0.5*(x + x) == x.

    def inverse_moment(self, r: float) -> float:
        """E[mean**(-r)], exact for both noise kinds (any r >= 0)."""
        if r < 0.0:
            raise ValueError(f"need r >= 0, got {r}")
        if r == 0.0:
            return 1.0
        m_lo, m_hi = self.mean_bounds()
        if self.noise == TWO_POINT or m_lo == m_hi:
            return 0.5 * (m_lo ** (-r) + m_hi ** (-r))
        width = m_hi - m_lo
        if r == 1.0:
            return (math.log(m_hi) - math.log(m_lo)) / width
        return (m_hi ** (1.0 - r) - m_lo ** (1.0 - r)) / ((1.0 - r) * width)

    def log_moment(self) -> float:
        """E[log mean], exact for both noise kinds."""
        m_lo, m_hi = self.mean_bounds()
        if self.noise == TWO_POINT or m_lo == m_hi:
            return 0.5 * (math.log(m_lo) + math.log(m_hi))
        width = m_hi - m_lo
        primitive = lambda t: t * math.log(t) - t
        return (primitive(m_hi) - primitive(m_lo)) / width

    def mean_expectation(self, transform) -> float:
        """E[transform(mean)] over the noise law (quadrature for uniform)."""
        m_lo, m_hi = self.mean_bounds()
        if self.noise == TWO_POINT or m_lo == m_hi:
            return 0.5 * (transform(m_lo) + transform(m_hi))
        from scipy import integrate

        value, _ = integrate.quad(transform, m_lo, m_hi, epsabs=1e-12, epsrel=1e-10, limit=200)
        return value / (m_hi - m_lo)


def make_environment(
    family: OffspringFamily | str,
    epsilon: float,
    nu: float,
    noise: str = TWO_POINT,
    *,
    p0: float = 0.3,
    template=(0.25, 0.5, 0.25),
) -> EnvironmentModel:
    """Construct a validated environment model.

    ``family`` may be a family instance or one of the names "poisson",
    "linear_fractional" and "finite"; ``p0`` and ``template`` only apply
    when a name is given.
    """
    if family == "poisson":
        family = PoissonFamily()
    elif family == "linear_fractional":
        family = LinearFractionalFamily(p0=p0)
    elif family == "finite":
        family = FinitePmfFamily(template=template)
    elif isinstance(family, str):
        raise ValueError(f"unknown family {family!r}; expected poisson, linear_fractional, or finite")
    return EnvironmentModel(family=family, epsilon=epsilon, nu=nu, noise=noise)


# ---------------------------------------------------------------------------
# Regimes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeParams:
    """Sweep-level regime description: mean excess, mean variance, their
    ratio, and the limiting annealed offspring variance."""

    epsilon: float
    nu: float
    rho: float
    sigma_sq: float

    def __post_init__(self) -> None:
        if not (self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (self.rho >= 0.0):
            raise ValueError(f"rho must be nonnegative, got {self.rho}")
        if not (self.sigma_sq > 0.0):
            raise ValueError(f"sigma_sq must be positive, got {self.sigma_sq}")

    @classmethod
    def from_environment(cls, model: EnvironmentModel) -> "RegimeParams":
        if model.epsilon <= 0.0:
            raise ValueError("regime parameters need a strictly supercritical mean excess")
        return cls(
            epsilon=model.epsilon,
            nu=model.nu,
            rho=model.nu / model.epsilon,
            sigma_sq=model.family.sigma_sq_limit(),
        )


def regime_classify(params: RegimeParams) -> str:
    """Classify into case_i (rho = 0), case_ii (0 < rho < 2),
    case_iii (rho > 2), or boundary (rho = 2, exact comparison)."""
    if params.rho == 0.0:
        return "case_i"
    if params.rho < 2.0:
        return "case_ii"
    if params.rho == 2.0:
        return "boundary"
    return "case_iii"


# ---------------------------------------------------------------------------
# Moment expansion
# ---------------------------------------------------------------------------

def expansion_check(model: EnvironmentModel, r: float) -> float:
    """Absolute error of the second-order small-parameter expansion
    ``1 - r*eps + r(r+1)/2 * nu`` of the exact inverse moment E[mean**(-r)]."""
    if not (0.0 <= r <= 2.0):
        raise ValueError(f"need r in [0, 2], got {r}")
    expansion = 1.0 - r * model.epsilon + 0.5 * r * (r + 1.0) * model.nu
    return abs(model.inverse_moment(r) - expansion)
