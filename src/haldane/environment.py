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
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .numerics import RandomStream
from .offspring import FinitePmf, LinearFractional, OffspringLaw, Poisson

__all__ = [
    "AssumptionReport",
    "EnvMoments",
    "EnvironmentModel",
    "ExpansionCheck",
    "FinitePmfFamily",
    "LinearFractionalFamily",
    "PoissonFamily",
    "RegimeParams",
    "analytic_moments",
    "assumption_check",
    "expansion_check",
    "family_from_name",
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

class PoissonFamily:
    """Maps a mean m to the Poisson(m) offspring law."""

    name = "poisson"

    def law_for_mean(self, m: float) -> Poisson:
        return Poisson(m)

    def validate_mean_range(self, m_lo: float, m_hi: float) -> None:
        if m_lo <= 0.0:
            raise ValueError(
                f"family mean domain: Poisson needs positive means, support reaches {m_lo}"
            )

    def sigma_sq_limit(self) -> float:
        return 1.0

    def __repr__(self) -> str:
        return "PoissonFamily()"


class LinearFractionalFamily:
    """Maps a mean m to the linear-fractional law with fixed zero mass p0.

    The geometric tail parameter solving the mean is p = 1 - (1-p0)/m,
    which lies in [0, 1) exactly when m >= 1 - p0.
    """

    name = "linear_fractional"

    def __init__(self, p0: float = 0.3) -> None:
        if not (0.0 <= p0 < 1.0):
            raise ValueError(f"zero-offspring mass must lie in [0, 1), got {p0}")
        self.p0 = p0

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

    def __repr__(self) -> str:
        return f"LinearFractionalFamily(p0={self.p0})"


@functools.lru_cache(maxsize=65536)
def _tilted_weights(template: tuple[float, ...], m: float) -> tuple[float, ...]:
    """Exponentially tilted template weights with mean m (log-space solve)."""
    z = np.arange(len(template), dtype=float)
    log_w = np.log(np.maximum(np.asarray(template, dtype=float), 1e-300))
    positive = np.asarray(template) > 0.0

    def tilted_mean(t: float) -> float:
        logits = log_w + z * t
        logits[~positive] = -np.inf
        logits -= logits.max()
        w = np.exp(logits)
        return float(np.sum(w * z) / np.sum(w))

    lo, hi = -1.0, 1.0
    for _ in range(80):
        if tilted_mean(lo) < m:
            break
        lo *= 2.0
    for _ in range(80):
        if tilted_mean(hi) > m:
            break
        hi *= 2.0
    if not (tilted_mean(lo) < m < tilted_mean(hi)):
        raise ValueError(f"family mean domain: mean {m} not attainable by tilting the template")
    from scipy.optimize import brentq

    t_star = brentq(lambda t: tilted_mean(t) - m, lo, hi, xtol=1e-15, rtol=8.9e-16)
    logits = log_w + z * t_star
    logits[~positive] = -np.inf
    logits -= logits.max()
    w = np.exp(logits)
    w /= math.fsum(w)
    return tuple(float(v) for v in w)


class FinitePmfFamily:
    """Maps a mean m to an exponentially tilted copy of a template pmf.

    Tilting preserves the support and moves the mean monotonically, so any
    mean strictly between the smallest and largest support points carrying
    weight is attainable.
    """

    name = "finite"

    def __init__(self, template=(0.25, 0.5, 0.25)) -> None:
        law = FinitePmf(template)  # validates weights
        self.template = law.weights
        support = [z for z, w in enumerate(self.template) if w > 0.0]
        self._m_min = float(min(support))
        self._m_max = float(max(support))

    def law_for_mean(self, m: float) -> FinitePmf:
        if math.isclose(m, self._template_mean(), rel_tol=0.0, abs_tol=1e-15):
            return FinitePmf(self.template)
        if self._m_min == self._m_max:
            raise ValueError(
                f"family mean domain: degenerate template only attains mean {self._m_min}"
            )
        return FinitePmf(_tilted_weights(self.template, float(m)))

    def _template_mean(self) -> float:
        return math.fsum(z * w for z, w in enumerate(self.template))

    def validate_mean_range(self, m_lo: float, m_hi: float) -> None:
        if self._m_min == self._m_max:
            # degenerate template: only its own mean is attainable
            if m_lo == m_hi == self._template_mean():
                return
            raise ValueError(
                f"family mean domain: degenerate template only attains mean {self._m_min}"
            )
        if not (self._m_min < m_lo and m_hi < self._m_max):
            raise ValueError(
                "family mean domain: tilted template attains means in "
                f"({self._m_min}, {self._m_max}), support reaches [{m_lo}, {m_hi}]"
            )

    def sigma_sq_limit(self) -> float:
        return self.law_for_mean(1.0).variance()

    def __repr__(self) -> str:
        return f"FinitePmfFamily(template={self.template})"


OffspringFamily = PoissonFamily | LinearFractionalFamily | FinitePmfFamily


def family_from_name(name: str, *, p0: float = 0.3, template=(0.25, 0.5, 0.25)) -> OffspringFamily:
    """Family registry used by the CLI and convenience constructors."""
    if name == "poisson":
        return PoissonFamily()
    if name == "linear_fractional":
        return LinearFractionalFamily(p0=p0)
    if name == "finite":
        return FinitePmfFamily(template=template)
    raise ValueError(f"unknown family {name!r}; expected poisson, linear_fractional, or finite")


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
        return self.family.law_for_mean(m)

    # -- sampling -----------------------------------------------------------

    def sample_means(self, rng: RandomStream, size: int) -> np.ndarray:
        """``size`` iid law means.  Two-point noise costs one stream bit
        per mean and returns exactly the values of :meth:`mean_bounds`."""
        if self.nu == 0.0:
            return np.full(size, 1.0 + self.epsilon)
        if self.noise == TWO_POINT:
            # a table lookup: np.where on a fresh random mask mispredicts
            return np.take(self._two_point_table, rng.bits(size).view(np.uint8))
        u = rng.generator.random(size)
        return 1.0 + self.epsilon + math.sqrt(self.nu) * ((2.0 * u - 1.0) * _SQRT3)

    @functools.cached_property
    def _two_point_table(self) -> np.ndarray:
        table = np.array(self.mean_bounds())
        table.flags.writeable = False
        return table

    # -- exact moments of the law mean ---------------------------------------

    def inverse_moment(self, r: float) -> float:
        """E[mean**(-r)], exact for both noise kinds (any r >= 0)."""
        if r < 0.0:
            raise ValueError(f"need r >= 0, got {r}")
        if r == 0.0:
            return 1.0
        m_lo, m_hi = self.mean_bounds()
        if self.nu == 0.0:
            return (1.0 + self.epsilon) ** (-r)
        if self.noise == TWO_POINT:
            return 0.5 * (m_lo ** (-r) + m_hi ** (-r))
        width = m_hi - m_lo
        if r == 1.0:
            return (math.log(m_hi) - math.log(m_lo)) / width
        return (m_hi ** (1.0 - r) - m_lo ** (1.0 - r)) / ((1.0 - r) * width)

    def log_moment(self) -> float:
        """E[log mean], exact for both noise kinds."""
        m_lo, m_hi = self.mean_bounds()
        if self.nu == 0.0:
            return math.log(1.0 + self.epsilon)
        if self.noise == TWO_POINT:
            return 0.5 * (math.log(m_lo) + math.log(m_hi))
        width = m_hi - m_lo
        primitive = lambda t: t * math.log(t) - t
        return (primitive(m_hi) - primitive(m_lo)) / width

    def mean_expectation(self, transform) -> float:
        """E[transform(mean)] over the noise law (quadrature for uniform)."""
        if self.nu == 0.0:
            return transform(1.0 + self.epsilon)
        if self.noise == TWO_POINT:
            m_lo, m_hi = self.mean_bounds()
            return 0.5 * (transform(m_lo) + transform(m_hi))
        m_lo, m_hi = self.mean_bounds()
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

    ``family`` may be a family instance or one of the registered names
    ("poisson", "linear_fractional", "finite"); ``p0`` and ``template``
    only apply when a name is given.
    """
    if isinstance(family, str):
        family = family_from_name(family, p0=p0, template=template)
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
# Moment reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvMoments:
    """Exact environment moments at the model's parameters."""

    mean: float            # E[law mean]
    variance: float        # Var(law mean)
    inverse_moment: float  # E[law mean ** (-r)]
    log_mean: float        # E[log law mean]
    sigma_sq_limit: float  # annealed offspring variance at epsilon = nu = 0


def analytic_moments(model: EnvironmentModel, r: float) -> EnvMoments:
    """Closed-form environment moments; ``r`` must lie in [0, 4]."""
    if not (0.0 <= r <= 4.0):
        raise ValueError(f"need r in [0, 4], got {r}")
    return EnvMoments(
        mean=1.0 + model.epsilon,
        variance=model.nu,
        inverse_moment=model.inverse_moment(r),
        log_mean=model.log_moment(),
        sigma_sq_limit=model.family.sigma_sq_limit(),
    )


@dataclass(frozen=True)
class ExpansionCheck:
    """Exact inverse moment against its second-order small-parameter
    expansion ``1 - r*eps + r(r+1)/2 * nu``."""

    exact: float
    expansion: float
    abs_error: float


def expansion_check(model: EnvironmentModel, r: float) -> ExpansionCheck:
    if not (0.0 <= r <= 2.0):
        raise ValueError(f"need r in [0, 2], got {r}")
    exact = model.inverse_moment(r)
    expansion = 1.0 - r * model.epsilon + 0.5 * r * (r + 1.0) * model.nu
    return ExpansionCheck(exact=exact, expansion=expansion, abs_error=abs(exact - expansion))


def _raw_fourth_moment(law: OffspringLaw) -> float:
    # E[X^4] from factorial moments via Stirling numbers of the second kind.
    return (
        law.factorial_moment(1)
        + 7.0 * law.factorial_moment(2)
        + 6.0 * law.factorial_moment(3)
        + law.factorial_moment(4)
    )


@dataclass(frozen=True)
class AssumptionReport:
    """Numeric health check of the moment conditions behind the limit
    theorems, evaluated at the model's own parameters.

    ``centered_ratio`` is E|mean - E mean|**(4+delta) / nu**(2+delta/2),
    reported as 0 by convention for degenerate noise; ``ratio_bound`` is
    its exact value for the model's noise kind (1 for two-point).
    """

    fourth_moment: float      # annealed E[offspring**4]
    inverse_moment: float     # E[mean**-(4+delta)]
    centered_ratio: float
    ratio_bound: float
    delta: float
    passed: bool


def assumption_check(model: EnvironmentModel, delta: float = 0.5) -> AssumptionReport:
    fourth = model.mean_expectation(lambda m: _raw_fourth_moment(model.law_for_mean(m)))
    inverse = model.inverse_moment(4.0 + delta)
    if model.nu == 0.0:
        ratio = 0.0
        bound = 0.0
    elif model.noise == TWO_POINT:
        ratio = 1.0
        bound = 1.0
    else:
        # E|zeta|^q for zeta uniform on [-sqrt 3, sqrt 3] is 3**(q/2)/(q+1).
        q = 4.0 + delta
        ratio = 3.0 ** (q / 2.0) / (q + 1.0)
        bound = ratio
    passed = (
        math.isfinite(fourth)
        and math.isfinite(inverse)
        and ratio <= bound + 1e-9
    )
    return AssumptionReport(
        fourth_moment=fourth,
        inverse_moment=inverse,
        centered_ratio=ratio,
        ratio_bound=bound,
        delta=delta,
        passed=passed,
    )
