"""Random discounted series ("perpetuities"), annuity-equation diagnostics,
and their small-interest limit laws.

The object of study is Y = sum_k C_k A_{k+1} with C_k = B_1 * ... * B_k for
iid nonnegative coefficient pairs (A, B); it solves the annuity equation
Y =(d) A + B Y.  The regime is summarized by beta = 1 - E[B] (mean interest
margin), gamma = Var(B), their ratio rho_hat, and alpha = E[A]; the series
is simulated only in the admissible region beta > -gamma/2.

Two limit fits are supported: with vanishing beta, gamma and finite
rho_hat, gamma*Y is approximately inverse gamma with shape 2*rho_hat + 1
and scale 2*alpha; with gamma negligible against beta, beta*Y concentrates
at alpha.

Coefficients can be constants, symmetric two-point laws, or derived from
an environment model, in which case a single law draw yields the coupled
pair (A, B) = (limit shape value, reciprocal mean).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._engines import _CHECK_EVERY
from .environment import (
    TWO_POINT, UNIFORM, EnvironmentModel, FinitePmfFamily, LinearFractionalFamily, PoissonFamily,
)
from .numerics import (
    InverseGammaParams, RandomStream, invgamma_cdf, ks_one_sample, ks_two_sample, two_point_octets,
)

__all__ = [
    "ConstantLaw",
    "DiracLimit",
    "FitResult",
    "InadmissibleRegimeError",
    "NonContractiveError",
    "PerpetuityRegime",
    "PerpetuitySpec",
    "TwoPointLaw",
    "annuity_residual",
    "from_environment",
    "limit_fit_test",
    "limit_law",
    "regime_of",
    "sample_chain_batch",
    "sample_series_batch",
]


class InadmissibleRegimeError(ValueError):
    """The coefficient law falls outside beta > -gamma/2, where the series
    typically diverges almost surely."""


class NonContractiveError(ValueError):
    """No u in (0, 1) gives E[B**u] < 1, so no certified truncation exists."""


# ---------------------------------------------------------------------------
# Scalar coefficient laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantLaw:
    value: float

    def __post_init__(self) -> None:
        if not (self.value >= 0.0 and math.isfinite(self.value)):
            raise ValueError(f"coefficient must be nonnegative and finite, got {self.value}")

    def mean(self) -> float:
        return self.value

    def mean_sq(self) -> float:
        return self.value**2

    def power_mean(self, u: float) -> float:
        return self.value**u

    def upper(self) -> float:
        return self.value

    def sample(self, rng: RandomStream, size: int) -> np.ndarray:
        return np.full(size, self.value)


@dataclass(frozen=True)
class TwoPointLaw:
    """Equiprobable two-point law on {lo, hi}."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo <= self.hi and math.isfinite(self.hi)):
            raise ValueError(f"need 0 <= lo <= hi < inf, got ({self.lo}, {self.hi})")

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def mean_sq(self) -> float:
        return 0.5 * (self.lo**2 + self.hi**2)

    def power_mean(self, u: float) -> float:
        return 0.5 * (self.lo**u + self.hi**u)

    def upper(self) -> float:
        return self.hi

    def sample(self, rng: RandomStream, size: int) -> np.ndarray:
        """One stream bit per draw, mapped to exactly ``lo`` or ``hi``."""
        return rng.two_point(self._octets, size)

    @functools.cached_property
    def _octets(self) -> np.ndarray:
        return two_point_octets(self.lo, self.hi)


ScalarLaw = ConstantLaw | TwoPointLaw


# ---------------------------------------------------------------------------
# Perpetuity specifications
# ---------------------------------------------------------------------------

def _limit_shape_values(model: EnvironmentModel, means: np.ndarray) -> np.ndarray:
    """Shape-at-one of the family law, vectorized over realized means.

    The finite family's shape f''(1)/(2 m^2) has no closed form in the
    mean.  Under uniform noise it is computed on the rows of one vectorized
    tilt solve; otherwise it is evaluated once per distinct mean from
    ``model.law_for_mean`` (the model's own laws at its support means).
    """
    family = model.family
    if isinstance(family, PoissonFamily):
        return np.full(means.shape, 0.5)
    if isinstance(family, LinearFractionalFamily):
        return 1.0 / (1.0 - family.p0) - 1.0 / means
    if model.noise == UNIFORM and model.nu > 0.0:
        weights = family.tilted_weights(family.law_params(means))
        z = np.arange(weights.shape[-1])
        m = (weights * z).sum(axis=-1)
        return (weights * (z * (z - 1))).sum(axis=-1) / (2.0 * m * m)
    distinct, inverse = np.unique(means, return_inverse=True)
    shapes = np.array([model.law_for_mean(float(m)).shape_at_one() for m in distinct])
    return shapes[inverse]


@dataclass(frozen=True)
class PerpetuitySpec:
    """Coefficient model for the discounted series.

    Either an independent pair of scalar laws (the A and B draws never
    interact), or an environment coupling where one offspring-law draw
    produces both coordinates; independence across steps k holds in both
    cases, and ``coupled`` records which construction is in force.
    """

    a_law: ScalarLaw | None = None
    b_law: ScalarLaw | None = None
    model: EnvironmentModel | None = None

    def __post_init__(self) -> None:
        env = self.model is not None
        scalar = self.a_law is not None and self.b_law is not None
        if env == scalar:
            raise ValueError("specify either (a_law, b_law) or an environment model")

    @property
    def coupled(self) -> bool:
        return self.model is not None

    # -- exact moments -------------------------------------------------------

    def alpha(self) -> float:
        if self.model is not None:
            return self.model.mean_expectation(
                lambda m: self.model.family.law_for_mean(m).shape_at_one()
            )
        return self.a_law.mean()

    def b_mean(self) -> float:
        if self.model is not None:
            return self.model.inverse_moment(1.0)
        return self.b_law.mean()

    def b_mean_sq(self) -> float:
        if self.model is not None:
            return self.model.inverse_moment(2.0)
        return self.b_law.mean_sq()

    def b_power_mean(self, u: float) -> float:
        if self.model is not None:
            return self.model.inverse_moment(u)
        return self.b_law.power_mean(u)

    def a_upper(self) -> float:
        if self.model is None:
            return self.a_law.upper()
        m_lo, m_hi = self.model.mean_bounds()
        grid = np.linspace(m_lo, m_hi, 65)
        return float(np.max(_limit_shape_values(self.model, grid))) * (1.0 + 1e-9)

    # -- sampling --------------------------------------------------------------

    def sample_pairs(self, rng: RandomStream, size: int) -> tuple[np.ndarray, np.ndarray]:
        if self.model is not None:
            means = self.model.sample_means(rng, size=size)
            if self._support_shapes is None:
                return _limit_shape_values(self.model, means), 1.0 / means
            m_hi, shapes = self._support_shapes
            return shapes.take((means == m_hi).view(np.uint8)), 1.0 / means
        return self.a_law.sample(rng, size), self.b_law.sample(rng, size)

    @functools.cached_property
    def _support_shapes(self) -> tuple[float, np.ndarray] | None:
        """``(m_hi, A at (m_lo, m_hi))`` for a finite family, whose A has no
        closed form, under two-point noise; None otherwise."""
        model = self.model
        if model is None or model.noise != TWO_POINT or model.nu == 0.0:
            return None
        if not isinstance(model.family, FinitePmfFamily):
            return None
        support = model.support_means()
        return support[1], np.array([model.law_for_mean(m).shape_at_one() for m in support])


def from_environment(model: EnvironmentModel) -> PerpetuitySpec:
    """Coefficient pair induced by an environment: one offspring-law draw
    with mean m yields A = limit shape value of the law and B = 1/m."""
    return PerpetuitySpec(model=model)


# ---------------------------------------------------------------------------
# Regimes and limit laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerpetuityRegime:
    """(beta, gamma, rho_hat, alpha) of a coefficient law; only admissible
    regimes (beta > -gamma/2) are constructible."""

    beta: float
    gamma: float
    rho_hat: float
    alpha: float

    def __post_init__(self) -> None:
        if not (self.beta > -0.5 * self.gamma):
            raise InadmissibleRegimeError(
                f"beta = {self.beta} is not above -gamma/2 = {-0.5 * self.gamma}; "
                "the series diverges in this region"
            )


def regime_of(spec: PerpetuitySpec) -> PerpetuityRegime:
    """Exact regime parameters of a coefficient specification."""
    b_mean = spec.b_mean()
    beta = 1.0 - b_mean
    gamma = max(0.0, spec.b_mean_sq() - b_mean * b_mean)
    rho_hat = beta / gamma if gamma > 0.0 else math.inf
    return PerpetuityRegime(beta=beta, gamma=gamma, rho_hat=rho_hat, alpha=spec.alpha())


@dataclass(frozen=True)
class DiracLimit:
    """Degenerate limit at ``alpha`` (vanishing-variance regime)."""

    alpha: float


def limit_law(regime: PerpetuityRegime) -> DiracLimit | InverseGammaParams:
    """Limit of the rescaled series: a point mass at alpha when gamma is
    negligible (rho_hat infinite), otherwise the inverse gamma law with
    shape 2*rho_hat + 1 and scale 2*alpha."""
    if not (regime.rho_hat > -0.5):
        raise InadmissibleRegimeError(f"rho_hat = {regime.rho_hat} is outside (-1/2, inf]")
    if math.isinf(regime.rho_hat):
        return DiracLimit(alpha=regime.alpha)
    return InverseGammaParams(a=2.0 * regime.rho_hat + 1.0, b=2.0 * regime.alpha)


# ---------------------------------------------------------------------------
# Certified series truncation
# ---------------------------------------------------------------------------

def contraction_rate(spec: PerpetuitySpec) -> tuple[float, float]:
    """(u, theta) with E[B**u] = exp(-theta) < 1, by a bounded scalar
    minimization of the fractional moment over u in (0, 1)."""
    from scipy.optimize import minimize_scalar

    result = minimize_scalar(
        lambda u: spec.b_power_mean(u),
        bounds=(1e-6, 1.0 - 1e-6),
        method="bounded",
        options={"xatol": 1e-10},
    )
    u = float(result.x)
    value = float(result.fun)
    if value <= 0.0:
        return u, math.inf
    if value >= 1.0:
        raise NonContractiveError(
            f"min over u of E[B^u] is {value} >= 1; series truncation cannot be certified"
        )
    return u, -math.log(value)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def sample_series_batch(
    spec: PerpetuitySpec,
    n: int,
    rng: RandomStream,
    *,
    tol: float = 1e-6,
    k_max: int = 200_000,
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` draws of the series by direct partial summation.

    Each lane runs ``acc += C_k * A_{k+1}; C_{k+1} = C_k * B_{k+1}`` and
    stops once C_k * sup(A) / (1 - exp(-theta)) < tol with theta the spec's
    contraction rate, so the discarded tail is below ``tol`` in
    expectation.  The rule is tested every ``_CHECK_EVERY`` terms and at
    ``k_max``, so a lane may add up to ``_CHECK_EVERY - 1`` terms past its
    first eligible stop.  Lanes still live at ``k_max`` are flagged.
    """
    regime_of(spec)  # admissibility gate
    _, theta = contraction_rate(spec)
    tail_scale = spec.a_upper() if math.isinf(theta) else spec.a_upper() / (-math.expm1(-theta))
    c_tol = tol / max(tail_scale, 1e-300)

    values = np.zeros(n)
    flags = np.ones(n, dtype=bool)
    idx = np.arange(n)
    c = np.ones(n)
    acc = np.zeros(n)

    for k in range(1, k_max + 1):
        a, b = spec.sample_pairs(rng, idx.size)
        acc += c * a
        c *= b
        if k % _CHECK_EVERY and k < k_max:
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


def default_burn_in(spec: PerpetuitySpec) -> int:
    """Smallest t with (E[B**u])**(t/u) < 1e-8: geometric forgetting of the
    zero initializer in the annuity recursion."""
    u, theta = contraction_rate(spec)
    if math.isinf(theta):
        return 1
    return max(1, math.ceil(u * math.log(1e8) / theta))


def sample_chain_batch(
    spec: PerpetuitySpec,
    n: int,
    rng: RandomStream,
    *,
    burn_in: int | None = None,
) -> np.ndarray:
    """``n`` approximate stationary draws by iterating y <- A + B y from 0."""
    regime_of(spec)  # admissibility gate, before the contraction rate
    if burn_in is None:
        burn_in = default_burn_in(spec)
    if burn_in < 1:
        raise ValueError(f"need burn_in >= 1, got {burn_in}")
    y = np.zeros(n)
    for _ in range(burn_in):
        a, b = spec.sample_pairs(rng, n)
        y = a + b * y
    return y


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def annuity_residual(spec: PerpetuitySpec, n_samples: int, rng: RandomStream) -> float:
    """Two-sample KS distance certifying the stochastic fixed point.

    Compares series draws {Y_i} against {A_i + B_i Y_sigma(i)} where the
    coefficient pairs are fresh and sigma is a random pairing, making each
    right-hand term a draw of A + B Y with independent coordinates.
    Raises :class:`NonContractiveError` if any series draw is flagged.
    """
    if n_samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {n_samples}")
    y, flags = sample_series_batch(spec, n_samples, rng)
    n_flagged = int(np.count_nonzero(flags))
    if n_flagged:
        raise NonContractiveError(
            f"{n_flagged} of {n_samples} series draws still above the tail bound at k_max"
        )
    a, b = spec.sample_pairs(rng, n_samples)
    perm = rng.generator.permutation(n_samples)
    return ks_two_sample(y, a + b * y[perm])


@dataclass(frozen=True)
class FitResult:
    """Goodness of fit of rescaled series draws against their limit law.

    Inverse-gamma limits report the one-sample KS distance of gamma*Y;
    degenerate limits report the fraction of beta*Y within 10% of alpha
    (``concentration``), because a KS statistic against a step CDF is
    noise-dominated.  ``n_flagged`` counts draws whose series was cut at
    ``k_max`` before its tail bound was met (truncated partial sums).
    """

    limit: DiracLimit | InverseGammaParams
    scaled_by: str  # "gamma" | "beta"
    ks_distance: float | None
    concentration: float | None
    n_samples: int
    n_flagged: int


def limit_fit_test(
    spec: PerpetuitySpec,
    n_samples: int,
    rng: RandomStream,
    *,
    tol: float = 1e-6,
) -> FitResult:
    """Draw the series ``n_samples`` times and test the rescaled sample
    against the regime's limit law."""
    regime = regime_of(spec)
    limit = limit_law(regime)
    y, flags = sample_series_batch(spec, n_samples, rng, tol=tol)
    n_flagged = int(np.count_nonzero(flags))
    if isinstance(limit, DiracLimit):
        scaled = regime.beta * y
        within = np.abs(scaled - regime.alpha) <= 0.1 * regime.alpha
        return FitResult(
            limit=limit,
            scaled_by="beta",
            ks_distance=None,
            concentration=float(np.mean(within)),
            n_samples=n_samples,
            n_flagged=n_flagged,
        )
    scaled = regime.gamma * y

    def cdf(x: np.ndarray) -> np.ndarray:
        f = np.zeros_like(x)
        positive = x > 0.0
        f[positive] = invgamma_cdf(limit, x[positive])
        return f

    return FitResult(
        limit=limit,
        scaled_by="gamma",
        ks_distance=ks_one_sample(scaled, cdf),
        concentration=None,
        n_samples=n_samples,
        n_flagged=n_flagged,
    )
