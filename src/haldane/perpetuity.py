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

from ._engines import annuity_batch, annuity_byte_tables, byte_step
from .environment import TWO_POINT, UNIFORM, EnvironmentModel, LinearFractionalFamily, PoissonFamily
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
    """Shape-at-one of the family law, vectorized over realized means: the
    coupled A of :meth:`PerpetuitySpec.sample_pairs` (under two-point
    noise the series evaluates it once, at the two support means, for
    :meth:`PerpetuitySpec.byte_tables`).

    The finite family's shape f''(1)/(2 m^2) has no closed form in the
    mean.  Under uniform noise it is computed on the rows of one vectorized
    tilt solve; otherwise it is evaluated once per distinct mean from
    ``model.law_for_mean`` (the model's own laws at its support means).
    """
    family = model.family
    if isinstance(family, PoissonFamily):
        return np.broadcast_to(0.5, means.shape)
    if isinstance(family, LinearFractionalFamily):
        return 1.0 / (1.0 - family.p0) - 1.0 / means
    if model.noise == UNIFORM and model.nu > 0.0:
        weights = family.tilted_weights(family.law_params(means))
        z = np.arange(weights.shape[-1])
        m = (weights * z).sum(axis=-1)
        return (weights * (z * (z - 1))).sum(axis=-1) / (2.0 * m * m)
    distinct, inverse = np.unique(means, return_inverse=True)
    shapes = np.array([model.law_for_mean(float(m)).shape_at_one() for m in distinct])
    return shapes[inverse].reshape(means.shape)


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
            return self.model.mean_expectation(lambda m: self.model.law_for_mean(m).shape_at_one())
        return self.a_law.mean()

    def b_power_mean(self, u: float) -> float:
        if self.model is not None:
            return self.model.inverse_moment(u)
        return self.b_law.power_mean(u)

    def a_upper(self) -> float:
        """An upper bound on A: the largest A that two-point or degenerate
        noise draws, or the largest on a 65-point grid of means under
        uniform noise; a model's bound is raised by a relative 1e-9."""
        if self.model is None:
            return self.a_law.upper()
        if self.model.noise == UNIFORM and self.model.nu > 0.0:
            m_lo, m_hi = self.model.mean_bounds()
            means = np.linspace(m_lo, m_hi, 65)
        else:
            means = np.array(self.model.support_means())
        return float(np.max(_limit_shape_values(self.model, means))) * (1.0 + 1e-9)

    # -- sampling --------------------------------------------------------------

    @property
    def constant(self) -> bool:
        """Every pair is the same (a degenerate environment or two constant laws) and reads no stream words."""
        if self.model is not None:
            return self.model.nu == 0.0
        return isinstance(self.a_law, ConstantLaw) and isinstance(self.b_law, ConstantLaw)

    def sample_pairs(
        self, rng: RandomStream, size: int, rows: int = 1, *, packed: bool = False
    ) -> tuple[np.ndarray, np.ndarray] | np.ndarray:
        """``size`` pairs (A, B); A may be a read-only broadcast view.

        An environment's pairs map ``model.sample_means`` draws (a Poisson
        A, equal at every mean, is broadcast); scalar laws draw A, then B.
        Only ``packed`` draws (two-point noise with ``nu > 0``, ``rows <=
        8``) take ``rows``: the pairs of ``rows`` terms of ``size // rows``
        lanes come back as one stream byte per lane whose bit j selects the
        pair of term j (:meth:`RandomStream.lane_bytes`), for
        :meth:`byte_tables`.
        """
        if packed:
            if self._support_pairs is None:
                raise ValueError("packed pairs need an environment with two-point noise and nu > 0")
            return rng.lane_bytes(size, rows)
        if rows != 1:
            raise ValueError(f"only packed pairs take rows > 1, got rows = {rows}")
        if self.model is not None:
            means = self.model.sample_means(rng, size=size)
            return _limit_shape_values(self.model, means), np.divide(1.0, means, out=means)
        return self.a_law.sample(rng, size), self.b_law.sample(rng, size)

    def byte_tables(self):
        """The :func:`haldane._engines.annuity_byte_tables` of the two
        pairs that a packed draw selects, or None where :meth:`sample_pairs`
        has no packed draw."""
        if self._support_pairs is None:
            return None
        (a_lo, a_hi), (b_lo, b_hi) = self._support_pairs
        return annuity_byte_tables(a_lo, b_lo, a_hi, b_hi)

    @functools.cached_property
    def _support_pairs(self) -> tuple[tuple[float, float], tuple[float, float]] | None:
        """``((A, A), (B, B))`` at the (low, high) support mean under
        two-point noise, bitwise what mapping drawn means gives; None for
        scalar laws, uniform noise and a degenerate environment."""
        model = self.model
        if model is None or model.noise != TWO_POINT or model.nu == 0.0:
            return None
        means = np.array(model.support_means())
        a, b = _limit_shape_values(model, means), np.divide(1.0, means)
        return (float(a[0]), float(a[1])), (float(b[0]), float(b[1]))


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
    b_mean = spec.b_power_mean(1.0)
    beta = 1.0 - b_mean
    gamma = max(0.0, spec.b_power_mean(2.0) - b_mean * b_mean)
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
    """(u, theta) with E[B**u] = exp(-theta) < 1, minimizing the convex
    fractional moment over u in [1e-6, 1 - 1e-6].  Where B takes at most
    two values b_lo <= b_hi the minimizer is in closed form: the stationary
    point log(-log b_lo / log b_hi) / log(b_hi / b_lo) where b_lo < 1 <
    b_hi, clipped to the bounds, otherwise the bound that the monotone
    moment falls toward.  Uniform noise takes a golden-section search
    (Kiefer 1953) to a bracket of 1e-10 that returns the best point it
    evaluated, the bounds included."""
    lo, hi = 1e-6, 1.0 - 1e-6
    model, law = spec.model, spec.b_law
    if model is not None and model.noise == UNIFORM and model.nu > 0.0:
        shrink, a, b = (math.sqrt(5.0) - 1.0) / 2.0, lo, hi
        best = min((spec.b_power_mean(u), u) for u in (lo, hi))
        while b - a > 1e-10:
            c, d = b - shrink * (b - a), a + shrink * (b - a)
            fc, fd = spec.b_power_mean(c), spec.b_power_mean(d)
            best = min(best, (fc, c), (fd, d))
            a, b = (a, d) if fc <= fd else (c, b)
        value, u = best
    else:
        if model is not None:
            b_lo, b_hi = (1.0 / m for m in reversed(model.mean_bounds()))
        else:
            b_lo, b_hi = (law.value, law.value) if isinstance(law, ConstantLaw) else (law.lo, law.hi)
        if b_hi <= 1.0 or b_lo >= 1.0 or b_lo == 0.0:
            u = hi if b_hi <= 1.0 else lo
        else:
            log_lo, log_hi = math.log(b_lo), math.log(b_hi)
            u = min(hi, max(lo, math.log(-log_lo / log_hi) / (log_hi - log_lo)))
        value = spec.b_power_mean(u)
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

    Each lane runs ``acc += C_k * A_{k+1}; C_{k+1} = C_k * B_{k+1}`` in
    :func:`haldane._engines.annuity_batch`, which sets how often the rule
    is tested.  A lane stops once C_k * sup(A) / (1 - exp(-theta)) < tol
    with theta the spec's contraction rate, so the discarded tail is below
    ``tol`` in expectation; lanes still live at ``k_max`` are flagged.

    Under two-point noise (where :meth:`PerpetuitySpec.byte_tables` has
    tables) each check interval is one ``sample_pairs`` draw of lane
    bytes, and a lane advances by the whole interval as ``acc +=
    c*T_sum[b]; c *= T_prod[b]``, rounding once per interval; otherwise
    each term is one ``sample_pairs`` draw.  A lane-byte draw reads
    ``ceil(lanes / 8)`` 64-bit stream outputs per interval, where a term's
    draw reads a stream bit per lane.  A constant spec runs one lane and
    repeats it: every lane would do the same arithmetic, and its pairs read
    no stream words.
    """
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol must lie in (0, inf), got {tol}")
    regime_of(spec)  # admissibility gate
    _, theta = contraction_rate(spec)
    tail_scale = spec.a_upper() if math.isinf(theta) else spec.a_upper() / (-math.expm1(-theta))
    c_tol = tol / max(tail_scale, 1e-300)
    lanes = min(n, 1) if spec.constant else n
    term = np.empty(lanes)

    def stop(acc, c, prev):
        return c < c_tol

    tables = spec.byte_tables()
    if tables is not None:
        def draw(rows, width):
            return spec.sample_pairs(rng, rows * width, rows, packed=True)

        return annuity_batch(lanes, k_max, byte_step(tables, draw, term, with_prev=False), stop)

    def advance(acc, c, rows):
        out = term[:c.size]
        for _ in range(rows):
            a, b = spec.sample_pairs(rng, c.size)
            np.multiply(c, a, out=out)
            acc += out
            c *= b
        return acc, c, None

    values, flags = annuity_batch(lanes, k_max, advance, stop)
    return (values, flags) if lanes == n else (np.repeat(values, n), np.repeat(flags, n))


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
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
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
