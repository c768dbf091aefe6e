"""Environment paths, the shape-function representation of conditional
survival, independent survival estimators, and Haldane-prediction sweeps.

The central identity verified and exploited here: for an environment path
with offspring laws f_1, ..., f_n, composed extinction probabilities
q_k = f_{k+1}(q_{k+1}) (q_n = 0), running mean products mu_k, and shape
functions psi_k of f_k,

    1 / (1 - q_0)  =  1 / mu_n  +  sum_{k<n}  psi_{k+1}(q_{k+1}) / mu_k.

The left side is the reciprocal conditional survival by generation n; the
sum converges as the horizon grows whenever the path is supercritical.
All recursions run in survival coordinates (r = 1 - q) so the identity can
be checked to within a relative 1e-9 even on paths whose conditional
survival is tiny.

Two estimators of the limiting survival probability are provided: the
primary generating-function estimator (exact per environment replicate)
and an agent-level population simulation used as a validation oracle.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import _engines
from .environment import (
    TWO_POINT,
    EnvironmentModel,
    LinearFractionalFamily,
    RegimeParams,
    make_environment,
    regime_classify,
)
from .numerics import EstimateResult, RandomStream, combine_batch_stats
from .offspring import LinearFractional, OffspringLaw

__all__ = [
    "EnvPath",
    "EstimateResult",
    "SurvivalIdentity",
    "SweepRow",
    "backward_extinction",
    "estimate_survival_gf",
    "gw_fixed_point_survival",
    "haldane_prediction",
    "haldane_sweep",
    "lf_exact_extinction",
    "lf_exact_survival",
    "sample_env_path",
    "simulate_population",
    "survival_identity",
]


# ---------------------------------------------------------------------------
# Environment paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EnvPath:
    """A realized environment: offspring laws f_1, ..., f_n with the cached
    cumulative log of their means (``cum_log_mean[k] = sum_{i<=k} log f_i'(1)``,
    ``cum_log_mean[0] = 0``)."""

    laws: tuple[OffspringLaw, ...]
    cum_log_mean: np.ndarray

    def __post_init__(self) -> None:
        if len(self.laws) == 0:
            raise ValueError("environment path must contain at least one law")
        if self.cum_log_mean.shape != (len(self.laws) + 1,):
            raise ValueError("cum_log_mean must have length n + 1")
        if self.cum_log_mean[0] != 0.0:
            raise ValueError("cum_log_mean must start at 0")

    @classmethod
    def from_laws(cls, laws) -> "EnvPath":
        laws = tuple(laws)
        logs = np.concatenate([[0.0], np.cumsum([math.log(law.mean()) for law in laws])])
        return cls(laws=laws, cum_log_mean=logs)

    @property
    def n(self) -> int:
        return len(self.laws)


def sample_env_path(model: EnvironmentModel, n: int, rng: RandomStream) -> EnvPath:
    """Draw n iid offspring laws from the model."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    means = model.sample_means(rng, size=n)
    return EnvPath.from_laws(model.law_for_mean(float(m)) for m in means)


def _backward_survival(path: EnvPath) -> np.ndarray:
    """Conditional survival r_k = 1 - q_k for k = 0..n, computed without
    cancellation (r_n = 1; r_k = 1 - f_{k+1}(1 - r_{k+1}))."""
    n = path.n
    r = np.empty(n + 1)
    r[n] = 1.0
    value = 1.0
    for k in range(n - 1, -1, -1):
        value = path.laws[k].survival_map(value)
        r[k] = value
    return r


def backward_extinction(path: EnvPath) -> np.ndarray:
    """Composed extinction probabilities q_k = f_{k+1}(q_{k+1}), q_n = 0.

    Returns the array indexed by generation k = 0..n; the conditional
    survival of the path is 1 - q_0.
    """
    return 1.0 - _backward_survival(path)


def lf_exact_survival(path: EnvPath) -> float:
    """Closed-form conditional survival 1 - q_0 of an all-linear-fractional path.

    The one-step survival maps are Moebius maps with nonnegative matrix
    entries, so the whole composition is a single renormalized 2x2 product
    evaluated at the tail value r_n = 1.  The result (a+b)/(c+d) is a ratio
    of sums of nonnegative terms, so it keeps its relative accuracy when the
    survival is tiny, where 1 - q_0 would cancel.
    """
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for law in path.laws:
        if not isinstance(law, LinearFractional):
            raise TypeError(f"lf_exact_survival requires linear-fractional laws, got {law!r}")
        la, lb, lc, ld = law.moebius()
        a, b = a * la + b * lc, a * lb + b * ld
        c, d = c * la + d * lc, c * lb + d * ld
        scale = max(a, b, c, d)
        a, b, c, d = a / scale, b / scale, c / scale, d / scale
    return (a + b) / (c + d)


def lf_exact_extinction(path: EnvPath) -> float:
    """Closed-form q_0 for an all-linear-fractional path: one minus
    :func:`lf_exact_survival`."""
    return 1.0 - lf_exact_survival(path)


@dataclass(frozen=True)
class SurvivalIdentity:
    """Numerical audit of the reciprocal-survival identity for one path.

    ``shape_series`` is the weighted shape sum over generations,
    ``mean_inverse_tail`` the reciprocal of the final mean product; their
    sum reproduces 1/(1 - q_0) up to ``identity_residual`` (relative).
    When the path's conditional survival underflows to zero, or a mean
    product falls below the doubles (the survival is at most that product,
    and the reciprocal overflows to inf), the residual is not computable
    and ``extinction_certain`` is set instead.
    """

    shape_series: float
    mean_inverse_tail: float
    survival: float
    identity_residual: float
    extinction_certain: bool


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def survival_identity(path: EnvPath) -> SurvivalIdentity:
    r = _backward_survival(path)
    inverse_means = [_exp_or_inf(-log_mu) for log_mu in path.cum_log_mean]
    terms = [inverse_means[k] * path.laws[k].shape_from_survival(r[k + 1]) for k in range(path.n)]
    shape_series = math.fsum(terms)
    tail = inverse_means[path.n]
    if r[0] == 0.0 or not math.isfinite(shape_series + tail):
        return SurvivalIdentity(
            shape_series=shape_series,
            mean_inverse_tail=tail,
            survival=float(r[0]),
            identity_residual=math.nan,
            extinction_certain=True,
        )
    lhs = 1.0 / r[0]
    residual = abs(lhs - (tail + shape_series)) / lhs
    return SurvivalIdentity(
        shape_series=shape_series,
        mean_inverse_tail=tail,
        survival=float(r[0]),
        identity_residual=residual,
        extinction_certain=False,
    )


# ---------------------------------------------------------------------------
# Classical fixed-point oracle
# ---------------------------------------------------------------------------

def gw_fixed_point_survival(law: OffspringLaw) -> float:
    """Ultimate survival probability of the constant-environment process,
    from the smallest fixed point of the generating function.

    Independent of the shape-function representation: solves
    r = 1 - f(1 - r) by bisection of [1e-14, 1] down to adjacent doubles.
    """
    if law.mean() <= 1.0:
        return 0.0

    def gap(r: float) -> float:
        return law.survival_map(r) - r

    lo, hi = 1e-14, 1.0
    if gap(lo) <= 0.0:
        return 0.0
    if gap(hi) >= 0.0:
        return 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if gap(mid) > 0.0 else (lo, mid)
    return lo


# ---------------------------------------------------------------------------
# Haldane predictions
# ---------------------------------------------------------------------------

def haldane_prediction(params: RegimeParams) -> float:
    """Predicted survival probability for the regime: 2*eps/sigma^2 when
    the mean-variance ratio vanishes, (2-rho)*eps/sigma^2 for rho < 2, and
    0 beyond the subcriticality transition at rho = 2."""
    case = regime_classify(params)
    if case == "boundary":
        raise ValueError("no prediction at the transition ratio rho = 2")
    if case == "case_i":
        return 2.0 * params.epsilon / params.sigma_sq
    if case == "case_ii":
        return (2.0 - params.rho) * params.epsilon / params.sigma_sq
    return 0.0


# ---------------------------------------------------------------------------
# Generating-function estimator
# ---------------------------------------------------------------------------

def estimate_survival_gf(
    model: EnvironmentModel,
    *,
    n_reps: int,
    seed: int,
    tol_q: float = 1e-8,
    tol_mu: float = 1e-6,
    n_max: int = 100_000,
    stream_base: int = 0,
) -> EstimateResult:
    """Monte Carlo survival estimate by composing generating functions.

    Each replicate draws an environment path and computes its conditional
    survival 1 - q_0 at an adaptive horizon: the path is extended until
    the one-step increment of q_0 falls below ``tol_q`` while the
    reciprocal mean product is below ``tol_mu``, until the conditional
    survival drops below 1e-15 (certain extinction, an exact stopping
    bound), or until ``n_max`` generations (counted in ``n_flagged``).

    Replicates are grouped into fixed batches of 16384 lanes; batch j
    draws from stream ``(seed, stream_base + j)``, making the result a
    pure function of ``(seed, n_reps)``.  With a degenerate environment
    every path coincides, so one lane of the family's engine, on stream
    ``(seed, stream_base)``, gives the estimate with zero standard error.
    """
    if n_reps < 1:
        raise ValueError(f"need n_reps >= 1, got {n_reps}")
    if not (0.0 < tol_q < 1.0 and 0.0 < tol_mu < 1.0):
        raise ValueError(f"tol_q and tol_mu must lie in (0, 1), got {tol_q} and {tol_mu}")
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    if isinstance(model.family, LinearFractionalFamily):
        engine = _engines.gf_lf_batch
    else:
        engine = _engines.gf_replay_batch

    def run_batch(lanes, stream_id):
        values, flagged = engine(model, lanes, seed, stream_id, tol_q, tol_mu, n_max)
        total = float(np.sum(values))
        return (lanes, total, float(np.sum((values - total / lanes) ** 2))), int(np.count_nonzero(flagged))

    # with nu = 0 every path coincides, so one replicate stands for all
    reps = 1 if model.nu == 0.0 else n_reps
    batches, n_flagged = _run_batches(reps, stream_base, run_batch)
    result = combine_batch_stats(batches, seed=seed, n_flagged=n_flagged * (n_reps // reps))
    return dataclasses.replace(result, n_reps=n_reps)


def _run_batches(n_reps: int, stream_base: int, run_batch):
    """The (count, sum, M2) triples and summed lane count that
    ``run_batch(lanes, stream_id)`` returns for batches of up to
    ``BATCH_SIZE`` of ``n_reps`` lanes, batch j on ``stream_base + j``."""
    batches = []
    n_marked = 0
    for j, start in enumerate(range(0, n_reps, _engines.BATCH_SIZE)):
        stats, marked = run_batch(min(_engines.BATCH_SIZE, n_reps - start), stream_base + j)
        batches.append(stats)
        n_marked += marked
    return batches, n_marked


# ---------------------------------------------------------------------------
# Population simulation (validation oracle)
# ---------------------------------------------------------------------------

def simulate_population(
    model: EnvironmentModel,
    *,
    n_reps: int,
    seed: int,
    cap_multiplier: float = 50.0,
    max_individuals: int = 10_000_000,
    stream_base: int = 0,
) -> EstimateResult:
    """Survival estimate by simulating populations agent-exactly.

    A replicate survives when it reaches K = ceil(cap_multiplier/epsilon)
    individuals and goes extinct at zero; misclassification from the
    finite cap is bounded by (1 - pi)^K.  Per-generation offspring sums
    are drawn from their exact family laws (Poisson, binomial plus
    negative binomial, or one multinomial draw of the value counts), never
    from normal approximations.  A constant environment is a model with
    ``nu = 0``.  The model must be supercritical (epsilon > 0, rho < 2).

    Replicates exceeding ``max_individuals`` simulated individuals while
    undecided are counted as survivors and reported in ``n_overrun``.
    """
    if not isinstance(model, EnvironmentModel):
        raise TypeError(f"need an EnvironmentModel (a fixed law is one with nu = 0), got {model!r}")
    if n_reps < 1:
        raise ValueError(f"need n_reps >= 1, got {n_reps}")
    if model.epsilon <= 0.0:
        raise ValueError("population simulation needs a supercritical model (epsilon > 0)")
    if model.nu / model.epsilon >= 2.0:
        raise ValueError(
            "population simulation is restricted to the supercritical "
            f"regimes (rho < 2), got rho = {model.nu / model.epsilon}"
        )
    if not (0.0 < cap_multiplier < math.inf):
        raise ValueError(f"cap_multiplier must lie in (0, inf), got {cap_multiplier}")
    cap = max(2, math.ceil(cap_multiplier / model.epsilon))

    def run_batch(lanes, stream_id):
        survived, overrun = _engines.population_batch(model, lanes, seed, stream_id, cap, max_individuals)
        total = float(np.count_nonzero(survived))
        return (lanes, total, total - total * total / lanes), int(np.count_nonzero(overrun))

    batches, n_overrun = _run_batches(n_reps, stream_base, run_batch)
    return combine_batch_stats(batches, seed=seed, n_overrun=n_overrun)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One survival-table point: a model's estimate beside its regime
    prediction, as :meth:`of` derives them.

    ``rho`` is nu/epsilon (inf at epsilon = 0).  ``prediction`` is None
    where the paper makes none: at the transition rho = 2, and wherever
    :class:`RegimeParams` rejects the point (epsilon <= 0).  ``ratio`` is
    estimate/prediction, the raw estimate when the prediction is zero (the
    subcritical regime), and None without a prediction.
    """

    epsilon: float
    nu: float
    rho: float
    sigma_sq: float
    result: EstimateResult
    prediction: float | None
    ratio: float | None

    @classmethod
    def of(cls, model: EnvironmentModel, result: EstimateResult) -> "SweepRow":
        eps, nu = model.epsilon, model.nu
        rho = nu / eps if eps > 0.0 else math.inf
        sigma_sq = model.family.sigma_sq_limit()
        try:
            prediction = haldane_prediction(RegimeParams(epsilon=eps, nu=nu, rho=rho, sigma_sq=sigma_sq))
        except ValueError:
            prediction = ratio = None
        else:
            ratio = result.estimate / prediction if prediction > 0.0 else result.estimate
        return cls(eps, nu, rho, sigma_sq, result, prediction, ratio)


def haldane_sweep(
    family,
    rho: float,
    eps_list,
    *,
    noise: str = TWO_POINT,
    n_reps: int,
    seed: int,
    tol_q: float = 1e-8,
    tol_mu: float = 1e-6,
    n_max: int = 100_000,
) -> list[SweepRow]:
    """Survival estimates along decreasing mean excess with nu = rho * eps.

    Each row couples the environment variance exactly to the mean excess,
    runs the generating-function estimator, and reports the ratio to the
    regime prediction (:meth:`SweepRow.of`).  Row i draws from stream ids
    starting at (2i) << 32 of the same master seed, the layout of the
    gf rows of ``haldane sweep``: rows are independent, the whole table is
    reproducible from ``seed``, and the CLI prints the same numbers.
    """
    eps_list = [float(e) for e in eps_list]
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if rho < 0.0:
        raise ValueError(f"need rho >= 0, got {rho}")
    rows = []
    for i, eps in enumerate(eps_list):
        model = make_environment(family, epsilon=eps, nu=rho * eps, noise=noise)
        result = estimate_survival_gf(
            model, n_reps=n_reps, seed=seed, tol_q=tol_q, tol_mu=tol_mu, n_max=n_max, stream_base=(2 * i) << 32,
        )
        rows.append(SweepRow.of(model, result))
    return rows
