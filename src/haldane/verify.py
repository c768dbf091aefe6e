"""One registry of named checks behind ``haldane verify`` and the
acceptance criteria A1..A8.

Each entry of ``CHECKS`` has a stable name, a mathematical anchor (the
identity or bound it exercises) and, if it is an acceptance criterion, its
id.  ``--level fast`` runs the invariant checks in a few seconds;
``--level full`` runs every entry once, the criteria at their full size:
three invariant checks are criteria at full size (``representation-identity``
is A5, ``laplace-ode`` A6, ``expansion-decay`` A7) and enforce the
conditions of both sizes there, and A1-A4 and A8 run at full level only.
Tolerances are fixed here, not calibrated at run time; every check is
statistical at most and fully seeded, so outcomes are reproducible.
``tests/test_acceptance.py`` asserts each criterion.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .environment import RegimeParams, expansion_check, make_environment
from .numerics import (
    InverseGammaParams,
    invgamma_cdf,
    invgamma_pdf,
    ks_one_sample,
    ks_threshold,
    ks_two_sample,
    laplace_ode_residual,
    lower_reg_gamma,
    rng_stream,
    upper_reg_gamma,
)
from .offspring import FinitePmf, LinearFractional, Poisson
from .perpetuity import (
    annuity_residual,
    from_environment,
    limit_fit_test,
    regime_of,
    sample_chain_batch,
    sample_series_batch,
)
from .survival import (
    SweepRow,
    backward_extinction,
    estimate_survival_gf,
    gw_fixed_point_survival,
    haldane_prediction,
    haldane_sweep,
    lf_exact_extinction,
    sample_env_path,
    simulate_population,
    survival_identity,
)

__all__ = ["CHECKS", "Check", "CheckOutcome", "run_check", "run_checks"]

_SEED = 20260801
_LAW_MATRIX = (
    Poisson(1.05),
    Poisson(0.9),
    LinearFractional(p0=0.3, p=0.2),
    LinearFractional(p0=0.1, p=0.55),
    FinitePmf((0.25, 0.5, 0.25)),
    FinitePmf((0.4, 0.1, 0.3, 0.2)),
)

CheckFn = Callable[[], tuple[bool, str]]


@dataclass(frozen=True)
class Check:
    """A named check.  ``fast`` runs it at ``--level fast`` (None: full
    level only) and ``full`` at ``--level full`` (None: as at fast); each
    returns ``(passed, detail)``.  ``aid`` is the acceptance criterion
    (``"A1"``..``"A8"``) that the full-level run is."""

    name: str
    anchor: str
    fast: CheckFn | None
    full: CheckFn | None = None
    aid: str | None = None


@dataclass(frozen=True)
class CheckOutcome:
    """One run of a check; ``aid`` is set when the run was a criterion."""

    name: str
    anchor: str
    passed: bool
    detail: str
    seconds: float
    aid: str | None = None


def _grid() -> np.ndarray:
    return np.linspace(0.0, 1.0, 1001)


# ---------------------------------------------------------------------------
# Offspring-law checks
# ---------------------------------------------------------------------------

def _check_pgf_monotone_convex():
    s = _grid()
    worst = 0.0
    for law in _LAW_MATRIX:
        f = law.pgf(s)
        if abs(f[-1] - 1.0) > 1e-12:
            return False, f"{law!r}: f(1) = {f[-1]}"
        if np.any(f[1:-1] <= f[0] - 1e-15) or np.any(f[1:-1] >= 1.0):
            return False, f"{law!r}: values leave (f(0), 1)"
        d1 = np.diff(f)
        d2 = np.diff(f, 2)
        worst = max(worst, -float(d1.min()), -float(d2.min()))
        if np.any(d1 < -1e-12) or np.any(d2 < -1e-12):
            return False, f"{law!r}: monotonicity/convexity violated"
    return True, f"min first/second differences >= -{worst:.1e}"


def _check_shape_bounds():
    s = _grid()
    margin = 0.0
    for law in _LAW_MATRIX:
        psi = law.shape(s)
        lo = 0.5 * law.shape(0.0)
        hi = 2.0 * law.shape_at_one()
        if np.any(psi < lo - 1e-12) or np.any(psi > hi + 1e-12):
            return False, f"{law!r}: shape leaves [psi(0)/2, 2 psi(1)]"
        margin = max(margin, float(np.max(psi / max(hi, 1e-300))))
    return True, f"max shape/(2 psi(1)) = {margin:.3f}"


def _check_shape_lf_constant():
    s = _grid()
    worst = 0.0
    for law in _LAW_MATRIX:
        if not isinstance(law, LinearFractional):
            continue
        psi = law.shape(s)
        worst = max(worst, float(np.max(np.abs(psi - law.shape_at_one()))))
    return worst <= 1e-9, f"max |shape - shape(1)| = {worst:.2e}"


def _check_shape_defining_identity():
    s = np.linspace(0.0, 1.0 - 1e-3, 997)
    worst = 0.0
    for law in _LAW_MATRIX:
        m = law.mean()
        f = law.pgf(s)
        psi = law.shape(s)
        res = psi * (1.0 - f) * m * (1.0 - s) + (1.0 - f) - m * (1.0 - s)
        worst = max(worst, float(np.max(np.abs(res))))
    return worst <= 1e-10, f"max residual = {worst:.2e}"


def _check_offspring_moments_mc():
    n = 1_000_000
    worst = 0.0
    for i, law in enumerate(_LAW_MATRIX):
        rng = rng_stream(_SEED, 100 + i)
        draws = law.sample(rng, size=n)
        mean_se = math.sqrt(law.variance() / n)
        pull = abs(float(np.mean(draws)) - law.mean()) / max(mean_se, 1e-15)
        worst = max(worst, pull)
        var_hat = float(np.var(draws, ddof=1))
        # standard error of the sample variance via the fourth central moment
        c4 = float(np.mean((draws - law.mean()) ** 4))
        var_se = math.sqrt(max(c4 - law.variance() ** 2, 1e-30) / n)
        pull_v = abs(var_hat - law.variance()) / max(var_se, 1e-15)
        worst = max(worst, pull_v)
        if pull > 5.0 or pull_v > 5.0:
            return False, f"{law!r}: moment pull {max(pull, pull_v):.2f} sigma"
    return True, f"worst moment pull = {worst:.2f} sigma"


# ---------------------------------------------------------------------------
# Environment checks
# ---------------------------------------------------------------------------

def _check_env_moments_mc():
    n = 1_000_000
    worst = 0.0
    for j, noise in enumerate(("two_point", "uniform")):
        model = make_environment("poisson", epsilon=0.02, nu=0.01, noise=noise)
        rng = rng_stream(_SEED, 200 + j)
        m = model.sample_means(rng, size=n)
        mean, variance = 1.0 + model.epsilon, model.nu
        checks = (
            (np.mean(m), mean, np.std(m, ddof=1) / math.sqrt(n)),
            (np.mean(1.0 / m), model.inverse_moment(1.0), np.std(1.0 / m, ddof=1) / math.sqrt(n)),
            (np.mean(np.log(m)), model.log_moment(), np.std(np.log(m), ddof=1) / math.sqrt(n)),
        )
        for value, target, se in checks:
            pull = abs(float(value) - target) / max(se, 1e-15)
            worst = max(worst, pull)
            if pull > 5.0:
                return False, f"{noise}: pull {pull:.2f} sigma"
        v = float(np.var(m, ddof=1))
        c4 = float(np.mean((m - mean) ** 4))
        # two-point noise has c4 = variance^2 exactly, leaving only the
        # O(1/n) sample-mean term, hence the floor on the tolerance
        tol_v = 5.0 * math.sqrt(max(c4 - variance**2, 0.0) / n) + 10.0 * variance / n
        gap = abs(v - variance)
        worst = max(worst, gap / max(tol_v / 5.0, 1e-15))
        if gap > tol_v:
            return False, f"{noise}: variance gap {gap:.2e} > {tol_v:.2e}"
    return True, f"worst moment pull = {worst:.2f} sigma"


def _check_expansion_decay(full: bool = False):
    """Two-point noise with nu = eps: the errors of the inverse-moment
    expansions for r in {1, 2} decay along eps in {1e-1, 1e-2, 1e-3} with
    an empirical exponent of at least 1.5 (which covers A7's 1.4); at full
    size (A7) the log-mean expansion eps - nu/2 joins with exponent 1.4."""
    eps_values = np.array([1e-1, 1e-2, 1e-3])
    series = [
        ("r=1", lambda m: expansion_check(m, 1.0), 1.5),
        ("r=2", lambda m: expansion_check(m, 2.0), 1.5),
    ]
    if full:
        series.append(("log", lambda m: abs(m.log_moment() - (m.epsilon - m.nu / 2.0)), 1.4))
    passed = True
    details = []
    for label, error_fn, min_slope in series:
        errors = [
            error_fn(make_environment("poisson", epsilon=float(eps), nu=float(eps)))
            for eps in eps_values
        ]
        slope = float(np.polyfit(np.log(eps_values), np.log(errors), 1)[0])
        scale = max(e / eps**1.5 for e, eps in zip(errors, eps_values))
        details.append(f"{label}: exponent={slope:.2f}, max err/eps^1.5={scale:.2e}")
        if slope < min_slope:
            passed = False
    return passed, "; ".join(details)


def _check_log_mean_sign():
    for eps in (0.005, 0.02, 0.05):
        for rho, expected_positive in ((0.5, True), (1.0, True), (1.9, True), (2.1, False), (3.0, False)):
            nu = rho * eps
            if math.sqrt(nu) >= 1.0 + eps:
                continue
            model = make_environment("poisson", epsilon=eps, nu=nu)
            sign_ok = (model.log_moment() > 0.0) == expected_positive
            if not sign_ok:
                return False, f"eps={eps}, rho={rho}: wrong sign of E[log mean]"
    return True, "E[log mean] positive iff rho < 2 on the grid"


# ---------------------------------------------------------------------------
# Survival checks
# ---------------------------------------------------------------------------

def _identity_models():
    return (
        make_environment("poisson", epsilon=0.02, nu=0.02),
        make_environment("linear_fractional", epsilon=0.02, nu=0.02),
        make_environment("finite", epsilon=0.02, nu=0.02),
    )


def _check_representation_identity(seed: int, stream_id: int, n_paths: int, max_horizon: int):
    """``n_paths`` random environment paths per family with horizons up to
    ``max_horizon``: the reciprocal-survival identity holds to a relative
    1e-9 and the weighted shape series plus mean-inverse tail never drops
    below 1 - 1e-12."""
    rng = rng_stream(seed, stream_id)
    worst = 0.0
    floor = math.inf
    counted = 0
    for model in _identity_models():
        lengths = rng.generator.integers(1, max_horizon + 1, size=n_paths)
        for n in lengths:
            ident = survival_identity(sample_env_path(model, int(n), rng))
            if ident.extinction_certain:
                continue
            counted += 1
            worst = max(worst, ident.identity_residual)
            floor = min(floor, ident.shape_series + ident.mean_inverse_tail)
    # the fast bound on (series + tail - 1) and A5's on (series + tail)
    ok = worst < 1e-9 and floor - 1.0 >= -1e-12 and floor >= 1.0 - 1e-12
    return ok, f"{counted} paths: max residual={worst:.2e}, min(series + tail)={floor:.15f}"


def _check_extinction_monotone():
    rng = rng_stream(_SEED, 301)
    model = make_environment("poisson", epsilon=0.02, nu=0.02)
    path = sample_env_path(model, 200, rng)
    previous = -1.0
    for n in range(1, path.n + 1):
        prefix = type(path).from_laws(path.laws[:n])
        q0 = backward_extinction(prefix)[0]
        if q0 < previous - 1e-13:
            return False, f"q_0 decreased when appending generation {n}"
        previous = q0
    return True, "q_0 nondecreasing along 200 nested horizons"


def _check_lf_oracle_agreement():
    rng = rng_stream(_SEED, 302)
    model = make_environment("linear_fractional", epsilon=0.02, nu=0.02)
    worst = 0.0
    for _ in range(50):
        path = sample_env_path(model, 1000, rng)
        q_backward = backward_extinction(path)[0]
        q_moebius = lf_exact_extinction(path)
        worst = max(worst, abs(q_backward - q_moebius))
    return worst <= 1e-12, f"max |backward - moebius| = {worst:.2e}"


def _check_gw_oracle():
    worst = 0.0
    for eps in (0.1, 0.05, 0.02):
        model = make_environment("poisson", epsilon=eps, nu=0.0)
        est = estimate_survival_gf(model, n_reps=10, seed=_SEED).estimate
        oracle = gw_fixed_point_survival(Poisson(1.0 + eps))
        worst = max(worst, abs(est - oracle))
    return worst <= 1e-5, f"max |estimate - fixed point| = {worst:.2e}"


# ---------------------------------------------------------------------------
# Perpetuity checks
# ---------------------------------------------------------------------------

def _check_annuity_fixed_point():
    n = 10_000
    threshold = ks_threshold(n, n, alpha=0.01)
    worst = 0.0
    specs = (
        from_environment(make_environment("poisson", epsilon=0.02, nu=0.02)),
        from_environment(make_environment("linear_fractional", epsilon=0.05, nu=0.025)),
    )
    for i, spec in enumerate(specs):
        ks = annuity_residual(spec, n, rng_stream(_SEED, 400 + i))
        worst = max(worst, ks)
        if ks >= threshold:
            return False, f"spec {i}: KS {ks:.4f} >= {threshold:.4f}"
    return True, f"max annuity KS = {worst:.4f} < {threshold:.4f}"


def _check_sampler_equivalence():
    n = 10_000
    threshold = ks_threshold(n, n, alpha=0.01)
    spec = from_environment(make_environment("poisson", epsilon=0.02, nu=0.02))
    series, _ = sample_series_batch(spec, n, rng_stream(_SEED, 410))
    chain = sample_chain_batch(spec, n, rng_stream(_SEED, 411))
    ks = ks_two_sample(series, chain)
    return ks < threshold, f"series-vs-chain KS = {ks:.4f} (threshold {threshold:.4f})"


def _check_perpetuity_mean_identity():
    spec = from_environment(make_environment("linear_fractional", epsilon=0.05, nu=0.025))
    regime = regime_of(spec)
    n = 20_000
    y, _ = sample_series_batch(spec, n, rng_stream(_SEED, 420))
    target = regime.alpha / regime.beta  # E[A] / (1 - E[B])
    se = float(np.std(y, ddof=1)) / math.sqrt(n)
    pull = abs(float(np.mean(y)) - target) / se
    return pull < 5.0, f"mean pull = {pull:.2f} sigma (target {target:.3f})"


# ---------------------------------------------------------------------------
# Numerics checks
# ---------------------------------------------------------------------------

def _check_gamma_complementarity():
    worst = 0.0
    for a in (0.5, 1.0, 3.0, 10.0):
        for x in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0):
            gap = abs(lower_reg_gamma(a, x) + upper_reg_gamma(a, x) - 1.0)
            worst = max(worst, gap)
    return worst <= 1e-12, f"max |P + Q - 1| = {worst:.2e}"


def _invgamma_pdf_mass(params: InverseGammaParams) -> float:
    """The mass of :func:`invgamma_pdf` by the trapezoid rule in u = log x,
    step 1/32 around the peak of x * pdf(x) at u = log(b/a), where the
    log-integrand is its peak plus a (1 - t - exp(-t)), t the offset from
    the peak; the grid ends where that has fallen 40 below the peak.  The
    integrand is analytic and decays double-exponentially to the left (so
    a grid symmetric in t that reaches a t >= 40/a + 1 reaches the cut on
    both sides), and the rule converges exponentially."""
    a, b = params.a, params.b
    t = np.arange(-256, 257) / 32.0
    while a * t[-1] < 40.0 + a:
        t = np.arange(-2 * t.size, 2 * t.size + 1) / 32.0
    x = b / a * np.exp(t[a * (t + np.exp(-t) - 1.0) <= 40.0])
    return math.fsum(invgamma_pdf(params, float(v)) * v for v in x) / 32.0


def _check_invgamma_cdf_pdf():
    for a, b in ((0.5, 2.0), (1.0, 2.0), (3.0, 2.0)):
        params = InverseGammaParams(a, b)
        cdf = invgamma_cdf(params, np.linspace(0.05, 50.0, 200))
        if np.any(np.diff(cdf) < -1e-12):
            return False, f"(a={a}, b={b}): CDF not nondecreasing"
        mass = _invgamma_pdf_mass(params)
        if abs(mass - 1.0) > 1e-8:
            return False, f"(a={a}, b={b}): pdf mass {mass}"
    check = abs(invgamma_cdf(InverseGammaParams(1.0, 2.0), 2.0) - math.exp(-1.0))
    return check <= 1e-12, f"|cdf(1,2 at 2) - exp(-1)| = {check:.2e}"


def _check_laplace_ode(full: bool = False):
    """The Laplace transform of every inverse gamma law on the grid
    satisfies lam h'' = (a-1) h' + b h to 1e-5.  At full size (A6) the
    residual must also scale like step^2 (halving ratio in [3, 5] in the
    regime where the differencing error dominates the rounding error).

    The grid uses spacing 3e-4: shapes below 1 steepen the transform's
    derivatives near the origin, so the 1e-3 spacing adequate in the
    interior overshoots the 1e-5 budget at the (0.5, *, 0.1) corner.
    """
    worst = 0.0
    for a in (0.5, 1.0, 2.0, 5.0):
        for b in (0.5, 2.0):
            params = InverseGammaParams(a, b)
            for lam in (0.1, 0.5, 1.0, 2.0, 5.0):
                res = laplace_ode_residual(params, lam, 3e-4)
                worst = max(worst, res)
                if res >= 1e-5:
                    return False, f"(a={a}, b={b}, lam={lam}): residual {res:.2e}"
    if not full:
        return True, f"max ODE residual = {worst:.2e}"
    params = InverseGammaParams(2.0, 1.0)
    ratio = laplace_ode_residual(params, 1.0, 8e-3) / laplace_ode_residual(params, 1.0, 4e-3)
    return 3.0 <= ratio <= 5.0, f"max grid residual={worst:.2e}; step-halving ratio={ratio:.2f}"


def _check_ks_null():
    n = 10_000
    rng = rng_stream(_SEED, 500)
    u = rng.generator.random(n)
    d = ks_one_sample(u, lambda x: np.clip(x, 0.0, 1.0))
    exact = ks_one_sample((np.arange(1, 101) - 0.5) / 100.0, lambda x: x)
    ok = d < ks_threshold(n, alpha=0.01) and abs(exact - 0.005) < 1e-12
    return ok, f"null KS = {d:.4f}; quantile-placed sample distance = {exact:.4f}"


def _check_stream_determinism():
    a = rng_stream(_SEED, 600).uniforms(1000)
    b = rng_stream(_SEED, 600).uniforms(1000)
    c = rng_stream(_SEED, 601).uniforms(1000)
    ok = bool(np.all(a == b)) and not np.all(a == c)
    return ok, "identical ids reproduce; distinct ids differ"


def _check_stream_independence():
    n = 1_000_000
    x = rng_stream(_SEED, 610).uniforms(n)
    y = rng_stream(_SEED, 611).uniforms(n)
    corr = float(np.corrcoef(x, y)[0, 1])
    return abs(corr) < 5.0 / math.sqrt(n), f"cross-correlation = {corr:.2e}"


def _check_haldane_prediction_table():
    cases = (
        (RegimeParams(epsilon=0.05, nu=0.0, rho=0.0, sigma_sq=1.0), 0.10),
        (RegimeParams(epsilon=0.05, nu=0.05, rho=1.0, sigma_sq=1.0), 0.05),
        (RegimeParams(epsilon=0.05, nu=0.125, rho=2.5, sigma_sq=1.0), 0.0),
    )
    for params, expected in cases:
        if abs(haldane_prediction(params) - expected) > 1e-15:
            return False, f"rho={params.rho}: wrong prediction"
    try:
        haldane_prediction(RegimeParams(epsilon=0.05, nu=0.1, rho=2.0, sigma_sq=1.0))
        return False, "rho=2 did not raise"
    except ValueError:
        pass
    return True, "2 eps/s^2, (2-rho) eps/s^2, 0, and the rho=2 boundary error"


# ---------------------------------------------------------------------------
# Acceptance criteria that run at full level only
# ---------------------------------------------------------------------------

def _criterion_degenerate_env():
    """Poisson family without environment noise: the estimator must hit the
    classical fixed-point root of pi = 1 - exp(-(1+eps) pi), and the ratio
    to 2*eps/sigma^2 must approach 1 from inside [0.85, 1.0].

    With a degenerate environment the estimator has zero Monte Carlo
    variance, so the fixed-point comparison uses a deterministic allowance
    of 1e-5 covering the adaptive-horizon truncation of both sides.
    """
    ratios = []
    details = []
    passed = True
    for eps in (0.1, 0.05, 0.02):
        model = make_environment("poisson", epsilon=eps, nu=0.0)
        res = estimate_survival_gf(model, n_reps=100_000, seed=101)
        oracle = gw_fixed_point_survival(Poisson(1.0 + eps))
        gap = abs(res.estimate - oracle)
        if gap > 3.0 * res.std_error + 1e-5:
            passed = False
        ratio = SweepRow.of(model, res).ratio
        ratios.append(ratio)
        details.append(f"eps={eps}: gap={gap:.1e}, ratio={ratio:.4f}")
    if not (0.85 <= ratios[-1] <= 1.0):
        passed = False
    if not (ratios[0] < ratios[1] < ratios[2]):
        passed = False
    return passed, "; ".join(details)


def _criterion_intermediate_ratio():
    """Linear-fractional family, two-point noise, rho = 1: ratios of the
    closed-form composition estimate to (2-rho) eps/sigma^2 must approach 1
    and lie within 25% at eps = 0.01 (one million replicates per point)."""
    rows = haldane_sweep(
        "linear_fractional", rho=1.0, eps_list=(0.05, 0.02, 0.01), n_reps=1_000_000, seed=202
    )
    ratios = [row.ratio for row in rows]
    gaps = [abs(r - 1.0) for r in ratios]
    passed = 0.75 <= ratios[-1] <= 1.25 and gaps[0] > gaps[1] > gaps[2]
    detail = "; ".join(
        f"eps={row.epsilon}: ratio={row.ratio:.4f} (se {row.result.std_error / row.prediction:.1e})"
        for row in rows
    )
    return passed, detail


def _criterion_subcritical():
    """rho = 3 at eps = 0.02: the exact mean log growth is negative and the
    estimated survival vanishes (below 1e-3 with 1e5 replicates)."""
    eps, rho = 0.02, 3.0
    model = make_environment("linear_fractional", epsilon=eps, nu=rho * eps)
    log_mean = model.log_moment()
    closed_form = 0.5 * math.log((1.0 + eps) ** 2 - rho * eps)
    res = estimate_survival_gf(model, n_reps=100_000, seed=303)
    passed = (
        log_mean < 0.0
        and abs(log_mean - closed_form) < 1e-14
        and res.estimate < 1e-3
    )
    detail = (
        f"E[log mean]={log_mean:.6f} (closed form {closed_form:.6f}); "
        f"pi_hat={res.estimate:.2e}, flagged={res.n_flagged}"
    )
    return passed, detail


def _criterion_perpetuity_limit_laws():
    """Environment-derived coefficients at rho = 1: gamma-rescaled series
    draws match the inverse gamma law with shape 2*rho_hat+1 and scale
    2*alpha built from the exact regime parameters (KS < 0.02 at
    eps = 0.005 with 1e5 draws), with distances nonincreasing along the
    sweep up to one 99% KS null quantile (the distances sit at the Monte
    Carlo noise floor, so strict ordering is not observable).  The
    degenerate regime concentrates: at least 99% of beta-rescaled draws
    within 10% of alpha.
    """
    n = 100_000
    allowance = ks_threshold(n, alpha=0.01)
    distances = []
    details = []
    for i, eps in enumerate((0.05, 0.02, 0.01, 0.005)):
        spec = from_environment(make_environment("poisson", epsilon=eps, nu=eps))
        fit = limit_fit_test(spec, n, rng_stream(404, i), tol=1e-3)
        distances.append(fit.ks_distance)
        details.append(f"eps={eps}: KS={fit.ks_distance:.4f} (a={fit.limit.a:.4f})")
    passed = distances[-1] < 0.02
    for previous, current in zip(distances, distances[1:]):
        if current > previous + allowance:
            passed = False
    if distances[-1] > distances[0] + allowance:
        passed = False

    dirac_spec = from_environment(make_environment("poisson", epsilon=0.005, nu=0.0))
    dirac_fit = limit_fit_test(dirac_spec, 10_000, rng_stream(404, 99))
    if dirac_fit.concentration < 0.99:
        passed = False
    details.append(f"degenerate concentration={dirac_fit.concentration:.4f}")
    return passed, "; ".join(details)


_CROSS_VALIDATION_MATRIX = (
    ("poisson", 0.1, 0.0),
    ("poisson", 0.05, 0.0),
    ("poisson", 0.05, 0.5),
    ("finite", 0.05, 0.5),
    ("linear_fractional", 0.05, 1.0),
    ("linear_fractional", 0.02, 1.0),
)


def _criterion_cross_validation():
    """Population simulation and the generating-function estimator agree
    within a joint five-sigma band on six configurations spanning the
    vanishing and intermediate variance-ratio regimes (1e5 replicates
    each)."""
    passed = True
    details = []
    for i, (family, eps, rho) in enumerate(_CROSS_VALIDATION_MATRIX):
        model = make_environment(family, epsilon=eps, nu=rho * eps)
        gf = estimate_survival_gf(model, n_reps=100_000, seed=808, stream_base=i << 32)
        pop = simulate_population(model, n_reps=100_000, seed=809, stream_base=i << 32)
        joint = math.hypot(gf.std_error, pop.std_error)
        pull = abs(gf.estimate - pop.estimate) / joint
        if pull > 5.0 or pop.n_overrun:
            passed = False
        details.append(f"{family}/eps={eps}/rho={rho}: {pull:.2f} sigma")
    return passed, "; ".join(details)


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

CHECKS = (
    Check("pgf-monotone-convex", "f nondecreasing and convex on [0,1], f(1)=1", _check_pgf_monotone_convex),
    Check("shape-bounds", "psi(0)/2 <= psi(s) <= 2 psi(1)", _check_shape_bounds),
    Check("shape-lf-constant", "psi constant for linear-fractional laws", _check_shape_lf_constant),
    Check("shape-defining-identity", "1/(1-f(s)) = 1/(m(1-s)) + psi(s)", _check_shape_defining_identity),
    Check("offspring-moments-mc", "sample mean/variance match f'(1), f''(1)+m-m^2", _check_offspring_moments_mc),
    Check("env-moments-mc", "closed-form env moments match sampling", _check_env_moments_mc),
    Check(
        "expansion-decay",
        "E[mean^-r] = 1 - r eps + r(r+1)/2 nu + o(eps); E[log mean] = eps - nu/2 + o(eps)",
        _check_expansion_decay, partial(_check_expansion_decay, full=True), aid="A7",
    ),
    Check("log-mean-sign", "sign(E[log mean]) flips at rho = 2", _check_log_mean_sign),
    Check(
        "representation-identity", "1/(1-q0) = 1/mu_n + sum psi_k+1(q_k+1)/mu_k",
        partial(_check_representation_identity, _SEED, 300, 100, 300),
        partial(_check_representation_identity, 505, 0, 1000, 500), aid="A5",
    ),
    Check("extinction-monotone", "q_0(n) nondecreasing in the horizon", _check_extinction_monotone),
    Check("lf-oracle-agreement", "backward composition matches Moebius closed form", _check_lf_oracle_agreement),
    Check("gw-fixed-point", "degenerate-environment estimate matches f(q)=q root", _check_gw_oracle),
    Check("annuity-fixed-point", "Y =(d) A + B Y", _check_annuity_fixed_point),
    Check("sampler-equivalence", "series and chain draws share one law", _check_sampler_equivalence),
    Check("perpetuity-mean", "E[Y] = E[A]/(1-E[B]) when E[B] < 1", _check_perpetuity_mean_identity),
    Check("gamma-complementarity", "P(a,x) + Q(a,x) = 1", _check_gamma_complementarity),
    Check("invgamma-cdf-pdf", "cdf(x) = Q(a, b/x); density integrates to 1", _check_invgamma_cdf_pdf),
    Check(
        "laplace-ode", "lam h'' = (a-1) h' + b h, h(0) = 1",
        _check_laplace_ode, partial(_check_laplace_ode, full=True), aid="A6",
    ),
    Check("ks-statistics", "KS distance against null and exact placements", _check_ks_null),
    Check("stream-determinism", "same (seed, id) reproduces the stream", _check_stream_determinism),
    Check("stream-independence", "distinct stream ids are uncorrelated", _check_stream_independence),
    Check("haldane-prediction", "pi ~ (2-rho) eps/sigma^2 table", _check_haldane_prediction_table),
    Check(
        "haldane-degenerate-env", "pi ~ 2 eps/sigma^2 (vanishing mean variance)",
        None, _criterion_degenerate_env, aid="A1",
    ),
    Check(
        "haldane-intermediate-ratio", "pi ~ (2-rho) eps/sigma^2 for rho in (0,2)",
        None, _criterion_intermediate_ratio, aid="A2",
    ),
    Check(
        "haldane-subcritical", "pi = 0 beyond the rho = 2 transition",
        None, _criterion_subcritical, aid="A3",
    ),
    Check(
        "perpetuity-limit-laws", "gamma Y ~ InvGamma(2 rho_hat + 1, 2 alpha); beta Y -> alpha",
        None, _criterion_perpetuity_limit_laws, aid="A4",
    ),
    Check(
        "estimator-cross-validation", "generating-function and population estimators target one pi",
        None, _criterion_cross_validation, aid="A8",
    ),
)


def run_check(check: Check, level: str) -> CheckOutcome:
    """Run one check at ``level``; a crashed check is a failed check."""
    full = level == "full"
    fn = (check.full or check.fast) if full else check.fast
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckOutcome(
        check.name, check.anchor, bool(passed), detail, time.perf_counter() - start,
        aid=check.aid if full else None,
    )


def run_checks(level: str = "fast") -> list[CheckOutcome]:
    """Run every check of ``level`` ("fast" or "full") in registry order."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    return [run_check(c, level) for c in CHECKS if c.fast or level == "full"]
