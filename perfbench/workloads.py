"""The benchmark's three workloads.

Each workload is a fixed list of configurations run once per *pass*.  A
pass receives one library seed per call it makes; the seeds are derived
from the benchmark seed and the pass index, so the same benchmark seed
always hands the library the same inputs.  The library sees nothing else:
configurations are constants of the workload.

Importing this module pins the BLAS/OpenMP thread pools to one thread and
puts the checkout's ``src`` directory on ``sys.path``; both must happen
before numpy is first imported.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"
if not (SOURCE_DIR / "haldane" / "__init__.py").is_file():
    raise ImportError(f"haldane sources not found under {SOURCE_DIR}")
sys.path.insert(0, str(SOURCE_DIR))

import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Callable  # noqa: E402

from haldane import cli, perpetuity, survival  # noqa: E402
from haldane._engines import HorizonStorageError  # noqa: E402
from haldane.environment import make_environment  # noqa: E402
from haldane.numerics import ks_threshold, rng_stream  # noqa: E402

CONFIG_DIR = BENCH_DIR / "configs"

# Joint-sigma band for every statistical check, as in acceptance criterion A8.
SIGMA_BAND = 5.0
# KS level for checks that have no pinned tolerance: about the two-sided
# tail mass of a 5-sigma normal band, so a correct program fails one in
# ~10^6 checks.
KS_ALPHA = 1e-6


def library_seed(workload: str, seed: int, pass_index: int, slot: int, *, timed: bool = True) -> int:
    """64-bit library seed for one call of one pass.

    Timed runs always set the top bit and the recorded reference never
    does, so the reference table comes from seeds no timed run uses.
    """
    digest = hashlib.blake2b(f"{workload}:{seed}:{pass_index}:{slot}".encode(), digest_size=8).digest()
    value = int.from_bytes(digest, "big") & ((1 << 63) - 1)
    return value | (1 << 63) if timed else value


@dataclass
class PassResult:
    """What one pass did: its library seeds and wall time, replicates or
    draws completed, the estimates to hold against the reference table, the
    workload's own checks, and the wall time of each library call, timed
    from outside."""

    seeds: list[int] = field(default_factory=list)
    seconds: float = 0.0
    work: int = 0
    estimates: dict[str, tuple[float, float]] = field(default_factory=dict)
    checks: list[tuple[str, bool]] = field(default_factory=list)
    call_seconds: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))


@dataclass(frozen=True)
class Workload:
    name: str
    seeds_per_pass: int
    build: Callable[[], object]
    run_pass: Callable[[object, list[int]], PassResult]

    def pass_seeds(self, seed: int, pass_index: int, *, timed: bool = True) -> list[int]:
        return [library_seed(self.name, seed, pass_index, slot, timed=timed)
                for slot in range(self.seeds_per_pass)]


def clear_library_caches() -> None:
    """Empty the library's memo caches (``functools.lru_cache``), so that no
    pass reuses work an earlier pass left behind, as a fresh CLI process
    would not."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "haldane" or name.startswith("haldane.")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def measure_pass(workload: Workload, state, seed: int, index: int) -> PassResult:
    """Run pass ``index`` of a run seeded ``seed``, from cold library caches."""
    seeds = workload.pass_seeds(seed, index)
    clear_library_caches()
    start = time.perf_counter()
    result = workload.run_pass(state, seeds)
    result.seconds = time.perf_counter() - start
    result.seeds = seeds
    return result


def within_band(estimate: float, std_error: float, ref_estimate: float, ref_std_error: float) -> bool:
    return abs(estimate - ref_estimate) <= SIGMA_BAND * math.hypot(std_error, ref_std_error)


def _timed(result: PassResult, key: str, fn, *args, **kwargs):
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        result.call_seconds[key] = result.call_seconds.get(key, 0.0) + time.perf_counter() - start


# ---------------------------------------------------------------------------
# lf-sweep: the CLI sweep over the linear-fractional family.  The Moebius
# kernel and the environment draws do the work; rho = 1 retires lanes on
# convergence and rho = 3 on the extinction floor, so a retirement change
# that helps one mode and hurts the other shows.
# ---------------------------------------------------------------------------

LF_REPS = 16384  # one full engine batch per sweep point
LF_SWEEP_EPS = (0.05, 0.02, 0.01)
LF_SUBCRITICAL = (0.02, 3.0)


def _build_lf():
    # The CLI builds its own models from the config files; building them
    # here gives the set-up probe the same construction work.
    models = [make_environment("linear_fractional", epsilon=eps, nu=eps, p0=0.3) for eps in LF_SWEEP_EPS]
    eps, rho = LF_SUBCRITICAL
    models.append(make_environment("linear_fractional", epsilon=eps, nu=rho * eps, p0=0.3))
    return models


def _cli_rows(argv: list[str]) -> tuple[int, list[dict[str, str]]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    lines = [line for line in out.getvalue().splitlines() if line and not line.startswith("#")]
    return code, list(csv.DictReader(lines))


def _run_lf(models, seeds: list[int]) -> PassResult:
    result = PassResult()
    calls = (("sweep", "lf_sweep.cfg", seeds[0]), ("survival", "lf_subcritical.cfg", seeds[1]))
    for command, cfg, seed in calls:
        argv = [command, "--config", str(CONFIG_DIR / cfg),
                "--seed", str(seed), "--reps", str(LF_REPS), "--out", "-"]
        code, rows = _timed(result, cfg, _cli_rows, argv)
        result.check(f"cli {command} {cfg} exit code", code == 0)
        for row in rows:
            label = f"linear_fractional eps={float(row['epsilon'])} rho={float(row['rho']):g}"
            result.work += int(row["n_reps"])
            result.estimates[label] = (float(row["pi_hat"]), float(row["stderr"]))
            result.check(f"{label} unflagged", int(row["n_flagged"]) == 0)
    result.check("cli rows", len(result.estimates) == len(models))
    return result


# ---------------------------------------------------------------------------
# replay-crossval: generating-function estimator against the population
# simulator (acceptance criterion A8 style) on the non-LF engines.  Bit
# replay, the per-replicate scalar fallback under uniform noise and the
# population offspring sums do the work; the eps = 0.02 Poisson point sets
# the memory peak of bit storage.
# ---------------------------------------------------------------------------

# (family, eps, rho, noise, gf replicates, population replicates)
REPLAY_CONFIGS = (
    ("poisson", 0.05, 0.5, "two_point", 16384, 16384),
    ("finite", 0.05, 0.5, "two_point", 16384, 16384),
    ("poisson", 0.02, 1.0, "two_point", 16384, 16384),
    ("poisson", 0.05, 0.5, "uniform", 1000, 1000),
    # The population side needs more replicates than the 24 of the gf side:
    # at pi ~ 0.13 a 24-replicate population run sees no survivor one time
    # in twenty, and its zero standard error would fail the pull check.
    ("finite", 0.05, 0.5, "uniform", 24, 120),
)


def _replay_label(family: str, eps: float, rho: float, noise: str) -> str:
    return f"{family} {noise} eps={eps} rho={rho:g}"


def _build_replay():
    return [
        (cfg, make_environment(cfg[0], epsilon=cfg[1], nu=cfg[2] * cfg[1], noise=cfg[3]))
        for cfg in REPLAY_CONFIGS
    ]


def _run_replay(configs, seeds: list[int]) -> PassResult:
    result = PassResult()
    for i, ((family, eps, rho, noise, n_gf, n_pop), model) in enumerate(configs):
        label = _replay_label(family, eps, rho, noise)
        try:
            gf = _timed(result, f"gf {label}", survival.estimate_survival_gf,
                        model, n_reps=n_gf, seed=seeds[2 * i])
        except HorizonStorageError:
            result.check(f"gf {label} within storage budget", False)
            continue
        pop = _timed(result, f"population {label}", survival.simulate_population,
                     model, n_reps=n_pop, seed=seeds[2 * i + 1])
        result.work += gf.n_reps + pop.n_reps
        result.estimates[f"gf {label}"] = (gf.estimate, gf.std_error)
        result.estimates[f"population {label}"] = (pop.estimate, pop.std_error)
        result.check(f"gf {label} unflagged", gf.n_flagged == 0)
        result.check(f"population {label} no overrun", pop.n_overrun == 0)
        result.check(f"{label} gf-population pull",
                     within_band(gf.estimate, gf.std_error, pop.estimate, pop.std_error))
    return result


def uniform_over_two_point(results: list[PassResult]) -> dict[str, float | None]:
    """Per-replicate gf time under uniform noise over that under two-point
    noise, per family at eps = 0.05, rho = 0.5 (median over passes; None
    when the passes made no such calls)."""
    ratios = {}
    for family in ("poisson", "finite"):
        per_rep = {}
        for fam, eps, rho, noise, n_gf, _ in REPLAY_CONFIGS:
            if fam != family or (eps, rho) != (0.05, 0.5):
                continue
            key = f"gf {_replay_label(fam, eps, rho, noise)}"
            times = [r.call_seconds[key] for r in results if key in r.call_seconds]
            if times:
                per_rep[noise] = statistics.median(times) / n_gf
        both = "uniform" in per_rep and "two_point" in per_rep
        ratios[f"survival.uniform_over_two_point.{family}"] = (
            per_rep["uniform"] / per_rep["two_point"] if both else None)
    return ratios


# ---------------------------------------------------------------------------
# perpetuity-limit: inverse-gamma limit fits and annuity residuals
# (acceptance criterion A4 style), plus the perpetuity-mean identity.  The
# series sampler and the pure-Python gamma CDF behind KS do the work; no
# survival estimator runs.
# ---------------------------------------------------------------------------

PERP_DRAWS = 25_000  # keeps the KS < 0.02 check far from the KS null quantiles
ANNUITY_DRAWS = 10_000
PERP_FIT_EPS = (0.02, 0.01)
PERP_FINITE = (0.02, 100)  # ~10 ms per draw: per-mean loop over the finite family
# The mean identity E[Y] = E[A]/(1 - E[B]) is checked where Y has a finite
# variance.  At rho = 1 the tail index of Y is 2*rho_hat + 1 ~ 1.02, so the
# sample mean has no usable standard error (measured t = -56 at eps = 0.01).
PERP_MEAN = (0.02, 0.25, 20_000)
PERP_FIT_TOL = 1e-3  # as in acceptance criterion A4
KS_FIT_MAX = 0.02  # acceptance criterion A4's limit-fit tolerance


def _build_perp():
    fits = [perpetuity.from_environment(make_environment("poisson", epsilon=eps, nu=eps))
            for eps in PERP_FIT_EPS]
    eps, _ = PERP_FINITE
    finite = perpetuity.from_environment(make_environment("finite", epsilon=eps, nu=eps))
    eps, rho, _ = PERP_MEAN
    mean_spec = perpetuity.from_environment(make_environment("poisson", epsilon=eps, nu=rho * eps))
    for spec in (*fits, finite, mean_spec):
        perpetuity.limit_law(perpetuity.regime_of(spec))
    return fits, finite, mean_spec


def _run_perp(state, seeds: list[int]) -> PassResult:
    fits, finite, mean_spec = state
    result = PassResult()
    for i, (eps, spec) in enumerate(zip(PERP_FIT_EPS, fits)):
        label = f"poisson eps={eps} rho=1"
        fit = _timed(result, f"fit {label}", perpetuity.limit_fit_test,
                     spec, PERP_DRAWS, rng_stream(seeds[i], 0), tol=PERP_FIT_TOL)
        annuity = _timed(result, f"annuity {label}", perpetuity.annuity_residual,
                         spec, ANNUITY_DRAWS, rng_stream(seeds[i], 1))
        result.work += PERP_DRAWS + ANNUITY_DRAWS
        result.check(f"{label} limit KS < {KS_FIT_MAX}", fit.ks_distance < KS_FIT_MAX)
        result.check(f"{label} annuity KS",
                     annuity < ks_threshold(ANNUITY_DRAWS, ANNUITY_DRAWS, alpha=KS_ALPHA))

    eps, n = PERP_FINITE
    label = f"finite eps={eps} rho=1"
    fit = _timed(result, f"fit {label}", perpetuity.limit_fit_test,
                 finite, n, rng_stream(seeds[2], 0), tol=PERP_FIT_TOL)
    result.work += n
    result.check(f"{label} limit KS", fit.ks_distance < ks_threshold(n, alpha=KS_ALPHA))

    eps, rho, n = PERP_MEAN
    label = f"poisson eps={eps} rho={rho:g}"
    y, flags = _timed(result, f"series {label}", perpetuity.sample_series_batch,
                      mean_spec, n, rng_stream(seeds[3], 0), tol=PERP_FIT_TOL)
    result.work += n
    mean = float(y.mean())
    std_error = float(y.std(ddof=1)) / math.sqrt(n)
    regime = perpetuity.regime_of(mean_spec)
    result.estimates[f"mean Y {label}"] = (mean, std_error)
    result.check(f"{label} series unflagged", not flags.any())
    result.check(f"{label} perpetuity-mean identity",
                 within_band(mean, std_error, regime.alpha / regime.beta, 0.0))
    return result


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lf-sweep",
            seeds_per_pass=2,
            build=_build_lf,
            run_pass=_run_lf,
        ),
        Workload(
            name="replay-crossval",
            seeds_per_pass=2 * len(REPLAY_CONFIGS),
            build=_build_replay,
            run_pass=_run_replay,
        ),
        Workload(
            name="perpetuity-limit",
            seeds_per_pass=4,
            build=_build_perp,
            run_pass=_run_perp,
        ),
    )
}
