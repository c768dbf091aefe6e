"""Batch experiment runner.

Subcommands:

* ``survival``   -- survival estimates for one or more mean-excess values;
* ``sweep``      -- convenience multi-epsilon wrapper over ``survival``;
* ``perpetuity`` -- regime, limit-law fit, and annuity diagnostics of a
                    coefficient specification;
* ``verify``     -- the check registry (``--level fast``, or ``full`` with A1..A8).

Configuration is a flat ``key = value`` text file plus the overrides
``--seed``, ``--reps``, ``--out``; ``--json`` mirrors the CSV rows into a
JSON file next to the output.  Every row carries its seed and replicate
count, timestamps live only in a comment header, and re-running a command
with the same configuration and seed reproduces the CSV body byte for
byte.

Exit codes: 0 success, 1 invariant failure, 2 configuration error,
3 resource overrun.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from ._engines import HorizonStorageError
from .environment import RegimeParams, make_environment
from .numerics import rng_stream
from .perpetuity import (
    ConstantLaw,
    DiracLimit,
    InadmissibleRegimeError,
    NonContractiveError,
    PerpetuitySpec,
    TwoPointLaw,
    annuity_residual,
    from_environment,
    limit_fit_test,
    limit_law,
    regime_of,
)
from .survival import estimate_survival_gf, haldane_prediction, simulate_population
from .verify import run_checks

__all__ = ["main"]

_SURVIVAL_COLUMNS = (
    "family", "noise", "epsilon", "nu", "rho", "sigma_sq", "estimator",
    "pi_hat", "stderr", "ci_lo", "ci_hi", "prediction", "ratio",
    "n_reps", "n_flagged", "seed",
)

_PERPETUITY_COLUMNS = (
    "beta", "gamma", "rho_hat", "alpha", "limit_kind", "limit_a", "limit_b",
    "ks_distance", "annuity_ks", "n_samples", "n_flagged", "seed",
)


class ConfigError(ValueError):
    """Invalid or missing configuration; mapped to exit code 2."""


# ---------------------------------------------------------------------------
# Configuration handling
# ---------------------------------------------------------------------------

def load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    config: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config: line {lineno} is not 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"config: line {lineno} has an empty key or value")
        config[key] = value
    return config


def _get(config, key, default=None, *, required=False):
    if key in config:
        return config[key]
    if required:
        raise ConfigError(f"config: missing required key {key!r}")
    return default


def _get_float(config, key, default=None, *, required=False):
    raw = _get(config, key, None, required=required)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"config: {key} must be a number, got {raw!r}") from exc


def _get_int(config, key, default=None, *, required=False):
    raw = _get(config, key, None, required=required)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"config: {key} must be an integer, got {raw!r}") from exc


def _get_float_list(config, key):
    raw = _get(config, key)
    if raw is None:
        return None
    try:
        return [float(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"config: {key} must be comma-separated numbers, got {raw!r}") from exc


def _resolve_seed(config, args) -> int:
    # seed is mandatory everywhere: no wall-clock fallback, ever
    if args.seed is not None:
        seed = args.seed
    else:
        seed = _get_int(config, "seed")
    if seed is None:
        raise ConfigError("config: seed is mandatory (set seed= or pass --seed)")
    if not (0 <= seed < 2**64):
        raise ConfigError(f"config: seed must fit in 64 unsigned bits, got {seed}")
    return seed


def _build_model(config):
    family = _get(config, "family", required=True)
    noise = _get(config, "noise", "two_point")
    p0 = _get_float(config, "p0", 0.3)
    template_raw = _get_float_list(config, "template")
    template = tuple(template_raw) if template_raw else (0.25, 0.5, 0.25)
    return family, noise, p0, template


def _epsilon_nu_pairs(config) -> list[tuple[float, float]]:
    eps_list = _get_float_list(config, "eps_list")
    epsilon = _get_float(config, "epsilon")
    if (eps_list is None) == (epsilon is None):
        raise ConfigError("config: provide exactly one of epsilon or eps_list")
    rho = _get_float(config, "rho")
    nu = _get_float(config, "nu")
    if (rho is None) == (nu is None):
        raise ConfigError("config: provide exactly one of rho or nu")
    eps_values = eps_list if eps_list is not None else [epsilon]
    if nu is not None:
        return [(eps, nu) for eps in eps_values]
    return [(eps, rho * eps) for eps in eps_values]


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved survival-experiment configuration (file plus overrides);
    every (epsilon, nu) pair validates through the model constructor and
    the seed is mandatory."""

    family: str
    noise: str
    p0: float
    template: tuple[float, ...]
    pairs: tuple[tuple[float, float], ...]
    n_reps: int
    seed: int
    estimator: str
    tol_q: float
    tol_mu: float
    n_max: int
    cap_multiplier: float

    @classmethod
    def resolve(cls, config: dict, args) -> "ExperimentConfig":
        family, noise, p0, template = _build_model(config)
        estimator = _get(config, "estimator", "gf")
        if estimator not in ("gf", "population", "both"):
            raise ConfigError(
                f"config: estimator must be gf, population, or both, got {estimator!r}"
            )
        n_reps = args.reps if args.reps is not None else _get_int(config, "n_reps", required=True)
        if n_reps < 1:
            raise ConfigError(f"config: n_reps must be positive, got {n_reps}")
        return cls(
            family=family,
            noise=noise,
            p0=p0,
            template=template,
            pairs=tuple(_epsilon_nu_pairs(config)),
            n_reps=n_reps,
            seed=_resolve_seed(config, args),
            estimator=estimator,
            tol_q=_get_float(config, "tol_q", 1e-8),
            tol_mu=_get_float(config, "tol_mu", 1e-6),
            n_max=_get_int(config, "n_max", 100_000),
            cap_multiplier=_get_float(config, "cap_multiplier", 50.0),
        )


# ---------------------------------------------------------------------------
# Output handling
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _write_table(out: str | None, title: str, columns, rows, json_mirror: bool) -> None:
    if json_mirror and (out is None or out == "-"):
        raise ConfigError("config: --json needs --out FILE to name the mirror")
    lines = [f"# haldane {title}", f"# generated: {datetime.now(timezone.utc).isoformat()}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    path = Path(out)
    path.write_text(text)
    if json_mirror:
        mirror = path.with_suffix(path.suffix + ".json") if path.suffix != ".csv" else path.with_suffix(".json")
        safe_rows = [{k: _json_safe(v) for k, v in row.items()} for row in rows]
        mirror.write_text(json.dumps({"title": title, "rows": safe_rows}, indent=2) + "\n")


# ---------------------------------------------------------------------------
# survival / sweep
# ---------------------------------------------------------------------------

def cmd_survival(args, *, require_sweep: bool = False) -> int:
    raw = load_config(args.config)
    if require_sweep and "eps_list" not in raw:
        raise ConfigError("config: sweep requires eps_list")
    config = ExperimentConfig.resolve(raw, args)

    rows = []
    overrun_total = 0
    for i, (eps, nu) in enumerate(config.pairs):
        try:
            model = make_environment(
                config.family, epsilon=eps, nu=nu, noise=config.noise,
                p0=config.p0, template=config.template,
            )
        except ValueError as exc:
            raise ConfigError(f"config: {exc}") from exc
        sigma_sq = model.family.sigma_sq_limit()
        rho_row = nu / eps if eps > 0 else math.inf
        try:
            params = RegimeParams(epsilon=eps, nu=nu, rho=rho_row, sigma_sq=sigma_sq)
            prediction = haldane_prediction(params)
        except ValueError:
            prediction = None  # transition ratio rho = 2 or invalid regime

        estimators = ("gf", "population") if config.estimator == "both" else (config.estimator,)
        for kind in estimators:
            if kind == "gf":
                result = estimate_survival_gf(
                    model, n_reps=config.n_reps, seed=config.seed, tol_q=config.tol_q,
                    tol_mu=config.tol_mu, n_max=config.n_max, stream_base=(2 * i) << 32,
                )
                flagged = result.n_flagged
            else:
                try:
                    result = simulate_population(
                        model, n_reps=config.n_reps, seed=config.seed,
                        cap_multiplier=config.cap_multiplier, stream_base=(2 * i + 1) << 32,
                    )
                except ValueError as exc:
                    raise ConfigError(f"config: {exc}") from exc
                flagged = result.n_overrun
                overrun_total += result.n_overrun
            if prediction is None:
                ratio = None
            elif prediction > 0.0:
                ratio = result.estimate / prediction
            else:
                ratio = result.estimate
            rows.append({
                "family": config.family, "noise": config.noise, "epsilon": eps, "nu": nu,
                "rho": rho_row, "sigma_sq": sigma_sq, "estimator": kind,
                "pi_hat": result.estimate, "stderr": result.std_error,
                "ci_lo": result.ci_lo, "ci_hi": result.ci_hi,
                "prediction": prediction, "ratio": ratio,
                "n_reps": result.n_reps, "n_flagged": flagged, "seed": config.seed,
            })
    _write_table(args.out, "survival", _SURVIVAL_COLUMNS, rows, args.json)
    return 3 if overrun_total > 0 else 0


# ---------------------------------------------------------------------------
# perpetuity
# ---------------------------------------------------------------------------

def _scalar_law(config, side: str):
    kind = _get(config, f"{side}_kind", "constant")
    if kind == "constant":
        value = _get_float(config, f"{side}_value", required=True)
        try:
            return ConstantLaw(value)
        except ValueError as exc:
            raise ConfigError(f"config: {side}_value: {exc}") from exc
    if kind == "two_point":
        lo = _get_float(config, f"{side}_lo", required=True)
        hi = _get_float(config, f"{side}_hi", required=True)
        try:
            return TwoPointLaw(lo, hi)
        except ValueError as exc:
            raise ConfigError(f"config: {side}_lo/{side}_hi: {exc}") from exc
    raise ConfigError(f"config: {side}_kind must be constant or two_point, got {kind!r}")


def cmd_perpetuity(args) -> int:
    config = load_config(args.config)
    seed = _resolve_seed(config, args)
    n_samples = args.reps if args.reps is not None else _get_int(config, "n_samples", required=True)
    if n_samples < 2:
        raise ConfigError(f"config: n_samples must be at least 2, got {n_samples}")
    tol = _get_float(config, "tol", 1e-6)
    mode = _get(config, "mode", "environment" if "family" in config else "scalar")

    if mode == "environment":
        family, noise, p0, template = _build_model(config)
        epsilon = _get_float(config, "epsilon", required=True)
        rho = _get_float(config, "rho")
        nu = _get_float(config, "nu")
        if (rho is None) == (nu is None):
            raise ConfigError("config: provide exactly one of rho or nu")
        nu_value = nu if nu is not None else rho * epsilon
        try:
            model = make_environment(family, epsilon=epsilon, nu=nu_value, noise=noise, p0=p0, template=template)
        except ValueError as exc:
            raise ConfigError(f"config: {exc}") from exc
        spec = from_environment(model)
    elif mode == "scalar":
        spec = PerpetuitySpec(a_law=_scalar_law(config, "a"), b_law=_scalar_law(config, "b"))
    else:
        raise ConfigError(f"config: mode must be environment or scalar, got {mode!r}")

    try:
        regime = regime_of(spec)
        limit = limit_law(regime)
    except InadmissibleRegimeError as exc:
        raise ConfigError(f"config: {exc}") from exc

    fit = limit_fit_test(spec, n_samples, rng_stream(seed, 0), tol=tol)
    annuity_ks = annuity_residual(spec, max(n_samples, 1000), rng_stream(seed, 1))
    if isinstance(limit, DiracLimit):
        limit_kind, limit_a, limit_b = "dirac", limit.alpha, None
        ks_column = 1.0 - fit.concentration  # misfit fraction, see README
    else:
        limit_kind, limit_a, limit_b = "inverse_gamma", limit.a, limit.b
        ks_column = fit.ks_distance
    rows = [{
        "beta": regime.beta, "gamma": regime.gamma, "rho_hat": regime.rho_hat,
        "alpha": regime.alpha, "limit_kind": limit_kind,
        "limit_a": limit_a, "limit_b": limit_b,
        "ks_distance": ks_column, "annuity_ks": annuity_ks,
        "n_samples": n_samples, "n_flagged": fit.n_flagged, "seed": seed,
    }]
    _write_table(args.out, "perpetuity", _PERPETUITY_COLUMNS, rows, args.json)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    outcomes = run_checks(args.level)
    labels = [f"{o.name} ({o.aid})" if o.aid else o.name for o in outcomes]
    name_width = max(len(label) for label in labels)
    anchor_width = min(56, max(len(o.anchor) for o in outcomes))
    for label, o in zip(labels, outcomes):
        status = "PASS" if o.passed else "FAIL"
        print(f"{label:<{name_width}}  {o.anchor:<{anchor_width}.{anchor_width}}  {status}  "
              f"[{o.seconds:7.2f}s]  {o.detail}")
    failed = [o for o in outcomes if not o.passed]
    print(f"\n{len(outcomes) - len(failed)}/{len(outcomes)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--reps", type=int, help="replicate/sample count (overrides config)")
    parser.add_argument("--out", help="output CSV path ('-' for stdout)")
    parser.add_argument("--json", action="store_true", help="also write a JSON mirror of the rows")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haldane",
        description="Survival-probability and perpetuity experiments for branching "
        "processes in iid random environments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_survival = sub.add_parser("survival", help="survival estimates for configured (epsilon, nu)")
    _add_common(p_survival)

    p_sweep = sub.add_parser("sweep", help="multi-epsilon survival sweep (requires eps_list)")
    _add_common(p_sweep)

    p_perp = sub.add_parser("perpetuity", help="perpetuity regime, limit fit, and annuity check")
    _add_common(p_perp)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--level", choices=("fast", "full"), default="fast")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "survival":
            return cmd_survival(args)
        if args.command == "sweep":
            return cmd_survival(args, require_sweep=True)
        if args.command == "perpetuity":
            return cmd_perpetuity(args)
        return cmd_verify(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HorizonStorageError, NonContractiveError) as exc:
        print(f"error: resource overrun: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
