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

Exit codes: 0 success, 1 invariant failure, 2 configuration error (a
malformed file, a key the command does not accept or that no configured
path reads, or any value the library rejects), 3 resource overrun.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from ._engines import HorizonStorageError
from .environment import make_environment
from .numerics import rng_stream
from .perpetuity import (
    ConstantLaw,
    DiracLimit,
    NonContractiveError,
    PerpetuitySpec,
    TwoPointLaw,
    annuity_residual,
    from_environment,
    limit_fit_test,
    limit_law,
    regime_of,
)
from .survival import SweepRow, estimate_survival_gf, simulate_population
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

_ENVIRONMENT_KEYS = {"family", "noise", "p0", "template", "epsilon", "rho", "nu"}
_GF_KEYS = {"tol_q", "tol_mu", "n_max"}
_SCALAR_KEYS = {f"{side}_{field}" for side in "ab" for field in ("kind", "value", "lo", "hi")}
_SURVIVAL_KEYS = _ENVIRONMENT_KEYS | _GF_KEYS | {
    "seed", "eps_list", "n_reps", "estimator", "cap_multiplier",
}
_PERPETUITY_KEYS = _ENVIRONMENT_KEYS | _SCALAR_KEYS | {"seed", "mode", "n_samples", "tol"}


class ConfigError(ValueError):
    """Invalid or missing configuration; mapped to exit code 2."""


# ---------------------------------------------------------------------------
# Configuration handling
# ---------------------------------------------------------------------------

def load_config(path: str | None, accepted: set[str]) -> dict[str, str]:
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
        if key not in accepted:
            raise ConfigError(f"config: line {lineno}: unknown key {key!r}")
        config[key] = value
    return config


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(",") if part.strip())


_KIND_NAMES = {float: "a number", int: "an integer", _floats: "comma-separated numbers"}


def _get(config, key, kind=str, default=None, *, required=False):
    """``config[key]`` read as ``kind``, or ``default`` when absent."""
    if key not in config:
        if required:
            raise ConfigError(f"config: missing required key {key!r}")
        return default
    try:
        return kind(config[key])
    except ValueError as exc:
        raise ConfigError(f"config: {key} must be {_KIND_NAMES[kind]}, got {config[key]!r}") from exc


def _unread(config, keys, setting: str) -> None:
    """Refuse the configured ones of ``keys``: no path that ``setting``
    selects reads them, so they would be ignored."""
    unread = sorted(keys & config.keys())
    if unread:
        raise ConfigError(f"config: {', '.join(unread)} not read with {setting}")


def _options(config, **kinds) -> dict:
    """The configured ones of the keyword arguments ``kinds`` names, read as
    their kinds; the library's defaults stand for the others."""
    return {key: _get(config, key, kind) for key, kind in kinds.items() if key in config}


def _count(config, args, key) -> int:
    return args.reps if args.reps is not None else _get(config, key, int, required=True)


def _resolve_seed(config, args) -> int:
    # seed is mandatory everywhere: no wall-clock fallback, ever
    seed = args.seed if args.seed is not None else _get(config, "seed", int)
    if seed is None:
        raise ConfigError("config: seed is mandatory (set seed= or pass --seed)")
    if not (0 <= seed < 2**64):
        raise ConfigError(f"config: seed must fit in 64 unsigned bits, got {seed}")
    return seed


@contextlib.contextmanager
def _library(prefix: str = ""):
    """Library calls on configured values: the library is their only
    validator, so a ``ValueError`` it raises is a configuration error.  A
    series that cannot be certified (``NonContractiveError``) stays a
    resource overrun."""
    try:
        yield
    except (ConfigError, NonContractiveError):
        raise
    except ValueError as exc:
        raise ConfigError(f"config: {prefix}{exc}") from exc


def _environments(config):
    """The model of each configured point: ``epsilon`` or each entry of
    ``eps_list``, with ``rho`` (so nu = rho * epsilon) or ``nu``; ``p0``
    and ``template`` only for the family that reads them.  The models
    validate themselves; call it inside ``_library()``."""
    family = _get(config, "family", required=True)
    eps_values = _get(config, "eps_list", _floats)
    if eps_values is None:
        eps_values = (_get(config, "epsilon", float, required=True),)
    elif "epsilon" in config:
        raise ConfigError("config: provide exactly one of epsilon or eps_list")
    rho, nu = _get(config, "rho", float), _get(config, "nu", float)
    if (rho is None) == (nu is None):
        raise ConfigError("config: provide exactly one of rho or nu")
    options = _options(config, noise=str, p0=float, template=_floats)
    models = [make_environment(family, eps, rho * eps if nu is None else nu, **options) for eps in eps_values]
    if family != "linear_fractional":
        _unread(config, {"p0"}, f"family = {family}")
    if family != "finite":
        _unread(config, {"template"}, f"family = {family}")
    return models


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

def cmd_survival(args) -> int:
    config = load_config(args.config, _SURVIVAL_KEYS)
    if args.command == "sweep" and "eps_list" not in config:
        raise ConfigError("config: sweep requires eps_list")
    estimator = _get(config, "estimator", default="gf")
    if estimator not in ("gf", "population", "both"):
        raise ConfigError(f"config: estimator must be gf, population, or both, got {estimator!r}")
    estimators = ("gf", "population") if estimator == "both" else (estimator,)
    if estimator == "gf":
        _unread(config, {"cap_multiplier"}, "estimator = gf")
    if estimator == "population":
        _unread(config, _GF_KEYS, "estimator = population")
    n_reps = _count(config, args, "n_reps")
    seed = _resolve_seed(config, args)
    gf_options = _options(config, tol_q=float, tol_mu=float, n_max=int)
    population_options = _options(config, cap_multiplier=float)

    rows = []
    overrun_total = 0
    with _library():
        for i, model in enumerate(_environments(config)):
            for kind in estimators:
                if kind == "gf":
                    result = estimate_survival_gf(
                        model, n_reps=n_reps, seed=seed, stream_base=(2 * i) << 32, **gf_options,
                    )
                    flagged = result.n_flagged
                else:
                    result = simulate_population(
                        model, n_reps=n_reps, seed=seed, stream_base=(2 * i + 1) << 32,
                        **population_options,
                    )
                    flagged = result.n_overrun
                    overrun_total += result.n_overrun
                row = SweepRow.of(model, result)
                rows.append({
                    "family": model.family.name, "noise": model.noise, "epsilon": row.epsilon, "nu": row.nu,
                    "rho": row.rho, "sigma_sq": row.sigma_sq, "estimator": kind,
                    "pi_hat": result.estimate, "stderr": result.std_error,
                    "ci_lo": result.ci_lo, "ci_hi": result.ci_hi,
                    "prediction": row.prediction, "ratio": row.ratio,
                    "n_reps": result.n_reps, "n_flagged": flagged, "seed": seed,
                })
    _write_table(args.out, "survival", _SURVIVAL_COLUMNS, rows, args.json)
    return 3 if overrun_total > 0 else 0


# ---------------------------------------------------------------------------
# perpetuity
# ---------------------------------------------------------------------------

def _scalar_law(config, side: str):
    kind = _get(config, f"{side}_kind", default="constant")
    if kind == "constant":
        _unread(config, {f"{side}_lo", f"{side}_hi"}, f"{side}_kind = constant")
        with _library(f"{side}_value: "):
            return ConstantLaw(_get(config, f"{side}_value", float, required=True))
    if kind == "two_point":
        _unread(config, {f"{side}_value"}, f"{side}_kind = two_point")
        lo = _get(config, f"{side}_lo", float, required=True)
        hi = _get(config, f"{side}_hi", float, required=True)
        with _library(f"{side}_lo/{side}_hi: "):
            return TwoPointLaw(lo, hi)
    raise ConfigError(f"config: {side}_kind must be constant or two_point, got {kind!r}")


def cmd_perpetuity(args) -> int:
    config = load_config(args.config, _PERPETUITY_KEYS)
    seed = _resolve_seed(config, args)
    n_samples = _count(config, args, "n_samples")
    mode = _get(config, "mode", default="environment" if "family" in config else "scalar")
    with _library():
        if mode == "environment":
            _unread(config, _SCALAR_KEYS, "mode = environment")
            [model] = _environments(config)  # eps_list is not a perpetuity key
            spec = from_environment(model)
        elif mode == "scalar":
            _unread(config, _ENVIRONMENT_KEYS, "mode = scalar")
            spec = PerpetuitySpec(a_law=_scalar_law(config, "a"), b_law=_scalar_law(config, "b"))
        else:
            raise ConfigError(f"config: mode must be environment or scalar, got {mode!r}")
        regime = regime_of(spec)
        limit = limit_law(regime)
        fit = limit_fit_test(spec, n_samples, rng_stream(seed, 0), **_options(config, tol=float))
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
        if args.command in ("survival", "sweep"):
            return cmd_survival(args)
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
