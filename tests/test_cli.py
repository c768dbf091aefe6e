"""CLI tests: config validation, exit codes, CSV reproducibility, the JSON
mirror, and the verify table (including mutation sensitivity)."""

import csv
import functools
import hashlib
import json
import re
from pathlib import Path

import pytest

from haldane import (
    SweepRow, haldane_sweep, make_environment, perpetuity, rng_stream, simulate_population, verify,
)
from haldane.cli import main


def _write(path, text):
    path.write_text(text)
    return str(path)


def _body(path):
    """CSV lines excluding comment headers (timestamps live there)."""
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


# ---------------------------------------------------------------------------
# survival / sweep
# ---------------------------------------------------------------------------

SURVIVAL_CONFIG = """
# tiny smoke sweep
family = poisson
noise = two_point
eps_list = 0.1,0.05
rho = 0
n_reps = 50
seed = 42
estimator = gf
"""


def test_survival_csv_roundtrip(tmp_path):
    cfg = _write(tmp_path / "sweep.cfg", SURVIVAL_CONFIG)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["survival", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["survival", "--config", cfg, "--out", str(out2)]) == 0
    assert _body(out1) == _body(out2)
    header, *rows = _body(out1)
    assert header.startswith("family,noise,epsilon,nu,rho,sigma_sq,estimator,pi_hat")
    assert len(rows) == 2
    for row in rows:
        cells = row.split(",")
        assert cells[0] == "poisson"
        assert cells[-1] == "42"  # seed in every row
        assert cells[-3] == "50"  # n_reps in every row


def test_survival_out_dash_writes_the_table_to_stdout(tmp_path, capsys):
    cfg = _write(tmp_path / "sweep.cfg", SURVIVAL_CONFIG)
    out = tmp_path / "a.csv"
    assert main(["survival", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["survival", "--config", cfg, "--out", "-"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "# haldane survival"
    assert [line for line in printed if not line.startswith("#")] == _body(out)


LF_SWEEP_CONFIG = """
family = linear_fractional
p0 = 0.3
noise = two_point
rho = 1
eps_list = 0.05, 0.02
n_reps = 2048
seed = 9
estimator = gf
"""


def test_lf_sweep_csv_body_pinned(tmp_path):
    # the body may change only with an announced change of stream use or
    # of the order of rounding
    cfg = _write(tmp_path / "lf.cfg", LF_SWEEP_CONFIG)
    out = tmp_path / "lf.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    digest = hashlib.sha256("\n".join(_body(out)).encode()).hexdigest()
    assert digest == "bbfdd891f8491b7709f7cd4246c744758c09184a234744511036aa88d489d1b3"


LF_NU_CONFIG = """
family = linear_fractional
noise = two_point
epsilon = 0.05
nu = 0.025
n_reps = 2048
seed = 5
"""


def test_lf_survival_nu_form_body_pinned(tmp_path):
    # the nu form reaches the same model as the rho form; LF arithmetic is
    # additions, multiplications and divisions only (its byte tables
    # included), so the digest holds on every numpy
    cfg = _write(tmp_path / "lf_nu.cfg", LF_NU_CONFIG)
    out = tmp_path / "lf_nu.csv"
    assert main(["survival", "--config", cfg, "--out", str(out)]) == 0
    digest = hashlib.sha256("\n".join(_body(out)).encode()).hexdigest()
    assert digest == "44a12dc370af1756ea19a3a57fc771dd72c0d7ba96b6c8679aef184df01471d8"


def test_survival_json_mirror(tmp_path):
    cfg = _write(tmp_path / "sweep.cfg", SURVIVAL_CONFIG)
    out = tmp_path / "rows.csv"
    assert main(["survival", "--config", cfg, "--out", str(out), "--json"]) == 0
    mirror = json.loads((tmp_path / "rows.json").read_text())
    assert len(mirror["rows"]) == 2
    row = mirror["rows"][0]
    assert row["seed"] == 42
    assert row["estimator"] == "gf"
    assert 0.0 < row["pi_hat"] < 1.0
    assert row["ratio"] == pytest.approx(row["pi_hat"] / row["prediction"])


def test_survival_both_estimators(tmp_path):
    cfg = _write(
        tmp_path / "both.cfg",
        "family = poisson\nepsilon = 0.1\nrho = 0\nn_reps = 400\nseed = 9\nestimator = both\n",
    )
    out = tmp_path / "both.csv"
    assert main(["survival", "--config", cfg, "--out", str(out)]) == 0
    rows = _body(out)[1:]
    kinds = {row.split(",")[6] for row in rows}
    assert kinds == {"gf", "population"}


_ROW_FIELDS = ("epsilon", "nu", "rho", "sigma_sq", "pi_hat", "stderr", "prediction", "ratio")


def _table(path, estimator):
    """The ``_ROW_FIELDS`` of each of ``estimator``'s CSV rows, as floats
    (None where a cell is empty)."""
    rows = csv.DictReader(_body(path))
    return [tuple(float(row[k]) if row[k] else None for k in _ROW_FIELDS) for row in rows
            if row["estimator"] == estimator]


def _fields(row: SweepRow):
    r = row.result
    return (row.epsilon, row.nu, row.rho, row.sigma_sq, r.estimate, r.std_error, row.prediction, row.ratio)


@pytest.mark.parametrize("family, rho, eps_list, estimator", [
    ("linear_fractional", 1.0, (0.05, 0.02), "both"),
    ("poisson", 2.0, (0.05, 0.0), "gf"),  # no prediction at rho = 2, nor at eps = 0 (rho = inf)
])
def test_sweep_gf_rows_match_haldane_sweep(tmp_path, family, rho, eps_list, estimator):
    # point i of both draws from (2i) << 32, so one seed gives one table
    eps_cell = ", ".join(map(str, eps_list))
    cfg = _write(tmp_path / "sweep.cfg", f"family = {family}\nrho = {rho}\neps_list = {eps_cell}\n"
                 f"n_max = 2000\nn_reps = 512\nseed = 13\nestimator = {estimator}\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = haldane_sweep(family, rho, eps_list, n_reps=512, seed=13, n_max=2000)
    assert _table(out, "gf") == [_fields(row) for row in rows]


def test_population_rows_match_the_row_constructor(tmp_path):
    cfg = _write(tmp_path / "pop.cfg", "family = poisson\nrho = 0.5\neps_list = 0.05, 0.02\n"
                 "n_reps = 512\nseed = 13\nestimator = population\n")
    out = tmp_path / "pop.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    expected = []
    for i, eps in enumerate((0.05, 0.02)):
        model = make_environment("poisson", eps, 0.5 * eps)
        result = simulate_population(model, n_reps=512, seed=13, stream_base=(2 * i + 1) << 32)
        expected.append(_fields(SweepRow.of(model, result)))
    assert _table(out, "population") == expected


def test_survival_positivity_config_error(tmp_path, capsys):
    cfg = _write(
        tmp_path / "bad.cfg",
        "family = poisson\nepsilon = 0.01\nnu = 1.2\nn_reps = 10\nseed = 1\n",
    )
    assert main(["survival", "--config", cfg]) == 2
    assert "positivity" in capsys.readouterr().err


def test_survival_requires_seed(tmp_path, capsys):
    cfg = _write(tmp_path / "no_seed.cfg", "family = poisson\nepsilon = 0.1\nrho = 0\nn_reps = 10\n")
    assert main(["survival", "--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err


def test_survival_subcritical_rows(tmp_path):
    cfg = _write(
        tmp_path / "sub.cfg",
        "family = linear_fractional\nepsilon = 0.02\nrho = 3\nn_reps = 500\nseed = 7\nn_max = 3000\n",
    )
    out = tmp_path / "sub.csv"
    assert main(["survival", "--config", cfg, "--out", str(out)]) == 0
    row = _body(out)[1].split(",")
    prediction = float(row[11])
    pi_hat = float(row[7])
    assert prediction == 0.0
    assert pi_hat < 1e-2


def test_sweep_requires_eps_list(tmp_path, capsys):
    cfg = _write(
        tmp_path / "one.cfg", "family = poisson\nepsilon = 0.1\nrho = 0\nn_reps = 10\nseed = 1\n"
    )
    assert main(["sweep", "--config", cfg]) == 2
    assert "eps_list" in capsys.readouterr().err


def test_survival_conflicting_epsilon_keys(tmp_path, capsys):
    cfg = _write(
        tmp_path / "conflict.cfg",
        "family = poisson\nepsilon = 0.1\neps_list = 0.1,0.05\nrho = 0\nn_reps = 10\nseed = 1\n",
    )
    assert main(["survival", "--config", cfg]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_config_syntax_error(tmp_path, capsys):
    cfg = _write(tmp_path / "syntax.cfg", "family poisson\n")
    assert main(["survival", "--config", cfg]) == 2
    assert "key = value" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# perpetuity
# ---------------------------------------------------------------------------

def test_perpetuity_constant_dirac(tmp_path):
    cfg = _write(
        tmp_path / "perp.cfg",
        "mode = scalar\na_kind = constant\na_value = 0.5\n"
        "b_kind = constant\nb_value = 0.99\nn_samples = 2000\nseed = 11\n",
    )
    out = tmp_path / "perp.csv"
    assert main(["perpetuity", "--config", cfg, "--out", str(out)]) == 0
    row = dict(zip(_body(out)[0].split(","), _body(out)[1].split(",")))
    assert row["limit_kind"] == "dirac"
    assert float(row["beta"]) == pytest.approx(0.01, abs=1e-12)
    assert row["rho_hat"] == "inf"
    assert float(row["ks_distance"]) == 0.0  # misfit fraction for dirac rows


def test_perpetuity_environment_inverse_gamma(tmp_path):
    cfg = _write(
        tmp_path / "perp_env.cfg",
        "family = poisson\nepsilon = 0.05\nrho = 1\nn_samples = 4000\nseed = 11\n",
    )
    out = tmp_path / "perp_env.csv"
    assert main(["perpetuity", "--config", cfg, "--out", str(out)]) == 0
    row = dict(zip(_body(out)[0].split(","), _body(out)[1].split(",")))
    assert row["limit_kind"] == "inverse_gamma"
    rho_hat = float(row["rho_hat"])
    assert float(row["limit_a"]) == pytest.approx(2 * rho_hat + 1, rel=1e-12)
    assert float(row["annuity_ks"]) < 0.05


def test_perpetuity_csv_roundtrip(tmp_path):
    cfg = _write(
        tmp_path / "perp_rt.cfg",
        "family = poisson\nepsilon = 0.05\nrho = 0.5\nn_samples = 2000\nseed = 13\n",
    )
    out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    assert main(["perpetuity", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["perpetuity", "--config", cfg, "--out", str(out2)]) == 0
    assert _body(out1) == _body(out2)


def test_perpetuity_inadmissible_exit(tmp_path, capsys):
    cfg = _write(
        tmp_path / "perp_bad.cfg",
        "mode = scalar\na_kind = constant\na_value = 1.0\n"
        "b_kind = two_point\nb_lo = 0.8\nb_hi = 1.3\nn_samples = 2000\nseed = 1\n",
    )
    assert main(["perpetuity", "--config", cfg]) == 2
    assert "beta" in capsys.readouterr().err


def test_perpetuity_truncated_series_exit(tmp_path, capsys, monkeypatch):
    # near rho = 2 some series draws are still above the tail bound at
    # k_max (51 of 1,000 annuity draws at the default k_max); a lower k_max
    # reaches the same refusal fast
    monkeypatch.setattr(
        perpetuity, "sample_series_batch", functools.partial(perpetuity.sample_series_batch, k_max=64)
    )
    cfg = _write(
        tmp_path / "perp_edge.cfg",
        "family = poisson\nepsilon = 0.02\nrho = 1.97\nn_samples = 200\nseed = 1\n",
    )
    out = tmp_path / "perp_edge.csv"
    assert main(["perpetuity", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: resource overrun: ") and "k_max" in err
    assert not out.exists()


def test_perpetuity_reports_flagged_draws(tmp_path, monkeypatch):
    # at k_max = 64 the fit's tolerance of 1e-18 cuts about half of its
    # draws, while the annuity check's default 1e-6 cuts none
    monkeypatch.setattr(
        perpetuity, "sample_series_batch", functools.partial(perpetuity.sample_series_batch, k_max=64)
    )
    cfg = _write(
        tmp_path / "perp_cut.cfg",
        "mode = scalar\na_kind = constant\na_value = 1.0\nb_kind = two_point\n"
        "b_lo = 0.3\nb_hi = 0.9\nn_samples = 2000\nseed = 5\ntol = 1e-18\n",
    )
    out = tmp_path / "perp_cut.csv"
    assert main(["perpetuity", "--config", cfg, "--out", str(out)]) == 0
    header, body = (line.split(",") for line in _body(out))
    assert header[header.index("n_samples") + 1] == "n_flagged"
    spec = perpetuity.PerpetuitySpec(a_law=perpetuity.ConstantLaw(1.0), b_law=perpetuity.TwoPointLaw(0.3, 0.9))
    fit = perpetuity.limit_fit_test(spec, 2000, rng_stream(5, 0), tol=1e-18)
    assert 0 < fit.n_flagged < 2000
    assert int(dict(zip(header, body))["n_flagged"]) == fit.n_flagged


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_perpetuity_rejects_too_few_samples(tmp_path, capsys, reps):
    cfg = _write(
        tmp_path / "perp_few.cfg",
        "family = poisson\nepsilon = 0.05\nrho = 1\nn_samples = 2000\nseed = 11\n",
    )
    assert main(["perpetuity", "--config", cfg, "--reps", reps]) == 2
    assert f"n_samples must be at least 2, got {reps}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# configuration errors and shipped configurations
# ---------------------------------------------------------------------------

POISSON_CONFIG = "family = poisson\nepsilon = 0.05\nrho = 0.5\nn_reps = 64\nseed = 2\n"
PERPETUITY_CONFIG = "family = poisson\nepsilon = 0.05\nrho = 1\nn_samples = 50\nseed = 1\n"


@pytest.mark.parametrize("command, text", [
    ("survival", POISSON_CONFIG + "tol_q = 2\n"),
    ("survival", POISSON_CONFIG + "tol_mu = 0\n"),
    ("survival", POISSON_CONFIG + "n_max = 0\n"),
    ("survival", POISSON_CONFIG + "estimator = population\ncap_multiplier = 0\n"),
    ("perpetuity", PERPETUITY_CONFIG + "tol = 0\n"),
    ("survival", POISSON_CONFIG + "n_maxx = 300\n"),
], ids=["tol_q", "tol_mu", "n_max", "cap_multiplier", "perpetuity-tol", "unknown-key"])
def test_rejected_values_exit_2(tmp_path, capsys, command, text):
    # the library validates what it takes; the CLI reports its refusal
    cfg = _write(tmp_path / "bad.cfg", text)
    out = tmp_path / "bad.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, key", [
    ("survival", "tol"), ("sweep", "n_samples"), ("perpetuity", "eps_list"), ("perpetuity", "n_reps"),
])
def test_unknown_key_is_named(tmp_path, capsys, command, key):
    # each command accepts its own keys only, so another command's key is
    # as unknown as a misspelled one
    text = {"survival": POISSON_CONFIG, "sweep": SURVIVAL_CONFIG, "perpetuity": PERPETUITY_CONFIG}[command]
    cfg = _write(tmp_path / "extra.cfg", text + f"{key} = 1\n")
    assert main([command, "--config", cfg]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err


SCALAR_CONFIG = "mode = scalar\na_value = 0.5\nb_kind = two_point\nb_lo = 0.3\nb_hi = 0.9\nn_samples = 50\nseed = 1\n"


@pytest.mark.parametrize("command, text, key", [
    ("survival", POISSON_CONFIG + "cap_multiplier = 0\n", "cap_multiplier"),
    ("survival", POISSON_CONFIG + "estimator = gf\ncap_multiplier = 4\n", "cap_multiplier"),
    ("survival", POISSON_CONFIG + "estimator = population\ntol_q = 1e-8\n", "tol_q"),
    ("survival", POISSON_CONFIG + "estimator = population\ntol_mu = 1e-6\n", "tol_mu"),
    ("survival", POISSON_CONFIG + "estimator = population\nn_max = 300\n", "n_max"),
    ("survival", POISSON_CONFIG + "p0 = 0.3\n", "p0"),
    ("survival", POISSON_CONFIG + "template = 0.5, 0.5\n", "template"),
    ("perpetuity", PERPETUITY_CONFIG + "a_value = 0.5\n", "a_value"),
    ("perpetuity", PERPETUITY_CONFIG + "mode = environment\nb_kind = two_point\n", "b_kind"),
    ("perpetuity", SCALAR_CONFIG + "family = poisson\nepsilon = 5\n", "epsilon, family"),
    ("perpetuity", SCALAR_CONFIG + "rho = 1\n", "rho"),
    ("perpetuity", SCALAR_CONFIG + "a_lo = 0.1\n", "a_lo"),
    ("perpetuity", SCALAR_CONFIG + "b_value = 0.5\n", "b_value"),
], ids=[
    "cap_multiplier-default-gf", "cap_multiplier-gf", "tol_q-population", "tol_mu-population",
    "n_max-population", "p0-poisson", "template-poisson", "a_value-environment",
    "b_kind-environment", "environment-keys-scalar", "rho-scalar", "a_lo-constant", "b_value-two_point",
])
def test_key_of_the_path_not_taken_is_named(tmp_path, capsys, command, text, key):
    # a key that only another estimator, family, mode or kind reads would
    # be ignored; it is refused and named instead
    cfg = _write(tmp_path / "unread.cfg", text)
    out = tmp_path / "unread.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {key} not read with ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, text", [
    ("survival", POISSON_CONFIG), ("perpetuity", PERPETUITY_CONFIG), ("perpetuity", SCALAR_CONFIG),
], ids=["survival", "perpetuity-environment", "perpetuity-scalar"])
def test_bases_of_the_unread_key_cases_run(tmp_path, command, text):
    cfg = _write(tmp_path / "base.cfg", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "base.csv")]) == 0


REPO = Path(__file__).resolve().parents[1]


def _shipped_configs():
    """The README's ``ini`` examples and the benchmark's config files, each
    with the command that reads it."""
    blocks = re.findall(r"```ini\n(.*?)```", (REPO / "README.md").read_text(), flags=re.S)
    files = [path.read_text() for path in sorted((REPO / "perfbench" / "configs").glob("*.cfg"))]
    assert len(blocks) == 2 and len(files) == 2
    for text in blocks + files:
        if "mode" in text:
            yield pytest.param("perpetuity", text, id="perpetuity")
        else:
            command = "sweep" if "eps_list" in text else "survival"
            yield pytest.param(command, text, id=command)


@pytest.mark.parametrize("command, text", list(_shipped_configs()))
def test_shipped_configs_run(tmp_path, command, text):
    cfg = _write(tmp_path / "shipped.cfg", text)
    argv = [command, "--config", cfg, "--seed", "1", "--reps", "64", "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_fast_passes(capsys):
    """One PASS row per fast check of the registry, in registry order."""
    assert main(["verify", "--level", "fast"]) == 0
    rows = capsys.readouterr().out.splitlines()
    names = [c.name for c in verify.CHECKS if c.fast]
    assert [row.split()[0] for row in rows[:len(names)]] == names
    assert all("  PASS  " in row for row in rows[:len(names)])
    assert rows[-1] == f"{len(names)}/{len(names)} checks passed"


def test_verify_detects_corrupted_shape(monkeypatch, capsys):
    """Dropping the mean-product term from the shape function must fail the
    representation-identity invariant and flip the exit code to 1."""
    from haldane.offspring import Poisson as PoissonLaw

    monkeypatch.setattr(
        PoissonLaw,
        "shape_from_survival",
        lambda self, r: 1.0 / max(self.survival_map(r), 1e-300),
    )
    assert main(["verify", "--level", "fast"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
