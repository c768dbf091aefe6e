"""Cold start: importing the package, running the two-point estimators,
drawing perpetuity series, fitting their limit laws and the pdf-mass check
of ``haldane verify`` load numpy only; SciPy is a test dependency.  Each
case runs in a fresh interpreter and inspects ``sys.modules``."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SOURCE_DIR = Path(__file__).resolve().parents[1] / "src"

LF_CONFIG = """\
family = linear_fractional
p0 = 0.3
noise = two_point
rho = 1
epsilon = 0.05
estimator = gf
seed = 3
n_reps = 64
"""


def _run_fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter on the checkout's sources; it
    prints one JSON object as its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE_DIR), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_import_loads_no_scipy():
    loaded = _run_fresh(f"""
        import json, sys
        import haldane
        after_package = {_SCIPY_LOADED}
        import haldane.cli
        print(json.dumps({{"package": after_package, "cli": {_SCIPY_LOADED}}}))
    """)
    assert loaded == {"package": [], "cli": []}


def test_two_point_runs_load_no_scipy(tmp_path):
    cfg = tmp_path / "lf.cfg"
    cfg.write_text(LF_CONFIG)
    loaded = _run_fresh(f"""
        import contextlib, io, json, sys
        from haldane import cli, estimate_survival_gf, make_environment, simulate_population
        loaded = {{}}
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["survival", "--config", {str(cfg)!r}, "--out", "-"]) == 0
        loaded["cli survival"] = {_SCIPY_LOADED}
        model = make_environment("poisson", 0.05, 0.025)
        assert 0.0 < estimate_survival_gf(model, n_reps=256, seed=1).estimate < 1.0
        loaded["gf poisson"] = {_SCIPY_LOADED}
        simulate_population(model, n_reps=64, seed=1)
        loaded["population"] = {_SCIPY_LOADED}
        print(json.dumps(loaded))
    """)
    assert loaded == {"cli survival": [], "gf poisson": [], "population": []}


def test_numerics_calls_load_no_scipy():
    """The incomplete gamma, the Laplace transform and the contraction rate,
    which SciPy's ``gammaincc``, ``kve`` and bounded minimizer used to give,
    run in a fresh process without loading any SciPy module and return the
    values SciPy gave (the contraction rate's u is the exact minimizer;
    SciPy's stopped 5e-8 short of it)."""
    out = _run_fresh(f"""
        import json, sys
        from haldane import InverseGammaParams, from_environment, invgamma_laplace, make_environment, upper_reg_gamma
        from haldane.perpetuity import contraction_rate
        rate = contraction_rate(from_environment(make_environment("poisson", epsilon=0.02, nu=0.02)))
        q = [float(upper_reg_gamma(2.5, 1.3)), float(upper_reg_gamma(0.5, 30.0))]
        h = invgamma_laplace(InverseGammaParams(2.0, 1.0), 1.0)
        print(json.dumps({{"rate": rate, "q": q, "h": h, "scipy": {_SCIPY_LOADED}}}))
    """)
    assert out["scipy"] == []
    assert out["rate"][0] == pytest.approx(0.5194274864284497, rel=1e-12)
    assert out["rate"][1] == pytest.approx(0.002620127543281829, rel=1e-9)
    assert out["q"] == pytest.approx([0.761365267845014, 9.485737571073857e-15], rel=1e-13)
    # 2 (b lam)**(a/2) K_a(2 sqrt(b lam)) / Gamma(a) at a = 2, b lam = 1: 2 K_2(2)
    assert out["h"] == pytest.approx(0.5075195091321117, rel=1e-13)


PERPETUITY_CONFIGS = {
    "poisson-two-point": "family = poisson\nrho = 1\nepsilon = 0.02\nn_samples = 2000\n",
    "scalar-two-point": "a_kind = two_point\na_lo = 0.2\na_hi = 0.8\nb_kind = two_point\n"
                        "b_lo = 0.9\nb_hi = 1.05\nn_samples = 2000\n",
    "finite-uniform": "family = finite\nnoise = uniform\nrho = 1\nepsilon = 0.05\nn_samples = 1000\n",
}


def test_series_and_fixed_point_load_no_scipy():
    loaded = _run_fresh(f"""
        import json, sys
        from haldane import from_environment, gw_fixed_point_survival, make_environment, rng_stream
        from haldane.offspring import Poisson
        from haldane.perpetuity import regime_of, sample_series_batch
        loaded = {{}}
        for noise in ("two_point", "uniform"):
            spec = from_environment(make_environment("poisson", 0.05, 0.05, noise=noise))
            values, flags = sample_series_batch(spec, 200, rng_stream(1, 0))
            assert not flags.any()
            loaded["series " + noise] = {_SCIPY_LOADED}
        regime_of(from_environment(make_environment("finite", 0.05, 0.05, noise="uniform")))
        loaded["regime uniform"] = {_SCIPY_LOADED}
        assert 0.0 < gw_fixed_point_survival(Poisson(1.05)) < 1.0
        loaded["fixed point"] = {_SCIPY_LOADED}
        print(json.dumps(loaded))
    """)
    assert loaded == dict.fromkeys(["series two_point", "series uniform", "regime uniform", "fixed point"], [])


@pytest.mark.parametrize("name", sorted(PERPETUITY_CONFIGS))
def test_perpetuity_runs_load_no_scipy(tmp_path, name):
    """A limit fit (its inverse-gamma CDF and KS distance), an annuity
    residual and a ``haldane perpetuity`` run load no SciPy module."""
    cfg = tmp_path / "perpetuity.cfg"
    cfg.write_text(PERPETUITY_CONFIGS[name])
    loaded = _run_fresh(f"""
        import contextlib, io, json, sys
        from haldane import cli, rng_stream
        from haldane.perpetuity import PerpetuitySpec, TwoPointLaw, annuity_residual, limit_fit_test
        loaded = {{}}
        spec = PerpetuitySpec(a_law=TwoPointLaw(0.2, 0.8), b_law=TwoPointLaw(0.9, 1.05))
        assert limit_fit_test(spec, 2000, rng_stream(1, 0)).ks_distance is not None
        annuity_residual(spec, 1000, rng_stream(1, 1))
        loaded["library"] = {_SCIPY_LOADED}
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["perpetuity", "--config", {str(cfg)!r}, "--seed", "1", "--out", "-"]) == 0
        loaded["cli"] = {_SCIPY_LOADED}
        print(json.dumps(loaded))
    """)
    assert loaded == {"library": [], "cli": []}


def test_pdf_mass_check_loads_no_scipy():
    """``haldane verify``'s invgamma-cdf-pdf check takes the pdf mass by
    the trapezoid rule, so it passes without loading SciPy."""
    out = _run_fresh(f"""
        import json, sys
        from haldane.verify import CHECKS
        check = next(c for c in CHECKS if c.name == "invgamma-cdf-pdf")
        passed, detail = check.fast()
        print(json.dumps({{"passed": bool(passed), "detail": detail, "scipy": {_SCIPY_LOADED}}}))
    """)
    assert out["passed"] and out["scipy"] == []
    assert out["detail"].startswith("|cdf(1,2 at 2) - exp(-1)| = ")
