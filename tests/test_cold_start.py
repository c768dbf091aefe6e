"""Cold start: importing the package, running the two-point estimators and
drawing perpetuity series load numpy only, and a perpetuity limit fit loads
``scipy.special`` alone.  SciPy is imported inside the few functions that
use it, so each case runs in a fresh interpreter and inspects
``sys.modules``."""

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


def test_scipy_backed_calls_still_load_it():
    """Positive control: the lazily imported ``scipy.special`` still runs
    in a fresh process and returns the values it returned with
    module-level imports, and the contraction rate, which SciPy's bounded
    minimizer used to give, loads no ``scipy.optimize``; its u is the exact
    minimizer (SciPy's stopped 5e-8 short of it)."""
    out = _run_fresh("""
        import json, sys
        from haldane import from_environment, make_environment, upper_reg_gamma
        from haldane.perpetuity import contraction_rate
        rate = contraction_rate(from_environment(make_environment("poisson", epsilon=0.02, nu=0.02)))
        q = [float(upper_reg_gamma(2.5, 1.3)), float(upper_reg_gamma(0.5, 30.0))]
        print(json.dumps({"rate": rate, "q": q, "optimize": "scipy.optimize" in sys.modules,
                          "special": "scipy.special" in sys.modules}))
    """)
    assert out["special"] and not out["optimize"]
    assert out["rate"][0] == pytest.approx(0.5194274864284497, rel=1e-12)
    assert out["rate"][1] == pytest.approx(0.002620127543281829, rel=1e-9)
    assert out["q"] == pytest.approx([0.761365267845014, 9.485737571073857e-15], rel=1e-13)


PERPETUITY_CONFIGS = {
    "poisson-two-point": "family = poisson\nrho = 1\nepsilon = 0.02\nn_samples = 2000\n",
    "scalar-two-point": "a_kind = two_point\na_lo = 0.2\na_hi = 0.8\nb_kind = two_point\n"
                        "b_lo = 0.9\nb_hi = 1.05\nn_samples = 2000\n",
    "finite-uniform": "family = finite\nnoise = uniform\nrho = 1\nepsilon = 0.05\nn_samples = 1000\n",
}
_HEAVY_SCIPY = ("scipy.optimize", "scipy.integrate", "scipy.sparse", "scipy.linalg")


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
def test_perpetuity_runs_load_only_scipy_special(tmp_path, name):
    """A limit fit needs ``scipy.special`` for the incomplete gamma, and
    nothing of SciPy's optimizers, quadrature or linear algebra."""
    cfg = tmp_path / "perpetuity.cfg"
    cfg.write_text(PERPETUITY_CONFIGS[name])
    loaded = _run_fresh(f"""
        import contextlib, io, json, sys
        from haldane import cli, rng_stream
        from haldane.perpetuity import PerpetuitySpec, TwoPointLaw, annuity_residual, limit_fit_test
        heavy = lambda: sorted(m for m in sys.modules if m.startswith({_HEAVY_SCIPY!r}))
        loaded = {{}}
        spec = PerpetuitySpec(a_law=TwoPointLaw(0.2, 0.8), b_law=TwoPointLaw(0.9, 1.05))
        limit_fit_test(spec, 2000, rng_stream(1, 0))
        annuity_residual(spec, 1000, rng_stream(1, 1))
        loaded["library"] = heavy()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["perpetuity", "--config", {str(cfg)!r}, "--seed", "1", "--out", "-"]) == 0
        loaded["cli"] = heavy()
        print(json.dumps(loaded))
    """)
    assert loaded == {"library": [], "cli": []}
