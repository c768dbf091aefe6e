"""Cold start: importing the package and running the two-point estimators
load numpy only.  SciPy is imported inside the few functions that use it,
so each case runs in a fresh interpreter and inspects ``sys.modules``."""

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
    """Positive control: the lazily imported SciPy calls still run in a
    fresh process and return the values they returned with module-level
    imports."""
    out = _run_fresh("""
        import json, sys
        from haldane import from_environment, make_environment, upper_reg_gamma
        from haldane.perpetuity import contraction_rate
        rate = contraction_rate(from_environment(make_environment("poisson", epsilon=0.02, nu=0.02)))
        q = [float(upper_reg_gamma(2.5, 1.3)), float(upper_reg_gamma(0.5, 30.0))]
        print(json.dumps({"rate": rate, "q": q, "loaded": "scipy.optimize" in sys.modules}))
    """)
    assert out["loaded"]
    assert out["rate"] == pytest.approx([0.5194275123024976, 0.002620127543281829], rel=1e-9)
    assert out["q"] == pytest.approx([0.761365267845014, 9.485737571073857e-15], rel=1e-13)
