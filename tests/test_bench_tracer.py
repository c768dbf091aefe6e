"""The benchmark's traced run wraps library functions by name and reads
their arguments by position (``perfbench/tracing.py``).  Run every traced
layer once at a tiny size so that a rename or a changed call shape in the
library shows here, not only in a traced benchmark run."""

import sys
from pathlib import Path

from haldane import _engines, make_environment, perpetuity, survival
from haldane.numerics import rng_stream

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

# Filled by the run as a whole (a 16,384-lane eps = 0.01 batch, the
# uniform/two-point timing pair, the untraced passes), never by one call;
# and the per-replicate time of the per-path oracle, which no estimator
# calls.
RUN_LEVEL = {
    "baseline.lf_batch.occupancy",
    "baseline.lf_batch.ns_per_lane_gen",
    "baseline.lf_batch.generations",
    "baseline.lf_batch.lane_generations",
    "baseline.lf_batch.sample_means_share",
    "survival.uniform_over_two_point.poisson",
    "survival.uniform_over_two_point.finite",
    "trace.overhead_s",
    "survival.scalar.ms_per_rep",
}


def _tiny_calls():
    models = [
        make_environment("linear_fractional", epsilon=0.05, nu=0.025),
        make_environment("poisson", epsilon=0.05, nu=0.025),
        make_environment("poisson", epsilon=0.05, nu=0.025, noise="uniform"),
        make_environment("finite", epsilon=0.05, nu=0.025),
    ]
    for i, model in enumerate(models):
        survival.estimate_survival_gf(model, n_reps=32, seed=i)
        survival.simulate_population(model, n_reps=32, seed=i)
    spec = perpetuity.from_environment(make_environment("poisson", epsilon=0.02, nu=0.02))
    perpetuity.limit_fit_test(spec, 1000, rng_stream(1, 0), tol=1e-3)
    perpetuity.annuity_residual(spec, 1000, rng_stream(1, 1))


def test_traced_layers_all_measured(monkeypatch):
    # the replay's lane-generations, counted from the lanes each call returns
    replay, lane_generations = _engines._survival_backward_pair, []

    def spy(family, table, env, n, slopes=False):
        result = replay(family, table, env, n, slopes)
        lane_generations.append(result[0].size * n)
        return result

    monkeypatch.setattr(_engines, "_survival_backward_pair", spy)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _tiny_calls()
    finally:
        tracer.uninstall()
    tracing.assert_unpatched()

    metrics, unmeasured = tracer.layer_metrics(1, {})
    assert set(unmeasured) == RUN_LEVEL
    assert metrics["survival.scalar.s"]["value"] == 0
    assert metrics["survival.replay.lane_generations"]["value"] == sum(lane_generations) > 0
    assert metrics["survival.lf.generations"]["value"] > 0
    assert metrics["survival.lf.lane_generations"]["value"] > 0
    assert metrics["perpetuity.series.terms"]["value"] > 0
