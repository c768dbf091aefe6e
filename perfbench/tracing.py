"""Outside-in layer tracing for the benchmark's traced run.

The tracer replaces the library's public functions (and the ``_engines``
kernels behind ``survival``) with timing wrappers, in every ``haldane``
module that holds a reference to them, and restores the originals when
the traced passes end.  Nothing under ``src/`` knows about it.

Each wrapped call pushes a frame; when it returns, its duration is added
to its own totals and to its parent frame's child time, so a layer's self
time is its duration minus the time its wrapped callees took.  Calls made
millions of times per pass (leaves such as ``sample_means`` or
``survival_map``) keep only counters; every other call is also recorded
as a span ``(id, name, start, end, parent id)`` held in memory and
written out once the run ends.  Work counts (lane-generations, draws,
offspring sums, series terms) are read from the arguments of the wrapped
calls, never from inside the library.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

MARK = "_perfbench_traced"

# Per-layer metrics: (name, unit, better, end-to-end metric it should move,
# workloads it should move on).  ".s" is a layer's self time and ".calls"
# a call count, both per traced pass; rates and "ns_per_*" use the layer's
# inclusive time.
LAYER_METRICS = (
    ("environment.sample_means.calls", "count", "lower", "wall_s, reps_per_s", "lf-sweep, perpetuity-limit"),
    ("environment.sample_means.draws", "count", "lower", "wall_s, reps_per_s", "lf-sweep, perpetuity-limit"),
    ("environment.sample_means.s", "s", "lower", "wall_s, reps_per_s", "lf-sweep, perpetuity-limit"),
    ("environment.draws_per_s", "1/s", "higher", "wall_s, reps_per_s", "lf-sweep, perpetuity-limit"),
    ("environment.law_for_mean.calls", "count", "lower", "wall_s", "replay-crossval, perpetuity-limit"),
    ("environment.law_for_mean.s", "s", "lower", "wall_s", "replay-crossval, perpetuity-limit"),
    ("survival.lf.s", "s", "lower", "wall_s, reps_per_s", "lf-sweep"),
    ("survival.lf.generations", "count", "lower", "wall_s, reps_per_s", "lf-sweep"),
    ("survival.lf.lane_generations", "count", "lower", "wall_s, reps_per_s", "lf-sweep"),
    ("survival.lf.occupancy", "ratio", "higher", "wall_s, reps_per_s", "lf-sweep"),
    ("survival.lf.ns_per_lane_gen", "ns", "lower", "wall_s, reps_per_s", "lf-sweep"),
    ("survival.two_point.s", "s", "lower", "wall_s, peak_rss_mb", "replay-crossval"),
    ("survival.replay.s", "s", "lower", "wall_s, peak_rss_mb", "replay-crossval"),
    ("survival.replay.lane_generations", "count", "lower", "wall_s, peak_rss_mb", "replay-crossval"),
    ("survival.replay.ns_per_lane_gen", "ns", "lower", "wall_s, peak_rss_mb", "replay-crossval"),
    ("survival.scalar.s", "s", "lower", "wall_s", "replay-crossval"),
    ("survival.scalar.ms_per_rep", "ms", "lower", "wall_s", "replay-crossval"),
    ("survival.uniform_over_two_point.poisson", "ratio", "lower", "wall_s", "replay-crossval"),
    ("survival.uniform_over_two_point.finite", "ratio", "lower", "wall_s", "replay-crossval"),
    ("survival.population.s", "s", "lower", "wall_s", "replay-crossval"),
    ("survival.population.offspring_sums", "count", "lower", "wall_s", "replay-crossval"),
    ("survival.population.sums_per_s", "1/s", "higher", "wall_s", "replay-crossval"),
    ("offspring.survival_map.calls", "count", "lower", "wall_s", "replay-crossval"),
    ("offspring.survival_map.s", "s", "lower", "wall_s", "replay-crossval"),
    ("perpetuity.series.s", "s", "lower", "wall_s, reps_per_s", "perpetuity-limit"),
    ("perpetuity.series.terms", "count", "lower", "wall_s, reps_per_s", "perpetuity-limit"),
    ("perpetuity.series.ns_per_term", "ns", "lower", "wall_s, reps_per_s", "perpetuity-limit"),
    ("perpetuity.contraction_rate.s", "s", "lower", "wall_s, reps_per_s", "perpetuity-limit"),
    ("perpetuity.annuity.s", "s", "lower", "wall_s, reps_per_s", "perpetuity-limit"),
    ("numerics.ks.s", "s", "lower", "wall_s", "perpetuity-limit"),
    ("numerics.cdf.calls", "count", "lower", "wall_s", "perpetuity-limit"),
    ("numerics.cdf_evals_per_s", "1/s", "higher", "wall_s", "perpetuity-limit"),
    ("numerics.rng_stream.calls", "count", "lower", "setup_s or none (flat)", "all"),
    ("numerics.combine.s", "s", "lower", "setup_s or none (flat)", "all"),
    ("cli.main.s", "s", "lower", "setup_s or none (flat)", "all"),
    ("trace.overhead_s", "s", "lower", "none", "all"),
    # One 16,384-lane LF batch at eps = 0.01, for comparison with the
    # baseline in ROADMAP.md ("Recent").
    ("baseline.lf_batch.occupancy", "ratio", "higher", "wall_s, reps_per_s", "lf-sweep"),
    ("baseline.lf_batch.ns_per_lane_gen", "ns", "lower", "wall_s, reps_per_s", "lf-sweep"),
    ("baseline.lf_batch.generations", "count", "lower", "wall_s, reps_per_s", "lf-sweep"),
    ("baseline.lf_batch.lane_generations", "count", "lower", "wall_s, reps_per_s", "lf-sweep"),
    ("baseline.lf_batch.sample_means_share", "ratio", "lower", "wall_s, reps_per_s", "lf-sweep"),
)

# Baseline of one 16,384-lane LF batch at eps = 0.01 (ROADMAP, "Recent").
BASELINE_LANES = 16384
BASELINE_EPS = 0.01
BASELINE = {
    "baseline.lf_batch.occupancy": 0.31,
    "baseline.lf_batch.ns_per_lane_gen": 44.0,
    "baseline.lf_batch.generations": 8930.0,
    "baseline.lf_batch.lane_generations": 45e6,
    "baseline.lf_batch.sample_means_share": 0.38,
}
BASELINE_TOLERANCE = 0.10


class _Frame:
    __slots__ = ("name", "span_id", "child_s", "counts")

    def __init__(self, name: str, span_id: int) -> None:
        self.name = name
        self.span_id = span_id
        self.child_s = 0.0
        self.counts: dict[str, float] | None = None

    def add(self, key: str, value: float) -> None:
        if self.counts is None:
            self.counts = defaultdict(float)
        self.counts[key] += value


def _haldane_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "haldane" or name.startswith("haldane."))]


def find_patched() -> list[str]:
    """Names of every haldane module or class attribute that is a wrapper."""
    found = []
    for module in _haldane_modules():
        for key, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found.extend(f"{module.__name__}.{key}.{attr}"
                             for attr, member in vars(value).items() if getattr(member, MARK, False))
    return found


def assert_unpatched() -> None:
    patched = find_patched()
    if patched:
        raise RuntimeError(f"library functions still wrapped: {', '.join(patched)}")


# -- hooks: read work counts from the arguments of wrapped calls ---------------

def _sample_means_done(tracer, frame, parent, args, kwargs, result, elapsed):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    draws = 1 if size is None else int(size)
    tracer.counts["environment.sample_means.draws"] += draws
    if parent is not None and parent.name == "survival.lf":
        parent.add("generations", 1)
        parent.add("lane_generations", draws)
        parent.add("sample_means_s", elapsed)


def _lf_batch_done(tracer, frame, parent, args, kwargs, result, elapsed):
    model, n_lanes = args[0], args[1]
    counts = frame.counts or {}
    tracer.lf_batches.append({
        "epsilon": model.epsilon,
        "lanes": n_lanes,
        "generations": counts.get("generations", 0.0),
        "lane_generations": counts.get("lane_generations", 0.0),
        "seconds": elapsed,
        "sample_means_s": counts.get("sample_means_s", 0.0),
    })


def _replay_done(tracer, frame, parent, args, kwargs, result, elapsed):
    bits, n = args[2], args[3]
    tracer.counts["survival.replay.lane_generations"] += bits.shape[0] * n


def _offspring_sum_done(tracer, frame, parent, args, kwargs, result, elapsed):
    tracer.counts["survival.population.offspring_sums"] += args[-1].size


def _sample_pairs_done(tracer, frame, parent, args, kwargs, result, elapsed):
    if parent is not None and parent.name == "perpetuity.series":
        tracer.counts["perpetuity.series.terms"] += args[2]


class Tracer:
    """Wraps the library for the traced passes and accumulates what the
    wrappers see; ``install`` and ``uninstall`` bracket the traced passes."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.lf_batches: list[dict[str, float]] = []
        self._stack: list[_Frame] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, leaf: bool, hook):
        stack = self._stack
        calls, total_s, self_s, spans = self.calls, self.total_s, self.self_s, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if leaf:
                span_id = 0
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = _Frame(name, span_id)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - frame.child_s
                if parent is not None:
                    parent.child_s += elapsed
                if not leaf:
                    spans.append((span_id, name, start, end, parent.span_id if parent is not None else 0))
            if hook is not None:
                hook(self, frame, parent, args, kwargs, result, elapsed)
            return result

        setattr(traced, MARK, True)
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from haldane import _engines, cli, environment, numerics, offspring, perpetuity, survival

        functions = (
            (cli, "main", "cli.main", False, None),
            (survival, "estimate_survival_gf", "survival.estimate_gf", False, None),
            (survival, "simulate_population", "survival.simulate_population", False, None),
            (_engines, "gf_lf_batch", "survival.lf", False, _lf_batch_done),
            (_engines, "gf_two_point_batch", "survival.two_point", False, None),
            (_engines, "_survival_backward_pair", "survival.replay", False, _replay_done),
            (_engines, "gf_scalar_path", "survival.scalar", False, None),
            (_engines, "population_batch", "survival.population", False, None),
            (_engines, "_offspring_sum_poisson", "offspring.sum", True, _offspring_sum_done),
            (_engines, "_offspring_sum_lf", "offspring.sum", True, _offspring_sum_done),
            (_engines, "_offspring_sum_finite", "offspring.sum", True, _offspring_sum_done),
            (perpetuity, "sample_series_batch", "perpetuity.series", False, None),
            (perpetuity, "contraction_rate", "perpetuity.contraction_rate", False, None),
            (perpetuity, "annuity_residual", "perpetuity.annuity", False, None),
            (perpetuity, "limit_fit_test", "perpetuity.limit_fit", False, None),
            (numerics, "ks_one_sample", "numerics.ks", False, None),
            (numerics, "ks_two_sample", "numerics.ks_two_sample", False, None),
            (numerics, "invgamma_cdf", "numerics.cdf", True, None),
            (numerics, "rng_stream", "numerics.rng_stream", True, None),
            (numerics, "combine_batch_stats", "numerics.combine", True, None),
        )
        methods = (
            (environment.EnvironmentModel, "sample_means", "environment.sample_means", _sample_means_done),
            (environment.PoissonFamily, "law_for_mean", "environment.law_for_mean", None),
            (environment.LinearFractionalFamily, "law_for_mean", "environment.law_for_mean", None),
            (environment.FinitePmfFamily, "law_for_mean", "environment.law_for_mean", None),
            (offspring.Poisson, "survival_map", "offspring.survival_map", None),
            (offspring.LinearFractional, "survival_map", "offspring.survival_map", None),
            (offspring.FinitePmf, "survival_map", "offspring.survival_map", None),
            (perpetuity.PerpetuitySpec, "sample_pairs", "perpetuity.sample_pairs", _sample_pairs_done),
        )
        assert_unpatched()
        modules = _haldane_modules()
        for module, attr, name, leaf, hook in functions:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, leaf, hook)
            # rebind every module-level reference, including names imported
            # with ``from ... import`` into other haldane modules
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)
        for cls, attr, name, hook in methods:
            self._patch(cls, attr, self._wrap(name, vars(cls)[attr], True, hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        assert_unpatched()

    # -- results ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def layer_metrics(self, n_passes: int, extra: dict[str, float | None]) -> tuple[dict, dict]:
        """Per-layer values (per traced pass where a total) and, for each
        value that could not be measured on this workload, the reason."""
        calls, total_s, self_s, counts = self.calls, self.total_s, self.self_s, self.counts
        per_pass = 1.0 / n_passes

        def ratio(num: float, den: float, scale: float = 1.0) -> float | None:
            return num / den * scale if den > 0 else None

        lf = self.lf_batches
        lf_gens = sum(b["generations"] for b in lf)
        lf_lane_gens = sum(b["lane_generations"] for b in lf)
        replay_lane_gens = counts["survival.replay.lane_generations"]
        sums = counts["survival.population.offspring_sums"]
        terms = counts["perpetuity.series.terms"]
        draws = counts["environment.sample_means.draws"]
        values = {
            "environment.sample_means.calls": calls["environment.sample_means"] * per_pass,
            "environment.sample_means.draws": draws * per_pass,
            "environment.sample_means.s": total_s["environment.sample_means"] * per_pass,
            "environment.draws_per_s": ratio(draws, total_s["environment.sample_means"]),
            "environment.law_for_mean.calls": calls["environment.law_for_mean"] * per_pass,
            "environment.law_for_mean.s": total_s["environment.law_for_mean"] * per_pass,
            "survival.lf.s": self_s["survival.lf"] * per_pass,
            "survival.lf.generations": lf_gens * per_pass,
            "survival.lf.lane_generations": lf_lane_gens * per_pass,
            "survival.lf.occupancy": ratio(lf_lane_gens, sum(b["generations"] * b["lanes"] for b in lf)),
            "survival.lf.ns_per_lane_gen": ratio(total_s["survival.lf"], lf_lane_gens, 1e9),
            "survival.two_point.s": self_s["survival.two_point"] * per_pass,
            "survival.replay.s": self_s["survival.replay"] * per_pass,
            "survival.replay.lane_generations": replay_lane_gens * per_pass,
            "survival.replay.ns_per_lane_gen": ratio(total_s["survival.replay"], replay_lane_gens, 1e9),
            "survival.scalar.s": self_s["survival.scalar"] * per_pass,
            "survival.scalar.ms_per_rep": ratio(total_s["survival.scalar"], calls["survival.scalar"], 1e3),
            "survival.population.s": self_s["survival.population"] * per_pass,
            "survival.population.offspring_sums": sums * per_pass,
            "survival.population.sums_per_s": ratio(sums, total_s["survival.population"]),
            "offspring.survival_map.calls": calls["offspring.survival_map"] * per_pass,
            "offspring.survival_map.s": total_s["offspring.survival_map"] * per_pass,
            "perpetuity.series.s": self_s["perpetuity.series"] * per_pass,
            "perpetuity.series.terms": terms * per_pass,
            "perpetuity.series.ns_per_term": ratio(total_s["perpetuity.series"], terms, 1e9),
            "perpetuity.contraction_rate.s": total_s["perpetuity.contraction_rate"] * per_pass,
            "perpetuity.annuity.s": self_s["perpetuity.annuity"] * per_pass,
            "numerics.ks.s": self_s["numerics.ks"] * per_pass,
            "numerics.cdf.calls": calls["numerics.cdf"] * per_pass,
            "numerics.cdf_evals_per_s": ratio(calls["numerics.cdf"], total_s["numerics.cdf"]),
            "numerics.rng_stream.calls": calls["numerics.rng_stream"] * per_pass,
            "numerics.combine.s": total_s["numerics.combine"] * per_pass,
            "cli.main.s": self_s["cli.main"] * per_pass,
        }
        values.update(self._baseline_values())
        values.update(extra)

        metrics, unmeasured = {}, {}
        for name, unit, _better, _moves, _on in LAYER_METRICS:
            value = values.get(name)
            if value is None:
                unmeasured[name] = "the layer does no work on this workload"
                value = 0.0
            metrics[name] = {"value": value, "unit": unit}
        return metrics, unmeasured

    def _baseline_values(self) -> dict[str, float | None]:
        batches = [b for b in self.lf_batches
                   if b["lanes"] == BASELINE_LANES and b["epsilon"] == BASELINE_EPS and b["generations"]]
        if not batches:
            return {}

        def median(fn):
            return statistics.median(fn(b) for b in batches)

        return {
            "baseline.lf_batch.occupancy":
                median(lambda b: b["lane_generations"] / (b["generations"] * b["lanes"])),
            "baseline.lf_batch.ns_per_lane_gen": median(lambda b: b["seconds"] / b["lane_generations"] * 1e9),
            "baseline.lf_batch.generations": median(lambda b: b["generations"]),
            "baseline.lf_batch.lane_generations": median(lambda b: b["lane_generations"]),
            "baseline.lf_batch.sample_means_share": median(lambda b: b["sample_means_s"] / b["seconds"]),
        }


def baseline_findings(metrics: dict) -> list[str]:
    """One line per baseline number: measured against the roadmap figure."""
    lines = []
    for name, expected in BASELINE.items():
        value = metrics[name]["value"]
        if value == 0.0:
            continue
        ok = abs(value / expected - 1.0) <= BASELINE_TOLERANCE
        verdict = "reproduced" if ok else "not reproduced (finding)"
        lines.append(f"{name}: {value:.4g} against {expected:g} within +-10%: {verdict}")
    return lines
