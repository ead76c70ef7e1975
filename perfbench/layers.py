"""The layer boundaries a traced battery pass wraps, and their metrics.

:func:`install` rebinds each layer's public entry point to a
:class:`~spans.SpanRecorder` wrapper; :func:`layer_metrics` turns the
recorded spans into the per-layer metrics named in ``BENCHMARK.json``.

Every ``busy_s`` is *self time*: the layer's span time minus the time
spent in nested layer spans (a gated run's decode, an analysis pass's
replay).  The self times of all layers plus ``harness.unattributed_s``
(the root span's own self time) therefore add up to the traced wall.
"""

from __future__ import annotations

import importlib
from typing import Dict, List

from spans import Span, SpanRecorder, patch_everywhere, self_times

#: Span name of the root: one cold ``run_all`` call.
ROOT = "harness.run_all"

#: Experiment ids, fixed so every traced run reports the same metrics.
EXPERIMENT_IDS = (
    "fig1",
    "tab1",
    "tab2",
    "tab2d",
    "fig3",
    "fig4",
    "fig5",
    "tab3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "tab4",
    "boost",
    "speculation-gating",
    "speculation-eager",
    "speculation-inversion",
)


def _simulator_layer(args) -> str:
    """Span name of a ``PipelineSimulator.run`` call, by simulator kind."""
    from repro.pipeline import OutOfOrderSimulator, PipelineSimulator
    from repro.speculation import EagerPipelineSimulator, GatedPipelineSimulator

    simulator = args[0]
    kind = type(simulator)
    if kind is PipelineSimulator:
        return "pipeline.inorder"
    if isinstance(simulator, GatedPipelineSimulator):
        return "speculation.gated"
    if isinstance(simulator, EagerPipelineSimulator):
        return "speculation.eager"
    if isinstance(simulator, OutOfOrderSimulator):
        return "pipeline.ooo"
    return "pipeline.inorder"


def _run_before(args, kwargs):
    stats = args[0].stats
    return stats.committed_instructions, args[0].cycle, stats.fetched_branches


def _run_after(result, args, kwargs, before):
    simulator = args[0]
    stats = simulator.stats
    start_committed, start_cycle, start_fetched = before
    # two runs are the same simulation when they start from the same
    # point of the same program and end with identical statistics
    identity = (
        type(simulator).__name__,
        getattr(simulator.program, "name", ""),
        start_committed,
        start_cycle,
        stats.committed_instructions,
        stats.cycles,
        stats.squashed_instructions,
        stats.fetched_branches,
        stats.committed_mispredictions,
    )
    return {
        "fetched_branches": float(stats.fetched_branches - start_fetched),
        "identity": identity,
    }


def _replay_before(args, kwargs):
    from repro.engine.measure import SCALAR_FALLBACK_METRIC, VECTOR_BRANCHES_METRIC
    from repro.obs.registry import REGISTRY

    return (
        REGISTRY.counter_value(VECTOR_BRANCHES_METRIC),
        REGISTRY.counter_value(SCALAR_FALLBACK_METRIC),
    )


def _replay_after(result, args, kwargs, before):
    from repro.engine.measure import SCALAR_FALLBACK_METRIC, VECTOR_BRANCHES_METRIC
    from repro.obs.registry import REGISTRY

    vector = REGISTRY.counter_value(VECTOR_BRANCHES_METRIC) - before[0]
    fallback = REGISTRY.counter_value(SCALAR_FALLBACK_METRIC) - before[1]
    estimators = args[2] if len(args) > 2 else kwargs.get("estimators", {})
    subsumes = args[3] if len(args) > 3 else kwargs.get("subsumes", 1)
    scalar = 0.0
    if not vector and not fallback:
        # the whole bank took the scalar loop (no vector scan)
        scalar = float(result.branches * (1 + len(estimators)))
    return {
        "branches": float(result.branches),
        "vector": vector,
        "scalar": fallback + scalar,
        "passes_saved": float(max(0, subsumes - 1)),
    }


def _store_after(result, args, kwargs, before):
    cache, key = args[0], args[1]
    if not cache.enabled:
        return {}
    try:
        size = cache.path_for(key).stat().st_size
    except OSError:
        size = 0
    return {"writes": 1.0, "bytes": float(size)}


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary; call once, before the traced run."""
    import repro.harness  # noqa: F401  (loads every module to patch)
    from repro.engine.cache import ArtifactCache
    from repro.pipeline import PipelineSimulator
    from repro.pipeline.records import BranchRecordStore

    def wrap_function(module, attribute, name, **hooks):
        # by module path: some packages re-export a function under the
        # name of the submodule that defines it (repro.engine.measure)
        original = getattr(importlib.import_module(f"repro.{module}"), attribute)
        wrapper = recorder.wrap(original, name, **hooks)
        for api in ("cache_clear", "cache_info"):
            if hasattr(original, api):
                setattr(wrapper, api, getattr(original, api))
        patch_everywhere(original, wrapper)

    def wrap_method(cls, attribute, name, **hooks):
        setattr(cls, attribute, recorder.wrap(getattr(cls, attribute), name, **hooks))

    wrap_function("harness.runner", "run_all", ROOT, root=True)
    wrap_function("engine.corpus", "workload_program", "workloads.gen")
    wrap_function(
        "engine.tracer",
        "trace_branches",
        "isa.trace",
        after=lambda result, a, k, s: {"branches": float(result.stats.branches)},
    )
    wrap_function("engine.columnar", "lower_trace", "engine.columnar")
    wrap_function(
        "engine.measure",
        "measure_bank",
        "engine.replay",
        before=_replay_before,
        after=_replay_after,
    )
    # vector kernels the engine facade exposes beside measure_bank:
    # static-site training, JRS/distance value sweeps, boosting counts
    for function in (
        "confident_sites_vector",
        "jrs_value_counts",
        "distance_value_counts",
        "boosting_counts",
        "misestimation_pairs",
    ):
        wrap_function("engine.vector", function, "engine.kernels")
    wrap_function("pipeline.decode", "decode_program", "pipeline.decode")
    wrap_method(
        PipelineSimulator, "run", _simulator_layer, before=_run_before, after=_run_after
    )
    wrap_function("speculation.inversion", "evaluate_inversion", "speculation.inversion")
    wrap_method(
        BranchRecordStore,
        "materialize",
        "pipeline.records",
        after=lambda result, a, k, s: {"records": float(len(result))},
    )
    for module, functions in (
        ("analysis.distance", ("precise_distance_curve", "perceived_distance_curve",
                               "clustering_divergence")),
        ("analysis.clustering", ("measure_boosting", "misestimation_distance")),
        ("analysis.sweeps", ("jrs_value_histogram", "distance_value_histogram")),
    ):
        for function in functions:
            wrap_function(module, function, "analysis")
    wrap_function(
        "pipeline.snapshot",
        "capture_snapshot",
        "pipeline.snapshot.capture",
        after=lambda result, a, k, s: {"bytes": float(len(result.payload))},
    )
    wrap_function("pipeline.snapshot", "restore_snapshot", "pipeline.snapshot.restore")
    wrap_method(ArtifactCache, "store", "engine.cache.store", after=_store_after)
    wrap_method(
        ArtifactCache,
        "load",
        "engine.cache.load",
        after=lambda result, a, k, s: {"hits": float(result[0]), "misses": float(not result[0])},
    )


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: List[Span], durations: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``durations`` maps experiment id to the ``duration_s`` the harness
    stamped on its result.
    """
    own = self_times(spans)
    busy: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, Dict[str, float]] = {}
    identities: Dict[str, set] = {}
    for span, seconds in zip(spans, own):
        busy[span.name] = busy.get(span.name, 0.0) + seconds
        calls[span.name] = calls.get(span.name, 0) + 1
        bucket = counts.setdefault(span.name, {})
        for key, value in span.counts.items():
            if key == "identity":
                identities.setdefault(span.name, set()).add(value)
            else:
                bucket[key] = bucket.get(key, 0.0) + value

    def b(name):
        return busy.get(name, 0.0)

    def c(name, key):
        return counts.get(name, {}).get(key, 0.0)

    metrics: Dict[str, float] = {
        "workloads.gen.calls": float(calls.get("workloads.gen", 0)),
        "workloads.gen.busy_s": b("workloads.gen"),
        "isa.trace.busy_s": b("isa.trace"),
        "isa.trace.branches": c("isa.trace", "branches"),
        "isa.trace.branches_per_s": _rate(c("isa.trace", "branches"), b("isa.trace")),
        "engine.columnar.busy_s": b("engine.columnar"),
        "engine.replay.busy_s": b("engine.replay"),
        "engine.replay.branches": c("engine.replay", "branches"),
        "engine.replay.branches_per_s": _rate(
            c("engine.replay", "branches"), b("engine.replay")
        ),
        "engine.replay.vector_frac": _rate(
            c("engine.replay", "vector"),
            c("engine.replay", "vector") + c("engine.replay", "scalar"),
        ),
        "engine.replay.passes_saved": c("engine.replay", "passes_saved"),
        "engine.kernels.busy_s": b("engine.kernels"),
        "pipeline.decode.busy_s": b("pipeline.decode"),
        "pipeline.inorder.runs": float(calls.get("pipeline.inorder", 0)),
        "pipeline.inorder.distinct_runs": float(len(identities.get("pipeline.inorder", ()))),
        "pipeline.inorder.busy_s": b("pipeline.inorder"),
        "pipeline.inorder.fetched_branches": c("pipeline.inorder", "fetched_branches"),
        "pipeline.inorder.branches_per_s": _rate(
            c("pipeline.inorder", "fetched_branches"), b("pipeline.inorder")
        ),
    }
    for kind in ("gated", "eager"):
        name = f"speculation.{kind}"
        metrics[f"{name}.runs"] = float(calls.get(name, 0))
        metrics[f"{name}.busy_s"] = b(name)
        metrics[f"{name}.branches_per_s"] = _rate(c(name, "fetched_branches"), b(name))
    metrics["speculation.inversion.busy_s"] = b("speculation.inversion")
    metrics["pipeline.ooo.runs"] = float(calls.get("pipeline.ooo", 0))
    metrics["pipeline.ooo.busy_s"] = b("pipeline.ooo")
    metrics["pipeline.ooo.branches_per_s"] = _rate(
        c("pipeline.ooo", "fetched_branches"), b("pipeline.ooo")
    )
    metrics["pipeline.records.busy_s"] = b("pipeline.records")
    metrics["pipeline.records.records"] = c("pipeline.records", "records")
    metrics["analysis.busy_s"] = b("analysis")
    metrics["pipeline.snapshot.captures"] = float(calls.get("pipeline.snapshot.capture", 0))
    metrics["pipeline.snapshot.capture_s"] = b("pipeline.snapshot.capture")
    metrics["pipeline.snapshot.restores"] = float(calls.get("pipeline.snapshot.restore", 0))
    metrics["pipeline.snapshot.restore_s"] = b("pipeline.snapshot.restore")
    metrics["pipeline.snapshot.bytes"] = c("pipeline.snapshot.capture", "bytes")
    metrics["engine.cache.writes"] = c("engine.cache.store", "writes")
    metrics["engine.cache.bytes_written"] = c("engine.cache.store", "bytes")
    metrics["engine.cache.store_s"] = b("engine.cache.store")
    metrics["engine.cache.hits"] = c("engine.cache.load", "hits")
    metrics["engine.cache.misses"] = c("engine.cache.load", "misses")
    metrics["engine.cache.load_s"] = b("engine.cache.load")
    for experiment_id in EXPERIMENT_IDS:
        metrics[f"harness.exp.{experiment_id}_s"] = durations.get(experiment_id, 0.0)
    metrics["harness.unattributed_s"] = b(ROOT)
    return metrics


#: The self-time metrics that, with ``harness.unattributed_s``, add up
#: to the traced wall.
SELF_TIME_METRICS = (
    "workloads.gen.busy_s",
    "isa.trace.busy_s",
    "engine.columnar.busy_s",
    "engine.replay.busy_s",
    "engine.kernels.busy_s",
    "pipeline.decode.busy_s",
    "pipeline.inorder.busy_s",
    "speculation.gated.busy_s",
    "speculation.eager.busy_s",
    "speculation.inversion.busy_s",
    "pipeline.ooo.busy_s",
    "pipeline.records.busy_s",
    "analysis.busy_s",
    "pipeline.snapshot.capture_s",
    "pipeline.snapshot.restore_s",
    "engine.cache.store_s",
    "engine.cache.load_s",
    "harness.unattributed_s",
)


def root_wall(spans: List[Span]) -> float:
    return sum(span.end - span.start for span in spans if span.parent < 0)


def closure_error(metrics: Dict[str, float], wall: float) -> float:
    """|sum of layer self times and the unattributed rest - traced wall|."""
    return abs(sum(metrics[name] for name in SELF_TIME_METRICS) - wall)
