"""Every metric the benchmark reports, with its unit and direction.

``BENCHMARK.json`` at the root of the repository lists the same
metrics; ``selftest.py`` checks that the two agree.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from layers import EXPERIMENT_IDS

#: name, unit, better, bound (share of the parent's median a later
#: change may worsen the metric by).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("wall_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def _battery_layers() -> List[Tuple[str, str, str]]:
    rows = [
        ("workloads.gen.calls", "count", "lower"),
        ("workloads.gen.busy_s", "s", "lower"),
        ("isa.trace.busy_s", "s", "lower"),
        ("isa.trace.branches", "count", "lower"),
        ("isa.trace.branches_per_s", "1/s", "higher"),
        ("engine.columnar.busy_s", "s", "lower"),
        ("engine.replay.busy_s", "s", "lower"),
        ("engine.replay.branches", "count", "lower"),
        ("engine.replay.branches_per_s", "1/s", "higher"),
        ("engine.replay.vector_frac", "ratio", "higher"),
        ("engine.replay.passes_saved", "count", "higher"),
        ("engine.kernels.busy_s", "s", "lower"),
        ("pipeline.decode.busy_s", "s", "lower"),
        ("pipeline.inorder.runs", "count", "lower"),
        ("pipeline.inorder.distinct_runs", "count", "lower"),
        ("pipeline.inorder.busy_s", "s", "lower"),
        ("pipeline.inorder.fetched_branches", "count", "lower"),
        ("pipeline.inorder.branches_per_s", "1/s", "higher"),
    ]
    for kind in ("gated", "eager"):
        rows += [
            (f"speculation.{kind}.runs", "count", "lower"),
            (f"speculation.{kind}.busy_s", "s", "lower"),
            (f"speculation.{kind}.branches_per_s", "1/s", "higher"),
        ]
    rows += [
        ("speculation.inversion.busy_s", "s", "lower"),
        ("pipeline.ooo.runs", "count", "lower"),
        ("pipeline.ooo.busy_s", "s", "lower"),
        ("pipeline.ooo.branches_per_s", "1/s", "higher"),
        ("pipeline.records.busy_s", "s", "lower"),
        ("pipeline.records.records", "count", "lower"),
        ("analysis.busy_s", "s", "lower"),
        ("pipeline.snapshot.captures", "count", "lower"),
        ("pipeline.snapshot.capture_s", "s", "lower"),
        ("pipeline.snapshot.restores", "count", "lower"),
        ("pipeline.snapshot.restore_s", "s", "lower"),
        ("pipeline.snapshot.bytes", "B", "lower"),
        ("engine.cache.writes", "count", "lower"),
        ("engine.cache.bytes_written", "B", "lower"),
        ("engine.cache.store_s", "s", "lower"),
        ("engine.cache.hits", "count", "higher"),
        ("engine.cache.misses", "count", "lower"),
        ("engine.cache.load_s", "s", "lower"),
    ]
    rows += [(f"harness.exp.{eid}_s", "s", "lower") for eid in EXPERIMENT_IDS]
    rows += [
        ("harness.unattributed_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return rows


SERVE_LAYERS: List[Tuple[str, str, str]] = [
    ("serve.branches_per_s", "1/s", "higher"),
    ("serve.p50_ms", "ms", "lower"),
    ("serve.p99_ms", "ms", "lower"),
    ("serve.open_ms", "ms", "lower"),
    ("serve.finish_ms", "ms", "lower"),
    ("serve.closed.rtt_p50_ms", "ms", "lower"),
    ("serve.closed.rtt_p99_ms", "ms", "lower"),
    ("serve.session.apply_branches_per_s", "1/s", "higher"),
    ("serve.session.capture_ms", "ms", "lower"),
    ("serve.protocol.frame_us", "us", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.retries", "count", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
]

PER_LAYER: List[Tuple[str, str, str]] = _battery_layers() + SERVE_LAYERS

UNITS: Dict[str, str] = {name: unit for name, unit, *__ in END_TO_END + PER_LAYER}


def benchmark_json(workloads: List[Tuple[str, str]], run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document these definitions describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in workloads],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def emit(values: Dict[str, float], names: List[str]) -> Dict[str, dict]:
    """The ``metrics`` object of the result line, in declaration order."""
    return {name: {"value": float(values.get(name, 0.0)), "unit": UNITS[name]} for name in names}
