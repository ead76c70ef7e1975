"""One cold pass of a battery workload, in a fresh process.

The parent (``run.py``) starts ``python3 perfbench/battery.py SPEC``
once per pass, with every ``REPRO_*`` variable unset except
``REPRO_CACHE_DIR``, which names a fresh, empty directory.  The child
imports the program, registers the seed's input variant, runs one
``run_all(..., jobs=1)`` call and writes a JSON result file:

* ``ready`` -- ``time.monotonic()`` once imports are done (the parent
  subtracts its own spawn stamp to get ``setup_s``);
* ``wall_s`` -- host seconds of the ``run_all`` call;
* ``rss_mb`` -- the process's peak resident memory;
* ``digest`` / ``experiments`` -- SHA-256 of the deterministic report
  (fixed clock, no performance section) and of each experiment's text;
* ``layers`` -- per-layer metrics, when the pass is traced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

#: Cycle-level distance experiments.
PIPELINE_EXPERIMENTS = ("fig6", "fig7", "fig8", "fig9")

#: Battery workloads: scale preset, overrides, and experiment selection
#: (``None`` = the whole battery).  ``reference`` holds the overrides of
#: the run whose report the workload's output must equal, when that is
#: a different execution strategy of the same inputs.
WORKLOADS = {
    "battery": {
        "scale": "quick",
        "overrides": {"workloads": ("compress",)},
        "only": None,
    },
    "pipeline": {
        "scale": "quick",
        "overrides": {"workloads": ("go",), "backend": "ooo", "segment_instructions": 20_000},
        "only": PIPELINE_EXPERIMENTS,
        "reference": {"segment_instructions": None},
    },
}


def _scale(workload: str, reference: bool):
    from repro.harness import SCALES

    config = WORKLOADS[workload]
    overrides = dict(config["overrides"])
    if reference:
        overrides.update(config.get("reference", {}))
    return dataclasses.replace(SCALES[config["scale"]], **overrides)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(spec: dict) -> dict:
    import procs
    import variants

    sys.path.insert(0, str(procs.SOURCE))
    import repro.harness as harness

    variants.register(spec["variant"])
    ready = time.monotonic()

    scale = _scale(spec["workload"], spec.get("reference", False))
    only = WORKLOADS[spec["workload"]]["only"]
    recorder = None
    if spec.get("trace"):
        import layers
        from spans import SpanRecorder

        recorder = SpanRecorder()
        layers.install(recorder)  # rebinds harness.run_all to its wrapper
    started = time.perf_counter()
    results = harness.run_all(scale, only=only, jobs=1)
    wall = time.perf_counter() - started

    report = harness.render_report(
        results, scale, clock=lambda: "fixed", performance=False
    )
    out = {
        "ready": ready,
        "wall_s": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": _sha(report),
        "experiments": {
            experiment_id: _sha(result.to_text())
            for experiment_id, result in results.items()
        },
    }
    if recorder is not None:
        import layers

        durations = {
            experiment_id: result.duration_s or 0.0
            for experiment_id, result in results.items()
        }
        metrics = layers.layer_metrics(recorder.spans, durations)
        traced_wall = layers.root_wall(recorder.spans)
        out["layers"] = metrics
        out["traced_wall_s"] = traced_wall
        out["closure_error_s"] = layers.closure_error(metrics, traced_wall)
    return out


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = main(spec)
    Path(spec["out"]).write_text(json.dumps(result))
