"""The repository's benchmark: cold workloads, end-to-end and per-layer metrics.

Run one workload::

    python3 perfbench/run.py --workload battery --seed 3 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); the lines before it print the same numbers for people.
The exit code is 0 only when every output check passed.

See ``perfbench/README.md`` for the workloads, the layer table and how
the metrics interact.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import battery  # noqa: E402
import benchstats  # noqa: E402
import hostspeed  # noqa: E402
import metrics  # noqa: E402
import procs  # noqa: E402
import variants  # noqa: E402

DIGESTS = HERE / "digests.json"

#: Fewest cold passes a run measures, whatever ``--seconds`` says.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: A pass that takes longer than this has hung.
PASS_TIMEOUT_S = 60.0
#: Start no pass after this long, whatever the minimum, so that even a
#: hung last pass ends the run within 180 s.
HARD_STOP_S = 100.0
#: Allowed |sum of self times + unattributed - traced wall|, in seconds.
CLOSURE_TOLERANCE_S = 1e-6

WORKLOAD_NAMES = (*battery.WORKLOADS, "serve")


# ----------------------------------------------------------------------
# battery workloads
# ----------------------------------------------------------------------


def battery_pass(
    workload: str, variant: int, traced: bool, work: Path, reference: bool = False
) -> dict:
    """One cold ``run_all`` in a fresh process with a fresh cache."""
    cache = procs.fresh_dir(work, "cache")
    out = cache.with_suffix(".json")
    spec = {
        "workload": workload,
        "variant": variant,
        "trace": traced,
        "reference": reference,
        "out": str(out),
    }
    spawned = time.monotonic()
    code = procs.run_python(
        [str(HERE / "battery.py"), json.dumps(spec)], procs.clean_env(cache), PASS_TIMEOUT_S
    )
    shutil.rmtree(cache, ignore_errors=True)
    if code != 0 or not out.exists():
        return {"ok": False, "traced": traced, "error": f"pass exited with code {code}"}
    result = json.loads(out.read_text())
    out.unlink()
    result.update(ok=True, traced=traced, setup_s=result["ready"] - spawned)
    return result


def check_pass(result: dict, expected: Optional[dict]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` of one pass against its record.

    An experiment fails when its text's digest differs from the recorded
    one; a pass whose process failed fails every experiment.
    """
    if expected is None:
        return 1, 1, ["no digest recorded for this workload and seed"]
    attempted = len(expected["experiments"])
    if not result.get("ok"):
        return attempted, attempted, [result.get("error", "pass failed")]
    problems = [
        f"{experiment_id}: output differs from the recorded digest"
        for experiment_id, digest in expected["experiments"].items()
        if result["experiments"].get(experiment_id) != digest
    ]
    failed = len(problems)
    if result["digest"] != expected["report"]:
        problems.append("report digest differs from the recorded digest")
        failed = max(failed, 1)
    if result.get("traced"):
        error = result.get("closure_error_s", 0.0)
        if error > CLOSURE_TOLERANCE_S:
            problems.append(f"layer self times miss the traced wall by {error:.2e} s")
            failed = max(failed, 1)
    return attempted, failed, problems


def load_digests() -> Dict[str, Dict[str, dict]]:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text())


def run_battery(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    variant = variants.variant_of(seed)
    expected = load_digests().get(workload, {}).get(str(variant))
    passes: List[dict] = []
    durations: List[float] = []
    started = time.monotonic()
    hostspeed.pin()  # single-threaded passes (jobs=1): one CPU is all they use
    with procs.workdir() as work:
        procs.compile_sources()
        calibration = hostspeed.calibrate()
        while True:
            traced = trace and len(passes) % 2 == 1
            before = time.monotonic()
            result = battery_pass(workload, variant, traced, work)
            after = hostspeed.calibrate()
            result["scale"] = hostspeed.scale(calibration, after)
            calibration = after
            passes.append(result)
            durations.append(time.monotonic() - before)
            elapsed = time.monotonic() - started
            untraced = sum(1 for p in passes if not p["traced"])
            traced_count = len(passes) - untraced
            enough = untraced >= MIN_PASSES and (
                not trace or traced_count >= MIN_TRACED_PASSES
            )
            if enough and elapsed + benchstats.median(durations) > seconds:
                break
            if elapsed > HARD_STOP_S:
                break

    attempted = failed = 0
    problems: List[str] = []
    for result in passes:
        a, f, p = check_pass(result, expected)
        attempted, failed = attempted + a, failed + f
        problems += p
    good = [p for p in passes if p.get("ok")]
    plain = [p for p in good if not p["traced"]]
    traced_passes = [p for p in good if p["traced"]]
    if trace and {p["digest"] for p in traced_passes} != {p["digest"] for p in plain}:
        problems.append("traced report differs from the untraced report")
        failed = max(failed, 1)

    walls = [p["wall_s"] for p in plain]
    adjusted = [p["wall_s"] * p["scale"] for p in plain]
    setups = [p["setup_s"] * p["scale"] for p in good]
    values = {
        "wall_s": benchstats.median(adjusted),
        "setup_s": benchstats.median(setups),
        "peak_rss_mb": benchstats.median([p["rss_mb"] for p in plain]),
    }
    lines = [
        f"perfbench workload={workload} seed={seed} variant={variant}"
        f" passes={len(plain)} traced_passes={len(traced_passes)}",
        f"  wall_s        {values['wall_s']:10.4f} s   median cold run_all in reference"
        f" seconds, quartile spread {benchstats.quartile_spread(adjusted):.1%}",
        "                adjusted: " + " ".join(f"{value:.3f}" for value in adjusted),
        "                host:     " + " ".join(f"{value:.3f}" for value in walls),
        f"  setup_s       {values['setup_s']:10.4f} s   spawn to imports done, reference"
        f" seconds (host median {benchstats.median([p['setup_s'] for p in good]):.4f} s)",
        f"  peak_rss_mb   {values['peak_rss_mb']:10.1f} MB",
        f"  failed_frac   {failed / max(attempted, 1):10.4f} ratio"
        f" ({failed} of {attempted} experiment runs failed)",
    ]
    layer_values: Dict[str, float] = {}
    if traced_passes:
        layer_values = benchstats.median_of_dicts([p["layers"] for p in traced_passes])
        traced_wall = benchstats.median([p["traced_wall_s"] * p["scale"] for p in traced_passes])
        if values["wall_s"] > 0:
            layer_values["trace.overhead_frac"] = traced_wall / values["wall_s"] - 1.0
        closure = max(p["closure_error_s"] for p in traced_passes)
        lines.append(
            f"  traced wall   {traced_wall:10.4f} s   reference seconds, overhead"
            f" {layer_values.get('trace.overhead_frac', 0.0):+.1%};"
            f" self times + unattributed miss it by at most {closure:.1e} s"
        )
    lines += [f"  CHECK FAILED: {problem}" for problem in sorted(set(problems))]
    if not problems:
        lines.append(
            f"  checks        {len(good)} reports equal the recorded digest for variant {variant}"
        )
    return {
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "layers": layer_values,
        "lines": lines,
    }


def record_digests(workloads: List[str]) -> None:
    """Record each battery workload's reference digests, for every variant.

    The reference run uses the workload's ``reference`` overrides (the
    unsegmented strategy for ``pipeline``), so the measured run is
    checked against a different execution of the same inputs.
    """
    digests = load_digests()
    with procs.workdir() as work:
        procs.compile_sources()
        for workload in workloads:
            for variant in range(variants.VARIANTS):
                result = battery_pass(workload, variant, False, work, reference=True)
                if not result["ok"]:
                    raise SystemExit(f"{workload} variant {variant}: {result['error']}")
                digests.setdefault(workload, {})[str(variant)] = {
                    "report": result["digest"],
                    "experiments": result["experiments"],
                }
                print(f"{workload} variant {variant}: {result['digest'][:16]}", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        metavar="WORKLOADS",
        help="comma-separated battery workloads whose reference digests to re-record",
    )
    args = parser.parse_args(argv)
    if args.workload is None and args.record_digests is None:
        parser.error("--workload is required")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not procs.program_present():
        print(f"perfbench: program sources not found under {procs.SOURCE}", file=sys.stderr)
        return 2
    if args.record_digests is not None:
        record_digests(args.record_digests.split(","))
        return 0
    if args.workload == "serve":
        import servebench

        outcome = servebench.run(args.seed, args.seconds, bool(args.trace))
    else:
        outcome = run_battery(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        names = [name for name, *__ in metrics.PER_LAYER]
        values = outcome["layers"]
    else:
        names = [name for name, *__ in metrics.END_TO_END]
        values = outcome["values"]
    correct = outcome["failed"] == 0 and outcome["attempted"] > 0
    for line in outcome["lines"]:
        print(line)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics.emit(values, names),
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
