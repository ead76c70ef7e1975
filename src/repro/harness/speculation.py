"""Speculation-control battery: the paper's §2.2 applications as
first-class harness experiments.

Three experiments turn the estimator-quality tables into end-to-end
speculation-control results on the cycle-level pipeline:

* ``speculation-gating`` -- Manne-style pipeline gating
  (:class:`repro.speculation.GatedPipelineSimulator`): fetch stalls while too
  many unresolved low-confidence branches are in flight.  The figures
  of merit are the paper's: wrong-path (squashed) instructions saved
  vs. IPC lost, swept over gating thresholds and estimator choices.
* ``speculation-eager`` -- selective dual-path execution
  (:class:`repro.speculation.EagerPipelineSimulator`): forks on
  low-confidence branches convert covered mispredictions into a
  one-cycle path switch at the price of fetch dilution.
* ``speculation-inversion`` -- the negative result
  (:func:`repro.speculation.evaluate_inversion`): inverting
  low-confidence predictions only pays at PVN > 50%, which no estimator
  reaches across the suite.

Each (workload, estimator, threshold) cell is memoised in process and
persisted in the artifact cache as a compact picklable dataclass, so
the parallel scheduler's warm waves (:mod:`repro.harness.parallel`)
fan the pipeline simulations out exactly like the figure experiments,
and warm reruns are cache reads.  A cell simulates only its gated or
eager run: the ungated baseline is the bare gshare ``pipeline``
artifact tab1 and fig6/fig8 already compute (an attached estimator
never changes timing), which both experiments declare as a dependency
so the warm waves build it once, before the cells.  Registry metrics
(``speculation.gated_cycles``, ``speculation.wrong_path_instructions``,
``speculation.wrong_path_saved``, ``speculation.recovery_cycles``,
``speculation.eager_*``, ``speculation.inversion_flips``) are counted
at compute time and ship back from workers with the normal metric
deltas; ``run_all`` summarises each speculation experiment as a
``speculation_summary`` journal event.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from ..confidence import (
    BoostedEstimator,
    JRSEstimator,
    MispredictionDistanceEstimator,
)
from ..engine import get_cache, profile_fingerprint, workload_program
from ..obs.registry import REGISTRY
from ..pipeline import (
    PipelineConfig,
    PipelineStats,
    engine_decode,
    normalize_backend,
)
from ..predictors import make_predictor
from ..speculation import (
    evaluate_inversion,
    make_eager_simulator,
    make_gated_simulator,
)
from .experiments import FULL, ExperimentResult, Scale, _bank_trace, _pipeline_result
from .spec import SPECS, ArtifactDep, ExperimentSpec
from .tables import TextTable, pct1, spct1

#: Estimator configurations the speculation battery sweeps.  The
#: factories take the (fresh) predictor the gated or eager run uses, so
#: each run gets independent estimator state.
SPECULATION_ESTIMATORS: Dict[str, Callable] = {
    "jrs": lambda predictor: JRSEstimator(threshold=15, enhanced=True),
    "distance": lambda predictor: MispredictionDistanceEstimator(4),
    "boosted-distance": lambda predictor: BoostedEstimator(
        MispredictionDistanceEstimator(4), k=2
    ),
}

#: Gating thresholds swept by ``speculation-gating`` (unresolved
#: low-confidence branches in flight before fetch stalls).
GATE_THRESHOLDS: Tuple[int, ...] = (1, 2)

#: The predictor every speculation experiment runs on.
SPECULATION_PREDICTOR = "gshare"

#: Experiment ids, in battery order (``repro speculate`` runs these).
SPECULATION_BATTERY: Tuple[str, ...] = (
    "speculation-gating",
    "speculation-eager",
    "speculation-inversion",
)


def _predictor_factory():
    return make_predictor(SPECULATION_PREDICTOR)


# ----------------------------------------------------------------------
# cached cells (the unit the warm waves fan out over)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GatingCell:
    """Gated vs. ungated pipeline run of one workload/estimator/threshold."""

    workload: str
    estimator: str
    threshold: int
    baseline_cycles: int
    baseline_committed: int
    baseline_squashed: int
    gated_cycles: int
    gated_committed: int
    gated_squashed: int
    gated_mispredictions: int
    fetch_gated_cycles: int
    recovery_cycles: int

    @property
    def baseline_ipc_or_none(self) -> Optional[float]:
        """Committed IPC of the ungated run, or ``None`` before any
        cycle has elapsed -- never a fabricated 0.0."""
        if not self.baseline_cycles:
            return None
        return self.baseline_committed / self.baseline_cycles

    @property
    def gated_ipc_or_none(self) -> Optional[float]:
        if not self.gated_cycles:
            return None
        return self.gated_committed / self.gated_cycles

    @property
    def baseline_ipc(self) -> float:
        ipc = self.baseline_ipc_or_none
        return 0.0 if ipc is None else ipc

    @property
    def gated_ipc(self) -> float:
        ipc = self.gated_ipc_or_none
        return 0.0 if ipc is None else ipc

    @property
    def wrong_path_saved(self) -> int:
        """Squashed (wrong-path) instructions the gate avoided."""
        return self.baseline_squashed - self.gated_squashed

    @property
    def squash_reduction(self) -> Optional[float]:
        if not self.baseline_squashed:
            return None
        return self.wrong_path_saved / self.baseline_squashed

    @property
    def ipc_delta(self) -> Optional[float]:
        """Relative IPC change, gated vs. ungated (negative = lost).

        Routed through the ``*_or_none`` accessors: a wide-commit
        backend that finishes the budget in few cycles must never
        divide by a stale or zero denominator, so any degenerate run
        renders as n/a instead of a fabricated ratio."""
        base = self.baseline_ipc_or_none
        gated = self.gated_ipc_or_none
        if base is None or gated is None or not base:
            return None
        return gated / base - 1.0

    @property
    def slowdown(self) -> Optional[float]:
        if not self.baseline_cycles:
            return None
        return self.gated_cycles / self.baseline_cycles - 1.0

    def journal_row(self) -> Dict:
        return {
            "workload": self.workload,
            "estimator": self.estimator,
            "threshold": self.threshold,
            "wrong_path_saved": self.wrong_path_saved,
            "squash_reduction": self.squash_reduction,
            "ipc_delta": self.ipc_delta,
            "slowdown": self.slowdown,
            "gated_cycles": self.fetch_gated_cycles,
        }


@dataclass(frozen=True)
class EagerCell:
    """Single-path vs. dual-path run of one workload/estimator."""

    workload: str
    estimator: str
    baseline_cycles: int
    baseline_committed: int
    eager_cycles: int
    eager_committed: int
    forks: int
    covered_mispredictions: int
    wasted_slots: int

    @property
    def speedup(self) -> Optional[float]:
        if not self.eager_cycles:
            return None
        return self.baseline_cycles / self.eager_cycles - 1.0

    @property
    def fork_precision(self) -> Optional[float]:
        return self.covered_mispredictions / self.forks if self.forks else None

    def journal_row(self) -> Dict:
        return {
            "workload": self.workload,
            "estimator": self.estimator,
            "forks": self.forks,
            "covered": self.covered_mispredictions,
            "wasted_slots": self.wasted_slots,
            "speedup": self.speedup,
        }


@dataclass(frozen=True)
class InversionCell:
    """Trace-level ledger of inverting low-confidence predictions."""

    workload: str
    estimator: str
    branches: int
    base_correct: int
    flips: int
    flips_helped: int
    flips_hurt: int

    @property
    def base_accuracy(self) -> float:
        return self.base_correct / self.branches if self.branches else 0.0

    @property
    def inverted_accuracy(self) -> float:
        correct = self.base_correct + self.flips_helped - self.flips_hurt
        return correct / self.branches if self.branches else 0.0

    @property
    def accuracy_delta(self) -> float:
        return self.inverted_accuracy - self.base_accuracy

    @property
    def flip_pvn(self) -> Optional[float]:
        return self.flips_helped / self.flips if self.flips else None

    def journal_row(self) -> Dict:
        return {
            "workload": self.workload,
            "estimator": self.estimator,
            "flips": self.flips,
            "accuracy_delta": self.accuracy_delta,
            "flip_pvn": self.flip_pvn,
        }


def _estimator_factory(name: str) -> Callable:
    try:
        return SPECULATION_ESTIMATORS[name]
    except KeyError:
        raise KeyError(
            f"unknown speculation estimator {name!r}; "
            f"available: {', '.join(sorted(SPECULATION_ESTIMATORS))}"
        ) from None


def _baseline_stats(
    workload: str,
    iterations: Optional[int],
    max_instructions: int,
    segment_instructions: Optional[int],
    backend: str,
) -> PipelineStats:
    """Stats of the ungated, single-path run every speculation cell is
    measured against: the bare gshare ``pipeline`` artifact that tab1
    and fig6/fig8 already read.  The call matches theirs argument for
    argument, so a serial run hits the in-process memo."""
    return _pipeline_result(
        workload,
        SPECULATION_PREDICTOR,
        iterations,
        max_instructions,
        segment_instructions=segment_instructions,
        backend=backend,
    ).stats


def _compute_gating_cell(
    workload: str,
    estimator_name: str,
    threshold: int,
    iterations: Optional[int],
    max_instructions: int,
    backend: str = "inorder",
    segment_instructions: Optional[int] = None,
) -> GatingCell:
    config = PipelineConfig()
    simulator = make_gated_simulator(
        workload_program(workload, iterations),
        _predictor_factory,
        _estimator_factory(estimator_name),
        gate_threshold=threshold,
        config=config,
        decoded=engine_decode(workload, iterations),
        backend=backend,
    )
    gated = simulator.run(max_instructions=max_instructions).stats
    baseline = _baseline_stats(
        workload, iterations, max_instructions, segment_instructions, backend
    )
    cell = GatingCell(
        workload=workload,
        estimator=estimator_name,
        threshold=threshold,
        baseline_cycles=baseline.cycles,
        baseline_committed=baseline.committed_instructions,
        baseline_squashed=baseline.squashed_instructions,
        gated_cycles=gated.cycles,
        gated_committed=gated.committed_instructions,
        gated_squashed=gated.squashed_instructions,
        gated_mispredictions=gated.committed_mispredictions,
        fetch_gated_cycles=simulator.gated_cycles,
        recovery_cycles=gated.committed_mispredictions
        * (1 + config.mispredict_penalty),
    )
    REGISTRY.count("speculation.gated_cycles", cell.fetch_gated_cycles)
    REGISTRY.count("speculation.wrong_path_instructions", cell.baseline_squashed)
    REGISTRY.count("speculation.wrong_path_saved", cell.wrong_path_saved)
    REGISTRY.count("speculation.recovery_cycles", cell.recovery_cycles)
    return cell


@lru_cache(maxsize=512)
def gating_cell(
    workload: str,
    estimator_name: str,
    threshold: int,
    iterations: Optional[int],
    max_instructions: int,
    backend: str = "inorder",
    segment_instructions: Optional[int] = None,
) -> GatingCell:
    """One gating cell.  ``segment_instructions`` only routes the
    baseline read to the same ``pipeline`` artifact (and memo entry)
    the figure experiments use; like theirs, the cell's cache key
    leaves it out, because segmentation cannot change a result."""
    backend = normalize_backend(backend)
    return get_cache().cached(
        "spec-gating",
        lambda: _compute_gating_cell(
            workload,
            estimator_name,
            threshold,
            iterations,
            max_instructions,
            backend,
            segment_instructions,
        ),
        workload=workload,
        estimator=estimator_name,
        threshold=threshold,
        iterations=iterations,
        max_instructions=max_instructions,
        predictor=SPECULATION_PREDICTOR,
        profile=profile_fingerprint(workload),
        config=repr(PipelineConfig()),
        backend=backend,
    )


def _compute_eager_cell(
    workload: str,
    estimator_name: str,
    iterations: Optional[int],
    max_instructions: int,
    backend: str = "inorder",
    segment_instructions: Optional[int] = None,
) -> EagerCell:
    simulator = make_eager_simulator(
        workload_program(workload, iterations),
        _predictor_factory,
        _estimator_factory(estimator_name),
        config=PipelineConfig(),
        decoded=engine_decode(workload, iterations),
        backend=backend,
    )
    eager = simulator.run(max_instructions=max_instructions).stats
    baseline = _baseline_stats(
        workload, iterations, max_instructions, segment_instructions, backend
    )
    cell = EagerCell(
        workload=workload,
        estimator=estimator_name,
        baseline_cycles=baseline.cycles,
        baseline_committed=baseline.committed_instructions,
        eager_cycles=eager.cycles,
        eager_committed=eager.committed_instructions,
        forks=simulator.eager_forks,
        covered_mispredictions=simulator.eager_covered,
        wasted_slots=simulator.eager_wasted_slots,
    )
    REGISTRY.count("speculation.eager_forks", cell.forks)
    REGISTRY.count("speculation.eager_covered", cell.covered_mispredictions)
    REGISTRY.count("speculation.eager_wasted_slots", cell.wasted_slots)
    return cell


@lru_cache(maxsize=512)
def eager_cell(
    workload: str,
    estimator_name: str,
    iterations: Optional[int],
    max_instructions: int,
    backend: str = "inorder",
    segment_instructions: Optional[int] = None,
) -> EagerCell:
    """One eager cell (``segment_instructions`` as for
    :func:`gating_cell`)."""
    backend = normalize_backend(backend)
    return get_cache().cached(
        "spec-eager",
        lambda: _compute_eager_cell(
            workload,
            estimator_name,
            iterations,
            max_instructions,
            backend,
            segment_instructions,
        ),
        workload=workload,
        estimator=estimator_name,
        iterations=iterations,
        max_instructions=max_instructions,
        predictor=SPECULATION_PREDICTOR,
        profile=profile_fingerprint(workload),
        config=repr(PipelineConfig()),
        backend=backend,
    )


def _compute_inversion_cell(
    workload: str, estimator_name: str, iterations: Optional[int]
) -> InversionCell:
    predictor = _predictor_factory()
    result = evaluate_inversion(
        _bank_trace(workload, iterations),
        predictor,
        _estimator_factory(estimator_name)(predictor),
    )
    REGISTRY.count("speculation.inversion_flips", result.flips)
    return InversionCell(
        workload=workload,
        estimator=estimator_name,
        branches=result.branches,
        base_correct=result.base_correct,
        flips=result.flips,
        flips_helped=result.flips_helped,
        flips_hurt=result.flips_hurt,
    )


@lru_cache(maxsize=512)
def inversion_cell(
    workload: str, estimator_name: str, iterations: Optional[int]
) -> InversionCell:
    return get_cache().cached(
        "spec-inversion",
        lambda: _compute_inversion_cell(workload, estimator_name, iterations),
        workload=workload,
        estimator=estimator_name,
        iterations=iterations,
        predictor=SPECULATION_PREDICTOR,
        profile=profile_fingerprint(workload),
    )


def clear_speculation_memoised() -> None:
    """Drop the in-process memo tier of the speculation cells."""
    gating_cell.cache_clear()
    eager_cell.cache_clear()
    inversion_cell.cache_clear()


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------


def experiment_speculation_gating(scale: Scale = FULL) -> ExperimentResult:
    """Pipeline gating: wrong-path savings vs IPC loss per threshold."""
    result = ExperimentResult(
        "speculation-gating",
        "Pipeline gating on low-confidence branch count",
    )
    table = TextTable(
        title="Speculation control (pipeline gating):"
        " wrong-path savings vs IPC delta"
        f" ({SPECULATION_PREDICTOR} pipeline)",
        headers=[
            "workload",
            "estimator",
            "thr",
            "gated cyc",
            "wrong-path saved",
            "squash cut",
            "ipc delta",
            "slowdown",
        ],
    )
    cells: List[GatingCell] = []
    for workload in scale.workloads:
        for estimator_name in SPECULATION_ESTIMATORS:
            for threshold in GATE_THRESHOLDS:
                cell = gating_cell(
                    workload,
                    estimator_name,
                    threshold,
                    scale.iterations,
                    scale.pipeline_instructions,
                    scale.backend,
                    scale.segment_instructions,
                )
                cells.append(cell)
                table.add_row(
                    [
                        cell.workload,
                        cell.estimator,
                        cell.threshold,
                        cell.fetch_gated_cycles,
                        cell.wrong_path_saved,
                        pct1(cell.squash_reduction),
                        spct1(cell.ipc_delta),
                        spct1(cell.slowdown),
                    ]
                )
    table.add_note(
        "paper §2.2 / Manne et al.: a good estimator buys a large cut in"
        " squashed (wrong-path) work for a small IPC loss"
    )
    result.tables.append(table)
    result.data["cells"] = cells
    result.data["journal_rows"] = [cell.journal_row() for cell in cells]
    return result


def experiment_speculation_eager(scale: Scale = FULL) -> ExperimentResult:
    """Selective dual-path execution per estimator."""
    result = ExperimentResult(
        "speculation-eager",
        "Selective eager (dual-path) execution on low confidence",
    )
    table = TextTable(
        title="Speculation control (dual-path): fork precision vs speedup"
        f" ({SPECULATION_PREDICTOR} pipeline)",
        headers=[
            "workload",
            "estimator",
            "forks",
            "covered",
            "precision",
            "wasted slots",
            "speedup",
        ],
    )
    cells: List[EagerCell] = []
    for workload in scale.workloads:
        for estimator_name in SPECULATION_ESTIMATORS:
            cell = eager_cell(
                workload,
                estimator_name,
                scale.iterations,
                scale.pipeline_instructions,
                scale.backend,
                scale.segment_instructions,
            )
            cells.append(cell)
            table.add_row(
                [
                    cell.workload,
                    cell.estimator,
                    cell.forks,
                    cell.covered_mispredictions,
                    pct1(cell.fork_precision),
                    cell.wasted_slots,
                    spct1(cell.speedup),
                ]
            )
    table.add_note(
        "every covered misprediction converts a flush into a one-cycle"
        " switch; every false fork pays fetch dilution for nothing"
    )
    result.tables.append(table)
    result.data["cells"] = cells
    result.data["journal_rows"] = [cell.journal_row() for cell in cells]
    return result


def experiment_speculation_inversion(scale: Scale = FULL) -> ExperimentResult:
    """Prediction inversion: the paper's negative result, measured."""
    result = ExperimentResult(
        "speculation-inversion",
        "Prediction inversion on low confidence (negative result)",
    )
    table = TextTable(
        title="Speculation control (inversion): accuracy delta vs flip PVN"
        f" ({SPECULATION_PREDICTOR} trace engine)",
        headers=[
            "workload",
            "estimator",
            "flips",
            "base acc",
            "inverted acc",
            "delta",
            "flip pvn",
        ],
    )
    cells: List[InversionCell] = []
    for workload in scale.workloads:
        for estimator_name in SPECULATION_ESTIMATORS:
            cell = inversion_cell(workload, estimator_name, scale.iterations)
            cells.append(cell)
            table.add_row(
                [
                    cell.workload,
                    cell.estimator,
                    cell.flips,
                    pct1(cell.base_accuracy),
                    pct1(cell.inverted_accuracy),
                    spct1(cell.accuracy_delta),
                    pct1(cell.flip_pvn),
                ]
            )
    table.add_note(
        "inversion wins only at flip PVN > 50%; the paper reports no"
        " estimator reaches it across a range of programs"
    )
    result.tables.append(table)
    result.data["cells"] = cells
    result.data["journal_rows"] = [cell.journal_row() for cell in cells]
    return result


SPECULATION_EXPERIMENTS: Dict[str, Callable[[Scale], ExperimentResult]] = {
    "speculation-gating": experiment_speculation_gating,
    "speculation-eager": experiment_speculation_eager,
    "speculation-inversion": experiment_speculation_inversion,
}

# Self-registration keeps the import order flexible: whichever of
# experiments.py / speculation.py loads first, the central SPECS
# registry ends up complete once both have executed.  Each spec
# declares the exact per-estimator (and per-threshold) cells the warm
# waves must materialise.
SPECS.register(
    ExperimentSpec(
        experiment_id="speculation-gating",
        title="Pipeline gating on low-confidence branch count",
        run=experiment_speculation_gating,
        section="speculation",
        order=150,
        paper_ref="Section 2.2 (Manne et al.)",
        produces=("trace", "pipeline", "gating"),
        deps=(
            ArtifactDep(kind="trace"),
            ArtifactDep(kind="pipeline", predictor=SPECULATION_PREDICTOR),
        )
        + tuple(
            ArtifactDep(kind="gating", estimator=estimator, threshold=threshold)
            for estimator in SPECULATION_ESTIMATORS
            for threshold in GATE_THRESHOLDS
        ),
    )
)
SPECS.register(
    ExperimentSpec(
        experiment_id="speculation-eager",
        title="Selective eager (dual-path) execution on low confidence",
        run=experiment_speculation_eager,
        section="speculation",
        order=160,
        paper_ref="Section 2.2",
        produces=("trace", "pipeline", "eager"),
        deps=(
            ArtifactDep(kind="trace"),
            ArtifactDep(kind="pipeline", predictor=SPECULATION_PREDICTOR),
        )
        + tuple(
            ArtifactDep(kind="eager", estimator=estimator)
            for estimator in SPECULATION_ESTIMATORS
        ),
    )
)
SPECS.register(
    ExperimentSpec(
        experiment_id="speculation-inversion",
        title="Prediction inversion on low confidence (negative result)",
        run=experiment_speculation_inversion,
        section="speculation",
        order=170,
        paper_ref="Section 2.2",
        produces=("trace", "inversion"),
        deps=(ArtifactDep(kind="trace"),)
        + tuple(
            ArtifactDep(kind="inversion", estimator=estimator)
            for estimator in SPECULATION_ESTIMATORS
        ),
    )
)
