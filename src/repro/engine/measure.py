"""Trace-driven measurement: predictor + estimators -> quadrant tables.

Replays a committed branch stream through one branch predictor while
any number of confidence estimators assess each prediction, exactly the
measurement the paper describes in §2: *"we can measure C_HC, I_HC,
C_LC and I_LC using a branch predictor for each branch and concurrently
estimate the confidence"*.

Running all estimators of an experiment in one pass keeps every
estimator's view identical (same predictor state stream) and amortises
the predictor simulation, which dominates the cost.

A resumable :class:`Bank` is that pass: the battery feeds it whole
traces (:func:`measure_bank`), a serving session one batch at a time.
``feed`` has two bit-identical engines: the array kernels of
:mod:`repro.engine.vector` for columnar traces over a predictor with a
vector scan, else the scalar loop of :func:`measure` -- the only
per-branch loop, and the reference the kernels are tested against.
Both return per-branch flag columns, and every quadrant table is
counted from those columns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, Sequence, Tuple

from ..confidence.base import ConfidenceEstimator
from ..metrics.quadrant import QuadrantCounts
from ..obs.registry import REGISTRY
from ..predictors.base import BranchPredictor
from .columnar import ColumnarTrace
from .vector import (
    UnsupportedVectorization,
    estimator_flags,
    fallback_flags,
    predict_columns,
    supports_predictor,
    vector_enabled,
)

try:  # pragma: no cover - numpy presence is environment-dependent
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

#: Registry metric names every *measurement replay* reports into.
#: ``sim.branches`` counts branches actually re-measured this process
#: (cache hits replay nothing and so count nothing).
BRANCHES_METRIC = "sim.branches"
REPLAY_TIMER = "sim.replay"

#: Workload trace *generation* is not replay: it is accounted
#: separately so branches/s reflects measurement throughput only.
TRACE_BRANCHES_METRIC = "sim.trace_branches"
TRACE_TIMER = "sim.tracegen"

#: How many branch measurements each engine served: branches processed
#: by vector kernels vs. branches that fell back to the scalar loop
#: inside an otherwise-vectorized bank.
VECTOR_BRANCHES_METRIC = "sim.vector_branches"
SCALAR_FALLBACK_METRIC = "sim.scalar_fallback_branches"

#: Cycle-level pipeline simulation is accounted apart from trace
#: replay: ``sim.pipeline_branches`` counts branches *fetched* by the
#: pipeline (wrong path included -- that is the work the simulator
#: does), and ``sim.pipeline`` accumulates simulator wall time.  The
#: ``repro bench`` pipeline section derives branches/s from these.
PIPELINE_BRANCHES_METRIC = "sim.pipeline_branches"
PIPELINE_TIMER = "sim.pipeline"

#: Estimator-bank session metrics: how many one-pass bank measurements
#: ran, and how many single-purpose passes they subsumed beyond the one
#: actually executed (the battery's simulation savings).
BANK_PASSES_METRIC = "session.bank_passes"
PASSES_SAVED_METRIC = "session.passes_saved"


def record_simulation(branches: int, seconds: float) -> None:
    """Count one measurement replay's work into the process registry."""
    REGISTRY.count(BRANCHES_METRIC, branches)
    REGISTRY.observe_seconds(REPLAY_TIMER, seconds)


def record_trace_generation(branches: int, seconds: float) -> None:
    """Count one workload trace *generation* into the process registry.

    Kept separate from :func:`record_simulation` so replay throughput
    (``sim.branches`` / ``sim.replay``) is never inflated by the
    one-time cost of producing the trace being replayed.
    """
    REGISTRY.count(TRACE_BRANCHES_METRIC, branches)
    REGISTRY.observe_seconds(TRACE_TIMER, seconds)


def record_pipeline_simulation(branches: int, seconds: float) -> None:
    """Count one cycle-level pipeline run into the process registry."""
    REGISTRY.count(PIPELINE_BRANCHES_METRIC, branches)
    REGISTRY.observe_seconds(PIPELINE_TIMER, seconds)


#: Observer signature: (pc, predicted_taken, actual_taken,
#: {estimator name: high_confidence}).  Called once per branch, after
#: estimation but before any resolve -- prediction-time information only.
Observer = Callable[[int, bool, bool, Dict[str, bool]], None]


@dataclass
class MeasurementResult:
    """Quadrant tables and predictor statistics for one measured run."""

    predictor_name: str
    branches: int
    mispredictions: int
    quadrants: Dict[str, QuadrantCounts] = field(default_factory=dict)
    #: Wall time the measurement loop took, for throughput reporting.
    elapsed_s: float = 0.0

    @property
    def accuracy(self) -> float:
        return (
            (self.branches - self.mispredictions) / self.branches
            if self.branches
            else 0.0
        )

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.branches if self.branches else 0.0

    @property
    def branches_per_second(self) -> float:
        return self.branches / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def quadrant(self, estimator_name: str) -> QuadrantCounts:
        return self.quadrants[estimator_name]


def measure(
    trace: Iterable[Tuple[int, bool]],
    predictor: BranchPredictor,
    estimators: Mapping[str, ConfidenceEstimator],
    observers: Sequence[Observer] = (),
) -> MeasurementResult:
    """Measure every estimator in ``estimators`` over ``trace``.

    The predictor and estimators are consumed (their state evolves);
    pass fresh instances for independent measurements.
    """
    bank = Bank(predictor, estimators)
    started = time.perf_counter()
    bank._count(*_replay(trace, predictor, estimators, observers))
    elapsed = time.perf_counter() - started
    record_simulation(branches=bank.branches, seconds=elapsed)
    return bank.result(elapsed)


def _replay(trace, predictor, estimators, observers=()):
    """The per-branch loop: predict, estimate, resolve, one branch at
    a time -- the only one in the repo, and the kernels' reference.

    Returns ``(correct, high)``: per-branch bool columns, ``high`` with
    one row per estimator in ``estimators`` order.
    """
    names = list(estimators)
    items = list(estimators.values())
    predict = predictor.predict
    predictor_resolve = predictor.resolve
    correct = bytearray()
    assessed = bytearray()  # one byte per flag, branch-major

    for pc, taken in trace:
        prediction = predict(pc)
        assessments = [estimator.estimate(pc, prediction) for estimator in items]
        flags = [assessment.high_confidence for assessment in assessments]
        if observers:
            named = dict(zip(names, flags))
            for observer in observers:
                observer(pc, prediction.taken, taken, named)
        correct.append(prediction.taken == taken)
        assessed.extend(flags)
        predictor_resolve(pc, taken, prediction)
        for estimator, assessment in zip(items, assessments):
            estimator.resolve(pc, prediction, taken, assessment)

    high = np.frombuffer(assessed, dtype=np.uint8).astype(bool)
    return (
        np.frombuffer(correct, dtype=bool),
        high.reshape(len(correct), len(items)).T,
    )


def measure_accuracy(
    trace: Iterable[Tuple[int, bool]], predictor: BranchPredictor
) -> MeasurementResult:
    """Predictor-only measurement (no estimators attached)."""
    return measure(trace, predictor, {})


def quadrant_table(
    branches: int, right: int, confident: int, confident_right: int
) -> QuadrantCounts:
    """The quadrant table of ``branches`` predictions: ``right`` correct,
    ``confident`` high-confidence, ``confident_right`` both.  Equal,
    floats included, to recording the branches one at a time."""
    return QuadrantCounts(
        c_hc=float(confident_right),
        i_hc=float(confident - confident_right),
        c_lc=float(right - confident_right),
        i_lc=float(branches - right - confident + confident_right),
    )


def confident_counts(correct, high):
    """Per estimator (row of ``high``): its high-confidence branches,
    and those also ``correct`` -- a ``(2, estimators)`` int array."""
    return np.array([high.sum(axis=1), (high & correct).sum(axis=1)])


class Bank:
    """One predictor and its estimators, measured concurrently (§2).

    Resumable: each :meth:`feed` continues from the predictor and
    estimator state the previous one left and adds to the running
    ``branches``, ``mispredictions`` and ``quadrants``, so a stream fed
    in any split lands on the counts of one whole feed.
    """

    def __init__(
        self,
        predictor: BranchPredictor,
        estimators: Mapping[str, ConfidenceEstimator],
    ):
        self.predictor = predictor
        self.estimators = dict(estimators)
        self.branches = 0
        self.mispredictions = 0
        #: Per estimator: high-confidence branches, and those correct.
        self._confident = np.zeros((2, len(self.estimators)), np.int64)

    @property
    def quadrants(self) -> Dict[str, QuadrantCounts]:
        """Each estimator's quadrant table over everything fed so far."""
        right = self.branches - self.mispredictions
        return {
            name: quadrant_table(self.branches, right, confident, confident_right)
            for name, confident, confident_right in zip(
                self.estimators, *self._confident.tolist()
            )
        }

    def feed(self, trace: Iterable[Tuple[int, bool]]):
        """Measure ``trace``; returns per-branch bool columns
        ``(correct, high)``, ``high`` one row per estimator in
        ``estimators`` order.

        A columnar trace over a predictor with a vector scan takes the
        array kernels (estimators without one are driven per branch by
        :func:`fallback_flags`); anything else takes the scalar loop of
        :func:`measure`.  Either way the state consumed is identical.
        """
        started = time.perf_counter()
        if (
            vector_enabled()
            and isinstance(trace, ColumnarTrace)
            and supports_predictor(self.predictor)
        ):
            columns = predict_columns(trace, self.predictor)
            correct = columns.correct
            high = np.empty((len(self.estimators), columns.branches), dtype=bool)
            fallback = 0
            for row, estimator in enumerate(self.estimators.values()):
                try:
                    high[row] = estimator_flags(columns, estimator)
                except UnsupportedVectorization:
                    high[row] = fallback_flags(columns, estimator)
                    fallback += columns.branches
            REGISTRY.count(
                VECTOR_BRANCHES_METRIC,
                columns.branches * (1 + len(high)) - fallback,
            )
            if fallback:
                REGISTRY.count(SCALAR_FALLBACK_METRIC, fallback)
        else:
            correct, high = _replay(trace, self.predictor, self.estimators)
        record_simulation(int(correct.shape[0]), time.perf_counter() - started)
        self._count(correct, high)
        return correct, high

    def _count(self, correct, high) -> None:
        branches = int(correct.shape[0])
        self.branches += branches
        self.mispredictions += branches - int(np.count_nonzero(correct))
        self._confident += confident_counts(correct, high)

    def result(self, elapsed_s: float) -> MeasurementResult:
        """Everything fed so far as one :class:`MeasurementResult`."""
        return MeasurementResult(
            predictor_name=self.predictor.name,
            branches=self.branches,
            mispredictions=self.mispredictions,
            quadrants=self.quadrants,
            elapsed_s=elapsed_s,
        )


def measure_bank(
    trace: Iterable[Tuple[int, bool]],
    predictor: BranchPredictor,
    estimators: Mapping[str, ConfidenceEstimator],
    subsumes: int = 1,
) -> MeasurementResult:
    """One :meth:`Bank.feed` of the whole trace, with bank accounting.

    Estimators never perturb the predictor or each other, so one bank
    replaces ``subsumes`` single-purpose :func:`measure` passes (each
    former consumer group of the same (workload, predictor) trace);
    ``subsumes - 1`` is credited to the ``session.passes_saved``
    counter, which the journal and the report's Battery-performance
    section surface.
    """
    bank = Bank(predictor, estimators)
    started = time.perf_counter()
    bank.feed(trace)
    elapsed = time.perf_counter() - started
    REGISTRY.count(BANK_PASSES_METRIC)
    if subsumes > 1:
        REGISTRY.count(PASSES_SAVED_METRIC, subsumes - 1)
    return bank.result(elapsed)
