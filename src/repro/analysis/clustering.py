"""Clustering analyses of estimator behaviour (paper §4.1-4.2).

Two measurements back the paper's boosting argument:

* :func:`misestimation_distance` -- are confidence *mis-estimations*
  clustered the way branch mispredictions are?  The paper finds only
  slight clustering (45% mis-estimation rate right after a
  mis-estimation, decaying to ~33% past distance 8), which is what
  licenses treating consecutive estimates as near-Bernoulli trials.
* :func:`measure_boosting` -- the empirical PVN of "k consecutive
  low-confidence estimates" events versus the Bernoulli prediction
  ``1 - (1 - PVN)^k``.

Both are computed from one :class:`~repro.engine.measure.Bank` feed's
flag columns (kernels or scalar loop alike).  The observer classes
below are their streaming forms for ``measure(..., observers=)``: each
tracks *one* estimator by name and skips branches measured without
it, so they compose with multi-estimator measurements.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..confidence.base import ConfidenceEstimator
from ..confidence.boosting import BoostingAccumulator, BoostingResult
from ..engine import Bank, boosting_counts, misestimation_pairs
from ..predictors.base import BranchPredictor
from .distance import DistanceCurve, _curve_from_pairs

#: Estimator slot the single-estimator convenience wrappers use.
DEFAULT_SLOT = "est"


class MisestimationDistanceObserver:
    """Collect (distance, misestimated) pairs for one named estimator.

    A branch is *mis-estimated* when the confidence estimate disagrees
    with the eventual outcome (HC but mispredicted, or LC but correct).
    Branches whose flag mapping does not carry ``estimator_name`` (the
    estimator was not attached to that measurement) are ignored.
    """

    def __init__(self, estimator_name: str = DEFAULT_SLOT):
        self.estimator_name = estimator_name
        self.pairs: List[Tuple[int, bool]] = []
        self._distance = 0

    def __call__(
        self, pc: int, predicted: bool, actual: bool, flags: Dict[str, bool]
    ) -> None:
        high = flags.get(self.estimator_name)
        if high is None:
            return
        correct_prediction = predicted == actual
        misestimated = high != correct_prediction
        self.pairs.append((self._distance, misestimated))
        self._distance = 0 if misestimated else self._distance + 1


class BoostingObserver:
    """Feed one named estimator's stream into a :class:`BoostingAccumulator`.

    Like :class:`MisestimationDistanceObserver`, branches measured
    without the named estimator attached are skipped.
    """

    def __init__(
        self,
        accumulator: BoostingAccumulator,
        estimator_name: str = DEFAULT_SLOT,
    ):
        self.accumulator = accumulator
        self.estimator_name = estimator_name

    def __call__(
        self, pc: int, predicted: bool, actual: bool, flags: Dict[str, bool]
    ) -> None:
        high = flags.get(self.estimator_name)
        if high is None:
            return
        self.accumulator.observe(
            low_confidence=not high, mispredicted=predicted != actual
        )


def misestimation_distance(
    trace: Iterable[Tuple[int, bool]],
    predictor: BranchPredictor,
    estimator: ConfidenceEstimator,
    max_distance: int = 12,
) -> DistanceCurve:
    """Mis-estimation rate vs. distance since the last mis-estimation.

    The flatter this curve, the better the Bernoulli approximation
    behind boosting.
    """
    correct, high = Bank(predictor, {DEFAULT_SLOT: estimator}).feed(trace)
    pairs = misestimation_pairs(high[0], correct)
    return _curve_from_pairs(pairs, "mis-estimation", max_distance)


def measure_boosting(
    trace: Iterable[Tuple[int, bool]],
    predictor: BranchPredictor,
    estimator: ConfidenceEstimator,
    ks: List[int] = (1, 2, 3),
) -> List[BoostingResult]:
    """Empirical boosted PVN of ``estimator`` for each window size."""
    correct, high = Bank(predictor, {DEFAULT_SLOT: estimator}).feed(trace)
    rows, lc_branches, lc_mispredictions = boosting_counts(high[0], correct, ks)
    base_pvn = lc_mispredictions / lc_branches if lc_branches else 0.0
    return [
        BoostingResult(
            k=k,
            base_pvn=base_pvn,
            events=events,
            events_with_misprediction=hits,
        )
        for k, events, hits in rows
    ]
