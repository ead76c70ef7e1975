"""Prediction inversion -- the paper's §2.2 negative result.

Jacobsen et al. suggested a confidence estimator could *improve* a
branch predictor: if PVN > 50%, inverting the prediction of every
low-confidence branch wins on net (and symmetrically for PVP < 50% on
high-confidence branches).  The paper reports: *"We have examined many
confidence estimators in many configurations, but have not found a
situation where these conditions hold across a range of programs."*

This module implements the mechanism so that the negative result can
be measured rather than asserted:

* :class:`InvertingPredictor` wraps a predictor + estimator and flips
  the exported direction of low-confidence predictions.  The wrapped
  predictor trains on actual outcomes exactly as before (the inversion
  is an override stage after prediction, as hardware would do it);
* :func:`evaluate_inversion` measures base vs inverted accuracy and
  the flip ledger, making the PVN-50% break-even explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from ..confidence.base import ConfidenceEstimator
from ..engine.measure import Bank
from ..predictors.base import BranchPredictor, Prediction


class InvertingPredictor(BranchPredictor):
    """Flip low-confidence predictions of an underlying predictor.

    ``predict`` returns a :class:`Prediction` whose ``taken`` field is
    the possibly-inverted direction; the original direction is what the
    underlying predictor pushed into its speculative history and what
    its tables train toward, so the substrate's behaviour is unchanged
    -- only the direction handed to the front end differs.
    """

    def __init__(self, base: BranchPredictor, estimator: ConfidenceEstimator):
        self.base = base
        self.estimator = estimator
        self.counter_bits = base.counter_bits
        self.name = f"invert({base.name})"
        self.flips = 0

    def predict(self, pc: int) -> Prediction:
        inner = self.base.predict(pc)
        assessment = self.estimator.estimate(pc, inner)
        taken = inner.taken
        if not assessment.high_confidence:
            taken = not taken
            self.flips += 1
        prediction = Prediction(
            taken=taken,
            index=inner.index,
            history=inner.history,
            counters=inner.counters,
            snapshot=inner.snapshot,
        )
        # keep what resolve needs: the inner prediction and assessment
        prediction.app_state = (inner, assessment)
        return prediction

    def resolve(self, pc: int, taken: bool, prediction: Prediction) -> None:
        inner, assessment = prediction.app_state
        self.base.resolve(pc, taken, inner)
        self.estimator.resolve(pc, inner, taken, assessment)

    def reset(self) -> None:
        self.base.reset()
        self.estimator.reset()
        self.flips = 0


@dataclass(frozen=True)
class InversionResult:
    """Ledger of what inverting low-confidence predictions did."""

    branches: int
    base_correct: int
    flips: int
    #: Flips that fixed a would-be misprediction (LC and wrong).
    flips_helped: int
    #: Flips that broke a would-be correct prediction (LC but right).
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
        """Positive iff inversion improved the predictor."""
        return self.inverted_accuracy - self.base_accuracy

    @property
    def flip_pvn(self) -> float:
        """PVN of the flipped population -- the break-even is 50%."""
        return self.flips_helped / self.flips if self.flips else 0.0


def evaluate_inversion(
    trace: Iterable[Tuple[int, bool]],
    predictor: BranchPredictor,
    estimator: ConfidenceEstimator,
) -> InversionResult:
    """Measure what LC-inversion would do over ``trace``.

    One single-estimator bank pass (no behavioural change to the
    substrate): each low-confidence branch is a flip that either fixed
    a misprediction (``i_lc``) or broke a correct one (``c_lc``).
    """
    bank = Bank(predictor, {"inversion": estimator})
    bank.feed(trace)
    counts = bank.quadrants["inversion"]
    return InversionResult(
        branches=bank.branches,
        base_correct=bank.branches - bank.mispredictions,
        flips=int(counts.low_confidence),
        flips_helped=int(counts.i_lc),
        flips_hurt=int(counts.c_lc),
    )
