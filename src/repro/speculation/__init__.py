"""Speculation-control applications built on confidence estimation."""

from ..pipeline.core import count_low_confidence_inflight
from .dualpath import (
    EagerComparison,
    EagerOutOfOrderSimulator,
    EagerPipelineSimulator,
    compare_eager_execution,
    make_eager_simulator,
)
from .eager import EagerOutcome, evaluate_eager_execution
from .gating import (
    GatedOutOfOrderSimulator,
    GatedPipelineSimulator,
    GatingComparison,
    compare_gating,
    make_gated_simulator,
)
from .inversion import InversionResult, InvertingPredictor, evaluate_inversion
from .smt import POLICIES, SMTResult, SMTSimulator, compare_policies

__all__ = [
    "EagerComparison",
    "EagerOutOfOrderSimulator",
    "EagerPipelineSimulator",
    "compare_eager_execution",
    "make_eager_simulator",
    "EagerOutcome",
    "evaluate_eager_execution",
    "GatedOutOfOrderSimulator",
    "GatedPipelineSimulator",
    "GatingComparison",
    "compare_gating",
    "count_low_confidence_inflight",
    "make_gated_simulator",
    "InversionResult",
    "InvertingPredictor",
    "evaluate_inversion",
    "POLICIES",
    "SMTResult",
    "SMTSimulator",
    "compare_policies",
]
