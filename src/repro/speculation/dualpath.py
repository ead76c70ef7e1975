"""Dual-path (eager) execution pipeline (paper §2.2, refs [16, 9, 15, 6, 8]).

A selective dual-path front end on top of the speculative pipeline:
when a branch is tagged **low confidence** (and no fork is already
live), the machine *forks* -- both targets are fetched until the branch
resolves.  Concretely in this model:

* while a fork is live the fetch bandwidth is halved (the alternate
  path consumes the other half -- its instructions are pure overhead
  and are accounted as ``eager_wasted_slots``);
* if the forked branch turns out **mispredicted**, the correct path was
  already being fetched, so there is no squash and no refill: the
  misprediction penalty is replaced by a small ``fork_switch_penalty``
  (default 1 cycle to retire the losing path's resources);
* if it was predicted correctly, the fork bought nothing and the
  dilution was the price of insurance.

One fork may be live at a time (selective eager execution), and forks
are only taken on the architecturally known-good path -- matching the
simple dual-path proposals the paper cites.

Whether this wins is exactly the paper's metric story: every *covered*
misprediction (SPEC) converts a full pipeline flush into one cycle;
every false alarm (1 - PVN) pays the dilution for nothing.  A good
estimator turns eager execution from a loss into a gain;
:func:`compare_eager_execution` measures both ends against the
single-path baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from ..confidence.base import ConfidenceEstimator
from ..isa import Program
from ..pipeline.backends import create_simulator, normalize_backend
from ..pipeline.config import PipelineConfig
from ..pipeline.core import PipelineResult, PipelineSimulator
from ..pipeline.decode import DecodedProgram
from ..pipeline.ooo import OutOfOrderSimulator
from ..predictors.base import BranchPredictor


class EagerPipelineSimulator(PipelineSimulator):
    """Pipeline with selective dual-path execution on LC branches.

    Forking is policy data both pipeline engines apply
    (``PipelineSimulator._fork``); this class only validates it and
    holds the fork counters.
    """

    def __init__(
        self,
        program: Program,
        predictor: BranchPredictor,
        config: Optional[PipelineConfig] = None,
        estimators: Optional[Mapping[str, ConfidenceEstimator]] = None,
        fork_on: Optional[str] = None,
        fork_switch_penalty: int = 1,
        decoded: Optional[DecodedProgram] = None,
        fast: Optional[bool] = None,
    ):
        super().__init__(
            program,
            predictor,
            config=config,
            estimators=estimators,
            decoded=decoded,
            fast=fast,
        )
        available = ", ".join(sorted(self.estimators)) or "<none attached>"
        if fork_on is None or fork_on not in self.estimators:
            raise ValueError(
                f"fork_on must name one of the attached estimators "
                f"({available}), got {fork_on!r}"
            )
        if fork_switch_penalty < 0:
            raise ValueError("fork_switch_penalty must be non-negative")
        self._fork = (fork_on, fork_switch_penalty)
        self.eager_forks = 0
        self.eager_covered = 0  # forks that hid a misprediction
        self.eager_wasted_slots = 0  # fetch slots fed to losing paths


class EagerOutOfOrderSimulator(EagerPipelineSimulator, OutOfOrderSimulator):
    """Selective dual-path front end over the out-of-order backend (the
    fork is data, the OoO backend hooks are code, so the two compose)."""


#: Eager simulator class per pipeline backend name.
EAGER_SIMULATORS = {
    "inorder": EagerPipelineSimulator,
    "ooo": EagerOutOfOrderSimulator,
}


@dataclass(frozen=True)
class EagerComparison:
    """Single-path baseline vs dual-path run of the same workload."""

    baseline: PipelineResult
    eager: PipelineResult
    forks: int
    covered_mispredictions: int
    wasted_slots: int

    @property
    def speedup(self) -> float:
        """Cycle-count improvement of eager execution (positive = wins)."""
        if not self.eager.stats.cycles:
            return 0.0
        return self.baseline.stats.cycles / self.eager.stats.cycles - 1.0

    @property
    def fork_precision(self) -> float:
        """Fraction of forks that covered a misprediction (the PVN)."""
        return self.covered_mispredictions / self.forks if self.forks else 0.0

    @property
    def coverage(self) -> float:
        """Covered fraction of the eager run's committed mispredictions
        (~SPEC); covered forks count among those mispredictions."""
        total = self.eager.stats.committed_mispredictions
        return self.covered_mispredictions / total if total else 0.0


def make_eager_simulator(
    program: Program,
    predictor_factory: Callable[[], BranchPredictor],
    estimator_factory: Callable[[BranchPredictor], ConfidenceEstimator],
    config: Optional[PipelineConfig] = None,
    fork_switch_penalty: int = 1,
    decoded: Optional[DecodedProgram] = None,
    backend: Optional[str] = None,
) -> EagerPipelineSimulator:
    """A dual-path simulator for ``backend`` with a fresh predictor and
    the fork estimator attached as ``"fork"``.

    The one construction path of every eager run:
    :func:`compare_eager_execution` and the harness's
    ``speculation-eager`` cells both build here.
    """
    predictor = predictor_factory()
    return EAGER_SIMULATORS[normalize_backend(backend)](
        program,
        predictor,
        config=config,
        estimators={"fork": estimator_factory(predictor)},
        fork_on="fork",
        fork_switch_penalty=fork_switch_penalty,
        decoded=decoded,
    )


def compare_eager_execution(
    program: Program,
    predictor_factory: Callable[[], BranchPredictor],
    estimator_factory: Callable[[BranchPredictor], ConfidenceEstimator],
    config: Optional[PipelineConfig] = None,
    max_instructions: Optional[int] = None,
    fork_switch_penalty: int = 1,
    decoded: Optional[DecodedProgram] = None,
    backend: Optional[str] = None,
) -> EagerComparison:
    """Run the same workload single-path and dual-path and compare.

    The single-path baseline runs bare (no estimator attached; nothing
    reads its assessments).  ``decoded`` optionally shares one
    pre-decoded program between runs.  ``backend`` selects the pipeline
    backend for both runs.
    """
    baseline = create_simulator(
        program,
        predictor_factory(),
        backend=backend,
        config=config,
        decoded=decoded,
    ).run(max_instructions=max_instructions)
    eager_simulator = make_eager_simulator(
        program,
        predictor_factory,
        estimator_factory,
        config=config,
        fork_switch_penalty=fork_switch_penalty,
        decoded=decoded,
        backend=backend,
    )
    eager = eager_simulator.run(max_instructions=max_instructions)
    return EagerComparison(
        baseline=baseline,
        eager=eager,
        forks=eager_simulator.eager_forks,
        covered_mispredictions=eager_simulator.eager_covered,
        wasted_slots=eager_simulator.eager_wasted_slots,
    )
