"""SMT fetch-policy control with confidence estimation (paper §2).

The paper's motivating SMT scenario: when the current thread's next
instructions sit behind a low-confidence branch, the fetch slot is
probably being wasted on work that will not commit -- give it to
another thread instead.

:class:`SMTSimulator` time-multiplexes one fetch port across several
independent :class:`~repro.pipeline.core.PipelineSimulator` back ends
(a deliberately simple SMT model: private windows and predictors,
shared fetch bandwidth -- the resource the fetch policy arbitrates).
Policies:

* ``round_robin`` -- rotate the port among ready threads (baseline).
* ``confidence`` -- among ready threads, fetch from the one with the
  fewest unresolved low-confidence branches in flight (ties broken
  round-robin).  With a good estimator this steers fetch slots toward
  work that will commit and raises aggregate IPC; the win grows with
  the branch-resolution depth, since that is how long a wrong path can
  monopolise the port.
* ``adaptive`` -- the §5 "adaptive control of multithreaded processors"
  direction: combine the instantaneous confidence signal with a
  short-horizon decayed average of each thread's *observed* squash
  rate, so threads whose estimator under-reports their wrong-path
  behaviour still get deprioritised during a misprediction burst (a
  long horizon would persistently starve hard threads and hurt the
  makespan instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from ..confidence.base import ConfidenceEstimator
from ..isa import Program
from ..pipeline.config import PipelineConfig
from ..pipeline.core import (
    PipelineResult,
    PipelineSimulator,
    count_low_confidence_inflight,
)
from ..predictors.base import BranchPredictor

POLICIES = ("round_robin", "confidence", "adaptive")

#: Estimator slot name used for the fetch policy on every thread.
ESTIMATOR_SLOT = "fetch-policy"


@dataclass
class SMTResult:
    """Aggregate and per-thread outcome of one SMT run."""

    policy: str
    cycles: int
    thread_results: List[PipelineResult]

    @property
    def committed_instructions(self) -> int:
        return sum(
            result.stats.committed_instructions for result in self.thread_results
        )

    @property
    def squashed_instructions(self) -> int:
        return sum(
            result.stats.squashed_instructions for result in self.thread_results
        )

    @property
    def aggregate_ipc(self) -> float:
        return self.committed_instructions / self.cycles if self.cycles else 0.0

    @property
    def wasted_fetch_fraction(self) -> float:
        fetched = sum(
            result.stats.fetched_instructions for result in self.thread_results
        )
        return self.squashed_instructions / fetched if fetched else 0.0


class SMTSimulator:
    """One shared fetch port over several pipeline back ends."""

    def __init__(
        self,
        programs: Sequence[Program],
        predictor_factory: Callable[[], BranchPredictor],
        estimator_factory: Callable[[BranchPredictor], ConfidenceEstimator],
        policy: str = "round_robin",
        config: PipelineConfig = None,
    ):
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if not programs:
            raise ValueError("need at least one thread program")
        self.policy = policy
        self.threads: List[PipelineSimulator] = []
        for program in programs:
            predictor = predictor_factory()
            self.threads.append(
                PipelineSimulator(
                    program,
                    predictor,
                    config=config,
                    estimators={ESTIMATOR_SLOT: estimator_factory(predictor)},
                    # threads are only stepped, so decoding is wasted
                    fast=False,
                )
            )
        self._rotor = 0
        #: Per-thread EWMA of squashed instructions (adaptive policy).
        self._squash_ewma = [0.0] * len(self.threads)
        self._last_squashed = [0] * len(self.threads)

    #: EWMA decay per cycle for the adaptive policy.  Deliberately a
    #: short horizon (~a few branch-resolution windows): the signal
    #: should mean "currently in a misprediction burst", not
    #: "historically slow thread" -- a long horizon persistently
    #: starves hard threads and *hurts* the makespan, since every
    #: thread must still finish.
    EWMA_DECAY = 0.7
    #: Weight of the squash history against one in-flight LC branch.
    EWMA_WEIGHT = 0.1

    def _update_squash_ewma(self) -> None:
        for index, thread in enumerate(self.threads):
            squashed = thread.stats.squashed_instructions
            delta = squashed - self._last_squashed[index]
            self._last_squashed[index] = squashed
            self._squash_ewma[index] = (
                self.EWMA_DECAY * self._squash_ewma[index] + delta
            )

    def _choose_fetch_thread(self) -> int:
        """Index of the thread that gets this cycle's fetch slot (-1: none)."""
        ready = [
            index for index, thread in enumerate(self.threads) if thread.wants_fetch()
        ]
        if not ready:
            return -1
        if self.policy == "round_robin":
            for offset in range(len(self.threads)):
                candidate = (self._rotor + offset) % len(self.threads)
                if candidate in ready:
                    self._rotor = (candidate + 1) % len(self.threads)
                    return candidate
            return -1
        # confidence/adaptive: fewest unresolved low-confidence
        # branches (adaptive adds the squash-history term), ties broken
        # round-robin
        def score(index: int) -> float:
            lc = count_low_confidence_inflight(self.threads[index], ESTIMATOR_SLOT)
            if self.policy == "adaptive":
                return lc + self.EWMA_WEIGHT * self._squash_ewma[index]
            return float(lc)

        scored = [(score(index), index) for index in ready]
        best_score = min(score for score, __ in scored)
        tied = [index for score, index in scored if score == best_score]
        for offset in range(len(self.threads)):
            candidate = (self._rotor + offset) % len(self.threads)
            if candidate in tied:
                self._rotor = (candidate + 1) % len(self.threads)
                return candidate
        return tied[0]

    def run(self, max_cycles: int = 5_000_000) -> SMTResult:
        """Simulate until every thread finishes (or the cycle limit)."""
        cycles = 0
        while cycles < max_cycles and not all(
            thread.done for thread in self.threads
        ):
            if self.policy == "adaptive":
                self._update_squash_ewma()
            chosen = self._choose_fetch_thread()
            for index, thread in enumerate(self.threads):
                if thread.done:
                    continue
                thread.step_cycle(fetch_allowed=index == chosen)
            cycles += 1
        return SMTResult(
            policy=self.policy,
            cycles=cycles,
            thread_results=[thread.result() for thread in self.threads],
        )


def compare_policies(
    programs: Sequence[Program],
    predictor_factory: Callable[[], BranchPredictor],
    estimator_factory: Callable[[BranchPredictor], ConfidenceEstimator],
    config: PipelineConfig = None,
    max_cycles: int = 5_000_000,
) -> dict:
    """Run both fetch policies on the same thread mix."""
    results = {}
    for policy in POLICIES:
        simulator = SMTSimulator(
            programs,
            predictor_factory,
            estimator_factory,
            policy=policy,
            config=config,
        )
        results[policy] = simulator.run(max_cycles=max_cycles)
    return results
