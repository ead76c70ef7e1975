"""R10K-style out-of-order pipeline backend.

:class:`OutOfOrderSimulator` keeps the shared speculative *front end*
of :class:`~repro.pipeline.core.PipelineSimulator` -- fetch through the
I-cache, functional execution at decode on the journaled machine,
branch prediction + confidence tagging, wrong-path fetch until
resolution, gating and dual-path forking -- and replaces the fixed
5-stage *back end* timing with a MIPS R10000-flavoured out-of-order
execution model:

* **register rename**: a 32-entry rename map carries architectural ->
  physical mappings over a physical register file sized
  ``NUM_REGISTERS + window`` (so the free list can never run dry while
  the active list bounds in-flight work); ``r0`` is never renamed,
* **active list**: the in-flight deque itself, bounded by the
  configurable ``window`` (instructions, never grouped entries), with
  each entry's previous mapping kept for in-order release at retire,
* **issue queue**: every dispatched instruction computes its wakeup
  cycle from its source operands' physical-register ready cycles, then
  claims the first issue slot at or after wakeup with free bandwidth
  (``issue_width`` per cycle, oldest first -- dispatch order *is* age
  order),
* **in-order wide commit**: the inherited commit stage already retires
  from the head of the window when the head's ``ready_cycle`` has
  passed, up to ``commit_width`` per cycle, so completion out of order
  never commits out of order,
* **squash on mispredict**: recovery walks the active list youngest ->
  oldest undoing rename-map updates and returning freshly allocated
  physical registers (the R10K's exception-rollback walk, applied to
  branches), clears the issue-slot ledger, then defers to the front
  end's machine-snapshot restore.

Because branches now *resolve at their data-dependent completion
cycle* rather than a fixed ``resolve_stage`` after fetch, wrong-path
fetch runs as deep as the window and the issue queue allow -- exactly
the regime where the paper's perceived-distance figures (8/9) and the
speculation-control applications get interesting.  The window depth
observed at every misprediction recovery is accumulated in
``stats.extra`` (see :data:`DEPTH_HISTOGRAM_KEY`) so reports can put
the two backends' distance distributions side by side.

Both pipeline engines run this backend.  The fused loop
(:meth:`~repro.pipeline.core.PipelineSimulator._run_fast`, ``run``'s
default) inlines the three hooks below over the decoded program, taking
each instruction's registers from
:attr:`~repro.pipeline.decode.DecodedProgram.operands`; the hooks
themselves are the reference engine (``step_cycle``,
``REPRO_PIPELINE_FAST=0``).  Either way every instruction keeps its own
in-flight entry, since each has its own completion cycle.  All timing
state is plain lists/dicts, so the whole-simulator pickle snapshots of
:mod:`repro.pipeline.snapshot` -- and therefore segmented runs and
``--resume`` -- work unchanged, and a run may switch engines at any
cycle boundary.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from ..confidence.base import ConfidenceEstimator
from ..isa import Program
from ..isa.instructions import NUM_REGISTERS, Instruction
from ..predictors.base import BranchPredictor
from .config import PipelineConfig
from .core import DEPTH_HISTOGRAM_KEY, PipelineSimulator, _Inflight
from .decode import K_LOAD, K_STORE, DecodedProgram, instruction_kind, rename_operands

#: Default out-of-order active-list capacity (instructions in flight).
OOO_WINDOW = 256
#: Default issue bandwidth (instructions entering execution per cycle).
OOO_ISSUE_WIDTH = 8
#: Default retire bandwidth (instructions leaving the window per cycle).
OOO_COMMIT_WIDTH = 8


class OutOfOrderSimulator(PipelineSimulator):
    """Out-of-order (R10K-style) backend behind the shared front end.

    ``window``/``issue_width``/``commit_width`` size the active list,
    the issue bandwidth and the retire bandwidth; the base
    :class:`~repro.pipeline.config.PipelineConfig` supplies everything
    else (fetch width, caches, penalties).  ``decoded``/``fast`` select
    ``run``'s engine exactly as for the in-order core.
    """

    def __init__(
        self,
        program: Program,
        predictor: BranchPredictor,
        config: Optional[PipelineConfig] = None,
        estimators: Optional[Mapping[str, ConfidenceEstimator]] = None,
        decoded: Optional[DecodedProgram] = None,
        fast: Optional[bool] = None,
        window: int = OOO_WINDOW,
        issue_width: int = OOO_ISSUE_WIDTH,
        commit_width: int = OOO_COMMIT_WIDTH,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1 (got {window})")
        if issue_width < 1:
            raise ValueError(f"issue_width must be >= 1 (got {issue_width})")
        if commit_width < 1:
            raise ValueError(f"commit_width must be >= 1 (got {commit_width})")
        base = config or PipelineConfig()
        # The inherited window/commit checks read ``self.config``, so
        # the OoO capacities slot straight into the shared front end.
        super().__init__(
            program,
            predictor,
            config=replace(base, window=window, commit_width=commit_width),
            estimators=estimators,
            decoded=decoded,
            fast=fast,
        )
        self.issue_width = issue_width
        num_phys = NUM_REGISTERS + window
        #: Architectural -> physical register mapping (``r0`` fixed).
        self._rename_map: List[int] = list(range(NUM_REGISTERS))
        #: Cycle at which each physical register's value is available.
        self._phys_ready: List[int] = [0] * num_phys
        #: Physical registers not bound by the map or an active entry.
        self._free_regs: Deque[int] = deque(range(NUM_REGISTERS, num_phys))
        #: sequence -> (arch reg, new phys, previous phys) for every
        #: in-flight register writer (the active-list rename columns).
        self._rename_of: Dict[int, Tuple[int, int, int]] = {}
        #: cycle -> instructions issued that cycle (issue-port ledger).
        self._issue_slots: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # backend hooks (the reference engine; _run_fast inlines them)
    # ------------------------------------------------------------------

    def _dispatch(self, entry: _Inflight, inst: Instruction) -> None:
        """Rename + enqueue one fetched instruction; re-time its entry."""
        cycle = self._cycle
        kind = instruction_kind(inst)
        first, second, dest = rename_operands(
            kind, inst.opcode.value, inst.rs1, inst.rs2, inst.rd
        )
        rename_map = self._rename_map
        phys_ready = self._phys_ready
        # wakeup: earliest cycle every source operand is available
        # (dispatch itself takes the cycle after fetch)
        wakeup = cycle + 1
        for reg in (first, second):
            ready = phys_ready[rename_map[reg]]
            if ready > wakeup:
                wakeup = ready
        # claim the first issue slot with spare bandwidth; dispatch
        # order is age order, so greedy slotting is oldest-first issue
        slots = self._issue_slots
        width = self.issue_width
        issue = wakeup
        while slots.get(issue, 0) >= width:
            issue += 1
        slots[issue] = slots.get(issue, 0) + 1
        if kind == K_LOAD or kind == K_STORE:
            complete = issue + self.config.cache_hit_latency
        else:
            complete = issue + 1
        if dest:
            new_phys = self._free_regs.popleft()
            self._rename_of[entry.sequence] = (dest, new_phys, rename_map[dest])
            rename_map[dest] = new_phys
            phys_ready[new_phys] = complete
        # the front end's ready cycle (resolve depth + any congestion
        # charge) is the floor; data dependences can only delay it
        if complete > entry.ready_cycle:
            entry.ready_cycle = complete
        if len(slots) > 4 * self.config.window:
            # spent slots: every later wakeup is after this cycle
            for spent in [c for c in slots if c < cycle]:
                del slots[spent]

    def _retire_entry(self, entry: _Inflight) -> None:
        """Free the retiring writer's previous physical register."""
        info = self._rename_of.pop(entry.sequence, None)
        if info is not None:
            self._free_regs.append(info[2])

    def _recover_from(self, entry: _Inflight) -> None:
        """Roll the rename state back, then run front-end recovery.

        The active list is walked youngest -> oldest (the R10K
        exception-rollback walk): each squashed writer's map entry is
        restored to its previous mapping and its freshly allocated
        physical register is returned to the free list, leaving the
        rename state exactly as the mispredicted branch saw it.
        """
        histogram = self.stats.extra.setdefault(DEPTH_HISTOGRAM_KEY, {})
        depth = self._inflight_count
        histogram[depth] = histogram.get(depth, 0) + 1
        rename_map = self._rename_map
        rename_of = self._rename_of
        for younger in reversed(self._inflight):
            info = rename_of.pop(younger.sequence, None)
            if info is None:
                continue
            arch, new_phys, old_phys = info
            rename_map[arch] = old_phys
            self._free_regs.appendleft(new_phys)
        # The whole issue-slot ledger can go, not just the squashed
        # claims: recovery stalls fetch until at least cycle + 1 +
        # mispredict_penalty, and every later dispatch wakes up at least
        # one cycle after its own dispatch cycle, so no slot at or below
        # this cycle is read again -- and every claim above it belongs
        # to a squashed instruction (older ones all committed, so they
        # issued before this cycle).
        self._issue_slots.clear()
        super()._recover_from(entry)
