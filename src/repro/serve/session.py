"""Incremental estimator-bank sessions and their snapshots.

An :class:`EstimatorSession` is the serving-side unit of work: one
client's branch stream driven through one predictor and a bank of
confidence estimators, *incrementally*.  It holds the same
:class:`~repro.engine.measure.Bank` the battery's ``measure_bank``
feeds whole traces, and feeds it one batch at a time as a columnar
trace (the vector kernels, or the scalar loop for predictors without a
vector scan), each resuming where the last left off.  Windows are cut
from the flag columns ``feed`` returns, carrying a partial window's
counts to the next batch.
So any batch split of a stream yields the same ``window`` messages and
final :class:`~repro.metrics.quadrant.QuadrantCounts` *equal* (not
approximately equal) to one batch ``measure_bank`` call: the server's
correctness contract, and what the chaos CI leg asserts.

Sessions are snapshotted with the same capture/restore idiom as
:mod:`repro.pipeline.snapshot`: the whole session is pickled in one
piece so shared references (estimator tables aliased by in-flight
state) survive, the snapshot is schema-stamped, and restores refuse
mismatched schemas instead of resuming from garbage.  A recycled
worker restores the snapshot and re-applies only the batches past the
snapshot's ``applied_seq`` -- never the whole stream.
"""

from __future__ import annotations

import pickle
from array import array
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..confidence.pattern import NoHistoryRegister
from ..engine.columnar import lower_trace
from ..engine.measure import confident_counts, quadrant_table
from ..workloads.trace import BranchTrace

#: Bump when the snapshot payload layout changes; restores refuse
#: mismatched schemas instead of resuming from garbage.
SESSION_SCHEMA = "serve-session/2"

#: Default branches per metrics window.
DEFAULT_WINDOW = 256

#: Default low-confidence fraction at which a window's gating decision
#: flips to "gate" (stop speculating past these branches).
DEFAULT_GATE_THRESHOLD = 0.25

#: The four reported quadrant metrics, in display order.
WINDOW_METRICS = ("sens", "pvp", "spec", "pvn")


class SessionError(ValueError):
    """A session request that cannot be served (bad config, bad seq)."""


class SessionSnapshotError(RuntimeError):
    """A session snapshot that could not be restored."""


def session_families() -> Sequence[str]:
    """The estimator families a ``hello`` may request (bank families)."""
    from ..harness.experiments import BANK_FAMILIES

    return BANK_FAMILIES


class EstimatorSession:
    """One live (workload, predictor, estimator-bank) branch stream."""

    def __init__(
        self,
        session_id: str,
        workload: str,
        predictor_name: str,
        families: Sequence[str],
        iterations: Optional[int] = None,
        window: int = DEFAULT_WINDOW,
        gate_threshold: float = DEFAULT_GATE_THRESHOLD,
    ):
        from ..harness.experiments import BANK_FAMILIES, family_bank
        from ..predictors import PREDICTOR_FACTORIES
        from ..workloads import SUITE

        if workload not in SUITE:
            raise SessionError(f"unknown workload {workload!r}")
        if predictor_name not in PREDICTOR_FACTORIES:
            raise SessionError(
                f"unknown predictor {predictor_name!r}"
                f" (available: {', '.join(sorted(PREDICTOR_FACTORIES))})"
            )
        if window <= 0:
            raise SessionError(f"window must be positive, got {window}")
        unknown = [f for f in families if f not in BANK_FAMILIES]
        if unknown:
            raise SessionError(
                f"unknown estimator families: {', '.join(unknown)}"
                f" (available: {', '.join(BANK_FAMILIES)})"
            )
        self.session_id = session_id
        self.workload = workload
        self.predictor_name = predictor_name
        self.families = tuple(families)
        self.iterations = iterations
        self.window = window
        self.gate_threshold = gate_threshold

        try:
            self.bank = family_bank(
                predictor_name, workload, iterations, self.families
            )
        except NoHistoryRegister as error:  # "pattern" on e.g. bimodal
            raise SessionError(str(error)) from None
        #: The open window's running counts: correct predictions, and
        #: per estimator (high-confidence, high-confidence and correct).
        self._window_right = 0
        self._window_counts = np.zeros((2, len(self.bank.estimators)), np.int64)
        self.windows_emitted = 0
        #: Sequence number of the last applied ``branches`` batch; the
        #: worker's dedupe key after a snapshot restore.
        self.applied_seq = 0

    @property
    def branches(self) -> int:
        """Branches applied so far."""
        return self.bank.branches

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------

    def apply(
        self, seq: int, pcs: Sequence[int], taken: Sequence[int]
    ) -> List[dict]:
        """Apply one batch; returns the ``window`` messages it completed.

        Batches must arrive with ``seq`` increasing by exactly 1.  A
        batch at or below ``applied_seq`` is a post-recovery redelivery
        and is skipped (the snapshot already contains it); a gap is a
        protocol error.
        """
        if seq <= self.applied_seq:
            return []
        if seq != self.applied_seq + 1:
            raise SessionError(
                f"batch seq {seq} out of order (expected {self.applied_seq + 1})"
            )
        if len(pcs) != len(taken):
            raise SessionError("pcs and taken length mismatch")
        try:
            batch = BranchTrace(array("q", pcs), bytearray(map(bool, taken)))
        except (TypeError, OverflowError) as error:
            raise SessionError(f"malformed branch batch: {error}") from None
        correct, high = self.bank.feed(lower_trace(batch))
        # cut the batch at window boundaries of the whole stream
        first = self.bank.branches - len(pcs)
        windows: List[dict] = []
        cut = 0
        while cut < len(pcs):
            boundary = (first + cut) // self.window * self.window + self.window
            stop = min(len(pcs), boundary - first)
            right = correct[cut:stop]
            self._window_right += int(np.count_nonzero(right))
            self._window_counts += confident_counts(right, high[:, cut:stop])
            cut = stop
            if first + cut == boundary:
                windows.append(self._close_window(boundary))
        self.applied_seq = seq
        return windows

    def _close_window(self, end: int) -> dict:
        """Report and reset the counts of the window ending at ``end``."""
        metrics: Dict[str, Dict[str, Optional[float]]] = {}
        gate: Dict[str, bool] = {}
        for name, confident, confident_right in zip(
            self.bank.estimators, *self._window_counts.tolist()
        ):
            counts = quadrant_table(
                self.window, self._window_right, confident, confident_right
            )
            metrics[name] = {
                metric: counts.metric_or_none(metric)
                for metric in WINDOW_METRICS
            }
            metrics[name]["lc_fraction"] = counts.coverage
            # the §2.2 speculation-control signal: gate fetch past this
            # window's branches when too many were tagged low-confidence
            gate[name] = counts.coverage >= self.gate_threshold
        self._window_right = 0
        self._window_counts[:] = 0
        self.windows_emitted += 1
        return {
            "type": "window",
            "start": end - self.window,
            "branches": self.window,
            "metrics": metrics,
            "gate": gate,
        }

    def result(self) -> dict:
        """The final ``result`` message for the whole applied stream."""
        return {
            "type": "result",
            "branches": self.bank.branches,
            "mispredictions": self.bank.mispredictions,
            "windows": self.windows_emitted,
            "quadrants": {
                name: asdict(counts) for name, counts in self.bank.quadrants.items()
            },
        }


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SessionSnapshot:
    """One frozen session, capturable between any two batches.

    Metadata fields describe the paused stream without unpickling it;
    ``payload`` is the pickled session.  ``applied_seq`` is the dedupe
    horizon: redelivered batches at or below it are skipped.
    """

    schema: str
    session_id: str
    applied_seq: int
    branches: int
    payload: bytes


def capture_session(session: EstimatorSession) -> SessionSnapshot:
    """Freeze ``session`` at its current batch boundary."""
    return SessionSnapshot(
        schema=SESSION_SCHEMA,
        session_id=session.session_id,
        applied_seq=session.applied_seq,
        branches=session.branches,
        payload=pickle.dumps(session, protocol=pickle.HIGHEST_PROTOCOL),
    )


def restore_session(snapshot: SessionSnapshot) -> EstimatorSession:
    """Thaw a session that resumes exactly where ``snapshot`` paused."""
    if snapshot.schema != SESSION_SCHEMA:
        raise SessionSnapshotError(
            f"session snapshot schema {snapshot.schema!r} != {SESSION_SCHEMA!r}"
        )
    try:
        session = pickle.loads(snapshot.payload)
    except Exception as error:  # corrupt payload: session is lost
        raise SessionSnapshotError(
            f"unreadable session snapshot: {error}"
        ) from error
    if not isinstance(session, EstimatorSession):
        raise SessionSnapshotError(
            f"session snapshot holds a {type(session).__name__}"
        )
    if session.applied_seq != snapshot.applied_seq:
        raise SessionSnapshotError(
            f"session snapshot metadata disagrees with payload"
            f" (applied_seq {snapshot.applied_seq} != {session.applied_seq})"
        )
    return session
