"""Workload-trace load generation against a running estimator server.

``repro load`` replays suite workload traces as concurrent streaming
sessions: each session opens one (workload, predictor, estimator-bank)
cell, chunks the workload's branch trace into ``branches`` batches,
and streams them under the server's credit-based flow control.  Per
batch it measures the send-to-credit round trip; the report aggregates
exact (sorted, not interpolated-bucket) p50/p95/p99 latency and the
session completion rate, and lands in the metrics registry plus a
``server_load_report`` journal event.

``--verify`` recomputes every cell by feeding the whole trace to one
:class:`~repro.engine.measure.Bank` -- built with the *same* trace and
bank factories the server's sessions use -- and requires the streamed
result to be equal, not approximately equal.
This is the client side of the serving correctness contract and what
the chaos CI leg asserts while workers are being crashed.

Sessions that die to a dropped connection (including injected
``server=connection`` faults) are retried under a fresh session id, a
bounded number of times; a retry replays the stream from the start, so
verification still holds.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.journal import coalesce
from ..obs.registry import REGISTRY
from .protocol import ProtocolError, read_message, send_message
from .session import DEFAULT_WINDOW, session_families


class LoadError(RuntimeError):
    """One session attempt failed (server error frame or dead link)."""


@dataclass
class LoadConfig:
    """Tunables of one load run; the CLI maps flags onto this."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Concurrent client tasks; sessions are spread across them.
    clients: int = 4
    #: Total sessions to stream.
    sessions: int = 8
    #: Batches per second per session (0 = as fast as credits allow).
    rate: float = 0.0
    #: Branches per batch.
    batch: int = 512
    workloads: Tuple[str, ...] = ()
    predictor: str = "gshare"
    estimators: Tuple[str, ...] = ()
    iterations: Optional[int] = None
    window: int = DEFAULT_WINDOW
    #: Recompute each cell in batch mode and require exact equality.
    verify: bool = False
    #: Reconnect budget per session (fresh id, replay from the start).
    retries: int = 2
    timeout_s: float = 120.0


@dataclass
class SessionOutcome:
    session: str
    workload: str
    ok: bool
    error: Optional[str] = None
    attempts: int = 1
    branches: int = 0
    windows: int = 0
    recovered: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    result: Optional[dict] = None
    verified: Optional[bool] = None


@dataclass
class LoadReport:
    clients: int
    outcomes: List[SessionOutcome]
    elapsed_s: float

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def mismatches(self) -> int:
        return sum(1 for o in self.outcomes if o.verified is False)

    @property
    def sessions_per_second(self) -> float:
        return self.completed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def latency_percentiles_ms(self) -> Dict[str, float]:
        """Exact batch round-trip percentiles (nearest-rank, sorted)."""
        samples = sorted(
            ms for o in self.outcomes for ms in o.latencies_ms
        )
        if not samples:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        def rank(q: float) -> float:
            index = min(len(samples) - 1, int(q * len(samples)))
            return samples[index]
        return {
            "p50": rank(0.50),
            "p95": rank(0.95),
            "p99": rank(0.99),
        }

    def render(self) -> str:
        latency = self.latency_percentiles_ms()
        lines = [
            "Load report",
            "-----------",
            f"sessions    {len(self.outcomes)}"
            f" ({self.completed} completed, {self.failed} failed)",
            f"clients     {self.clients}",
            f"elapsed     {self.elapsed_s:.2f} s"
            f" ({self.sessions_per_second:.2f} sessions/s)",
            f"batch RTT   p50 {latency['p50']:.2f} ms"
            f"   p95 {latency['p95']:.2f} ms"
            f"   p99 {latency['p99']:.2f} ms",
        ]
        recovered = sum(o.recovered for o in self.outcomes)
        retried = sum(o.attempts - 1 for o in self.outcomes)
        if recovered or retried:
            lines.append(
                f"chaos       {recovered} worker recoveries observed,"
                f" {retried} session retries"
            )
        verified = [o for o in self.outcomes if o.verified is not None]
        if verified:
            status = "all equal" if not self.mismatches else (
                f"{self.mismatches} MISMATCHED"
            )
            lines.append(
                f"verify      {len(verified)} sessions vs batch"
                f" measure_bank: {status}"
            )
        for outcome in self.outcomes:
            if not outcome.ok:
                lines.append(
                    f"  FAILED {outcome.session} ({outcome.workload}):"
                    f" {outcome.error}"
                )
            elif outcome.verified is False:
                lines.append(
                    f"  MISMATCH {outcome.session} ({outcome.workload}):"
                    f" streamed result != batch measure_bank"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# batch-mode reference (the exact-equivalence oracle)
# ----------------------------------------------------------------------


def batch_reference(
    workload: str,
    predictor_name: str,
    families: Sequence[str],
    iterations: Optional[int],
) -> dict:
    """The batch-mode result a streamed session must equal: the whole
    trace fed in one piece to a bank built like the sessions' (same
    trace memo, bank factory and static-sites artifacts), so any
    difference is a serving bug, not a configuration drift."""
    from ..harness.experiments import _bank_trace, family_bank

    bank = family_bank(predictor_name, workload, iterations, families)
    bank.feed(_bank_trace(workload, iterations))
    return {
        "branches": bank.branches,
        "mispredictions": bank.mispredictions,
        "quadrants": {
            name: asdict(counts) for name, counts in bank.quadrants.items()
        },
    }


def results_equal(streamed: dict, reference: dict) -> bool:
    """Exact (not approximate) comparison of a streamed final result."""
    if streamed.get("branches") != reference["branches"]:
        return False
    if streamed.get("mispredictions") != reference["mispredictions"]:
        return False
    return streamed.get("quadrants") == reference["quadrants"]


def _batches(
    workload: str, iterations: Optional[int], batch: int
) -> List[Tuple[List[int], List[int]]]:
    """The workload's branch trace, chunked for streaming."""
    from ..harness.experiments import _trace

    trace = _trace(workload, iterations)
    pcs = list(trace.pcs)
    taken = [int(flag) for flag in trace.outcomes]
    return [
        (pcs[start : start + batch], taken[start : start + batch])
        for start in range(0, len(pcs), batch)
    ]


# ----------------------------------------------------------------------
# streaming client
# ----------------------------------------------------------------------


async def _stream_once(
    config: LoadConfig,
    session_id: str,
    workload: str,
    batches: List[Tuple[List[int], List[int]]],
    outcome: SessionOutcome,
) -> dict:
    """Stream one full session; returns the final result message."""
    reader, writer = await asyncio.open_connection(config.host, config.port)
    try:
        await send_message(
            writer,
            {
                "type": "hello",
                "session": session_id,
                "workload": workload,
                "predictor": config.predictor,
                "estimators": list(config.estimators),
                "iterations": config.iterations,
                "window": config.window,
            },
        )
        welcome = await read_message(reader)
        if welcome is None:
            raise LoadError("server closed the connection before welcome")
        if welcome["type"] == "error":
            raise LoadError(
                f"{welcome['code']}: {welcome['error']}"
            )
        credits = welcome["credits"]
        sent = 0
        credited = 0
        send_times: Dict[int, float] = {}
        interval = 1.0 / config.rate if config.rate > 0 else 0.0
        next_send = time.monotonic()

        async def read_one() -> dict:
            message = await read_message(reader)
            if message is None:
                raise LoadError("connection closed mid-stream")
            if message["type"] == "error":
                raise LoadError(f"{message['code']}: {message['error']}")
            return message

        def consume(message: dict) -> None:
            nonlocal credited
            kind = message["type"]
            if kind == "credit":
                seq = message["seq"]
                started = send_times.pop(seq, None)
                if started is not None:
                    outcome.latencies_ms.append(
                        (time.monotonic() - started) * 1000.0
                    )
                credited = max(credited, seq)
            elif kind == "window":
                outcome.windows += 1
            elif kind == "recovered":
                outcome.recovered += 1

        while credited < len(batches):
            if sent < len(batches) and sent - credited < credits:
                if interval:
                    now = time.monotonic()
                    if now < next_send:
                        await asyncio.sleep(next_send - now)
                    next_send = max(next_send + interval, time.monotonic())
                pcs, taken = batches[sent]
                sent += 1
                send_times[sent] = time.monotonic()
                await send_message(
                    writer,
                    {
                        "type": "branches",
                        "seq": sent,
                        "pcs": pcs,
                        "taken": taken,
                    },
                )
                outcome.branches += len(pcs)
                # drain anything already queued without blocking sends
                while sent - credited >= credits or (
                    sent == len(batches) and credited < sent
                ):
                    consume(await read_one())
            else:
                consume(await read_one())
        await send_message(writer, {"type": "end"})
        while True:
            message = await read_one()
            if message["type"] == "result":
                return message
            consume(message)
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (OSError, ConnectionError):
            pass


async def _run_session(
    config: LoadConfig, session_id: str, workload: str
) -> SessionOutcome:
    batches = _batches(workload, config.iterations, config.batch)
    outcome = SessionOutcome(session=session_id, workload=workload, ok=False)
    for attempt in range(config.retries + 1):
        attempt_id = (
            session_id if attempt == 0 else f"{session_id}.r{attempt}"
        )
        outcome.attempts = attempt + 1
        # a retry replays the whole stream: reset per-attempt tallies
        outcome.branches = 0
        outcome.windows = 0
        outcome.latencies_ms = []
        try:
            result = await asyncio.wait_for(
                _stream_once(config, attempt_id, workload, batches, outcome),
                config.timeout_s,
            )
        except (
            LoadError,
            ProtocolError,
            ConnectionError,
            OSError,
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
        ) as error:
            outcome.error = (
                "timed out"
                if isinstance(error, asyncio.TimeoutError)
                else str(error) or type(error).__name__
            )
            REGISTRY.count("load.session_retries")
            continue
        outcome.ok = True
        outcome.error = None
        outcome.result = result
        return outcome
    return outcome


async def run_load(config: LoadConfig, journal=None) -> LoadReport:
    """Drive ``config.sessions`` streams and aggregate the report."""
    journal = coalesce(journal)
    workloads = list(config.workloads)
    if not workloads:
        from ..workloads import SUITE

        workloads = list(SUITE)
    plan = [
        (f"load-{index:04d}", workloads[index % len(workloads)])
        for index in range(config.sessions)
    ]
    queue: asyncio.Queue = asyncio.Queue()
    for entry in plan:
        queue.put_nowait(entry)
    outcomes: List[SessionOutcome] = []

    async def client_worker() -> None:
        while True:
            try:
                session_id, workload = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            outcomes.append(await _run_session(config, session_id, workload))

    started = time.monotonic()
    await asyncio.gather(
        *(client_worker() for __ in range(max(1, config.clients)))
    )
    elapsed = time.monotonic() - started

    if config.verify:
        references: Dict[str, dict] = {}
        families = list(config.estimators) or list(session_families())
        for outcome in outcomes:
            if not outcome.ok:
                continue
            if outcome.workload not in references:
                references[outcome.workload] = batch_reference(
                    outcome.workload,
                    config.predictor,
                    families,
                    config.iterations,
                )
            outcome.verified = results_equal(
                outcome.result, references[outcome.workload]
            )

    outcomes.sort(key=lambda o: o.session)
    report = LoadReport(
        clients=config.clients, outcomes=outcomes, elapsed_s=elapsed
    )
    latency = report.latency_percentiles_ms()
    REGISTRY.count("load.sessions_completed", report.completed)
    REGISTRY.count("load.sessions_failed", report.failed)
    for outcome in outcomes:
        for ms in outcome.latencies_ms:
            REGISTRY.observe_seconds("load.batch_rtt", ms / 1000.0)
    journal.emit(
        "server_load_report",
        clients=config.clients,
        sessions=len(outcomes),
        failed=report.failed,
        latency_ms=latency,
        sessions_per_second=report.sessions_per_second,
    )
    return report
