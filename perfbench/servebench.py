"""The ``serve`` workload: ``repro serve --workers 2`` under a closed and an open loop.

One run:

1. *Set-up*, ``SETUPS`` times: spawn a server on a fresh artifact cache
   and time spawn -> first ``welcome`` (workers spawned, first session
   open), in reference seconds.  All but the last server are stopped
   again.
2. *Warm-up*: open and finish one empty session per workload, so the
   workers' lazily built traces and static profiles exist.
3. *Closed loop*, in rounds, for the part of ``--seconds`` the other
   phases leave (at least ``MIN_CLOSED_ROUNDS``): ``CONNECTIONS`` clients
   stream one session per plan workload back to back, each sending as
   fast as its credits allow.  Every round streams the same plan,
   longest session first, so rounds differ only by host noise.
   ``wall_s`` is the median round time in reference seconds (see
   ``hostspeed.py``: a calibration loop runs between rounds, while the
   server idles); ``serve.branches_per_s`` is the round's branches over
   the median host time of a round.
4. *Open loop*: the same connections send the open plan on a fixed
   schedule of ``OPEN_RATE`` batches per second in total.  A separate
   reader task takes credits as they come, and each batch's latency is
   timed from the moment it was *due*, so a stall counts against every
   batch queued behind it.  A batch that never gets a credit counts as
   infinitely late.
5. Every session's final result must equal
   :func:`repro.serve.load.batch_reference`, computed before the timed
   phases.

The seed permutes which open-loop session streams which workload; the
multiset of workloads, and so the work, is the same for every seed
(sessions accept only the suite's shipped workloads).
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import benchstats
import hostspeed
import procs

HOST = "127.0.0.1"
WORKERS = 2
CONNECTIONS = 2
SETUPS = 5
PREDICTOR = "gshare"
ITERATIONS = 120
#: Branches per batch.
BATCH = 256
#: Workloads whose sessions make up the plans (each plan repeats them).
PLAN_WORKLOADS = ("compress", "gcc", "go", "vortex")
MIN_CLOSED_ROUNDS = 5
MAX_CLOSED_ROUNDS = 60
OPEN_REPEATS = 4
#: Offered batches per second in the open loop, about half the
#: closed-loop capacity measured on a 2-core host.
OPEN_RATE = 150.0
#: Open-loop latency limit on the p99 batch latency, in milliseconds.
P99_LIMIT_MS = 250.0
#: Per-session deadline, after which it counts as failed.
SESSION_TIMEOUT_S = 30.0
#: Server start deadline (port announced and first welcome).
START_TIMEOUT_S = 30.0
#: Whatever hangs, the run gives up this long after it started.
HARD_STOP_S = 140.0


class SessionFailed(Exception):
    """The server refused the session or dropped its connection."""


@dataclass
class PhaseStats:
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    open_ms: List[float] = field(default_factory=list)
    finish_ms: List[float] = field(default_factory=list)
    branches: int = 0
    sessions: int = 0
    failed: int = 0
    shed: int = 0
    recovered: int = 0
    problems: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Host time of each round, when the phase ran in rounds.
    rounds_s: List[float] = field(default_factory=list)

    def absorb(self, other: "PhaseStats") -> None:
        """Fold one round's statistics into this phase's."""
        for name in ("latencies_ms", "late_ms", "open_ms", "finish_ms", "problems"):
            getattr(self, name).extend(getattr(other, name))
        for name in ("branches", "sessions", "failed", "shed", "recovered"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.elapsed_s += other.elapsed_s
        self.rounds_s.append(other.elapsed_s)


# ----------------------------------------------------------------------
# the streaming client
# ----------------------------------------------------------------------


async def stream_session(
    port: int,
    session_id: str,
    workload: str,
    batches: Sequence[Tuple[List[int], List[int]]],
    families: Sequence[str],
    stats: PhaseStats,
    due: Optional[Sequence[float]] = None,
    max_in_flight: Optional[int] = None,
) -> dict:
    """Stream one session; returns its ``result`` message.

    With ``due`` (one monotonic time per batch) the session is open
    loop: each batch is sent once due and credits allow, and latency is
    credit time minus due time.  Without it the session is closed loop
    and latency is the send-to-credit round trip.  ``max_in_flight``
    caps the batches in flight below the server's credit grant (1 =
    one batch at a time, so latency is one batch's service time).
    """
    from repro.serve.protocol import read_message, send_message

    reader, writer = await asyncio.open_connection(HOST, port)
    sent_at: Dict[int, float] = {}
    try:
        opened = time.monotonic()
        await send_message(
            writer,
            {
                "type": "hello",
                "session": session_id,
                "workload": workload,
                "predictor": PREDICTOR,
                "estimators": list(families),
                "iterations": ITERATIONS,
            },
        )
        welcome = await read_message(reader)
        if welcome is None:
            raise SessionFailed("shed: connection closed before welcome")
        if welcome["type"] == "error":
            raise SessionFailed(f"refused: {welcome['code']}: {welcome['error']}")
        stats.open_ms.append((time.monotonic() - opened) * 1000.0)
        window = min(welcome["credits"], max_in_flight or welcome["credits"])
        credited = 0
        credit_arrived = asyncio.Event()

        async def read_credits() -> dict:
            nonlocal credited
            while True:
                message = await read_message(reader)
                if message is None:
                    raise SessionFailed("shed: connection closed mid-stream")
                kind = message["type"]
                if kind == "credit":
                    now = time.monotonic()
                    seq = message["seq"]
                    start = due[seq - 1] if due is not None else sent_at.get(seq)
                    if start is not None:
                        stats.latencies_ms.append((now - start) * 1000.0)
                    credited = max(credited, seq)
                    credit_arrived.set()
                elif kind == "recovered":
                    stats.recovered += 1
                elif kind == "result":
                    return message
                elif kind == "error":
                    raise SessionFailed(f"refused: {message['code']}: {message['error']}")

        credits_task = asyncio.create_task(read_credits())
        try:
            for seq, (pcs, taken) in enumerate(batches, 1):
                if due is not None:
                    delay = due[seq - 1] - time.monotonic()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    stats.late_ms.append(max(0.0, time.monotonic() - due[seq - 1]) * 1000.0)
                while seq - credited > window:
                    credit_arrived.clear()
                    waiter = asyncio.create_task(credit_arrived.wait())
                    await asyncio.wait(
                        {waiter, credits_task}, return_when=asyncio.FIRST_COMPLETED
                    )
                    waiter.cancel()
                    if credits_task.done():
                        credits_task.result()  # raises the reader's failure
                        raise SessionFailed("shed: result before the stream ended")
                sent_at[seq] = time.monotonic()
                await send_message(
                    writer, {"type": "branches", "seq": seq, "pcs": pcs, "taken": taken}
                )
                stats.branches += len(pcs)
            ended = time.monotonic()
            await send_message(writer, {"type": "end"})
            result = await credits_task
            stats.finish_ms.append((time.monotonic() - ended) * 1000.0)
            return result
        finally:
            if not credits_task.done():
                credits_task.cancel()
            await asyncio.gather(credits_task, return_exceptions=True)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):
            pass


async def run_phase(
    port: int,
    plan: List[Tuple[str, str]],
    batches: Dict[str, list],
    references: Dict[str, dict],
    families: Sequence[str],
    rate: Optional[float] = None,
    connections: int = CONNECTIONS,
    max_in_flight: Optional[int] = None,
    hard_stop: Optional[float] = None,
) -> PhaseStats:
    """Stream ``plan`` over ``connections`` connections.

    Closed loop (``rate=None``): each connection takes the next session
    as soon as its last one finished.  Open loop: session ``i`` runs on
    connection ``i % connections``, and connection ``c``'s ``k``-th batch
    (counted across its sessions) is due at ``start + (k * connections
    + c) / rate``.  No session outlives ``hard_stop`` (a monotonic time).
    """
    from repro.serve.load import results_equal

    stats = PhaseStats()
    queues: List[List[Tuple[str, str]]] = [[] for __ in range(connections)]
    shared = list(plan)
    if rate is not None:
        for index, entry in enumerate(plan):
            queues[index % connections].append(entry)
    start = time.monotonic() + 0.05

    async def connection(index: int) -> None:
        position = 0  # batches scheduled on this connection so far
        while True:
            if rate is None:
                if not shared:
                    return
                session_id, workload = shared.pop(0)
                due = None
            else:
                if not queues[index]:
                    return
                session_id, workload = queues[index].pop(0)
                count = len(batches[workload])
                due = [
                    start + ((position + k) * connections + index) / rate
                    for k in range(count)
                ]
                position += count
            stats.sessions += 1
            received = len(stats.latencies_ms)
            recovered = stats.recovered
            try:
                timeout = SESSION_TIMEOUT_S
                if hard_stop is not None:
                    timeout = max(0.0, min(timeout, hard_stop - time.monotonic()))
                result = await asyncio.wait_for(
                    stream_session(
                        port, session_id, workload, batches[workload], families, stats,
                        due, max_in_flight,
                    ),
                    timeout,
                )
            except (SessionFailed, OSError, ConnectionError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError) as error:
                stats.failed += 1
                if isinstance(error, SessionFailed):
                    stats.shed += 1
                stats.problems.append(f"{session_id} ({workload}): {error or type(error).__name__}")
                # every batch that never got its credit missed any limit
                missing = len(batches[workload]) - (len(stats.latencies_ms) - received)
                stats.latencies_ms.extend([math.inf] * max(0, missing))
                continue
            if not results_equal(result, references[workload]):
                stats.failed += 1
                stats.problems.append(
                    f"{session_id} ({workload}): streamed result differs from batch_reference"
                )
            elif stats.recovered > recovered:
                stats.failed += 1  # the server had to retry it on a new worker
                stats.problems.append(f"{session_id} ({workload}): recovered onto a new worker")

    started = time.monotonic()
    await asyncio.gather(*(connection(index) for index in range(connections)))
    stats.elapsed_s = time.monotonic() - started
    return stats


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------


class Server:
    """One ``repro serve`` process on a fresh artifact cache."""

    def __init__(self, work: Path):
        cache = procs.fresh_dir(work, "serve-cache")
        self.spawned = time.monotonic()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--workers", str(WORKERS),
             "--host", HOST, "--port", "0"],
            env=procs.clean_env(cache),
            cwd=str(procs.ROOT),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.port = 0

    def wait_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, __, __ = select.select(
                [self.process.stdout], [], [], max(0.0, deadline - time.monotonic())
            )
            if not ready:
                break
            line = self.process.stdout.readline()
            if not line:
                break
            if "serving on" in line:
                self.port = int(line.rsplit(":", 1)[1].split()[0])
                return self.port
        raise RuntimeError("server did not announce its port")

    def descendants(self) -> List[int]:
        """The server's pid and every process below it."""
        parents: Dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            parents[int(entry)] = int(fields[1])
        found = [self.process.pid]
        for pid in found:
            found += [child for child, parent in parents.items() if parent == pid]
        return found

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident memory of the server and its workers."""
        total_kb = 0
        for pid in self.descendants():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        family = self.descendants()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        procs.stop(self.process, grace_s=15.0)
        if self.process.stdout is not None:
            self.process.stdout.close()
        for pid in family[1:]:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


async def first_welcome(port: int, workload: str, families: Sequence[str]) -> float:
    """Open (and finish) one empty session; returns the welcome time."""
    return await asyncio.wait_for(_first_welcome(port, workload, families), START_TIMEOUT_S)


async def _first_welcome(port: int, workload: str, families: Sequence[str]) -> float:
    from repro.serve.protocol import read_message, send_message

    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        await send_message(
            writer,
            {"type": "hello", "session": f"setup-{workload}-{time.monotonic_ns()}",
             "workload": workload, "predictor": PREDICTOR,
             "estimators": list(families), "iterations": ITERATIONS},
        )
        welcome = await read_message(reader)
        welcomed = time.monotonic()
        if welcome is None or welcome["type"] != "welcome":
            raise RuntimeError(f"server refused the first session: {welcome}")
        await send_message(writer, {"type": "end"})
        while True:
            message = await read_message(reader)
            if message is None or message["type"] in ("result", "error"):
                return welcomed
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):
            pass


# ----------------------------------------------------------------------
# in-process layer measurements (traced run only)
# ----------------------------------------------------------------------


def session_layers(batches: Dict[str, list], families: Sequence[str]) -> Dict[str, float]:
    """Time the serving layers in process, on the plan's own batches."""
    from repro.serve.protocol import decode_payload, encode_frame
    from repro.serve.session import EstimatorSession, capture_session

    applied = 0
    apply_s = 0.0
    captures: List[float] = []
    frames: List[float] = []
    for workload in PLAN_WORKLOADS:
        session = EstimatorSession(f"inproc-{workload}", workload, PREDICTOR, families, ITERATIONS)
        for seq, (pcs, taken) in enumerate(batches[workload], 1):
            started = time.perf_counter()
            session.apply(seq, pcs, taken)
            apply_s += time.perf_counter() - started
            applied += len(pcs)
            if seq % 4 == 0:  # the server's default snapshot cadence
                started = time.perf_counter()
                capture_session(session)
                captures.append(time.perf_counter() - started)
            started = time.perf_counter()
            frame = encode_frame({"type": "branches", "seq": seq, "pcs": pcs, "taken": taken})
            decode_payload(frame[4:])
            frames.append(time.perf_counter() - started)
    return {
        "serve.session.apply_branches_per_s": applied / apply_s if apply_s > 0 else 0.0,
        "serve.session.capture_ms": benchstats.median(captures) * 1000.0,
        "serve.protocol.frame_us": benchstats.median(frames) * 1e6,
    }


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------


def _tail(samples: List[float], wanted: float) -> Tuple[float, str]:
    tail = benchstats.tail_percentile(samples, wanted)
    if tail is None:
        return 0.0, "n/a"
    percentile, value, count = tail
    return value, f"{benchstats.percentile_label(percentile)} of {count}"


def use_program(work: Path) -> None:
    """Import the program in this process, with defaults and a fresh cache.

    The client computes batches and reference results in process.
    """
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = str(procs.fresh_dir(work, "client-cache"))
    if str(procs.SOURCE) not in sys.path:
        sys.path.insert(0, str(procs.SOURCE))


def prepare(
    workloads: Sequence[str], families: Sequence[str]
) -> Tuple[Dict[str, list], Dict[str, dict]]:
    """Each workload's batches and its batch-mode reference result."""
    from repro.engine import workload_run
    from repro.serve.load import batch_reference

    batches: Dict[str, list] = {}
    references: Dict[str, dict] = {}
    for workload in workloads:
        trace_run = workload_run(workload, ITERATIONS).trace
        pcs = list(trace_run.pcs)
        taken = [int(flag) for flag in trace_run.outcomes]
        batches[workload] = [
            (pcs[i : i + BATCH], taken[i : i + BATCH]) for i in range(0, len(pcs), BATCH)
        ]
        references[workload] = batch_reference(workload, PREDICTOR, families, ITERATIONS)
    return batches, references


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Run the serve workload once, in about ``seconds``."""
    started = time.monotonic()
    with procs.workdir() as work:
        use_program(work)
        procs.compile_sources()
        return _run(seed, trace, work, started + seconds, started + HARD_STOP_S)


def _run(seed: int, trace: bool, work: Path, deadline: float, hard_stop: float) -> dict:
    from repro.serve.session import session_families

    families = list(session_families())
    rng = random.Random(seed)
    open_plan = list(PLAN_WORKLOADS) * OPEN_REPEATS
    rng.shuffle(open_plan)

    batches, references = prepare(PLAN_WORKLOADS, families)

    setups: List[float] = []
    setup_scales: List[float] = []
    server: Optional[Server] = None
    try:
        calibration = hostspeed.calibrate()
        for attempt in range(SETUPS):
            server = Server(work)
            port = server.wait_port()
            welcomed = asyncio.run(first_welcome(port, PLAN_WORKLOADS[0], families))
            setups.append(welcomed - server.spawned)
            if attempt < SETUPS - 1:
                server.stop()
                server = None
            after = hostspeed.calibrate()
            setup_scales.append(hostspeed.scale(calibration, after))
            calibration = after
        for workload in PLAN_WORKLOADS:  # warm every workload's lazy state
            asyncio.run(first_welcome(port, workload, families))
        # the open loop's length is fixed by its plan and rate
        open_s = sum(len(batches[w]) for w in open_plan) / OPEN_RATE
        closed = PhaseStats()
        closed_plan = sorted(PLAN_WORKLOADS, key=lambda w: -len(batches[w]))
        round_scales: List[float] = []
        round_s: List[float] = []  # a round with its calibration
        calibration = hostspeed.calibrate()
        for number in range(MAX_CLOSED_ROUNDS):
            left = deadline - time.monotonic() - open_s
            if number >= MIN_CLOSED_ROUNDS and left < benchstats.median(round_s):
                break
            before = time.monotonic()
            closed.absorb(asyncio.run(
                run_phase(port, [(f"closed-{number}-{i}", w) for i, w in enumerate(closed_plan)],
                          batches, references, families, hard_stop=hard_stop)
            ))
            after = hostspeed.calibrate()
            round_scales.append(hostspeed.scale(calibration, after))
            calibration = after
            round_s.append(time.monotonic() - before)
        opened = asyncio.run(
            run_phase(port, [(f"open-{i:03d}", w) for i, w in enumerate(open_plan)],
                      batches, references, families, rate=OPEN_RATE, hard_stop=hard_stop)
        )
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    phases = (closed, opened)
    attempted = sum(phase.sessions for phase in phases)
    failed = sum(phase.failed for phase in phases)
    adjusted = [r * f for r, f in zip(closed.rounds_s, round_scales)]
    wall = benchstats.median(adjusted)
    host_wall = benchstats.median(closed.rounds_s)
    round_branches = closed.branches / max(1, len(closed.rounds_s))
    branches_per_s = round_branches / host_wall if host_wall > 0 else 0.0
    p50 = benchstats.median(opened.latencies_ms)
    p99, p99_label = _tail(opened.latencies_ms, 0.99)
    rtt_p99, rtt_label = _tail(closed.latencies_ms, 0.99)
    late_p99, late_label = _tail(opened.late_ms, 0.99)
    values = {
        "wall_s": wall,
        "setup_s": benchstats.median([s * f for s, f in zip(setups, setup_scales)]),
        "peak_rss_mb": rss,
    }
    layers = {
        "serve.branches_per_s": branches_per_s,
        "serve.p50_ms": p50,
        "serve.p99_ms": p99,
        "serve.open_ms": benchstats.median(closed.open_ms + opened.open_ms),
        "serve.finish_ms": benchstats.median(closed.finish_ms + opened.finish_ms),
        "serve.closed.rtt_p50_ms": benchstats.median(closed.latencies_ms),
        "serve.closed.rtt_p99_ms": rtt_p99,
        "serve.shed": float(sum(phase.shed for phase in phases)),
        "serve.retries": float(sum(phase.recovered for phase in phases)),
        "loadgen.late_p99_ms": late_p99,
    }
    if trace:
        layers.update(session_layers(batches, families))
        layers["trace.overhead_frac"] = 0.0
    over_limit = sum(1 for ms in opened.latencies_ms if ms > P99_LIMIT_MS)
    lines = [
        f"perfbench workload=serve seed={seed} workers={WORKERS} connections={CONNECTIONS}"
        f" closed_sessions={closed.sessions} open_sessions={opened.sessions}",
        f"  wall_s        {wall:10.4f} s   median closed-loop round of {round_branches:.0f}"
        f" branches in reference seconds, quartile spread"
        f" {benchstats.quartile_spread(adjusted):.1%}",
        "                adjusted: " + " ".join(f"{r:.3f}" for r in adjusted),
        "                host:     " + " ".join(f"{r:.3f}" for r in closed.rounds_s),
        f"  setup_s       {values['setup_s']:10.4f} s   spawn to first welcome, median of"
        f" {len(setups)} in reference seconds (host {benchstats.median(setups):.4f} s)",
        f"  peak_rss_mb   {rss:10.1f} MB  server plus workers",
        f"  failed_frac   {failed / max(attempted, 1):10.4f} ratio"
        f" ({failed} of {attempted} sessions failed)",
        f"  serve_branches_per_s {branches_per_s:12.0f} 1/s  closed loop, host time",
        f"  serve_p50_ms  {p50:10.2f} ms  open loop at {OPEN_RATE:g} batches/s,"
        f" from due time, n={len(opened.latencies_ms)}",
        f"  serve_p99_ms  {p99:10.2f} ms  ({p99_label}); {over_limit} batches over the"
        f" {P99_LIMIT_MS:g} ms limit",
        f"  closed rtt    p50 {layers['serve.closed.rtt_p50_ms']:.2f} ms,"
        f" {rtt_label} {rtt_p99:.2f} ms",
        f"  loadgen late  {late_p99:10.2f} ms  ({late_label})",
    ]
    problems = closed.problems + opened.problems
    lines += [f"  CHECK FAILED: {problem}" for problem in problems]
    if not problems:
        lines.append(f"  checks        {attempted} sessions equal batch_reference")
    return {
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "layers": layers,
        "lines": lines,
    }
