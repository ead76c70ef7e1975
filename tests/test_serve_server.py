"""End-to-end estimator-server tests: healthy streaming with exact
batch equivalence, worker-kill recovery, degradation, protocol error
paths, and the ``server=`` fault sites."""

import asyncio
import io

import pytest

from repro.faults import (
    FAULTS_ENV,
    STATE_ENV,
    reset_active_faults,
)
from repro.obs.journal import RunJournal
from repro.serve import EstimatorServer, LoadConfig, ServeConfig, run_load
from repro.serve.load import _batches, batch_reference, results_equal
from repro.serve.protocol import read_message, send_message

ITERATIONS = 60
FAMILIES = ("jrs", "satcnt")
WORKLOAD = "compress"


@pytest.fixture(autouse=True)
def clean_fault_env(monkeypatch):
    """No ambient fault configuration leaks into (or out of) a test."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    monkeypatch.delenv(STATE_ENV, raising=False)
    reset_active_faults()
    yield
    reset_active_faults()


def _config(**overrides):
    base = dict(
        workers=2,
        heartbeat_s=0.1,
        heartbeat_timeout_s=30.0,
        restart_backoff_s=0.01,
    )
    base.update(overrides)
    return ServeConfig(**base)


def _journal():
    return RunJournal(io.StringIO())


def _with_server(config, journal, scenario):
    """Run ``scenario(server)`` against a started server, then stop it."""

    async def body():
        server = EstimatorServer(config, journal)
        await server.start()
        try:
            outcome = await scenario(server)
            # let in-flight connection handlers finish their cleanup
            # (session_closed/session_shed events) before the shutdown
            await asyncio.sleep(0.05)
            return outcome
        finally:
            await server.stop()

    return asyncio.run(body())


async def _connect(server):
    return await asyncio.open_connection("127.0.0.1", server.port)


async def _say_hello(writer, sid, workload=WORKLOAD, estimators=FAMILIES):
    await send_message(
        writer,
        {
            "type": "hello",
            "session": sid,
            "workload": workload,
            "predictor": "gshare",
            "estimators": list(estimators),
            "iterations": ITERATIONS,
        },
    )


async def _stream_lockstep(reader, writer, batches, kill_after=None, on_kill=None):
    """Stream batch-by-batch, awaiting each credit; returns (result,
    recovered-frame count).  ``on_kill`` fires after ``kill_after``
    batches are acknowledged, so the kill lands mid-stream with the
    tail still unsent."""
    recovered = 0
    for seq, (pcs, taken) in enumerate(batches, start=1):
        await send_message(
            writer,
            {"type": "branches", "seq": seq, "pcs": pcs, "taken": taken},
        )
        while True:
            message = await read_message(reader)
            assert message is not None, "connection died mid-stream"
            assert message["type"] != "error", message
            if message["type"] == "recovered":
                recovered += 1
            if message["type"] == "credit" and message["seq"] >= seq:
                break
        if kill_after is not None and seq == kill_after:
            on_kill()
            kill_after = None
    await send_message(writer, {"type": "end"})
    while True:
        message = await read_message(reader)
        assert message is not None, "connection died awaiting result"
        assert message["type"] != "error", message
        if message["type"] == "recovered":
            recovered += 1
        if message["type"] == "result":
            return message, recovered


class TestHealthyServing:
    def test_load_verify_exact_equivalence(self):
        journal = _journal()
        config = _config()

        async def scenario(server):
            load = LoadConfig(
                port=server.port,
                clients=2,
                sessions=3,
                workloads=(WORKLOAD,),
                estimators=FAMILIES,
                iterations=ITERATIONS,
                batch=512,
                verify=True,
            )
            return await run_load(load, journal)

        report = _with_server(config, journal, scenario)
        assert report.completed == 3
        assert report.failed == 0
        assert report.mismatches == 0
        latency = report.latency_percentiles_ms()
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        assert report.sessions_per_second > 0
        assert "all equal" in report.render()
        assert journal.event_counts["server_started"] == 1
        assert journal.event_counts["session_opened"] == 3
        assert journal.event_counts["session_closed"] == 3
        assert journal.event_counts["server_load_report"] == 1
        assert "session_shed" not in journal.event_counts
        assert "server_worker_restarted" not in journal.event_counts

    def test_stop_emits_server_stopped(self):
        journal = _journal()

        async def scenario(server):
            return server.port

        _with_server(_config(workers=1), journal, scenario)
        assert journal.event_counts["server_stopped"] == 1


class TestWorkerRecovery:
    def test_sigkill_mid_stream_recovers_exactly(self):
        """The headline robustness property: SIGKILL a worker while a
        session streams through it; the session finishes on the
        recycled worker and the final counts are byte-exact."""
        journal = _journal()
        config = _config(workers=2, snapshot_every=2)
        batches = _batches(WORKLOAD, ITERATIONS, 512)
        assert len(batches) > 5

        async def scenario(server):
            reader, writer = await _connect(server)
            await _say_hello(writer, "kill-me")
            welcome = await read_message(reader)
            assert welcome["type"] == "welcome"

            def kill():
                server.slots[server.ring.lookup("kill-me")].process.kill()

            result, recovered = await _stream_lockstep(
                reader, writer, batches, kill_after=3, on_kill=kill
            )
            writer.close()
            return result, recovered

        result, recovered = _with_server(config, journal, scenario)
        assert recovered == 1  # the client saw exactly one recovery
        reference = batch_reference(WORKLOAD, "gshare", FAMILIES, ITERATIONS)
        assert results_equal(result, reference)
        assert journal.event_counts["server_worker_restarted"] == 1
        assert journal.event_counts["session_recovered"] == 1
        assert journal.event_counts["session_closed"] == 1
        assert "session_shed" not in journal.event_counts

    def test_restart_budget_exhaustion_degrades_and_completes(self):
        """A slot past its restart budget degrades the server to the
        in-process serial worker -- the stream still finishes with
        exact results."""
        journal = _journal()
        config = _config(workers=1, max_restarts=0)
        batches = _batches(WORKLOAD, ITERATIONS, 512)

        async def scenario(server):
            reader, writer = await _connect(server)
            await _say_hello(writer, "degrade-me")
            welcome = await read_message(reader)
            assert welcome["type"] == "welcome"

            def kill():
                server.slots[0].process.kill()

            result, recovered = await _stream_lockstep(
                reader, writer, batches, kill_after=2, on_kill=kill
            )
            writer.close()
            return result, recovered, server.degraded

        result, recovered, degraded = _with_server(config, journal, scenario)
        assert degraded
        assert recovered == 1
        reference = batch_reference(WORKLOAD, "gshare", FAMILIES, ITERATIONS)
        assert results_equal(result, reference)
        assert journal.event_counts["server_degraded"] == 1
        assert journal.event_counts["session_closed"] == 1


class TestProtocolErrors:
    def test_bad_hello_and_out_of_order(self):
        journal = _journal()

        async def scenario(server):
            # unknown workload is refused at open
            reader, writer = await _connect(server)
            await _say_hello(writer, "bad-workload", workload="nope")
            refusal = await read_message(reader)
            writer.close()

            # unknown estimator family is refused at open
            reader, writer = await _connect(server)
            await _say_hello(writer, "bad-family", estimators=("wat",))
            family_refusal = await read_message(reader)
            writer.close()

            # a seq gap mid-stream kills the session with out_of_order
            reader, writer = await _connect(server)
            await _say_hello(writer, "gappy")
            welcome = await read_message(reader)
            assert welcome["type"] == "welcome"
            pcs, taken = _batches(WORKLOAD, ITERATIONS, 64)[0]
            await send_message(
                writer,
                {"type": "branches", "seq": 2, "pcs": pcs, "taken": taken},
            )
            gap_error = await read_message(reader)
            writer.close()
            return refusal, family_refusal, gap_error

        refusal, family_refusal, gap_error = _with_server(
            _config(workers=1), journal, scenario
        )
        assert refusal["type"] == "error"
        assert refusal["code"] == "bad_config"
        assert family_refusal["type"] == "error"
        assert family_refusal["code"] == "bad_config"
        assert gap_error["type"] == "error"
        assert gap_error["code"] == "out_of_order"
        # every registered-then-refused or errored session sheds once
        assert journal.event_counts["session_shed"] == 3
        assert "session_closed" not in journal.event_counts

    def test_duplicate_session_id_refused(self):
        journal = _journal()

        async def scenario(server):
            reader, writer = await _connect(server)
            await _say_hello(writer, "dup")
            welcome = await read_message(reader)
            assert welcome["type"] == "welcome"
            second_reader, second_writer = await _connect(server)
            await _say_hello(second_writer, "dup")
            refusal = await read_message(second_reader)
            second_writer.close()
            writer.close()
            return refusal

        refusal = _with_server(_config(workers=1), journal, scenario)
        assert refusal["type"] == "error"
        assert refusal["code"] == "bad_config"

    def test_credit_violation_on_stalled_worker(self, monkeypatch):
        """With the worker stalled by a hang fault no credits flow, so
        a client pushing past its grant is shed deterministically."""
        monkeypatch.setenv(
            FAULTS_ENV, "hang:server=worker:times=1:after=1:seconds=60"
        )
        reset_active_faults()
        journal = _journal()
        config = _config(workers=1, credits=2, heartbeat_timeout_s=120.0)
        batches = _batches(WORKLOAD, ITERATIONS, 64)

        async def scenario(server):
            reader, writer = await _connect(server)
            await _say_hello(writer, "pushy")  # open: occurrence 0, skipped
            welcome = await read_message(reader)
            assert welcome["type"] == "welcome"
            assert welcome["credits"] == 2
            # batch 1 stalls the worker; 2 is within credit; 3 is not
            for seq in (1, 2, 3):
                pcs, taken = batches[seq - 1]
                await send_message(
                    writer,
                    {"type": "branches", "seq": seq, "pcs": pcs, "taken": taken},
                )
            violation = await read_message(reader)
            writer.close()
            return violation

        violation = _with_server(config, journal, scenario)
        assert violation["type"] == "error"
        assert violation["code"] == "credit_violation"
        assert journal.event_counts["session_shed"] == 1


class TestServerFaultSites:
    def test_frame_corruption_fault_hits_protocol_error_path(self, monkeypatch):
        monkeypatch.setenv(
            FAULTS_ENV, "corrupt:server=frame:times=1:after=1"
        )
        reset_active_faults()
        journal = _journal()
        batches = _batches(WORKLOAD, ITERATIONS, 64)

        async def scenario(server):
            reader, writer = await _connect(server)
            await _say_hello(writer, "garbled")  # frame occurrence 0: clean
            welcome = await read_message(reader)
            assert welcome["type"] == "welcome"
            pcs, taken = batches[0]
            # occurrence 1: the payload is corrupted server-side
            await send_message(
                writer,
                {"type": "branches", "seq": 1, "pcs": pcs, "taken": taken},
            )
            error = await read_message(reader)
            writer.close()
            return error

        error = _with_server(_config(workers=1), journal, scenario)
        assert error["type"] == "error"
        assert error["code"] == "bad_frame"
        assert journal.event_counts["session_shed"] == 1

    def test_connection_drop_fault_sheds_the_session(self, monkeypatch):
        monkeypatch.setenv(
            FAULTS_ENV, "crash:server=connection:times=1:after=1"
        )
        reset_active_faults()
        journal = _journal()
        batches = _batches(WORKLOAD, ITERATIONS, 64)

        async def scenario(server):
            reader, writer = await _connect(server)
            await _say_hello(writer, "dropped")
            welcome = await read_message(reader)
            assert welcome["type"] == "welcome"
            pcs, taken = batches[0]
            await send_message(
                writer,
                {"type": "branches", "seq": 1, "pcs": pcs, "taken": taken},
            )
            # the link is aborted server-side; any read outcome other
            # than a frame is correct (EOF, reset, or torn frame)
            try:
                message = await asyncio.wait_for(read_message(reader), 10.0)
            except (ConnectionError, OSError, ValueError):
                message = None
            writer.close()
            await asyncio.sleep(0.05)  # let cleanup record the shed
            return message

        message = _with_server(_config(workers=1), journal, scenario)
        assert message is None or message["type"] != "result"
        assert journal.event_counts["session_shed"] == 1
        assert "session_closed" not in journal.event_counts

    def test_injected_worker_crash_recovers_via_shared_ledger(self, monkeypatch):
        """``crash:server=worker:times=1`` kills the worker process once;
        the respawned worker shares the occurrence ledger (exported
        state dir), so the fault does not re-fire and the stream
        completes with exact results."""
        monkeypatch.setenv(
            FAULTS_ENV, "crash:server=worker:times=1:after=4"
        )
        reset_active_faults()
        journal = _journal()
        config = _config(workers=1)

        async def scenario(server):
            load = LoadConfig(
                port=server.port,
                clients=1,
                sessions=1,
                workloads=(WORKLOAD,),
                estimators=FAMILIES,
                iterations=ITERATIONS,
                batch=512,
                verify=True,
            )
            return await run_load(load, journal)

        report = _with_server(config, journal, scenario)
        assert report.completed == 1
        assert report.mismatches == 0
        assert report.outcomes[0].recovered >= 1
        assert journal.event_counts["server_worker_restarted"] >= 1
        assert journal.event_counts["session_recovered"] >= 1
