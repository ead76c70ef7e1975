"""Incremental estimator sessions: exact batch equivalence, snapshots,
redelivery dedupe, window metrics, and the consistent hash ring."""

import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engine import VECTOR_BRANCHES_METRIC
from repro.obs.registry import REGISTRY

from repro.serve.load import batch_reference, results_equal
from repro.serve.ring import HashRing
from repro.serve.session import (
    SESSION_SCHEMA,
    EstimatorSession,
    SessionError,
    SessionSnapshotError,
    capture_session,
    restore_session,
    session_families,
)

ITERATIONS = 60
FAMILIES = ("jrs", "satcnt", "static")


def _batches(workload, batch):
    from repro.serve.load import _batches as chunk

    return chunk(workload, ITERATIONS, batch)


def _stream(session, batches, start_seq=1):
    windows = []
    for offset, (pcs, taken) in enumerate(batches):
        windows.extend(session.apply(start_seq + offset, pcs, taken))
    return windows


class TestBatchEquivalence:
    def test_streamed_result_equals_measure_bank(self):
        """The serving correctness contract: any batch split of the
        stream lands on the exact batch-mode quadrant counts."""
        reference = batch_reference("compress", "gshare", FAMILIES, ITERATIONS)
        for batch in (257, 512, 4096):
            session = EstimatorSession(
                f"eq-{batch}", "compress", "gshare", FAMILIES, ITERATIONS
            )
            _stream(session, _batches("compress", batch))
            assert results_equal(session.result(), reference), (
                f"batch split {batch} diverged from measure_bank"
            )

    def test_accuracy_only_session(self):
        """A bank with no estimators still streams windows and counts."""
        session = EstimatorSession(
            "acc", "compress", "gshare", ("accuracy",), ITERATIONS, window=64
        )
        windows = _stream(session, _batches("compress", 100))
        assert windows and all(w["metrics"] == {} for w in windows)
        reference = batch_reference("compress", "gshare", ("accuracy",), ITERATIONS)
        assert results_equal(session.result(), reference)
        assert session.result()["quadrants"] == {}

    def test_all_bank_families_supported(self):
        families = list(session_families())
        session = EstimatorSession(
            "all", "compress", "gshare", families, ITERATIONS
        )
        _stream(session, _batches("compress", 1024))
        result = session.result()
        # "accuracy" is predictor-only (no estimator, no quadrants)
        assert sorted(result["quadrants"]) == sorted(
            f for f in families if f != "accuracy"
        )
        reference = batch_reference("compress", "gshare", families, ITERATIONS)
        assert results_equal(result, reference)


#: Families every split-invariance case can host (bimodal has no
#: history register, so no pattern-history estimator).
SPLIT_FAMILIES = (
    "accuracy", "jrs", "satcnt", "satcnt-either", "static", "distance",
    "boosted-distance",
)
SPLIT_WINDOW = 100

#: Batch sizes: single branches, sizes near the window, and sizes
#: spanning several windows; cycled, they cut the stream so batches
#: straddle window boundaries.
batch_sizes = st.lists(
    st.one_of(
        st.integers(1, 3),
        st.integers(SPLIT_WINDOW - 5, SPLIT_WINDOW + 5),
        st.integers(SPLIT_WINDOW + 6, 3 * SPLIT_WINDOW + 7),
    ),
    min_size=1,
    max_size=12,
)


def _split(pcs, taken, sizes):
    """Cut the stream into consecutive batches, cycling ``sizes``."""
    batches, start, turn = [], 0, 0
    while start < len(pcs):
        stop = start + sizes[turn % len(sizes)]
        batches.append((pcs[start:stop], taken[start:stop]))
        start, turn = stop, turn + 1
    return batches


@pytest.mark.parametrize(
    "predictor, vector",
    [("gshare", "1"), ("bimodal", "1"), ("gshare", "0")],
    ids=["gshare-vector", "bimodal-scalar", "gshare-REPRO_VECTOR=0"],
)
@given(sizes=batch_sizes)
@example(sizes=[1])
@example(sizes=[SPLIT_WINDOW - 1, 2, 2 * SPLIT_WINDOW + 13])
@settings(
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_batch_split_changes_no_result_and_no_window(predictor, vector, sizes):
    """Window values and the final result do not depend on how the
    stream is cut into batches: any split equals one whole batch."""
    (pcs, taken), = _batches("compress", 1 << 20)
    with mock.patch.dict(os.environ, {"REPRO_VECTOR": vector}):
        whole = EstimatorSession(
            "whole", "compress", predictor, SPLIT_FAMILIES, ITERATIONS,
            window=SPLIT_WINDOW,
        )
        expected = whole.apply(1, pcs, taken)
        split = EstimatorSession(
            "split", "compress", predictor, SPLIT_FAMILIES, ITERATIONS,
            window=SPLIT_WINDOW,
        )
        kernels = REGISTRY.counter_value(VECTOR_BRANCHES_METRIC)
        batches = _split(pcs, taken, sizes)
        windows = _stream(split, batches)
        kernels = REGISTRY.counter_value(VECTOR_BRANCHES_METRIC) - kernels
    assert len(expected) == len(pcs) // SPLIT_WINDOW
    assert windows == expected
    assert split.result() == whole.result()
    # the gshare case really runs the kernels, and the scalar cases
    # never do
    assert (kernels > 0) == (predictor == "gshare" and vector == "1")


class TestStreamDiscipline:
    def _session(self, window=64):
        return EstimatorSession(
            "s", "compress", "gshare", FAMILIES, ITERATIONS, window=window
        )

    def test_redelivered_batch_is_skipped(self):
        session = self._session()
        pcs, taken = _batches("compress", 128)[0]
        session.apply(1, pcs, taken)
        branches = session.branches
        assert session.apply(1, pcs, taken) == []  # dedupe, no re-count
        assert session.branches == branches
        assert session.applied_seq == 1

    def test_seq_gap_is_a_session_error(self):
        session = self._session()
        pcs, taken = _batches("compress", 128)[0]
        session.apply(1, pcs, taken)
        with pytest.raises(SessionError, match="out of order"):
            session.apply(3, pcs, taken)

    def test_length_mismatch_rejected(self):
        with pytest.raises(SessionError, match="length mismatch"):
            self._session().apply(1, [1, 2, 3], [1, 0])

    def test_malformed_batch_rejected(self):
        """pcs must be 64-bit ints; the batch is refused, not applied."""
        session = self._session()
        for pcs in (["x"], [1.5], [1 << 64]):
            with pytest.raises(SessionError, match="malformed"):
                session.apply(1, pcs, [1])
        assert session.branches == 0 and session.applied_seq == 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(SessionError, match="unknown workload"):
            EstimatorSession("s", "nope", "gshare", FAMILIES)

    def test_unknown_family_rejected(self):
        with pytest.raises(SessionError, match="unknown estimator"):
            EstimatorSession("s", "compress", "gshare", ["jrs", "wat"])

    def test_unknown_predictor_rejected(self):
        with pytest.raises(SessionError, match="unknown predictor"):
            EstimatorSession("s", "compress", "oracle-9000", FAMILIES)

    def test_pattern_family_needs_a_history_register(self):
        with pytest.raises(SessionError, match="no history register"):
            EstimatorSession("s", "compress", "bimodal", ["pattern"])

    def test_family_the_predictor_cannot_host_rejected(self):
        with pytest.raises(SessionError, match="history register"):
            EstimatorSession("s", "compress", "bimodal", ["pattern"])

    def test_non_positive_window_rejected(self):
        with pytest.raises(SessionError, match="window"):
            EstimatorSession(
                "s", "compress", "gshare", FAMILIES, window=0
            )

    def test_window_messages_shape_and_cadence(self):
        window = 64
        session = self._session(window=window)
        windows = _stream(session, _batches("compress", 256))
        total = session.branches
        assert len(windows) == total // window
        assert session.windows_emitted == len(windows)
        first = windows[0]
        assert first["type"] == "window"
        assert first["start"] == 0
        assert first["branches"] == window
        for family in FAMILIES:
            metrics = first["metrics"][family]
            assert set(metrics) == {"sens", "pvp", "spec", "pvn", "lc_fraction"}
            assert isinstance(first["gate"][family], bool)
        # windows tile the stream with no gaps or overlaps
        starts = [w["start"] for w in windows]
        assert starts == list(range(0, len(windows) * window, window))

    def test_gate_threshold_flips_decision(self):
        """gate = (low-confidence fraction >= threshold); at threshold 0
        every window gates, at threshold > 1 none do."""
        always = EstimatorSession(
            "always", "compress", "gshare", ("jrs",), ITERATIONS,
            window=64, gate_threshold=0.0,
        )
        never = EstimatorSession(
            "never", "compress", "gshare", ("jrs",), ITERATIONS,
            window=64, gate_threshold=1.1,
        )
        batches = _batches("compress", 512)
        for windows, expected in (
            (_stream(always, batches), True),
            (_stream(never, batches), False),
        ):
            assert windows
            assert all(w["gate"]["jrs"] is expected for w in windows)


class TestSnapshots:
    def test_restore_resumes_exactly(self):
        """Snapshot mid-stream, restore in a 'different worker', replay
        the tail: final counts equal the uninterrupted run."""
        batches = _batches("compress", 512)
        split = len(batches) // 2

        original = EstimatorSession(
            "snap", "compress", "gshare", FAMILIES, ITERATIONS
        )
        _stream(original, batches)

        resumed = EstimatorSession(
            "snap", "compress", "gshare", FAMILIES, ITERATIONS
        )
        _stream(resumed, batches[:split])
        snapshot = capture_session(resumed)
        assert snapshot.schema == SESSION_SCHEMA
        assert snapshot.applied_seq == split
        assert snapshot.branches == resumed.branches

        thawed = restore_session(snapshot)
        assert thawed.applied_seq == split
        _stream(thawed, batches[split:], start_seq=split + 1)
        assert results_equal(thawed.result(), original.result())

    def test_restore_then_redelivery_is_deduped(self):
        """Recovery replays conservatively; the restored session must
        skip batches the snapshot already contains."""
        batches = _batches("compress", 512)
        session = EstimatorSession(
            "redo", "compress", "gshare", ("jrs",), ITERATIONS
        )
        _stream(session, batches[:3])
        thawed = restore_session(capture_session(session))
        # replay everything from the start, as a naive recovery would
        _stream(thawed, batches)
        reference = EstimatorSession(
            "ref", "compress", "gshare", ("jrs",), ITERATIONS
        )
        _stream(reference, batches)
        assert results_equal(thawed.result(), reference.result())

    def test_schema_mismatch_refused(self):
        session = EstimatorSession(
            "s", "compress", "gshare", ("jrs",), ITERATIONS
        )
        snapshot = capture_session(session)
        # serve-session/1 pickled the session's own predictor, estimator
        # and quadrant attributes, not a bank: its layout is refused too
        for schema in ("serve-session/0", "serve-session/1"):
            stale = type(snapshot)(
                schema=schema,
                session_id=snapshot.session_id,
                applied_seq=snapshot.applied_seq,
                branches=snapshot.branches,
                payload=snapshot.payload,
            )
            with pytest.raises(SessionSnapshotError, match="schema"):
                restore_session(stale)

    def test_corrupt_payload_refused(self):
        session = EstimatorSession(
            "s", "compress", "gshare", ("jrs",), ITERATIONS
        )
        snapshot = capture_session(session)
        garbled = type(snapshot)(
            schema=snapshot.schema,
            session_id=snapshot.session_id,
            applied_seq=snapshot.applied_seq,
            branches=snapshot.branches,
            payload=b"\x00not a pickle\x00",
        )
        with pytest.raises(SessionSnapshotError, match="unreadable"):
            restore_session(garbled)

    def test_metadata_payload_disagreement_refused(self):
        session = EstimatorSession(
            "s", "compress", "gshare", ("jrs",), ITERATIONS
        )
        snapshot = capture_session(session)
        lying = type(snapshot)(
            schema=snapshot.schema,
            session_id=snapshot.session_id,
            applied_seq=snapshot.applied_seq + 5,
            branches=snapshot.branches,
            payload=snapshot.payload,
        )
        with pytest.raises(SessionSnapshotError, match="applied_seq"):
            restore_session(lying)


class TestHashRing:
    def test_lookup_is_deterministic_across_instances(self):
        ids = [f"session-{n}" for n in range(50)]
        first = [HashRing(4).lookup(sid) for sid in ids]
        second = [HashRing(4).lookup(sid) for sid in ids]
        assert first == second

    def test_lookup_in_range_and_all_slots_used(self):
        ring = HashRing(4)
        placed = ring.distribution([f"session-{n}" for n in range(200)])
        assert len(placed) == 4
        assert sum(placed) == 200
        assert all(count > 0 for count in placed)

    def test_single_slot_takes_everything(self):
        ring = HashRing(1)
        assert {ring.lookup(f"s{n}") for n in range(20)} == {0}

    def test_resize_moves_only_some_sessions(self):
        """Consistent hashing: growing the ring must not reshuffle the
        whole population."""
        ids = [f"session-{n}" for n in range(300)]
        small = HashRing(4)
        large = HashRing(5)
        moved = sum(
            1 for sid in ids if small.lookup(sid) != large.lookup(sid)
        )
        assert 0 < moved < len(ids) // 2
