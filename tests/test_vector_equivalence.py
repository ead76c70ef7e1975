"""Property-based scalar/vector equivalence for the estimator bank.

The vector engine's contract (docs/performance.md) is *bit-identity*:
for any trace and any supported (predictor, estimator-family) pair,
:meth:`Bank.feed` over a columnar trace (the array kernels) must
produce exactly the quadrant counts, misprediction counts and
per-branch ``correct`` / high-confidence flag columns of the same feed
over a plain trace (the scalar loop) -- and leave the predictor and
estimators in exactly the same state.  Hypothesis drives that over
random short traces with deliberately tiny tables, so index aliasing,
history wrap-around and counter saturation all get exercised.

Families without a kernel (``CombiningJRSEstimator``) must take the
scalar fallback inside the vectorized pass and still match; predictors
without a scan must make the bank fall back to the scalar loop
wholesale.
"""

import pytest

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.confidence import (
    BoostedEstimator,
    CombiningJRSEstimator,
    JRSEstimator,
    McFarlingVariant,
    MispredictionDistanceEstimator,
    PatternHistoryEstimator,
    SaturatingCountersEstimator,
    StaticEstimator,
)
from repro.engine import (
    VECTOR_BRANCHES_METRIC,
    Bank,
    lower_trace,
    measure_bank,
    vector_enabled,
)
from repro.engine.measure import measure
from repro.obs.registry import REGISTRY
from repro.predictors import make_predictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.mcfarling import McFarlingPredictor
from repro.predictors.sag import SAgPredictor
from repro.workloads.trace import BranchTrace

pytestmark = pytest.mark.skipif(
    not vector_enabled(), reason="vector engine disabled (REPRO_VECTOR=0)"
)

#: Tiny tables so short random traces still hit aliasing and wrap.
PREDICTOR_MAKERS = {
    "gshare": lambda: GsharePredictor(table_size=16),
    "mcfarling": lambda: McFarlingPredictor(table_size=16),
    "sag": lambda: SAgPredictor(
        history_entries=8, history_bits=3, pht_size=16
    ),
}

#: Every kernelized estimator family, built fresh per measurement.
FAMILY_MAKERS = {
    "jrs": lambda predictor, records: JRSEstimator(
        table_size=16, counter_bits=4, threshold=15, enhanced=True
    ),
    "satcnt": lambda predictor, records: (
        SaturatingCountersEstimator.for_predictor(
            predictor, variant=McFarlingVariant.BOTH_STRONG
        )
    ),
    "satcnt-either": lambda predictor, records: (
        SaturatingCountersEstimator.for_predictor(
            predictor, variant=McFarlingVariant.EITHER_STRONG
        )
    ),
    "pattern": lambda predictor, records: (
        PatternHistoryEstimator.for_predictor(predictor)
    ),
    "static": lambda predictor, records: StaticEstimator(
        frozenset(pc for pc, __ in records if pc % 3 == 0), 0.90
    ),
    "distance": lambda predictor, records: MispredictionDistanceEstimator(4),
    "boosted-distance": lambda predictor, records: BoostedEstimator(
        MispredictionDistanceEstimator(4), k=2
    ),
}

#: (pc, taken) streams over a small pc pool (dense aliasing).
traces = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40), st.booleans()),
    min_size=0,
    max_size=80,
)


def _columnar(records):
    return lower_trace(BranchTrace.from_records(records, name="prop"))


def _bank(predictor, records, families=FAMILY_MAKERS):
    return {
        name: maker(predictor, records) for name, maker in families.items()
    }


def _feed(predictor_name, trace, records, families=FAMILY_MAKERS):
    predictor = PREDICTOR_MAKERS[predictor_name]()
    bank = Bank(predictor, _bank(predictor, records, families))
    correct, high = bank.feed(trace)
    return bank, correct, high


def _feed_scalar(predictor_name, records, families=FAMILY_MAKERS):
    trace = BranchTrace.from_records(records, name="prop")
    return _feed(predictor_name, trace, records, families)


def _feed_vector(predictor_name, records, families=FAMILY_MAKERS):
    before = REGISTRY.counter_value(VECTOR_BRANCHES_METRIC)
    fed = _feed(predictor_name, _columnar(records), records, families)
    # the columnar feed must really have taken the kernels
    assert REGISTRY.counter_value(VECTOR_BRANCHES_METRIC) - before >= len(records)
    return fed


def _assert_equivalent(records, scalar, vector):
    s_bank, s_correct, s_high = scalar
    v_bank, v_correct, v_high = vector
    assert v_bank.branches == s_bank.branches == len(records)
    assert v_bank.mispredictions == s_bank.mispredictions
    assert v_correct.tolist() == s_correct.tolist()
    assert v_high.shape == s_high.shape == (len(s_bank.estimators), len(records))
    for row, name in enumerate(s_bank.estimators):
        assert v_high[row].tolist() == s_high[row].tolist(), name
        assert v_bank.quadrants[name] == s_bank.quadrants[name], name
    # final state must match too: replay the same stream scalar-ly
    # through both survivors and compare outcomes branch for branch
    if records:
        s_probe = measure(records, s_bank.predictor, s_bank.estimators)
        v_probe = measure(records, v_bank.predictor, v_bank.estimators)
        assert v_probe.mispredictions == s_probe.mispredictions
        for name in s_bank.estimators:
            assert v_probe.quadrants[name] == s_probe.quadrants[name], name


@pytest.mark.parametrize("predictor_name", sorted(PREDICTOR_MAKERS))
@given(records=traces)
@settings(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_vector_bank_matches_scalar_bank(predictor_name, records):
    _assert_equivalent(
        records,
        _feed_scalar(predictor_name, records),
        _feed_vector(predictor_name, records),
    )


@given(records=traces)
@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_unkernelized_estimator_falls_back_inside_the_bank(records):
    """CombiningJRS has no kernel: the vectorized pass must drive it
    per branch (fallback_flags) and still match the scalar bank."""
    families = {
        "cjrs": lambda predictor, records: CombiningJRSEstimator(
            table_size=16, counter_bits=4, threshold=15
        ),
        "distance": FAMILY_MAKERS["distance"],
    }
    _assert_equivalent(
        records,
        _feed_scalar("mcfarling", records, families),
        _feed_vector("mcfarling", records, families),
    )


def test_unsupported_predictor_rejected_before_consuming_state():
    records = [(3, True), (5, False), (3, True)]

    class Wrapper:
        name = "wrapper"

        def __init__(self):
            self.inner = make_predictor("gshare")

        def predict(self, pc):
            return self.inner.predict(pc)

        def resolve(self, pc, taken, prediction):
            return self.inner.resolve(pc, taken, prediction)

    # a columnar trace cannot take the kernels without a predictor
    # scan: the bank takes the scalar loop over untouched state instead
    bank = Bank(Wrapper(), {})
    correct, high = bank.feed(_columnar(records))
    baseline = measure(records, make_predictor("gshare"), {})
    assert bank.branches == baseline.branches
    assert bank.mispredictions == baseline.mispredictions
    assert len(correct) == len(records)
    assert int(np.count_nonzero(~correct)) == baseline.mispredictions
    assert high.shape == (0, len(records))

    # and so does the battery's whole-trace entry point
    result = measure_bank(_columnar(records), Wrapper(), {})
    assert result.branches == baseline.branches
    assert result.mispredictions == baseline.mispredictions
