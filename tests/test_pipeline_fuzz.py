"""Property-based fuzzing of the speculative pipeline.

Hypothesis composes random workload profiles (arbitrary mixes of site
kinds, seeds and layouts) and random pipeline geometries; for every
sample the three executions of the same program must agree:

* pure functional machine (golden),
* fast tracer,
* speculative pipeline's committed stream,

for any predictor, any estimator attachment, and any (valid) pipeline
configuration.  This is the strongest correctness net in the suite: a
bug in squash/rollback, journal handling, history repair or fetch
gating shows up as an architectural-state divergence here.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.confidence import (
    BoostedEstimator,
    JRSEstimator,
    MispredictionDistanceEstimator,
)
from repro.engine import trace_branches
from repro.isa import Machine
from repro.pipeline import (
    DEPTH_HISTOGRAM_KEY,
    CacheConfig,
    OutOfOrderSimulator,
    PipelineConfig,
    PipelineSimulator,
)
from repro.predictors import make_predictor
from repro.speculation import EagerPipelineSimulator
from repro.speculation.dualpath import EAGER_SIMULATORS
from repro.speculation.gating import GATED_SIMULATORS
from repro.workloads.generator import GuardSpec, WorkloadProfile, generate_program
from repro.workloads.sites import (
    AlternatingSite,
    BiasedSite,
    CorrelatedSite,
    LoopSite,
    PatternSite,
    WalkSite,
)


@st.composite
def branch_sites(draw):
    kind = draw(st.integers(min_value=0, max_value=5))
    shift = draw(st.integers(min_value=12, max_value=21))
    threshold = draw(st.integers(min_value=0, max_value=1024))
    if kind == 0:
        return BiasedSite(
            threshold=threshold,
            field_shift=shift,
            advance_lcg=draw(st.booleans()),
        )
    if kind == 1:
        return CorrelatedSite(threshold=threshold, field_shift=shift)
    if kind == 2:
        length = draw(st.integers(min_value=1, max_value=6))
        bits = tuple(draw(st.integers(min_value=0, max_value=1)) for __ in range(length))
        if all(bit == bits[0] for bit in bits):
            bits = bits + (1 - bits[0],)
        return PatternSite(pattern=bits)
    if kind == 3:
        trip_min = draw(st.integers(min_value=1, max_value=5))
        trip_max = trip_min + draw(st.integers(min_value=0, max_value=5))
        return LoopSite(trip_min=trip_min, trip_max=trip_max, field_shift=shift)
    if kind == 4:
        return AlternatingSite()
    return WalkSite(
        array_words=draw(st.integers(min_value=1, max_value=64)),
        stride=draw(st.integers(min_value=1, max_value=7)),
        threshold=threshold,
    )


@st.composite
def workload_profiles(draw):
    sites = tuple(draw(st.lists(branch_sites(), min_size=1, max_size=10)))
    guards = {}
    for index in range(len(sites)):
        if draw(st.booleans()) and draw(st.booleans()):  # ~25% guarded
            guards[index] = GuardSpec(
                field_shift=draw(st.integers(min_value=12, max_value=21)),
                threshold=draw(st.integers(min_value=0, max_value=1024)),
            )
    return WorkloadProfile(
        name="fuzz",
        description="hypothesis-composed profile",
        sites=sites,
        guards=guards,
        subroutine_group=draw(st.sampled_from((0, 0, 3))),
        lcg_seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        data_seed=draw(st.integers(min_value=0, max_value=2**16)),
        default_iterations=draw(st.integers(min_value=1, max_value=25)),
    )


@st.composite
def pipeline_configs(draw):
    fetch_width = draw(st.integers(min_value=1, max_value=8))
    return PipelineConfig(
        fetch_width=fetch_width,
        commit_width=draw(st.integers(min_value=1, max_value=8)),
        window=max(fetch_width, draw(st.sampled_from((8, 16, 64)))),
        resolve_stage=draw(st.integers(min_value=1, max_value=12)),
        mispredict_penalty=draw(st.integers(min_value=0, max_value=8)),
        icache=CacheConfig(size_words=1024, line_words=8, associativity=2),
        dcache=CacheConfig(size_words=512, line_words=4, associativity=2),
    )


@settings(max_examples=25, deadline=None)
@given(workload_profiles())
def test_tracer_equals_machine_on_random_programs(profile):
    program = generate_program(profile)
    machine = Machine(program)
    golden = []
    while not machine.halted:
        result = machine.step()
        if result.taken is not None:
            golden.append((result.pc, result.taken))
    traced = trace_branches(program)
    assert list(traced.trace) == golden
    assert traced.stats.instructions == machine.instructions_retired


@settings(max_examples=20, deadline=None)
@given(
    workload_profiles(),
    pipeline_configs(),
    st.sampled_from(("gshare", "mcfarling", "sag", "bimodal")),
)
def test_pipeline_equals_machine_on_random_programs(profile, config, predictor_name):
    program = generate_program(profile)
    predictor = make_predictor(predictor_name)
    simulator = PipelineSimulator(
        program,
        predictor,
        config=config,
        estimators={
            "jrs": JRSEstimator(table_size=256, threshold=7),
            "dist": MispredictionDistanceEstimator(3),
        },
    )
    result = simulator.run()
    golden = Machine(program)
    golden.run()
    assert simulator.machine.halted
    assert simulator.machine.regs == golden.regs
    assert simulator.machine.memory == golden.memory
    assert result.stats.committed_instructions == golden.instructions_retired
    # every record is consistent
    for record in result.branch_records:
        assert (record.resolve_cycle is not None) == record.committed


def assert_same_backend_state(slow_sim, fast_sim):
    """Out-of-order timing state left by two engines is identical: the
    depth histogram, the rename map, free list (order included),
    in-flight writers, physical-register ready cycles and issue-slot
    ledger (the in-order core has none of them)."""
    assert slow_sim.stats.extra.get(DEPTH_HISTOGRAM_KEY) == (
        fast_sim.stats.extra.get(DEPTH_HISTOGRAM_KEY)
    )
    if not isinstance(slow_sim, OutOfOrderSimulator):
        assert DEPTH_HISTOGRAM_KEY not in fast_sim.stats.extra
        return
    assert slow_sim._rename_map == fast_sim._rename_map
    assert list(slow_sim._free_regs) == list(fast_sim._free_regs)
    assert slow_sim._rename_of == fast_sim._rename_of
    assert slow_sim._phys_ready == fast_sim._phys_ready
    assert slow_sim._issue_slots == fast_sim._issue_slots


def quadrant_tables(result):
    """Both estimator quadrant maps of a result, as plain dicts."""
    return [
        {name: vars(counts) for name, counts in table.items()}
        for table in (result.quadrants_committed, result.quadrants_all)
    ]


@settings(max_examples=40, deadline=None)
@given(
    workload_profiles(),
    pipeline_configs(),
    st.sampled_from(("gshare", "mcfarling", "sag")),
    st.booleans(),
    st.sampled_from((None, 7, 60, 500)),
    st.sampled_from(("inorder", "ooo")),
)
def test_fast_engine_equals_reference_engine(
    profile, config, predictor_name, with_estimators, budget, backend
):
    """Fast/slow byte identity under fuzzed programs and geometries.

    Covers early stops (``budget``), misprediction recovery (random
    predictors on random branch mixes) and cache-miss congestion (the
    tiny fuzz cache geometries miss constantly), with and without
    estimators attached, on both backends -- the full cross product the
    golden CI report legs only sample.  The OoO core takes the fuzzed
    window and commit width, and an issue width of half the fetch
    width, so narrow geometries contend for issue slots.
    """
    program = generate_program(profile)
    runs = []
    for fast in (False, True):
        estimators = (
            {"jrs": JRSEstimator(table_size=256, threshold=7)}
            if with_estimators
            else {}
        )
        if backend == "ooo":
            simulator = OutOfOrderSimulator(
                program,
                make_predictor(predictor_name),
                config=config,
                estimators=estimators,
                fast=fast,
                window=config.window,
                issue_width=max(1, config.fetch_width // 2),
                commit_width=config.commit_width,
            )
        else:
            simulator = PipelineSimulator(
                program,
                make_predictor(predictor_name),
                config=config,
                estimators=estimators,
                fast=fast,
            )
        runs.append((simulator, simulator.run(max_instructions=budget)))
    (slow_sim, slow), (fast_sim, fast) = runs
    assert dataclasses.asdict(slow.stats) == dataclasses.asdict(fast.stats)
    assert_same_backend_state(slow_sim, fast_sim)
    assert quadrant_tables(slow) == quadrant_tables(fast)
    assert slow_sim.machine.regs == fast_sim.machine.regs
    assert slow_sim.machine.memory == fast_sim.machine.memory
    assert slow_sim.machine.pc == fast_sim.machine.pc
    for side in ("icache", "dcache"):
        slow_cache = getattr(slow_sim, side)
        fast_cache = getattr(fast_sim, side)
        assert (slow_cache.hits, slow_cache.misses) == (
            fast_cache.hits,
            fast_cache.misses,
        )
    slow_records = slow.branch_records
    fast_records = fast.branch_records
    assert len(slow_records) == len(fast_records)
    for left, right in zip(slow_records, fast_records):
        assert (
            left.pc,
            left.predicted_taken,
            left.actual_taken,
            left.fetch_cycle,
            left.resolve_cycle,
            left.committed,
            left.precise_distance,
            left.perceived_distance,
            left.wrong_path,
            left.assessments,
        ) == (
            right.pc,
            right.predicted_taken,
            right.actual_taken,
            right.fetch_cycle,
            right.resolve_cycle,
            right.committed,
            right.precise_distance,
            right.perceived_distance,
            right.wrong_path,
            right.assessments,
        )
    if budget is not None:
        # the commit stage never overshoots the instruction budget
        assert fast.stats.committed_instructions <= budget


@settings(max_examples=15, deadline=None)
@given(workload_profiles(), pipeline_configs())
def test_dualpath_equals_machine_on_random_programs(profile, config):
    program = generate_program(profile)
    predictor = make_predictor("gshare")
    simulator = EagerPipelineSimulator(
        program,
        predictor,
        config=config,
        estimators={"fork": JRSEstimator(table_size=256, threshold=12)},
        fork_on="fork",
    )
    result = simulator.run()
    golden = Machine(program)
    golden.run()
    assert simulator.machine.regs == golden.regs
    assert simulator.machine.memory == golden.memory
    assert result.stats.committed_instructions == golden.instructions_retired


def _gate_estimator(kind):
    if kind == "jrs":
        return JRSEstimator(table_size=256, threshold=7)
    if kind == "distance":
        return MispredictionDistanceEstimator(3)
    return BoostedEstimator(MispredictionDistanceEstimator(3), k=2)


@settings(max_examples=60, deadline=None)
@given(
    workload_profiles(),
    pipeline_configs(),
    st.sampled_from(("gate", "fork")),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(("jrs", "distance", "boosted")),
    st.sampled_from((None, 7, 60, 500)),
    st.sampled_from((None, 5, 40, 300)),
    st.sampled_from(("inorder", "ooo")),
)
def test_fused_gated_run_equals_per_cycle_gated_run(
    profile, config, policy, setting, estimator_kind, budget, pause, backend
):
    """The fused loop applies each speculation-control policy exactly
    as the per-cycle reference engine does -- the gate (``setting`` =
    threshold) and the dual-path fork (``setting`` = switch penalty),
    over either backend: same stats, same policy counters, same branch
    records and quadrants, same OoO rename state -- including an early
    ``max_instructions`` stop and a resume after a soft
    ``stop_instructions`` pause."""
    program = generate_program(profile)
    runs = []
    for fast in (False, True):
        predictor = make_predictor("gshare")
        estimators = {
            "other": JRSEstimator(table_size=64, threshold=3),
            "policy": _gate_estimator(estimator_kind),
        }
        if policy == "gate":
            simulator = GATED_SIMULATORS[backend](
                program,
                predictor,
                config=config,
                estimators=estimators,
                gate_on="policy",
                gate_threshold=setting,
                fast=fast,
            )
        else:
            simulator = EAGER_SIMULATORS[backend](
                program,
                predictor,
                config=config,
                estimators=estimators,
                fork_on="policy",
                fork_switch_penalty=setting,
                fast=fast,
            )
        if fast and pause is not None:
            # pause at a soft boundary, then resume to the same budget
            simulator.run(max_instructions=budget, stop_instructions=pause)
        runs.append((simulator, simulator.run(max_instructions=budget)))
    (slow_sim, slow), (fast_sim, fast) = runs
    assert dataclasses.asdict(slow.stats) == dataclasses.asdict(fast.stats)
    if policy == "gate":
        assert slow_sim.gated_cycles == fast_sim.gated_cycles
    else:
        assert (
            slow_sim.eager_forks,
            slow_sim.eager_covered,
            slow_sim.eager_wasted_slots,
        ) == (
            fast_sim.eager_forks,
            fast_sim.eager_covered,
            fast_sim.eager_wasted_slots,
        )
    assert slow.branch_records == fast.branch_records
    assert quadrant_tables(slow) == quadrant_tables(fast)
    assert_same_backend_state(slow_sim, fast_sim)
    assert slow_sim.machine.regs == fast_sim.machine.regs
    assert slow_sim.machine.memory == fast_sim.machine.memory
