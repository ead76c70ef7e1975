"""Out-of-order timing against answers worked out by hand.

The property suites prove the two engines agree with each other; these
tests prove they agree with first principles.  Each runs a tiny
hand-assembled program (targeted microbenchmarks with known outcomes,
the method of the Firestorm/Oryon dissection in PAPERS.md) on both
engines and checks the dispatch and completion cycles of every
instruction.

The machine is set up so that the answers are exact: ``resolve_stage``
is 1, so an entry's ready cycle *is* its completion cycle (completion
is at least two cycles after dispatch); the I-cache line holds a whole
fetch group and a miss costs no extra cycles.  Under that geometry an
instruction dispatched in cycle ``d`` wakes up at ``d + 1`` at the
earliest, issues in the first cycle from its wakeup with a free slot,
and completes one cycle later (``cache_hit_latency`` later for a load
or store).
"""

import pytest

from repro.isa import assemble
from repro.isa.instructions import NUM_REGISTERS
from repro.pipeline import (
    DEPTH_HISTOGRAM_KEY,
    CacheConfig,
    OutOfOrderSimulator,
    PipelineConfig,
)
from repro.predictors import GsharePredictor

ENGINES = pytest.mark.parametrize("fast", (False, True), ids=("reference", "fused"))


def simulator(source, fast, issue_width=8, cache_hit_latency=2):
    config = PipelineConfig(
        fetch_width=8,
        commit_width=8,
        resolve_stage=1,
        cache_hit_latency=cache_hit_latency,
        icache=CacheConfig(size_words=64, line_words=8, miss_penalty=0),
    )
    return OutOfOrderSimulator(
        assemble(source),
        GsharePredictor(),
        config=config,
        fast=fast,
        window=32,
        issue_width=issue_width,
    )


def timeline(sim, cycles):
    """``{sequence: (dispatch cycle, ready cycle)}`` of everything fetched
    in the first ``cycles`` cycles, observed at cycle boundaries (where
    ``run(max_cycles=...)`` stops on either engine)."""
    seen = {}
    for cycle in range(cycles):
        sim.run(max_cycles=cycle + 1)
        for entry in sim._inflight:
            if entry.sequence not in seen:
                seen[entry.sequence] = (cycle, entry.ready_cycle)
    return seen


def assert_free_list_conserved(sim):
    """Every physical register is mapped, free or held by exactly one
    in-flight writer."""
    mapped = list(sim._rename_map)
    free = list(sim._free_regs)
    held = [new for __, new, __ in sim._rename_of.values()]
    everything = mapped + free + held
    assert len(everything) == len(set(everything))
    assert set(everything) == set(range(NUM_REGISTERS + sim.config.window))


CHAIN = "addi r1, r0, 1\n" + "addi r1, r1, 1\n" * 7 + "halt\n"


@ENGINES
def test_dependent_chain_serialises(fast):
    # eight addi, each reading the previous one's result, fetched in
    # one group: the i-th completes at d + 2 + i, so the chain spans
    # N + 1 cycles from the first dispatch to the last completion
    sim = simulator(CHAIN, fast)
    seen = timeline(sim, 20)
    dispatch = seen[0][0]
    assert [seen[i][0] for i in range(8)] == [dispatch] * 8
    assert [seen[i][1] for i in range(8)] == [dispatch + 2 + i for i in range(8)]
    assert seen[7][1] - dispatch >= 8
    sim.run()
    assert sim.machine.regs[1] == 8
    assert_free_list_conserved(sim)


INDEPENDENT = "".join(f"addi r{reg}, r0, {reg}\n" for reg in range(1, 9)) + "halt\n"


@ENGINES
@pytest.mark.parametrize("issue_width", (1, 2, 3, 8))
def test_independent_ops_issue_at_issue_width(fast, issue_width):
    # eight independent addi fetched together all wake up at d + 1;
    # the issue port takes issue_width of them per cycle, oldest first
    sim = simulator(INDEPENDENT, fast, issue_width=issue_width)
    seen = timeline(sim, 20)
    dispatch = seen[0][0]
    completions = [seen[i][1] for i in range(8)]
    assert completions == [dispatch + 2 + i // issue_width for i in range(8)]
    for cycle in set(completions):
        assert completions.count(cycle) <= issue_width


MEMORY = """
        lw   r1, 0(r0)
        addi r2, r1, 1
        sw   r0, 4(r0)
        addi r3, r0, 1
        halt
"""


@ENGINES
def test_load_completes_after_the_hit_latency(fast):
    # dispatched together in cycle d: the load and the store issue at
    # d + 1 and complete cache_hit_latency later; the load's consumer
    # wakes up then; the independent addi and the halt are unaffected
    latency = 3
    sim = simulator(MEMORY, fast, cache_hit_latency=latency)
    seen = timeline(sim, 20)
    d = seen[0][0]
    assert [seen[i][0] for i in range(5)] == [d] * 5
    assert [seen[i][1] for i in range(5)] == [
        d + 1 + latency,  # lw
        d + 2 + latency,  # addi r2, r1, 1
        d + 1 + latency,  # sw
        d + 2,  # addi r3, r0, 1
        d + 2,  # halt
    ]


# The bne is taken, but a cold gshare predicts not taken: fetch runs
# down the fall-through path (four writers and a halt) until the
# branch, waiting on the seven-long r1 chain, resolves.
MISPREDICT = (
    "addi r1, r0, 1\n"
    + "addi r1, r1, 1\n" * 6
    + """
        bne  r1, r0, right
        addi r2, r0, 5
        addi r3, r2, 1
        addi r4, r3, 1
        addi r2, r2, 1
        halt
right:  halt
"""
)
BRANCH = 7  # sequence number of the bne
WRONG_PATH = 5  # instructions fetched down the fall-through path


@ENGINES
def test_mispredict_squashes_exactly_the_younger_entries(fast):
    sim = simulator(MISPREDICT, fast)
    map_at_branch = None
    younger = None
    cycle = 0
    while not sim.stats.squashed_instructions:
        younger = sum(entry.sequence > BRANCH for entry in sim._inflight)
        sim.run(max_cycles=cycle + 1)
        cycle += 1
        if map_at_branch is None and any(
            entry.sequence == BRANCH for entry in sim._inflight
        ):
            # the branch ends its fetch group: this is the map it saw
            map_at_branch = list(sim._rename_map)
        assert cycle < 50, "the branch never resolved"
    assert younger == WRONG_PATH
    assert sim.stats.squashed_instructions == WRONG_PATH
    assert sim.stats.extra[DEPTH_HISTOGRAM_KEY] == {WRONG_PATH: 1}
    # the rollback leaves the map as the branch saw it, nothing in
    # flight holds a register, and every register is accounted for
    assert sim._rename_map == map_at_branch
    assert sim._rename_of == {}
    assert_free_list_conserved(sim)
    sim.run()
    assert sim.stats.committed_instructions == BRANCH + 2  # chain, bne, halt
    assert sim.machine.regs[2:5] == [0, 0, 0]
    assert_free_list_conserved(sim)
