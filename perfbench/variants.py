"""Seeded input variants of the suite's workload profiles.

The benchmark's seed picks one of ``VARIANTS`` input sets.  Variant 0
is the suite as shipped; every other variant derives each profile's
``data_seed`` (generator-side array contents) and ``lcg_seed`` (the
program's own random stream) from the variant number, keeping every
site, guard and iteration count.  The input space is kept finite so
that every variant has a recorded report digest to check against.
"""

from __future__ import annotations

import dataclasses
import random

VARIANTS = 16


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def derive(profile, variant: int):
    """``profile`` with its two seeds derived from ``variant``."""
    if variant == 0:
        return profile
    rng = random.Random(f"perfbench:{profile.name}:{variant}")
    return dataclasses.replace(
        profile,
        data_seed=rng.randrange(1, 2**31),
        lcg_seed=rng.randrange(1, 2**31),
    )


def register(variant: int) -> None:
    """Make this process's profile lookups return ``variant``'s profiles.

    Call before the program resolves any profile: its in-process memos
    (program, trace, fingerprint) are keyed by workload name.
    """
    from repro.workloads import profiles

    for name, factory in list(profiles._FACTORIES.items()):
        profiles._FACTORIES[name] = (
            lambda factory=factory: derive(factory(), variant)
        )
