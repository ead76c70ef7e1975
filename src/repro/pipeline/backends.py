"""Pipeline backend registry: the execution model as a dimension.

The speculative *front end* -- fetch, branch prediction, confidence
tagging, wrong-path execution, speculation control (the gating and
dual-path policies, plain data both engines read), the fused loop over
decoded programs -- lives in
:class:`~repro.pipeline.core.PipelineSimulator` and is shared by every
backend.  A **backend** supplies the execution model behind it: how
instructions occupy the in-flight window, when branches resolve, and
how squash recovery restores machine state.

Backends plug in by subclassing :class:`PipelineSimulator` and
overriding the three backend hooks of :class:`PipelineBackend` below.
Two ship with the repository:

``inorder``
    :class:`~repro.pipeline.core.PipelineSimulator` itself -- the
    5-stage in-order core every paper figure was validated on.  It is
    the default everywhere and its output is golden: the CI smoke legs
    byte-compare it against the committed report.

``ooo``
    :class:`~repro.pipeline.ooo.OutOfOrderSimulator` -- the R10K-style
    out-of-order core (register rename + active list, issue queue,
    configurable in-flight window, squash-on-mispredict).

A speculation simulator (``GatedOutOfOrderSimulator``,
``EagerOutOfOrderSimulator``) mixes a backend class with a class that
only sets policy data, so either policy composes with any backend.

The backend name travels with :class:`~repro.harness.experiments.Scale`
through the CLI (``--backend``), the artifact cache keys, the DAG
planner, segment snapshots and checkpoint fingerprints -- sweepable
exactly like predictor choice.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Protocol, Tuple, Type

from ..confidence.base import ConfidenceEstimator
from ..isa import Program
from ..predictors.base import BranchPredictor
from .config import PipelineConfig
from .core import PipelineResult, PipelineSimulator
from .decode import DecodedProgram
from .ooo import OutOfOrderSimulator

#: Name of the backend used when none is requested.
DEFAULT_BACKEND = "inorder"


class PipelineBackend(Protocol):
    """The surface a pipeline backend implements.

    :class:`~repro.pipeline.core.PipelineSimulator` provides the
    in-order reference implementation of every method; a backend
    subclass overrides the timing-model subset it changes.  Only the
    reference engine (``step_cycle``) calls the hooks.  The fused loop
    (``run`` on a simulator holding a decoded program) inlines the
    bodies of both shipped backends -- the in-order no-ops and the
    out-of-order rename/issue, register free and rollback -- so any
    other backend that overrides a hook must be built with
    ``fast=False``.
    """

    def wants_fetch(self) -> bool:
        """Would the pipeline accept a fetch slot this cycle?"""

    def step_cycle(self, fetch_allowed: bool = True) -> None:
        """Advance one cycle: commit/resolve, then optionally fetch."""

    def run(self, max_cycles: int = 10_000_000,
            max_instructions: Optional[int] = None,
            stop_instructions: Optional[int] = None) -> PipelineResult:
        """Simulate to halt, a budget, or a soft segment boundary."""

    def result(self) -> PipelineResult:
        """Snapshot stats/records/quadrants (usable mid-simulation)."""

    # -- backend timing hooks ------------------------------------------

    def _dispatch(self, entry, inst) -> None:
        """An instruction entered the window at fetch (may re-time
        ``entry.ready_cycle``; the OoO backend renames/issues here)."""

    def _retire_entry(self, entry) -> None:
        """An instruction left the window at commit (the OoO backend
        releases rename resources here)."""

    def _recover_from(self, entry) -> None:
        """Squash younger work after a detected misprediction and
        restart fetch on the correct path."""


#: Registered backend name -> simulator class.
BACKENDS: Dict[str, Type[PipelineSimulator]] = {
    "inorder": PipelineSimulator,
    "ooo": OutOfOrderSimulator,
}

#: Stable listing order for CLI choices and documentation.
BACKEND_NAMES: Tuple[str, ...] = tuple(sorted(BACKENDS))


def register_backend(name: str, simulator: Type[PipelineSimulator]) -> None:
    """Register an additional backend (scenario packs, tests)."""
    if not name or not name.isidentifier():
        raise ValueError(f"backend name must be an identifier, got {name!r}")
    existing = BACKENDS.get(name)
    if existing is not None and existing is not simulator:
        raise ValueError(f"backend {name!r} is already registered")
    if not (isinstance(simulator, type)
            and issubclass(simulator, PipelineSimulator)):
        raise TypeError(
            f"backend {name!r} must be a PipelineSimulator subclass, "
            f"got {simulator!r}"
        )
    BACKENDS[name] = simulator


def normalize_backend(backend: Optional[str]) -> str:
    """Map ``None``/empty to the default and validate the name."""
    name = backend or DEFAULT_BACKEND
    if name not in BACKENDS:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown pipeline backend {name!r} (known: {known})")
    return name


def create_simulator(
    program: Program,
    predictor: BranchPredictor,
    backend: Optional[str] = None,
    config: Optional[PipelineConfig] = None,
    estimators: Optional[Mapping[str, ConfidenceEstimator]] = None,
    decoded: Optional[DecodedProgram] = None,
    fast: Optional[bool] = None,
) -> PipelineSimulator:
    """Construct a simulator for ``backend`` (default ``inorder``)."""
    simulator_class = BACKENDS[normalize_backend(backend)]
    return simulator_class(
        program,
        predictor,
        config=config,
        estimators=estimators,
        decoded=decoded,
        fast=fast,
    )
