"""RunContext: the one bundle a run threads through the whole stack.

Before this existed, every layer grew its own ad-hoc keyword arguments —
``rng=`` here, ``executor=`` there, fault wiring done by hand — and the
set drifted between :func:`~repro.experiments.common.build_setup`,
:func:`~repro.experiments.common.evaluate_modes`,
:class:`~repro.defense.pipeline.DefensePipeline` and friends.  A
:class:`RunContext` carries the four cross-cutting facilities together:

* ``telemetry`` — the observability hub (:mod:`repro.obs.telemetry`),
* ``rng`` — the run's master generator (seed-derived when absent),
* ``executor`` — the client-execution engine (:mod:`repro.fl.executor`),
* ``fault_model`` — client unreliability (:mod:`repro.fl.faults`);
  constructing the context points the model's draw events at the
  context's telemetry, so every injected fault lands in the stream.

Entry points accept ``context=`` and fall back to the *ambient* context
(:func:`current_context`, installed by :func:`use_context` — which
:func:`~repro.experiments.registry.run_experiment` wraps around every
runner), so experiment modules do not need a ``context`` parameter
threaded through each signature.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .telemetry import Telemetry, ensure_telemetry

if TYPE_CHECKING:  # typing only: obs must not import fl at runtime
    from ..fl.executor import ClientExecutor
    from ..fl.faults import FaultModel
    from ..persist.checkpoint import CheckpointManager
    from ..persist.watchdog import DivergenceWatchdog

__all__ = [
    "RunContext",
    "current_context",
    "use_context",
]


class RunContext:
    """Telemetry + rng + executor + fault model + durability, bundled.

    Every field is optional: ``RunContext()`` is a valid "plain run"
    context (null telemetry, serial execution, reliable clients, no
    shared generator, no checkpointing).

    Durability fields (see :mod:`repro.persist`):

    * ``checkpoint`` — a :class:`~repro.persist.checkpoint.CheckpointManager`
      owning the run's snapshot directory; ``None`` disables persistence.
    * ``checkpoint_every`` — snapshot cadence in rounds.
    * ``resume`` — start from the newest verifiable snapshot instead of
      round zero (a no-op when no snapshot exists yet, so the same flag
      works for both the first attempt and every retry).
    * ``watchdog`` — a :class:`~repro.persist.watchdog.DivergenceWatchdog`
      guarding the round loop against non-finite/exploding aggregates
      and accuracy collapse.

    Observability fields (see :mod:`repro.obs.profile`):

    * ``profile`` — opt into per-layer forward/backward profiling: the
      entry points that run models (``DefensePipeline``,
      ``FederatedServer`` via ``build_setup``, ``NeuralCleanse``) wrap
      their model work in a :class:`~repro.obs.profile.LayerProfiler`,
      and aggregated ``profile.forward``/``profile.backward`` records
      land in the telemetry stream.  Off by default and effectively
      free when off.
    """

    def __init__(
        self,
        telemetry: Telemetry | None = None,
        rng: np.random.Generator | None = None,
        executor: "ClientExecutor | None" = None,
        fault_model: "FaultModel | None" = None,
        checkpoint: "CheckpointManager | None" = None,
        checkpoint_every: int = 1,
        resume: bool = False,
        watchdog: "DivergenceWatchdog | None" = None,
        profile: bool = False,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.telemetry = ensure_telemetry(telemetry)
        self.rng = rng
        self.executor = executor
        self.fault_model = fault_model
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        self.resume = resume
        self.watchdog = watchdog
        self.profile = bool(profile)
        if fault_model is not None:
            # fault draws become stream events (see FaultyClient.plan_*)
            fault_model.telemetry = self.telemetry

    def __repr__(self) -> str:
        parts = [f"telemetry={type(self.telemetry).__name__}"]
        if self.rng is not None:
            parts.append("rng=<set>")
        if self.executor is not None:
            parts.append(f"executor={self.executor!r}")
        if self.fault_model is not None:
            parts.append("fault_model=<set>")
        if self.checkpoint is not None:
            parts.append(f"checkpoint={self.checkpoint!r}")
            if self.resume:
                parts.append("resume=True")
        if self.watchdog is not None:
            parts.append(f"watchdog={self.watchdog!r}")
        if self.profile:
            parts.append("profile=True")
        return f"RunContext({', '.join(parts)})"


# the ambient-context stack; a plain list because the simulator's
# coordinator is single-threaded by design (see repro.obs.telemetry)
_CONTEXT_STACK: list[RunContext] = []

_DEFAULT_CONTEXT = RunContext()


def current_context() -> RunContext:
    """The innermost ambient context (a shared plain one by default)."""
    return _CONTEXT_STACK[-1] if _CONTEXT_STACK else _DEFAULT_CONTEXT


@contextmanager
def use_context(context: RunContext | None) -> Iterator[RunContext]:
    """Install ``context`` as the ambient run context for a block.

    ``None`` re-installs a plain context (isolating the block from any
    outer ambient context rather than inheriting it).
    """
    context = context if context is not None else RunContext()
    _CONTEXT_STACK.append(context)
    try:
        yield context
    finally:
        _CONTEXT_STACK.pop()
