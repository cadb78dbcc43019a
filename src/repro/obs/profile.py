"""Opt-in per-layer forward/backward profiling over telemetry spans.

Fine-Pruning profiles a *model's* activations to find dormant channels;
this module turns the same instinct on our own runtime: where inside
the network does a cleansing run spend its compute, and how many array
bytes flow through each layer?  :class:`LayerProfiler` hooks the two
places every layer call funnels through —
:meth:`repro.nn.module.Module.__call__` for forward and the
:class:`~repro.nn.layers.Sequential` backward chain — via the global
profile hook (:func:`repro.nn.module.set_profile_hook`).

Contracts, in order of importance:

* **Off by default, effectively free when off.**  The hooks cost one
  module-global load and an identity check per layer call when no
  profiler is installed (gated <2% in ``tests/obs/test_profile.py``).
* **Observation only.**  The profiler times and counts; the arrays that
  flow through it are returned untouched, so a profiled run is bitwise
  identical to an unprofiled one.
* **NullTelemetry-safe.**  Aggregated per-layer records flush through
  ``telemetry.record_span`` on detach; under the null hub they vanish
  for free and the in-memory :attr:`LayerProfiler.stats` table is still
  available to the caller.

Aggregation is per layer *structure* — class name plus parameter (or
activation) shape — rather than per instance, so the per-task model
clones the executors create all fold into one row per architectural
layer.  Enable it for a whole run with
``RunContext(profile=True)``: :class:`~repro.defense.pipeline.DefensePipeline`,
:class:`~repro.fl.server.FederatedServer` (via ``build_setup``) and
:class:`~repro.baselines.neural_cleanse.NeuralCleanse` all wrap their
model work in :func:`maybe_profile`.  Worker processes never see the
coordinator's hook, so process-pool client work is not profiled —
profile under the serial executor for full coverage.  The megabatch
engine needs no such care: while a profiler is installed it trains
every wave in the coordinator instead of splitting it with workers.
"""

from __future__ import annotations

import io
import time
from typing import Callable

from ..nn.module import get_profile_hook, set_profile_hook
from .telemetry import Telemetry, ensure_telemetry

__all__ = ["LayerProfiler", "maybe_profile", "render_profile"]


class _NullProfile:
    """Context manager standing in for a disabled profiler."""

    __slots__ = ()
    active = False
    stats: dict = {}

    def __enter__(self) -> "_NullProfile":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_PROFILE = _NullProfile()


def _layer_key(module, out) -> str:
    """Stable per-structure label: class name + defining shape.

    Parameterised layers are keyed on their first parameter's shape
    (``Conv2d(8,1,3,3)``) without a megabatch wave's leading client
    axis, so a wave of any size lands in the serial row.
    Parameter-free layers are keyed on the *output* shape they
    produce, batch dimension excluded (``ReLU(8,4,4)``) — which tells
    the two ReLUs of a CNN apart without depending on object identity,
    so executor-made model clones aggregate into one row.
    The output shape (not input) is the anchor because it is the one
    shape forward and backward agree on: the gradient entering a
    layer's backward has that layer's output shape, so both directions
    land in the same row with no per-instance bookkeeping (object ids
    are reused across short-lived clones and cannot be trusted).
    """
    for value in vars(module).values():
        if hasattr(value, "data") and hasattr(value, "grad"):
            shape = value.data.shape
            if getattr(value, "stacked", False):
                shape = shape[1:]  # a megabatch wave's client axis
            break
    else:
        shape = getattr(out, "shape", ())[1:]
    inner = ",".join(str(dim) for dim in shape)
    return f"{type(module).__name__}({inner})"


class LayerProfiler:
    """Per-layer timing and byte accounting for one profiled region.

    Use as a context manager::

        with LayerProfiler(telemetry) as prof:
            model(x); model.backward(grad)
        prof.stats  # {"Conv2d(8,1,3,3)": {"forward_calls": ..., ...}}

    On exit the profiler restores the previous hook and flushes one
    ``profile.forward`` (and, where backward ran, ``profile.backward``)
    span per layer key into the telemetry stream, carrying call counts
    and array bytes.  Only one profiler can own the global hook at a
    time; entering a second one inside an active region is a no-op
    (``active`` stays False) and the outer profiler keeps collecting —
    so nested ``maybe_profile`` wiring in the pipeline never
    double-counts.

    Containers (modules with child modules) are passed through
    untimed: their children are what the table should show, and timing
    both would double-count every nested second.
    """

    def __init__(
        self,
        telemetry: Telemetry | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.telemetry = ensure_telemetry(telemetry)
        self._clock = clock
        self.stats: dict[str, dict] = {}
        self.active = False

    # -- hook protocol (called from nn.module / nn.layers) --------------

    def profiled_forward(self, module, x):
        if next(module.children(), None) is not None:
            return module.forward(x)
        start = self._clock()
        out = module.forward(x)
        elapsed = self._clock() - start
        entry = self._entry(_layer_key(module, out))
        entry["forward_calls"] += 1
        entry["forward_seconds"] += elapsed
        entry["input_bytes"] += getattr(x, "nbytes", 0)
        entry["output_bytes"] += getattr(out, "nbytes", 0)
        return out

    def profiled_backward(self, module, grad_output):
        if next(module.children(), None) is not None:
            return module.backward(grad_output)
        start = self._clock()
        grad_input = module.backward(grad_output)
        self._record_backward(module, grad_output, self._clock() - start)
        return grad_input

    def profiled_weight_backward(self, module, grad_output) -> None:
        """Time ``module.backward(grad_output, input_grad=False)``.

        :meth:`Sequential.backward <repro.nn.layers.Sequential.backward>`
        calls this for a first layer whose input gradient the caller
        discards; it lands in the same row as :meth:`profiled_backward`.
        """
        start = self._clock()
        module.backward(grad_output, input_grad=False)
        elapsed = self._clock() - start
        self._record_backward(module, grad_output, elapsed)

    def _record_backward(self, module, grad_output, elapsed: float) -> None:
        entry = self._entry(_layer_key(module, grad_output))
        entry["backward_calls"] += 1
        entry["backward_seconds"] += elapsed
        entry["grad_bytes"] += getattr(grad_output, "nbytes", 0)

    def _entry(self, key: str) -> dict:
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = {
                "forward_calls": 0,
                "forward_seconds": 0.0,
                "backward_calls": 0,
                "backward_seconds": 0.0,
                "input_bytes": 0,
                "output_bytes": 0,
                "grad_bytes": 0,
            }
        return entry

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "LayerProfiler":
        if get_profile_hook() is not None:
            # an outer profiler owns the hook; stay passive so nested
            # maybe_profile regions never double-count a layer call
            return self
        set_profile_hook(self)
        self.active = True
        return self

    def __exit__(self, *exc_info) -> None:
        if not self.active:
            return
        self.active = False
        set_profile_hook(None)
        self.flush()

    def flush(self) -> None:
        """Emit the aggregated per-layer records as telemetry spans.

        One ``profile.forward`` span per layer key (sorted, so the
        stream order is deterministic), plus a ``profile.backward``
        span for layers that ran a backward pass.  Durations are the
        accumulated layer seconds; attrs carry calls and bytes.
        """
        tel = self.telemetry
        for key in sorted(self.stats):
            entry = self.stats[key]
            tel.record_span(
                "profile.forward",
                entry["forward_seconds"],
                layer=key,
                calls=entry["forward_calls"],
                input_bytes=entry["input_bytes"],
                output_bytes=entry["output_bytes"],
            )
            if entry["backward_calls"]:
                tel.record_span(
                    "profile.backward",
                    entry["backward_seconds"],
                    layer=key,
                    calls=entry["backward_calls"],
                    grad_bytes=entry["grad_bytes"],
                )

    def render(self) -> str:
        return render_profile(self.stats)

    def __repr__(self) -> str:
        return f"LayerProfiler(layers={len(self.stats)}, active={self.active})"


def maybe_profile(
    context=None,
    telemetry: Telemetry | None = None,
    enabled: bool | None = None,
) -> LayerProfiler | _NullProfile:
    """A :class:`LayerProfiler` when profiling is on, else a free no-op.

    ``enabled`` defaults to the context's ``profile`` flag (the ambient
    :func:`~repro.obs.context.current_context` when no context is
    given); ``telemetry`` defaults to the context's hub.  This is the
    one-liner the pipeline/server/NC entry points wrap their model work
    in — with profiling off it costs a single attribute check.
    """
    if enabled is None or telemetry is None:
        if context is None:
            from .context import current_context

            context = current_context()
        if enabled is None:
            enabled = bool(getattr(context, "profile", False))
        if telemetry is None:
            telemetry = getattr(context, "telemetry", None)
    if not enabled:
        return _NULL_PROFILE
    return LayerProfiler(telemetry)


def render_profile(stats: dict[str, dict]) -> str:
    """A per-layer text table over :attr:`LayerProfiler.stats`-shaped
    dicts (also used by ``scripts/trace.py profile`` on stream records)."""
    if not stats:
        return "(no profiled layer calls)\n"
    out = io.StringIO()
    width = max(len(name) for name in stats)
    out.write(
        f"  {'layer':<{width}}  {'fwd':>9}  {'calls':>6}"
        f"  {'bwd':>9}  {'calls':>6}  {'MB moved':>9}\n"
    )
    ordered = sorted(
        stats.items(),
        key=lambda kv: kv[1]["forward_seconds"] + kv[1]["backward_seconds"],
        reverse=True,
    )
    for name, entry in ordered:
        moved = (
            entry["input_bytes"] + entry["output_bytes"] + entry["grad_bytes"]
        ) / 1e6
        out.write(
            f"  {name:<{width}}  {entry['forward_seconds']:>8.3f}s"
            f"  {entry['forward_calls']:>6}"
            f"  {entry['backward_seconds']:>8.3f}s"
            f"  {entry['backward_calls']:>6}  {moved:>9.1f}\n"
        )
    return out.getvalue()
