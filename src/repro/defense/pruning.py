"""Server-side federated pruning loop (Algorithm 1, "Federated Pruning").

Given a global pruning sequence (from RAP or MVP aggregation), the
server prunes channels one by one, re-evaluating validation accuracy
after each, and stops just before accuracy would fall below a
threshold.  Two accuracy oracles are supported:

* a **server validation set** (the common case in the paper), and
* **client feedback** — when the server has no validation data it asks
  clients for local accuracy under each candidate pruning depth and
  aggregates their reports robustly (median, so a minority of lying
  attackers cannot steer the stopping point).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..data.dataset import Dataset
from ..eval.metrics import AccuracyEvaluator
from ..fl.executor import ClientExecutor, collect_reports
from ..nn.layers import Conv2d, Linear, Sequential
from ..obs.telemetry import Telemetry, ensure_telemetry

__all__ = ["PruningResult", "prune_by_sequence", "client_feedback_accuracy"]


class PruningResult:
    """Outcome of a federated pruning run.

    Attributes
    ----------
    pruned_channels:
        Channel ids pruned, in pruning order.
    accuracy_trace:
        Validation accuracy after each successive prune (same length as
        ``pruned_channels``); entry k is accuracy with k+1 channels gone.
    baseline_accuracy:
        Accuracy before any pruning.
    stopped_early:
        True when the threshold stopped the loop before the sequence ran out.
    """

    def __init__(
        self,
        pruned_channels: list[int],
        accuracy_trace: list[float],
        baseline_accuracy: float,
        stopped_early: bool,
    ) -> None:
        self.pruned_channels = pruned_channels
        self.accuracy_trace = accuracy_trace
        self.baseline_accuracy = baseline_accuracy
        self.stopped_early = stopped_early

    @property
    def num_pruned(self) -> int:
        return len(self.pruned_channels)

    def to_jsonable(self) -> dict:
        """A plain-JSON form for checkpoint metadata."""
        return {
            "pruned_channels": [int(c) for c in self.pruned_channels],
            "accuracy_trace": [float(a) for a in self.accuracy_trace],
            "baseline_accuracy": float(self.baseline_accuracy),
            "stopped_early": bool(self.stopped_early),
        }

    @classmethod
    def from_jsonable(cls, record: dict) -> "PruningResult":
        """Rebuild a result from :meth:`to_jsonable` output."""
        return cls(
            [int(c) for c in record["pruned_channels"]],
            [float(a) for a in record["accuracy_trace"]],
            float(record["baseline_accuracy"]),
            bool(record["stopped_early"]),
        )

    def __repr__(self) -> str:
        return (
            f"PruningResult(num_pruned={self.num_pruned}, "
            f"baseline={self.baseline_accuracy:.3f}, "
            f"stopped_early={self.stopped_early})"
        )


def prune_by_sequence(
    model: Sequential,
    layer: Conv2d | Linear,
    prune_order: Sequence[int],
    accuracy_fn: Callable[[Sequential], float],
    accuracy_drop_threshold: float = 0.01,
    max_prune_fraction: float = 0.9,
    telemetry: Telemetry | None = None,
) -> PruningResult:
    """Prune channels in ``prune_order`` until accuracy degrades.

    Follows Algorithm 1: prune the next channel, measure accuracy, and
    undo + stop as soon as accuracy falls more than
    ``accuracy_drop_threshold`` below the *pre-pruning* baseline.  At
    most ``max_prune_fraction`` of the layer's channels are removed so
    the layer is never fully destroyed even with a generous threshold.

    The model is modified in place (mask + zeroed weights); the returned
    trace records the accepted accuracy after every kept prune.

    ``telemetry`` records one ``defense.prune_iter`` span per attempted
    channel (attrs: channel, accuracy, kept) so the stream shows where
    the stopping rule fired.
    """
    if not 0.0 <= accuracy_drop_threshold <= 1.0:
        raise ValueError(
            f"accuracy_drop_threshold must be in [0, 1], "
            f"got {accuracy_drop_threshold}"
        )
    if not 0.0 < max_prune_fraction <= 1.0:
        raise ValueError(
            f"max_prune_fraction must be in (0, 1], got {max_prune_fraction}"
        )
    num_channels = layer.out_mask.size
    order = [int(c) for c in prune_order]
    if sorted(set(order)) != sorted(order) or any(
        not 0 <= c < num_channels for c in order
    ):
        raise ValueError("prune_order must contain unique valid channel ids")

    tel = ensure_telemetry(telemetry)
    baseline = accuracy_fn(model)
    floor = baseline - accuracy_drop_threshold
    budget = int(np.floor(max_prune_fraction * num_channels))

    pruned: list[int] = []
    trace: list[float] = []
    stopped_early = False
    for channel in order:
        if len(pruned) >= budget:
            break
        if not layer.out_mask[channel]:
            continue  # already pruned by an earlier pass
        with tel.span("defense.prune_iter", channel=channel) as iter_span:
            layer.out_mask[channel] = False
            accuracy = accuracy_fn(model)
            kept = accuracy >= floor
            iter_span.set(accuracy=accuracy, kept=kept)
        if not kept:
            layer.out_mask[channel] = True  # undo and stop
            stopped_early = True
            break
        pruned.append(channel)
        trace.append(accuracy)

    tel.count("defense.channels_pruned", len(pruned))
    layer.apply_mask()
    return PruningResult(pruned, trace, baseline, stopped_early)


def client_feedback_accuracy(
    clients: Sequence,
    model: Sequential,
    executor: ClientExecutor | None = None,
    telemetry: Telemetry | None = None,
) -> float:
    """Robust accuracy oracle from client self-reports.

    Takes the median of per-client accuracy reports, so fewer than half
    the clients lying (attackers report 1.0, see
    :meth:`MaliciousClient.accuracy_report`) cannot move the estimate
    past the honest majority.  Clients that fail to report
    (:class:`~repro.fl.faults.ClientDropout`) are simply left out of the
    median; when nobody reports the oracle raises.

    ``executor`` fans report computation out in parallel (see
    :mod:`repro.fl.executor`); ``None`` runs clients serially.
    """
    outcomes = collect_reports(
        executor, clients, model, "accuracy", telemetry=telemetry
    )
    reports = [value for status, value in outcomes if status == "ok"]
    if not reports:
        raise ValueError("need at least one client report")
    return float(np.median(reports))


def server_validation_accuracy(
    validation: Dataset, batch_size: int = 256
) -> AccuracyEvaluator:
    """Accuracy oracle over a server-held validation set.

    An :class:`~repro.eval.metrics.AccuracyEvaluator`: FP and AW edit
    only the target layer, so each oracle call after the first resumes
    at that layer's stored input (or returns the stored accuracy when
    nothing changed), bitwise equal to a full ``test_accuracy`` pass.
    """
    return AccuracyEvaluator(validation, batch_size)
