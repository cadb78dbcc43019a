"""The full defense pipeline: FP -> (FT) -> AW, with per-stage timing.

This is the paper's complete post-training cleansing procedure
(Algorithm 1), orchestrated server-side:

1. **Federated Pruning** — collect ranking (RAP) or vote (MVP) reports
   from every client, aggregate into a global pruning sequence, and
   prune until validation accuracy would drop.
2. **Fine-tuning** (optional, the paper's "All" mode) — a few more
   FedAvg rounds on the pruned model to recover benign accuracy.
3. **Adjusting extreme Weights** — sweep the delta threshold downward,
   zeroing last-conv weights outside mu ± delta sigma.

Per-stage wall-clock times are recorded for the Fig 9 energy study.

The report-collection stages are hardened against unreliable clients:
a client that fails to report (:class:`~repro.fl.faults.ClientDropout`)
is skipped for the stage, a malformed ranking/vote report is discarded
and counted as a strike, and a client accumulating
``max_report_strikes`` strikes is quarantined — excluded from every
subsequent stage, fine-tuning included.  Both RAP and MVP aggregate
*whatever well-formed reports arrived* (see
:mod:`repro.defense.ranking`), so the pipeline proceeds on the
surviving quorum and raises only when fewer than ``min_report_quorum``
valid reports remain.  All such events are logged on
``DefensePipeline.events``.

The pipeline is also crash-safe: when its
:class:`~repro.obs.context.RunContext` carries a
:class:`~repro.persist.checkpoint.CheckpointManager`, a snapshot is
written after every completed stage (and per fine-tuning round), and
``context.resume`` restarts the pipeline after the last completed
stage instead of from scratch.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..eval.timers import StageTimer
from ..fl.executor import collect_reports
from ..nn.layers import Conv2d, Linear, Sequential
from ..nn.serialization import apply_model_state, pack_model_state
from ..obs.context import RunContext
from ..obs.profile import maybe_profile
from ..persist.checkpoint import CheckpointManager, Snapshot
from ..persist.state import (
    DELTA_PREFIX,
    capture_client_states,
    restore_client_states,
    shared_fault_model,
)
from .adjust_weights import AdjustResult, adjust_extreme_weights
from .fine_tune import FineTuneResult, federated_fine_tune
from .pruning import PruningResult, prune_by_sequence
from .ranking import (
    mvp_prune_order,
    rap_prune_order,
    validate_ranking_report,
    validate_vote_report,
)

__all__ = ["DefenseConfig", "DefenseReport", "DefensePipeline"]

# the "defense" snapshot step doubles as the stage cursor: a snapshot at
# step k means stages 1..k are complete and must not be recomputed
_STAGE_PRUNED = 1
_STAGE_FINE_TUNED = 2
_STAGE_ADJUSTED = 3


class DefenseConfig:
    """Hyper-parameters for the full pipeline.

    Parameters
    ----------
    method:
        "rap" or "mvp" — which federated pruning protocol to run.
    prune_rate:
        MVP vote budget (fraction of channels each client nominates);
        the paper reports 30–70% works well.  Ignored by RAP.
    accuracy_drop_threshold:
        Pruning stops before validation accuracy falls more than this
        below baseline (paper uses ~1%).
    fine_tune:
        Whether to run the optional fine-tuning stage ("All" mode).
    fine_tune_rounds, fine_tune_patience:
        Fine-tuning budget and early-stop patience.
    aw_floor_drop, aw_delta_start, aw_delta_step, aw_delta_min:
        Adjust-extreme-weights sweep schedule.
    max_report_strikes:
        Quarantine a client after this many malformed ranking/vote
        reports; ``None`` disables quarantine.
    min_report_quorum:
        Minimum well-formed reports needed to aggregate a pruning
        order (an absolute count, or a float fraction of the active
        clients); below it the stage raises rather than prune from
        too little signal.  Also the quorum handed to the fine-tuning
        stage.
    """

    def __init__(
        self,
        method: str = "mvp",
        prune_rate: float = 0.5,
        accuracy_drop_threshold: float = 0.01,
        max_prune_fraction: float = 0.9,
        fine_tune: bool = True,
        fine_tune_rounds: int = 10,
        fine_tune_patience: int = 3,
        aw_floor_drop: float = 0.03,
        aw_delta_start: float = 5.0,
        aw_delta_step: float = 0.25,
        aw_delta_min: float = 0.5,
        max_report_strikes: int | None = 2,
        min_report_quorum: int | float = 1,
    ) -> None:
        if method not in ("rap", "mvp"):
            raise ValueError(f"method must be 'rap' or 'mvp', got {method!r}")
        if max_report_strikes is not None and max_report_strikes < 1:
            raise ValueError(
                f"max_report_strikes must be >= 1 or None, got {max_report_strikes}"
            )
        if isinstance(min_report_quorum, float):
            if not 0.0 < min_report_quorum <= 1.0:
                raise ValueError(
                    f"fractional min_report_quorum must be in (0, 1], "
                    f"got {min_report_quorum}"
                )
        elif min_report_quorum < 1:
            raise ValueError(
                f"min_report_quorum must be >= 1, got {min_report_quorum}"
            )
        self.method = method
        self.prune_rate = prune_rate
        self.accuracy_drop_threshold = accuracy_drop_threshold
        self.max_prune_fraction = max_prune_fraction
        self.fine_tune = fine_tune
        self.fine_tune_rounds = fine_tune_rounds
        self.fine_tune_patience = fine_tune_patience
        self.aw_floor_drop = aw_floor_drop
        self.aw_delta_start = aw_delta_start
        self.aw_delta_step = aw_delta_step
        self.aw_delta_min = aw_delta_min
        self.max_report_strikes = max_report_strikes
        self.min_report_quorum = min_report_quorum


class DefenseReport:
    """Everything the pipeline did, stage by stage."""

    def __init__(
        self,
        pruning: PruningResult,
        fine_tuning: FineTuneResult | None,
        adjusting: AdjustResult,
        stage_seconds: dict[str, float],
    ) -> None:
        self.pruning = pruning
        self.fine_tuning = fine_tuning
        self.adjusting = adjusting
        self.stage_seconds = stage_seconds

    def __repr__(self) -> str:
        stages = ", ".join(f"{k}={v:.2f}s" for k, v in self.stage_seconds.items())
        return (
            f"DefenseReport(pruned={self.pruning.num_pruned}, "
            f"delta={self.adjusting.final_delta}, {stages})"
        )


class DefensePipeline:
    """Server-side orchestration of the full cleansing procedure.

    Parameters
    ----------
    clients:
        All participating clients (benign and, unknowingly, malicious).
    accuracy_fn:
        The server's validation-accuracy oracle.
    config:
        Pipeline hyper-parameters.
    layer:
        The pruning/adjustment target; defaults to the model's last
        convolutional layer.
    context:
        A :class:`~repro.obs.context.RunContext` carrying the telemetry
        hub and client-execution engine.  Results are bitwise identical
        across executors; stage timings come from telemetry spans.
    """

    def __init__(
        self,
        clients: Sequence,
        accuracy_fn: Callable[[Sequential], float],
        config: DefenseConfig | None = None,
        layer: Conv2d | Linear | None = None,
        context: RunContext | None = None,
    ) -> None:
        if not clients:
            raise ValueError("need at least one client")
        self.clients = clients
        self.accuracy_fn = accuracy_fn
        self.config = config or DefenseConfig()
        self.layer = layer
        ctx = context if context is not None else RunContext()
        self.context = ctx
        self.executor = ctx.executor
        self.telemetry = ctx.telemetry
        self.quarantined: set[int] = set()
        self.events: list[tuple[str, int, str]] = []  # (kind, client_id, detail)
        self._report_strikes: dict[int, int] = {}

    def _target_layer(self, model: Sequential) -> Conv2d | Linear:
        return self.layer if self.layer is not None else model.last_conv()

    def active_clients(self) -> list:
        """The clients still trusted (not quarantined)."""
        return [c for c in self.clients if c.client_id not in self.quarantined]

    def _record_strike(self, client_id: int, reason: str) -> None:
        self.events.append(("malformed_report", client_id, reason))
        self.telemetry.event(
            "defense.malformed_report", client=client_id, reason=reason
        )
        if self.config.max_report_strikes is None:
            return
        strikes = self._report_strikes.get(client_id, 0) + 1
        self._report_strikes[client_id] = strikes
        if (
            strikes >= self.config.max_report_strikes
            and client_id not in self.quarantined
        ):
            self.quarantined.add(client_id)
            self.events.append(
                ("quarantine", client_id, f"{strikes} malformed reports")
            )
            self.telemetry.event(
                "defense.quarantine", client=client_id, strikes=strikes
            )
            self.telemetry.count("defense.quarantines")

    def _report_quorum(self, num_active: int) -> int:
        quorum = self.config.min_report_quorum
        if isinstance(quorum, float):
            return max(1, math.ceil(quorum * num_active))
        return max(1, quorum)

    def global_prune_order(self, model: Sequential) -> np.ndarray:
        """Collect client reports and aggregate into a pruning sequence.

        Per client: a :class:`ClientDropout` skips it for this stage, a
        malformed report is discarded and counted as a strike (repeat
        offenders are quarantined), and the aggregation runs over the
        surviving well-formed reports — RAP's mean positions and MVP's
        vote shares are both per-report statistics, so a partial report
        set aggregates without special-casing.
        """
        layer = self._target_layer(model)
        num_channels = int(layer.out_mask.size)
        use_rap = self.config.method == "rap"
        active = self.active_clients()
        mode = "ranking" if use_rap else "vote"
        outcomes = collect_reports(
            self.executor,
            active,
            model,
            mode,
            layer=layer,
            prune_rate=self.config.prune_rate,
            telemetry=self.telemetry,
        )
        validate = validate_ranking_report if use_rap else validate_vote_report
        reports: list[np.ndarray] = []
        # validation and strikes run in stable client order, so
        # quarantine decisions are executor-independent
        for client, (status, value) in zip(active, outcomes):
            if status == "dropout":
                self.events.append(("report_dropout", client.client_id, value))
                self.telemetry.event(
                    "defense.report_dropout",
                    client=client.client_id,
                    reason=value,
                )
                continue
            reason = validate(value, num_channels)
            if reason is not None:
                self._record_strike(client.client_id, reason)
                continue
            reports.append(np.asarray(value))
        quorum = self._report_quorum(len(active))
        if len(reports) < quorum:
            raise ValueError(
                f"only {len(reports)} well-formed pruning reports received "
                f"from {len(active)} clients (quorum {quorum})"
            )
        if use_rap:
            return rap_prune_order(np.stack(reports))
        return mvp_prune_order(np.stack(reports))

    def run(self, model: Sequential, *, incremental: bool = False) -> DefenseReport:
        """Execute FP -> (FT) -> AW on ``model`` in place.

        With ``incremental=True`` the pipeline runs as a bounded
        mid-stream pass for the always-on service
        (:mod:`repro.fl.service`): the ``defense.run`` span is tagged
        ``incremental`` and per-stage checkpointing/resume is disabled
        — the service owns persistence at round granularity, and a
        cleanse squeezed between rounds must not overwrite the one-shot
        pipeline's ``"defense"`` stage cursor.

        Per-stage wall-clock times come from a telemetry-backed
        :class:`~repro.eval.timers.StageTimer`, so an attached sink sees
        ``stage.pruning`` / ``stage.fine_tuning`` / ``stage.adjusting``
        spans nested inside one ``defense.run`` span.

        When the pipeline's :class:`~repro.obs.context.RunContext`
        carries a checkpoint manager, a ``"defense"`` snapshot (model,
        client state, quarantine ledger, completed stage results) is
        written after each stage, and the fine-tuning stage additionally
        checkpoints per round.  With ``context.resume`` set, ``run``
        restarts after the last completed stage — completed stages are
        never recomputed, and their results are rebuilt from the
        snapshot so the resumed :class:`DefenseReport` is complete.
        Resume here guarantees *state* identity (same final model, same
        report); the telemetry byte-identity contract belongs to
        :meth:`repro.fl.server.FederatedServer.train`.

        With ``context.profile`` set, the whole run executes under a
        :class:`~repro.obs.profile.LayerProfiler`, so aggregated
        ``profile.forward``/``profile.backward`` spans land inside the
        ``defense.run`` span.  Profiling observes without mutating: the
        report and final model are bitwise identical either way.
        """
        config = self.config
        tel = self.telemetry
        ctx = self.context
        checkpoint = None if incremental else ctx.checkpoint
        resume = False if incremental else ctx.resume
        if resume and checkpoint is None:
            raise ValueError("context.resume requires a checkpoint manager")
        timer = StageTimer(telemetry=tel)

        stage_cursor = 0
        pruning: PruningResult | None = None
        fine_tuning: FineTuneResult | None = None
        adjusting: AdjustResult | None = None
        snapshot = checkpoint.load_latest("defense") if resume else None
        if snapshot is not None:
            tel.event(
                "persist.resume",
                kind="defense",
                step=snapshot.step,
                path=snapshot.path,
                rejected=[f for f, _ in checkpoint.last_rejected],
            )
            stage_cursor = snapshot.step
            pruning, fine_tuning, adjusting = self._restore_snapshot(
                model, snapshot, timer
            )

        span_attrs = {"method": config.method}
        if incremental:
            span_attrs["incremental"] = True
        with tel.span("defense.run", **span_attrs) as run_span, \
                maybe_profile(ctx, telemetry=tel):
            if stage_cursor < _STAGE_PRUNED:
                with timer.stage("pruning"):
                    order = self.global_prune_order(model)
                    pruning = prune_by_sequence(
                        model,
                        self._target_layer(model),
                        order,
                        self.accuracy_fn,
                        accuracy_drop_threshold=config.accuracy_drop_threshold,
                        max_prune_fraction=config.max_prune_fraction,
                        telemetry=tel,
                    )
                self._save_stage(
                    checkpoint, model, _STAGE_PRUNED, timer,
                    pruning, fine_tuning, adjusting,
                )

            if config.fine_tune and stage_cursor < _STAGE_FINE_TUNED:
                survivors = self.active_clients()
                if survivors:
                    with timer.stage("fine_tuning"):
                        fine_tuning = federated_fine_tune(
                            model,
                            survivors,
                            self.accuracy_fn,
                            max_rounds=config.fine_tune_rounds,
                            patience=config.fine_tune_patience,
                            min_quorum=config.min_report_quorum,
                            executor=self.executor,
                            telemetry=tel,
                            checkpoint=checkpoint,
                            checkpoint_every=ctx.checkpoint_every,
                            resume=resume,
                        )
                    self._save_stage(
                        checkpoint, model, _STAGE_FINE_TUNED, timer,
                        pruning, fine_tuning, adjusting,
                    )
                else:
                    self.events.append(
                        ("fine_tune_skipped", -1, "every client quarantined")
                    )
                    tel.event(
                        "defense.fine_tune_skipped",
                        round=-1,
                        reason="every client quarantined",
                    )

            if stage_cursor < _STAGE_ADJUSTED:
                with timer.stage("adjusting"):
                    adjusting = adjust_extreme_weights(
                        model,
                        self.accuracy_fn,
                        accuracy_floor_drop=config.aw_floor_drop,
                        delta_start=config.aw_delta_start,
                        delta_step=config.aw_delta_step,
                        delta_min=config.aw_delta_min,
                        layer=self._target_layer(model),
                        telemetry=tel,
                    )
                self._save_stage(
                    checkpoint, model, _STAGE_ADJUSTED, timer,
                    pruning, fine_tuning, adjusting,
                )
            run_span.set(
                num_pruned=pruning.num_pruned,
                final_delta=adjusting.final_delta,
            )

        return DefenseReport(pruning, fine_tuning, adjusting, dict(timer.seconds))

    # -- persistence ---------------------------------------------------

    def _save_stage(
        self,
        checkpoint: CheckpointManager | None,
        model: Sequential,
        stage: int,
        timer: StageTimer,
        pruning: PruningResult | None,
        fine_tuning: FineTuneResult | None,
        adjusting: AdjustResult | None,
    ) -> None:
        """Durably snapshot the pipeline at a stage boundary."""
        if checkpoint is None:
            return
        self.telemetry.event("persist.checkpoint", kind="defense", step=stage)
        arrays = pack_model_state(model)
        client_meta, client_arrays = capture_client_states(self.clients)
        arrays.update(client_arrays)
        meta = {
            "stage": int(stage),
            "quarantined": sorted(int(c) for c in self.quarantined),
            "strikes": {
                str(k): int(v) for k, v in self._report_strikes.items()
            },
            "events": [[kind, int(cid), detail] for kind, cid, detail in self.events],
            "clients": client_meta,
            "stage_seconds": {
                name: float(secs) for name, secs in timer.seconds.items()
            },
            "pruning": pruning.to_jsonable() if pruning is not None else None,
            "fine_tuning": (
                fine_tuning.to_jsonable() if fine_tuning is not None else None
            ),
            "adjusting": (
                adjusting.to_jsonable() if adjusting is not None else None
            ),
        }
        fault_model = shared_fault_model(self.clients)
        if fault_model is not None:
            meta["fault_model"] = fault_model.state_dict()
        checkpoint.save("defense", stage, arrays, meta)

    def _restore_snapshot(
        self,
        model: Sequential,
        snapshot: Snapshot,
        timer: StageTimer,
    ) -> tuple[
        PruningResult | None, FineTuneResult | None, AdjustResult | None
    ]:
        """Apply a ``"defense"`` snapshot: model, clients, ledger, results."""
        meta = snapshot.meta
        model_arrays = {
            name: value
            for name, value in snapshot.arrays.items()
            if not name.startswith(DELTA_PREFIX)
        }
        apply_model_state(model, model_arrays)
        restore_client_states(self.clients, meta["clients"], snapshot.arrays)
        fault_model = shared_fault_model(self.clients)
        if fault_model is not None and "fault_model" in meta:
            fault_model.load_state_dict(meta["fault_model"])
        self.quarantined = {int(c) for c in meta["quarantined"]}
        self._report_strikes = {
            int(k): int(v) for k, v in meta["strikes"].items()
        }
        self.events = [
            (kind, int(cid), detail) for kind, cid, detail in meta["events"]
        ]
        # completed-stage durations carry over so a resumed report's
        # stage_seconds covers the whole pipeline, not just the tail
        for name, secs in meta["stage_seconds"].items():
            timer.seconds[name] = timer.seconds.get(name, 0.0) + float(secs)
        pruning = (
            PruningResult.from_jsonable(meta["pruning"])
            if meta.get("pruning") is not None
            else None
        )
        fine_tuning = (
            FineTuneResult.from_jsonable(meta["fine_tuning"])
            if meta.get("fine_tuning") is not None
            else None
        )
        adjusting = (
            AdjustResult.from_jsonable(meta["adjusting"])
            if meta.get("adjusting") is not None
            else None
        )
        return pruning, fine_tuning, adjusting
