"""The federated server: round orchestration and history logging.

Implements the paper's simplified training rule (§III-A): every selected
client trains from the current global parameters, the server adds the
*unweighted mean* of the reported deltas.  Client selection is either
"all clients every round" (the paper's simplification 3) or uniform
random sampling of ``clients_per_round`` (the Fig 7 study).

The server evaluates test accuracy and, when a backdoor task is under
study, attack success rate after every round — those traces are Fig 3's
solid/dashed lines.

Unlike the paper's idealized protocol, the round loop does not assume
every selected client responds with a well-formed delta.  Each payload
is validated (shape / dtype / finiteness), non-responders are retried
up to ``update_retries`` times, rounds below ``min_quorum`` accepted
updates are skipped rather than aggregated from too little signal, and
clients that repeatedly ship invalid payloads are quarantined out of
future selection.  Every such event is recorded on the round's
:class:`RoundMetrics` so :class:`TrainingHistory` doubles as a fault
log.  With fully reliable clients none of these paths trigger and the
loop is exactly the paper's.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..attacks.poison import BackdoorTask
from ..data.dataset import Dataset
from ..eval.metrics import attack_success_rate, test_accuracy
from ..nn.layers import Sequential
from ..nn.serialization import apply_model_state, pack_model_state
from ..obs.profile import maybe_profile
from ..obs.telemetry import Telemetry, ensure_telemetry
from ..persist.checkpoint import CheckpointManager, Snapshot
from ..persist.state import (
    AGGREGATOR_PREFIX,
    DELTA_PREFIX,
    capture_client_states,
    pack_state_arrays,
    restore_client_states,
    rng_state_from_jsonable,
    rng_state_to_jsonable,
    shared_fault_model,
    unpack_state_arrays,
)
from ..persist.watchdog import DivergenceWatchdog
from .aggregation import Aggregator, build_aggregator
from .client import Client
from .executor import ClientExecutor, collect_updates
from .faults import validate_update
from .transport import DeliveryGate, Envelope, SimulatedNetwork, payload_checksum
from .sampling import ClientPool, ParticipationSampler

__all__ = ["RoundMetrics", "TrainingHistory", "FederatedServer"]


class RoundMetrics:
    """Metrics captured after one aggregation round.

    Beyond the TA/ASR pair, a round records its participation outcome:
    how many clients were selected and accepted, who was dropped
    (no response within the retry budget), rejected (invalid payload),
    or quarantined this round, and whether the round was skipped for
    lack of quorum (the global model is untouched on a skipped round)
    or rolled back by the divergence watchdog (``diverged``).
    """

    def __init__(
        self,
        round_index: int,
        test_acc: float,
        attack_acc: float | None,
        *,
        num_selected: int | None = None,
        num_accepted: int | None = None,
        dropped: Sequence[tuple[int, str]] = (),
        rejected: Sequence[tuple[int, str]] = (),
        quarantined: Sequence[int] = (),
        skipped: bool = False,
        diverged: bool = False,
        divergence_reason: str | None = None,
    ) -> None:
        self.round_index = round_index
        self.test_acc = test_acc
        self.attack_acc = attack_acc
        self.num_selected = num_selected
        self.num_accepted = num_accepted
        self.dropped = list(dropped)
        self.rejected = list(rejected)
        self.quarantined = list(quarantined)
        self.skipped = skipped
        self.diverged = diverged
        self.divergence_reason = divergence_reason

    def to_jsonable(self) -> dict:
        """The round as plain JSON types (checkpoint metadata form)."""
        return {
            "round_index": int(self.round_index),
            "test_acc": float(self.test_acc),
            "attack_acc": (
                None if self.attack_acc is None else float(self.attack_acc)
            ),
            "num_selected": self.num_selected,
            "num_accepted": self.num_accepted,
            "dropped": [[int(c), str(r)] for c, r in self.dropped],
            "rejected": [[int(c), str(r)] for c, r in self.rejected],
            "quarantined": [int(c) for c in self.quarantined],
            "skipped": bool(self.skipped),
            "diverged": bool(self.diverged),
            "divergence_reason": self.divergence_reason,
        }

    @classmethod
    def from_jsonable(cls, record: dict) -> "RoundMetrics":
        return cls(
            record["round_index"],
            record["test_acc"],
            record["attack_acc"],
            num_selected=record["num_selected"],
            num_accepted=record["num_accepted"],
            dropped=[(int(c), str(r)) for c, r in record["dropped"]],
            rejected=[(int(c), str(r)) for c, r in record["rejected"]],
            quarantined=[int(c) for c in record["quarantined"]],
            skipped=record["skipped"],
            diverged=record.get("diverged", False),
            divergence_reason=record.get("divergence_reason"),
        )

    def __repr__(self) -> str:
        attack = f", AA={self.attack_acc:.3f}" if self.attack_acc is not None else ""
        extra = ""
        if self.num_selected is not None and self.num_accepted != self.num_selected:
            extra = f", accepted={self.num_accepted}/{self.num_selected}"
        if self.skipped:
            extra += ", skipped"
        if self.diverged:
            extra += ", diverged"
        return (
            f"RoundMetrics(round={self.round_index}, "
            f"TA={self.test_acc:.3f}{attack}{extra})"
        )


class TrainingHistory:
    """Per-round metric traces for a federated training run.

    Also aggregates the fault log: which rounds were skipped for lack of
    quorum, how many client responses were dropped or rejected, and
    which clients were quarantined along the way.
    """

    def __init__(self) -> None:
        self.rounds: list[RoundMetrics] = []

    def append(self, metrics: RoundMetrics) -> None:
        self.rounds.append(metrics)

    @property
    def test_accuracies(self) -> list[float]:
        return [r.test_acc for r in self.rounds]

    @property
    def attack_accuracies(self) -> list[float]:
        return [r.attack_acc for r in self.rounds if r.attack_acc is not None]

    @property
    def skipped_rounds(self) -> list[int]:
        """Indices of rounds skipped for lack of quorum."""
        return [r.round_index for r in self.rounds if r.skipped]

    @property
    def num_dropouts(self) -> int:
        """Total no-response events (dropouts and timeouts) across rounds."""
        return sum(len(r.dropped) for r in self.rounds)

    @property
    def num_rejections(self) -> int:
        """Total invalid-payload rejections across rounds."""
        return sum(len(r.rejected) for r in self.rounds)

    @property
    def quarantine_events(self) -> list[tuple[int, int]]:
        """(round_index, client_id) pairs, in quarantine order."""
        return [
            (r.round_index, cid) for r in self.rounds for cid in r.quarantined
        ]

    @property
    def diverged_rounds(self) -> list[int]:
        """Indices of rounds the divergence watchdog rolled back."""
        return [r.round_index for r in self.rounds if r.diverged]

    def to_jsonable(self) -> list[dict]:
        """The history as plain JSON types (checkpoint metadata form)."""
        return [r.to_jsonable() for r in self.rounds]

    @classmethod
    def from_jsonable(cls, records: Sequence[dict]) -> "TrainingHistory":
        history = cls()
        for record in records:
            history.append(RoundMetrics.from_jsonable(record))
        return history

    @property
    def final(self) -> RoundMetrics:
        if not self.rounds:
            raise ValueError("no rounds recorded")
        return self.rounds[-1]

    def __len__(self) -> int:
        return len(self.rounds)


def _resolve_quorum(min_quorum: int | float, num_selected: int) -> int:
    """Absolute quorum from an int count or a float fraction of selected."""
    if isinstance(min_quorum, float):
        return max(1, math.ceil(min_quorum * num_selected))
    return max(1, min_quorum)


class FederatedServer:
    """Coordinates federated training over a fixed client population.

    Parameters
    ----------
    model:
        The global model (modified in place every round).
    clients:
        The full client population; some may be
        :class:`~repro.fl.client.MaliciousClient` instances — the server
        cannot tell.
    test_set:
        Held-out evaluation data for the TA trace.
    backdoor_task:
        When provided, the server also logs ASR each round (evaluation
        uses this task's trigger — for DBA pass the task built from the
        *global* pattern).
    aggregator:
        The aggregation rule — a registry name (``"median"``), a
        ``"name:param=value"`` spec string
        (``"trimmed_mean:trim_ratio=0.2"``), an
        :class:`~repro.fl.aggregation.Aggregator` instance, or any bare
        callable over the ``(clients, dim)`` delta matrix.  Defaults to
        the paper's unweighted FedAvg mean.  Stateful rules
        (``"foolsgold"``, noised ``"norm_clip"``) have their cross-round
        state captured in checkpoints and restored on resume.
    clients_per_round:
        Uniform random sample size per round; ``None`` selects everyone
        (the paper's default simplification).
    sampler:
        A :class:`~repro.fl.sampling.ParticipationSampler` drawing the
        round cohort from a registered population (pass ``clients`` as a
        :class:`~repro.fl.sampling.ClientPool` to keep the population
        lazy).  Mutually exclusive with ``clients_per_round``; the
        sampler's population must match ``len(clients)``.  Round cost
        then scales with the cohort, not the population.
    rng:
        Generator driving client sampling.  Defaults to
        ``np.random.default_rng(0)`` so sampling stays deterministic
        when no generator is supplied.
    min_quorum:
        Minimum accepted updates required to aggregate a round; below
        it the round is skipped (model untouched) and logged.  An int
        is an absolute count, a float in (0, 1] a fraction of the
        selected participants.  The default of 1 reproduces the paper's
        behaviour whenever at least one client responds.
    update_retries:
        How many times a non-responding client is re-asked within the
        round before being recorded as dropped.
    max_client_strikes:
        Quarantine a client after this many invalid payloads (it is
        excluded from all future selection); ``None`` disables
        quarantine.
    executor:
        Client-execution engine (see :mod:`repro.fl.executor`); ``None``
        runs clients serially in-process.  All executors are bitwise
        deterministic and mutually identical, so this is purely a
        wall-clock knob.
    telemetry:
        Observability hub (see :mod:`repro.obs`); every round becomes a
        ``fl.round`` span with selection / local-training / aggregation
        / evaluation child spans, and every participation fault (drop,
        rejection, quarantine, quorum skip) becomes an event.  ``None``
        is the free no-op hub.
    watchdog:
        A :class:`~repro.persist.watchdog.DivergenceWatchdog` guarding
        the round loop: an aggregate it vetoes (non-finite, exploding
        norm) is never applied, and a round whose validation accuracy
        collapses is rolled back to its pre-round parameters.  Either
        way the round is recorded as ``diverged`` with the reason and a
        ``watchdog.rollback`` event lands in the stream.  ``None``
        disables the checks (the paper's idealized loop).
    profile:
        Wrap :meth:`train` in a per-layer
        :class:`~repro.obs.profile.LayerProfiler`, flushing aggregated
        ``profile.forward``/``profile.backward`` spans inside the
        ``fl.train`` span.  Observation only — the trained model is
        bitwise identical either way.  For full client coverage profile
        under the serial executor; process workers never see the
        coordinator's hook.
    network:
        A :class:`~repro.fl.transport.SimulatedNetwork` the uplink
        updates travel through.  The blocking loop has no simulated
        clock, so only message *fates* apply here: a lost or
        partitioned update is a drop, in-flight corruption fails the
        checksum (rejected + strike), and duplicated copies die at the
        idempotent gate — latency, arrival scheduling and partition
        hold/heal semantics live in
        :class:`~repro.fl.service.DefenseService`.  A transparent
        network is byte-identical to ``None``.
    """

    def __init__(
        self,
        model: Sequential,
        clients: Sequence[Client],
        test_set: Dataset,
        backdoor_task: BackdoorTask | None = None,
        clients_per_round: int | None = None,
        sampler: ParticipationSampler | None = None,
        rng: np.random.Generator | None = None,
        min_quorum: int | float = 1,
        update_retries: int = 0,
        max_client_strikes: int | None = 3,
        executor: ClientExecutor | None = None,
        telemetry: Telemetry | None = None,
        watchdog: DivergenceWatchdog | None = None,
        profile: bool = False,
        aggregator: str | Aggregator | Callable | None = None,
        network: "SimulatedNetwork | None" = None,
    ) -> None:
        if not len(clients):
            raise ValueError("need at least one client")
        if sampler is not None and clients_per_round is not None:
            raise ValueError(
                "sampler and clients_per_round are mutually exclusive"
            )
        if sampler is not None and sampler.population != len(clients):
            raise ValueError(
                f"sampler population {sampler.population} does not match "
                f"{len(clients)} clients"
            )
        if isinstance(clients, ClientPool) and sampler is None:
            raise ValueError(
                "a ClientPool population requires a ParticipationSampler "
                "(anything else would materialize every client)"
            )
        if clients_per_round is not None:
            if not 1 <= clients_per_round <= len(clients):
                raise ValueError(
                    f"clients_per_round must be in [1, {len(clients)}], "
                    f"got {clients_per_round}"
                )
        if isinstance(min_quorum, float):
            if not 0.0 < min_quorum <= 1.0:
                raise ValueError(
                    f"fractional min_quorum must be in (0, 1], got {min_quorum}"
                )
        elif min_quorum < 1:
            raise ValueError(f"min_quorum must be >= 1, got {min_quorum}")
        if update_retries < 0:
            raise ValueError(f"update_retries must be >= 0, got {update_retries}")
        if max_client_strikes is not None and max_client_strikes < 1:
            raise ValueError(
                f"max_client_strikes must be >= 1 or None, got {max_client_strikes}"
            )
        self.model = model
        self.clients = clients if isinstance(clients, ClientPool) else list(clients)
        self.test_set = test_set
        self.backdoor_task = backdoor_task
        self.aggregator = build_aggregator(
            aggregator if aggregator is not None else "fedavg"
        )
        self.clients_per_round = clients_per_round
        self.sampler = sampler
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.min_quorum = min_quorum
        self.update_retries = update_retries
        self.max_client_strikes = max_client_strikes
        self.executor = executor
        self.telemetry = ensure_telemetry(telemetry)
        self.watchdog = watchdog
        self.profile = bool(profile)
        self.network = network
        self.gate = DeliveryGate()
        self._seq: dict[str, int] = {}  # "update:client_id" -> next seq
        self.quarantined: set[int] = set()
        self._strikes: dict[int, int] = {}

    def select_clients(self, round_index: int | None = None) -> list[Client]:
        """The participants of the next round (quarantined excluded).

        With a :class:`~repro.fl.sampling.ParticipationSampler` the
        cohort is drawn by id from the registered population — only the
        drawn clients are ever touched (materialized, for a
        :class:`~repro.fl.sampling.ClientPool`), so this never scans the
        full population.  Sampler draws are a pure function of
        ``(seed, round_index)``, hence ``round_index`` is required on
        that path.
        """
        if self.sampler is not None:
            if round_index is None:
                raise ValueError("sampler-based selection needs a round_index")
            drawn = self.sampler.draw(round_index)
            cohort = [
                client
                for client in (self.clients[int(i)] for i in drawn)
                if client.client_id not in self.quarantined
            ]
            self.telemetry.event(
                "fl.cohort_sampled",
                round=round_index,
                population=self.sampler.population,
                drawn=int(drawn.size),
                cohort=len(cohort),
            )
            return cohort
        pool = [c for c in self.clients if c.client_id not in self.quarantined]
        if self.clients_per_round is None or not pool:
            return pool
        sample_size = min(self.clients_per_round, len(pool))
        chosen = self.rng.choice(len(pool), size=sample_size, replace=False)
        return [pool[i] for i in chosen]

    def _record_strike(self, client_id: int) -> bool:
        """Count an invalid payload; True when it triggers quarantine."""
        if self.max_client_strikes is None:
            return False
        strikes = self._strikes.get(client_id, 0) + 1
        self._strikes[client_id] = strikes
        if strikes >= self.max_client_strikes and client_id not in self.quarantined:
            self.quarantined.add(client_id)
            return True
        return False

    def _ship_update(
        self, client_id: int, payload: np.ndarray, round_index: int
    ) -> tuple[np.ndarray | None, str | None]:
        """One uplink update through the network: (payload, problem).

        Returns ``(None, None)`` when no copy survived the wire (loss or
        partition — the blocking loop never holds messages).  Surviving
        copies run the idempotent gate; the kept copy's checksum verdict
        comes back as ``problem`` so the caller's rejected/strike path
        handles in-flight corruption like any other invalid payload.
        """
        tel = self.telemetry
        env = Envelope(
            client_id,
            round_index,
            float(round_index),
            payload,
            seq=self._take_seq(client_id),
            checksum=payload_checksum(payload),
        )
        transit = self.network.transmit(
            env,
            round_index=round_index,
            sent_at=float(round_index),
            telemetry=tel,
            hold_partitioned=False,
        )
        kept: Envelope | None = None
        for delivery in transit.deliveries:
            verdict = self.gate.check(delivery)
            if verdict != "fresh" or kept is not None:
                tel.event(
                    "net.dedup" if verdict != "stale" else "net.fenced",
                    client=client_id,
                    round=round_index,
                    solicited_round=delivery.solicited_round,
                    seq=delivery.seq,
                )
                continue
            kept = delivery
        if kept is None:
            return None, None
        self.gate.mark_processed(kept)
        problem = None
        if (
            kept.checksum is not None
            and payload_checksum(kept.payload) != kept.checksum
        ):
            problem = "checksum mismatch (corrupted in transit)"
        return kept.payload, problem

    def _take_seq(self, client_id: int) -> int:
        key = f"update:{int(client_id)}"
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        return seq

    def run_round(self, round_index: int) -> RoundMetrics:
        """One full round: select, train locally, validate, aggregate, evaluate."""
        tel = self.telemetry
        with tel.span("fl.round", round=round_index) as round_span:
            with tel.span("fl.selection"):
                participants = self.select_clients(round_index)
            global_params = self.model.flat_parameters()

            with tel.span("fl.local_training", num_clients=len(participants)):
                outcomes = collect_updates(
                    self.executor,
                    participants,
                    self.model,
                    global_params,
                    round_index=round_index,
                    retries=self.update_retries,
                    telemetry=tel,
                )

            accepted: list[np.ndarray] = []
            accepted_ids: list[int] = []
            dropped: list[tuple[int, str]] = []
            rejected: list[tuple[int, str]] = []
            quarantined_now: list[int] = []
            # validation and strikes run sequentially in stable client order,
            # so quarantine decisions are executor-independent
            for client, (status, value) in zip(participants, outcomes):
                if status == "dropped":
                    dropped.append((client.client_id, value))
                    tel.event(
                        "fl.client_dropped", client=client.client_id, reason=value
                    )
                    continue
                problem = None
                if self.network is not None and not self.network.transparent:
                    delivered, problem = self._ship_update(
                        client.client_id, value, round_index
                    )
                    if delivered is None:
                        dropped.append(
                            (client.client_id, "update lost in transit")
                        )
                        tel.event(
                            "fl.client_dropped",
                            client=client.client_id,
                            reason="update lost in transit",
                        )
                        continue
                    value = delivered
                if problem is None:
                    problem = validate_update(value, global_params.size)
                if problem is None:
                    accepted.append(value)
                    accepted_ids.append(client.client_id)
                else:
                    rejected.append((client.client_id, problem))
                    tel.event(
                        "fl.client_rejected",
                        client=client.client_id,
                        reason=problem,
                    )
                    if self._record_strike(client.client_id):
                        quarantined_now.append(client.client_id)
                        tel.event(
                            "fl.quarantine",
                            client=client.client_id,
                            strikes=self._strikes[client.client_id],
                        )
                        tel.count("fl.quarantines")

            quorum = _resolve_quorum(self.min_quorum, len(participants))
            skipped = len(accepted) < quorum
            diverged = False
            divergence_reason: str | None = None
            if skipped:
                tel.event(
                    "fl.round_skipped",
                    round=round_index,
                    accepted=len(accepted),
                    quorum=quorum,
                )
            else:
                with tel.span("fl.aggregation", num_accepted=len(accepted)):
                    update = self.aggregator.aggregate(
                        np.stack(accepted),
                        client_ids=accepted_ids,
                        round_index=round_index,
                        telemetry=tel,
                    )
                    if self.watchdog is not None:
                        divergence_reason = self.watchdog.check_aggregate(update)
                    if divergence_reason is not None:
                        # vetoed before application: the model never sees
                        # the bad aggregate, so "rollback" is a no-op on
                        # the parameters and the round is just skipped
                        diverged = True
                        self.watchdog.record_rollback()
                        tel.event(
                            "watchdog.rollback",
                            round=round_index,
                            stage="aggregate",
                            reason=divergence_reason,
                        )
                        tel.count("watchdog.rollbacks")
                    else:
                        self.model.load_flat_parameters(global_params + update)
                        # epoch fence: replays of these updates can
                        # never be aggregated a second time
                        for cid in accepted_ids:
                            self.gate.mark_aggregated(cid, round_index)

            with tel.span("fl.evaluation"):
                test_acc = test_accuracy(self.model, self.test_set)
                attack_acc = None
                if self.backdoor_task is not None:
                    attack_acc = attack_success_rate(
                        self.model, self.backdoor_task, self.test_set
                    )

            if self.watchdog is not None and not skipped and not diverged:
                divergence_reason = self.watchdog.observe_accuracy(test_acc)
                if divergence_reason is not None:
                    # the aggregate was applied but collapsed validation:
                    # restore the pre-round parameters and re-evaluate so
                    # the recorded metrics describe the surviving model
                    diverged = True
                    self.model.load_flat_parameters(global_params)
                    self.watchdog.record_rollback()
                    tel.event(
                        "watchdog.rollback",
                        round=round_index,
                        stage="evaluation",
                        reason=divergence_reason,
                    )
                    tel.count("watchdog.rollbacks")
                    with tel.span("fl.evaluation", rolled_back=True):
                        test_acc = test_accuracy(self.model, self.test_set)
                        if self.backdoor_task is not None:
                            attack_acc = attack_success_rate(
                                self.model, self.backdoor_task, self.test_set
                            )

            tel.count("fl.rounds")
            tel.count("fl.updates_accepted", len(accepted))
            tel.count("fl.updates_dropped", len(dropped))
            tel.count("fl.updates_rejected", len(rejected))
            if skipped:
                tel.count("fl.rounds_skipped")
            if diverged:
                tel.count("fl.rounds_diverged")
            round_span.set(
                test_acc=test_acc,
                attack_acc=attack_acc,
                accepted=len(accepted),
                selected=len(participants),
                skipped=skipped,
                diverged=diverged,
            )
        return RoundMetrics(
            round_index,
            test_acc,
            attack_acc,
            num_selected=len(participants),
            num_accepted=len(accepted),
            dropped=dropped,
            rejected=rejected,
            quarantined=quarantined_now,
            skipped=skipped,
            diverged=diverged,
            divergence_reason=divergence_reason,
        )

    def train(
        self,
        num_rounds: int,
        *,
        checkpoint: CheckpointManager | None = None,
        checkpoint_every: int = 1,
        resume: bool = False,
    ) -> TrainingHistory:
        """Run ``num_rounds`` rounds, returning the metric traces.

        Parameters
        ----------
        checkpoint:
            A :class:`~repro.persist.checkpoint.CheckpointManager`;
            when given, a durable snapshot of the full training state is
            written every ``checkpoint_every`` completed rounds.
        checkpoint_every:
            Snapshot cadence in rounds.
        resume:
            Restart from the newest verifiable ``"train"`` snapshot in
            ``checkpoint`` instead of round zero.  With no snapshot on
            disk the flag is a no-op (so the same invocation works for
            the first attempt and every retry).  A resumed run completed
            this way is bitwise identical — final parameters and
            canonical telemetry stream — to one that never crashed.
        """
        if num_rounds < 1:
            raise ValueError(f"num_rounds must be >= 1, got {num_rounds}")
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint manager")
        tel = self.telemetry
        history = TrainingHistory()
        start_round = 0
        train_span = None
        if resume:
            snapshot = checkpoint.load_latest("train")
            if snapshot is not None:
                # resume diagnostics go out on the *fresh* cursor, before
                # restore_checkpoint rewinds it to the snapshot's — the
                # stream stitcher drops them, keeping the spliced stream
                # identical to an uninterrupted run's
                tel.event(
                    "persist.resume",
                    step=snapshot.step,
                    path=snapshot.path,
                    rejected=[f for f, _ in checkpoint.last_rejected],
                )
                history = self.restore_checkpoint(snapshot)
                start_round = snapshot.step
                span_id = snapshot.meta.get("train_span_id")
                if span_id is not None:
                    train_span = tel.resume_span(
                        "fl.train", span_id, num_rounds=num_rounds
                    )
        if train_span is None:
            train_span = tel.span("fl.train", num_rounds=num_rounds)
        with train_span, maybe_profile(telemetry=tel, enabled=self.profile):
            for round_index in range(start_round, num_rounds):
                history.append(self.run_round(round_index))
                if (
                    checkpoint is not None
                    and (round_index + 1) % checkpoint_every == 0
                ):
                    self.save_checkpoint(checkpoint, round_index + 1, history)
        return history

    # -- persistence ---------------------------------------------------

    def save_checkpoint(
        self,
        checkpoint: CheckpointManager,
        round_cursor: int,
        history: TrainingHistory,
    ) -> Snapshot:
        """Durably snapshot everything ``round_cursor`` rounds produced.

        The snapshot captures the global model (parameters + prune
        masks), the server's sampling RNG, quarantine/strike state,
        every client's mutable state (RNG stream, stale-replay cache),
        the shared fault schedule's position, the watchdog's memory, the
        metric history, and the telemetry cursor — the full closure a
        resumed run needs to continue bit-for-bit.

        The ``persist.checkpoint`` event is deliberately emitted *before*
        the telemetry cursor is captured, so the event sits below the
        resume boundary and appears exactly once in a stitched stream.
        """
        if isinstance(self.clients, ClientPool):
            raise ValueError(
                "checkpointing a lazily materialized ClientPool is not "
                "supported: unmaterialized clients have no state to "
                "capture, so a restore could not be bitwise faithful"
            )
        tel = self.telemetry
        tel.event("persist.checkpoint", round=round_cursor)
        arrays = pack_model_state(self.model)
        client_meta, client_arrays = capture_client_states(self.clients)
        arrays.update(client_arrays)
        aggregator_meta, aggregator_arrays = pack_state_arrays(
            self.aggregator.state_dict(), AGGREGATOR_PREFIX
        )
        arrays.update(aggregator_arrays)
        meta = {
            "round_cursor": int(round_cursor),
            "aggregator": aggregator_meta,
            "transport": {
                "gate": self.gate.state_dict(),
                "seq": {str(k): int(v) for k, v in self._seq.items()},
            },
            "server_rng": rng_state_to_jsonable(self.rng),
            "quarantined": sorted(int(c) for c in self.quarantined),
            "strikes": {str(k): int(v) for k, v in self._strikes.items()},
            "clients": client_meta,
            "history": history.to_jsonable(),
            "telemetry": tel.state_dict(),
            "train_span_id": (
                tel.current_span.span_id
                if tel.current_span is not None
                else None
            ),
        }
        fault_model = self._shared_fault_model()
        if fault_model is not None:
            meta["fault_model"] = fault_model.state_dict()
        if self.watchdog is not None:
            meta["watchdog"] = self.watchdog.state_dict()
        return checkpoint.save("train", round_cursor, arrays, meta)

    def restore_checkpoint(self, snapshot: Snapshot) -> TrainingHistory:
        """Apply a ``"train"`` snapshot to this (freshly rebuilt) server.

        Returns the restored :class:`TrainingHistory`; the caller
        continues the round loop from ``snapshot.step``.  The telemetry
        cursor is restored last, so any diagnostics emitted while
        restoring stay on the pre-restore (dropped) side of the stream.
        """
        meta = snapshot.meta
        model_arrays = {
            name: value
            for name, value in snapshot.arrays.items()
            if not name.startswith((DELTA_PREFIX, AGGREGATOR_PREFIX))
        }
        apply_model_state(self.model, model_arrays)
        if "aggregator" in meta:
            self.aggregator.load_state_dict(
                unpack_state_arrays(meta["aggregator"], snapshot.arrays)
            )
        rng_state_from_jsonable(self.rng, meta["server_rng"])
        transport_meta = meta.get("transport")
        if transport_meta is not None:
            self.gate.load_state_dict(transport_meta["gate"])
            self._seq = {
                str(k): int(v) for k, v in transport_meta["seq"].items()
            }
        self.quarantined = {int(c) for c in meta["quarantined"]}
        self._strikes = {int(k): int(v) for k, v in meta["strikes"].items()}
        restore_client_states(self.clients, meta["clients"], snapshot.arrays)
        fault_model = self._shared_fault_model()
        if fault_model is not None and "fault_model" in meta:
            fault_model.load_state_dict(meta["fault_model"])
        if self.watchdog is not None and "watchdog" in meta:
            self.watchdog.load_state_dict(meta["watchdog"])
        history = TrainingHistory.from_jsonable(meta["history"])
        self.telemetry.load_state_dict(meta.get("telemetry"))
        return history

    def _shared_fault_model(self):
        """The population's shared fault schedule, if clients carry one."""
        if isinstance(self.clients, ClientPool):
            return shared_fault_model(self.clients.cached())
        return shared_fault_model(self.clients)
