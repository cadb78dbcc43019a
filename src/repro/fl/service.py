"""The always-on defense service: deadline-scheduled streaming rounds.

:class:`~repro.fl.server.FederatedServer` runs the paper's idealized
loop — every round blocks until its retry budget is spent, however long
that takes.  A deployed defense cannot: it must commit rounds on a
clock, keep serving a model when the cohort goes quiet, and judge
clients *while* their updates stream in.  :class:`DefenseService`
recasts the round loop as a deadline-scheduled lifecycle on a
**simulated clock** (round ``r`` starts at ``r * round_interval``; no
real sleeping anywhere, so the service never blocks and stays bitwise
deterministic across executor engines):

* **Dispatch** — every eligible client is solicited at round start;
  fault plans (:class:`~repro.fl.faults.FaultModel`) and traffic delays
  (:mod:`repro.fl.traffic`) resolve coordinator-side in stable client
  order, placing each response at a simulated arrival time.  Straggler
  plans past the fault deadline are not lost here — their deltas simply
  arrive late and meet the admission policy.
* **Commit on quorum-or-deadline** — responses are admitted in arrival
  order; the round commits at the arrival of the ``quorum``-th valid
  update or at the deadline, whichever comes first.  Commit latency is
  recorded per round (``service.commit_latency`` spans) so the
  ``scripts/trace.py`` diff gate can hold p50/p99 regressions.
* **Late policy** — reports arriving after commit (but solicited this
  round) are *deferred* into the next round's admission pass or
  *dropped*, per :attr:`ServiceConfig.late_policy`.  The pending queue
  is bounded (:attr:`ServiceConfig.max_pending`) with explicit
  backpressure: ``shed_oldest`` evicts the stalest deferred report,
  ``reject_new`` refuses the incoming one.
* **Backoff re-solicitation** — a client that misses its round (no
  response, or late) sits out exponentially more rounds per
  consecutive miss (capped), then is re-solicited; an admitted report
  clears the ledger.
* **Online trust** (:mod:`repro.fl.trust`) — accepted deltas are scored
  each round; clients whose EWMA sinks below threshold are
  trust-quarantined (reversibly: probation rounds re-score them and a
  recovered EWMA restores them), and a cohort-level trust dip triggers
  an **incremental cleanse** — a bounded FP/AW pass through
  :class:`~repro.defense.pipeline.DefensePipeline` mid-stream.
* **Graceful degradation** — ``degraded_after`` consecutive quorum
  failures freeze aggregation and reload the last-good ``"service"``
  snapshot from the :class:`~repro.persist.checkpoint.CheckpointManager`;
  the first quorum-met round recovers and aggregation resumes.
* **Lossy transport** (:mod:`repro.fl.transport`) — with a
  :class:`~repro.fl.transport.SimulatedNetwork`, every solicitation and
  update travels as a sequenced, checksummed
  :class:`~repro.fl.transport.Envelope` that can be delayed, lost,
  duplicated, reordered, corrupted, or held behind a scheduled
  partition.  Ingest is idempotent: a
  :class:`~repro.fl.transport.DeliveryGate` dedups retransmitted
  message ids and epoch-fences stale-round replays (an already
  aggregated update is never aggregated twice), checksum mismatches
  feed the invalid/strike path, and clients whose messages never land
  re-enter via the existing backoff re-solicitation.  A transparent
  (lossless) network leaves the run byte-identical to ``network=None``.

Every transition lands on the telemetry stream (names registered in
:mod:`repro.obs.schema`), and the full service state — clock cursor,
strikes, both quarantine ledgers, trust EWMAs, backoff ledger, pending
queue — checkpoints and resumes like the blocking server does.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..attacks.poison import BackdoorTask, backdoor_eval_set
from ..data.dataset import Dataset
# test_accuracy/attack_success_rate are unused here but stay importable
# from this module: perfbench's traced run wraps them where they are
# looked up (perfbench/workloads.py, install_module_spans)
from ..eval.metrics import (  # noqa: F401
    AccuracyEvaluator,
    attack_success_rate,
    test_accuracy,
)
from ..nn.layers import Sequential
from ..nn.serialization import apply_model_state, pack_model_state
from ..obs.context import RunContext, current_context
from ..obs.metrics import percentile_summary
from ..persist.checkpoint import CheckpointManager, Snapshot
from ..persist.state import (
    AGGREGATOR_PREFIX,
    DELTA_PREFIX,
    capture_client_states,
    pack_state_arrays,
    restore_client_states,
    shared_fault_model,
    unpack_state_arrays,
)
from .aggregation import Aggregator, build_aggregator
from .executor import dispatch_updates
from .faults import validate_update
from .sampling import ClientPool, ParticipationSampler
from .server import _resolve_quorum
from .traffic import TrafficPattern
from .transport import (
    HELD_PREFIX,
    DeliveryGate,
    Envelope,
    RoundLedger,
    SimulatedNetwork,
    payload_checksum,
)
from .trust import TrustConfig, TrustTracker

__all__ = [
    "ServiceConfig",
    "ReportEnvelope",
    "RoundOutcome",
    "ServiceHistory",
    "DefenseService",
]

# array-name prefix for pending-queue payloads inside a "service" snapshot
PENDING_PREFIX = "service_pending."


class ServiceConfig:
    """Policy knobs for the streaming round lifecycle.

    Parameters
    ----------
    round_deadline:
        Simulated seconds from round start to the admission cutoff.
    round_interval:
        Spacing of round starts on the simulated clock; defaults to
        ``round_deadline`` (back-to-back rounds).
    quorum:
        Valid updates needed to commit: an int is an absolute count, a
        float in (0, 1] a fraction of the round's solicited cohort.
    degraded_after:
        Consecutive quorum failures that trip degraded mode.
    degraded_alert:
        Gate degraded-mode entry on a named alert rule instead of the
        bare ``degraded_after`` counter: the service enters degraded
        mode on a quorum-failed round only while that alert is firing
        in the attached :class:`~repro.obs.alerts.ServiceMetrics`
        engine (which then must be passed to the service).  ``None``
        keeps the counter gate.
    late_policy:
        ``"defer"`` queues a late report for the next round's admission
        pass; ``"drop"`` discards it.
    backpressure:
        Bounded-queue overflow policy: ``"shed_oldest"`` evicts the
        stalest deferred report, ``"reject_new"`` refuses the incoming
        one.
    max_pending:
        Pending-queue capacity (deferred reports).
    backoff_base, backoff_max:
        A client with ``m`` consecutive misses sits out
        ``min(backoff_base * 2**(m-1), backoff_max)`` rounds before
        re-solicitation.
    max_client_strikes:
        Invalid payloads before permanent quarantine (the PR 1 strike
        path); ``None`` disables it.
    eval_every:
        Evaluate test accuracy (and ASR) every N rounds; 0 disables.
    checkpoint_every:
        Save a ``"service"`` snapshot every N *committed* rounds (the
        snapshot is by construction last-good).
    probation_interval:
        A trust-quarantined client is re-solicited (scored, never
        aggregated) every N rounds; a recovered EWMA restores it.
    trust:
        :class:`~repro.fl.trust.TrustConfig`; ``None`` uses defaults.
        Set ``trust_enabled=False`` to turn scoring off entirely.
    cleanse_threshold:
        Cohort mean-EWMA below this triggers an incremental cleanse;
        ``None`` disables mid-stream cleansing.
    cleanse_cooldown:
        Minimum rounds between incremental cleanses.
    min_cleanse_clients:
        Smallest unquarantined cohort a cleanse will run with.
    cleanse_config:
        :class:`~repro.defense.pipeline.DefenseConfig` for the
        incremental pass; ``None`` builds a bounded FP+AW default
        (no fine-tuning, shallow prune budget).
    """

    def __init__(
        self,
        round_deadline: float = 10.0,
        round_interval: float | None = None,
        quorum: int | float = 0.5,
        degraded_after: int = 3,
        degraded_alert: str | None = None,
        late_policy: str = "defer",
        backpressure: str = "shed_oldest",
        max_pending: int = 64,
        backoff_base: int = 1,
        backoff_max: int = 8,
        max_client_strikes: int | None = 3,
        eval_every: int = 1,
        checkpoint_every: int = 1,
        probation_interval: int = 4,
        trust: TrustConfig | None = None,
        trust_enabled: bool = True,
        cleanse_threshold: float | None = 0.6,
        cleanse_cooldown: int = 5,
        min_cleanse_clients: int = 2,
        cleanse_config=None,
    ) -> None:
        if round_deadline <= 0:
            raise ValueError(f"round_deadline must be > 0, got {round_deadline}")
        if round_interval is not None and round_interval <= 0:
            raise ValueError(f"round_interval must be > 0, got {round_interval}")
        if isinstance(quorum, float):
            if not 0.0 < quorum <= 1.0:
                raise ValueError(f"fractional quorum must be in (0, 1], got {quorum}")
        elif quorum < 1:
            raise ValueError(f"quorum must be >= 1, got {quorum}")
        if degraded_after < 1:
            raise ValueError(f"degraded_after must be >= 1, got {degraded_after}")
        if late_policy not in ("defer", "drop"):
            raise ValueError(f"late_policy must be 'defer' or 'drop', got {late_policy!r}")
        if backpressure not in ("shed_oldest", "reject_new"):
            raise ValueError(
                f"backpressure must be 'shed_oldest' or 'reject_new', "
                f"got {backpressure!r}"
            )
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if backoff_base < 1 or backoff_max < backoff_base:
            raise ValueError(
                f"need 1 <= backoff_base <= backoff_max, "
                f"got {backoff_base} / {backoff_max}"
            )
        if max_client_strikes is not None and max_client_strikes < 1:
            raise ValueError(
                f"max_client_strikes must be >= 1 or None, got {max_client_strikes}"
            )
        if eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {eval_every}")
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if probation_interval < 1:
            raise ValueError(
                f"probation_interval must be >= 1, got {probation_interval}"
            )
        if cleanse_cooldown < 0:
            raise ValueError(f"cleanse_cooldown must be >= 0, got {cleanse_cooldown}")
        if min_cleanse_clients < 1:
            raise ValueError(
                f"min_cleanse_clients must be >= 1, got {min_cleanse_clients}"
            )
        self.round_deadline = float(round_deadline)
        self.round_interval = (
            float(round_interval) if round_interval is not None else float(round_deadline)
        )
        self.quorum = quorum
        self.degraded_after = int(degraded_after)
        self.degraded_alert = degraded_alert
        self.late_policy = late_policy
        self.backpressure = backpressure
        self.max_pending = int(max_pending)
        self.backoff_base = int(backoff_base)
        self.backoff_max = int(backoff_max)
        self.max_client_strikes = max_client_strikes
        self.eval_every = int(eval_every)
        self.checkpoint_every = int(checkpoint_every)
        self.probation_interval = int(probation_interval)
        self.trust = trust if trust is not None else TrustConfig()
        self.trust_enabled = bool(trust_enabled)
        self.cleanse_threshold = cleanse_threshold
        self.cleanse_cooldown = int(cleanse_cooldown)
        self.min_cleanse_clients = int(min_cleanse_clients)
        self.cleanse_config = cleanse_config

    def __repr__(self) -> str:
        return (
            f"ServiceConfig(deadline={self.round_deadline}, "
            f"quorum={self.quorum!r}, late={self.late_policy!r}, "
            f"backpressure={self.backpressure!r})"
        )


# One client report on the simulated wire.  Since the transport layer,
# this IS the wire message type: the historic positional constructor
# (client_id, solicited_round, arrival, payload, probation) is
# unchanged, with the message identity (seq, checksum, kind) as
# keyword-only additions.
ReportEnvelope = Envelope


class RoundOutcome:
    """Everything one streaming round decided, for the history log."""

    def __init__(
        self,
        round_index: int,
        start: float,
        commit_time: float,
        quorum: int,
        quorum_met: bool,
        *,
        num_solicited: int = 0,
        num_probation: int = 0,
        accepted: Sequence[int] = (),
        invalid: Sequence[tuple[int, str]] = (),
        no_response: Sequence[tuple[int, str]] = (),
        late: Sequence[int] = (),
        deferred: Sequence[int] = (),
        shed: Sequence[int] = (),
        rejected: Sequence[int] = (),
        lost: Sequence[tuple[int, str]] = (),
        dedup: Sequence[int] = (),
        fenced: Sequence[int] = (),
        held: Sequence[int] = (),
        accepted_origins: Sequence[tuple[int, int]] = (),
        strike_quarantined: Sequence[int] = (),
        trust_quarantined: Sequence[int] = (),
        trust_restored: Sequence[int] = (),
        cohort_trust: float | None = None,
        cleansed: bool = False,
        degraded: bool = False,
        entered_degraded: bool = False,
        exited_degraded: bool = False,
        test_acc: float | None = None,
        attack_acc: float | None = None,
    ) -> None:
        self.round_index = int(round_index)
        self.start = float(start)
        self.commit_time = float(commit_time)
        self.quorum = int(quorum)
        self.quorum_met = bool(quorum_met)
        self.num_solicited = int(num_solicited)
        self.num_probation = int(num_probation)
        self.accepted = list(accepted)
        self.invalid = list(invalid)
        self.no_response = list(no_response)
        self.late = list(late)
        self.deferred = list(deferred)
        self.shed = list(shed)
        self.rejected = list(rejected)
        self.lost = list(lost)
        self.dedup = list(dedup)
        self.fenced = list(fenced)
        self.held = list(held)
        # (client_id, solicited_round) identity of every aggregated
        # update — the drill suites assert these are globally unique
        # (no update is ever aggregated twice)
        self.accepted_origins = [
            (int(c), int(r)) for c, r in accepted_origins
        ]
        self.strike_quarantined = list(strike_quarantined)
        self.trust_quarantined = list(trust_quarantined)
        self.trust_restored = list(trust_restored)
        self.cohort_trust = cohort_trust
        self.cleansed = bool(cleansed)
        self.degraded = bool(degraded)
        self.entered_degraded = bool(entered_degraded)
        self.exited_degraded = bool(exited_degraded)
        self.test_acc = test_acc
        self.attack_acc = attack_acc

    @property
    def commit_latency(self) -> float:
        """Simulated seconds from round start to commit (<= deadline)."""
        return self.commit_time - self.start

    def to_jsonable(self) -> dict:
        return {
            "round_index": self.round_index,
            "start": self.start,
            "commit_time": self.commit_time,
            "quorum": self.quorum,
            "quorum_met": self.quorum_met,
            "num_solicited": self.num_solicited,
            "num_probation": self.num_probation,
            "accepted": [int(c) for c in self.accepted],
            "invalid": [[int(c), str(r)] for c, r in self.invalid],
            "no_response": [[int(c), str(r)] for c, r in self.no_response],
            "late": [int(c) for c in self.late],
            "deferred": [int(c) for c in self.deferred],
            "shed": [int(c) for c in self.shed],
            "rejected": [int(c) for c in self.rejected],
            "lost": [[int(c), str(r)] for c, r in self.lost],
            "dedup": [int(c) for c in self.dedup],
            "fenced": [int(c) for c in self.fenced],
            "held": [int(c) for c in self.held],
            "accepted_origins": [
                [int(c), int(r)] for c, r in self.accepted_origins
            ],
            "strike_quarantined": [int(c) for c in self.strike_quarantined],
            "trust_quarantined": [int(c) for c in self.trust_quarantined],
            "trust_restored": [int(c) for c in self.trust_restored],
            "cohort_trust": self.cohort_trust,
            "cleansed": self.cleansed,
            "degraded": self.degraded,
            "entered_degraded": self.entered_degraded,
            "exited_degraded": self.exited_degraded,
            "test_acc": self.test_acc,
            "attack_acc": self.attack_acc,
        }

    @classmethod
    def from_jsonable(cls, record: dict) -> "RoundOutcome":
        return cls(
            record["round_index"],
            record["start"],
            record["commit_time"],
            record["quorum"],
            record["quorum_met"],
            num_solicited=record["num_solicited"],
            num_probation=record["num_probation"],
            accepted=record["accepted"],
            invalid=[(int(c), str(r)) for c, r in record["invalid"]],
            no_response=[(int(c), str(r)) for c, r in record["no_response"]],
            late=record["late"],
            deferred=record["deferred"],
            shed=record["shed"],
            rejected=record["rejected"],
            # .get: histories checkpointed before the transport layer
            lost=[(int(c), str(r)) for c, r in record.get("lost", [])],
            dedup=record.get("dedup", []),
            fenced=record.get("fenced", []),
            held=record.get("held", []),
            accepted_origins=record.get("accepted_origins", []),
            strike_quarantined=record["strike_quarantined"],
            trust_quarantined=record["trust_quarantined"],
            trust_restored=record["trust_restored"],
            cohort_trust=record["cohort_trust"],
            cleansed=record["cleansed"],
            degraded=record["degraded"],
            entered_degraded=record["entered_degraded"],
            exited_degraded=record["exited_degraded"],
            test_acc=record["test_acc"],
            attack_acc=record["attack_acc"],
        )

    def __repr__(self) -> str:
        state = "committed" if self.quorum_met else "quorum-failed"
        if self.degraded:
            state += ", degraded"
        return (
            f"RoundOutcome(round={self.round_index}, {state}, "
            f"latency={self.commit_latency:.2f}s, "
            f"accepted={len(self.accepted)}/{self.num_solicited})"
        )


class ServiceHistory:
    """Round outcomes plus the aggregate views bench/CI read off them."""

    def __init__(self) -> None:
        self.rounds: list[RoundOutcome] = []

    def append(self, outcome: RoundOutcome) -> None:
        self.rounds.append(outcome)

    @property
    def commit_latencies(self) -> list[float]:
        return [r.commit_latency for r in self.rounds]

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p90/p99 commit latency over all rounds (nearest-rank)."""
        return percentile_summary(self.commit_latencies)

    @property
    def committed_rounds(self) -> list[int]:
        return [r.round_index for r in self.rounds if r.quorum_met]

    @property
    def quorum_failed_rounds(self) -> list[int]:
        return [r.round_index for r in self.rounds if not r.quorum_met]

    @property
    def degraded_rounds(self) -> list[int]:
        return [r.round_index for r in self.rounds if r.degraded]

    @property
    def cleansed_rounds(self) -> list[int]:
        return [r.round_index for r in self.rounds if r.cleansed]

    def report_counts(self) -> dict[str, int]:
        """Admission accounting over the whole run."""
        return {
            "admitted": sum(len(r.accepted) for r in self.rounds),
            "invalid": sum(len(r.invalid) for r in self.rounds),
            "late": sum(len(r.late) for r in self.rounds),
            "deferred": sum(len(r.deferred) for r in self.rounds),
            "shed": sum(len(r.shed) for r in self.rounds),
            "rejected": sum(len(r.rejected) for r in self.rounds),
            "no_response": sum(len(r.no_response) for r in self.rounds),
        }

    def network_counts(self) -> dict[str, int]:
        """Transport accounting over the whole run (zeros when direct)."""
        return {
            "lost": sum(len(r.lost) for r in self.rounds),
            "dedup": sum(len(r.dedup) for r in self.rounds),
            "fenced": sum(len(r.fenced) for r in self.rounds),
            "held": sum(len(r.held) for r in self.rounds),
        }

    @property
    def aggregated_origins(self) -> list[tuple[int, int]]:
        """(client_id, solicited_round) of every update ever aggregated.

        The no-double-aggregation invariant is ``len(set(...)) ==
        len(...)`` on this list — the drill suites assert exactly that.
        """
        return [
            origin for r in self.rounds for origin in r.accepted_origins
        ]

    @property
    def trust_quarantine_events(self) -> list[tuple[int, int]]:
        """(round_index, client_id) pairs for trust quarantines."""
        return [
            (r.round_index, cid)
            for r in self.rounds
            for cid in r.trust_quarantined
        ]

    def to_jsonable(self) -> list[dict]:
        return [r.to_jsonable() for r in self.rounds]

    @classmethod
    def from_jsonable(cls, records: Sequence[dict]) -> "ServiceHistory":
        history = cls()
        for record in records:
            history.append(RoundOutcome.from_jsonable(record))
        return history

    @property
    def final(self) -> RoundOutcome:
        if not self.rounds:
            raise ValueError("no rounds recorded")
        return self.rounds[-1]

    def __len__(self) -> int:
        return len(self.rounds)


class DefenseService:
    """Long-running deadline-scheduled federated defense coordinator.

    Parameters
    ----------
    model:
        The global model, updated in place on every committed round.
    clients:
        The full population (wrap with
        :func:`~repro.fl.faults.wrap_clients` for fault injection; the
        service reads each wrapped client's
        :class:`~repro.fl.faults.UpdatePlan` to place arrivals).
    test_set:
        Held-out data for the periodic evaluation.
    config:
        The :class:`ServiceConfig` policy bundle.
    backdoor_task:
        When given, evaluations also log attack success rate.
    aggregator:
        The aggregation rule — a registry name, a ``"name:param=value"``
        spec string, an :class:`~repro.fl.aggregation.Aggregator`
        instance, or a bare callable over the accepted delta matrix
        (default FedAvg).  Stateful rules have their cross-round state
        checkpointed alongside the service state.
    traffic:
        A :class:`~repro.fl.traffic.TrafficPattern` adding arrival
        delays on top of fault-drawn straggler delays; ``None`` means
        instant network.
    network:
        A :class:`~repro.fl.transport.SimulatedNetwork` the
        solicitations and updates travel through (build one with
        :func:`~repro.fl.transport.make_network`).  ``None`` is the
        direct path; a transparent (lossless, partition-free) network
        is byte-identical to it.  Either way every report is sequenced
        and checksummed, and ingest runs through the idempotent
        :class:`~repro.fl.transport.DeliveryGate`.
    sampler:
        A :class:`~repro.fl.sampling.ParticipationSampler` drawing each
        round's solicitation cohort from a registered population (pass
        ``clients`` as a :class:`~repro.fl.sampling.ClientPool` to keep
        the population lazy).  Every per-round scan — selection,
        probation, trust cohort, cleanse eligibility — is then
        restricted to the drawn cohort, so round cost scales with the
        cohort, not the population.
    accuracy_fn:
        Validation oracle handed to the incremental cleanse pipeline;
        ``None`` (the default) uses test accuracy on ``test_set``,
        served by the same :class:`~repro.eval.metrics.AccuracyEvaluator`
        as the periodic evaluation.
    context:
        :class:`~repro.obs.context.RunContext` supplying telemetry,
        executor, checkpoint manager and the resume flag; ``None`` uses
        the ambient context.
    """

    def __init__(
        self,
        model: Sequential,
        clients: Sequence,
        test_set: Dataset,
        config: ServiceConfig | None = None,
        backdoor_task: BackdoorTask | None = None,
        traffic: TrafficPattern | None = None,
        network: SimulatedNetwork | None = None,
        sampler: ParticipationSampler | None = None,
        accuracy_fn: Callable[[Sequential], float] | None = None,
        context: RunContext | None = None,
        aggregator: str | Aggregator | Callable | None = None,
        metrics=None,
    ) -> None:
        if not len(clients):
            raise ValueError("need at least one client")
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
        self.model = model
        self.clients = clients if isinstance(clients, ClientPool) else list(clients)
        self.sampler = sampler
        self.test_set = test_set
        self.config = config if config is not None else ServiceConfig()
        self.backdoor_task = backdoor_task
        self.aggregator = build_aggregator(
            aggregator if aggregator is not None else "fedavg"
        )
        self.traffic = traffic
        self.network = network
        # None selects the TA evaluator at cleanse time; storing the
        # bound method here would make the service a reference cycle,
        # freed only by the cyclic collector
        self.accuracy_fn = accuracy_fn
        # (TA, ASR) evaluators over test_set, built by the first
        # evaluation: a service that never evaluates needs no test set
        self._evaluators: tuple | None = None
        ctx = context if context is not None else current_context()
        self.context = ctx
        self.telemetry = ctx.telemetry
        self.executor = ctx.executor
        self.metrics = metrics
        if metrics is not None:
            # the aggregator folds the stream online, as an ordinary
            # sink; the service (not the sink) emits the derived
            # metrics.window / alert.* events — see _pump_metrics
            self.telemetry.add_sink(metrics.aggregator)
        if self.config.degraded_alert is not None:
            if metrics is None:
                raise ValueError(
                    "degraded_alert requires a ServiceMetrics bundle "
                    "(pass metrics=...)"
                )
            metrics.engine.is_firing(self.config.degraded_alert)  # validate name

        self.trust = TrustTracker(self.config.trust)
        self.history = ServiceHistory()
        self.gate = DeliveryGate()
        self._seq: dict[str, int] = {}  # "kind:client_id" -> next seq
        self.pending: list[ReportEnvelope] = []
        self.strike_quarantined: set[int] = set()
        self.trust_quarantined: dict[int, int] = {}  # id -> round entered
        self._strikes: dict[int, int] = {}
        self._misses: dict[int, int] = {}
        self._backoff_until: dict[int, int] = {}
        self._consecutive_failures = 0
        self.degraded = False
        self._last_cleanse_round: int | None = None
        self._committed_rounds = 0

    # -- selection -----------------------------------------------------

    def _candidates(self, round_index: int, announce: bool = False):
        """The clients this round may touch, in stable id order.

        The full population without a sampler; the sampler's drawn
        cohort with one.  Draws are pure functions of ``(seed, round)``,
        so re-deriving the cohort inside a round (trust scan, cleanse)
        costs one cohort-sized draw, never a population scan.
        """
        if self.sampler is None:
            return self.clients
        drawn = self.sampler.draw(round_index)
        cohort = [self.clients[int(i)] for i in drawn]
        if announce:
            self.telemetry.event(
                "fl.cohort_sampled",
                round=round_index,
                population=self.sampler.population,
                drawn=int(drawn.size),
                cohort=len(cohort),
            )
        return cohort

    def _select(self, round_index: int) -> tuple[list, list]:
        """(participants, probation) for a round, in stable client order."""
        cfg = self.config
        participants: list = []
        probation: list = []
        for client in self._candidates(round_index, announce=True):
            cid = client.client_id
            if cid in self.strike_quarantined:
                continue
            if cid in self.trust_quarantined:
                entered = self.trust_quarantined[cid]
                since = round_index - entered
                if since > 0 and since % cfg.probation_interval == 0:
                    probation.append(client)
                continue
            if self._backoff_until.get(cid, 0) > round_index:
                continue
            participants.append(client)
        return participants, probation

    # -- evaluation ----------------------------------------------------

    def _evaluator_pair(self) -> tuple[AccuracyEvaluator, AccuracyEvaluator | None]:
        """The (TA, ASR) evaluators; the triggered set is built once."""
        if self._evaluators is None:
            attack = None
            if self.backdoor_task is not None:
                attack = AccuracyEvaluator(
                    backdoor_eval_set(self.test_set, self.backdoor_task)
                )
            self._evaluators = (AccuracyEvaluator(self.test_set), attack)
        return self._evaluators

    # -- strike path (PR 1 machinery, service-side ledger) -------------

    def _record_strike(self, client_id: int) -> bool:
        """Count an invalid payload; True when it trips quarantine."""
        if self.config.max_client_strikes is None:
            return False
        strikes = self._strikes.get(client_id, 0) + 1
        self._strikes[client_id] = strikes
        if (
            strikes >= self.config.max_client_strikes
            and client_id not in self.strike_quarantined
        ):
            self.strike_quarantined.add(client_id)
            return True
        return False

    # -- backoff ledger ------------------------------------------------

    def _record_miss(self, client_id: int, round_index: int, reason: str) -> None:
        misses = self._misses.get(client_id, 0) + 1
        self._misses[client_id] = misses
        cfg = self.config
        backoff = min(cfg.backoff_base * 2 ** (misses - 1), cfg.backoff_max)
        resume_round = round_index + 1 + backoff
        self._backoff_until[client_id] = resume_round
        self.telemetry.event(
            "service.backoff",
            client=client_id,
            misses=misses,
            backoff_rounds=backoff,
            resume_round=resume_round,
            reason=reason,
        )

    def _clear_miss(self, client_id: int) -> None:
        self._misses.pop(client_id, None)
        self._backoff_until.pop(client_id, None)

    # -- transport -----------------------------------------------------

    def _take_seq(self, kind: str, client_id: int) -> int:
        """Next per-sender sequence number for one wire message."""
        key = f"{kind}:{int(client_id)}"
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        return seq

    def _post_update(
        self,
        env: Envelope,
        *,
        round_index: int,
        sent_at: float,
        ledger: RoundLedger,
        duplicate_lag: float | None = None,
    ) -> tuple[list[Envelope], list[str]]:
        """Send one update (plus its planned retransmit) onto the wire.

        Returns the delivery copies and the per-attempt transit fates.
        ``duplicate_lag`` is the client-level ``duplicate`` fault: the
        same message (same seq) is transmitted a second time that much
        later — the delivery gate, not the sender, keeps it from
        counting twice.
        """
        sends = [(float(sent_at), 0)]
        if duplicate_lag is not None:
            sends.append((float(sent_at) + float(duplicate_lag), 1))
        copies: list[Envelope] = []
        fates: list[str] = []
        for at, attempt in sends:
            message = env if attempt == 0 else env.clone(arrival=at)
            if self.network is None:
                message.arrival = at
                copies.append(message)
                fates.append("delivered")
                continue
            transit = self.network.transmit(
                message,
                round_index=round_index,
                sent_at=at,
                telemetry=self.telemetry,
                ledger=ledger,
                attempt=attempt,
            )
            copies.extend(transit.deliveries)
            fates.append(transit.fate)
        return copies, fates

    def _report_undelivered(
        self,
        client_id: int,
        round_index: int,
        fates: Sequence[str],
        no_response: list[tuple[int, str]],
    ) -> None:
        """No copy of a client's update landed — to the server, silence."""
        reason = (
            "update held behind partition"
            if "held" in fates
            else "update lost in transit"
        )
        no_response.append((client_id, reason))
        self.telemetry.event(
            "service.no_response",
            client=client_id,
            round=round_index,
            reason=reason,
        )

    # -- one round -----------------------------------------------------

    def run_round(self, round_index: int) -> RoundOutcome:
        cfg = self.config
        tel = self.telemetry
        start = round_index * cfg.round_interval
        deadline_at = start + cfg.round_deadline

        with tel.span("service.round", round=round_index) as round_span:
            # one ledger holds the round's admission AND network
            # accounting; both sets of counters are emitted from it
            ledger = RoundLedger()
            # partition transitions announce at round start; messages
            # held behind a healed partition flood into this admission
            # pass (re-timed to arrive no earlier than round start)
            released = (
                self.network.begin_round(round_index, start, tel)
                if self.network is not None
                else []
            )
            participants, probation = self._select(round_index)
            solicited = [(c, False) for c in participants] + [
                (c, True) for c in probation
            ]
            tel.event(
                "service.dispatch",
                round=round_index,
                solicited=len(participants),
                probation=len(probation),
                pending=len(self.pending),
                degraded=self.degraded,
            )
            global_params = self.model.flat_parameters()
            param_dim = int(global_params.size)

            cohort_ids = [c.client_id for c, _ in solicited]
            traffic_delays = (
                self.traffic.delays(round_index, cohort_ids)
                if self.traffic is not None and cohort_ids
                else {}
            )

            no_response = ledger.no_response

            # downlink: solicitations travel the wire too.  A client
            # whose solicitation is lost (or who is partitioned) never
            # hears about the round — the miss/backoff ledger is the
            # at-least-once re-solicitation path.  Solicits are never
            # held: re-soliciting later is the retry.
            solicit_arrival: dict[int, float] = {}
            unreachable: dict[int, str] = {}
            if self.network is not None and not self.network.transparent:
                for client, is_probation in solicited:
                    cid = client.client_id
                    solicit = Envelope(
                        cid,
                        round_index,
                        start,
                        None,
                        is_probation,
                        seq=self._take_seq("solicit", cid),
                        kind="solicit",
                    )
                    transit = self.network.transmit(
                        solicit,
                        round_index=round_index,
                        sent_at=start,
                        telemetry=tel,
                        ledger=ledger,
                        hold_partitioned=False,
                    )
                    if transit.fate == "delivered":
                        solicit_arrival[cid] = min(
                            d.arrival for d in transit.deliveries
                        )
                    elif transit.fate == "lost":
                        unreachable[cid] = "solicitation lost in transit"
                    else:
                        unreachable[cid] = "client unreachable (partitioned)"

            # fault plans resolve coordinator-side in stable client order;
            # the drawn delay plus the traffic delay *places* the send
            # time instead of erasing the response
            to_train: list[tuple] = []  # (client, plan, sent_at, probation)
            fresh: list[ReportEnvelope] = []
            for client, is_probation in solicited:
                cid = client.client_id
                if cid in unreachable:
                    no_response.append((cid, unreachable[cid]))
                    tel.event(
                        "service.no_response",
                        client=cid,
                        round=round_index,
                        reason=unreachable[cid],
                    )
                    continue
                planner = getattr(client, "plan_local_update", None)
                plan = planner(param_dim) if planner is not None else None
                if plan is not None and plan.action == "dropout":
                    no_response.append((cid, plan.error))
                    tel.event(
                        "service.no_response",
                        client=cid,
                        round=round_index,
                        reason=plan.error,
                    )
                    continue
                delay = plan.delay if plan is not None else 0.0
                sent_at = (
                    solicit_arrival.get(cid, start)
                    + delay
                    + traffic_delays.get(cid, 0.0)
                )
                if plan is not None and plan.action == "stale":
                    payload = client._last_delta.copy()
                    env = Envelope(
                        cid, round_index, sent_at, payload, is_probation,
                        seq=self._take_seq("update", cid),
                        checksum=payload_checksum(payload),
                    )
                    copies, fates = self._post_update(
                        env,
                        round_index=round_index,
                        sent_at=sent_at,
                        ledger=ledger,
                        duplicate_lag=(
                            plan.duplicate_lag if plan.duplicate else None
                        ),
                    )
                    fresh.extend(copies)
                    if not copies:
                        self._report_undelivered(
                            cid, round_index, fates, no_response
                        )
                else:
                    to_train.append((client, plan, sent_at, is_probation))

            results = dispatch_updates(
                self.executor,
                [entry[0] for entry in to_train],
                self.model,
                global_params,
                round_index=round_index,
                telemetry=tel,
            )
            for (client, plan, sent_at, is_probation), (status, value) in zip(
                to_train, results
            ):
                cid = client.client_id
                if status != "ok":
                    no_response.append((cid, value))
                    tel.event(
                        "service.no_response",
                        client=cid,
                        round=round_index,
                        reason=value,
                    )
                    continue
                delta = value
                if plan is not None:
                    delta = client.finish_local_update(plan, delta)
                env = Envelope(
                    cid, round_index, sent_at, delta, is_probation,
                    seq=self._take_seq("update", cid),
                    checksum=payload_checksum(delta),
                )
                copies, fates = self._post_update(
                    env,
                    round_index=round_index,
                    sent_at=sent_at,
                    ledger=ledger,
                    duplicate_lag=(
                        plan.duplicate_lag
                        if plan is not None and plan.duplicate
                        else None
                    ),
                )
                fresh.extend(copies)
                if not copies:
                    self._report_undelivered(
                        cid, round_index, fates, no_response
                    )

            # deferred reports (and partition-released ones) join the
            # admission pass at round start
            carried = [
                env.clone(arrival=max(env.arrival, start))
                for env in self.pending
            ]
            self.pending = []
            candidates = sorted(
                released + carried + fresh,
                key=lambda e: (
                    e.arrival,
                    e.client_id,
                    e.solicited_round,
                    -1 if e.seq is None else e.seq,
                ),
            )
            # idempotent ingest: the delivery gate drops retransmits of
            # already-processed message ids and epoch-fences stale-round
            # replays, then at most one envelope per client survives
            # (an in-round copy of the *same* message is a dedup hit;
            # a different message superseded by an earlier arrival is
            # the historic silent collapse)
            kept: dict[int, ReportEnvelope] = {}
            unique: list[ReportEnvelope] = []
            for env in candidates:
                verdict = self.gate.check(env)
                if verdict == "duplicate":
                    ledger.dedup.append(env.client_id)
                    tel.event(
                        "net.dedup",
                        client=env.client_id,
                        round=round_index,
                        solicited_round=env.solicited_round,
                        seq=env.seq,
                    )
                    continue
                if verdict == "stale":
                    ledger.fenced.append(env.client_id)
                    tel.event(
                        "net.fenced",
                        client=env.client_id,
                        round=round_index,
                        solicited_round=env.solicited_round,
                        seq=env.seq,
                        fence=self.gate.fence_round(env.client_id),
                    )
                    continue
                first = kept.get(env.client_id)
                if first is not None:
                    if env.seq is not None and env.seq == first.seq:
                        ledger.dedup.append(env.client_id)
                        tel.event(
                            "net.dedup",
                            client=env.client_id,
                            round=round_index,
                            solicited_round=env.solicited_round,
                            seq=env.seq,
                        )
                    continue
                kept[env.client_id] = env
                unique.append(env)

            # admission in arrival order; commit on quorum-or-deadline.
            # A message id is marked processed only on terminal
            # consumption (admitted / probation-scored / struck
            # invalid); deferred, shed or rejected copies stay unmarked
            # so an at-least-once retransmit gets its second chance.
            quorum = _resolve_quorum(cfg.quorum, len(participants))
            accepted_env = ledger.accepted
            probation_env = ledger.probation
            invalid = ledger.invalid
            strike_quarantined_now: list[int] = []
            overflow: list[ReportEnvelope] = []
            commit_time: float | None = None
            for env in unique:
                if env.arrival > deadline_at or commit_time is not None:
                    overflow.append(env)
                    continue
                problem = None
                if (
                    env.checksum is not None
                    and payload_checksum(env.payload) != env.checksum
                ):
                    problem = "checksum mismatch (corrupted in transit)"
                if problem is None:
                    problem = validate_update(env.payload, param_dim)
                if problem is not None:
                    self.gate.mark_processed(env)
                    invalid.append((env.client_id, problem))
                    tel.event(
                        "service.report_invalid",
                        client=env.client_id,
                        round=round_index,
                        reason=problem,
                    )
                    self._clear_miss(env.client_id)  # it did respond in time
                    if self._record_strike(env.client_id):
                        strike_quarantined_now.append(env.client_id)
                        tel.event(
                            "fl.quarantine",
                            client=env.client_id,
                            strikes=self._strikes[env.client_id],
                        )
                        tel.count("fl.quarantines")
                    continue
                self._clear_miss(env.client_id)
                self.gate.mark_processed(env)
                if env.probation:
                    probation_env.append(env)
                else:
                    accepted_env.append(env)
                    if len(accepted_env) == quorum:
                        commit_time = env.arrival
            quorum_met = len(accepted_env) >= quorum
            if commit_time is None:
                commit_time = deadline_at
            latency = commit_time - start

            # commit / degraded-mode transitions
            entered_degraded = False
            exited_degraded = False
            if quorum_met:
                if self.degraded:
                    self.degraded = False
                    exited_degraded = True
                    tel.event(
                        "service.recovered",
                        round=round_index,
                        failures=self._consecutive_failures,
                    )
                self._consecutive_failures = 0
                update = self.aggregator.aggregate(
                    np.stack([env.payload for env in accepted_env]),
                    client_ids=[env.client_id for env in accepted_env],
                    round_index=round_index,
                    telemetry=tel,
                )
                self.model.load_flat_parameters(global_params + update)
                self._committed_rounds += 1
                # epoch fence: these (client, round) updates are now in
                # the aggregate — any replayed copy claiming this round
                # or an earlier one is stale and can never land again
                for env in accepted_env:
                    self.gate.mark_aggregated(env.client_id, env.solicited_round)
            else:
                self._consecutive_failures += 1
                tel.event(
                    "service.quorum_failed",
                    round=round_index,
                    accepted=len(accepted_env),
                    quorum=quorum,
                    consecutive=self._consecutive_failures,
                )
                tel.count("service.rounds_quorum_failed")
                if not self.degraded and self._should_degrade():
                    self.degraded = True
                    entered_degraded = True
                    self._enter_degraded(round_index)

            # online trust: score the aggregated cohort, then probation
            # deltas against the same (trusted) reference
            trust_quarantined_now: list[int] = []
            trust_restored_now: list[int] = []
            cohort_trust: float | None = None
            if cfg.trust_enabled:
                scored_env = accepted_env + probation_env
                round_scores = self.trust.score_round(
                    [env.client_id for env in scored_env],
                    [env.payload for env in scored_env],
                    num_reference=len(accepted_env),
                )
                for cid in sorted(round_scores):
                    tel.event(
                        "trust.score",
                        client=cid,
                        round=round_index,
                        score=round_scores[cid],
                        trust=self.trust.trust(cid),
                        probation=cid in self.trust_quarantined,
                    )
                already = self.strike_quarantined | set(self.trust_quarantined)
                for cid in self.trust.quarantine_candidates(exclude=already):
                    self.trust_quarantined[cid] = round_index
                    trust_quarantined_now.append(cid)
                    tel.event(
                        "trust.quarantine",
                        client=cid,
                        round=round_index,
                        trust=self.trust.trust(cid),
                    )
                    tel.count("trust.quarantines")
                probation_ids = [
                    env.client_id
                    for env in probation_env
                    if env.client_id in round_scores
                ]
                for cid in self.trust.recovered(probation_ids):
                    self.trust_quarantined.pop(cid, None)
                    self._clear_miss(cid)
                    trust_restored_now.append(cid)
                    tel.event(
                        "trust.restore",
                        client=cid,
                        round=round_index,
                        trust=self.trust.trust(cid),
                    )
                    tel.count("trust.restores")
                active_ids = [
                    c.client_id
                    for c in self._candidates(round_index)
                    if c.client_id not in self.strike_quarantined
                    and c.client_id not in self.trust_quarantined
                ]
                cohort_trust = self.trust.cohort_trust(active_ids)

            # cohort-level dip -> bounded incremental cleanse mid-stream
            cleansed = False
            if (
                cfg.cleanse_threshold is not None
                and quorum_met
                and cohort_trust is not None
                and cohort_trust < cfg.cleanse_threshold
                and (
                    self._last_cleanse_round is None
                    or round_index - self._last_cleanse_round > cfg.cleanse_cooldown
                )
            ):
                cleansed = self._run_cleanse(round_index, cohort_trust)

            # late handling: policy + bounded queue, stable client order
            late = ledger.late
            deferred = ledger.deferred
            shed = ledger.shed
            rejected = ledger.rejected
            for env in sorted(overflow, key=lambda e: (e.client_id, e.solicited_round)):
                cid = env.client_id
                late.append(cid)
                tel.event(
                    "service.report_late",
                    client=cid,
                    round=round_index,
                    solicited_round=env.solicited_round,
                    arrival=env.arrival,
                    deadline=deadline_at,
                )
                if env.solicited_round == round_index and not env.probation:
                    self._record_miss(cid, round_index, "late")
                if (
                    cfg.late_policy != "defer"
                    or env.probation
                    or env.solicited_round != round_index
                ):
                    # drop policy, probation stragglers, and reports that
                    # already had their second chance all expire here
                    continue
                if len(self.pending) >= cfg.max_pending:
                    if cfg.backpressure == "shed_oldest":
                        oldest = self.pending.pop(0)
                        shed.append(oldest.client_id)
                        tel.event(
                            "service.report_shed",
                            client=oldest.client_id,
                            round=round_index,
                            solicited_round=oldest.solicited_round,
                        )
                        tel.count("service.reports_shed")
                    else:
                        rejected.append(cid)
                        tel.event(
                            "service.report_rejected",
                            client=cid,
                            round=round_index,
                        )
                        tel.count("service.reports_rejected")
                        continue
                self.pending.append(env)
                deferred.append(cid)
            for cid, reason in no_response:
                if cid not in {c.client_id for c in probation}:
                    self._record_miss(cid, round_index, "no_response")

            # periodic evaluation on the (possibly frozen) served model
            test_acc: float | None = None
            attack_acc: float | None = None
            if cfg.eval_every and (round_index + 1) % cfg.eval_every == 0:
                with tel.span("service.evaluation", round=round_index):
                    test_eval, attack_eval = self._evaluator_pair()
                    test_acc = test_eval(self.model)
                    if attack_eval is not None:
                        attack_acc = attack_eval(self.model)

            tel.record_span(
                "service.commit_latency",
                latency,
                round=round_index,
                quorum_met=quorum_met,
                accepted=len(accepted_env),
            )
            tel.count("service.rounds")
            if quorum_met:
                tel.count("service.rounds_committed")
            ledger.emit_round_counters(tel)
            tel.gauge("service.pending", len(self.pending))
            round_span.set(
                quorum_met=quorum_met,
                accepted=len(accepted_env),
                latency=latency,
                degraded=self.degraded,
                pending=len(self.pending),
            )

        # outside the round span: the span record (emitted at exit, with
        # every child already folded) is what seals a metrics window, so
        # the derived metrics.window / alert.* events are its siblings
        self._pump_metrics(round_index)

        return RoundOutcome(
            round_index,
            start,
            commit_time,
            quorum,
            quorum_met,
            num_solicited=len(participants),
            num_probation=len(probation),
            accepted=[env.client_id for env in accepted_env],
            invalid=invalid,
            no_response=no_response,
            late=late,
            deferred=deferred,
            shed=shed,
            rejected=rejected,
            lost=ledger.lost,
            dedup=ledger.dedup,
            fenced=ledger.fenced,
            held=ledger.held,
            # only what actually reached the aggregate: a quorum-failed
            # round's accepted reports are discarded, not aggregated
            accepted_origins=(
                [(env.client_id, env.solicited_round) for env in accepted_env]
                if quorum_met
                else []
            ),
            strike_quarantined=strike_quarantined_now,
            trust_quarantined=trust_quarantined_now,
            trust_restored=trust_restored_now,
            cohort_trust=cohort_trust,
            cleansed=cleansed,
            degraded=self.degraded,
            entered_degraded=entered_degraded,
            exited_degraded=exited_degraded,
            test_acc=test_acc,
            attack_acc=attack_acc,
        )

    # -- live metrics & alerting ---------------------------------------

    def _pump_metrics(self, round_index: int) -> None:
        """Drain sealed windows, evaluate SLO rules, emit the results.

        Runs after each round's span closes: the aggregator (a plain
        sink) has already folded the round, so any window it sealed is
        final.  Each sealed window becomes one ``metrics.window`` event
        and feeds the alert engine, whose transitions become
        ``alert.fired`` / ``alert.resolved`` events.  Emission happens
        here — never inside the sink — so downstream sinks see the
        derived records in clean ``seq`` order, and everything is in
        the stream before the round's checkpoint is cut.
        """
        if self.metrics is None:
            return
        tel = self.telemetry
        for window in self.metrics.aggregator.take_sealed():
            tel.event(
                "metrics.window",
                round=round_index,
                window=window["window"],
                start_round=window["start_round"],
                end_round=window["end_round"],
                slis=window["slis"],
            )
            for transition in self.metrics.engine.evaluate(window):
                fired = transition["action"] == "fired"
                tel.event(
                    "alert.fired" if fired else "alert.resolved",
                    round=round_index,
                    alert=transition["alert"],
                    sli=transition["sli"],
                    value=transition["value"],
                    threshold=transition["threshold"],
                    window=transition["window"],
                )
                tel.count("alert.firings" if fired else "alert.resolutions")

    # -- degraded mode -------------------------------------------------

    def _should_degrade(self) -> bool:
        """The degraded-mode entry gate for a quorum-failed round.

        Default: the bare consecutive-failure counter.  With
        ``degraded_alert`` set, entry follows the monitor instead: the
        service degrades only while the named alert is firing — i.e.
        after the SLO's ``for``-windows held — and the counter (still
        maintained) becomes advisory.
        """
        cfg = self.config
        if cfg.degraded_alert is not None:
            return self.metrics.engine.is_firing(cfg.degraded_alert)
        return self._consecutive_failures >= cfg.degraded_after

    def _enter_degraded(self, round_index: int) -> None:
        """Freeze aggregation and reload the last-good snapshot params."""
        tel = self.telemetry
        checkpoint = self.context.checkpoint
        entry = (
            checkpoint.latest_entry("service") if checkpoint is not None else None
        )
        tel.event(
            "service.degraded",
            round=round_index,
            failures=self._consecutive_failures,
            snapshot=None if entry is None else entry["file"],
            snapshot_step=None if entry is None else entry["step"],
        )
        tel.count("service.degraded_entries")
        if checkpoint is None:
            return
        snapshot = checkpoint.load_latest("service")
        if snapshot is None:
            return
        model_arrays = {
            name: value
            for name, value in snapshot.arrays.items()
            if not name.startswith(
                (DELTA_PREFIX, PENDING_PREFIX, AGGREGATOR_PREFIX, HELD_PREFIX)
            )
        }
        apply_model_state(self.model, model_arrays)

    # -- incremental cleanse -------------------------------------------

    def _cleanse_clients(self, round_index: int) -> list:
        return [
            c
            for c in self._candidates(round_index)
            if c.client_id not in self.strike_quarantined
            and c.client_id not in self.trust_quarantined
        ]

    def _run_cleanse(self, round_index: int, cohort_trust: float) -> bool:
        """A bounded FP/AW pass through DefensePipeline, mid-stream."""
        # local import: repro.defense imports repro.fl submodules, so a
        # module-level import here would cycle through the packages
        from ..defense.pipeline import DefenseConfig, DefensePipeline

        tel = self.telemetry
        cfg = self.config
        clients = self._cleanse_clients(round_index)
        if len(clients) < cfg.min_cleanse_clients:
            tel.event(
                "service.cleanse_skipped",
                round=round_index,
                reason=f"only {len(clients)} unquarantined clients",
            )
            return False
        defense_config = cfg.cleanse_config
        if defense_config is None:
            defense_config = DefenseConfig(
                fine_tune=False,
                max_prune_fraction=0.25,
                aw_delta_start=3.0,
                aw_delta_min=2.0,
            )
        accuracy_fn = self.accuracy_fn
        if accuracy_fn is None:
            accuracy_fn = self._evaluator_pair()[0]
        pipeline = DefensePipeline(
            clients,
            accuracy_fn,
            defense_config,
            context=RunContext(telemetry=tel, executor=self.executor),
        )
        with tel.span(
            "service.cleanse",
            round=round_index,
            cohort_trust=cohort_trust,
            clients=len(clients),
        ) as span:
            try:
                report = pipeline.run(self.model, incremental=True)
            except ValueError as exc:
                # below report quorum: the stream stays up, uncleansed
                tel.event(
                    "service.cleanse_failed",
                    round=round_index,
                    reason=str(exc),
                )
                return False
            span.set(pruned=report.pruning.num_pruned)
        # adopt the pipeline's report-strike quarantines: a client the
        # cleanse convicted of malformed reports stays out of rounds too
        for cid in sorted(pipeline.quarantined):
            if cid not in self.strike_quarantined:
                self.strike_quarantined.add(cid)
                tel.event(
                    "service.quarantine_adopted",
                    client=cid,
                    round=round_index,
                    source="reports",
                )
        tel.count("service.cleanses")
        self._last_cleanse_round = round_index
        return True

    # -- lifecycle -----------------------------------------------------

    def run(self, num_rounds: int) -> ServiceHistory:
        """Serve ``num_rounds`` deadline-scheduled rounds.

        Honors the context's checkpoint manager and ``resume`` flag the
        way :meth:`FederatedServer.train` does: with ``resume`` the
        service restarts from the newest verifiable ``"service"``
        snapshot (round cursor, ledgers, pending queue, trust state)
        and re-opens its ``service.run`` span under the checkpointed
        identity, so the stitched stream matches an uninterrupted run.
        """
        if num_rounds < 1:
            raise ValueError(f"num_rounds must be >= 1, got {num_rounds}")
        tel = self.telemetry
        ctx = self.context
        checkpoint = ctx.checkpoint
        start_round = 0
        run_span = None
        if ctx.resume:
            if checkpoint is None:
                raise ValueError("context.resume requires a checkpoint manager")
            snapshot = checkpoint.load_latest("service")
            if snapshot is not None:
                tel.event(
                    "persist.resume",
                    kind="service",
                    step=snapshot.step,
                    path=snapshot.path,
                    rejected=[f for f, _ in checkpoint.last_rejected],
                )
                self.restore_checkpoint(snapshot)
                start_round = snapshot.step
                span_id = snapshot.meta.get("service_span_id")
                if span_id is not None:
                    run_span = tel.resume_span(
                        "service.run", span_id, rounds=num_rounds
                    )
        if run_span is None:
            run_span = tel.span("service.run", rounds=num_rounds)
        with run_span:
            for round_index in range(start_round, num_rounds):
                outcome = self.run_round(round_index)
                self.history.append(outcome)
                if (
                    checkpoint is not None
                    and outcome.quorum_met
                    and self._committed_rounds % self.config.checkpoint_every == 0
                ):
                    self.save_checkpoint(checkpoint, round_index + 1)
            run_span.set(
                committed=len(self.history.committed_rounds),
                degraded=self.degraded,
            )
        return self.history

    # -- persistence ---------------------------------------------------

    def save_checkpoint(
        self, checkpoint: CheckpointManager, round_cursor: int
    ) -> Snapshot:
        """Durably snapshot the full service state after a committed round.

        Saves happen only on quorum-met rounds, so every ``"service"``
        snapshot is by construction a *last-good* model — exactly what
        degraded mode re-serves.
        """
        if isinstance(self.clients, ClientPool):
            raise ValueError(
                "checkpointing a lazily materialized ClientPool is not "
                "supported: unmaterialized clients have no state to "
                "capture, so a restore could not be bitwise faithful"
            )
        tel = self.telemetry
        tel.event("persist.checkpoint", kind="service", round=round_cursor)
        arrays = pack_model_state(self.model)
        client_meta, client_arrays = capture_client_states(self.clients)
        arrays.update(client_arrays)
        pending_meta = []
        for i, env in enumerate(self.pending):
            key = f"{PENDING_PREFIX}{i}"
            arrays[key] = np.asarray(env.payload)
            pending_meta.append(env.to_meta(key))
        aggregator_meta, aggregator_arrays = pack_state_arrays(
            self.aggregator.state_dict(), AGGREGATOR_PREFIX
        )
        arrays.update(aggregator_arrays)
        transport_meta = {
            "gate": self.gate.state_dict(),
            "seq": {str(k): int(v) for k, v in self._seq.items()},
        }
        if self.network is not None:
            network_meta, network_arrays = self.network.pack_state()
            arrays.update(network_arrays)
            transport_meta["network"] = network_meta
        meta = {
            "round_cursor": int(round_cursor),
            "transport": transport_meta,
            "aggregator": aggregator_meta,
            "strikes": {str(k): int(v) for k, v in self._strikes.items()},
            "strike_quarantined": sorted(int(c) for c in self.strike_quarantined),
            "trust_quarantined": {
                str(k): int(v) for k, v in self.trust_quarantined.items()
            },
            "misses": {str(k): int(v) for k, v in self._misses.items()},
            "backoff_until": {
                str(k): int(v) for k, v in self._backoff_until.items()
            },
            "consecutive_failures": int(self._consecutive_failures),
            "degraded": bool(self.degraded),
            "last_cleanse_round": self._last_cleanse_round,
            "committed_rounds": int(self._committed_rounds),
            "trust": self.trust.state_dict(),
            "pending": pending_meta,
            "clients": client_meta,
            "history": self.history.to_jsonable(),
            "metrics": (
                None if self.metrics is None else self.metrics.state_dict()
            ),
            "telemetry": tel.state_dict(),
            "service_span_id": (
                tel.current_span.span_id if tel.current_span is not None else None
            ),
        }
        fault_model = shared_fault_model(self.clients)
        if fault_model is not None:
            meta["fault_model"] = fault_model.state_dict()
        return checkpoint.save("service", round_cursor, arrays, meta)

    def restore_checkpoint(self, snapshot: Snapshot) -> None:
        """Apply a ``"service"`` snapshot to this (freshly built) service."""
        meta = snapshot.meta
        model_arrays = {
            name: value
            for name, value in snapshot.arrays.items()
            if not name.startswith(
                (DELTA_PREFIX, PENDING_PREFIX, AGGREGATOR_PREFIX, HELD_PREFIX)
            )
        }
        apply_model_state(self.model, model_arrays)
        if "aggregator" in meta:
            self.aggregator.load_state_dict(
                unpack_state_arrays(meta["aggregator"], snapshot.arrays)
            )
        restore_client_states(self.clients, meta["clients"], snapshot.arrays)
        fault_model = shared_fault_model(self.clients)
        if fault_model is not None and "fault_model" in meta:
            fault_model.load_state_dict(meta["fault_model"])
        self._strikes = {int(k): int(v) for k, v in meta["strikes"].items()}
        self.strike_quarantined = {int(c) for c in meta["strike_quarantined"]}
        self.trust_quarantined = {
            int(k): int(v) for k, v in meta["trust_quarantined"].items()
        }
        self._misses = {int(k): int(v) for k, v in meta["misses"].items()}
        self._backoff_until = {
            int(k): int(v) for k, v in meta["backoff_until"].items()
        }
        self._consecutive_failures = int(meta["consecutive_failures"])
        self.degraded = bool(meta["degraded"])
        self._last_cleanse_round = meta["last_cleanse_round"]
        self._committed_rounds = int(meta["committed_rounds"])
        self.trust.load_state_dict(meta["trust"])
        self.pending = [
            Envelope.from_meta(record, snapshot.arrays[record["key"]])
            for record in meta["pending"]
        ]
        # .get: snapshots written before the transport layer have no
        # gate/seq cursors — start those ledgers empty
        transport_meta = meta.get("transport")
        if transport_meta is not None:
            self.gate.load_state_dict(transport_meta["gate"])
            self._seq = {
                str(k): int(v) for k, v in transport_meta["seq"].items()
            }
            if self.network is not None and "network" in transport_meta:
                self.network.load_state(
                    transport_meta["network"], snapshot.arrays
                )
        self.history = ServiceHistory.from_jsonable(meta["history"])
        if self.metrics is not None:
            # .get: pre-metrics snapshots restore with empty window state
            self.metrics.load_state_dict(meta.get("metrics"))
        self.telemetry.load_state_dict(meta.get("telemetry"))

    def __repr__(self) -> str:
        return (
            f"DefenseService(clients={len(self.clients)}, "
            f"rounds={len(self.history)}, degraded={self.degraded})"
        )
