"""Simulated lossy transport between clients and the defense server.

The :class:`~repro.fl.faults.FaultModel` decides what a client *does*
(drop out, straggle, corrupt its own delta) and :mod:`repro.fl.traffic`
decides when a well-behaved response would land; this module makes the
wire itself a first-class adversary.  Every solicitation and update
travels as a versioned :class:`Envelope` (sender, round epoch,
per-sender sequence number, payload checksum) through a
:class:`SimulatedNetwork` whose per-link :class:`LinkModel` draws
latency/jitter, loss, duplication, reordering, payload corruption and
scheduled :class:`Partition` windows (with heal times) — all on the
service's simulated clock, no real sleeping anywhere.

Receive-side, :class:`DeliveryGate` is the idempotent ingest path: a
per-sender message-id dedup (a duplicated copy of a processed message
is dropped, never re-scored), and an epoch fence (once a client's
round-``r`` update is aggregated, any retransmit of round ``<= r`` is
stale and rejected — a replayed poisoned update can never be aggregated
twice).  Checksum verification happens at admission in the service and
feeds the existing invalid/strike machinery.

:class:`RoundLedger` is the single source of truth for one round's
admission *and* network accounting — the service's late/defer/shed
bookkeeping and the wire's lost/duplicate/dedup/fenced tallies live on
the same object, so the two can never drift apart.

Determinism contract
--------------------
Every link draw derives a fresh generator from
``(seed, round, client, direction, seq)`` via
:class:`numpy.random.SeedSequence` — the same discipline
:mod:`repro.fl.traffic` uses — so message fates are a pure function of
the message's identity: independent of executor engine, dispatch order,
and how many draws other messages consumed.  Delivery is planned
coordinator-side (like :class:`~repro.fl.faults.UpdatePlan`), so
serial/process/megabatch engines stay byte-identical.

A lossless :class:`LinkModel` with no partitions is *transparent*:
:meth:`SimulatedNetwork.transmit` forwards the envelope at its send
time, emits no telemetry, and the run is byte-identical — history,
parameters, canonical stream — to the direct (``network=None``) path.
"""

from __future__ import annotations

import zlib
from typing import Mapping, Sequence

import numpy as np

from ..obs.metrics import percentile_summary
from ..specs import format_spec, parse_spec

__all__ = [
    "Envelope",
    "LinkModel",
    "LinkPlan",
    "Partition",
    "Transit",
    "DeliveryGate",
    "RoundLedger",
    "SimulatedNetwork",
    "payload_checksum",
    "make_network",
    "network_names",
    "NETWORK_PRESETS",
    "HELD_PREFIX",
]

#: array-name prefix for partition-held payloads inside a service snapshot
HELD_PREFIX = "net_held."

MESSAGE_KINDS = ("update", "solicit")
_KIND_CODE = {kind: i for i, kind in enumerate(MESSAGE_KINDS)}


def payload_checksum(payload) -> int:
    """CRC-32 over an array's bytes, dtype and shape.

    Cheap enough to stamp on every report and strong enough to catch
    in-flight corruption; collisions against an adversary are not the
    threat model (the trust/strike machinery is).
    """
    arr = np.asarray(payload)
    digest = zlib.crc32(arr.tobytes())
    digest = zlib.crc32(str(arr.dtype).encode(), digest)
    digest = zlib.crc32(str(arr.shape).encode(), digest)
    return int(digest)


class Envelope:
    """One message on the simulated wire (schema version 1).

    ``client_id`` names the client endpoint of the link — the sender for
    ``"update"`` messages, the receiver for ``"solicit"`` ones.
    ``solicited_round`` is the round epoch the payload belongs to,
    ``seq`` the per-sender monotonic message id (``None`` for legacy
    envelopes that never touched the wire), and ``checksum`` the
    :func:`payload_checksum` stamped at send time — a delivery whose
    payload no longer matches it was corrupted in transit.
    """

    VERSION = 1

    __slots__ = (
        "client_id",
        "solicited_round",
        "arrival",
        "payload",
        "probation",
        "seq",
        "checksum",
        "kind",
    )

    def __init__(
        self,
        client_id: int,
        solicited_round: int,
        arrival: float,
        payload,
        probation: bool = False,
        *,
        seq: int | None = None,
        checksum: int | None = None,
        kind: str = "update",
    ) -> None:
        if kind not in MESSAGE_KINDS:
            raise ValueError(f"kind must be one of {MESSAGE_KINDS}, got {kind!r}")
        self.client_id = int(client_id)
        self.solicited_round = int(solicited_round)
        self.arrival = float(arrival)
        self.payload = payload
        self.probation = bool(probation)
        self.seq = None if seq is None else int(seq)
        self.checksum = None if checksum is None else int(checksum)
        self.kind = kind

    def clone(self, *, arrival: float | None = None, payload=None) -> "Envelope":
        """A delivery copy: same identity, possibly re-timed/corrupted."""
        return Envelope(
            self.client_id,
            self.solicited_round,
            self.arrival if arrival is None else arrival,
            self.payload if payload is None else payload,
            self.probation,
            seq=self.seq,
            checksum=self.checksum,
            kind=self.kind,
        )

    def to_meta(self, key: str | None = None) -> dict:
        """JSON-able identity (payload packed separately under ``key``)."""
        record = {
            "client_id": self.client_id,
            "solicited_round": self.solicited_round,
            "arrival": self.arrival,
            "probation": self.probation,
            "seq": self.seq,
            "checksum": self.checksum,
            "kind": self.kind,
        }
        if key is not None:
            record["key"] = key
        return record

    @classmethod
    def from_meta(cls, record: dict, payload) -> "Envelope":
        return cls(
            record["client_id"],
            record["solicited_round"],
            record["arrival"],
            payload,
            record.get("probation", False),
            seq=record.get("seq"),
            checksum=record.get("checksum"),
            kind=record.get("kind", "update"),
        )

    def __repr__(self) -> str:
        tag = ", probation" if self.probation else ""
        seq = "" if self.seq is None else f", seq={self.seq}"
        return (
            f"Envelope({self.kind}, client={self.client_id}, "
            f"round={self.solicited_round}, arrival={self.arrival:.2f}"
            f"{seq}{tag})"
        )


class LinkPlan:
    """Every draw one message's transit resolved to, coordinator-side."""

    __slots__ = (
        "lost",
        "latency",
        "duplicated",
        "duplicate_lag",
        "reordered",
        "reorder_lag",
        "corrupt_where",
        "corrupt_bump",
    )

    def __init__(
        self,
        lost: bool = False,
        latency: float = 0.0,
        duplicated: bool = False,
        duplicate_lag: float = 0.0,
        reordered: bool = False,
        reorder_lag: float = 0.0,
        corrupt_where: np.ndarray | None = None,
        corrupt_bump: np.ndarray | None = None,
    ) -> None:
        self.lost = lost
        self.latency = latency
        self.duplicated = duplicated
        self.duplicate_lag = duplicate_lag
        self.reordered = reordered
        self.reorder_lag = reorder_lag
        self.corrupt_where = corrupt_where
        self.corrupt_bump = corrupt_bump

    def __repr__(self) -> str:
        if self.lost:
            return "LinkPlan(lost)"
        tags = [f"latency={self.latency:.2f}"]
        if self.duplicated:
            tags.append("duplicated")
        if self.reordered:
            tags.append("reordered")
        if self.corrupt_where is not None:
            tags.append("corrupt")
        return f"LinkPlan({', '.join(tags)})"


class LinkModel:
    """Seeded per-link fault distribution (one client's path to the server).

    Parameters
    ----------
    seed:
        Seed of the link's fault schedule; draws derive per message from
        ``(seed, round, client, direction, seq)``, never from a shared
        stream cursor.
    latency, jitter:
        Base one-way latency interval plus an extra jitter interval,
        both uniform in simulated seconds and additive.
    loss_prob:
        Per-message probability the message silently vanishes.
    duplicate_prob, duplicate_lag:
        Probability the wire delivers a second copy (same seq), arriving
        ``duplicate_lag``-uniform seconds after the first.
    corrupt_prob:
        Probability a payload-bearing message is damaged in flight: a
        drawn subset of entries is perturbed, so the stamped checksum no
        longer matches and the receiver's ingest rejects it.
    reorder_prob, reorder_lag:
        Probability the message is shoved behind later traffic by an
        extra ``reorder_lag``-uniform delay (the receive side observes
        the seq inversion and reports it).
    """

    def __init__(
        self,
        seed: int = 0,
        latency: tuple[float, float] = (0.0, 0.0),
        jitter: tuple[float, float] = (0.0, 0.0),
        loss_prob: float = 0.0,
        duplicate_prob: float = 0.0,
        duplicate_lag: tuple[float, float] = (0.5, 2.0),
        corrupt_prob: float = 0.0,
        reorder_prob: float = 0.0,
        reorder_lag: tuple[float, float] = (1.0, 5.0),
    ) -> None:
        for name, prob in (
            ("loss_prob", loss_prob),
            ("duplicate_prob", duplicate_prob),
            ("corrupt_prob", corrupt_prob),
            ("reorder_prob", reorder_prob),
        ):
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {prob}")
        for name, interval in (
            ("latency", latency),
            ("jitter", jitter),
            ("duplicate_lag", duplicate_lag),
            ("reorder_lag", reorder_lag),
        ):
            if interval[0] > interval[1] or interval[0] < 0:
                raise ValueError(f"bad {name} interval {interval}")
        self.seed = int(seed)
        self.latency = (float(latency[0]), float(latency[1]))
        self.jitter = (float(jitter[0]), float(jitter[1]))
        self.loss_prob = float(loss_prob)
        self.duplicate_prob = float(duplicate_prob)
        self.duplicate_lag = (float(duplicate_lag[0]), float(duplicate_lag[1]))
        self.corrupt_prob = float(corrupt_prob)
        self.reorder_prob = float(reorder_prob)
        self.reorder_lag = (float(reorder_lag[0]), float(reorder_lag[1]))

    @property
    def lossless(self) -> bool:
        """True when the link is provably transparent (no fault can fire)."""
        return (
            self.loss_prob == 0.0
            and self.duplicate_prob == 0.0
            and self.corrupt_prob == 0.0
            and self.reorder_prob == 0.0
            and self.latency == (0.0, 0.0)
            and self.jitter == (0.0, 0.0)
        )

    def _rng(
        self, round_index: int, client_id: int, kind: str, seq: int, salt: int = 0
    ) -> np.random.Generator:
        """One generator per message — fate is a pure function of identity."""
        return np.random.default_rng(
            np.random.SeedSequence(
                (
                    int(self.seed),
                    int(round_index),
                    int(client_id),
                    _KIND_CODE[kind],
                    int(seq),
                    int(salt),
                )
            )
        )

    def plan(
        self,
        round_index: int,
        client_id: int,
        kind: str,
        seq: int,
        payload_size: int | None,
        attempt: int = 0,
    ) -> LinkPlan:
        """Resolve every transit draw for one message, in fixed order.

        ``attempt`` distinguishes retransmissions of the same message
        (same seq — e.g. the client-level ``duplicate`` fault): each
        attempt gets an independent fate, still a pure function of the
        message's identity.
        """
        rng = self._rng(round_index, client_id, kind, seq, salt=2 * int(attempt))
        if self.loss_prob > 0 and rng.random() < self.loss_prob:
            return LinkPlan(lost=True)
        latency = float(rng.uniform(*self.latency)) + float(
            rng.uniform(*self.jitter)
        )
        reordered = self.reorder_prob > 0 and rng.random() < self.reorder_prob
        reorder_lag = float(rng.uniform(*self.reorder_lag)) if reordered else 0.0
        duplicated = self.duplicate_prob > 0 and rng.random() < self.duplicate_prob
        duplicate_lag = (
            float(rng.uniform(*self.duplicate_lag)) if duplicated else 0.0
        )
        corrupt_where = corrupt_bump = None
        if (
            payload_size  # payload-less solicitations cannot corrupt
            and self.corrupt_prob > 0
            and rng.random() < self.corrupt_prob
        ):
            num_bad = max(1, int(payload_size) // 64)
            corrupt_where = rng.choice(int(payload_size), size=num_bad, replace=False)
            corrupt_bump = rng.uniform(0.5, 1.5, size=num_bad)
        return LinkPlan(
            lost=False,
            latency=latency,
            duplicated=duplicated,
            duplicate_lag=duplicate_lag,
            reordered=reordered,
            reorder_lag=reorder_lag,
            corrupt_where=corrupt_where,
            corrupt_bump=corrupt_bump,
        )

    def heal_lag(
        self, round_index: int, client_id: int, kind: str, seq: int
    ) -> float:
        """Post-heal delivery jitter for a partition-held message."""
        rng = self._rng(round_index, client_id, kind, seq, salt=1)
        return float(rng.uniform(*self.jitter)) + float(
            rng.uniform(*self.latency)
        )

    def __repr__(self) -> str:
        if self.lossless:
            return f"LinkModel(seed={self.seed}, lossless)"
        return (
            f"LinkModel(seed={self.seed}, loss={self.loss_prob}, "
            f"dup={self.duplicate_prob}, corrupt={self.corrupt_prob}, "
            f"reorder={self.reorder_prob}, latency={self.latency})"
        )


class Partition:
    """A scheduled network partition ``[start, heal)`` on the sim clock.

    ``clients`` restricts the cut to a subset of client ids (``None``
    partitions everyone).  ``mode`` decides what happens to an update
    sent while cut off: ``"hold"`` queues it in the network and floods
    it in when the partition heals (the partition-heal drill);
    ``"drop"`` loses it outright.  Solicitations are never held — the
    server's backoff re-solicitation is the at-least-once retry path.
    """

    __slots__ = ("start", "heal", "clients", "mode")

    def __init__(
        self,
        start: float,
        heal: float,
        clients: Sequence[int] | None = None,
        mode: str = "hold",
    ) -> None:
        if heal <= start:
            raise ValueError(f"heal must be after start, got [{start}, {heal})")
        if mode not in ("hold", "drop"):
            raise ValueError(f"mode must be 'hold' or 'drop', got {mode!r}")
        self.start = float(start)
        self.heal = float(heal)
        self.clients = None if clients is None else frozenset(int(c) for c in clients)
        self.mode = mode

    def covers(self, t: float, client_id: int) -> bool:
        if not self.start <= t < self.heal:
            return False
        return self.clients is None or int(client_id) in self.clients

    def __repr__(self) -> str:
        who = "all" if self.clients is None else sorted(self.clients)
        return (
            f"Partition([{self.start}, {self.heal}), clients={who}, "
            f"mode={self.mode!r})"
        )


class Transit:
    """What one :meth:`SimulatedNetwork.transmit` call did with a message."""

    FATES = ("delivered", "lost", "held", "partition_dropped")

    __slots__ = ("fate", "deliveries")

    def __init__(self, fate: str, deliveries: Sequence[Envelope]) -> None:
        if fate not in self.FATES:
            raise ValueError(f"fate must be one of {self.FATES}, got {fate!r}")
        self.fate = fate
        self.deliveries = list(deliveries)

    def __repr__(self) -> str:
        return f"Transit({self.fate}, copies={len(self.deliveries)})"


class DeliveryGate:
    """Idempotent receive path: message-id dedup plus epoch fencing.

    A message id is marked *processed* only when its payload reached a
    terminal state (admitted, probation-scored, or struck invalid) —
    deferred, shed or rejected copies stay unmarked so a retransmit gets
    its at-least-once second chance.  The fence records, per client, the
    highest round whose update was actually aggregated; any later copy
    claiming that epoch (or an earlier one) is stale and can never be
    aggregated twice.
    """

    def __init__(self) -> None:
        self._processed: dict[int, set[int]] = {}
        self._fence: dict[int, int] = {}
        self.dedup_hits = 0
        self.fenced_total = 0

    def check(self, env: Envelope) -> str:
        """``"duplicate"`` / ``"stale"`` / ``"fresh"`` for one delivery."""
        if (
            env.seq is not None
            and env.seq in self._processed.get(env.client_id, ())
        ):
            self.dedup_hits += 1
            return "duplicate"
        if (
            env.kind == "update"
            and env.solicited_round <= self._fence.get(env.client_id, -1)
        ):
            self.fenced_total += 1
            return "stale"
        return "fresh"

    def mark_processed(self, env: Envelope) -> None:
        if env.seq is None:
            return
        self._processed.setdefault(env.client_id, set()).add(env.seq)

    def mark_aggregated(self, client_id: int, round_index: int) -> None:
        cid = int(client_id)
        self._fence[cid] = max(self._fence.get(cid, -1), int(round_index))

    def fence_round(self, client_id: int) -> int:
        """Highest aggregated round for a client (-1 when none)."""
        return self._fence.get(int(client_id), -1)

    def state_dict(self) -> dict:
        return {
            "processed": {
                str(cid): sorted(seqs) for cid, seqs in self._processed.items()
            },
            "fence": {str(cid): int(r) for cid, r in self._fence.items()},
            "dedup_hits": int(self.dedup_hits),
            "fenced_total": int(self.fenced_total),
        }

    def load_state_dict(self, state: dict) -> None:
        self._processed = {
            int(cid): {int(s) for s in seqs}
            for cid, seqs in state["processed"].items()
        }
        self._fence = {int(cid): int(r) for cid, r in state["fence"].items()}
        self.dedup_hits = int(state["dedup_hits"])
        self.fenced_total = int(state["fenced_total"])

    def __repr__(self) -> str:
        return (
            f"DeliveryGate(clients={len(self._processed)}, "
            f"dedup_hits={self.dedup_hits}, fenced={self.fenced_total})"
        )


class RoundLedger:
    """One round's admission *and* network accounting, one object.

    The service's late/defer/shed/backpressure bookkeeping and the
    wire's lost/duplicate/dedup/fenced tallies are recorded here side by
    side, and the round-end counters are emitted from this object alone
    — admission stats and network stats cannot drift apart because they
    have no second home.
    """

    def __init__(self) -> None:
        # admission side (what PR 6 tracked in loose locals)
        self.accepted: list[Envelope] = []
        self.probation: list[Envelope] = []
        self.invalid: list[tuple[int, str]] = []
        self.no_response: list[tuple[int, str]] = []
        self.late: list[int] = []
        self.deferred: list[int] = []
        self.shed: list[int] = []
        self.rejected: list[int] = []
        # network side
        self.lost: list[tuple[int, str]] = []
        self.duplicates: list[int] = []
        self.dedup: list[int] = []
        self.fenced: list[int] = []
        self.corrupt_in_flight: list[int] = []
        self.reordered: list[int] = []
        self.held: list[int] = []

    #: network counter name -> list attribute; counters are emitted only
    #: when non-zero so a quiet (or transparent) round's stream stays
    #: byte-identical to the pre-transport one (the ``exec.redispatches``
    #: precedent)
    NETWORK_COUNTERS = (
        ("net.messages_lost", "lost"),
        ("net.messages_duplicated", "duplicates"),
        ("net.dedup_hits", "dedup"),
        ("net.messages_fenced", "fenced"),
        ("net.messages_corrupted", "corrupt_in_flight"),
        ("net.messages_reordered", "reordered"),
        ("net.messages_held", "held"),
    )

    def emit_round_counters(self, telemetry) -> None:
        """The round-end counter block, admission and network together."""
        telemetry.count("service.reports_admitted", len(self.accepted))
        telemetry.count("service.reports_invalid", len(self.invalid))
        telemetry.count("service.reports_late", len(self.late))
        telemetry.count("service.reports_no_response", len(self.no_response))
        for name, attr in self.NETWORK_COUNTERS:
            values = getattr(self, attr)
            if values:
                telemetry.count(name, len(values))

    def network_counts(self) -> dict[str, int]:
        return {attr: len(getattr(self, attr)) for _, attr in self.NETWORK_COUNTERS}

    def __repr__(self) -> str:
        return (
            f"RoundLedger(accepted={len(self.accepted)}, "
            f"late={len(self.late)}, lost={len(self.lost)}, "
            f"dedup={len(self.dedup)}, fenced={len(self.fenced)})"
        )


class SimulatedNetwork:
    """The wire: per-link fault models plus scheduled partitions.

    Parameters
    ----------
    link:
        Default :class:`LinkModel` for every client.
    links:
        Per-client overrides (``{client_id: LinkModel}``).
    partitions:
        :class:`Partition` windows on the simulated clock.
    name:
        Label for telemetry/bench summaries (the spec name for preset
        networks).

    ``transmit`` plans each message's fate coordinator-side and returns
    the delivery copies with their simulated arrival times; updates sent
    into a ``"hold"`` partition are queued in the network's in-flight
    buffer and released by :meth:`begin_round` once the heal time
    passes.  A transparent network (lossless links, no partitions)
    forwards messages untouched and emits nothing.
    """

    def __init__(
        self,
        link: LinkModel | None = None,
        links: Mapping[int, LinkModel] | None = None,
        partitions: Sequence[Partition] = (),
        name: str = "network",
    ) -> None:
        self.link = link if link is not None else LinkModel()
        self.links = {int(c): lm for c, lm in (links or {}).items()}
        self.partitions = sorted(partitions, key=lambda p: (p.start, p.heal))
        self.name = str(name)
        self._held: list[tuple[int, Envelope]] = []
        self._partition_announced: set[int] = set()
        self._heal_announced: set[int] = set()
        self._watermark: dict[str, float] = {}  # "kind:cid" -> max arrival
        self.latencies: list[float] = []
        self.stats: dict[str, int] = {
            "sent": 0,
            "delivered": 0,
            "lost": 0,
            "duplicates": 0,
            "corrupted": 0,
            "reordered": 0,
            "held": 0,
            "partition_dropped": 0,
        }

    @property
    def transparent(self) -> bool:
        """Provably a no-op: lossless everywhere and never partitioned."""
        return (
            not self.partitions
            and self.link.lossless
            and all(lm.lossless for lm in self.links.values())
        )

    def link_for(self, client_id: int) -> LinkModel:
        return self.links.get(int(client_id), self.link)

    def _partition_at(self, t: float, client_id: int):
        for index, partition in enumerate(self.partitions):
            if partition.covers(t, client_id):
                return index, partition
        return None

    def _announce_partition(self, index: int, round_index: int, telemetry) -> None:
        if index in self._partition_announced:
            return
        self._partition_announced.add(index)
        partition = self.partitions[index]
        telemetry.event(
            "net.partition",
            action="begin",
            partition=index,
            start=partition.start,
            heal=partition.heal,
            clients=(
                None if partition.clients is None else sorted(partition.clients)
            ),
            round=round_index,
        )

    # -- round lifecycle ----------------------------------------------

    def begin_round(self, round_index: int, start: float, telemetry) -> list[Envelope]:
        """Announce partition transitions; release healed held messages.

        Returns the held envelopes whose partition healed at or before
        this round's start, re-timed to arrive no earlier than ``start``
        (like a deferred report re-joining the admission pass).
        """
        released: list[Envelope] = []
        for index, partition in enumerate(self.partitions):
            if partition.start <= start:
                self._announce_partition(index, round_index, telemetry)
            if index not in self._heal_announced and partition.heal <= start:
                self._heal_announced.add(index)
                freed = [env for i, env in self._held if i == index]
                self._held = [(i, env) for i, env in self._held if i != index]
                for env in freed:
                    env.arrival = max(env.arrival, start)
                released.extend(freed)
                telemetry.event(
                    "net.healed",
                    partition=index,
                    start=partition.start,
                    heal=partition.heal,
                    released=len(freed),
                    round=round_index,
                )
        return released

    # -- transmission --------------------------------------------------

    def transmit(
        self,
        env: Envelope,
        *,
        round_index: int,
        sent_at: float,
        telemetry,
        ledger: RoundLedger | None = None,
        hold_partitioned: bool = True,
        attempt: int = 0,
    ) -> Transit:
        """Plan one message's transit; returns its delivery copies.

        Transparent networks forward the envelope (arrival = send time)
        with zero telemetry, keeping the lossless path byte-identical
        to no network at all.
        """
        if self.transparent:
            env.arrival = float(sent_at)
            return Transit("delivered", [env])
        if env.seq is None:
            raise ValueError("wire messages need a per-sender seq")
        cid = env.client_id
        self.stats["sent"] += 1
        telemetry.event(
            "net.sent",
            kind=env.kind,
            client=cid,
            round=round_index,
            solicited_round=env.solicited_round,
            seq=env.seq,
        )
        hit = self._partition_at(sent_at, cid)
        if hit is not None:
            index, partition = hit
            self._announce_partition(index, round_index, telemetry)
            if (
                hold_partitioned
                and env.kind == "update"
                and partition.mode == "hold"
            ):
                lag = self.link_for(cid).heal_lag(
                    round_index, cid, env.kind, env.seq
                )
                env.arrival = partition.heal + lag
                self._held.append((index, env))
                self.stats["held"] += 1
                if ledger is not None:
                    ledger.held.append(cid)
                telemetry.event(
                    "net.partition",
                    action="held",
                    partition=index,
                    client=cid,
                    round=round_index,
                    seq=env.seq,
                    release=env.arrival,
                )
                return Transit("held", [])
            self.stats["partition_dropped"] += 1
            if ledger is not None:
                ledger.lost.append((cid, "partition"))
            telemetry.event(
                "net.partition",
                action="dropped",
                partition=index,
                client=cid,
                round=round_index,
                seq=env.seq,
            )
            telemetry.event(
                "net.dropped",
                kind=env.kind,
                client=cid,
                round=round_index,
                seq=env.seq,
                reason="partition",
            )
            return Transit("partition_dropped", [])
        payload_size = (
            int(np.asarray(env.payload).size) if env.payload is not None else None
        )
        plan = self.link_for(cid).plan(
            round_index, cid, env.kind, env.seq, payload_size, attempt=attempt
        )
        if plan.lost:
            self.stats["lost"] += 1
            if ledger is not None:
                ledger.lost.append((cid, "loss"))
            telemetry.event(
                "net.dropped",
                kind=env.kind,
                client=cid,
                round=round_index,
                seq=env.seq,
                reason="loss",
            )
            return Transit("lost", [])
        arrival = float(sent_at) + plan.latency + plan.reorder_lag
        payload = env.payload
        if plan.corrupt_where is not None and payload is not None:
            damaged = np.asarray(payload).copy()
            damaged[plan.corrupt_where] = (
                damaged[plan.corrupt_where] + plan.corrupt_bump
            )
            payload = damaged
            self.stats["corrupted"] += 1
            if ledger is not None:
                ledger.corrupt_in_flight.append(cid)
            telemetry.event(
                "net.corrupt",
                client=cid,
                round=round_index,
                seq=env.seq,
                entries=len(plan.corrupt_where),
            )
        deliveries = [env.clone(arrival=arrival, payload=payload)]
        if plan.duplicated:
            # the duplicate carries the *clean* payload: retransmission
            # at the wire level re-sends the original bytes
            dup = env.clone(arrival=arrival + plan.duplicate_lag)
            deliveries.append(dup)
            self.stats["duplicates"] += 1
            if ledger is not None:
                ledger.duplicates.append(cid)
            telemetry.event(
                "net.duplicate",
                kind=env.kind,
                client=cid,
                round=round_index,
                seq=env.seq,
                arrival=dup.arrival,
            )
        key = f"{env.kind}:{cid}"
        for delivery in deliveries:
            mark = self._watermark.get(key)
            if mark is not None and delivery.arrival < mark:
                # a later-sent message overtook an earlier one on this link
                self.stats["reordered"] += 1
                if ledger is not None:
                    ledger.reordered.append(cid)
                telemetry.event(
                    "net.reordered",
                    kind=env.kind,
                    client=cid,
                    round=round_index,
                    seq=delivery.seq,
                    arrival=delivery.arrival,
                    behind=mark,
                )
            else:
                self._watermark[key] = delivery.arrival
            self.latencies.append(delivery.arrival - float(sent_at))
            self.stats["delivered"] += 1
        return Transit("delivered", deliveries)

    # -- introspection -------------------------------------------------

    def in_flight(self) -> int:
        """Messages currently queued behind an unhealed partition."""
        return len(self._held)

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p99 one-way delivery latency (simulated seconds)."""
        return percentile_summary(self.latencies, qs=(50, 99))

    def summary(self) -> dict:
        """Delivery accounting for bench payloads and CLI summaries."""
        sent = self.stats["sent"]
        delivered = self.stats["delivered"]
        percentiles = self.latency_percentiles()
        return {
            "name": self.name,
            "transparent": self.transparent,
            **self.stats,
            "in_flight": self.in_flight(),
            "delivery_rate": (delivered / sent) if sent else 1.0,
            "latency_p50": percentiles["p50"],
            "latency_p99": percentiles["p99"],
        }

    # -- persistence ---------------------------------------------------

    def pack_state(self, prefix: str = HELD_PREFIX) -> tuple[dict, dict]:
        """(meta, arrays): in-flight queue + cursors, checkpoint form."""
        arrays: dict[str, np.ndarray] = {}
        held_meta = []
        for i, (partition_index, env) in enumerate(self._held):
            key = f"{prefix}{i}"
            arrays[key] = np.asarray(env.payload)
            record = env.to_meta(key)
            record["partition"] = int(partition_index)
            held_meta.append(record)
        meta = {
            "held": held_meta,
            "partition_announced": sorted(self._partition_announced),
            "heal_announced": sorted(self._heal_announced),
            "watermark": {k: float(v) for k, v in self._watermark.items()},
            "latencies": [float(v) for v in self.latencies],
            "stats": {k: int(v) for k, v in self.stats.items()},
        }
        return meta, arrays

    def load_state(self, meta: dict, arrays: Mapping[str, np.ndarray]) -> None:
        self._held = [
            (
                int(record["partition"]),
                Envelope.from_meta(record, arrays[record["key"]]),
            )
            for record in meta["held"]
        ]
        self._partition_announced = {int(i) for i in meta["partition_announced"]}
        self._heal_announced = {int(i) for i in meta["heal_announced"]}
        self._watermark = {str(k): float(v) for k, v in meta["watermark"].items()}
        self.latencies = [float(v) for v in meta["latencies"]]
        self.stats = {str(k): int(v) for k, v in meta["stats"].items()}

    def __repr__(self) -> str:
        return (
            f"SimulatedNetwork({self.name!r}, link={self.link!r}, "
            f"partitions={len(self.partitions)}, held={len(self._held)})"
        )


#: named network presets the CLI / bench / verify harnesses share; every
#: value is the default parameter block a ``name:param=value`` spec
#: overrides
NETWORK_PRESETS: dict[str, dict] = {
    "lossless": {},
    "lossy": {
        "loss": 0.1,
        "duplicate": 0.08,
        "corrupt": 0.03,
        "reorder": 0.05,
        "latency_lo": 0.2,
        "latency_hi": 1.5,
        "jitter_lo": 0.0,
        "jitter_hi": 0.5,
    },
    "dupstorm": {
        "duplicate": 0.6,
        "dup_lag_lo": 0.5,
        "dup_lag_hi": 12.0,
        "latency_lo": 0.1,
        "latency_hi": 0.8,
    },
    "partition": {
        "start": 12.0,
        "heal": 35.0,
        "latency_lo": 0.0,
        "latency_hi": 0.3,
    },
    "chaos": {
        "loss": 0.08,
        "duplicate": 0.1,
        "corrupt": 0.02,
        "reorder": 0.05,
        "latency_lo": 0.1,
        "latency_hi": 1.0,
        "start": 15.0,
        "heal": 32.0,
    },
}

_LINK_KEYS = (
    "loss",
    "duplicate",
    "corrupt",
    "reorder",
    "latency_lo",
    "latency_hi",
    "jitter_lo",
    "jitter_hi",
    "dup_lag_lo",
    "dup_lag_hi",
)
_PARTITION_KEYS = ("start", "heal", "mode")


def network_names() -> list[str]:
    return sorted(NETWORK_PRESETS)


def make_network(spec: str, *, seed: int = 0) -> SimulatedNetwork:
    """Build a :class:`SimulatedNetwork` from a ``name:param=value`` spec.

    The named presets (:data:`NETWORK_PRESETS`) cover the acceptance
    drills — ``lossless`` (provably transparent), ``lossy``,
    ``dupstorm`` (duplicate storm with cross-round lags), ``partition``
    (one scheduled cut with a heal time) and ``chaos`` (everything at
    once).  Link parameters: ``loss``/``duplicate``/``corrupt``/
    ``reorder`` probabilities, ``latency_lo``/``latency_hi``,
    ``jitter_lo``/``jitter_hi``, ``dup_lag_lo``/``dup_lag_hi``.
    Partition parameters: ``start``/``heal`` (simulated seconds) and
    ``mode`` (``hold``/``drop``).  ``seed`` in the spec overrides the
    keyword.
    """
    name, overrides = parse_spec(spec)
    if name not in NETWORK_PRESETS:
        raise ValueError(
            f"unknown network {name!r}; expected one of {network_names()}"
        )
    params = dict(NETWORK_PRESETS[name])
    unknown = set(overrides) - set(_LINK_KEYS) - set(_PARTITION_KEYS) - {"seed"}
    if unknown:
        raise ValueError(
            f"unknown network parameters {sorted(unknown)} in spec {spec!r}"
        )
    params.update(overrides)
    link_seed = int(params.pop("seed", seed))
    partition_params = {
        key: params.pop(key) for key in _PARTITION_KEYS if key in params
    }
    link = LinkModel(
        seed=link_seed,
        latency=(params.get("latency_lo", 0.0), params.get("latency_hi", 0.0)),
        jitter=(params.get("jitter_lo", 0.0), params.get("jitter_hi", 0.0)),
        loss_prob=params.get("loss", 0.0),
        duplicate_prob=params.get("duplicate", 0.0),
        duplicate_lag=(
            params.get("dup_lag_lo", 0.5),
            params.get("dup_lag_hi", 2.0),
        ),
        corrupt_prob=params.get("corrupt", 0.0),
        reorder_prob=params.get("reorder", 0.0),
    )
    partitions = []
    if "start" in partition_params or "heal" in partition_params:
        if not {"start", "heal"} <= set(partition_params):
            raise ValueError(
                f"a partition needs both start and heal, got {spec!r}"
            )
        partitions.append(
            Partition(
                partition_params["start"],
                partition_params["heal"],
                mode=partition_params.get("mode", "hold"),
            )
        )
    return SimulatedNetwork(
        link=link,
        partitions=partitions,
        name=format_spec(name, overrides) if overrides else name,
    )
