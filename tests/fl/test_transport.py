"""Tests for the simulated lossy transport (repro.fl.transport).

Unit coverage for the message layer — envelopes, checksums, seeded
link-fault plans, partitions, the idempotent delivery gate — plus the
service-level contracts the layer exists for:

* **transparency**: a lossless, partition-free network is byte-identical
  (parameters, history, canonical telemetry) to no network at all;
* **idempotent ingest**: duplicated and replayed updates are never
  aggregated twice (message-id dedup + epoch fencing), and a corrupted
  payload is struck through the existing invalid path;
* **partition-heal drill**: updates held behind a scheduled cut flood
  back through the admission machinery after the heal, commit-or-degrade
  per policy, with no double aggregation;
* **engine parity**: the fates are planned coordinator-side, so
  serial/process/megabatch runs over a lossy network stay bitwise equal;
* **trust x transport**: a quarantined client's stale-epoch retransmit
  is fenced — it neither re-scores trust nor perturbs probation;
* **checkpoint/resume**: in-flight (partition-held) messages and the
  gate's dedup/fence state survive a crash byte-for-byte.
"""

import numpy as np
import pytest

from repro.fl.faults import FaultModel, wrap_client, wrap_clients
from repro.fl.service import DefenseService, ServiceConfig
from repro.fl.traffic import DRILL_PRESETS, make_drill
from repro.fl.transport import (
    DeliveryGate,
    Envelope,
    LinkModel,
    NETWORK_PRESETS,
    Partition,
    RoundLedger,
    SimulatedNetwork,
    Transit,
    make_network,
    network_names,
    payload_checksum,
)
from repro.obs.context import RunContext
from repro.obs.schema import dumps_canonical, validate_stream
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.persist import CheckpointManager

from .test_service import (
    DIM,
    ONES,
    FixedTraffic,
    ScriptClient,
    VectorModel,
    make_service,
    stub_config,
    trust_config,
    turncoat,
)


# -- checksums and envelopes -------------------------------------------


class TestPayloadChecksum:
    def test_deterministic(self):
        payload = np.arange(16, dtype=np.float64)
        assert payload_checksum(payload) == payload_checksum(payload.copy())

    def test_sensitive_to_value_dtype_and_shape(self):
        payload = np.arange(16, dtype=np.float64)
        bumped = payload.copy()
        bumped[3] += 1e-9
        assert payload_checksum(bumped) != payload_checksum(payload)
        assert payload_checksum(
            payload.astype(np.float32)
        ) != payload_checksum(payload)
        assert payload_checksum(
            payload.reshape(4, 4)
        ) != payload_checksum(payload)


class TestEnvelope:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Envelope(0, 0, 1.0, ONES, kind="gossip")

    def test_clone_keeps_identity(self):
        env = Envelope(3, 2, 1.5, ONES, True, seq=7, checksum=99)
        copy = env.clone(arrival=4.0)
        assert (copy.client_id, copy.solicited_round) == (3, 2)
        assert copy.arrival == 4.0
        assert (copy.seq, copy.checksum, copy.kind) == (7, 99, "update")
        assert copy.probation is True
        assert copy.payload is env.payload

    def test_meta_roundtrip(self):
        env = Envelope(1, 4, 2.25, ONES, seq=3, checksum=11)
        record = env.to_meta("arrays.key")
        assert record["key"] == "arrays.key"
        back = Envelope.from_meta(record, ONES)
        assert back.to_meta("arrays.key") == record

    def test_from_meta_accepts_legacy_records(self):
        # histories/checkpoints written before the transport layer have
        # no seq/checksum/kind fields
        legacy = {"client_id": 2, "solicited_round": 1, "arrival": 0.5}
        env = Envelope.from_meta(legacy, ONES)
        assert env.seq is None and env.checksum is None
        assert env.kind == "update" and env.probation is False


# -- link models --------------------------------------------------------


class TestLinkModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="loss_prob"):
            LinkModel(loss_prob=1.5)
        with pytest.raises(ValueError, match="latency"):
            LinkModel(latency=(3.0, 1.0))

    def test_lossless_property(self):
        assert LinkModel().lossless
        assert not LinkModel(loss_prob=0.1).lossless
        assert not LinkModel(latency=(0.0, 1.0)).lossless

    def test_plan_is_pure_function_of_message_identity(self):
        link = LinkModel(
            seed=5, loss_prob=0.3, duplicate_prob=0.3, latency=(0.1, 2.0)
        )
        a = link.plan(4, 7, "update", 2, 64)
        b = link.plan(4, 7, "update", 2, 64)
        assert (a.lost, a.latency, a.duplicated) == (
            b.lost, b.latency, b.duplicated
        )
        # a different seq is a different message: independent fate
        fates = {
            (link.plan(4, 7, "update", seq, 64).lost,
             link.plan(4, 7, "update", seq, 64).latency)
            for seq in range(8)
        }
        assert len(fates) > 1

    def test_retransmit_attempts_draw_independent_fates(self):
        link = LinkModel(seed=5, latency=(0.1, 2.0))
        first = link.plan(0, 1, "update", 0, 64, attempt=0)
        second = link.plan(0, 1, "update", 0, 64, attempt=1)
        assert first.latency != second.latency

    def test_certain_loss(self):
        plan = LinkModel(seed=1, loss_prob=1.0).plan(0, 0, "update", 0, 64)
        assert plan.lost

    def test_corruption_only_touches_payloads(self):
        link = LinkModel(seed=2, corrupt_prob=1.0)
        plan = link.plan(0, 0, "update", 0, 128)
        assert plan.corrupt_where is not None
        assert len(plan.corrupt_where) == max(1, 128 // 64)
        assert all(0 <= int(i) < 128 for i in plan.corrupt_where)
        # a payload-less solicitation has nothing to corrupt
        solicit = link.plan(0, 0, "solicit", 0, None)
        assert solicit.corrupt_where is None

    def test_heal_lag_bounded_and_deterministic(self):
        link = LinkModel(seed=3, latency=(0.5, 1.0), jitter=(0.0, 0.25))
        lag = link.heal_lag(2, 4, "update", 1)
        assert lag == link.heal_lag(2, 4, "update", 1)
        assert 0.5 <= lag <= 1.25


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError, match="heal"):
            Partition(10.0, 10.0)
        with pytest.raises(ValueError, match="mode"):
            Partition(0.0, 5.0, mode="sever")

    def test_covers_window_and_clients(self):
        cut = Partition(10.0, 20.0, clients=[1, 3])
        assert cut.covers(10.0, 1)  # start inclusive
        assert not cut.covers(20.0, 1)  # heal exclusive
        assert not cut.covers(15.0, 2)  # not in the cut
        everyone = Partition(10.0, 20.0)
        assert everyone.covers(15.0, 99)

    def test_transit_fate_validated(self):
        with pytest.raises(ValueError, match="fate"):
            Transit("teleported", [])


# -- the idempotent delivery gate --------------------------------------


class TestDeliveryGate:
    def env(self, cid=0, rnd=0, seq=0, kind="update"):
        return Envelope(cid, rnd, 1.0, ONES, seq=seq, kind=kind)

    def test_dedup_after_processing(self):
        gate = DeliveryGate()
        env = self.env(seq=4)
        assert gate.check(env) == "fresh"
        gate.mark_processed(env)
        assert gate.check(env.clone(arrival=9.0)) == "duplicate"
        assert gate.dedup_hits == 1
        # a different message from the same client is unaffected
        assert gate.check(self.env(seq=5)) == "fresh"

    def test_epoch_fence_rejects_stale_rounds(self):
        gate = DeliveryGate()
        gate.mark_aggregated(3, 2)
        assert gate.fence_round(3) == 2
        assert gate.check(self.env(cid=3, rnd=2, seq=9)) == "stale"
        assert gate.check(self.env(cid=3, rnd=1, seq=10)) == "stale"
        assert gate.check(self.env(cid=3, rnd=3, seq=11)) == "fresh"
        assert gate.fenced_total == 2
        # the fence never moves backwards
        gate.mark_aggregated(3, 1)
        assert gate.fence_round(3) == 2

    def test_solicitations_are_not_fenced(self):
        gate = DeliveryGate()
        gate.mark_aggregated(0, 5)
        assert gate.check(self.env(rnd=2, seq=0, kind="solicit")) == "fresh"

    def test_legacy_envelopes_pass_through(self):
        gate = DeliveryGate()
        legacy = Envelope(0, 0, 1.0, ONES)  # seq None
        assert gate.check(legacy) == "fresh"
        gate.mark_processed(legacy)  # no-op
        assert gate.check(legacy) == "fresh"

    def test_state_roundtrip(self):
        gate = DeliveryGate()
        for seq in range(3):
            gate.mark_processed(self.env(cid=1, seq=seq))
        gate.mark_aggregated(1, 4)
        gate.check(self.env(cid=1, seq=0))  # dedup hit
        restored = DeliveryGate()
        restored.load_state_dict(gate.state_dict())
        assert restored.state_dict() == gate.state_dict()
        assert restored.check(self.env(cid=1, seq=2)) == "duplicate"
        assert restored.check(self.env(cid=1, rnd=4, seq=9)) == "stale"


class TestRoundLedger:
    def emitted_counters(self, ledger):
        # counter increments flush into the ring on close
        hub = Telemetry()
        ring = hub.add_sink(RingBufferSink())
        ledger.emit_round_counters(hub)
        hub.close()
        return [e["name"] for e in ring.events if e["kind"] == "counter"]

    def test_network_counters_emitted_only_when_nonzero(self):
        quiet = RoundLedger()
        names = self.emitted_counters(quiet)
        assert not any(n.startswith("net.") for n in names)
        assert "service.reports_admitted" in names

        noisy = RoundLedger()
        noisy.lost.append((0, "loss"))
        noisy.dedup.append(1)
        names = self.emitted_counters(noisy)
        assert {"net.messages_lost", "net.dedup_hits"} <= set(names)
        assert "net.messages_fenced" not in names
        assert noisy.network_counts()["lost"] == 1


# -- spec parsing -------------------------------------------------------


class TestMakeNetwork:
    def test_preset_names(self):
        assert network_names() == sorted(NETWORK_PRESETS)
        assert {"lossless", "lossy", "dupstorm", "partition", "chaos"} <= set(
            network_names()
        )

    def test_unknown_name_and_param_rejected(self):
        with pytest.raises(ValueError, match="unknown network"):
            make_network("carrier_pigeon")
        with pytest.raises(ValueError, match="parameters"):
            make_network("lossy:bandwidth=56k")

    def test_partition_needs_start_and_heal(self):
        with pytest.raises(ValueError, match="start and heal"):
            make_network("lossless:start=5")

    def test_overrides_and_naming(self):
        net = make_network("lossy:loss=0.5", seed=3)
        assert net.link.loss_prob == 0.5
        assert net.link.seed == 3
        assert net.name == "lossy:loss=0.5"
        assert make_network("lossy", seed=3).name == "lossy"

    def test_spec_seed_overrides_keyword(self):
        assert make_network("lossless:seed=9", seed=4).link.seed == 9

    def test_lossless_is_transparent_and_chaos_is_not(self):
        assert make_network("lossless").transparent
        chaos = make_network("chaos")
        assert not chaos.transparent
        assert len(chaos.partitions) == 1

    def test_drill_presets_resolve(self):
        for name in DRILL_PRESETS:
            traffic, spec = make_drill(name, seed=1)
            assert traffic.delays(0, [0, 1]) is not None
            assert isinstance(make_network(spec), SimulatedNetwork)
        with pytest.raises(ValueError, match="unknown drill"):
            make_drill("smooth_sailing")


# -- transmit unit behavior --------------------------------------------


def wire_env(cid=0, rnd=0, seq=0, payload=None, kind="update"):
    payload = ONES if payload is None and kind == "update" else payload
    checksum = payload_checksum(payload) if payload is not None else None
    return Envelope(cid, rnd, 0.0, payload, seq=seq, checksum=checksum, kind=kind)


class TestTransmit:
    def test_transparent_network_is_a_pass_through(self):
        net = SimulatedNetwork()
        hub = Telemetry()
        ring = hub.add_sink(RingBufferSink())
        env = Envelope(0, 0, 0.0, ONES)  # even a legacy, seq-less envelope
        transit = net.transmit(
            env, round_index=0, sent_at=3.5, telemetry=hub
        )
        hub.close()
        assert transit.fate == "delivered"
        assert transit.deliveries == [env]
        assert env.arrival == 3.5
        assert all(e["kind"] != "event" for e in ring.events)
        assert net.stats["sent"] == 0

    def test_wire_messages_need_a_seq(self):
        net = SimulatedNetwork(link=LinkModel(loss_prob=0.5))
        with pytest.raises(ValueError, match="seq"):
            net.transmit(
                Envelope(0, 0, 0.0, ONES),
                round_index=0,
                sent_at=0.0,
                telemetry=NULL_TELEMETRY,
            )

    def test_certain_loss_recorded(self):
        net = SimulatedNetwork(link=LinkModel(seed=1, loss_prob=1.0))
        ledger = RoundLedger()
        transit = net.transmit(
            wire_env(),
            round_index=0,
            sent_at=0.0,
            telemetry=NULL_TELEMETRY,
            ledger=ledger,
        )
        assert transit.fate == "lost" and transit.deliveries == []
        assert ledger.lost == [(0, "loss")]
        assert net.stats == dict(
            net.stats, sent=1, lost=1, delivered=0
        )

    def test_duplicate_carries_clean_payload_when_first_copy_corrupts(self):
        net = SimulatedNetwork(
            link=LinkModel(seed=4, duplicate_prob=1.0, corrupt_prob=1.0)
        )
        payload = np.arange(128, dtype=np.float64)
        env = wire_env(payload=payload)
        transit = net.transmit(
            env, round_index=0, sent_at=1.0, telemetry=NULL_TELEMETRY
        )
        first, dup = transit.deliveries
        assert dup.arrival > first.arrival
        assert payload_checksum(first.payload) != env.checksum
        assert payload_checksum(dup.payload) == env.checksum
        assert net.stats["duplicates"] == net.stats["corrupted"] == 1

    def test_partition_holds_updates_until_heal(self):
        net = SimulatedNetwork(
            link=LinkModel(seed=2), partitions=[Partition(5.0, 20.0)]
        )
        hub = Telemetry()
        ring = hub.add_sink(RingBufferSink())
        transit = net.transmit(
            wire_env(cid=3), round_index=1, sent_at=10.0, telemetry=hub
        )
        assert transit.fate == "held" and transit.deliveries == []
        assert net.in_flight() == 1
        released = net.begin_round(2, 20.0, hub)
        hub.close()
        assert [env.client_id for env in released] == [3]
        assert released[0].arrival >= 20.0
        assert net.in_flight() == 0
        names = [e["name"] for e in ring.events if e["kind"] == "event"]
        assert "net.healed" in names

    def test_partition_drop_mode_and_solicits_lose_outright(self):
        net = SimulatedNetwork(
            link=LinkModel(seed=2),
            partitions=[Partition(5.0, 20.0, mode="drop")],
        )
        ledger = RoundLedger()
        update = net.transmit(
            wire_env(), round_index=1, sent_at=10.0,
            telemetry=NULL_TELEMETRY, ledger=ledger,
        )
        assert update.fate == "partition_dropped"
        solicit_net = SimulatedNetwork(
            link=LinkModel(seed=2), partitions=[Partition(5.0, 20.0)]
        )
        solicit = solicit_net.transmit(
            wire_env(kind="solicit", payload=None),
            round_index=1, sent_at=10.0,
            telemetry=NULL_TELEMETRY, hold_partitioned=False,
        )
        assert solicit.fate == "partition_dropped"
        assert ledger.lost == [(0, "partition")]

    def test_arrival_inversion_counts_as_reordering(self):
        # a tiny jitter keeps the link non-lossless (so the wire path
        # runs) without closing the 5s send gap
        net = SimulatedNetwork(link=LinkModel(seed=3, jitter=(0.0, 0.1)))
        net.transmit(
            wire_env(seq=0), round_index=0, sent_at=10.0,
            telemetry=NULL_TELEMETRY,
        )
        ledger = RoundLedger()
        net.transmit(
            wire_env(seq=1), round_index=0, sent_at=5.0,
            telemetry=NULL_TELEMETRY, ledger=ledger,
        )
        assert net.stats["reordered"] == 1
        assert ledger.reordered == [0]

    def test_pack_and_load_state_roundtrip(self):
        net = SimulatedNetwork(
            link=LinkModel(seed=2, latency=(0.0, 0.5)),
            partitions=[Partition(5.0, 20.0)],
        )
        net.transmit(
            wire_env(cid=1, seq=3, payload=2.0 * ONES),
            round_index=1, sent_at=10.0, telemetry=NULL_TELEMETRY,
        )
        net.transmit(
            wire_env(cid=2, seq=0), round_index=0, sent_at=1.0,
            telemetry=NULL_TELEMETRY,
        )
        meta, arrays = net.pack_state()
        twin = SimulatedNetwork(
            link=LinkModel(seed=2, latency=(0.0, 0.5)),
            partitions=[Partition(5.0, 20.0)],
        )
        twin.load_state(meta, arrays)
        assert twin.stats == net.stats
        assert twin.in_flight() == 1
        assert twin.latencies == net.latencies
        twin_meta, twin_arrays = twin.pack_state()
        assert twin_meta == meta
        assert all(
            np.array_equal(twin_arrays[k], arrays[k]) for k in arrays
        )


# -- service integration ------------------------------------------------


def run_stub_service(network, *, rounds=4, clients=None, traffic=None,
                     config=None):
    """A stub service run returning (service, history, params, stream)."""
    hub = Telemetry()
    ring = hub.add_sink(RingBufferSink())
    service = DefenseService(
        VectorModel(),
        clients if clients is not None else [ScriptClient(i) for i in range(3)],
        test_set=None,
        config=config if config is not None else stub_config(quorum=2),
        traffic=traffic,
        network=network,
        context=RunContext(telemetry=hub),
    )
    history = service.run(rounds)
    hub.close()
    return (
        service,
        history,
        service.model.flat_parameters(),
        dumps_canonical(ring.events),
    )


class TestLosslessTransparency:
    def test_lossless_network_is_byte_identical_to_direct(self):
        # a late client exercises the defer path on both sides
        traffic = {1: {2: 15.0}}
        _, direct_history, direct_params, direct_stream = run_stub_service(
            None, traffic=FixedTraffic(traffic)
        )
        _, history, params, stream = run_stub_service(
            make_network("lossless", seed=9), traffic=FixedTraffic(traffic)
        )
        assert params.tobytes() == direct_params.tobytes()
        assert history.to_jsonable() == direct_history.to_jsonable()
        assert stream == direct_stream

    def test_lossless_network_does_no_per_message_work(self, monkeypatch):
        """The lossless path costs nothing per message by construction:
        over a whole service run the network plans no fate, draws no
        lag, counts nothing and holds nothing."""

        def refuse(*args, **kwargs):
            raise AssertionError("a transparent network planned a message")

        monkeypatch.setattr(LinkModel, "plan", refuse)
        monkeypatch.setattr(LinkModel, "heal_lag", refuse)
        network = make_network("lossless", seed=9)
        _, history, _, stream = run_stub_service(
            network, traffic=FixedTraffic({1: {2: 15.0}})
        )
        assert not any(network.stats.values())
        assert network.latencies == [] and network.in_flight() == 0
        assert not any(history.network_counts().values())
        assert b'"net.' not in stream

    def test_gate_is_active_even_without_a_network(self):
        # seq/checksum are stamped on the direct path too: the fence
        # exists before any wire does
        service, history, _, _ = run_stub_service(None, rounds=2)
        assert service.gate.fence_round(0) == 1
        origins = history.aggregated_origins
        assert len(origins) == len(set(origins))


class TestLossyService:
    def test_in_flight_corruption_is_struck_as_invalid(self):
        network = SimulatedNetwork(
            link=LinkModel(seed=1, corrupt_prob=1.0), name="corruptor"
        )
        service, history, params, _ = run_stub_service(
            network, rounds=2, clients=[ScriptClient(0), ScriptClient(1)],
            config=stub_config(quorum=1),
        )
        reasons = {
            reason for r in history.rounds for _, reason in r.invalid
        }
        assert reasons == {"checksum mismatch (corrupted in transit)"}
        assert history.committed_rounds == []
        assert params.tobytes() == np.zeros(DIM).tobytes()
        assert service._strikes  # corruption feeds the strike machinery
        assert network.stats["corrupted"] > 0

    def test_total_loss_reads_as_silence(self):
        network = SimulatedNetwork(
            link=LinkModel(seed=1, loss_prob=1.0), name="blackhole"
        )
        _, history, _, _ = run_stub_service(
            network, rounds=2, clients=[ScriptClient(0)],
            config=stub_config(quorum=1),
        )
        assert history.committed_rounds == []
        reasons = {
            reason for r in history.rounds for _, reason in r.no_response
        }
        assert reasons <= {
            "solicitation lost in transit",
            "update lost in transit",
        }
        assert history.network_counts()["lost"] > 0

    def test_wire_duplicates_dedup_not_double_aggregate(self):
        network = SimulatedNetwork(
            link=LinkModel(seed=6, duplicate_prob=1.0, duplicate_lag=(0.0, 0.1)),
            name="dupwire",
        )
        _, history, params, _ = run_stub_service(
            network, rounds=3, clients=[ScriptClient(0), ScriptClient(1)],
            config=stub_config(quorum=2),
        )
        assert history.committed_rounds == [0, 1, 2]
        # every delivered second copy was a dedup hit, never a report
        assert history.network_counts()["dedup"] == 6
        origins = history.aggregated_origins
        assert len(origins) == len(set(origins)) == 6
        np.testing.assert_allclose(params, 3.0 * ONES)


class TestPartitionHealDrill:
    def test_drill_commits_or_degrades_with_no_double_aggregation(self):
        rounds = 7
        traffic, spec = make_drill("partition_heal", seed=3)
        network = make_network(spec, seed=5)
        clients = [ScriptClient(i) for i in range(4)]
        service, history, _, stream = run_stub_service(
            network, rounds=rounds, clients=clients,
            traffic=FixedTraffic({r: {i: 2.5 for i in range(4)} for r in range(rounds)}),
            config=stub_config(quorum=0.5, degraded_after=2),
        )
        assert len(history) == rounds
        counts = history.network_counts()
        assert counts["held"] > 0, "the cut must catch updates in flight"
        assert network.in_flight() == 0, "everything floods back post-heal"
        origins = history.aggregated_origins
        assert len(origins) == len(set(origins)), "double aggregation"
        # commit-or-degrade: every round either met quorum or is an
        # explicit quorum failure; nothing hangs
        for outcome in history.rounds:
            assert outcome.quorum_met or outcome.round_index in (
                history.quorum_failed_rounds
            )
        held_reasons = [
            reason
            for r in history.rounds
            for _, reason in r.no_response
            if reason == "update held behind partition"
        ]
        assert held_reasons, "the sender sees silence while the cut holds"
        assert b'"net.healed"' in stream


class TestTrustTransportInteraction:
    """Satellite: stale-epoch retransmits never touch trust/probation."""

    def build(self):
        clients = [ScriptClient(0, turncoat)] + [
            ScriptClient(i) for i in range(1, 5)
        ]
        config = stub_config(
            quorum=1.0,
            trust_enabled=True,
            trust=trust_config(),
            probation_interval=1,
        )
        return make_service(clients, config)

    def stale_retransmit(self, service):
        """A lost-then-retransmitted copy of client 0's round-1 update:
        an unseen seq (the first copy never arrived) carrying an epoch
        the fence has already aggregated."""
        payload = turncoat(1)
        return Envelope(
            0, 1, 0.05, payload,
            seq=999, checksum=payload_checksum(payload),
        )

    def test_stale_retransmit_is_fenced_not_rescored(self):
        baseline, _ = self.build()
        service, _ = self.build()
        for r in range(3):
            baseline.run_round(r)
            service.run_round(r)
        assert service.trust_quarantined == {0: 2}
        assert service.gate.fence_round(0) == 2

        service.pending.append(self.stale_retransmit(service))
        fourth_base = baseline.run_round(3)
        fourth = service.run_round(3)
        assert fourth.fenced == [0]
        assert fourth.accepted == fourth_base.accepted
        # the fenced copy produced no trust observation: the tracker
        # state is identical to the run that never saw the retransmit
        assert service.trust.state_dict() == baseline.trust.state_dict()
        # and probation is not reset: restoration lands on the same
        # round it would have without the replay
        fifth_base = baseline.run_round(4)
        fifth = service.run_round(4)
        assert fifth.trust_restored == fifth_base.trust_restored == [0]
        assert service.trust_quarantined == {}

    def test_processed_duplicate_of_probation_report_is_deduped(self):
        service, _ = self.build()
        for r in range(3):
            service.run_round(r)
        fourth = service.run_round(3)
        assert fourth.num_probation == 1
        baseline_state = service.trust.state_dict()
        # replay the exact probation message id the gate just processed
        seq = service._seq["update:0"] - 1
        payload = turncoat(3)
        service.pending.append(
            Envelope(
                0, 3, 0.05, payload, True,
                seq=seq, checksum=payload_checksum(payload),
            )
        )
        fifth = service.run_round(4)
        assert 0 in fifth.dedup
        assert service.trust.state_dict() != baseline_state  # round 4's
        # genuine probation report scored; the replay added nothing on
        # top (one observation per round, same as the clean timeline)
        obs = service.trust.observations[0]
        assert obs == 5  # rounds 0-2 accepted + rounds 3-4 probation


class TestCheckpointResumeTransport:
    SPEC = "partition:start=10.5,heal=45,latency_hi=0"
    ROUNDS = 6

    def build(self, checkpoint):
        clients = [
            ScriptClient(i, lambda r: float(r + 1) * ONES) for i in range(3)
        ]
        # checkpoints are only cut on committed rounds, so the held
        # message must coexist with a quorum: clients 0/1 report fast
        # (round 0 commits, quorum=2) while client 2's update is pushed
        # past the 10.5s cut and held in flight at the snapshot
        traffic = FixedTraffic(
            {r: {0: 1.0, 1: 1.0, 2: 11.0} for r in range(self.ROUNDS)}
        )
        hub = Telemetry()
        service = DefenseService(
            VectorModel(),
            clients,
            test_set=None,
            config=stub_config(quorum=2),
            traffic=traffic,
            network=make_network(self.SPEC, seed=7),
            context=RunContext(telemetry=hub, checkpoint=checkpoint),
        )
        return service

    def test_in_flight_state_survives_resume(self, tmp_path):
        reference = self.build(CheckpointManager(tmp_path / "ref"))
        ref_history = reference.run(self.ROUNDS)
        assert ref_history.network_counts()["held"] > 0

        manager = CheckpointManager(tmp_path / "ckpt")
        first = self.build(manager)
        first.run(3)  # "crash" mid-partition, with messages in flight
        assert first.network.in_flight() > 0
        snapshot = manager.load_latest("service")
        assert snapshot.meta["transport"]["network"]["held"]

        resumed = self.build(manager)
        resumed.context = RunContext(
            telemetry=resumed.telemetry, checkpoint=manager, resume=True
        )
        history = resumed.run(self.ROUNDS)

        np.testing.assert_array_equal(
            resumed.model.flat_parameters(),
            reference.model.flat_parameters(),
        )
        assert history.to_jsonable() == ref_history.to_jsonable()
        assert resumed.gate.state_dict() == reference.gate.state_dict()
        assert resumed._seq == reference._seq
        assert resumed.network.stats == reference.network.stats
        assert resumed.network.in_flight() == 0
        origins = history.aggregated_origins
        assert len(origins) == len(set(origins))


# -- engine parity over a lossy wire -----------------------------------


def run_lossy_engine(executor_factory, seed=11, rounds=5):
    """A real (trained-client) service run over the chaos network."""
    from repro.experiments.scale import build_bench_world
    from repro.fl.traffic import make_schedule

    model, clients, dataset = build_bench_world("smoke", seed=seed)
    faults = FaultModel(
        straggler_prob=0.3,
        straggler_delay=(1.0, 20.0),
        duplicate_prob=0.3,
        deadline_seconds=10.0,
        seed=seed + 2,
    )
    hub = Telemetry()
    ring = hub.add_sink(RingBufferSink())
    with executor_factory() as executor:
        service = DefenseService(
            model,
            wrap_clients(clients, faults),
            dataset,
            ServiceConfig(round_deadline=10.0, quorum=0.5, eval_every=0),
            traffic=make_schedule("bursty", seed + 3),
            network=make_network("chaos", seed=seed + 5),
            context=RunContext(
                telemetry=hub, executor=executor, fault_model=faults
            ),
        )
        history = service.run(rounds)
    hub.close()
    return history, model.flat_parameters(), dumps_canonical(ring.events)


@pytest.mark.chaos
class TestLossyEngineParity:
    """Message fates are planned coordinator-side from message identity,
    so the executor engine must not leak into results: every engine is
    bitwise identical over the same lossy wire."""

    @pytest.fixture(scope="class")
    def serial_run(self):
        from repro.fl.executor import SerialExecutor

        return run_lossy_engine(lambda: SerialExecutor())

    def test_chaos_wire_is_actually_exercised(self, serial_run):
        history, _, stream = serial_run
        counts = history.network_counts()
        assert counts["lost"] > 0 or counts["held"] > 0
        origins = history.aggregated_origins
        assert len(origins) == len(set(origins))
        assert b'"net.sent"' in stream

    def test_megabatch_executor_bitwise_identical(self, serial_run):
        from repro.fl.executor import MegabatchExecutor

        history, params, stream = serial_run
        m_history, m_params, m_stream = run_lossy_engine(
            lambda: MegabatchExecutor()
        )
        assert m_params.tobytes() == params.tobytes()
        assert m_history.to_jsonable() == history.to_jsonable()
        assert m_stream == stream

    @pytest.mark.slow
    def test_process_executor_bitwise_identical(self, serial_run):
        from repro.fl.executor import ProcessExecutor

        history, params, stream = serial_run
        p_history, p_params, p_stream = run_lossy_engine(
            lambda: ProcessExecutor(num_workers=3)
        )
        assert p_params.tobytes() == params.tobytes()
        assert p_history.to_jsonable() == history.to_jsonable()
        assert p_stream == stream


# -- the client-level duplicate fault ----------------------------------


class TestDuplicateFault:
    def test_validation(self):
        with pytest.raises(ValueError, match="duplicate_prob"):
            FaultModel(duplicate_prob=1.5)
        with pytest.raises(ValueError, match="duplicate_lag"):
            FaultModel(duplicate_prob=0.5, duplicate_lag=(3.0, 1.0))

    def test_disabled_duplicate_consumes_no_rng(self):
        """duplicate_prob=0 must leave every pre-existing fault schedule
        bit-for-bit unchanged (the zero-consumption guard)."""
        plans = []
        for kwargs in ({}, {"duplicate_prob": 0.0}):
            faults = FaultModel(
                straggler_prob=0.4,
                straggler_delay=(1.0, 5.0),
                stale_prob=0.2,
                deadline_seconds=10.0,
                seed=13,
                **kwargs,
            )
            client = wrap_client(ScriptClient(0), faults)
            plans.append(
                [
                    (p.action, p.delay, p.duplicate, p.duplicate_lag)
                    for p in (client.plan_local_update(DIM) for _ in range(40))
                ]
            )
        assert plans[0] == plans[1]

    def test_certain_duplicates_draw_lags(self):
        faults = FaultModel(
            duplicate_prob=1.0, duplicate_lag=(0.5, 2.0), seed=3
        )
        client = wrap_client(ScriptClient(0), faults)
        for _ in range(10):
            plan = client.plan_local_update(DIM)
            assert plan.duplicate
            assert 0.5 <= plan.duplicate_lag <= 2.0
        assert faults.draw_counts["duplicate"] == 10
        assert faults.draw_counts["duplicate_lag"] == 10

    def test_duplicate_fault_routes_through_the_dedup_ledger(self):
        """The client-level retransmit and the wire's accounting share
        one ledger: each duplicate shows up as a net.dedup hit, and the
        round aggregates each client exactly once."""
        rounds = 3
        faults = FaultModel(duplicate_prob=1.0, duplicate_lag=(0.1, 0.5), seed=5)
        clients = wrap_clients(
            [ScriptClient(0), ScriptClient(1)], faults
        )
        hub = Telemetry()
        ring = hub.add_sink(RingBufferSink())
        service = DefenseService(
            VectorModel(),
            clients,
            test_set=None,
            config=stub_config(quorum=2),
            context=RunContext(telemetry=hub, fault_model=faults),
        )
        history = service.run(rounds)
        hub.close()
        assert history.committed_rounds == [0, 1, 2]
        assert history.network_counts()["dedup"] == 2 * rounds
        origins = history.aggregated_origins
        assert len(origins) == len(set(origins)) == 2 * rounds
        np.testing.assert_allclose(
            service.model.flat_parameters(), rounds * ONES
        )
        dedup_events = [
            e for e in ring.events if e.get("name") == "net.dedup"
        ]
        assert len(dedup_events) == 2 * rounds
        assert validate_stream(ring.events) == []
