"""Tests for the always-on defense service (deadline-scheduled rounds).

Covers the streaming lifecycle on the simulated clock — quorum-or-
deadline commits, late-report policy, bounded-queue backpressure,
exponential backoff, degraded mode — plus the online-trust integration
(quarantine/probation/restore and its interplay with the report-strike
path) and checkpoint/resume state identity.  The chaos acceptance
scenario (stragglers + bursts + a flash-crowd spike + boosted malicious
clients, byte-identical across executor engines) lives at the bottom.
"""

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import Dataset
from repro.fl.client import Client, LocalTrainingConfig
from repro.fl.executor import (
    MegabatchExecutor,
    ProcessExecutor,
    SerialExecutor,
)
from repro.fl.faults import ClientDropout, FaultModel, wrap_clients
from repro.fl.service import (
    DefenseService,
    ReportEnvelope,
    RoundOutcome,
    ServiceConfig,
    ServiceHistory,
)
from repro.fl.traffic import BurstyTraffic, ComposedTraffic, FlashCrowdTraffic, TrafficPattern
from repro.fl.trust import TrustConfig
from repro.obs.context import RunContext
from repro.obs.schema import dumps_canonical
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry
from repro.persist import CheckpointManager

DIM = 4
ONES = np.ones(DIM, dtype=np.float64)


# -- stubs --------------------------------------------------------------


class VectorModel:
    """Minimal flat-parameter model satisfying the service's contract."""

    def __init__(self, dim: int = DIM):
        self._params = np.zeros(dim, dtype=np.float64)

    def flat_parameters(self):
        return self._params.copy()

    def load_flat_parameters(self, flat):
        self._params = np.asarray(flat, dtype=np.float64).copy()

    def modules(self):
        return iter(())

    def state_dict(self):
        return {"w": self._params.copy()}

    def load_state_dict(self, state):
        self._params = np.asarray(state["w"], dtype=np.float64).copy()


class ScriptClient:
    """Stub client returning a scripted delta (no rng, no fault plans)."""

    def __init__(self, client_id, delta_fn=None):
        self.client_id = client_id
        self.delta_fn = delta_fn or (lambda r: ONES.copy())

    def local_update(self, model, global_params, round_index=None):
        return self.delta_fn(round_index)


class DropClient:
    """Stub client that never responds."""

    def __init__(self, client_id):
        self.client_id = client_id

    def local_update(self, model, global_params, round_index=None):
        raise ClientDropout("offline")


class FixedTraffic(TrafficPattern):
    """Scripted delays: {round: {client_id: delay}}; missing means 0."""

    def __init__(self, table):
        self.table = table

    def delays(self, round_index, client_ids):
        row = self.table.get(int(round_index), {})
        return {int(c): float(row.get(int(c), 0.0)) for c in client_ids}


def nan_delta(_round):
    bad = ONES.copy()
    bad[0] = np.nan
    return bad


def make_service(clients, config, traffic=None, model=None, checkpoint=None):
    hub = Telemetry()
    ring = hub.add_sink(RingBufferSink())
    service = DefenseService(
        model if model is not None else VectorModel(),
        clients,
        test_set=None,
        config=config,
        traffic=traffic,
        context=RunContext(telemetry=hub, checkpoint=checkpoint),
    )
    return service, ring


def stub_config(**overrides):
    """A quiet baseline for stub tests: no eval, no cleanse, no trust."""
    defaults = dict(
        round_deadline=10.0,
        eval_every=0,
        cleanse_threshold=None,
        trust_enabled=False,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


# -- config / bookkeeping ----------------------------------------------


class TestServiceConfig:
    def test_round_interval_defaults_to_deadline(self):
        cfg = ServiceConfig(round_deadline=7.0)
        assert cfg.round_interval == 7.0
        assert ServiceConfig(round_deadline=7.0, round_interval=3.0).round_interval == 3.0

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(round_deadline=0.0), "round_deadline"),
            (dict(round_interval=-1.0), "round_interval"),
            (dict(quorum=0.0), "quorum"),
            (dict(quorum=1.5), "quorum"),
            (dict(quorum=0), "quorum"),
            (dict(degraded_after=0), "degraded_after"),
            (dict(late_policy="queue"), "late_policy"),
            (dict(backpressure="panic"), "backpressure"),
            (dict(max_pending=0), "max_pending"),
            (dict(backoff_base=0), "backoff"),
            (dict(backoff_base=4, backoff_max=2), "backoff"),
            (dict(max_client_strikes=0), "max_client_strikes"),
            (dict(eval_every=-1), "eval_every"),
            (dict(checkpoint_every=0), "checkpoint_every"),
            (dict(probation_interval=0), "probation_interval"),
            (dict(cleanse_cooldown=-1), "cleanse_cooldown"),
            (dict(min_cleanse_clients=0), "min_cleanse_clients"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ServiceConfig(**kwargs)


class TestHistory:
    def test_percentile_nearest_rank(self):
        # the shared quantile helper (repro.obs.metrics) now backs
        # latency_percentiles; same nearest-rank semantics as the old
        # service-local _percentile
        from repro.obs.metrics import nearest_rank

        assert nearest_rank([], 50) == 0.0
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == 2.0
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 99) == 4.0
        assert nearest_rank(list(range(1, 101)), 99) == 99

    def test_outcome_json_roundtrip(self):
        outcome = RoundOutcome(
            3, 30.0, 34.5, 4, True,
            num_solicited=6, num_probation=1, accepted=[0, 1, 2, 4],
            invalid=[(5, "nan values")], no_response=[(6, "offline")],
            late=[3], deferred=[3], shed=[], rejected=[],
            trust_quarantined=[5], cohort_trust=0.8, cleansed=True,
            test_acc=0.75,
        )
        restored = RoundOutcome.from_jsonable(outcome.to_jsonable())
        assert restored.to_jsonable() == outcome.to_jsonable()
        assert restored.commit_latency == pytest.approx(4.5)

    def test_history_aggregates(self):
        history = ServiceHistory()
        history.append(RoundOutcome(0, 0.0, 2.0, 2, True, accepted=[0, 1]))
        history.append(RoundOutcome(1, 10.0, 20.0, 2, False, late=[0], shed=[1]))
        history.append(
            RoundOutcome(2, 20.0, 24.0, 2, True, accepted=[0, 1], degraded=True,
                         cleansed=True)
        )
        assert history.committed_rounds == [0, 2]
        assert history.quorum_failed_rounds == [1]
        assert history.degraded_rounds == [2]
        assert history.cleansed_rounds == [2]
        assert history.commit_latencies == [2.0, 10.0, 4.0]
        assert history.latency_percentiles()["p50"] == 4.0
        counts = history.report_counts()
        assert counts["admitted"] == 4
        assert counts["late"] == 1
        assert counts["shed"] == 1
        restored = ServiceHistory.from_jsonable(history.to_jsonable())
        assert restored.to_jsonable() == history.to_jsonable()
        assert restored.final.round_index == 2

    def test_empty_history_final_raises(self):
        with pytest.raises(ValueError):
            ServiceHistory().final

    def test_needs_clients_and_rounds(self):
        with pytest.raises(ValueError, match="at least one client"):
            DefenseService(VectorModel(), [], None)
        service, _ = make_service([ScriptClient(0)], stub_config())
        with pytest.raises(ValueError, match="num_rounds"):
            service.run(0)


# -- round lifecycle on the simulated clock ----------------------------


class TestRoundLifecycle:
    def test_commits_at_quorum_arrival(self):
        clients = [ScriptClient(i) for i in range(4)]
        traffic = FixedTraffic({0: {0: 1.0, 1: 3.0, 2: 5.0, 3: 20.0}})
        service, _ = make_service(clients, stub_config(quorum=2), traffic)
        outcome = service.run_round(0)
        assert outcome.quorum_met
        assert outcome.accepted == [0, 1]
        assert outcome.commit_time == 3.0  # the 2nd valid arrival
        assert outcome.commit_latency == 3.0
        # post-commit and past-deadline reports both go down the late path
        assert outcome.late == [2, 3]
        assert outcome.deferred == [2, 3]
        np.testing.assert_allclose(service.model.flat_parameters(), ONES)

    def test_quorum_failure_commits_at_deadline(self):
        clients = [ScriptClient(i) for i in range(4)]
        traffic = FixedTraffic({0: {1: 12.0, 2: 13.0, 3: 14.0}})
        service, _ = make_service(clients, stub_config(quorum=3), traffic)
        outcome = service.run_round(0)
        assert not outcome.quorum_met
        assert outcome.accepted == [0]
        assert outcome.commit_time == 10.0  # the deadline, not a block
        np.testing.assert_array_equal(
            service.model.flat_parameters(), np.zeros(DIM)
        )

    def test_deferred_report_commits_next_round(self):
        clients = [ScriptClient(0), ScriptClient(1, lambda r: 2.0 * ONES)]
        traffic = FixedTraffic({0: {1: 15.0}, 1: {0: 8.0}})
        service, _ = make_service(clients, stub_config(quorum=1), traffic)
        first = service.run_round(0)
        assert first.accepted == [0]
        assert first.deferred == [1]
        second = service.run_round(1)
        # client 1 is backed off, so only client 0 was solicited — but the
        # deferred report (arrival 15.0) beats the fresh one (18.0)
        assert second.num_solicited == 1
        assert second.accepted == [1]
        assert second.commit_time == 15.0
        np.testing.assert_allclose(
            service.model.flat_parameters(), ONES + 2.0 * ONES
        )

    def test_drop_policy_discards_late_reports(self):
        clients = [ScriptClient(0), ScriptClient(1)]
        traffic = FixedTraffic({0: {1: 15.0}})
        service, _ = make_service(
            clients, stub_config(quorum=1, late_policy="drop"), traffic
        )
        outcome = service.run_round(0)
        assert outcome.late == [1]
        assert outcome.deferred == []
        assert service.pending == []

    def test_duplicate_reports_keep_earliest(self):
        clients = [ScriptClient(0)]
        traffic = FixedTraffic({0: {0: 5.0}})
        service, _ = make_service(clients, stub_config(quorum=1), traffic)
        service.pending = [
            ReportEnvelope(0, 0, 0.2, 2.0 * ONES),
            ReportEnvelope(0, 0, 0.5, 3.0 * ONES),
        ]
        outcome = service.run_round(0)
        assert outcome.accepted == [0]
        assert outcome.commit_time == 0.2
        assert outcome.late == []  # duplicates vanish, they are not "late"
        np.testing.assert_allclose(service.model.flat_parameters(), 2.0 * ONES)

    def test_backoff_escalates_and_resolicits(self):
        clients = [ScriptClient(0), ScriptClient(1)]
        traffic = FixedTraffic({0: {1: 15.0}, 2: {1: 15.0}})
        service, ring = make_service(
            clients, stub_config(quorum=1, backoff_base=1, backoff_max=8), traffic
        )
        solicited = [service.run_round(r).num_solicited for r in range(6)]
        # miss in round 0 -> sit out 1 round; miss again in round 2 ->
        # sit out 2 rounds (exponential), re-solicited in round 5
        assert solicited == [2, 1, 2, 1, 1, 2]
        backoffs = [
            e["attrs"]["backoff_rounds"]
            for e in ring.events
            if e.get("name") == "service.backoff"
        ]
        # round 5's report ties client 0's arrival, loses the id
        # tiebreak and lands post-commit: a third (escalated) miss
        assert backoffs == [1, 2, 4]

    def test_invalid_reports_strike_then_quarantine(self):
        # the bad client gets the low id so its report is admitted (and
        # validated) before the honest report commits the round
        clients = [ScriptClient(0, nan_delta), ScriptClient(1)]
        service, ring = make_service(
            clients, stub_config(quorum=1, max_client_strikes=2)
        )
        first = service.run_round(0)
        assert [cid for cid, _ in first.invalid] == [0]
        assert first.strike_quarantined == []
        second = service.run_round(1)
        assert second.strike_quarantined == [0]
        assert service.strike_quarantined == {0}
        third = service.run_round(2)
        assert third.num_solicited == 1
        assert any(e.get("name") == "fl.quarantine" for e in ring.events)


class TestBackpressure:
    def make(self, backpressure):
        clients = [ScriptClient(i) for i in range(3)]
        traffic = FixedTraffic({0: {1: 15.0, 2: 16.0}})
        return make_service(
            clients,
            stub_config(quorum=1, max_pending=1, backpressure=backpressure),
            traffic,
        )

    def test_shed_oldest_evicts_stalest(self):
        service, _ = self.make("shed_oldest")
        outcome = service.run_round(0)
        assert outcome.deferred == [1, 2]
        assert outcome.shed == [1]
        assert [env.client_id for env in service.pending] == [2]

    def test_reject_new_refuses_incoming(self):
        service, _ = self.make("reject_new")
        outcome = service.run_round(0)
        assert outcome.deferred == [1]
        assert outcome.rejected == [2]
        assert [env.client_id for env in service.pending] == [1]


class TestDegradedMode:
    def test_enters_after_consecutive_failures_and_recovers(self):
        clients = [ScriptClient(0), ScriptClient(1)]
        # both clients late in round 3; backoff empties round 4
        traffic = FixedTraffic({3: {0: 15.0, 1: 15.0}})
        service, ring = make_service(
            clients,
            stub_config(
                quorum=2,
                degraded_after=2,
                late_policy="drop",
            ),
            traffic,
        )
        history = service.run(6)
        assert history.committed_rounds == [0, 1, 2, 5]
        assert history.quorum_failed_rounds == [3, 4]
        assert history.degraded_rounds == [4]
        assert [r.entered_degraded for r in history.rounds] == [
            False, False, False, False, True, False,
        ]
        assert [r.exited_degraded for r in history.rounds] == [
            False, False, False, False, False, True,
        ]
        assert any(e.get("name") == "service.degraded" for e in ring.events)
        assert any(e.get("name") == "service.recovered" for e in ring.events)

    def test_degraded_serves_last_good_snapshot(self, tmp_path):
        clients = [ScriptClient(0), ScriptClient(1)]
        traffic = FixedTraffic({3: {0: 15.0, 1: 15.0}})
        manager = CheckpointManager(tmp_path / "ckpt")
        service, _ = make_service(
            clients,
            stub_config(
                quorum=2,
                degraded_after=2,
                late_policy="drop",
                checkpoint_every=2,  # snapshot lags the live model
            ),
            traffic,
            checkpoint=manager,
        )
        history = service.run(6)
        # rounds 0-2 commit (+1 each); the snapshot holds round 1's params
        # (2*ones); entering degraded mode at round 4 rolls round 2's
        # commit back, so round 5's commit lands on top of the snapshot
        assert history.committed_rounds == [0, 1, 2, 5]
        assert history.degraded_rounds == [4]
        np.testing.assert_allclose(
            service.model.flat_parameters(), 3.0 * ONES
        )


# -- online trust: quarantine, probation, restore ----------------------


def trust_config():
    return TrustConfig(
        smoothing=0.5,
        quarantine_threshold=0.4,
        recover_threshold=0.6,
        min_observations=3,
    )


def turncoat(round_index):
    """Boosted anti-cohort deltas for 3 rounds, honest afterwards."""
    if round_index < 3:
        return -8.0 * ONES
    return ONES.copy()


class TestTrustIntegration:
    def make(self, malicious_fn=turncoat, num_honest=4, **overrides):
        # the malicious client gets id 0 so its report sorts first on
        # arrival ties and probation reports beat the commit cutoff
        clients = [ScriptClient(0, malicious_fn)] + [
            ScriptClient(i) for i in range(1, num_honest + 1)
        ]
        config = stub_config(
            quorum=1.0,
            trust_enabled=True,
            trust=trust_config(),
            probation_interval=1,
            **overrides,
        )
        return make_service(clients, config)

    def test_boosted_client_trust_quarantined(self):
        service, ring = self.make()
        outcomes = [service.run_round(r) for r in range(3)]
        assert outcomes[0].trust_quarantined == []
        assert outcomes[1].trust_quarantined == []  # min_observations guard
        assert outcomes[2].trust_quarantined == [0]
        assert service.trust_quarantined == {0: 2}
        follow_up = service.run_round(3)
        assert follow_up.num_solicited == 4  # quarantined, on probation
        assert follow_up.num_probation == 1
        assert any(e.get("name") == "trust.quarantine" for e in ring.events)

    def test_probation_recovery_restores_client(self):
        service, ring = self.make()
        for r in range(3):
            service.run_round(r)
        # honest again from round 3: probation rounds climb the EWMA back
        fourth = service.run_round(3)
        assert fourth.trust_restored == []  # 0.59 is still below 0.6
        fifth = service.run_round(4)
        assert fifth.trust_restored == [0]
        assert service.trust_quarantined == {}
        sixth = service.run_round(5)
        assert sixth.num_solicited == 5  # back in the cohort
        assert any(e.get("name") == "trust.restore" for e in ring.events)

    def test_probation_scores_do_not_feed_aggregation(self):
        service, _ = self.make()
        for r in range(3):
            service.run_round(r)
        params_before = service.model.flat_parameters()
        outcome = service.run_round(3)
        assert 0 not in outcome.accepted
        # 4 honest ones-deltas aggregated; the probation delta is excluded
        np.testing.assert_allclose(
            service.model.flat_parameters(), params_before + ONES
        )

    def test_one_bad_report_strikes_once_and_never_scores(self):
        service, _ = self.make(malicious_fn=nan_delta)
        outcome = service.run_round(0)
        assert [cid for cid, _ in outcome.invalid] == [0]
        # exactly one strike for one bad report, and the trust tracker
        # never saw it (invalid payloads produce no observation)
        assert service._strikes == {0: 1}
        assert 0 not in service.trust.observations
        assert 0 not in service.trust.scores

    def test_strike_quarantine_and_trust_quarantine_stay_disjoint(self):
        service, _ = self.make(
            malicious_fn=nan_delta, max_client_strikes=2
        )
        history = ServiceHistory()
        for r in range(5):
            history.append(service.run_round(r))
        assert service.strike_quarantined == {0}
        assert service.trust_quarantined == {}
        assert history.trust_quarantine_events == []
        # strikes stopped at the quarantine threshold: no double counting
        assert service._strikes == {0: 2}


# -- checkpoint / resume state identity --------------------------------


class TestCheckpointResume:
    def build(self, checkpoint):
        clients = [
            ScriptClient(i, lambda r: float(r + 1) * ONES) for i in range(3)
        ]
        traffic = FixedTraffic({1: {2: 15.0}})
        return make_service(
            clients, stub_config(quorum=2), traffic, checkpoint=checkpoint
        )

    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        reference, _ = self.build(CheckpointManager(tmp_path / "ref"))
        ref_history = reference.run(5)
        manager = CheckpointManager(tmp_path / "ckpt")

        first, _ = self.build(manager)
        first.run(3)  # "crash" after round 2

        resumed, _ = self.build(manager)
        resumed.context = RunContext(
            telemetry=resumed.telemetry, checkpoint=manager, resume=True
        )
        history = resumed.run(5)

        np.testing.assert_array_equal(
            resumed.model.flat_parameters(), reference.model.flat_parameters()
        )
        assert history.to_jsonable() == ref_history.to_jsonable()
        assert resumed.trust.state_dict() == reference.trust.state_dict()
        assert resumed._misses == reference._misses
        assert resumed._backoff_until == reference._backoff_until
        assert [e.client_id for e in resumed.pending] == [
            e.client_id for e in reference.pending
        ]

    def test_resume_without_checkpoint_manager_raises(self):
        service, _ = make_service([ScriptClient(0)], stub_config())
        service.context = RunContext(
            telemetry=service.telemetry, resume=True
        )
        with pytest.raises(ValueError, match="resume"):
            service.run(1)


# -- chaos acceptance: the full adversarial-traffic scenario -----------

NUM_CLIENTS = 8
MALICIOUS = (2, 5)
CHAOS_ROUNDS = 12
SPIKE_ROUNDS = (4, 5)


class BoostedClient:
    """Model-replacement attacker: ships its delta boosted n/eta-style.

    The factor is negative — the attacker pushes the global model *away*
    from the cohort direction — so both trust signals (alignment and
    norm conformity) fire.  Unknown attributes delegate to the wrapped
    client, which keeps the wrapper compatible with the defense
    pipeline's report protocol and process-pool pickling.
    """

    def __init__(self, base, factor=-12.0):
        self._base = base
        self.factor = factor

    def __getattr__(self, name):
        base = self.__dict__.get("_base")
        if base is None:  # mid-unpickle: nothing to delegate to yet
            raise AttributeError(name)
        return getattr(base, name)

    def local_update(self, model, global_params, round_index=None):
        return self._base.local_update(model, global_params, round_index) * self.factor


def make_chaos_world(seed=11):
    size, classes, total = 8, 4, 96
    data_rng = np.random.default_rng(seed)
    images = data_rng.random((total, 1, size, size))
    labels = np.tile(np.arange(classes), total // classes)
    dataset = Dataset(images, labels)
    config = LocalTrainingConfig(
        lr=0.05, momentum=0.9, batch_size=12, local_epochs=1
    )
    chunks = np.array_split(np.arange(total), NUM_CLIENTS)
    clients = [
        Client(i, dataset.subset(chunk), config, np.random.default_rng(50 + i))
        for i, chunk in enumerate(chunks)
    ]
    clients = [
        BoostedClient(c) if c.client_id in MALICIOUS else c for c in clients
    ]
    faults = FaultModel(
        straggler_prob=0.3,
        straggler_delay=(1.0, 20.0),
        deadline_seconds=10.0,
        seed=seed + 1,
    )
    clients = wrap_clients(clients, faults)
    model_rng = np.random.default_rng(seed + 2)
    model = nn.Sequential(
        nn.Conv2d(1, 4, kernel_size=3, padding=1, rng=model_rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(4 * (size // 2) ** 2, classes, rng=model_rng),
    )
    return model, clients, dataset, faults


def chaos_traffic(seed=11):
    # burst arrivals throughout plus one flash-crowd spike big enough to
    # starve rounds 4-5 of quorum (service_time 25 blows the deadline for
    # every queue position past the first)
    return ComposedTraffic(
        [
            BurstyTraffic(seed + 3, burst_prob=0.3),
            FlashCrowdTraffic(
                seed + 4, spike_rounds=SPIKE_ROUNDS, service_time=25.0
            ),
        ]
    )


def chaos_config():
    return ServiceConfig(
        round_deadline=10.0,
        quorum=4,
        degraded_after=2,
        eval_every=0,
        trust=TrustConfig(smoothing=0.5, min_observations=3),
        cleanse_threshold=0.9,
        cleanse_cooldown=100,  # at most one cleanse in this horizon
        min_cleanse_clients=2,
    )


def run_chaos(executor_factory, seed=11):
    model, clients, dataset, faults = make_chaos_world(seed)
    hub = Telemetry()
    ring = hub.add_sink(RingBufferSink())
    with executor_factory() as executor:
        service = DefenseService(
            model,
            clients,
            dataset,
            chaos_config(),
            traffic=chaos_traffic(seed),
            context=RunContext(
                telemetry=hub, executor=executor, fault_model=faults
            ),
        )
        history = service.run(CHAOS_ROUNDS)
    hub.close()
    return service, history, model.flat_parameters(), dumps_canonical(ring.events)


def assert_degraded_transitions_match_quorum(history, degraded_after):
    """Degraded mode must track the quorum_met sequence exactly."""
    failures, degraded = 0, False
    for outcome in history.rounds:
        if outcome.quorum_met:
            expect_exit = degraded
            failures, degraded = 0, False
            assert outcome.exited_degraded is expect_exit, outcome
            assert outcome.entered_degraded is False, outcome
        else:
            failures += 1
            expect_enter = (not degraded) and failures >= degraded_after
            degraded = degraded or expect_enter
            assert outcome.entered_degraded is expect_enter, outcome
            assert outcome.exited_degraded is False, outcome
        assert outcome.degraded is degraded, outcome


@pytest.mark.chaos
class TestChaosAcceptance:
    @pytest.fixture(scope="class")
    def serial_run(self):
        return run_chaos(lambda: SerialExecutor())

    def test_every_round_commits_by_quorum_or_deadline(self, serial_run):
        _, history, _, _ = serial_run
        assert len(history) == CHAOS_ROUNDS
        deadline = chaos_config().round_deadline
        for outcome in history.rounds:
            assert 0.0 <= outcome.commit_latency <= deadline
            if outcome.quorum_met:
                assert len(outcome.accepted) >= outcome.quorum

    def test_flash_crowd_starves_quorum_then_service_recovers(self, serial_run):
        _, history, _, _ = serial_run
        failed = history.quorum_failed_rounds
        assert failed, "the flash crowd must starve at least one quorum"
        # starvation starts with the spike (deferred burst reports may
        # rescue its first round, pushing the failures one round out)
        assert all(r >= SPIKE_ROUNDS[0] for r in failed)
        assert history.degraded_rounds, "the spike must trip degraded mode"
        assert any(r.exited_degraded for r in history.rounds)
        assert_degraded_transitions_match_quorum(
            history, chaos_config().degraded_after
        )

    def test_malicious_clients_trust_quarantined(self, serial_run):
        service, history, _, _ = serial_run
        quarantined = {cid for _, cid in history.trust_quarantine_events}
        assert set(MALICIOUS) <= quarantined
        # honest clients stay in the cohort
        assert all(cid in MALICIOUS for cid in quarantined)
        assert set(MALICIOUS) <= set(service.trust_quarantined)

    def test_cohort_dip_triggers_incremental_cleanse(self, serial_run):
        _, history, _, stream = serial_run
        assert len(history.cleansed_rounds) >= 1
        assert b'"service.cleanse"' in stream

    def test_megabatch_executor_bitwise_identical(self, serial_run):
        _, _, params, stream = serial_run
        _, _, mega_params, mega_stream = run_chaos(MegabatchExecutor)
        assert mega_params.tobytes() == params.tobytes()
        assert mega_stream == stream

    @pytest.mark.slow
    def test_process_executor_bitwise_identical(self, serial_run):
        _, _, params, stream = serial_run
        _, _, proc_params, proc_stream = run_chaos(
            lambda: ProcessExecutor(num_workers=3)
        )
        assert proc_params.tobytes() == params.tobytes()
        assert proc_stream == stream


class TestEvaluationCache:
    def test_per_round_metrics_and_cleanse_match_full_passes(self):
        """The service's cached TA/ASR equal full passes every round; the
        rounds that commit nothing (the flash crowd) are exact hits."""
        from repro.attacks.poison import BackdoorTask
        from repro.attacks.triggers import pixel_pattern
        from repro.eval.metrics import attack_success_rate, test_accuracy

        model, clients, dataset, faults = make_chaos_world()
        task = BackdoorTask(pixel_pattern(3, 8), victim_label=1, attack_label=0)
        config = chaos_config()
        config.eval_every = 1
        service = DefenseService(
            model,
            clients,
            dataset,
            config,
            backdoor_task=task,
            traffic=chaos_traffic(),
            context=RunContext(executor=SerialExecutor(), fault_model=faults),
        )
        assert service._evaluators is None  # built by the first evaluation
        run_round = service.run_round
        expected = []

        def checked(round_index):
            outcome = run_round(round_index)
            expected.append((
                test_accuracy(model, dataset),
                attack_success_rate(model, task, dataset),
            ))
            return outcome

        service.run_round = checked
        history = service.run(CHAOS_ROUNDS)
        assert history.cleansed_rounds and history.quorum_failed_rounds
        assert [(r.test_acc, r.attack_acc) for r in history.rounds] == expected
        test_eval, attack_eval = service._evaluators
        assert test_eval.hits >= len(history.quorum_failed_rounds)
        assert attack_eval.hits >= len(history.quorum_failed_rounds)
