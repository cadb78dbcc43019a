"""The live metrics/alerting stack wired into the defense service.

Pins the integration contracts of DESIGN.md §16: the aggregator rides
the service's own telemetry hub and seals one window per round(s); the
sealed series and the alert timeline are byte-identical across executor
engines and across a crash/resume splice (window state rides in the
service checkpoint); degraded-mode entry can be gated on a named alert;
and the emitted ``metrics.window`` / ``alert.*`` records interleave
with round spans in a schema-valid stream.
"""

import json

import numpy as np
import pytest

from repro.fl.executor import MegabatchExecutor, SerialExecutor
from repro.fl.service import DefenseService, ServiceConfig
from repro.fl.transport import make_network
from repro.obs.alerts import AlertRule, ServiceMetrics
from repro.obs.context import RunContext
from repro.obs.metrics import fold_records
from repro.obs.schema import dumps_canonical, validate_stream
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry
from repro.persist import CheckpointManager

from tests.fl.test_service import (
    DropClient,
    FixedTraffic,
    ScriptClient,
    VectorModel,
    stub_config,
)

ONES = np.ones(4, dtype=np.float64)


def scripted(round_index):
    return float(round_index + 1) * ONES


def build(
    metrics,
    rounds=0,
    config=None,
    clients=None,
    network=None,
    traffic=None,
    checkpoint=None,
    executor=None,
    resume=False,
):
    hub = Telemetry()
    ring = hub.add_sink(RingBufferSink())
    service = DefenseService(
        VectorModel(),
        clients if clients is not None else [
            ScriptClient(i, scripted) for i in range(4)
        ],
        test_set=None,
        config=config if config is not None else stub_config(quorum=0.5),
        traffic=traffic,
        network=network,
        context=RunContext(
            telemetry=hub,
            checkpoint=checkpoint,
            executor=executor,
            resume=resume,
        ),
        metrics=metrics,
    )
    history = service.run(rounds) if rounds else None
    hub.close()
    return service, history, ring


class TestServiceIntegration:
    def test_one_window_per_round_by_default(self):
        metrics = ServiceMetrics()
        _, history, _ = build(metrics, rounds=3)
        assert [w["window"] for w in metrics.series] == [0, 1, 2]
        assert all(w["slis"]["rounds"] == 1.0 for w in metrics.series)
        assert sum(w["slis"]["committed"] for w in metrics.series) == len(
            history.committed_rounds
        )

    def test_window_rounds_batches_sealing(self):
        metrics = ServiceMetrics(window_rounds=2)
        build(metrics, rounds=5)
        # round 4 is mid-window when the run ends: only 2 sealed
        assert [w["window"] for w in metrics.series] == [0, 1]
        assert metrics.series[0]["slis"]["rounds"] == 2.0

    def test_stream_carries_windows_and_validates(self):
        metrics = ServiceMetrics()
        _, _, ring = build(metrics, rounds=3)
        assert validate_stream(ring.events) == []
        windows = [
            r for r in ring.events
            if r["kind"] == "event" and r["name"] == "metrics.window"
        ]
        assert [w["attrs"]["window"] for w in windows] == [0, 1, 2]

    def test_window_events_follow_their_round_span(self):
        metrics = ServiceMetrics()
        _, _, ring = build(metrics, rounds=2)
        seq = {}
        for record in ring.events:
            if record["kind"] == "span" and record["name"] == "service.round":
                seq[("round", record["attrs"]["round"])] = record["seq"]
            if record["kind"] == "event" and record["name"] == "metrics.window":
                seq[("window", record["attrs"]["window"])] = record["seq"]
        for i in range(2):
            assert seq[("window", i)] > seq[("round", i)]

    def test_offline_fold_of_the_stream_matches_live_series(self):
        metrics = ServiceMetrics()
        _, _, ring = build(
            metrics, rounds=6, network=make_network("chaos", seed=7)
        )
        refolded = fold_records(ring.events)
        assert json.dumps(refolded.series, sort_keys=True) == json.dumps(
            metrics.series, sort_keys=True
        )

    def test_alert_counts_match_timeline(self):
        metrics = ServiceMetrics()
        _, _, ring = build(
            metrics, rounds=10, network=make_network("chaos", seed=7)
        )
        fired = [t for t in metrics.timeline if t["action"] == "fired"]
        resolved = [t for t in metrics.timeline if t["action"] == "resolved"]
        assert fired and resolved  # the chaos preset exercises both
        events = [
            r for r in ring.events
            if r["kind"] == "event" and r["name"].startswith("alert.")
        ]
        assert len(events) == len(metrics.timeline)
        by_name = {}
        for record in ring.events:
            if record["kind"] == "counter":
                by_name[record["name"]] = record["value"]
        assert by_name.get("alert.firings") == len(fired)
        assert by_name.get("alert.resolutions") == len(resolved)


class TestEngineParity:
    """The sealed series/timeline are executor-engine invariants."""

    def run_engine(self, executor_factory):
        metrics = ServiceMetrics()
        with executor_factory() as executor:
            _, history, ring = build(
                metrics,
                rounds=8,
                network=make_network("chaos", seed=7),
                executor=executor,
            )
        return metrics, history, dumps_canonical(ring.events)

    def test_serial_and_megabatch_runs_are_byte_identical(self):
        serial = self.run_engine(SerialExecutor)
        mega = self.run_engine(MegabatchExecutor)
        assert json.dumps(serial[0].series, sort_keys=True) == json.dumps(
            mega[0].series, sort_keys=True
        )
        assert serial[0].timeline == mega[0].timeline
        assert serial[2] == mega[2]  # whole canonical stream


class TestDegradedAlertGate:
    def quorum_rule(self, for_windows):
        return AlertRule(
            "quorum-stuck",
            sli="quorum_failure_rate",
            op=">=",
            threshold=1.0,
            for_windows=for_windows,
            resolve_threshold=0.5,
        )

    def test_degraded_alert_requires_metrics(self):
        with pytest.raises(ValueError, match="degraded_alert requires"):
            build(None, config=stub_config(degraded_alert="quorum-stuck"))

    def test_degraded_alert_unknown_name_rejected_at_construction(self):
        metrics = ServiceMetrics()
        with pytest.raises(KeyError, match="no alert rule"):
            build(metrics, config=stub_config(degraded_alert="nope"))

    def test_entry_follows_the_alert_not_the_counter(self):
        # every round fails quorum.  The bare counter (degraded_after=2)
        # would degrade at round 1; the alert's for-duration of 3 holds
        # entry back until the round after the third breached window.
        metrics = ServiceMetrics(rules=[self.quorum_rule(for_windows=3)])
        _, history, _ = build(
            metrics,
            rounds=5,
            clients=[DropClient(i) for i in range(3)],
            config=stub_config(
                quorum=3, degraded_after=2, degraded_alert="quorum-stuck"
            ),
        )
        entered = [o.round_index for o in history.rounds if o.entered_degraded]
        assert entered == [3]
        assert metrics.engine.is_firing("quorum-stuck") is True

    def test_counter_path_unchanged_without_degraded_alert(self):
        metrics = ServiceMetrics(rules=[self.quorum_rule(for_windows=3)])
        _, history, _ = build(
            metrics,
            rounds=5,
            clients=[DropClient(i) for i in range(3)],
            config=stub_config(quorum=3, degraded_after=2),
        )
        entered = [o.round_index for o in history.rounds if o.entered_degraded]
        assert entered == [1]


class TestCheckpointResume:
    """A killed-and-resumed run seals the same windows and transitions."""

    def rules(self):
        # fires on the late report FixedTraffic injects, resolves after
        return [
            AlertRule(
                "late", sli="late_rate", op=">", threshold=0.0,
                for_windows=1, resolve_windows=2,
            )
        ]

    def build_run(self, checkpoint, resume=False):
        metrics = ServiceMetrics(rules=self.rules(), window_rounds=2)
        clients = [ScriptClient(i, scripted) for i in range(3)]
        traffic = FixedTraffic({1: {2: 15.0}})
        service, _, ring = build(
            metrics,
            clients=clients,
            config=stub_config(quorum=2),
            traffic=traffic,
            checkpoint=checkpoint,
            resume=resume,
        )
        return service, metrics, ring

    def test_mid_window_crash_resumes_identically(self, tmp_path):
        reference, ref_metrics, _ = self.build_run(
            CheckpointManager(tmp_path / "ref")
        )
        reference.run(6)

        manager = CheckpointManager(tmp_path / "ckpt")
        first, first_metrics, _ = self.build_run(manager)
        first.run(3)  # "crash" mid-window: window 1 has folded one round
        assert [w["window"] for w in first_metrics.series] == [0]
        assert first_metrics.timeline  # the late alert already fired

        resumed, res_metrics, _ = self.build_run(manager, resume=True)
        resumed.run(6)

        assert json.dumps(res_metrics.series, sort_keys=True) == json.dumps(
            ref_metrics.series, sort_keys=True
        )
        assert res_metrics.timeline == ref_metrics.timeline
        assert res_metrics.engine.state_dict() == ref_metrics.engine.state_dict()
        np.testing.assert_array_equal(
            resumed.model.flat_parameters(), reference.model.flat_parameters()
        )

    def test_checkpoint_meta_round_trips_metrics_state(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt")
        service, metrics, _ = self.build_run(manager)
        service.run(3)
        entry = manager.latest_entry("service")
        assert entry is not None
        fresh, fresh_metrics, _ = self.build_run(manager, resume=True)
        # construction + restore happen inside run(); trigger restore
        # without advancing by replaying to the same horizon
        fresh.run(3)
        assert fresh_metrics.aggregator.state_dict() == (
            metrics.aggregator.state_dict()
        )

    def test_resume_without_metrics_state_in_snapshot_is_tolerated(
        self, tmp_path
    ):
        # pre-metrics snapshots restore with empty window state
        manager = CheckpointManager(tmp_path / "ckpt")
        clients = [ScriptClient(i, scripted) for i in range(3)]
        service, _, _ = build(
            None,
            clients=clients,
            config=stub_config(quorum=2),
            checkpoint=manager,
        )
        service.run(2)

        resumed, metrics, _ = self.build_run(manager, resume=True)
        resumed.run(4)  # must not raise; series continues from round 2
        assert [w["window"] for w in metrics.series] == [1]
