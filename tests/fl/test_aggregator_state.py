"""Stateful aggregators under checkpoint resume and executor parity.

Two contracts on top of the kill-and-resume guarantees of
``test_resume.py``:

* a server using a *stateful* aggregation rule (FoolsGold history,
  NormClip's noise RNG) that is killed mid-run and resumed from its
  newest snapshot is byte-identical to an uninterrupted run — the
  aggregator's cross-round state rides in the snapshot;
* every new rule produces a canonical telemetry stream (and final
  parameters) byte-identical across serial / process / megabatch
  engines, because aggregation happens on the coordinator.
"""

import numpy as np
import pytest

from repro.fl.aggregation import FoolsGold, NormClip, build_aggregator
from repro.fl.executor import (
    MegabatchExecutor,
    ProcessExecutor,
    SerialExecutor,
)
from repro.fl.server import FederatedServer
from repro.obs.schema import dumps_canonical, unknown_names
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry
from repro.persist import CheckpointManager, stitch_streams

from tests.fl.test_resume import SimulatedCrash, make_world

NUM_ROUNDS = 5
CHECKPOINT_EVERY = 2
CRASH_AT_AGGREGATION = 4  # dies mid round 3, after the round-2 snapshot


class CrashingFoolsGold(FoolsGold):
    """FoolsGold that dies on its Nth aggregation (stands in for SIGKILL)."""

    def __init__(self, crash_at: int) -> None:
        super().__init__()
        self._crash_at = crash_at
        self._calls = 0

    def aggregate(self, updates, **kwargs):
        self._calls += 1
        if self._calls == self._crash_at:
            raise SimulatedCrash(f"killed at aggregation {self._calls}")
        return super().aggregate(updates, **kwargs)


class CrashingNormClip(NormClip):
    def __init__(self, crash_at: int) -> None:
        super().__init__(noise_std=1e-3, seed=23)
        self._crash_at = crash_at
        self._calls = 0

    def aggregate(self, updates, **kwargs):
        self._calls += 1
        if self._calls == self._crash_at:
            raise SimulatedCrash(f"killed at aggregation {self._calls}")
        return super().aggregate(updates, **kwargs)


STATEFUL = [
    pytest.param(
        lambda: FoolsGold(),
        lambda: CrashingFoolsGold(CRASH_AT_AGGREGATION),
        id="foolsgold",
    ),
    pytest.param(
        lambda: NormClip(noise_std=1e-3, seed=23),
        lambda: CrashingNormClip(CRASH_AT_AGGREGATION),
        id="norm_clip",
    ),
]


def run_to_completion(aggregator, checkpoint=None, resume=False):
    model, clients, dataset = make_world()
    hub = Telemetry()
    ring = hub.add_sink(RingBufferSink())
    server = FederatedServer(
        model, clients, dataset, telemetry=hub, aggregator=aggregator
    )
    history = server.train(
        NUM_ROUNDS,
        checkpoint=checkpoint,
        checkpoint_every=CHECKPOINT_EVERY,
        resume=resume,
    )
    hub.close()
    return model.flat_parameters(), list(ring.events), history


class TestStatefulAggregatorResume:
    @pytest.mark.parametrize("make_rule,make_crashing", STATEFUL)
    def test_resumed_run_is_byte_identical(
        self, tmp_path, make_rule, make_crashing
    ):
        ref_params, ref_events, ref_history = run_to_completion(
            make_rule(), checkpoint=CheckpointManager(tmp_path / "ref_ckpt")
        )
        manager = CheckpointManager(tmp_path / "ckpt")

        # attempt 1: killed mid round 3 (round-2 snapshot exists, with
        # two rounds of aggregator state already accumulated)
        model, clients, dataset = make_world()
        hub1 = Telemetry()
        ring1 = hub1.add_sink(RingBufferSink())
        server = FederatedServer(
            model, clients, dataset, telemetry=hub1,
            aggregator=make_crashing(),
        )
        with pytest.raises(SimulatedCrash):
            server.train(
                NUM_ROUNDS,
                checkpoint=manager,
                checkpoint_every=CHECKPOINT_EVERY,
            )
        hub1.close()

        snapshot = manager.load_latest("train")
        assert snapshot is not None and snapshot.step < NUM_ROUNDS
        resume_seq = snapshot.meta["telemetry"]["seq"]

        # attempt 2: fresh world, FRESH aggregator instance — its state
        # must come entirely from the snapshot
        params2, events2, history2 = run_to_completion(
            make_rule(), checkpoint=manager, resume=True
        )

        assert params2.tobytes() == ref_params.tobytes()
        assert history2.to_jsonable() == ref_history.to_jsonable()
        stitched = stitch_streams([ring1.events, events2], [resume_seq])
        assert dumps_canonical(stitched) == dumps_canonical(ref_events)

    def test_foolsgold_history_lands_in_snapshot_arrays(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt")
        run_to_completion(FoolsGold(), checkpoint=manager)
        snapshot = manager.load_latest("train")
        keys = [
            k for k in snapshot.arrays if k.startswith("aggregator_state.")
        ]
        assert keys, "FoolsGold history missing from the snapshot arrays"
        assert "history" in snapshot.meta["aggregator"]

    def test_stateless_aggregator_snapshot_stays_lean(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt")
        run_to_completion("median", checkpoint=manager)
        snapshot = manager.load_latest("train")
        assert snapshot.meta["aggregator"] == {}
        assert not any(
            k.startswith("aggregator_state.") for k in snapshot.arrays
        )

    def test_old_snapshot_without_aggregator_state_still_restores(
        self, tmp_path
    ):
        """Forward compatibility: pre-zoo snapshots lack the key."""
        manager = CheckpointManager(tmp_path / "ckpt")
        run_to_completion("fedavg", checkpoint=manager)
        snapshot = manager.load_latest("train")
        meta = dict(snapshot.meta)
        meta.pop("aggregator")
        stripped = type(snapshot)(
            snapshot.kind, snapshot.step, snapshot.arrays, meta,
            snapshot.path, snapshot.checksum,
        )
        model, clients, dataset = make_world()
        server = FederatedServer(model, clients, dataset)
        server.restore_checkpoint(stripped)


EXECUTORS = [
    pytest.param(lambda: SerialExecutor(), id="serial"),
    pytest.param(lambda: ProcessExecutor(num_workers=2), id="process"),
    pytest.param(lambda: MegabatchExecutor(wave_size=4), id="megabatch"),
]

PARITY_RULES = [
    "foolsgold",
    "rfa",
    "robust_lr",
    "norm_clip:noise_std=0.001",
    "multi_krum:num_byzantine=1",
]


class TestExecutorParity:
    """Aggregation is coordinator-side: identical bytes on every engine."""

    def _run(self, rule, executor_factory):
        model, clients, dataset = make_world()
        hub = Telemetry()
        ring = hub.add_sink(RingBufferSink())
        with executor_factory() as executor:
            server = FederatedServer(
                model,
                clients,
                dataset,
                executor=executor,
                telemetry=hub,
                aggregator=build_aggregator(rule),
            )
            server.train(3)
        hub.close()
        return model.flat_parameters().tobytes(), ring.events

    @pytest.mark.parametrize("rule", PARITY_RULES)
    def test_canonical_stream_and_params_identical(self, rule):
        ref_params, ref_events = self._run(rule, lambda: SerialExecutor())
        assert unknown_names(ref_events) == []
        ref_stream = dumps_canonical(ref_events)
        for factory in EXECUTORS[1:]:
            params, events = self._run(rule, factory.values[0])
            assert params == ref_params, factory.id
            assert dumps_canonical(events) == ref_stream, factory.id
