"""Chaos harness: end-to-end runs under injected client unreliability.

Sweeps :class:`~repro.fl.faults.FaultModel` rates over full federated
runs (training and the FP -> FT -> AW defense) and asserts the
degradation contract:

* no fault rate in the 10-20% band crashes a round, a stage, or the
  pipeline;
* the global model stays finite after every round — corrupted deltas
  never reach the aggregate;
* dropouts, rejections, quorum skips and quarantines are *recorded*
  (``TrainingHistory`` / ``DefensePipeline.events``), not silent;
* the defense under faults performs no worse than the same defense with
  reliable clients (graceful degradation), and with every fault rate at
  zero the hardened stack is bitwise identical to a plain run.

Absolute ASR-collapse magnitudes are owned by the BENCH-scale
benchmarks (see DESIGN.md §2.2 and EXPERIMENTS.md for where this
substrate reproduces the paper's shape); at test scale the chaos
criterion is that fault injection does not change the defense's
outcome beyond tolerance.

All tests carry the ``chaos`` marker: deselect with ``-m "not chaos"``.
"""

import os
import signal

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import Dataset
from repro.defense.pipeline import DefenseConfig, DefensePipeline
from repro.experiments.common import build_setup, clone_model
from repro.experiments.scale import SMOKE
from repro.fl.client import Client, LocalTrainingConfig
from repro.fl.executor import MegabatchExecutor, ProcessExecutor
from repro.fl.faults import FaultModel, wrap_clients
from repro.fl.server import FederatedServer
from repro.nn.zoo import mnist_cnn
from repro.obs import RingBufferSink, Telemetry
from repro.persist import CheckpointManager

from repro.fl.service import DefenseService
from repro.fl.transport import LinkModel, Partition, SimulatedNetwork
from repro.obs.context import RunContext

from .fl.test_resume import CrashingAggregate, SimulatedCrash
from .fl.test_service import FixedTraffic, stub_config

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def ten_client_world():
    """A 10-client MNIST federation (clients + data; model built per test)."""
    return build_setup("mnist", SMOKE, seed=31, num_clients=10, rounds=1)


def fresh_model(world, seed=99):
    return mnist_cnn(
        np.random.default_rng(seed),
        in_channels=world.test.num_channels,
        image_size=world.test.image_size,
        num_classes=world.test.num_classes,
    )


class TestChaosTraining:
    def test_acceptance_scenario(self, ten_client_world):
        """20% dropout + 5% corrupted updates over a 10-client MNIST run:
        completes, stays finite every round, and logs skip/quarantine."""
        world = ten_client_world
        faults = FaultModel(dropout_prob=0.2, corrupt_prob=0.05, seed=7)
        server = FederatedServer(
            fresh_model(world),
            wrap_clients(world.clients, faults),
            world.test,
            backdoor_task=world.eval_task,
            min_quorum=0.9,
            max_client_strikes=1,
        )
        history = server.train(8)
        for metrics in history.rounds:
            assert np.isfinite(server.model.flat_parameters()).all()
            total = (
                metrics.num_accepted + len(metrics.dropped) + len(metrics.rejected)
            )
            assert total == metrics.num_selected
        assert history.num_dropouts > 0
        assert history.num_rejections > 0
        assert history.skipped_rounds  # sub-quorum rounds were skipped, not forced
        assert history.quarantine_events  # repeat corrupters were expelled
        assert server.quarantined == {cid for _, cid in history.quarantine_events}

    @pytest.mark.parametrize("dropout", [0.1, 0.2])
    def test_fault_rate_sweep(self, dropout, ten_client_world):
        world = ten_client_world
        faults = FaultModel(
            dropout_prob=dropout, corrupt_prob=0.05, stale_prob=0.05, seed=11
        )
        server = FederatedServer(
            fresh_model(world),
            wrap_clients(world.clients, faults),
            world.test,
            min_quorum=1,
            update_retries=1,
        )
        history = server.train(4)
        assert len(history) == 4
        assert np.isfinite(server.model.flat_parameters()).all()
        # with quorum 1 and a 10-client population, every round aggregates
        assert history.skipped_rounds == []

    def test_fault_events_match_history_accounting(self, ten_client_world):
        """Every telemetry `fault.update` draw reconciles with what the
        server recorded: failed plans == dropouts, corrupted train plans
        == rejections (retries disabled so draws map 1:1 to outcomes)."""
        world = ten_client_world
        hub = Telemetry()
        ring = hub.add_sink(RingBufferSink())
        faults = FaultModel(
            dropout_prob=0.2,
            corrupt_prob=0.1,
            stale_prob=0.05,
            seed=7,
            telemetry=hub,
        )
        server = FederatedServer(
            fresh_model(world),
            wrap_clients(world.clients, faults),
            world.test,
            min_quorum=1,
            update_retries=0,  # 1 draw per (client, round): exact accounting
            max_client_strikes=None,  # keep the population constant
            telemetry=hub,
        )
        history = server.train(6)
        hub.close()

        draws = [e for e in ring.events if e["name"] == "fault.update"]
        assert len(draws) == 6 * len(world.clients)

        failed = [
            e for e in draws if e["attrs"]["action"] in ("dropout", "timeout")
        ]
        assert len(failed) == history.num_dropouts > 0

        # every corruption kind fails validate_update, so corrupted
        # train plans are exactly the server's rejections
        corrupted = [
            e
            for e in draws
            if e["attrs"]["action"] == "train"
            and e["attrs"]["corruption"] is not None
        ]
        assert len(corrupted) == history.num_rejections > 0

        # stale replays are valid payloads: accepted, never rejected
        stale = [e for e in draws if e["attrs"]["action"] == "stale"]
        accepted = sum(r.num_accepted for r in history.rounds)
        clean = len(draws) - len(failed) - len(corrupted)
        assert clean == accepted
        assert len(stale) <= clean

    def test_straggler_timeouts_logged_as_dropouts(self, ten_client_world):
        world = ten_client_world
        faults = FaultModel(
            straggler_prob=0.3,
            straggler_delay=(20.0, 30.0),
            deadline_seconds=10.0,
            seed=5,
        )
        server = FederatedServer(
            fresh_model(world), wrap_clients(world.clients, faults), world.test
        )
        history = server.train(2)
        assert history.num_dropouts > 0
        assert any("deadline" in reason for r in history.rounds for _, reason in r.dropped)


class TestChaosDefense:
    @pytest.fixture(scope="class")
    def backdoored(self):
        return build_setup("mnist", SMOKE, seed=21)

    def _defend(self, setup, clients):
        model = clone_model(setup.model)
        pipeline = DefensePipeline(
            clients,
            setup.accuracy_fn(),
            DefenseConfig(method="mvp", fine_tune=True, fine_tune_rounds=2),
        )
        report = pipeline.run(model)
        ta, asr = setup.metrics(model)
        return ta, asr, report, pipeline

    def test_pipeline_degrades_gracefully(self, backdoored):
        """FP+FT+AW under 20% dropout / 5% corruption / 20% report faults
        completes and lands within tolerance of the fault-free defense."""
        clean_ta, clean_asr, clean_report, _ = self._defend(
            backdoored, backdoored.clients
        )
        faults = FaultModel(
            dropout_prob=0.2, corrupt_prob=0.05, report_fault_prob=0.2, seed=5
        )
        ta, asr, report, pipeline = self._defend(
            backdoored, wrap_clients(backdoored.clients, faults)
        )
        # all three stages ran on the surviving quorum
        assert report.pruning is not None
        assert report.fine_tuning is not None
        assert report.adjusting is not None
        # fault injection observed and logged, not silent
        assert (
            report.fine_tuning.num_dropped + report.fine_tuning.num_rejected > 0
            or pipeline.events
        )
        # graceful degradation: no worse than the reliable-client defense
        assert ta >= clean_ta - 0.15
        assert asr <= clean_asr + 0.10
        # and the usual integration bound: the defense never destroys the model
        ta_before, _ = backdoored.metrics()
        assert ta >= min(ta_before, clean_report.pruning.baseline_accuracy) - 0.2

    @pytest.mark.parametrize(
        "make_executor",
        [lambda: ProcessExecutor(num_workers=2), MegabatchExecutor],
        ids=["ProcessExecutor", "MegabatchExecutor"],
    )
    def test_chaos_scenario_identical_under_parallel_executor(
        self, make_executor, ten_client_world
    ):
        """The full fault cocktail replays bit-for-bit on a parallel
        engine: same params, same per-round fault log as the serial one."""
        world = ten_client_world

        def run(executor):
            faults = FaultModel(
                dropout_prob=0.2, corrupt_prob=0.05, stale_prob=0.05, seed=7
            )
            server = FederatedServer(
                fresh_model(world),
                wrap_clients(world.clients, faults),
                world.test,
                backdoor_task=world.eval_task,
                min_quorum=0.9,
                update_retries=1,
                max_client_strikes=1,
                executor=executor,
            )
            history = server.train(4)
            return server.model.flat_parameters(), history

        # the shared clients' RNG streams advance during a run; snapshot
        # and restore them so both runs start from the same position
        states = [c.rng.bit_generator.state for c in world.clients]
        base_params, base_history = run(None)
        for client, state in zip(world.clients, states):
            client.rng.bit_generator.state = state
        with make_executor() as executor:
            params, history = run(executor)

        np.testing.assert_array_equal(params, base_params)
        for base, parallel in zip(base_history.rounds, history.rounds):
            assert parallel.test_acc == base.test_acc
            assert parallel.attack_acc == base.attack_acc
            assert parallel.dropped == base.dropped
            assert parallel.rejected == base.rejected
            assert parallel.quarantined == base.quarantined
            assert parallel.skipped == base.skipped

    def test_zero_fault_rates_bitwise_neutral(self):
        """FaultModel(0) + hardened stack == plain clients, bit for bit."""
        final_params, final_metrics = [], []
        for wrap in (False, True):
            setup = build_setup("mnist", SMOKE, seed=27, rounds=2)
            clients = setup.clients
            if wrap:
                clients = wrap_clients(clients, FaultModel(seed=123))
            server = FederatedServer(
                setup.model,
                clients,
                setup.test,
                backdoor_task=setup.eval_task,
                rng=np.random.default_rng(77),
            )
            history = server.train(2)
            assert history.skipped_rounds == []
            assert history.num_dropouts == history.num_rejections == 0
            final_params.append(setup.model.flat_parameters())
            final_metrics.append(setup.metrics())
        np.testing.assert_array_equal(final_params[0], final_params[1])
        assert final_metrics[0] == final_metrics[1]


# -- durability under violent failure ----------------------------------
#
# KamikazeClient is module-level so spawn workers can unpickle it; the
# flag file is how one SIGKILL communicates "already died" to the
# re-dispatched attempt.


class KamikazeClient(Client):
    """A client whose first ``local_update`` SIGKILLs its worker process."""

    def __init__(self, flag, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.flag = flag

    def local_update(self, model, global_params, round_index):
        if self.flag is not None and not os.path.exists(self.flag):
            with open(self.flag, "w") as handle:
                handle.write("killed")
            os.kill(os.getpid(), signal.SIGKILL)
        return super().local_update(model, global_params, round_index)


def durable_world(flag=None):
    """A small seeded federation; client 1 is a kamikaze when given a flag."""
    size, classes, num_clients, total = 8, 4, 4, 96
    data_rng = np.random.default_rng(13)
    images = data_rng.random((total, 1, size, size))
    labels = np.tile(np.arange(classes), total // classes)
    dataset = Dataset(images, labels)
    config = LocalTrainingConfig(
        lr=0.05, momentum=0.9, batch_size=16, local_epochs=1
    )
    clients = []
    for i, chunk in enumerate(np.array_split(np.arange(total), num_clients)):
        shard = dataset.subset(chunk)
        rng = np.random.default_rng(70 + i)
        if i == 1 and flag is not None:
            clients.append(KamikazeClient(flag, i, shard, config, rng))
        else:
            clients.append(Client(i, shard, config, rng))
    model_rng = np.random.default_rng(3)
    model = nn.Sequential(
        nn.Conv2d(1, 4, kernel_size=3, padding=1, rng=model_rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(4 * (size // 2) ** 2, classes, rng=model_rng),
    )
    return model, clients, dataset


class TestChaosDurability:
    """Kill the worker, then kill the coordinator, and still finish."""

    @pytest.mark.slow
    def test_worker_sigkill_then_coordinator_crash_then_resume(self, tmp_path):
        num_rounds = 4
        ref_model, ref_clients, ref_dataset = durable_world()
        with ProcessExecutor(num_workers=2) as executor:
            ref_history = FederatedServer(
                ref_model, ref_clients, ref_dataset, executor=executor
            ).train(num_rounds)
        ref_params = ref_model.flat_parameters()

        flag = str(tmp_path / "kamikaze.flag")
        manager = CheckpointManager(tmp_path / "ckpt", keep=10)

        # attempt 1: a worker is SIGKILLed in round 0 (and re-dispatched),
        # then the coordinator itself dies mid round 2
        model, clients, dataset = durable_world(flag)
        with ProcessExecutor(num_workers=2) as executor:
            server = FederatedServer(
                model,
                clients,
                dataset,
                aggregator=CrashingAggregate(3),
                executor=executor,
            )
            with pytest.raises(SimulatedCrash):
                server.train(num_rounds, checkpoint=manager)
            assert executor.redispatches >= 1
        assert os.path.exists(flag)  # the kamikaze really fired
        assert manager.load_latest("train").step == 2

        # attempt 2: a rebuilt (kamikaze-free) world resumes and finishes
        model2, clients2, dataset2 = durable_world()
        with ProcessExecutor(num_workers=2) as executor:
            history = FederatedServer(
                model2, clients2, dataset2, executor=executor
            ).train(num_rounds, checkpoint=manager, resume=True)

        assert model2.flat_parameters().tobytes() == ref_params.tobytes()
        assert history.to_jsonable() == ref_history.to_jsonable()

    @pytest.mark.slow
    def test_network_partition_survives_worker_and_coordinator_death(
        self, tmp_path
    ):
        """Satellite drill: SIGKILL a pool worker, then kill the
        coordinator mid-partition — while a slow client's updates sit
        held behind the cut — and resume to a byte-identical run with
        no double aggregation.

        The cut is scoped to client 3, whose reports are pushed past
        the 10.5s partition start every round: the fast majority keeps
        committing (so checkpoints are cut), and each snapshot carries
        the in-flight held queue plus the delivery gate's dedup/fence
        state.  CrashingAggregate fires on the third commit, i.e. mid
        round 2 with two held messages outstanding.
        """
        num_rounds = 6

        def run_service(world, manager, aggregate, executor, resume=False):
            model, clients, dataset = world
            service = DefenseService(
                model,
                clients,
                dataset,
                stub_config(quorum=2),
                aggregator=aggregate,
                traffic=FixedTraffic(
                    {
                        r: {0: 1.0, 1: 1.0, 2: 1.0, 3: 11.0}
                        for r in range(num_rounds)
                    }
                ),
                network=SimulatedNetwork(
                    link=LinkModel(seed=23),
                    partitions=[Partition(10.5, 25.0, clients=[3])],
                    name="cut3",
                ),
                context=RunContext(
                    telemetry=Telemetry(),
                    executor=executor,
                    checkpoint=manager,
                    resume=resume,
                ),
            )
            history = service.run(num_rounds)
            return service, history

        ref_manager = CheckpointManager(tmp_path / "ref", keep=10)
        with ProcessExecutor(num_workers=2) as executor:
            reference, ref_history = run_service(
                durable_world(), ref_manager, CrashingAggregate(999), executor
            )
        assert ref_history.network_counts()["held"] > 0
        ref_params = reference.model.flat_parameters()

        # attempt 1: the kamikaze worker dies in round 0 (re-dispatched),
        # then the coordinator dies aggregating round 2
        flag = str(tmp_path / "kamikaze.flag")
        manager = CheckpointManager(tmp_path / "ckpt", keep=10)
        with ProcessExecutor(num_workers=2) as executor:
            with pytest.raises(SimulatedCrash):
                run_service(
                    durable_world(flag), manager, CrashingAggregate(3), executor
                )
            assert executor.redispatches >= 1
        assert os.path.exists(flag)  # the kamikaze really fired

        snapshot = manager.load_latest("service")
        assert snapshot.step == 2
        # the snapshot carries the partition-held in-flight queue
        held = snapshot.meta["transport"]["network"]["held"]
        assert held and all(r["client_id"] == 3 for r in held)

        # attempt 2: a rebuilt (kamikaze-free) world resumes and finishes
        with ProcessExecutor(num_workers=2) as executor:
            resumed, history = run_service(
                durable_world(),
                manager,
                CrashingAggregate(999),
                executor,
                resume=True,
            )

        assert resumed.model.flat_parameters().tobytes() == ref_params.tobytes()
        assert history.to_jsonable() == ref_history.to_jsonable()
        assert resumed.gate.state_dict() == reference.gate.state_dict()
        assert resumed.network.stats == reference.network.stats
        assert resumed.network.in_flight() == 0
        origins = history.aggregated_origins
        assert len(origins) == len(set(origins)), "double aggregation"

    def test_torn_snapshot_rejected_by_checksum(self, tmp_path):
        """Truncation is detected, reported, and survived via fallback."""
        num_rounds = 4
        ref_model, ref_clients, ref_dataset = durable_world()
        ref_history = FederatedServer(
            ref_model, ref_clients, ref_dataset
        ).train(num_rounds)

        manager = CheckpointManager(tmp_path / "ckpt", keep=10)
        model, clients, dataset = durable_world()
        with pytest.raises(SimulatedCrash):
            FederatedServer(
                model, clients, dataset, aggregator=CrashingAggregate(4)
            ).train(num_rounds, checkpoint=manager)
        newest = manager.load_latest("train")
        assert newest.step == 3
        with open(newest.path, "r+b") as handle:
            data = handle.read()
            handle.seek(0)
            handle.truncate()
            handle.write(data[: len(data) // 3])

        hub = Telemetry()
        ring = hub.add_sink(RingBufferSink())
        model2, clients2, dataset2 = durable_world()
        fresh = CheckpointManager(tmp_path / "ckpt", keep=10)
        history = FederatedServer(
            model2, clients2, dataset2, telemetry=hub
        ).train(num_rounds, checkpoint=fresh, resume=True)
        hub.close()

        assert np.array_equal(model2.flat_parameters(), ref_model.flat_parameters())
        assert history.to_jsonable() == ref_history.to_jsonable()
        resume_events = [e for e in ring.events if e["name"] == "persist.resume"]
        assert len(resume_events) == 1
        assert resume_events[0]["attrs"]["step"] == 2  # fell back one snapshot
        assert len(resume_events[0]["attrs"]["rejected"]) == 1
        assert fresh.last_rejected and "integrity" in fresh.last_rejected[0][1]
