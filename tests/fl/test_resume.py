"""Kill-and-resume byte-identity for the training loop.

The contract under test (ISSUE 4 acceptance): a run killed mid-round and
resumed from its newest snapshot is *byte-identical* to a run that never
crashed — same final parameters, same metric history, and the stitched
canonical telemetry stream equals the uninterrupted run's — under every
execution engine.
"""

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import Dataset
from repro.fl.aggregation import fedavg
from repro.fl.client import Client, LocalTrainingConfig
from repro.fl.executor import (
    MegabatchExecutor,
    ProcessExecutor,
    SerialExecutor,
)
from repro.fl.faults import FaultModel, wrap_clients
from repro.fl.server import FederatedServer
from repro.obs.schema import dumps_canonical
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry
from repro.persist import CheckpointManager, stitch_streams

NUM_ROUNDS = 5
CHECKPOINT_EVERY = 2
CRASH_AT_AGGREGATION = 4  # dies mid round 3, after the round-2 snapshot


class SimulatedCrash(Exception):
    """Stands in for SIGKILL: aborts the loop at a precise point."""


class CrashingAggregate:
    """fedavg that dies on its Nth invocation (mid-round, post-training)."""

    def __init__(self, crash_at: int) -> None:
        self.crash_at = crash_at
        self.calls = 0

    def __call__(self, stacked: np.ndarray) -> np.ndarray:
        self.calls += 1
        if self.calls == self.crash_at:
            raise SimulatedCrash(f"killed at aggregation {self.calls}")
        return fedavg(stacked)


def make_world(faulty: bool = False):
    """A small, fully seeded federation (fresh copy per call)."""
    size, classes, num_clients, total = 8, 4, 4, 120
    data_rng = np.random.default_rng(11)
    images = data_rng.random((total, 1, size, size))
    labels = np.tile(np.arange(classes), total // classes)
    dataset = Dataset(images, labels)
    config = LocalTrainingConfig(
        lr=0.05, momentum=0.9, batch_size=16, local_epochs=1
    )
    chunks = np.array_split(np.arange(total), num_clients)
    clients = [
        Client(i, dataset.subset(chunk), config, np.random.default_rng(50 + i))
        for i, chunk in enumerate(chunks)
    ]
    if faulty:
        clients = wrap_clients(
            clients,
            FaultModel(dropout_prob=0.15, corrupt_prob=0.1, seed=17),
        )
    model_rng = np.random.default_rng(5)
    model = nn.Sequential(
        nn.Conv2d(1, 4, kernel_size=3, padding=1, rng=model_rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(4 * (size // 2) ** 2, classes, rng=model_rng),
    )
    return model, clients, dataset


EXECUTORS = [
    pytest.param(lambda: SerialExecutor(), id="serial"),
    pytest.param(lambda: ProcessExecutor(num_workers=2), id="process"),
    pytest.param(lambda: MegabatchExecutor(wave_size=4), id="megabatch"),
]


def run_uninterrupted(executor_factory, faulty, checkpoint=None):
    """The reference: same configuration (checkpoints included), no kill."""
    model, clients, dataset = make_world(faulty)
    hub = Telemetry()
    ring = hub.add_sink(RingBufferSink())
    with executor_factory() as executor:
        server = FederatedServer(
            model, clients, dataset, executor=executor, telemetry=hub
        )
        history = server.train(
            NUM_ROUNDS,
            checkpoint=checkpoint,
            checkpoint_every=CHECKPOINT_EVERY,
        )
    hub.close()
    return model.flat_parameters(), dumps_canonical(ring.events), history


class TestKillAndResume:
    @pytest.mark.parametrize("executor_factory", EXECUTORS)
    @pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
    def test_resumed_run_is_byte_identical(
        self, tmp_path, executor_factory, faulty
    ):
        ref_params, ref_stream, ref_history = run_uninterrupted(
            executor_factory, faulty,
            checkpoint=CheckpointManager(tmp_path / "ref_ckpt"),
        )
        manager = CheckpointManager(tmp_path / "ckpt")

        # attempt 1: killed mid round 3 (snapshots exist for rounds 2)
        model, clients, dataset = make_world(faulty)
        hub1 = Telemetry()
        ring1 = hub1.add_sink(RingBufferSink())
        with executor_factory() as executor:
            server = FederatedServer(
                model,
                clients,
                dataset,
                aggregator=CrashingAggregate(CRASH_AT_AGGREGATION),
                executor=executor,
                telemetry=hub1,
            )
            with pytest.raises(SimulatedCrash):
                server.train(
                    NUM_ROUNDS,
                    checkpoint=manager,
                    checkpoint_every=CHECKPOINT_EVERY,
                )
        hub1.close()

        # the snapshot the resuming attempt will load, and the telemetry
        # cursor it will rewind to
        snapshot = manager.load_latest("train")
        assert snapshot is not None and snapshot.step < NUM_ROUNDS
        resume_seq = snapshot.meta["telemetry"]["seq"]

        # attempt 2: a freshly rebuilt world resumes and finishes
        model2, clients2, dataset2 = make_world(faulty)
        hub2 = Telemetry()
        ring2 = hub2.add_sink(RingBufferSink())
        with executor_factory() as executor:
            server2 = FederatedServer(
                model2, clients2, dataset2, executor=executor, telemetry=hub2
            )
            history = server2.train(
                NUM_ROUNDS,
                checkpoint=manager,
                checkpoint_every=CHECKPOINT_EVERY,
                resume=True,
            )
        hub2.close()

        assert model2.flat_parameters().tobytes() == ref_params.tobytes()
        assert history.to_jsonable() == ref_history.to_jsonable()
        stitched = stitch_streams(
            [ring1.events, ring2.events], [resume_seq]
        )
        assert dumps_canonical(stitched) == ref_stream

    def test_resume_without_snapshot_is_fresh_start(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt")
        ref_params, _, _ = run_uninterrupted(lambda: SerialExecutor(), False)
        model, clients, dataset = make_world()
        server = FederatedServer(model, clients, dataset)
        server.train(NUM_ROUNDS, checkpoint=manager, resume=True)
        assert np.array_equal(model.flat_parameters(), ref_params)

    def test_resume_requires_checkpoint(self):
        model, clients, dataset = make_world()
        server = FederatedServer(model, clients, dataset)
        with pytest.raises(ValueError, match="resume"):
            server.train(2, resume=True)

    def test_checkpoint_cadence(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt", keep=10)
        model, clients, dataset = make_world()
        server = FederatedServer(model, clients, dataset)
        server.train(NUM_ROUNDS, checkpoint=manager, checkpoint_every=2)
        assert [e["step"] for e in manager.entries("train")] == [2, 4]

    def test_truncated_checkpoint_falls_back_one_cadence(self, tmp_path):
        """A torn newest snapshot costs at most checkpoint_every rounds."""
        manager = CheckpointManager(tmp_path / "ckpt", keep=10)
        ref_params, _, _ = run_uninterrupted(lambda: SerialExecutor(), False)

        model, clients, dataset = make_world()
        server = FederatedServer(model, clients, dataset)
        server.train(4, checkpoint=manager, checkpoint_every=2)
        # tear the round-4 snapshot; round-2 must carry the resume
        newest = manager.load_latest("train")
        assert newest.step == 4
        with open(newest.path, "r+b") as handle:
            data = handle.read()
            handle.seek(0)
            handle.truncate()
            handle.write(data[: len(data) // 2])

        model2, clients2, dataset2 = make_world()
        server2 = FederatedServer(model2, clients2, dataset2)
        server2.train(
            NUM_ROUNDS, checkpoint=manager, checkpoint_every=2, resume=True
        )
        assert np.array_equal(model2.flat_parameters(), ref_params)
