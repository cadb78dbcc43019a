"""Parity tests for the vectorized megabatch execution engine.

The contract under test (see ``src/repro/nn/megabatch.py`` and
``MegabatchExecutor`` in ``src/repro/fl/executor.py``): running a wave
of homogeneous clients as one batched tensor pass produces **bitwise
identical** results to the serial per-client loop — per-client deltas,
advanced RNG streams, aggregated model parameters, history traces and
the canonical telemetry stream — across clean and faulty cohorts, and
degrades to the serial task path whenever a client or model is not
eligible for vectorization.  The same holds when a wave is split
between the coordinator and a worker process.
"""

import concurrent.futures
import gc
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import Dataset
from repro.fl import executor as executor_module
from repro.fl.client import Client, LocalTrainingConfig, megabatch_eligible
from repro.fl.executor import (
    MegabatchExecutor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    collect_updates,
)
from repro.fl.faults import FaultModel, wrap_clients
from repro.fl.server import FederatedServer
from repro.nn.megabatch import supports_megabatch, train_wave
from repro.nn.serialization import clone_module
from repro.obs import RingBufferSink, Telemetry, dumps_canonical
from repro.obs.profile import LayerProfiler


def build_world(
    seed=5,
    num_clients=6,
    samples_per_client=17,  # deliberately not a batch multiple
    batch_size=7,
    local_epochs=2,
    dropout=0.0,
    last_conv_l2=0.0,
    weight_decay=0.0,
    pruned=False,
):
    """A fresh, fully seeded federation — identical on every call.

    Defaults pick awkward shapes on purpose: a trailing partial batch
    every epoch, several epochs of RNG consumption per client.
    """
    total = num_clients * samples_per_client
    data_rng = np.random.default_rng(seed)
    images = data_rng.random((total, 1, 8, 8))
    labels = np.tile(np.arange(4), total // 4 + 1)[:total]
    dataset = Dataset(images, labels)
    config = LocalTrainingConfig(
        lr=0.05,
        momentum=0.9,
        batch_size=batch_size,
        local_epochs=local_epochs,
        last_conv_l2=last_conv_l2,
        weight_decay=weight_decay,
    )
    chunks = np.array_split(np.arange(total), num_clients)
    clients = [
        Client(i, dataset.subset(chunk), config, np.random.default_rng(100 + i))
        for i, chunk in enumerate(chunks)
    ]
    model_rng = np.random.default_rng(seed + 1)
    layers = [
        nn.Conv2d(1, 4, kernel_size=3, padding=1, rng=model_rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(4 * 4 * 4, 4, rng=model_rng),
    ]
    if dropout:
        layers.insert(3, nn.Dropout(dropout, rng=np.random.default_rng(9)))
    if pruned:
        layers[0].out_mask[[0, 2]] = False
    model = nn.Sequential(*layers)
    return model, clients, dataset


def _rng_states(clients):
    return [c.rng.bit_generator.state["state"] for c in clients]


def _wave(executor, **world_kwargs):
    """One collect_updates wave; (deltas, rng states after)."""
    model, clients, _ = build_world(**world_kwargs)
    outcomes = collect_updates(
        executor, clients, model, model.flat_parameters(), round_index=0
    )
    return [value for _, value in outcomes], _rng_states(clients)


def _assert_same_wave(a, b):
    (deltas_a, rng_a), (deltas_b, rng_b) = a, b
    assert len(deltas_a) == len(deltas_b)
    for x, y in zip(deltas_a, deltas_b):
        np.testing.assert_array_equal(x, y)
    assert rng_a == rng_b


#: clients of a wave above the threshold that splits it between processes
SPLIT_CLIENTS = executor_module.SHARD_MIN_CLIENTS + 8


def _cpus(monkeypatch, count):
    """Pretend this process may run on ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _started(executor):
    """Run two waves above the threshold, the second of which spawns the
    executor's worker, and wait until the worker has answered its
    warm-up task."""
    for _ in range(2):
        _wave(executor, num_clients=SPLIT_CLIENTS)
    assert executor._warm is not None
    executor._warm.result(timeout=120)
    return executor


def _local_clients(monkeypatch) -> list:
    """Record every client the coordinator trains itself."""
    trained = []
    train_local = executor_module._train_local

    def recording(items, chunk, results):
        trained.extend(chunk)
        train_local(items, chunk, results)

    monkeypatch.setattr(executor_module, "_train_local", recording)
    return trained


def _kill_worker(_payload):
    """Stands in for the chunk task body: the worker dies mid-wave."""
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture(scope="module")
def split_executor():
    """One warm splitting executor for the module: spawning is costly.
    Its worker is spawned as if two CPUs were usable, so the split path
    runs on every machine."""
    with MegabatchExecutor() as executor:
        with pytest.MonkeyPatch.context() as patch:
            _cpus(patch, 2)
            _started(executor)
        yield executor


class TestEligibility:
    def test_plain_client_is_eligible(self):
        _, clients, _ = build_world()
        assert all(megabatch_eligible(c) for c in clients)

    def test_fault_wrapped_client_is_not(self):
        _, clients, _ = build_world()
        wrapped = wrap_clients(clients, FaultModel(seed=3))
        assert not any(megabatch_eligible(c) for c in wrapped)

    def test_subclass_overriding_local_update_is_not(self):
        class Custom(Client):
            def local_update(self, global_params):  # pragma: no cover
                return super().local_update(global_params)

        _, clients, _ = build_world(num_clients=1)
        base = clients[0]
        custom = Custom(
            0, base.dataset, base.config, np.random.default_rng(1)
        )
        assert not megabatch_eligible(custom)

    def test_supported_and_unsupported_models(self):
        model, _, _ = build_world()
        assert supports_megabatch(model)
        with_norm = nn.Sequential(
            nn.Conv2d(1, 4, kernel_size=3, rng=np.random.default_rng(0)),
            nn.BatchNorm2d(4),
            nn.Flatten(),
        )
        assert not supports_megabatch(with_norm)
        # a stacked layer cannot tile one per-client mask sequence
        with_dropout, _, _ = build_world(dropout=0.3)
        assert not supports_megabatch(with_dropout)

    def test_wave_size_validation(self):
        with pytest.raises(ValueError, match="wave_size"):
            MegabatchExecutor(wave_size=0)


class TestWaveParity:
    """Bitwise identity of one training wave, megabatch vs serial."""

    @pytest.mark.parametrize(
        "world_kwargs",
        [
            {},  # partial batches + momentum, the default world
            {"dropout": 0.3},  # per-client masks drawn from cloned rng
            {"last_conv_l2": 0.01, "weight_decay": 1e-4},
            {"batch_size": 64, "local_epochs": 1},  # single full batch
        ],
        ids=["default", "dropout", "penalties", "one-batch"],
    )
    def test_deltas_and_rng_bitwise_identical(self, world_kwargs):
        serial_deltas, serial_rng = _wave(SerialExecutor(), **world_kwargs)
        mega_deltas, mega_rng = _wave(
            MegabatchExecutor(wave_size=64), **world_kwargs
        )
        assert len(mega_deltas) == len(serial_deltas)
        for a, b in zip(serial_deltas, mega_deltas):
            np.testing.assert_array_equal(a, b)
        assert mega_rng == serial_rng

    def test_wave_chunking_is_invisible(self):
        baseline, base_rng = _wave(MegabatchExecutor(wave_size=64))
        chunked, chunk_rng = _wave(MegabatchExecutor(wave_size=4))
        for a, b in zip(baseline, chunked):
            np.testing.assert_array_equal(a, b)
        assert chunk_rng == base_rng

    def test_gradient_slices_match_per_client_updates(self):
        """train_wave's batch-axis rows are the per-client deltas."""
        model, clients, _ = build_world(num_clients=4)
        global_params = model.flat_parameters()
        deltas = train_wave(model, clients, global_params)
        assert deltas.shape == (4, global_params.size)

        model2, clients2, _ = build_world(num_clients=4)
        for row, client in zip(deltas, clients2):
            np.testing.assert_array_equal(
                row, client.local_update(clone_module(model2), global_params)
            )

    def test_wave_freed_without_cyclic_collector(self, monkeypatch):
        """A finished wave, with its activation caches, is freed by
        reference counting alone."""
        import gc
        import weakref

        from repro.nn import megabatch

        waves = []
        clone = megabatch.clone_module

        def tracking(model):
            wave = clone(model)
            # every layer owns its activation cache, so a freed layer
            # has freed its cache; the parameters hold the K-stacks
            waves.append([weakref.ref(m) for m in wave.modules()])
            waves[-1] += [weakref.ref(p) for p in wave.parameters()]
            return wave

        monkeypatch.setattr(megabatch, "clone_module", tracking)
        model, clients, _ = build_world(num_clients=3)
        gc.disable()
        try:
            train_wave(model, clients, model.flat_parameters())
            assert len(waves) == 1
            assert [ref() for ref in waves[0]] == [None] * len(waves[0])
        finally:
            gc.enable()

    def test_mixed_cohort_falls_back_per_client(self):
        """Faulty clients take the serial path inside a megabatch wave."""
        model, clients, _ = build_world()
        # zero-rate fault model: wrappers change eligibility, not math
        clients = (
            clients[:3] + wrap_clients(clients[3:], FaultModel(seed=11))
        )
        outcomes = collect_updates(
            MegabatchExecutor(wave_size=64),
            clients,
            model,
            model.flat_parameters(),
            round_index=0,
        )
        serial_deltas, serial_rng = _wave(SerialExecutor())
        for (_, value), expected in zip(outcomes, serial_deltas):
            np.testing.assert_array_equal(value, expected)
        assert _rng_states(clients) == serial_rng

    def test_non_finite_broadcast_raises_like_serial(self):
        model, clients, _ = build_world()
        broadcast = model.flat_parameters()
        broadcast[0] = np.nan
        for executor in (SerialExecutor(), MegabatchExecutor()):
            with pytest.raises(ValueError, match="non-finite"):
                collect_updates(
                    executor, clients, model, broadcast, round_index=0
                )

    def test_dtype_mismatch_falls_back_bitwise(self):
        """A float64 broadcast must not silently train in float64.

        ``load_flat_parameters`` casts the broadcast into the model's
        float32 parameters, but the serial delta is computed against the
        float64 broadcast — the vectorized path cannot reproduce that
        mixed precision, so such waves must degrade to the serial task
        path and stay bitwise identical to ``SerialExecutor``.
        """

        def run(executor):
            model, clients, _ = build_world()
            broadcast = model.flat_parameters().astype(np.float64)
            outcomes = collect_updates(
                executor, clients, model, broadcast, round_index=0
            )
            return [value for _, value in outcomes]

        serial = run(SerialExecutor())
        mega = run(MegabatchExecutor(wave_size=64))
        for a, b in zip(serial, mega):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


class TestWaveProfiling:
    """The profiler sees a wave's layer calls under the serial keys."""

    @staticmethod
    def _profiled(executor, **world_kwargs):
        model, clients, _ = build_world(**world_kwargs)
        with LayerProfiler() as prof:
            collect_updates(
                executor, clients, model, model.flat_parameters(), round_index=0
            )
        return prof.stats

    @pytest.mark.parametrize("wave_size,waves", [(64, 1), (4, 2), (2, 3)])
    def test_wave_rows_merge_with_serial_rows(self, wave_size, waves):
        serial = self._profiled(SerialExecutor())
        wave = self._profiled(MegabatchExecutor(wave_size))
        assert set(wave) == set(serial)
        assert {key.split("(")[0] for key in wave} == {
            "Conv2d", "ReLU", "MaxPool2d", "Flatten", "Linear"
        }
        # every wave trains 2 epochs x 3 minibatches (17 samples, batch
        # 7): one call per layer and minibatch in each direction
        for key, entry in wave.items():
            assert entry["forward_calls"] == 6 * waves, key
            assert entry["backward_calls"] == 6 * waves, key

    def test_split_wave_records_every_layer_call(
        self, split_executor, monkeypatch
    ):
        """While a profiler is installed the whole wave trains in the
        coordinator, so no layer call goes unseen in a worker."""
        _cpus(monkeypatch, 1)
        local = _local_clients(monkeypatch)
        split = self._profiled(split_executor, num_clients=SPLIT_CLIENTS)
        assert sorted(local) == list(range(SPLIT_CLIENTS))
        unsplit = self._profiled(MegabatchExecutor(), num_clients=SPLIT_CLIENTS)

        def calls(stats):
            return {
                key: (entry["forward_calls"], entry["backward_calls"])
                for key, entry in stats.items()
            }

        assert calls(split) == calls(unsplit)


class TestSplitWaves:
    """A wave split between the coordinator and a worker process gives
    the unsplit wave's and the serial loop's deltas and RNG states."""

    @pytest.mark.parametrize(
        "world_kwargs",
        [
            {},
            {"pruned": True},
            {"last_conv_l2": 0.01, "weight_decay": 1e-4},
        ],
        ids=["default", "pruned", "penalties"],
    )
    def test_split_matches_unsplit_and_serial(
        self, split_executor, monkeypatch, world_kwargs
    ):
        kwargs = dict(world_kwargs, num_clients=SPLIT_CLIENTS)
        serial = _wave(SerialExecutor(), **kwargs)
        _cpus(monkeypatch, 1)
        unsplit = _wave(MegabatchExecutor(), **kwargs)
        local = _local_clients(monkeypatch)
        split = _wave(split_executor, **kwargs)
        assert len(local) < SPLIT_CLIENTS  # the worker trained a chunk
        _assert_same_wave(split, serial)
        _assert_same_wave(unsplit, serial)

    def test_one_usable_cpu_spawns_nothing(self, monkeypatch):
        _cpus(monkeypatch, 1)
        before = set(multiprocessing.active_children())
        executor = MegabatchExecutor()
        serial = _wave(SerialExecutor(), num_clients=SPLIT_CLIENTS)
        for _ in range(2):
            _assert_same_wave(
                _wave(executor, num_clients=SPLIT_CLIENTS), serial
            )
        assert executor._workers is None
        assert set(multiprocessing.active_children()) <= before

    def test_one_split_wave_spawns_nothing(self, monkeypatch):
        _cpus(monkeypatch, 2)
        before = set(multiprocessing.active_children())
        with MegabatchExecutor() as executor:
            serial = _wave(SerialExecutor(), num_clients=SPLIT_CLIENTS)
            _assert_same_wave(
                _wave(executor, num_clients=SPLIT_CLIENTS), serial
            )
            assert executor._workers is None
        assert set(multiprocessing.active_children()) <= before

    def test_garbage_collected_executor_stops_its_worker(self, monkeypatch):
        _cpus(monkeypatch, 2)
        executor = _started(MegabatchExecutor())
        workers = list(executor._workers._pool._processes.values())
        assert workers and all(worker.is_alive() for worker in workers)
        del executor
        gc.collect()
        assert not set(workers) & set(multiprocessing.active_children())

    def test_worker_killed_mid_wave_costs_no_result(self, monkeypatch):
        _cpus(monkeypatch, 2)
        executor = _started(MegabatchExecutor())
        workers = list(executor._workers._pool._processes.values())
        serial = _wave(SerialExecutor(), num_clients=SPLIT_CLIENTS)
        monkeypatch.setattr(executor_module, "_train_chunk", _kill_worker)
        _assert_same_wave(_wave(executor, num_clients=SPLIT_CLIENTS), serial)
        assert not any(worker.is_alive() for worker in workers)
        # splitting stays off: the next wave trains here, nothing respawns
        _assert_same_wave(_wave(executor, num_clients=SPLIT_CLIENTS), serial)
        assert executor._workers._pool is None
        executor.close()


class TestTrainingParity:
    """Multi-round server training across every engine."""

    def _train(self, executor, faults=None):
        model, clients, dataset = build_world()
        if faults is not None:
            clients = wrap_clients(clients, FaultModel(**faults))
        server = FederatedServer(model, clients, dataset, executor=executor)
        history = server.train(3)
        return model.flat_parameters(), [
            (r.round_index, r.test_acc, r.num_accepted) for r in history.rounds
        ]

    def test_clean_training_matches_all_engines(self):
        results = {}
        results["serial"] = self._train(SerialExecutor())
        results["megabatch"] = self._train(MegabatchExecutor(wave_size=4))
        with ThreadExecutor(num_workers=2) as thread:
            results["thread"] = self._train(thread)
        with ProcessExecutor(num_workers=2) as process:
            results["process"] = self._train(process)
        base_params, base_log = results["serial"]
        for name, (params, log) in results.items():
            np.testing.assert_array_equal(params, base_params, err_msg=name)
            assert log == base_log, name

    def test_faulty_training_matches_serial(self):
        faults = dict(
            dropout_prob=0.25,
            straggler_prob=0.2,
            corrupt_prob=0.15,
            stale_prob=0.1,
            seed=17,
        )
        base_params, base_log = self._train(SerialExecutor(), faults=faults)
        mega_params, mega_log = self._train(
            MegabatchExecutor(wave_size=64), faults=faults
        )
        np.testing.assert_array_equal(mega_params, base_params)
        assert mega_log == base_log


class TestTelemetryParity:
    def _traced_training(self, executor, **world_kwargs):
        hub = Telemetry()
        ring = hub.add_sink(RingBufferSink())
        model, clients, dataset = build_world(**world_kwargs)
        faults = FaultModel(
            dropout_prob=0.2, corrupt_prob=0.15, stale_prob=0.1, seed=17
        )
        faults.telemetry = hub
        clients = wrap_clients(clients, faults)
        server = FederatedServer(
            model,
            clients,
            dataset,
            executor=executor,
            update_retries=1,
            max_client_strikes=2,
            telemetry=hub,
        )
        server.train(3)
        hub.close()
        return dumps_canonical(ring.events)

    def test_canonical_stream_byte_identical(self):
        serial = self._traced_training(SerialExecutor())
        mega = self._traced_training(MegabatchExecutor(wave_size=4))
        assert serial  # non-empty
        assert mega == serial

    def test_split_waves_stream_byte_identical(self, split_executor):
        serial = self._traced_training(
            SerialExecutor(), num_clients=SPLIT_CLIENTS
        )
        split = self._traced_training(split_executor, num_clients=SPLIT_CLIENTS)
        assert split == serial
