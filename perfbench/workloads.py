"""The benchmark's workloads: the paper's Fig 9 pipeline on two nets, and
the always-on defense service.

Every workload has the same three steps, driven by ``run.py``:

* ``setup(seed)`` builds what a pass needs before the clock starts: the
  seeded synthetic data the pass trains on and a model warmed by one
  forward/backward batch (the service workload also builds the whole
  service around them).
* ``run(world, tracer)`` is one timed pass.  With a
  :class:`~tracing.Tracer` it also installs span wrappers at every module
  boundary and the per-nn-layer profiler for the length of the pass.
* ``check(world, result)`` verifies a pass's outputs; each check is one
  ``(name, ok, detail)`` row.

All three run in one process with no worker pools.  Inputs are pure
functions of the seed, so the same seed gives bitwise-identical outputs.
"""

from __future__ import annotations

import os
import tempfile
import time
from contextlib import ExitStack, nullcontext

import numpy as np

import repro.defense.fine_tune
import repro.defense.pipeline
import repro.defense.pruning
import repro.experiments.common
import repro.fl.executor
import repro.fl.server
import repro.fl.service
from repro.attacks.poison import BackdoorTask
from repro.attacks.triggers import pixel_pattern
from repro.baselines.neural_cleanse import NeuralCleanse
from repro.data.dataset import train_test_split
from repro.data.partition import k_label_partition
from repro.data.synthetic import make_dataset
from repro.defense.pipeline import DefenseConfig, DefensePipeline
from repro.defense.pruning import server_validation_accuracy
from repro.eval.metrics import attack_success_rate, test_accuracy
from repro.experiments.common import build_setup, clone_model
from repro.experiments.scale import BENCH
from repro.fl.aggregation import FedAvg
from repro.fl.client import Client, LocalTrainingConfig, MaliciousClient
from repro.fl.executor import MegabatchExecutor, SerialExecutor
from repro.fl.faults import FaultModel, wrap_clients
from repro.fl.sampling import ParticipationSampler
from repro.fl.server import FederatedServer
from repro.fl.service import DefenseService, ServiceConfig
from repro.fl.traffic import make_schedule
from repro.fl.transport import make_network
from repro.nn.losses import CrossEntropyLoss
from repro.nn.zoo import mnist_cnn, small_nn, vgg_small
from repro.obs.alerts import ServiceMetrics
from repro.obs.context import RunContext
from repro.obs.sinks import Sink
from repro.obs.telemetry import Telemetry
from repro.persist import CheckpointManager

from tracing import LayerRows, Patches

__all__ = ["WORKLOADS"]

ROOT_SPAN = "bench.pass"


# -- shared helpers -----------------------------------------------------


def _span(tracer, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def _traced(tracer, name: str, fn):
    return fn if tracer is None else tracer.traced(name, fn)


def _time_rounds(patches: Patches, owner, seconds: list[float], after=None) -> None:
    """Time every ``owner.run_round`` call into ``seconds``.

    Installed on the class for the Fig 9 server (built inside
    ``build_setup``) and on the instance for the service; the cost is two
    clock reads per round.  ``after(round_index)`` runs outside the timed
    call.
    """
    original = owner.run_round

    def timed(*args):
        start = time.perf_counter()
        outcome = original(*args)
        seconds.append(time.perf_counter() - start)
        if after is not None:
            after(args[-1])
        return outcome

    patches.set(owner, "run_round", timed)


def _counting(tracer, key: str, arg_index: int):
    """on_call hook: add ``len(args[arg_index])`` to a tracer count."""

    def on_call(args, _result):
        tracer.count(key, len(args[arg_index]))

    return on_call


def install_module_spans(tracer) -> None:
    """Wrap every module-boundary function where its caller looks it up."""
    ex = repro.fl.executor
    tracer.wrap(
        ex, "train_wave", "nn.megabatch.train_wave",
        _counting(tracer, "megabatch_clients", 1),
    )
    for module in (repro.fl.server, repro.defense.fine_tune):
        tracer.wrap(
            module, "collect_updates", "fl.executor.update_wave",
            _counting(tracer, "update_tasks", 1),
        )
    tracer.wrap(
        repro.fl.service, "dispatch_updates", "fl.executor.update_wave",
        _counting(tracer, "update_tasks", 1),
    )
    for module in (repro.defense.pipeline, repro.defense.pruning):
        tracer.wrap(
            module, "collect_reports", "fl.executor.report_wave",
            _counting(tracer, "report_tasks", 1),
        )
    tracer.wrap(Client, "local_update", "fl.client.local_update")
    tracer.wrap(MaliciousClient, "local_update", "fl.client.local_update")
    tracer.wrap(FederatedServer, "train", "fl.server.train")
    tracer.wrap(FedAvg, "aggregate", "fl.aggregation.aggregate")
    tracer.wrap(repro.defense.fine_tune, "fedavg", "fl.aggregation.aggregate")
    tracer.wrap(DefensePipeline, "global_prune_order", "defense.prune_order")
    pipeline = repro.defense.pipeline
    tracer.wrap(pipeline, "prune_by_sequence", "defense.prune")
    tracer.wrap(pipeline, "federated_fine_tune", "defense.fine_tune")
    tracer.wrap(pipeline, "adjust_extreme_weights", "defense.adjust")
    for module in (repro.fl.server, repro.fl.service, repro.experiments.common):
        tracer.wrap(module, "test_accuracy", "eval.test_accuracy")
        tracer.wrap(module, "attack_success_rate", "eval.attack_success_rate")


def _warm_up(model, images: np.ndarray, labels: np.ndarray) -> None:
    """One forward/backward batch, so lazily built layer plans exist."""
    loss = CrossEntropyLoss()
    model.train()
    loss(model(images), labels)
    model.backward(loss.backward())
    model.zero_grad()
    model.eval()


def _finite(model) -> bool:
    return bool(np.isfinite(model.flat_parameters()).all())


# -- Fig 9: the paper's timing study ------------------------------------


class Fig9:
    """``build_setup`` trains the paper's net on the serial engine, then
    ``DefensePipeline`` runs MVP FP -> FT -> AW and Neural Cleanse runs
    on a clone of the trained model (Table IV)."""

    #: Neural Cleanse optimisation steps at BENCH scale (as in Table IV)
    NC_STEPS = 60

    def __init__(self, dataset: str, dba: bool, min_passes: int) -> None:
        self.dataset = dataset
        self.dba = dba
        self.scale = BENCH
        self.MIN_PASSES = min_passes

    def _model(self, seed: int, spec):
        rng = np.random.default_rng(seed + 1)
        if self.dataset == "cifar":
            return vgg_small(
                rng, in_channels=spec.num_channels, image_size=spec.image_size,
                num_classes=spec.num_classes, width=self.scale.cifar_width,
            )
        return mnist_cnn(
            rng, in_channels=spec.num_channels, image_size=spec.image_size,
            num_classes=spec.num_classes,
        )

    def _dataset_call(self, seed: int) -> tuple[tuple, dict]:
        """The ``make_dataset`` call ``build_setup(seed=seed)`` makes."""
        scale = self.scale
        data_seed = int(np.random.default_rng(seed).integers(0, 2**31))
        return (
            (self.dataset, scale.samples_for(self.dataset), data_seed),
            {"image_size": scale.image_size},
        )

    def setup(self, seed: int, workdir: str) -> dict:
        args, kwargs = self._dataset_call(seed)
        data, spec = make_dataset(*args, **kwargs)
        batch = slice(0, self.scale.batch_size)
        _warm_up(self._model(seed, spec), data.images[batch], data.labels[batch])
        return {"seed": seed, "dataset": (data, spec)}

    def _prebuilt_dataset(self, world: dict):
        """``make_dataset`` for the pass: the set-up's dataset for the call
        ``build_setup`` makes, so data synthesis is timed in ``setup_s``;
        any other call is passed through."""
        expected = self._dataset_call(world["seed"])

        def make(*args, **kwargs):
            if (args, kwargs) == expected and "dataset" in world:
                return world.pop("dataset")
            return make_dataset(*args, **kwargs)

        return make

    def defense_config(self) -> DefenseConfig:
        rounds = self.scale.fine_tune_rounds
        # patience == budget: fine-tuning always runs every round, so the
        # stage does the same work on every seed
        return DefenseConfig(
            method="mvp", fine_tune=True,
            fine_tune_rounds=rounds, fine_tune_patience=rounds,
        )

    def run(self, world: dict, tracer=None) -> dict:
        seed = world["seed"]
        context = RunContext(executor=SerialExecutor())
        round_seconds: list[float] = []
        with ExitStack() as stack:
            patches = Patches()
            stack.callback(patches.restore)
            _time_rounds(patches, FederatedServer, round_seconds)
            patches.set(
                repro.experiments.common, "make_dataset", self._prebuilt_dataset(world)
            )
            if tracer is not None:
                stack.callback(tracer.restore)
                install_module_spans(tracer)
                stack.enter_context(LayerRows(tracer))
                tracer.enter(ROOT_SPAN)
            start, cpu_start = time.perf_counter(), time.process_time()
            setup = build_setup(
                self.dataset, self.scale, dba=self.dba, seed=seed, context=context
            )
            nc_model = clone_model(setup.model)
            oracle = _traced(tracer, "defense.oracle", setup.accuracy_fn())
            pipeline = DefensePipeline(
                setup.clients, oracle, self.defense_config(), context=context
            )
            defense_start = time.perf_counter()
            report = pipeline.run(setup.model)
            defense_s = time.perf_counter() - defense_start
            with _span(tracer, "baselines.nc"):
                NeuralCleanse(
                    steps=self.NC_STEPS, lr=0.1, l1_coef=0.01,
                    rng=np.random.default_rng(seed),
                ).run(nc_model, setup.test, setup.test.num_classes)
            test_acc, attack_acc = setup.metrics(setup.model)
            wall_s = time.perf_counter() - start
            cpu_s = time.process_time() - cpu_start
            if tracer is not None:
                tracer.exit()

        clients = setup.clients
        per_round = sum(c.num_samples * c.config.local_epochs for c in clients)
        tuned = sum(
            c.num_samples * c.config.local_epochs for c in pipeline.active_clients()
        )
        fine_tune_rounds = report.fine_tuning.rounds_run
        return {
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "defense_s": defense_s,
            "samples": len(setup.history) * per_round + fine_tune_rounds * tuned,
            "rounds": len(setup.history) + fine_tune_rounds,
            "round_seconds": round_seconds,
            "test_acc": test_acc,
            "attack_acc": attack_acc,
            "setup": setup,
            "report": report,
            "nc_model": nc_model,
            "facts": {},
        }

    def check(self, world: dict, result: dict) -> list[tuple[str, bool, str]]:
        setup, report = result["setup"], result["report"]
        config = self.defense_config()
        rounds = self.scale.rounds_for(self.dataset)
        pruning = report.pruning
        floor = pruning.baseline_accuracy - config.accuracy_drop_threshold
        kept = pruning.accuracy_trace[-1] if pruning.accuracy_trace else (
            pruning.baseline_accuracy
        )
        complete = (
            report.fine_tuning is not None
            and report.fine_tuning.rounds_run == config.fine_tune_rounds
            and report.adjusting is not None
            and set(report.stage_seconds) == {"pruning", "fine_tuning", "adjusting"}
        )
        return [
            ("training_rounds", len(setup.history) == rounds,
             f"{len(setup.history)} of {rounds} rounds"),
            ("report_complete", complete, repr(report)),
            ("fp_within_threshold", kept >= floor - 1e-12,
             f"kept TA {kept:.4f} vs floor {floor:.4f}"),
            ("params_finite", _finite(setup.model) and _finite(result["nc_model"]),
             "defended and Neural Cleanse models"),
            ("metrics_in_range",
             0.0 <= result["test_acc"] <= 1.0 and 0.0 <= result["attack_acc"] <= 1.0,
             f"TA {result['test_acc']:.4f} ASR {result['attack_acc']:.4f}"),
        ]


# -- the always-on defense service ---------------------------------------


class _UpdateCounter(Sink):
    """Counts local-training samples from ``exec.local_update`` spans."""

    def __init__(self, samples_by_client: dict[int, int]) -> None:
        self.samples_by_client = samples_by_client
        self.samples = 0

    def emit(self, event: dict) -> None:
        if event.get("name") == "exec.local_update":
            attrs = event["attrs"]
            if attrs.get("status") == "ok":
                self.samples += self.samples_by_client[attrs["client"]]


class Service:
    """``DefenseService`` on the megabatch engine: 256 synthetic-MNIST
    clients (K-label split) with a 10% share of model-replacement
    attackers joining at mid-stream, a 32-client cohort per round over a
    lossy network with stragglers and bursty traffic, default SLO rules
    and a snapshot after every committed round.  After the stream the
    operator runs the paper's FP -> FT -> AW cleanse on the next
    ``CLEANSE_COHORT`` eligible clients.

    The seed makes the data, the split, the model and the clients' own
    randomness.  The scenario (traffic, stragglers, network, cohort
    draws) is the same script for every seed, so every seed asks the
    service for the same amount of work.
    """

    POPULATION = 256
    COHORT = 32
    SAMPLES_PER_CLIENT = 16
    TEST_SAMPLES = 600
    LABELS_PER_CLIENT = 5
    ATTACKER_EVERY = 10  # clients 0, 10, 20, ... attack
    GAMMA = 5.0
    ROUNDS = 50
    #: two passes pool 100 round times: ten rounds beyond round_ms_p90
    MIN_PASSES = 2
    #: seeds the traffic, fault, network and sampler scripts
    SCENARIO_SEED = 20221
    #: rounds a serial-engine replay re-runs for the parity check
    REPLAY_ROUNDS = 4
    #: clients and fine-tuning rounds of the post-stream cleanse; the
    #: fine-tuning rounds are most of defense_s, so a longer stage makes
    #: it less sensitive to how many filters a seed prunes
    CLEANSE_COHORT = 24
    CLEANSE_FT_ROUNDS = 24

    def setup(self, seed: int, workdir: str, executor=None) -> dict:
        master = np.random.default_rng(seed)
        total = 2 * self.POPULATION * self.SAMPLES_PER_CLIENT + self.TEST_SAMPLES
        full, spec = make_dataset(
            "mnist", total, int(master.integers(0, 2**31)), image_size=16
        )
        train, test = train_test_split(full, self.TEST_SAMPLES / total, master)
        parts = k_label_partition(train, self.POPULATION, self.LABELS_PER_CLIENT, master)
        config = LocalTrainingConfig(
            lr=0.1, momentum=0.5, batch_size=8, local_epochs=1, weight_decay=5e-4
        )
        task = BackdoorTask(pixel_pattern(5, spec.image_size), 9, 1)
        clients = []
        for i, idx in enumerate(parts):
            # equal-sized local sets, so benign clients share one megabatch
            # signature; the K-label skew is kept
            local = train.subset(idx[: self.SAMPLES_PER_CLIENT])
            rng = np.random.default_rng(int(master.integers(0, 2**31)))
            if i % self.ATTACKER_EVERY == 0:
                clients.append(MaliciousClient(
                    i, local, config, rng, task, gamma=self.GAMMA,
                    attack_start_round=self.ROUNDS // 2,
                ))
            else:
                clients.append(Client(i, local, config, rng))
        faults = FaultModel(
            straggler_prob=0.1, straggler_delay=(1.0, 20.0),
            deadline_seconds=10.0, seed=self.SCENARIO_SEED,
        )
        model = small_nn(np.random.default_rng(seed + 1), 1, spec.image_size, 10)
        _warm_up(
            small_nn(np.random.default_rng(seed + 1), 1, spec.image_size, 10),
            train.images[:8], train.labels[:8],
        )
        telemetry = Telemetry()
        counter = telemetry.add_sink(_UpdateCounter(
            {c.client_id: c.num_samples * c.config.local_epochs for c in clients}
        ))
        metrics = ServiceMetrics(round_interval=10.0)
        checkpoint = CheckpointManager(tempfile.mkdtemp(prefix="ckpt-", dir=workdir))
        executor = executor if executor is not None else MegabatchExecutor()
        service = DefenseService(
            model,
            wrap_clients(clients, faults),
            test,
            ServiceConfig(round_deadline=10.0, quorum=0.75),
            backdoor_task=task,
            traffic=make_schedule("bursty", seed=self.SCENARIO_SEED + 1),
            network=make_network("lossy", seed=self.SCENARIO_SEED + 2),
            sampler=ParticipationSampler(
                self.POPULATION, self.COHORT, seed=self.SCENARIO_SEED + 3
            ),
            context=RunContext(
                telemetry=telemetry, executor=executor, fault_model=faults,
                checkpoint=checkpoint, checkpoint_every=1,
            ),
            metrics=metrics,
        )
        return {
            "seed": seed,
            "workdir": workdir,
            "service": service,
            "test": test,
            "task": task,
            "counter": counter,
            "checkpoint": checkpoint,
        }

    def _cleanse_cohort(self, service) -> list:
        """``CLEANSE_COHORT`` clients from the cohorts drawn after the
        stream, minus both quarantine ledgers, so that every seed cleanses
        with as many clients."""
        excluded = service.strike_quarantined | set(service.trust_quarantined)
        chosen: dict[int, object] = {}
        for round_index in range(self.ROUNDS, self.ROUNDS + self.POPULATION):
            for i in service.sampler.draw(round_index):
                client = service.clients[int(i)]
                if client.client_id not in excluded:
                    chosen.setdefault(client.client_id, client)
            if len(chosen) >= self.CLEANSE_COHORT:
                break
        return list(chosen.values())[: self.CLEANSE_COHORT]

    def run(self, world: dict, tracer=None) -> dict:
        service = world["service"]
        test, task = world["test"], world["task"]
        round_seconds: list[float] = []
        replayed: dict = {}

        def after_round(round_index: int) -> None:
            if round_index == self.REPLAY_ROUNDS - 1:
                replayed["params"] = service.model.flat_parameters().copy()

        facts: dict = {}
        with ExitStack() as stack:
            patches = Patches()
            stack.callback(patches.restore)
            _time_rounds(patches, service, round_seconds, after_round)
            if tracer is not None:
                stack.callback(tracer.restore)
                install_module_spans(tracer)
                self._install_service_spans(tracer, service, facts)
                stack.enter_context(LayerRows(tracer))
                tracer.enter(ROOT_SPAN)
            start, cpu_start = time.perf_counter(), time.process_time()
            history = service.run(self.ROUNDS)
            live_params = service.model.flat_parameters().copy()
            oracle = _traced(tracer, "defense.oracle", server_validation_accuracy(test))
            pipeline = DefensePipeline(
                self._cleanse_cohort(service),
                oracle,
                DefenseConfig(
                    method="mvp", fine_tune=True,
                    fine_tune_rounds=self.CLEANSE_FT_ROUNDS,
                    fine_tune_patience=self.CLEANSE_FT_ROUNDS,
                ),
                context=RunContext(
                    telemetry=service.telemetry, executor=service.executor
                ),
            )
            defense_start = time.perf_counter()
            report = pipeline.run(service.model)
            defense_s = time.perf_counter() - defense_start
            test_acc = test_accuracy(service.model, test)
            attack_acc = attack_success_rate(service.model, task, test)
            wall_s = time.perf_counter() - start
            cpu_s = time.process_time() - cpu_start
            if tracer is not None:
                tracer.exit()

        network = service.network.summary()
        facts.update(
            delivery_rate=network["delivery_rate"],
            dedup_hits=history.network_counts()["dedup"],
            quarantines=len(history.trust_quarantine_events),
            cleanses=len(history.cleansed_rounds),
            commit_latency_sim_p99_s=history.latency_percentiles()["p99"],
        )
        return {
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "defense_s": defense_s,
            "samples": world["counter"].samples,
            "rounds": len(history) + report.fine_tuning.rounds_run,
            "round_seconds": round_seconds,
            "test_acc": test_acc,
            "attack_acc": attack_acc,
            "history": history.to_jsonable(),
            "live_params": live_params,
            "replay_params": replayed.get("params"),
            "report": report,
            "facts": facts,
        }

    def _install_service_spans(self, tracer, service, facts: dict) -> None:
        """Instance-level spans: these objects were built at set-up."""

        def snapshot_size(_args, snapshot):
            facts["snapshot_bytes"] = os.path.getsize(snapshot.path)

        tracer.wrap(service, "run_round", "fl.service.round")
        tracer.wrap(service, "save_checkpoint", "persist.save", snapshot_size)
        tracer.wrap(service.network, "transmit", "fl.transport.transmit")
        tracer.wrap(service.gate, "check", "fl.transport.gate_check")
        tracer.wrap(service.trust, "score_round", "fl.trust.score_round")
        tracer.wrap(service.metrics.aggregator, "emit", "obs.metrics.fold")

    def check(self, world: dict, result: dict) -> list[tuple[str, bool, str]]:
        service = world["service"]
        rows = [
            ("stream_complete", len(result["history"]) == self.ROUNDS,
             f"{len(result['history'])} of {self.ROUNDS} rounds"),
            ("params_finite", _finite(service.model), "served model after cleanse"),
            ("metrics_in_range",
             0.0 <= result["test_acc"] <= 1.0 and 0.0 <= result["attack_acc"] <= 1.0,
             f"TA {result['test_acc']:.4f} ASR {result['attack_acc']:.4f}"),
        ]

        # the serial engine must reproduce the megabatch stream bitwise
        replay = self.setup(world["seed"], world["workdir"], executor=SerialExecutor())
        replay_history = replay["service"].run(self.REPLAY_ROUNDS).to_jsonable()
        same = (
            result["replay_params"] is not None
            and np.array_equal(
                replay["service"].model.flat_parameters(), result["replay_params"]
            )
            and replay_history == result["history"][: self.REPLAY_ROUNDS]
        )
        rows.append((
            "serial_replay_bitwise", bool(same),
            f"first {self.REPLAY_ROUNDS} rounds, parameters and history",
        ))

        # the last snapshot restores the live (pre-cleanse) state bitwise
        fresh = self.setup(world["seed"], world["workdir"])
        start = time.perf_counter()
        snapshot = world["checkpoint"].load_latest("service")
        restored = snapshot is not None
        if restored:
            fresh["service"].restore_checkpoint(snapshot)
        result["facts"]["load_s"] = time.perf_counter() - start
        same = (
            restored
            and np.array_equal(
                fresh["service"].model.flat_parameters(), result["live_params"]
            )
            and fresh["service"].history.to_jsonable()
            == result["history"][: snapshot.step]
        )
        rows.append((
            "snapshot_restore_bitwise", bool(same),
            f"snapshot step {snapshot.step if restored else None}",
        ))
        return rows


WORKLOADS = {
    # a pass of fig9_cifar_dba is half one of fig9_mnist: two passes give
    # both a run of the same length and average two input seeds
    "fig9_mnist": Fig9("mnist", dba=False, min_passes=1),
    "fig9_cifar_dba": Fig9("cifar", dba=True, min_passes=2),
    "service_stream": Service(),
}
