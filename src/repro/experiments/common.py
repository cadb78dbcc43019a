"""Shared experiment plumbing: build, attack, train, defend, evaluate.

Every table/figure module composes the same steps:

1. :func:`build_setup` — synthesize the dataset, partition it non-IID,
   place attacker(s) on partitions holding the victim label, train the
   backdoored global model with the model replacement attack.
2. :func:`evaluate_modes` — from the trained model, produce the paper's
   mode columns (Training / FP / FP+AW / All) by cloning the model and
   running the corresponding defense stages.

The builder takes an :class:`~repro.experiments.scale.ExperimentScale`
so tests (SMOKE), benches (BENCH) and full runs (PAPER) share one code
path.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time

import numpy as np

from ..attacks.poison import BackdoorTask, backdoor_eval_set
from ..attacks.registry import AttackSpec, build_attack
from ..attacks.triggers import Trigger, dba_global_trigger, dba_local_triggers, pixel_pattern
from ..data.dataset import Dataset, train_test_split
from ..data.partition import k_label_partition
from ..data.synthetic import make_dataset
from ..defense.adjust_weights import adjust_extreme_weights
from ..defense.fine_tune import federated_fine_tune
from ..defense.pipeline import DefenseConfig, DefensePipeline
from ..defense.pruning import prune_by_sequence, server_validation_accuracy
# test_accuracy/attack_success_rate are unused here but stay importable
# from this module: perfbench's traced run wraps them where they are
# looked up (perfbench/workloads.py, install_module_spans)
from ..eval.metrics import (  # noqa: F401
    AccuracyEvaluator,
    attack_success_rate,
    test_accuracy,
)
from ..fl.aggregation import Aggregator, build_aggregator
from ..fl.client import Client, LocalTrainingConfig, MaliciousClient
from ..fl.faults import wrap_clients
from ..fl.server import FederatedServer, TrainingHistory
from ..nn.layers import Sequential
from ..nn.zoo import build_model, fashion_cnn, mnist_cnn, vgg_small
from ..obs.context import RunContext, current_context
from .scale import ExperimentScale

__all__ = [
    "FederatedSetup",
    "build_setup",
    "clone_model",
    "evaluate_modes",
    "MODE_ORDER",
]

MODE_ORDER = ("training", "fp", "fp_aw", "all")

_DEFAULT_ARCHITECTURES = {
    "mnist": "mnist_cnn",
    "fashion": "fashion_cnn",
    "cifar": "vgg_small",
}


class FederatedSetup:
    """A trained (backdoored) federated run plus everything around it."""

    def __init__(
        self,
        model: Sequential,
        clients: list[Client],
        train: Dataset,
        test: Dataset,
        eval_task: BackdoorTask,
        history: TrainingHistory,
        scale: ExperimentScale,
        dataset_name: str,
        training_seconds: float,
    ) -> None:
        self.model = model
        self.clients = clients
        self.train = train
        self.test = test
        self.eval_task = eval_task
        self.history = history
        self.scale = scale
        self.dataset_name = dataset_name
        self.training_seconds = training_seconds
        self._evaluators: tuple[AccuracyEvaluator, AccuracyEvaluator] | None = None

    def accuracy_fn(self):
        """The server's validation-accuracy oracle over the test split."""
        return server_validation_accuracy(self.test)

    def metrics(self, model: Sequential | None = None) -> tuple[float, float]:
        """(test accuracy, attack success rate) of a model.

        Served by two :class:`~repro.eval.metrics.AccuracyEvaluator`
        (the test split and its triggered victim-class subset), built on
        first use: re-evaluating an unchanged model costs nothing, and a
        model edited only in its last layers resumes there.
        """
        model = model if model is not None else self.model
        if self._evaluators is None:
            self._evaluators = (
                AccuracyEvaluator(self.test),
                AccuracyEvaluator(backdoor_eval_set(self.test, self.eval_task)),
            )
        test_acc, attack_acc = self._evaluators
        return test_acc(model), attack_acc(model)


def _build_architecture(
    dataset_name: str,
    spec,
    scale: ExperimentScale,
    rng: np.random.Generator,
    model_name: str | None,
) -> Sequential:
    if model_name is not None:
        return build_model(
            model_name, rng, spec.num_channels, spec.image_size, spec.num_classes
        )
    default = _DEFAULT_ARCHITECTURES[dataset_name]
    if default == "vgg_small":
        return vgg_small(
            rng,
            in_channels=spec.num_channels,
            image_size=spec.image_size,
            num_classes=spec.num_classes,
            width=scale.cifar_width,
        )
    if default == "fashion_cnn":
        return fashion_cnn(
            rng,
            in_channels=spec.num_channels,
            image_size=spec.image_size,
            num_classes=spec.num_classes,
        )
    return mnist_cnn(
        rng,
        in_channels=spec.num_channels,
        image_size=spec.image_size,
        num_classes=spec.num_classes,
    )


def _place_attackers(
    parts: list[np.ndarray],
    labels: np.ndarray,
    victim_label: int,
    num_attackers: int,
    min_victim_samples: int = 5,
) -> None:
    """Reorder partitions so the first ``num_attackers`` hold victim data.

    With the BadNets all-to-one poisoning recipe an attacker can poison
    any sample it holds, but the attack converges noticeably faster when
    the attacker also owns victim-class data (the paper's attacker does,
    by construction).  Placement is therefore best-effort: victim-rich
    partitions are preferred, sorted by how much victim data they carry;
    any attacker slots left over keep their original partitions.
    """
    victim_counts = [int((labels[idx] == victim_label).sum()) for idx in parts]
    rich = sorted(
        (j for j, count in enumerate(victim_counts) if count >= min_victim_samples),
        key=lambda j: -victim_counts[j],
    )
    chosen = rich[:num_attackers]
    if not chosen:
        return
    rest = [j for j in range(len(parts)) if j not in set(chosen)]
    reordered = [parts[j] for j in chosen] + [parts[j] for j in rest]
    parts[:] = reordered


def _setup_slug(dataset_name: str, seed: int, scale: ExperimentScale, kwargs: dict) -> str:
    """A deterministic checkpoint-scope name for one built federation.

    Two ``build_setup`` calls get the same scope iff they build the same
    world, so an experiment that constructs several federations under one
    ``--checkpoint-dir`` can never resume one setup's snapshot into
    another's.  The readable prefix aids inspection; the digest carries
    the full configuration.
    """
    config = dict(kwargs)
    config["dataset_name"] = dataset_name
    config["seed"] = seed
    config["scale"] = {k: v for k, v in sorted(vars(scale).items())}
    blob = json.dumps(config, sort_keys=True, default=str)
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:10]
    return f"{dataset_name}-seed{seed}-{digest}"


def build_setup(
    dataset_name: str,
    scale: ExperimentScale,
    victim_label: int = 9,
    attack_label: int = 1,
    pattern_pixels: int = 5,
    num_attackers: int = 1,
    dba: bool = False,
    seed: int = 42,
    gamma: float | None = None,
    rank_attack: bool = False,
    self_limit_delta: float | None = None,
    clients_per_round: int | None = None,
    num_clients: int | None = None,
    last_conv_l2: float = 0.0,
    model_name: str | None = None,
    rounds: int | None = None,
    attack_start_fraction: float = 0.5,
    attack: str | AttackSpec | None = None,
    aggregator: str | Aggregator | None = None,
    context: RunContext | None = None,
) -> FederatedSetup:
    """Build, attack and train one federated run.

    Parameters beyond the obvious:

    dba:
        Use the Distributed Backdoor Attack — ``num_attackers`` is
        forced to 4, each attacker trains with one *local* bar pattern,
        and evaluation uses the assembled *global* pattern.
    attack:
        A named attack recipe (:mod:`repro.attacks.registry`) — a name,
        a ``"name:param=value"`` spec string, or an
        :class:`~repro.attacks.registry.AttackSpec`.  It chooses the
        attacker client class, may force DBA trigger decomposition, and
        decides whether ``gamma`` amplification applies.  ``None``
        keeps the legacy path (plain :class:`MaliciousClient` honouring
        ``rank_attack`` / ``self_limit_delta``) bit-for-bit.
    aggregator:
        Server-side aggregation rule — a registry name, spec string, or
        :class:`~repro.fl.aggregation.Aggregator` instance.  ``None``
        keeps the default FedAvg.
    gamma:
        Override the scale preset's amplification coefficient.
    rank_attack / self_limit_delta:
        Enable the adaptive defense-phase attacks of §VI-B.
    clients_per_round:
        Uniform random client sampling (Fig 7); default everyone.
    num_clients:
        Override the preset population size (Fig 7 uses 50).
    last_conv_l2:
        L2 coefficient on the last conv layer during training (Fig 10).
    model_name:
        Architecture override (Table VI uses small_nn / large_nn).
    rounds:
        Override the preset's training round budget.
    attack_start_fraction:
        Fraction of the training rounds that run benignly before the
        attackers begin poisoning (model replacement is most effective
        near convergence; see MaliciousClient.attack_start_round).
    context:
        A :class:`~repro.obs.context.RunContext` carrying the telemetry
        hub, execution engine, and (optionally) a fault model to wrap
        the client population with.  Defaults to the ambient context
        (see :func:`~repro.obs.context.use_context`).  Results are
        bitwise identical across executors.  A context with a
        ``checkpoint`` manager makes training crash-safe: snapshots are
        written every ``checkpoint_every`` rounds into a per-setup
        subdirectory (so several setups can share one directory), and
        ``resume=True`` continues from the newest verifiable snapshot; a
        context ``watchdog`` guards the round loop (see
        :class:`~repro.fl.server.FederatedServer`).
    """
    ctx = context if context is not None else current_context()
    engine = ctx.executor
    tel = ctx.telemetry
    attack_spec = build_attack(attack) if attack is not None else None
    if attack_spec is not None:
        dba = dba or attack_spec.dba
    agg = build_aggregator(aggregator) if aggregator is not None else None
    checkpoint = ctx.checkpoint
    if checkpoint is not None:
        slug_config = dict(
            victim_label=victim_label,
            attack_label=attack_label,
            pattern_pixels=pattern_pixels,
            num_attackers=num_attackers,
            dba=dba,
            gamma=gamma,
            rank_attack=rank_attack,
            self_limit_delta=self_limit_delta,
            clients_per_round=clients_per_round,
            num_clients=num_clients,
            last_conv_l2=last_conv_l2,
            model_name=model_name,
            rounds=rounds,
            attack_start_fraction=attack_start_fraction,
        )
        # keys appear only when set so legacy slugs stay byte-identical
        if attack_spec is not None:
            slug_config["attack"] = attack_spec.spec()
        if agg is not None:
            slug_config["aggregator"] = agg.spec()
        checkpoint = checkpoint.scope(
            _setup_slug(dataset_name, seed, scale, slug_config)
        )

    master = np.random.default_rng(seed)
    data_seed = int(master.integers(0, 2**31))
    full, spec = make_dataset(
        dataset_name,
        scale.samples_for(dataset_name),
        data_seed,
        image_size=scale.image_size,
    )
    train, test = train_test_split(full, scale.test_fraction, master)

    population = num_clients if num_clients is not None else scale.num_clients
    parts = k_label_partition(train, population, scale.labels_per_client, master)

    if dba:
        num_attackers = 4
        local_triggers = dba_local_triggers(spec.image_size)
        eval_trigger: Trigger = dba_global_trigger(spec.image_size)
    else:
        trigger = pixel_pattern(pattern_pixels, spec.image_size)
        local_triggers = [trigger] * num_attackers
        eval_trigger = trigger

    _place_attackers(parts, train.labels, victim_label, num_attackers)

    eval_task = BackdoorTask(eval_trigger, victim_label, attack_label)
    gamma = gamma if gamma is not None else scale.gamma
    if attack_spec is not None:
        tel.event(
            "attack.configured",
            attack=attack_spec.name,
            spec=attack_spec.spec(),
            num_attackers=num_attackers,
            dba=dba,
            amplify=attack_spec.amplify,
        )

    benign_config = LocalTrainingConfig(
        lr=scale.lr,
        momentum=scale.momentum,
        batch_size=scale.batch_size,
        local_epochs=scale.local_epochs,
        last_conv_l2=last_conv_l2,
        weight_decay=scale.weight_decay,
    )
    attacker_config = LocalTrainingConfig(
        lr=scale.lr,
        momentum=scale.momentum,
        batch_size=scale.batch_size,
        local_epochs=scale.attacker_epochs,
        last_conv_l2=last_conv_l2,
        weight_decay=scale.weight_decay,
    )

    total_rounds = rounds if rounds is not None else scale.rounds_for(dataset_name)
    attack_start = int(total_rounds * attack_start_fraction)

    clients: list[Client] = []
    for i, idx in enumerate(parts):
        local = train.subset(idx)
        client_rng = np.random.default_rng(int(master.integers(0, 2**31)))
        if i < num_attackers:
            task = BackdoorTask(
                local_triggers[i % len(local_triggers)], victim_label, attack_label
            )
            if attack_spec is not None:
                clients.append(
                    attack_spec.build_client(
                        i,
                        local,
                        attacker_config,
                        client_rng,
                        task,
                        gamma=gamma,
                        attack_start_round=attack_start,
                    )
                )
            else:
                clients.append(
                    MaliciousClient(
                        i,
                        local,
                        attacker_config,
                        client_rng,
                        task,
                        gamma=gamma,
                        rank_attack=rank_attack,
                        self_limit_delta=self_limit_delta,
                        attack_start_round=attack_start,
                    )
                )
        else:
            clients.append(Client(i, local, benign_config, client_rng))

    if ctx.fault_model is not None:
        clients = wrap_clients(clients, ctx.fault_model)

    model = _build_architecture(
        dataset_name, spec, scale, np.random.default_rng(seed + 1), model_name
    )
    server = FederatedServer(
        model,
        clients,
        test,
        backdoor_task=eval_task,
        clients_per_round=clients_per_round,
        rng=np.random.default_rng(seed + 2),
        executor=engine,
        telemetry=tel,
        watchdog=ctx.watchdog,
        profile=ctx.profile,
        aggregator=agg,
    )
    with tel.span(
        "build_setup", dataset=dataset_name, seed=seed, num_clients=len(clients)
    ):
        start = time.perf_counter()
        history = server.train(
            total_rounds,
            checkpoint=checkpoint,
            checkpoint_every=ctx.checkpoint_every,
            resume=ctx.resume,
        )
        training_seconds = time.perf_counter() - start

    return FederatedSetup(
        model,
        clients,
        train,
        test,
        eval_task,
        history,
        scale,
        dataset_name,
        training_seconds,
    )


def clone_model(model: Sequential) -> Sequential:
    """Deep copy of a model (parameters, masks, layer structure)."""
    return copy.deepcopy(model)


def _default_defense_config(setup: FederatedSetup, fine_tune: bool) -> DefenseConfig:
    return DefenseConfig(
        method="mvp",
        fine_tune=fine_tune,
        fine_tune_rounds=setup.scale.fine_tune_rounds,
    )


def evaluate_modes(
    setup: FederatedSetup,
    modes: tuple[str, ...] = MODE_ORDER,
    config: DefenseConfig | None = None,
    context: RunContext | None = None,
) -> dict[str, tuple[float, float]]:
    """(TA, AA) per requested mode, sharing the expensive stages.

    Modes (the paper's column groups):

    * ``training`` — the backdoored model as trained.
    * ``fp``       — federated pruning only.
    * ``fp_aw``    — pruning followed by adjusting extreme weights.
    * ``all``      — pruning, fine-tuning, then adjusting weights.

    The pruning stage runs once; FP+AW and All branch from the pruned
    model via deep copies, matching how the paper's modes nest.

    ``context`` (default: the ambient context) supplies the telemetry
    hub and the execution engine for the client-side stages (report
    collection and fine-tuning); results are bitwise identical across
    executors.  Each mode evaluation is wrapped in an ``eval.mode``
    span.
    """
    unknown = set(modes) - set(MODE_ORDER)
    if unknown:
        raise ValueError(f"unknown modes: {sorted(unknown)}")
    ctx = context if context is not None else current_context()
    engine = ctx.executor
    tel = ctx.telemetry
    accuracy_fn = setup.accuracy_fn()
    results: dict[str, tuple[float, float]] = {}

    def record_mode(mode: str, model: Sequential) -> None:
        with tel.span("eval.mode", mode=mode) as mode_span:
            results[mode] = setup.metrics(model)
            mode_span.set(
                test_acc=results[mode][0], attack_acc=results[mode][1]
            )

    if "training" in modes:
        record_mode("training", setup.model)

    needs_pruning = {"fp", "fp_aw", "all"} & set(modes)
    if not needs_pruning:
        return results

    base_config = config or _default_defense_config(setup, fine_tune=True)
    pipeline = DefensePipeline(
        setup.clients,
        accuracy_fn,
        base_config,
        context=RunContext(telemetry=tel, executor=engine),
    )

    pruned = clone_model(setup.model)
    order = pipeline.global_prune_order(pruned)
    prune_by_sequence(
        pruned,
        pruned.last_conv(),
        order,
        accuracy_fn,
        accuracy_drop_threshold=base_config.accuracy_drop_threshold,
        max_prune_fraction=base_config.max_prune_fraction,
        telemetry=tel,
    )
    if "fp" in modes:
        record_mode("fp", pruned)

    if "fp_aw" in modes:
        fp_aw = clone_model(pruned)
        adjust_extreme_weights(
            fp_aw,
            server_validation_accuracy(setup.test),
            accuracy_floor_drop=base_config.aw_floor_drop,
            delta_start=base_config.aw_delta_start,
            delta_step=base_config.aw_delta_step,
            delta_min=base_config.aw_delta_min,
            telemetry=tel,
        )
        record_mode("fp_aw", fp_aw)

    if "all" in modes:
        full = clone_model(pruned)
        federated_fine_tune(
            full,
            setup.clients,
            server_validation_accuracy(setup.test),
            max_rounds=base_config.fine_tune_rounds,
            patience=base_config.fine_tune_patience,
            executor=engine,
            telemetry=tel,
        )
        adjust_extreme_weights(
            full,
            server_validation_accuracy(setup.test),
            accuracy_floor_drop=base_config.aw_floor_drop,
            delta_start=base_config.aw_delta_start,
            delta_step=base_config.aw_delta_step,
            delta_min=base_config.aw_delta_min,
            telemetry=tel,
        )
        record_mode("all", full)

    return results
