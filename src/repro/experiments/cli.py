"""Command-line runner for the paper's experiments.

Usage::

    python -m repro.experiments.cli table1 --scale bench
    python -m repro.experiments.cli all --scale smoke --seed 7
    python -m repro.experiments.cli table1 --checkpoint-dir ckpt --resume
    python -m repro.experiments.cli table1 --trace-out t.jsonl --profile

Beyond the paper's tables/figures, ``serve`` boots the always-on
defense service (:mod:`repro.fl.service`) on the synthetic benchmark
federation under a chosen traffic schedule and streams
deadline-scheduled rounds::

    python -m repro.experiments.cli serve --schedule bursty \\
        --service-rounds 8 --trace-out service.jsonl

Serve mode can also run its training waves on any execution engine and
simulate a large registered population behind a lazily materialized
client pool with seeded cohort sampling::

    python -m repro.experiments.cli serve --engine megabatch \\
        --population 100000 --cohort 64
"""

from __future__ import annotations

import argparse
import copy
import sys
import time

from ..obs.context import RunContext
from ..obs.sinks import JSONLSink
from ..obs.telemetry import Telemetry
from ..persist import CheckpointManager
from .registry import EXPERIMENTS, run_experiment
from .scale import BENCH_PRESETS, build_bench_world, get_scale


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Reproduce tables and figures from Wu et al., ICDCS 2022",
    )
    parser.add_argument(
        "experiment",
        help=f"experiment id, 'all', or 'serve' (stream the always-on "
        f"defense service); ids: {', '.join(sorted(EXPERIMENTS))}",
    )
    parser.add_argument(
        "--scale",
        default="bench",
        choices=["smoke", "bench", "paper"],
        help="experiment scale preset (default: bench)",
    )
    parser.add_argument("--seed", type=int, default=42, help="master seed")
    parser.add_argument(
        "--json-dir",
        default=None,
        help="also write each result as <id>.json into this directory",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="write crash-safe training/defense snapshots under this "
        "directory (one subdirectory per experiment id)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume each experiment from its newest verifiable snapshot "
        "in --checkpoint-dir (no-op when none exists)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="snapshot cadence in training rounds (default: 1)",
    )
    parser.add_argument(
        "--max-rounds",
        type=int,
        default=None,
        metavar="N",
        help="cap federated training at N rounds (applies to both the "
        "grayscale and CIFAR budgets of the chosen scale)",
    )
    parser.add_argument(
        "--attack",
        default=None,
        metavar="SPECS",
        help="comma-separated attack specs forming the 'matrix' rows "
        "(e.g. badnets,lie,stealth:fraction=0.1); only valid with "
        "the matrix experiment",
    )
    parser.add_argument(
        "--aggregator",
        default=None,
        metavar="SPECS",
        help="aggregation rule(s): comma-separated defense columns for "
        "'matrix' ('cleanse' runs the paper's FP+FT+AW pipeline), or "
        "a single spec for 'serve' (e.g. foolsgold, "
        "trimmed_mean:trim_ratio=0.2)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the full telemetry trace as JSONL to PATH (analyze "
        "with scripts/trace.py); with 'all', one file per experiment "
        "id is written as PATH with a -<id> suffix",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="per-layer forward/backward profiling: aggregated profile.* "
        "spans land in the trace (results are bitwise unchanged)",
    )
    serve = parser.add_argument_group("serve mode (experiment = 'serve')")
    serve.add_argument(
        "--schedule",
        default="bursty",
        choices=["steady", "bursty", "flash", "adversarial", "chaos"],
        help="traffic schedule the service streams under (default: bursty)",
    )
    serve.add_argument(
        "--network",
        default=None,
        metavar="SPEC",
        help="simulated transport spec for the service's message layer "
        "(e.g. lossless, lossy, dupstorm, "
        "partition:start=12,heal=35, chaos); omitted = direct delivery",
    )
    serve.add_argument(
        "--service-rounds",
        type=int,
        default=8,
        metavar="N",
        help="simulated rounds the service streams (default: 8)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-round report deadline on the simulated clock "
        "(default: 10.0)",
    )
    serve.add_argument(
        "--quorum",
        type=float,
        default=0.5,
        metavar="FRACTION",
        help="fraction of solicited clients required to commit a round "
        "(default: 0.5)",
    )
    serve.add_argument(
        "--engine",
        default="serial",
        choices=["serial", "process", "megabatch"],
        help="client-execution engine for local-training waves; "
        "'megabatch' vectorizes homogeneous clients into single "
        "batched tensor ops (default: serial)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="pool size for the process engine (default: 4)",
    )
    serve.add_argument(
        "--population",
        type=int,
        default=None,
        metavar="N",
        help="simulate an N-client population behind a lazily "
        "materialized ClientPool; requires --cohort (round cost then "
        "scales with the cohort, not N)",
    )
    serve.add_argument(
        "--cohort",
        type=int,
        default=None,
        metavar="K",
        help="clients solicited per round, drawn deterministically by a "
        "sharded ParticipationSampler from --population",
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="fold the run's telemetry into windowed SLI time-series "
        "and write them as JSONL to PATH (render with "
        "scripts/dashboard.py); enables live metrics",
    )
    serve.add_argument(
        "--rules",
        default=None,
        metavar="PATH",
        help="SLO alert rules to evaluate online: 'default' for the "
        "built-in catalog, or a JSON rules file "
        "(see repro.obs.alerts.load_rules); enables live metrics",
    )
    serve.add_argument(
        "--metrics-window",
        type=int,
        default=1,
        metavar="N",
        help="service rounds per sealed metrics window (default: 1)",
    )
    return parser


def _build_client_pool(args, faults):
    """A lazy ``(pool, sampler)`` population for serve's --population mode.

    Each client is materialized on first touch from a per-index seed, so
    a million-client registry costs nothing until the sampler's cohort
    actually lands on an index.  The per-client workload mirrors the
    bench preset of the chosen scale.
    """
    import numpy as np

    from ..fl.client import Client, LocalTrainingConfig
    from ..fl.faults import wrap_client
    from ..data.dataset import Dataset
    from ..fl.sampling import ClientPool, ParticipationSampler

    preset = BENCH_PRESETS[args.scale]
    size = preset["image_size"]
    classes = preset["num_classes"]
    per_client = preset["samples_per_client"]
    config = LocalTrainingConfig(
        lr=0.05,
        momentum=0.9,
        batch_size=preset["batch_size"],
        local_epochs=preset["local_epochs"],
    )

    def make_client(index: int):
        data_rng = np.random.default_rng([args.seed, index])
        images = data_rng.random((per_client, 1, size, size))
        labels = np.tile(
            np.arange(classes), per_client // classes + 1
        )[:per_client]
        client = Client(
            index,
            Dataset(images, labels),
            config,
            np.random.default_rng([args.seed + 1, index]),
        )
        return wrap_client(client, faults)

    pool = ClientPool(args.population, make_client)
    sampler = ParticipationSampler(
        population=args.population,
        cohort=args.cohort,
        seed=args.seed + 4,
        num_shards=max(1, args.population // 250_000),
    )
    return pool, sampler


def _make_executor(engine: str, workers: int):
    """The client-execution engine ``serve --engine`` names."""
    from ..fl.executor import MegabatchExecutor, ProcessExecutor

    if engine == "process":
        return ProcessExecutor(num_workers=workers)
    return MegabatchExecutor()


def _run_serve(args, parser: argparse.ArgumentParser) -> int:
    """Boot the always-on defense service on the synthetic bench world."""
    from contextlib import ExitStack

    from ..fl.faults import FaultModel, wrap_clients
    from ..fl.service import DefenseService, ServiceConfig
    from ..fl.traffic import make_schedule
    from ..fl.transport import make_network

    if args.service_rounds < 1:
        parser.error("--service-rounds must be >= 1")
    if args.metrics_window < 1:
        parser.error("--metrics-window must be >= 1")
    if args.scale == "paper":
        parser.error("serve runs on the synthetic bench world; "
                     "use --scale smoke or bench")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if (args.population is None) != (args.cohort is None):
        parser.error("--population and --cohort must be given together")
    if args.population is not None:
        if args.population < 1:
            parser.error("--population must be >= 1")
        if not 1 <= args.cohort <= args.population:
            parser.error("--cohort must be in [1, --population]")
        if args.checkpoint_dir is not None:
            parser.error("--checkpoint-dir is not supported with "
                         "--population (a lazy ClientPool cannot be "
                         "checkpointed faithfully)")

    network = None
    if args.network is not None:
        try:
            network = make_network(args.network, seed=args.seed + 5)
        except ValueError as exc:
            parser.error(str(exc))

    model, clients, dataset = build_bench_world(args.scale, seed=args.seed)
    faults = FaultModel(
        straggler_prob=0.3,
        straggler_delay=(1.0, 2 * args.deadline),
        deadline_seconds=args.deadline,
        seed=args.seed + 2,
    )
    sampler = None
    if args.population is not None:
        clients, sampler = _build_client_pool(args, faults)
    else:
        clients = wrap_clients(clients, faults)
    metrics = None
    if args.metrics_out is not None or args.rules is not None:
        from ..obs.alerts import ServiceMetrics, load_rules

        rules = None  # ServiceMetrics falls back to the default catalog
        if args.rules is not None and args.rules != "default":
            try:
                rules = load_rules(args.rules)
            except (OSError, ValueError) as exc:
                parser.error(f"--rules: {exc}")
        metrics = ServiceMetrics(
            rules=rules,
            window_rounds=args.metrics_window,
            round_interval=args.deadline,
        )
    context_kwargs: dict = {"fault_model": faults}
    telemetry = None
    if args.trace_out is not None:
        telemetry = Telemetry([JSONLSink(args.trace_out)])
        context_kwargs["telemetry"] = telemetry
    elif metrics is not None:
        # metrics fold the telemetry stream, so a hub must exist even
        # when no trace file was requested
        telemetry = Telemetry()
        context_kwargs["telemetry"] = telemetry
    if args.checkpoint_dir is not None:
        manager = CheckpointManager(args.checkpoint_dir)
        context_kwargs.update(
            checkpoint=manager.scope("serve"),
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
        )
    start = time.perf_counter()
    try:
        with ExitStack() as stack:
            if args.engine != "serial":
                context_kwargs["executor"] = stack.enter_context(
                    _make_executor(args.engine, args.workers)
                )
            service = DefenseService(
                model,
                clients,
                dataset,
                ServiceConfig(
                    round_deadline=args.deadline,
                    quorum=args.quorum,
                    eval_every=0,
                ),
                traffic=make_schedule(
                    args.schedule, seed=args.seed + 3, deadline=args.deadline
                ),
                network=network,
                sampler=sampler,
                context=RunContext(**context_kwargs),
                aggregator=args.aggregator,
                metrics=metrics,
            )
            history = service.run(args.service_rounds)
    finally:
        if telemetry is not None:
            telemetry.close()
    elapsed = time.perf_counter() - start

    percentiles = history.latency_percentiles()
    counts = history.report_counts()
    committed = len(history.committed_rounds)
    print(f"service: {committed}/{len(history)} rounds committed under "
          f"{args.schedule!r} traffic (deadline={args.deadline:g}s "
          f"quorum={args.quorum:g})")
    if args.engine != "serial":
        print(f"  engine: {args.engine} (workers={args.workers})")
    if args.aggregator is not None:
        print(f"  aggregator: {args.aggregator}")
    if sampler is not None:
        print(f"  population: {sampler.population} clients behind a lazy "
              f"pool, cohort={sampler.cohort}/round across "
              f"{sampler.num_shards} shard(s); "
              f"{len(clients.cached())} clients ever materialized")
    print(f"  commit latency (simulated): p50={percentiles['p50']:.2f}s "
          f"p90={percentiles['p90']:.2f}s p99={percentiles['p99']:.2f}s")
    print(f"  reports: admitted={counts['admitted']} late={counts['late']} "
          f"deferred={counts['deferred']} shed={counts['shed']} "
          f"rejected={counts['rejected']} invalid={counts['invalid']} "
          f"no_response={counts['no_response']}")
    if network is not None:
        summary = network.summary()
        print(f"  network: {summary['name']} "
              f"delivery_rate={summary['delivery_rate']:.3f} "
              f"(sent={summary['sent']} lost={summary['lost']} "
              f"dup={summary['duplicates']} corrupt={summary['corrupted']} "
              f"held={summary['held']})")
        if summary["latency_p50"] is not None:
            print(f"  one-way latency (simulated): "
                  f"p50={summary['latency_p50']:.2f}s "
                  f"p99={summary['latency_p99']:.2f}s")
        net_counts = history.network_counts()
        if any(net_counts.values()):
            print(f"  transport ledger: lost={net_counts['lost']} "
                  f"dedup={net_counts['dedup']} "
                  f"fenced={net_counts['fenced']} "
                  f"held={net_counts['held']}")
    if history.quorum_failed_rounds:
        print(f"  quorum failed in rounds {history.quorum_failed_rounds}")
    if history.degraded_rounds:
        print(f"  degraded in rounds {history.degraded_rounds}")
    if history.cleansed_rounds:
        print(f"  incremental cleanses in rounds {history.cleansed_rounds}")
    if history.trust_quarantine_events:
        quarantined = sorted({c for _, c in history.trust_quarantine_events})
        print(f"  trust-quarantined clients: {quarantined}")
    if metrics is not None:
        print(f"  metrics: {len(metrics.series)} sealed window(s) of "
              f"{args.metrics_window} round(s)")
        for transition in metrics.timeline:
            print(f"  alert {transition['action']}: {transition['alert']} "
                  f"({transition['sli']}={transition['value']:g} vs "
                  f"{transition['threshold']:g}) at window "
                  f"{transition['window']}")
        firing = metrics.engine.firing()
        if firing:
            print(f"  still firing at shutdown: {firing}")
    print(f"\n[serve finished in {elapsed:.1f}s at scale {args.scale!r}]")
    if args.trace_out is not None:
        print(f"[trace written to {args.trace_out}]")
    if args.metrics_out is not None:
        from ..obs.metrics import write_series

        written = write_series(
            metrics.series, args.metrics_out, round_interval=args.deadline
        )
        print(f"[{written} metric window(s) written to {args.metrics_out}]")
    return 0


def _apply_max_rounds(scale, max_rounds: int):
    """A copy of ``scale`` with both round budgets capped at ``max_rounds``."""
    capped = copy.copy(scale)
    capped.rounds = min(scale.rounds, max_rounds)
    capped.cifar_rounds = min(scale.cifar_rounds, max_rounds)
    return capped


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.resume and args.checkpoint_dir is None:
        parser.error("--resume requires --checkpoint-dir")
    if args.checkpoint_every < 1:
        parser.error("--checkpoint-every must be >= 1")
    if args.max_rounds is not None and args.max_rounds < 1:
        parser.error("--max-rounds must be >= 1")
    if args.experiment == "serve":
        return _run_serve(args, parser)
    if args.attack is not None and args.experiment != "matrix":
        parser.error("--attack only applies to the 'matrix' experiment")
    if args.aggregator is not None and args.experiment != "matrix":
        parser.error("--aggregator only applies to 'matrix' and 'serve'")
    scale = get_scale(args.scale)
    if args.max_rounds is not None:
        scale = _apply_max_rounds(scale, args.max_rounds)
    # 'all' excludes the matrix grid: its full cross product dwarfs every
    # paper table combined; run it explicitly
    if args.experiment == "all":
        ids = sorted(i for i in EXPERIMENTS if i != "matrix")
    else:
        ids = [args.experiment]
    run_kwargs: dict = {}
    if args.attack is not None:
        run_kwargs["attacks"] = _split_specs(args.attack, "--attack", parser)
    if args.aggregator is not None:
        run_kwargs["defenses"] = _split_specs(
            args.aggregator, "--aggregator", parser
        )

    for experiment_id in ids:
        context_kwargs: dict = {}
        if args.checkpoint_dir is not None:
            manager = CheckpointManager(args.checkpoint_dir)
            context_kwargs.update(
                checkpoint=manager.scope(experiment_id),
                checkpoint_every=args.checkpoint_every,
                resume=args.resume,
            )
        telemetry = None
        trace_path = None
        if args.trace_out is not None:
            trace_path = _trace_path(args.trace_out, experiment_id, ids)
            telemetry = Telemetry([JSONLSink(trace_path)])
            context_kwargs["telemetry"] = telemetry
        if args.profile:
            context_kwargs["profile"] = True
        context = RunContext(**context_kwargs) if context_kwargs else None
        start = time.perf_counter()
        try:
            result = run_experiment(
                experiment_id, scale, args.seed, context=context, **run_kwargs
            )
        finally:
            if telemetry is not None:
                telemetry.close()
        elapsed = time.perf_counter() - start
        print(result)
        print(f"\n[{experiment_id} finished in {elapsed:.1f}s at scale "
              f"{scale.name!r}]\n")
        if trace_path is not None:
            print(f"[trace written to {trace_path}]\n")
        if args.json_dir is not None:
            import os

            os.makedirs(args.json_dir, exist_ok=True)
            path = os.path.join(args.json_dir, f"{experiment_id}.json")
            with open(path, "w") as handle:
                handle.write(result.to_json())
    return 0


def _split_specs(raw: str, flag: str, parser: argparse.ArgumentParser) -> list[str]:
    """Split a comma-separated spec list, keeping multi-parameter specs whole.

    A fragment like ``noise_std=0.01`` (has ``=``, no ``:``) cannot start
    a spec — it continues the parameter block of the one before it, so
    ``norm_clip:budget=1.5,noise_std=0.01,fedavg`` yields two specs.
    """
    specs: list[str] = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" in item and ":" not in item and specs:
            specs[-1] += "," + item
        else:
            specs.append(item)
    if not specs:
        parser.error(f"{flag} needs at least one spec")
    return specs


def _trace_path(base: str, experiment_id: str, ids: list[str]) -> str:
    """Per-experiment trace file: the given path, suffixed when 'all'."""
    if len(ids) == 1:
        return base
    root, dot, ext = base.rpartition(".")
    if not dot:
        return f"{base}-{experiment_id}"
    return f"{root}-{experiment_id}.{ext}"


if __name__ == "__main__":
    sys.exit(main())
