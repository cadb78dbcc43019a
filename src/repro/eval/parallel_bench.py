"""Benchmark harness for the parallel federated execution engine.

One seeded workload — an 8-client federation training round plus a
federated-pruning + adjust-weights defense pass — timed under each
execution engine (serial / thread / process / megabatch), plus a
cohort-scaling curve (8 → 4096 clients) for the vectorized megabatch
wave path.  Shared by
``scripts/bench.py`` (which writes ``BENCH_fl.json``) and
``benchmarks/test_parallel.py`` (which asserts the speedup and the
bitwise-identity contract), so both always measure the same thing.

The workload is fully seeded: every engine runs an identical federation
built from scratch, which is what makes the cross-engine bitwise
comparison meaningful.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from ..data.dataset import Dataset
from ..defense.pipeline import DefenseConfig, DefensePipeline
from ..fl.client import Client, LocalTrainingConfig
from ..fl.executor import (
    ClientExecutor,
    MegabatchExecutor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    collect_updates,
)
from ..fl.faults import FaultModel, wrap_clients
from ..fl.server import FederatedServer
from ..fl.service import DefenseService, ServiceConfig
from ..fl.traffic import make_schedule
from ..fl.transport import make_network
from ..nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from ..obs.analysis import TraceAnalysis
from ..obs.context import RunContext
from ..obs.sinks import JSONLSink, RingBufferSink
from ..obs.telemetry import Telemetry
from ..persist import CheckpointManager
from .timers import StageTimer

__all__ = [
    "BENCH_PRESETS",
    "build_bench_world",
    "build_cohort_world",
    "make_executor",
    "run_benchmark",
    "compare_to_baseline",
    "measure_cohort_scaling",
    "measure_telemetry_overhead",
    "measure_checkpoint_cost",
    "measure_metrics_overhead",
    "measure_network",
    "measure_service",
    "trace_run",
    "LOSSLESS_OVERHEAD_CEILING",
    "METRICS_OVERHEAD_CEILING",
]

# the 8-client population is the benchmark's defining constant: small
# enough that the serial baseline finishes quickly, large enough that a
# 4-worker pool has two full waves of work per round
BENCH_PRESETS = {
    "smoke": dict(
        num_clients=8,
        samples_per_client=30,
        image_size=8,
        num_classes=4,
        conv_width=4,
        local_epochs=1,
        batch_size=16,
        rounds=1,
    ),
    "bench": dict(
        num_clients=8,
        samples_per_client=200,
        image_size=16,
        num_classes=8,
        conv_width=8,
        local_epochs=2,
        batch_size=32,
        rounds=2,
    ),
}


def build_bench_world(scale: str, seed: int = 5):
    """A fresh, fully seeded (model, clients, dataset) benchmark world."""
    preset = BENCH_PRESETS[scale]
    size = preset["image_size"]
    classes = preset["num_classes"]
    total = preset["num_clients"] * preset["samples_per_client"]

    data_rng = np.random.default_rng(seed)
    images = data_rng.random((total, 1, size, size))
    labels = np.tile(np.arange(classes), total // classes + 1)[:total]
    dataset = Dataset(images, labels)

    config = LocalTrainingConfig(
        lr=0.05,
        momentum=0.9,
        batch_size=preset["batch_size"],
        local_epochs=preset["local_epochs"],
    )
    chunks = np.array_split(np.arange(total), preset["num_clients"])
    clients = [
        Client(i, dataset.subset(chunk), config, np.random.default_rng(100 + i))
        for i, chunk in enumerate(chunks)
    ]

    width = preset["conv_width"]
    model_rng = np.random.default_rng(seed + 1)
    model = Sequential(
        Conv2d(1, width, kernel_size=3, padding=1, rng=model_rng),
        ReLU(),
        MaxPool2d(2),
        Conv2d(width, 2 * width, kernel_size=3, padding=1, rng=model_rng),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Linear(2 * width * (size // 4) ** 2, classes, rng=model_rng),
    )
    return model, clients, dataset


def make_executor(engine: str, workers: int) -> ClientExecutor:
    if engine == "serial":
        return SerialExecutor()
    if engine == "thread":
        return ThreadExecutor(num_workers=workers)
    if engine == "process":
        return ProcessExecutor(num_workers=workers)
    if engine == "megabatch":
        return MegabatchExecutor(wave_size=MEGABATCH_WAVE_SIZE)
    raise ValueError(f"unknown engine {engine!r}")


#: clients per vectorized wave in the megabatch engine (the bench's
#: choice, not the executor's default: the cohort curve is most readable
#: when every 64-client point is exactly one wave)
MEGABATCH_WAVE_SIZE = 64

#: cohort sizes the scaling curve samples per scale
_COHORT_SIZES = {"smoke": (8, 64), "bench": (8, 64, 512, 4096)}

#: largest cohort the serial baseline is *measured* at; bigger points
#: extrapolate linearly (serial cost is one client-loop per client, so
#: the estimate is tight and ~10x cheaper than measuring)
_SERIAL_MEASURE_CAP = 512

#: the per-client workload of the cohort curve: deliberately small so
#: the 4096-client point stays runnable — the curve measures *wave
#: dispatch* scaling, not model-size scaling (that is the main bench)
_COHORT_PRESET = dict(
    samples_per_client=16,
    image_size=8,
    num_classes=4,
    conv_width=4,
    local_epochs=1,
    batch_size=16,
)


def build_cohort_world(num_clients: int, seed: int = 5):
    """A fresh seeded (model, clients) world with ``num_clients`` clients.

    Same construction recipe as :func:`build_bench_world` but with the
    compact :data:`_COHORT_PRESET` workload and a parametric population,
    so cohort-scaling points are directly comparable to each other.
    """
    preset = _COHORT_PRESET
    size = preset["image_size"]
    classes = preset["num_classes"]
    total = num_clients * preset["samples_per_client"]

    data_rng = np.random.default_rng(seed)
    images = data_rng.random((total, 1, size, size))
    labels = np.tile(np.arange(classes), total // classes + 1)[:total]
    dataset = Dataset(images, labels)

    config = LocalTrainingConfig(
        lr=0.05,
        momentum=0.9,
        batch_size=preset["batch_size"],
        local_epochs=preset["local_epochs"],
    )
    chunks = np.array_split(np.arange(total), num_clients)
    clients = [
        Client(i, dataset.subset(chunk), config, np.random.default_rng(100 + i))
        for i, chunk in enumerate(chunks)
    ]

    width = preset["conv_width"]
    model_rng = np.random.default_rng(seed + 1)
    model = Sequential(
        Conv2d(1, width, kernel_size=3, padding=1, rng=model_rng),
        ReLU(),
        MaxPool2d(2),
        Conv2d(width, 2 * width, kernel_size=3, padding=1, rng=model_rng),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Linear(2 * width * (size // 4) ** 2, classes, rng=model_rng),
    )
    return model, clients


def _time_cohort_wave(engine: str, num_clients: int):
    """One ``collect_updates`` wave over a fresh world; (seconds, deltas)."""
    model, clients = build_cohort_world(num_clients)
    global_params = model.flat_parameters()
    with make_executor(engine, 1) as executor:
        start = time.perf_counter()
        outcomes = collect_updates(
            executor, clients, model, global_params, round_index=0
        )
        seconds = time.perf_counter() - start
    return seconds, [value for _, value in outcomes]


def measure_cohort_scaling(scale: str = "bench") -> dict:
    """The cohort-scaling curve: serial vs megabatch wave throughput.

    Times one ``collect_updates`` wave (the round's training fan-out —
    exactly what :class:`~repro.fl.server.FederatedServer` and the
    defense service dispatch) at each cohort size in
    :data:`_COHORT_SIZES`, on freshly built identical worlds per engine.
    Each measured point also checks the determinism contract: every
    per-client delta bitwise equal across engines.  Serial is measured
    up to :data:`_SERIAL_MEASURE_CAP` clients and extrapolated linearly
    beyond it (flagged ``serial_estimated``; the bitwise check is
    skipped there, reported as ``None``).
    """
    if scale not in _COHORT_SIZES:
        raise ValueError(f"unknown scale {scale!r}")
    points = []
    serial_rate: float | None = None  # seconds per client, last measured
    for num_clients in _COHORT_SIZES[scale]:
        mega_seconds, mega_deltas = _time_cohort_wave("megabatch", num_clients)
        if num_clients <= _SERIAL_MEASURE_CAP:
            serial_seconds, serial_deltas = _time_cohort_wave(
                "serial", num_clients
            )
            serial_rate = serial_seconds / num_clients
            estimated = False
            identical = all(
                np.array_equal(a, b)
                for a, b in zip(serial_deltas, mega_deltas)
            )
        else:
            serial_seconds = serial_rate * num_clients
            estimated = True
            identical = None
        points.append(
            {
                "clients": num_clients,
                "serial_seconds": serial_seconds,
                "serial_estimated": estimated,
                "megabatch_seconds": mega_seconds,
                "speedup": serial_seconds / max(mega_seconds, 1e-9),
                "bitwise_identical": identical,
            }
        )
    return {
        "preset": dict(_COHORT_PRESET),
        "wave_size": MEGABATCH_WAVE_SIZE,
        "points": points,
    }


def _noop(_):
    return None


def _warm_up(executor: ClientExecutor, workers: int) -> None:
    """Pay pool start-up (thread creation, process spawn) before timing."""
    executor.map_clients(_noop, range(max(2, workers)))


def _run_engine(executor: ClientExecutor, scale: str, telemetry: Telemetry | None = None):
    """Time the training round(s) and the FP+AW defense pass."""
    preset = BENCH_PRESETS[scale]
    timer = StageTimer(telemetry=telemetry)

    model, clients, dataset = build_bench_world(scale)
    server = FederatedServer(
        model, clients, dataset, executor=executor, telemetry=telemetry
    )
    with timer.stage("training"):
        history = server.train(preset["rounds"])

    pipeline = DefensePipeline(
        clients,
        lambda m: 0.9,  # constant oracle: prunes the full order, so the
        # defense pass has a deterministic, engine-independent shape
        DefenseConfig(method="mvp", fine_tune=False),
        context=RunContext(telemetry=telemetry, executor=executor),
    )
    with timer.stage("defense"):
        pipeline.run(model)

    return timer.seconds, model.flat_parameters(), history.test_accuracies


def run_benchmark(
    scale: str = "bench",
    workers: int = 4,
    engines: tuple[str, ...] = ("serial", "thread", "process", "megabatch"),
) -> dict:
    """Time every engine on the shared workload; JSON-ready payload.

    ``speedups`` are serial-total over engine-total; ``bitwise_identical``
    asserts the determinism contract (final parameters and accuracy
    traces equal across every engine).  ``cpu_count`` is recorded
    because speedups below the worker count on an undersized box are
    expected, not a regression — ``oversubscribed`` makes the call
    explicit (more workers requested than cores available).

    Each engine run is traced into an in-memory ring so the payload can
    report *why* the numbers look the way they do: per-engine
    ``utilization`` (executor busy-time over wall-time, see
    :meth:`~repro.obs.analysis.TraceAnalysis.wave_utilization`) and the
    serial run's top ``critical_path`` spans.  The tracing itself is in
    the measured region for every engine alike, so the speedup ratios
    stay comparable; the bitwise checks compare parameters and accuracy
    traces, which telemetry cannot touch.
    """
    if scale not in BENCH_PRESETS:
        raise ValueError(f"unknown scale {scale!r}")
    if "serial" not in engines:
        raise ValueError("the serial baseline engine is required")

    timings: dict[str, dict[str, float]] = {}
    params: dict[str, np.ndarray] = {}
    traces: dict[str, list[float]] = {}
    utilization: dict[str, dict] = {}
    critical_path: list[dict] = []
    for engine in engines:
        # serial and megabatch train in one process: megabatch splits
        # only waves of SHARD_MIN_CLIENTS or more, and no preset's
        # federation is that large
        effective_workers = 1 if engine in ("serial", "megabatch") else workers
        hub = Telemetry()
        ring = hub.add_sink(RingBufferSink())
        hub.gauge("exec.workers", effective_workers)
        with make_executor(engine, workers) as executor:
            _warm_up(executor, workers)
            timings[engine], params[engine], traces[engine] = _run_engine(
                executor, scale, telemetry=hub
            )
        hub.close()
        analysis = TraceAnalysis(ring.events)
        stats = analysis.wave_utilization()
        stats.pop("waves", None)  # keep the payload compact
        utilization[engine] = stats
        if engine == "serial":
            critical_path = [
                {"name": e["name"], "depth": e["depth"], "seconds": e["seconds"]}
                for e in analysis.critical_path()[:5]
            ]

    serial_total = sum(timings["serial"].values())
    speedups = {
        engine: serial_total / max(sum(seconds.values()), 1e-9)
        for engine, seconds in timings.items()
        if engine != "serial"
    }
    identical = all(
        np.array_equal(params[engine], params["serial"])
        and traces[engine] == traces["serial"]
        for engine in engines
    )
    cpu_count = os.cpu_count()
    return {
        "scale": scale,
        "workers": workers,
        "cpu_count": cpu_count,
        "oversubscribed": bool(cpu_count is not None and cpu_count < workers),
        "num_clients": BENCH_PRESETS[scale]["num_clients"],
        "timings": timings,
        "speedups": speedups,
        "utilization": utilization,
        "critical_path": critical_path,
        "bitwise_identical": identical,
        "telemetry": measure_telemetry_overhead(scale),
        "checkpoint": measure_checkpoint_cost(scale),
        "service": measure_service(scale),
        "network": measure_network(scale),
        "metrics": measure_metrics_overhead(scale),
        "cohort_scaling": measure_cohort_scaling(scale),
    }


def compare_to_baseline(
    payload: dict,
    baseline: dict,
    threshold: float = 0.25,
    min_seconds: float = 1e-3,
) -> dict:
    """Regression-gate a fresh bench ``payload`` against a saved baseline.

    Compares per-engine, per-stage wall-clock timings: a stage regresses
    when it is more than ``threshold`` (fractionally) slower than the
    baseline *and* the absolute slowdown exceeds ``min_seconds`` (so
    microsecond noise on trivial stages never trips the gate).  Engines
    or stages absent from either side are skipped — a baseline from a
    different machine shape gates what it can and ignores the rest.

    The ``service`` section is gated alongside the engine stages:
    simulated round-commit latency percentiles (p50/p99) and the shed /
    rejected report counts are deterministic for a fixed seed, so growth
    beyond the threshold is a scheduling-policy regression, not machine
    noise (the ``min_seconds`` floor applies to the latency figures the
    same way it does to stage timings).  The ``cohort_scaling`` curve is
    gated on its megabatch wave times per cohort size.  The ``network``
    section carries one *absolute* gate: the lossless transport's
    ``overhead_fraction`` must not exceed
    :data:`LOSSLESS_OVERHEAD_CEILING` (the transparency contract makes
    the lossless path a pass-through, so its time cost is bounded by
    construction, not by machine shape).  The ``metrics`` section is
    gated the same absolute way: online window folding + SLO evaluation
    must stay within :data:`METRICS_OVERHEAD_CEILING` of metrics-off.

    Returns ``{"ok": bool, "regressions": [...], "checked": int}``;
    ``scripts/bench.py --baseline`` exits non-zero when ``ok`` is False.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    regressions: list[dict] = []
    checked = 0
    base_timings = baseline.get("timings", {})
    head_timings = payload.get("timings", {})
    for engine, base_stages in sorted(base_timings.items()):
        head_stages = head_timings.get(engine)
        if head_stages is None:
            continue
        for stage, base_seconds in sorted(base_stages.items()):
            head_seconds = head_stages.get(stage)
            if head_seconds is None:
                continue
            checked += 1
            delta = head_seconds - base_seconds
            ratio = head_seconds / max(base_seconds, 1e-9)
            if ratio > 1.0 + threshold and delta > min_seconds:
                regressions.append(
                    {
                        "engine": engine,
                        "stage": stage,
                        "base_seconds": base_seconds,
                        "head_seconds": head_seconds,
                        "ratio": ratio,
                    }
                )

    base_service = baseline.get("service") or {}
    head_service = payload.get("service") or {}
    service_metrics = [
        ("latency_p50", base_service.get("latency_p50"),
         head_service.get("latency_p50"), min_seconds),
        ("latency_p99", base_service.get("latency_p99"),
         head_service.get("latency_p99"), min_seconds),
        ("reports.shed", (base_service.get("reports") or {}).get("shed"),
         (head_service.get("reports") or {}).get("shed"), 0),
        ("reports.rejected", (base_service.get("reports") or {}).get("rejected"),
         (head_service.get("reports") or {}).get("rejected"), 0),
    ]
    for metric, base_value, head_value, floor in service_metrics:
        if base_value is None or head_value is None:
            continue
        checked += 1
        delta = head_value - base_value
        ratio = head_value / max(base_value, 1e-9)
        if ratio > 1.0 + threshold and delta > floor:
            regressions.append(
                {
                    "engine": "service",
                    "stage": metric,
                    "base_seconds": base_value,
                    "head_seconds": head_value,
                    "ratio": ratio,
                }
            )

    # the transport gate is absolute, not relative-to-baseline: a
    # lossless network must stay within LOSSLESS_OVERHEAD_CEILING of the
    # direct path regardless of what the baseline machine measured
    head_network = payload.get("network") or {}
    overhead = head_network.get("overhead_fraction")
    if overhead is not None:
        checked += 1
        if overhead > LOSSLESS_OVERHEAD_CEILING:
            regressions.append(
                {
                    "engine": "network",
                    "stage": "lossless_overhead_fraction",
                    "base_seconds": LOSSLESS_OVERHEAD_CEILING,
                    "head_seconds": overhead,
                    "ratio": overhead / LOSSLESS_OVERHEAD_CEILING,
                }
            )

    # the live-metrics gate is absolute for the same reason: folding the
    # stream into windows must stay in the bookkeeping noise floor
    head_metrics = payload.get("metrics") or {}
    overhead = head_metrics.get("overhead_fraction")
    if overhead is not None:
        checked += 1
        if overhead > METRICS_OVERHEAD_CEILING:
            regressions.append(
                {
                    "engine": "metrics",
                    "stage": "overhead_fraction",
                    "base_seconds": METRICS_OVERHEAD_CEILING,
                    "head_seconds": overhead,
                    "ratio": overhead / METRICS_OVERHEAD_CEILING,
                }
            )

    # the cohort-scaling curve gates the megabatch wave time per point
    # (serial points are informational: half of them are extrapolated)
    base_points = (baseline.get("cohort_scaling") or {}).get("points") or []
    head_points = (payload.get("cohort_scaling") or {}).get("points") or []
    head_by_cohort = {p["clients"]: p for p in head_points}
    for base_point in base_points:
        head_point = head_by_cohort.get(base_point["clients"])
        if head_point is None:
            continue
        checked += 1
        base_seconds = base_point["megabatch_seconds"]
        head_seconds = head_point["megabatch_seconds"]
        delta = head_seconds - base_seconds
        ratio = head_seconds / max(base_seconds, 1e-9)
        if ratio > 1.0 + threshold and delta > min_seconds:
            regressions.append(
                {
                    "engine": "cohort",
                    "stage": f"megabatch@{base_point['clients']}",
                    "base_seconds": base_seconds,
                    "head_seconds": head_seconds,
                    "ratio": ratio,
                }
            )
    return {"ok": not regressions, "regressions": regressions, "checked": checked}


def measure_telemetry_overhead(scale: str = "smoke") -> dict:
    """Wall-clock cost of full instrumentation vs. the null hub.

    Runs the serial workload twice — once with ``telemetry=None``
    (resolving to :data:`~repro.obs.telemetry.NULL_TELEMETRY`) and once
    with a real hub feeding a ring buffer — and reports the totals.
    Informational: wall-clock ratios on shared machines are noisy, so
    the *gated* claim (``tests/obs``) is made on per-op costs instead.
    """
    if scale not in BENCH_PRESETS:
        raise ValueError(f"unknown scale {scale!r}")
    with make_executor("serial", 1) as executor:
        null_timings, _, _ = _run_engine(executor, scale)
    hub = Telemetry()
    ring = hub.add_sink(RingBufferSink())
    with make_executor("serial", 1) as executor:
        instrumented_timings, _, _ = _run_engine(executor, scale, telemetry=hub)
    hub.close()
    null_total = sum(null_timings.values())
    instrumented_total = sum(instrumented_timings.values())
    return {
        "scale": scale,
        "null_seconds": null_total,
        "instrumented_seconds": instrumented_total,
        "overhead_fraction": (instrumented_total - null_total)
        / max(null_total, 1e-9),
        "num_events": ring.num_emitted,
    }


def measure_checkpoint_cost(scale: str = "smoke", repeats: int = 3) -> dict:
    """Durable-snapshot write and restore cost on the bench federation.

    Trains the seeded world for one round, then times
    :meth:`~repro.fl.server.FederatedServer.save_checkpoint` (a full
    atomic write: encode, fsync, rename, manifest update) and
    :meth:`~repro.fl.server.FederatedServer.restore_checkpoint`.  The
    minimum over ``repeats`` is reported — the steady-state cost a
    ``checkpoint_every=1`` run pays per round — plus the snapshot's
    on-disk size.
    """
    if scale not in BENCH_PRESETS:
        raise ValueError(f"unknown scale {scale!r}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    model, clients, dataset = build_bench_world(scale)
    server = FederatedServer(model, clients, dataset)
    history = server.train(1)
    with tempfile.TemporaryDirectory() as tmp:
        manager = CheckpointManager(tmp)
        write_times = []
        for _ in range(repeats):
            start = time.perf_counter()
            snapshot = server.save_checkpoint(manager, 1, history)
            write_times.append(time.perf_counter() - start)
        snapshot_bytes = os.path.getsize(snapshot.path)
        loaded = manager.load_latest("train")
        restore_times = []
        for _ in range(repeats):
            start = time.perf_counter()
            server.restore_checkpoint(loaded)
            restore_times.append(time.perf_counter() - start)
    return {
        "scale": scale,
        "write_seconds": min(write_times),
        "restore_seconds": min(restore_times),
        "snapshot_bytes": snapshot_bytes,
    }


#: rounds the service benchmark streams per scale — enough for the
#: bursty schedule to produce both clean and burst rounds
_SERVICE_ROUNDS = {"smoke": 6, "bench": 12}


def measure_service(scale: str = "smoke", seed: int = 5) -> dict:
    """Stream the bench federation through the always-on defense service.

    Runs :class:`~repro.fl.service.DefenseService` over the seeded
    bench world under a bursty traffic schedule with a 30%-straggler
    fault model, and reports the service-level numbers the bench
    payload tracks: simulated round-commit latency percentiles
    (nearest-rank p50/p90/p99 — deterministic for the fixed seed, so a
    baseline comparison is exact) and the admission accounting
    (admitted / late / deferred / shed / rejected report counts).
    Wall-clock never enters these figures; the section exists so
    scheduling-policy changes show up in ``BENCH_fl.json`` diffs the
    same way engine-time regressions do.
    """
    if scale not in BENCH_PRESETS:
        raise ValueError(f"unknown scale {scale!r}")
    model, clients, dataset = build_bench_world(scale, seed=seed)
    faults = FaultModel(
        straggler_prob=0.3,
        straggler_delay=(1.0, 20.0),
        deadline_seconds=10.0,
        seed=seed + 2,
    )
    hub = Telemetry()
    ring = hub.add_sink(RingBufferSink())
    service = DefenseService(
        model,
        wrap_clients(clients, faults),
        dataset,
        ServiceConfig(round_deadline=10.0, quorum=0.5, eval_every=0),
        traffic=make_schedule("bursty", seed=seed + 3),
        context=RunContext(telemetry=hub, fault_model=faults),
    )
    history = service.run(_SERVICE_ROUNDS[scale])
    hub.close()
    percentiles = history.latency_percentiles()
    counts = history.report_counts()
    return {
        "scale": scale,
        "rounds": len(history),
        "committed": len(history.committed_rounds),
        "quorum_failures": len(history.quorum_failed_rounds),
        "degraded_rounds": len(history.degraded_rounds),
        "cleanses": len(history.cleansed_rounds),
        "trust_quarantines": len(history.trust_quarantine_events),
        "latency_p50": percentiles["p50"],
        "latency_p90": percentiles["p90"],
        "latency_p99": percentiles["p99"],
        "reports": counts,
        "num_events": ring.num_emitted,
    }


#: absolute ceiling on the lossless transport's wall-clock overhead.
#: The transparency contract says a lossless, partition-free
#: :class:`~repro.fl.transport.SimulatedNetwork` is a pure pass-through
#: — same bytes, same history, same telemetry as no network at all — so
#: its *time* cost must stay in the envelope-bookkeeping noise floor.
#: ``scripts/bench.py --baseline`` fails when the measured fraction
#: exceeds this.
LOSSLESS_OVERHEAD_CEILING = 0.02


def _run_service_once(scale: str, seed: int, network=None):
    """(seconds, final flat params, history) for one seeded service run.

    Identical construction to :func:`measure_service` minus telemetry,
    so the direct / lossless / lossy variants differ *only* in the
    ``network`` argument.
    """
    model, clients, dataset = build_bench_world(scale, seed=seed)
    faults = FaultModel(
        straggler_prob=0.3,
        straggler_delay=(1.0, 20.0),
        deadline_seconds=10.0,
        seed=seed + 2,
    )
    service = DefenseService(
        model,
        wrap_clients(clients, faults),
        dataset,
        ServiceConfig(round_deadline=10.0, quorum=0.5, eval_every=0),
        traffic=make_schedule("bursty", seed=seed + 3),
        network=network,
        context=RunContext(fault_model=faults),
    )
    start = time.perf_counter()
    history = service.run(_SERVICE_ROUNDS[scale])
    seconds = time.perf_counter() - start
    return seconds, model.flat_parameters(), history


def measure_network(scale: str = "smoke", seed: int = 5, repeats: int = 3) -> dict:
    """Transport-layer bench: lossless overhead + lossy delivery stats.

    Three seeded service runs share one world recipe and differ only in
    the message layer:

    * **direct** — ``network=None``, the pre-transport fast path;
    * **lossless** — a transparent :class:`SimulatedNetwork`, which the
      transparency contract requires to be byte-identical to direct
      (``lossless_identical`` checks final parameters and the canonical
      history) and nearly free (``overhead_fraction`` over min-of-
      ``repeats`` wall clocks, gated at
      :data:`LOSSLESS_OVERHEAD_CEILING` by ``--baseline``);
    * **lossy** — the ``lossy`` preset, reported informationally:
      delivery rate, one-way simulated latency percentiles, and how
      much work the idempotent ingest gate did (dedup / fence hits).
    """
    if scale not in BENCH_PRESETS:
        raise ValueError(f"unknown scale {scale!r}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    direct_times = []
    direct_params = direct_history = None
    for i in range(repeats):
        seconds, params, history = _run_service_once(scale, seed)
        direct_times.append(seconds)
        if i == 0:
            direct_params, direct_history = params, history
    lossless_times = []
    lossless_identical = True
    for i in range(repeats):
        seconds, params, history = _run_service_once(
            scale, seed, network=make_network("lossless", seed=seed + 6)
        )
        lossless_times.append(seconds)
        if i == 0:
            lossless_identical = bool(
                np.array_equal(params, direct_params)
                and history.to_jsonable() == direct_history.to_jsonable()
            )
    direct_seconds = min(direct_times)
    lossless_seconds = min(lossless_times)

    lossy_net = make_network("lossy", seed=seed + 7)
    _, _, lossy_history = _run_service_once(scale, seed, network=lossy_net)
    summary = lossy_net.summary()
    net_counts = lossy_history.network_counts()
    return {
        "scale": scale,
        "rounds": _SERVICE_ROUNDS[scale],
        "direct_seconds": direct_seconds,
        "lossless_seconds": lossless_seconds,
        "overhead_fraction": (lossless_seconds - direct_seconds)
        / max(direct_seconds, 1e-9),
        "lossless_identical": lossless_identical,
        "lossy": {
            "delivery_rate": summary["delivery_rate"],
            "latency_p50": summary["latency_p50"],
            "latency_p99": summary["latency_p99"],
            "sent": summary["sent"],
            "lost": summary["lost"],
            "duplicates": summary["duplicates"],
            "corrupted": summary["corrupted"],
            "dedup_hits": net_counts["dedup"],
            "fenced": net_counts["fenced"],
            "committed": len(lossy_history.committed_rounds),
        },
    }


#: absolute ceiling on the live-metrics layer's wall-clock overhead.
#: Folding the stream into windows is integer bucket arithmetic per
#: record, so metrics-on must stay within a couple percent of a bare
#: telemetry hub — same contract shape as the lossless transport gate.
#: ``scripts/bench.py --baseline`` fails when the fraction exceeds this.
METRICS_OVERHEAD_CEILING = 0.02


def measure_metrics_overhead(scale: str = "smoke", seed: int = 5, repeats: int = 3) -> dict:
    """Wall-clock cost of online metrics + alerting vs. metrics-off.

    Two seeded service runs share one world recipe and a live telemetry
    hub, differing only in whether a
    :class:`~repro.obs.alerts.ServiceMetrics` bundle (window aggregator
    + default SLO rules) is attached.  Reports min-of-``repeats`` wall
    clocks, the overhead fraction (gated at
    :data:`METRICS_OVERHEAD_CEILING` by ``--baseline``), and the run's
    window/alert counts so baseline diffs catch rule-behavior drift
    too.
    """
    from ..obs.alerts import ServiceMetrics

    if scale not in BENCH_PRESETS:
        raise ValueError(f"unknown scale {scale!r}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")

    def run_once(with_metrics: bool):
        model, clients, dataset = build_bench_world(scale, seed=seed)
        faults = FaultModel(
            straggler_prob=0.3,
            straggler_delay=(1.0, 20.0),
            deadline_seconds=10.0,
            seed=seed + 2,
        )
        hub = Telemetry()
        metrics = ServiceMetrics(round_interval=10.0) if with_metrics else None
        service = DefenseService(
            model,
            wrap_clients(clients, faults),
            dataset,
            ServiceConfig(round_deadline=10.0, quorum=0.5, eval_every=0),
            traffic=make_schedule("bursty", seed=seed + 3),
            context=RunContext(telemetry=hub, fault_model=faults),
            metrics=metrics,
        )
        start = time.perf_counter()
        service.run(_SERVICE_ROUNDS[scale])
        seconds = time.perf_counter() - start
        hub.close()
        return seconds, metrics

    off_seconds = min(run_once(False)[0] for _ in range(repeats))
    on_times = []
    metrics = None
    for i in range(repeats):
        seconds, bundle = run_once(True)
        on_times.append(seconds)
        if i == 0:
            metrics = bundle
    on_seconds = min(on_times)
    return {
        "scale": scale,
        "rounds": _SERVICE_ROUNDS[scale],
        "off_seconds": off_seconds,
        "on_seconds": on_seconds,
        "overhead_fraction": (on_seconds - off_seconds)
        / max(off_seconds, 1e-9),
        "windows": len(metrics.series),
        "alerts_fired": sum(
            1 for t in metrics.timeline if t["action"] == "fired"
        ),
        "alerts_resolved": sum(
            1 for t in metrics.timeline if t["action"] == "resolved"
        ),
    }


def trace_run(scale: str, path: str, workers: int = 4, engine: str = "serial") -> dict:
    """Run the bench workload with a JSONL trace attached (``--trace-out``).

    Returns a small summary (path, event count) for the CLI to print;
    the trace itself lands at ``path``, one schema-v1 record per line.
    """
    if scale not in BENCH_PRESETS:
        raise ValueError(f"unknown scale {scale!r}")
    hub = Telemetry()
    ring = hub.add_sink(RingBufferSink())
    hub.add_sink(JSONLSink(path))
    # recorded so trace analysis can compute wave utilization without
    # being told the worker count out of band (one process for megabatch,
    # as in run_benchmark)
    hub.gauge("exec.workers", 1 if engine in ("serial", "megabatch") else workers)
    with make_executor(engine, workers) as executor:
        _warm_up(executor, workers)
        _run_engine(executor, scale, telemetry=hub)
    hub.close()
    return {"path": str(path), "num_events": ring.num_emitted, "engine": engine}
