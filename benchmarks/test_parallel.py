"""Bench: the parallel federated execution engines.

Three claims under test, on the synthetic service world of
:func:`repro.experiments.scale.build_bench_world`:

* **Speedup** (``perf``-marked, hardware-gated): with 4 workers on a
  box with at least 4 cores, a training round plus FP+AW defense pass
  runs at least 2x faster on the process engine than on the serial
  engine.  On smaller machines the assertion is skipped — there is
  nothing to parallelize onto — but the identity check below still
  runs.
* **Megabatch speedup** (``perf``-marked, gated on timer noise): the
  vectorized wave path trains a 64-client cohort at least 2x faster
  than the serial engine while staying bitwise identical.
* **Identity** (always on): whatever the hardware, every engine
  produces bitwise-identical model parameters and accuracy traces.

Deselect the timing tests with ``-m "not perf"``.
"""

import os
import time

import numpy as np
import pytest

from repro.defense.pipeline import DefenseConfig, DefensePipeline
from repro.experiments.scale import BENCH_PRESETS, build_bench_world
from repro.fl.executor import (
    MegabatchExecutor,
    ProcessExecutor,
    SerialExecutor,
    collect_updates,
)
from repro.fl.server import FederatedServer
from repro.obs import RunContext

WORKERS = 4


def make_executor(engine: str, workers: int):
    if engine == "serial":
        return SerialExecutor()
    if engine == "process":
        return ProcessExecutor(num_workers=workers)
    return MegabatchExecutor()


def run_workload(engine: str, scale: str, workers: int):
    """(seconds, final params, accuracy trace) of the training round(s)
    plus an FP+AW defense pass, with pool start-up paid before timing."""
    model, clients, dataset = build_bench_world(scale)
    with make_executor(engine, workers) as executor:
        executor.map_clients(abs, range(workers))
        start = time.perf_counter()
        server = FederatedServer(model, clients, dataset, executor=executor)
        history = server.train(BENCH_PRESETS[scale]["rounds"])
        DefensePipeline(
            clients,
            lambda m: 0.9,  # constant oracle: prunes the full order, so
            # the defense pass has a deterministic, engine-independent shape
            DefenseConfig(method="mvp", fine_tune=False),
            context=RunContext(executor=executor),
        ).run(model)
        seconds = time.perf_counter() - start
    return seconds, model.flat_parameters(), history.test_accuracies


def cohort_wave(engine: str):
    """(seconds, deltas) of one 64-client ``collect_updates`` wave on the
    smoke world's model and client recipe, 16 samples per client."""
    model, clients, _ = build_bench_world("cohort")
    with make_executor(engine, 1) as executor:
        start = time.perf_counter()
        outcomes = collect_updates(
            executor, clients, model, model.flat_parameters(), round_index=0
        )
        seconds = time.perf_counter() - start
    return seconds, [value for _, value in outcomes]


def _require_cores(workers: int) -> None:
    cores = os.cpu_count() or 1
    if cores == 1:
        # single core: parallel engines cannot beat serial at all, so the
        # expected speedup is ~1.0x (or below, with pool overhead) — skip
        # with a message that says so, rather than implying a near-miss
        pytest.skip(
            f"single-core host: a {workers}-worker pool has no second core "
            "to run on, so the >= 2x speedup claim does not apply"
        )
    if cores < workers:
        pytest.skip(
            f"speedup assertion needs >= {workers} cores, have {cores} "
            "(oversubscribed pools time-slice instead of speeding up)"
        )


@pytest.mark.perf
class TestSpeedup:
    def test_four_workers_at_least_twice_as_fast(self):
        _require_cores(WORKERS)
        serial_s, serial_params, serial_trace = run_workload(
            "serial", "bench", WORKERS
        )
        process_s, process_params, process_trace = run_workload(
            "process", "bench", WORKERS
        )
        np.testing.assert_array_equal(process_params, serial_params)
        assert process_trace == serial_trace
        assert serial_s / process_s >= 2.0, (serial_s, process_s)

    def test_megabatch_at_least_twice_as_fast_at_64_clients(self, monkeypatch):
        # vectorization speedup comes from BLAS batching, not extra
        # cores, so the core-count gate above does not apply; instead,
        # gate on the serial wave being slow enough to time at all —
        # hardware fast enough to finish it inside timer noise cannot
        # support a hard 2x wall-clock assertion
        monkeypatch.setitem(
            BENCH_PRESETS,
            "cohort",
            dict(BENCH_PRESETS["smoke"], num_clients=64, samples_per_client=16),
        )
        mega_s, mega_deltas = cohort_wave("megabatch")
        serial_s, serial_deltas = cohort_wave("serial")
        for a, b in zip(serial_deltas, mega_deltas):
            np.testing.assert_array_equal(a, b)  # holds on any box
        if serial_s < 0.02:
            pytest.skip(
                f"64-client serial wave took {serial_s:.4f}s "
                "— too close to timer noise for a 2x speedup assertion"
            )
        assert serial_s / mega_s >= 2.0, (serial_s, mega_s)


class TestEngineIdentity:
    def test_all_engines_bitwise_identical(self):
        _, base_params, base_trace = run_workload("serial", "smoke", 2)
        for engine in ("process", "megabatch"):
            _, params, trace = run_workload(engine, "smoke", 2)
            np.testing.assert_array_equal(params, base_params, err_msg=engine)
            assert trace == base_trace, engine
