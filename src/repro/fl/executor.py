"""Pluggable client-execution engine for the federated simulator.

Federated learning is embarrassingly parallel across clients: within a
round (and within every defense report-collection stage) client
computations are independent by construction.  This module supplies the
machinery to exploit that without giving up the simulator's determinism
guarantees:

* :class:`SerialExecutor` — the in-process loop (the default; exactly
  the historical behaviour).
* :class:`ThreadExecutor` — a thread pool.  NumPy's BLAS releases the
  GIL inside the im2col matmuls, so client training overlaps on
  multi-core machines with zero serialization cost.
* :class:`ProcessExecutor` — a spawn-based process pool for true
  parallelism when the workload is Python-bound; payloads are made
  spawn-safe by stripping transient layer state before pickling
  (:func:`repro.nn.serialization.clone_module` /
  :func:`~repro.nn.serialization.strip_runtime_state`).

All three expose one API — ``map_clients(fn, items)`` returning results
in *item order* regardless of completion order — and all three are
**bitwise deterministic and mutually identical**.  That property rests
on three rules, enforced by :func:`collect_updates` and
:func:`collect_reports` rather than by the executors themselves:

1. **Fault draws stay on the coordinator.**  A wrapped client's fault
   schedule (:class:`~repro.fl.faults.FaultyClient`) is resolved into a
   :class:`~repro.fl.faults.UpdatePlan`/:class:`~repro.fl.faults.ReportPlan`
   in stable client order *before* fan-out; workers only ever run clean
   training/reporting.  Because training never consumes the fault RNG,
   the planned draw sequence is bitwise identical to the historical
   interleaved one — PR 1's zero-rate-neutrality guarantee survives.
2. **Per-client RNG streams travel with the task and come home.**  Each
   client owns its generator; a worker returns the generator's final
   ``bit_generator.state`` alongside the payload and the coordinator
   restores it, so round *n+1* starts from the same stream position no
   matter which pool ran round *n*.
3. **Shared state is never shared.**  Every task trains/reports on its
   own deep copy of the global model (the pickling round-trip already
   provides the copy for process pools), and strikes/quarantine are
   applied by the caller in stable client order after collection.
"""

from __future__ import annotations

import collections
import concurrent.futures
import multiprocessing
import os
import time
import weakref
from typing import Callable, Iterable, Sequence

import numpy as np

from ..nn.layers import Conv2d
from ..nn.megabatch import supports_megabatch, train_wave
from ..nn.module import get_profile_hook
from ..nn.serialization import clone_module, strip_runtime_state
from ..obs.telemetry import Telemetry, ensure_telemetry
from .faults import ClientDropout

__all__ = [
    "ClientExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "MegabatchExecutor",
    "collect_updates",
    "collect_reports",
    "dispatch_updates",
]


class ClientExecutor:
    """Interface of a client-work executor.

    ``clones_payloads`` tells the orchestration helpers whether running
    a task already isolates its payload (process pools copy through
    pickling) or whether the task must clone the model itself (serial
    and thread execution share the coordinator's address space).
    """

    clones_payloads = False

    def map_clients(self, fn: Callable, items: Iterable) -> list:
        """Apply ``fn`` to every item, returning results in item order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources (idempotent)."""

    def __enter__(self) -> "ClientExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(ClientExecutor):
    """One-at-a-time execution in the calling thread (the default)."""

    def map_clients(self, fn: Callable, items: Iterable) -> list:
        return [fn(item) for item in items]

    def __repr__(self) -> str:
        return "SerialExecutor()"


def _check_workers(num_workers: int) -> int:
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    return int(num_workers)


class ThreadExecutor(ClientExecutor):
    """Thread-pool execution.

    BLAS-heavy client work (the conv matmuls) releases the GIL, so this
    gets real concurrency without any pickling; it is the cheapest
    parallel option and the right first choice.  The pool is created
    lazily and reused across rounds.
    """

    def __init__(self, num_workers: int = 4) -> None:
        self.num_workers = _check_workers(num_workers)
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.num_workers,
                thread_name_prefix="repro-client",
            )
        return self._pool

    def map_clients(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        futures = [pool.submit(fn, item) for item in items]
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        return f"ThreadExecutor(num_workers={self.num_workers})"


class ProcessExecutor(ClientExecutor):
    """Process-pool execution (spawn start method) with a worker watchdog.

    Spawn (rather than fork) keeps workers safe on every platform and
    independent of inherited BLAS thread state; the price is that every
    task payload is pickled, which is why payloads are stripped of
    transient layer caches before fan-out.  The pool is created lazily
    on first use and reused across rounds to amortize interpreter
    start-up.

    Worker death and hangs are survivable, not fatal.  A wave whose
    worker is killed (OOM reaper, SIGKILL) or misses the ``task_timeout``
    deadline keeps every completed result, tears the pool down, and
    re-dispatches only the incomplete tasks into a fresh pool — up to
    ``max_task_retries`` times before giving up with ``RuntimeError``.
    Re-dispatch is deterministic: task bodies are pure functions of
    their pickled payloads (the coordinator's state is only mutated
    after results marshal home), so a re-run returns bit-identical
    results and the executor-identity contract survives worker loss.

    Parameters
    ----------
    num_workers:
        Pool size.
    task_timeout:
        Deadline in seconds for one wave of tasks; ``None`` (default)
        waits forever.  On expiry the unfinished tasks' workers are
        presumed hung, the pool is terminated, and those tasks are
        re-dispatched.  Set it comfortably above the slowest expected
        task — a deadline that fires on healthy stragglers costs a full
        pool restart per wave.
    max_task_retries:
        How many times one task may be re-dispatched after worker
        death/hang before ``map_clients`` raises.
    """

    clones_payloads = True

    def __init__(
        self,
        num_workers: int = 4,
        task_timeout: float | None = None,
        max_task_retries: int = 2,
    ) -> None:
        self.num_workers = _check_workers(num_workers)
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be > 0 or None, got {task_timeout}"
            )
        if max_task_retries < 0:
            raise ValueError(
                f"max_task_retries must be >= 0, got {max_task_retries}"
            )
        self.task_timeout = task_timeout
        self.max_task_retries = max_task_retries
        self.redispatches = 0
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.num_workers,
                mp_context=multiprocessing.get_context("spawn"),
            )
        return self._pool

    def map_clients(self, fn: Callable, items: Iterable) -> list:
        # no single-item shortcut: in-process execution would skip the
        # payload isolation that pickling provides
        items = list(items)
        results: list = [None] * len(items)
        pending = list(range(len(items)))
        attempt = 0
        while pending:
            pending = self._run_wave(fn, items, results, pending)
            if not pending:
                break
            attempt += 1
            if attempt > self.max_task_retries:
                failure = "dying"
                if self.task_timeout is not None:
                    failure += f" or hanging past the {self.task_timeout}s deadline"
                raise RuntimeError(
                    f"{len(pending)} worker task(s) still incomplete after "
                    f"{self.max_task_retries} re-dispatch(es) — workers "
                    f"keep {failure}"
                )
            self.redispatches += len(pending)
        return results

    def _run_wave(
        self, fn: Callable, items: list, results: list, pending: list[int]
    ) -> list[int]:
        """One submit/collect pass; returns indices needing re-dispatch."""
        pool = self._ensure_pool()
        try:
            future_map = {pool.submit(fn, items[i]): i for i in pending}
        except RuntimeError:
            # the pool broke before/while submitting (a worker died
            # between waves); rebuild and re-dispatch the whole wave
            self._terminate_pool()
            return list(pending)
        done, not_done = concurrent.futures.wait(
            future_map, timeout=self.task_timeout
        )
        failed: list[int] = []
        for future in done:
            index = future_map[future]
            try:
                results[index] = future.result()
            except concurrent.futures.process.BrokenProcessPool:
                # this task's worker (or a sibling taking the pool down
                # with it) died before the result marshalled home
                failed.append(index)
        if not_done:
            # deadline expired with tasks still running: hung workers
            failed.extend(future_map[future] for future in not_done)
        if failed or not_done:
            self._terminate_pool()
        failed.sort()
        return failed

    def _terminate_pool(self) -> None:
        """Tear the pool down now, killing hung workers if needed."""
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in processes:
            if proc.is_alive():
                proc.terminate()
        for proc in processes:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        deadline = (
            f", task_timeout={self.task_timeout}"
            if self.task_timeout is not None
            else ""
        )
        return f"ProcessExecutor(num_workers={self.num_workers}{deadline})"


#: fewest clients in one vectorized wave before the wave is split with
#: a worker process (measured at the service's shapes: DESIGN.md §13)
SHARD_MIN_CLIENTS = 16

#: fewest clients in one chunk of a split wave
_CHUNK_MIN_CLIENTS = 4

#: the array a new worker frees to raise glibc's mmap threshold
_WARM_UP_BYTES = 16 << 20


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class MegabatchExecutor(ClientExecutor):
    """Vectorized execution: one batched pass per wave of K homogeneous
    clients (:func:`repro.nn.megabatch.train_wave`), instead of K
    Python-level training loops, with large waves split between the
    coordinator and a worker process.

    Training tasks are grouped by *megabatch signature* — identical
    dataset geometry and local-SGD hyper-parameters on a stock benign
    :class:`~repro.fl.client.Client` — and each group runs as single
    stacked tensor ops on one model clone whose parameters carry a
    leading client axis (one ``clone_module`` per wave, not per
    client).  Anything that does not fit the
    vectorized contract (malicious clients, fault stubs, empty datasets,
    dtype/hyper-parameter mismatches, unsupported layers, non-update
    work such as report collection) falls through to the exact serial
    task body, so the executor is safe as a drop-in engine: every result
    is bitwise identical to :class:`SerialExecutor` and no telemetry is
    emitted during collection (the canonical stream stays byte-identical).

    ``wave_size`` caps how many clients share one batched pass; larger
    waves amortize more Python/BLAS overhead but grow the activation
    working set linearly.

    **Sharding.**  When more than one CPU is usable, a wave of at least
    :data:`SHARD_MIN_CLIENTS` clients is cut into chunks of consecutive
    clients and shared with one worker process, spawned through
    :class:`ProcessExecutor`'s pool on the second call that has such a
    wave (a caller that trains one wave never pays for a spawn).  The
    worker takes chunks from the back of the list, holding the chunk it
    runs and one more queued behind it; the coordinator trains the
    serial fallbacks, then chunks from the front, and finally the queued
    chunk if the worker has not started it.  A chunk is a smaller wave,
    so each client's rows still come from per-slice GEMMs of the serial
    shape and every delta and generator state is unchanged; the worker's
    generator states come home in the result like
    :class:`ProcessExecutor`'s.  Chunks go out only once the worker has
    answered a warm-up task, so a cold spawn never stalls a round.  A
    worker that dies or cannot start (for example because a
    ``__main__`` without an ``if __name__ == "__main__"`` guard re-runs
    in the child) costs no result: its chunks are trained in the
    coordinator and sharding stays off for this executor.  While a
    :class:`~repro.obs.profile.LayerProfiler` is installed every wave
    runs in the coordinator, so the profiler sees every layer call.
    ``close()``, context exit and garbage collection each stop the
    worker.  No worker is spawned with one usable CPU.
    """

    def __init__(self, wave_size: int = 64) -> None:
        if wave_size < 1:
            raise ValueError(f"wave_size must be >= 1, got {wave_size}")
        self.wave_size = int(wave_size)
        # the one-worker chunk-training pool, spawned on the second call
        # with a wave worth splitting; _warm is its warm-up future
        self._workers: ProcessExecutor | None = None
        self._warm: concurrent.futures.Future | None = None
        self._finalizer: weakref.finalize | None = None
        self._split_wave_seen = False
        self._sharding = True  # off for good once the worker fails

    def map_clients(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        if fn is not _run_update:
            # report collection, warm-ups, test stubs: nothing to batch
            return [fn(item) for item in items]

        results: list = [None] * len(items)
        groups: dict[tuple, list[int]] = {}
        fallback: list[int] = []
        finite: dict[int, bool] = {}  # id(global_params) -> all finite
        for index, task in enumerate(items):
            signature = _megabatch_signature(task, finite)
            if signature is None:
                fallback.append(index)
            else:
                groups.setdefault(signature, []).append(index)
        waves = [
            indices[start : start + self.wave_size]
            for indices in groups.values()
            for start in range(0, len(indices), self.wave_size)
        ]

        pool = self._shard_pool(max(map(len, waves), default=0))
        local: list[list[int]] = []
        pending: collections.deque = collections.deque()
        for wave in waves:
            if pool is None or len(wave) < SHARD_MIN_CLIENTS:
                local.append(wave)
            else:
                pending.extend(self._chunks(wave))
        inflight: list = []  # (future, chunk), in submission order

        def top_up() -> None:
            # the worker takes chunks from the back, holding one more
            # than it runs; the coordinator takes from the front
            while (
                pending
                and self._sharding
                and sum(not f.done() for f, _ in inflight) <= 1
            ):
                chunk = pending.pop()
                future = self._submit(pool, items, chunk)
                if future is None:
                    pending.append(chunk)
                else:
                    inflight.append((future, chunk))

        top_up()
        for index in fallback:
            results[index] = _run_update(items[index])
            top_up()
        for wave in local:
            _train_local(items, wave, results)
            top_up()
        while pending:
            _train_local(items, pending.popleft(), results)
            top_up()
        # the queued chunk may not have started: train it here, so the
        # worker holds only what it runs (if the worker reaches it anyway,
        # its result goes unread)
        for future, chunk in reversed(inflight):
            unfinished = sum(
                not f.done() and results[c[0]] is None for f, c in inflight
            )
            if unfinished <= 1:
                break
            if not future.done():
                _train_local(items, chunk, results)
        for future, chunk in inflight:
            if results[chunk[0]] is not None:
                continue
            if self._sharding:
                try:
                    deltas, states, seconds = future.result()
                except Exception:
                    # a dead worker costs no result: its chunks train
                    # here and later waves stay unsplit
                    self._stop_sharding()
            if not self._sharding:  # the pool is gone: no future resolves
                _train_local(items, chunk, results)
                continue
            for row, index in enumerate(chunk):
                results[index] = ("ok", deltas[row], states[row], seconds)
        return results

    # -- sharding -----------------------------------------------------

    def _shard_pool(self, largest_wave: int):
        """The warm worker pool, or None when this call trains in-process.

        Spawns the worker on the second call with a wave worth splitting
        and returns None until it has answered its warm-up task.
        """
        if (
            not self._sharding
            or largest_wave < SHARD_MIN_CLIENTS
            or get_profile_hook() is not None
        ):
            return None
        if self._workers is None:
            if _usable_cpus() < 2:
                self._sharding = False
                return None
            if not self._split_wave_seen:
                self._split_wave_seen = True
                return None
            self._workers = ProcessExecutor(num_workers=1)
            self._finalizer = weakref.finalize(
                self, self._workers._terminate_pool
            )
            try:
                self._warm = self._workers._ensure_pool().submit(_warm_up)
            except OSError:  # the system has no process to spare
                self._stop_sharding()
            return None
        if not self._warm.done():
            return None
        if self._warm.exception() is not None:
            self._stop_sharding()  # the worker could not start
            return None
        return self._workers._ensure_pool()

    @staticmethod
    def _chunks(wave: list[int]) -> list[list[int]]:
        """Cut ``wave`` into runs of consecutive clients, each of at
        least ``_CHUNK_MIN_CLIENTS`` (at the service's shapes, chunks of
        8 were no faster and chunks of 12 slower: DESIGN.md §13)."""
        count = len(wave) // _CHUNK_MIN_CLIENTS
        bounds = np.linspace(0, len(wave), count + 1).astype(int)
        return [wave[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    def _submit(self, pool, items: list, chunk: list[int]):
        """Queue one chunk for the worker; None when the pool is gone."""
        _, model, global_params, _, _ = items[chunk[0]]
        clients = [items[index][0] for index in chunk]
        try:
            return pool.submit(
                _train_chunk, (model, clients, np.asarray(global_params))
            )
        except RuntimeError:  # the pool broke between waves
            self._stop_sharding()
            return None

    def _stop_sharding(self) -> None:
        self._sharding = False
        if self._workers is not None:
            self._workers._terminate_pool()

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer.detach()
            self._workers.close()
        self._workers, self._warm, self._finalizer = None, None, None

    def __repr__(self) -> str:
        return f"MegabatchExecutor(wave_size={self.wave_size})"


def _train_local(items: list, chunk: list[int], results: list) -> None:
    """Train ``chunk`` in this process: one batched pass, or the serial
    task body for a lone client."""
    if len(chunk) == 1:
        results[chunk[0]] = _run_update(items[chunk[0]])
        return
    _, model, global_params, _, _ = items[chunk[0]]
    clients = [items[index][0] for index in chunk]
    begin = time.perf_counter()
    deltas = train_wave(model, clients, np.asarray(global_params))
    # one wall-clock measurement for the whole wave, reported as an
    # equal per-task share (the canonical stream strips durations, so
    # the split is parity-safe)
    seconds = (time.perf_counter() - begin) / len(chunk)
    for row, index in enumerate(chunk):
        results[index] = ("ok", deltas[row], _rng_state(clients[row]), seconds)


def _megabatch_signature(task, finite: dict[int, bool]) -> tuple | None:
    """Grouping key for one training task, or None for serial fallback.

    Tasks sharing a signature stack into one batched pass: same model
    and broadcast objects, same dataset geometry/dtype, same local-SGD
    hyper-parameters.  The guards mirror the serial path's failure
    modes: a non-finite broadcast, an invalid hyper-parameter, or a
    missing last conv layer must raise the *serial* exception from the
    serial code path, so those tasks are never grouped.
    """
    # late import: client.py reaches this module through the defense
    # package, so a top-level import would be circular
    from .client import megabatch_eligible

    client, model, global_params, _round_index, _clone = task
    if not megabatch_eligible(client):
        return None
    if not supports_megabatch(model):
        return None
    key = id(global_params)
    if key not in finite:
        finite[key] = bool(np.isfinite(global_params).all())
    if not finite[key]:
        return None
    if any(p.data.dtype != global_params.dtype for p in model.parameters()):
        return None
    data = client._training_data()
    if len(data) == 0:
        return None
    config = client.config
    if not (
        config.lr > 0
        and 0.0 <= config.momentum < 1.0
        and config.weight_decay >= 0
        and config.batch_size >= 1
        and config.local_epochs >= 1
        and config.last_conv_l2 >= 0
    ):
        return None
    if config.last_conv_l2 > 0 and not any(
        type(layer) is Conv2d for layer in model.layers
    ):
        return None
    return (
        id(model),
        key,
        data.images.shape,
        data.images.dtype.str,
        data.labels.dtype.str,
        config.batch_size,
        config.local_epochs,
        config.lr,
        config.momentum,
        config.weight_decay,
        config.last_conv_l2,
    )


# -- task bodies (module-level: process pools must pickle them) --------


def _rng_state(client) -> dict | None:
    """Final generator state to ship home (None for rng-less stubs)."""
    rng = getattr(client, "rng", None)
    return None if rng is None else rng.bit_generator.state


def _restore_rng(client, state: dict | None) -> None:
    """Advance the coordinator's copy of the client stream to ``state``.

    A no-op assignment for serial/thread execution (the worker already
    advanced the shared generator); the essential step for process
    execution, where the worker advanced a pickled copy.
    """
    if state is not None:
        client.rng.bit_generator.state = state


def _run_update(task) -> tuple[str, object, dict | None, float]:
    """Train one (unwrapped) client.

    Returns ``("ok", delta, rng_state, seconds)`` or — when the client
    itself raises :class:`ClientDropout` (scripted stubs, future
    transport layers) — ``("dropped", reason, rng_state, seconds)``.
    The generator state is captured either way so a failed attempt
    consumes the stream exactly as inline execution did; ``seconds`` is
    the worker-measured wall-clock of the task, shipped home so the
    coordinator can record a telemetry span for work it never saw run.
    """
    client, model, global_params, round_index, clone = task
    start = time.perf_counter()
    if clone:
        model = clone_module(model)
    try:
        delta = client.local_update(model, global_params, round_index)
    except ClientDropout as exc:
        return (
            "dropped",
            str(exc) or type(exc).__name__,
            _rng_state(client),
            time.perf_counter() - start,
        )
    return "ok", delta, _rng_state(client), time.perf_counter() - start


def _warm_up() -> None:
    """A worker's first task: unpickling it imports this module, so a
    worker that answers is ready to train chunks.

    It also frees one 16 MiB array.  Under glibc that raises the
    process's dynamic mmap threshold above a chunk's scratch arrays, as
    the coordinator's evaluation batches raise its own; without it every
    step of a chunk maps and faults in fresh pages, and a worker trained
    a chunk about twice as slowly as the coordinator.
    """
    np.empty(_WARM_UP_BYTES, dtype=np.uint8)  # freed at once


def _train_chunk(payload) -> tuple[np.ndarray, list, float]:
    """Train one chunk of a split wave in a worker process.

    Returns the ``(K, dim)`` deltas, each client's final generator
    state, and the per-client share of the chunk's wall-clock time.
    """
    model, clients, global_params = payload
    start = time.perf_counter()
    deltas = train_wave(model, clients, global_params)
    seconds = (time.perf_counter() - start) / len(clients)
    return deltas, [_rng_state(client) for client in clients], seconds


def _run_report(task) -> tuple[str, object, dict | None, float]:
    """Compute one (unwrapped) client's report; same envelope as updates."""
    client, model, layer_index, mode, prune_rate, clone = task
    start = time.perf_counter()
    if clone:
        model = clone_module(model)
    try:
        if mode == "accuracy":
            report = client.accuracy_report(model)
        else:
            layer = list(model.modules())[layer_index]
            if mode == "ranking":
                report = client.ranking_report(model, layer)
            else:
                report = client.vote_report(model, layer, prune_rate)
    except ClientDropout as exc:
        return (
            "dropout",
            str(exc) or type(exc).__name__,
            _rng_state(client),
            time.perf_counter() - start,
        )
    return "ok", report, _rng_state(client), time.perf_counter() - start


def _unwrap(client):
    """The trainable client under a FaultyClient wrapper (or itself)."""
    return getattr(client, "inner", client)


def _client_id(client):
    """Telemetry-friendly client identity (None for id-less stubs)."""
    return getattr(_unwrap(client), "client_id", None)


# -- orchestration -----------------------------------------------------


def collect_updates(
    executor: ClientExecutor | None,
    clients: Sequence,
    model,
    global_params: np.ndarray,
    *,
    round_index: int | None = None,
    retries: int = 0,
    telemetry: Telemetry | None = None,
) -> list[tuple[str, object]]:
    """Collect one local-update payload per client, faults included.

    Returns a list aligned with ``clients``: ``("ok", payload)`` for a
    delivered (possibly corrupted — validation is the caller's job)
    payload, or ``("dropped", reason)`` when the client never responded
    within the retry budget.

    Collection runs in retry waves.  Each wave first resolves fault
    plans on the coordinator in stable client order — dropout/timeout
    draws consume attempts from the same ``1 + retries`` budget the
    historical inline retry loop used — then fans the surviving
    training jobs out through ``executor`` and finishes each plan
    (staleness bookkeeping, pre-drawn corruption, generator state) back
    on the coordinator, again in client order.  A client whose *own*
    ``local_update`` raises :class:`ClientDropout` re-enters the next
    wave while its budget lasts.

    ``telemetry`` records one ``exec.local_update`` span per dispatched
    task (the duration is worker-measured and marshalled home) plus
    ``exec.retry`` events — always in stable task order on the
    coordinator, so the stream is identical across executor engines.
    """
    if executor is None:
        executor = _DEFAULT_EXECUTOR
    tel = ensure_telemetry(telemetry)
    global_params = np.asarray(global_params)
    param_dim = int(global_params.size)
    clone = not executor.clones_payloads

    outcomes: list[tuple[str, object] | None] = [None] * len(clients)
    # mutable job records: [position, client, attempts_left, last_reason]
    jobs = [[i, client, 1 + retries, "no response"] for i, client in enumerate(clients)]
    wave_index = 0
    while jobs:
        wave: list[tuple[list, object]] = []  # (job, plan or None)
        for job in jobs:
            position, client = job[0], job[1]
            planner = getattr(client, "plan_local_update", None)
            plan = None
            if planner is not None:
                while job[2] > 0:
                    candidate = planner(param_dim)
                    if candidate.action in ("dropout", "timeout"):
                        job[2] -= 1
                        job[3] = candidate.error
                        continue
                    plan = candidate
                    break
                if plan is None:  # budget exhausted while planning
                    outcomes[position] = ("dropped", job[3])
                    continue
                if plan.action == "stale":
                    outcomes[position] = ("ok", client._last_delta.copy())
                    continue
            job[2] -= 1  # the dispatch itself consumes one attempt
            wave.append((job, plan))
        if not wave:
            break
        with tel.span("exec.wave", index=wave_index, tasks=len(wave)):
            strip_runtime_state(model)
            tasks = [
                (_unwrap(job[1]), model, global_params, round_index, clone)
                for job, _ in wave
            ]
            results = executor.map_clients(_run_update, tasks)
            jobs = []
            for (job, plan), (status, value, rng_state, seconds) in zip(
                wave, results
            ):
                position, client = job[0], job[1]
                _restore_rng(_unwrap(client), rng_state)
                tel.record_span(
                    "exec.local_update",
                    seconds,
                    client=_client_id(client),
                    status=status,
                    attempt=1 + retries - job[2],
                )
                if status == "ok":
                    delta = value
                    if plan is not None:
                        delta = client.finish_local_update(plan, delta)
                    outcomes[position] = ("ok", delta)
                elif job[2] > 0:
                    job[3] = value
                    tel.event(
                        "exec.retry", client=_client_id(client), reason=value
                    )
                    jobs.append(job)  # retry in the next wave
                else:
                    outcomes[position] = ("dropped", value)
        wave_index += 1

    # worker re-dispatches happen only when workers die, so the gauge is
    # emitted only then — quiet runs stay byte-identical across engines
    redispatches = getattr(executor, "redispatches", 0)
    if redispatches:
        tel.gauge("exec.redispatches", redispatches)

    return outcomes


def dispatch_updates(
    executor: ClientExecutor | None,
    clients: Sequence,
    model,
    global_params: np.ndarray,
    *,
    round_index: int | None = None,
    telemetry: Telemetry | None = None,
) -> list[tuple[str, object]]:
    """One fan-out wave of training tasks, no fault planning, no retries.

    The streaming service (:mod:`repro.fl.service`) resolves fault
    plans and arrival times itself — by the time it reaches dispatch it
    only has clients that *will* train (timeout plans included: a
    straggler's delta still materializes, it just arrives late).  This
    helper runs exactly that wave: fan the tasks out through
    ``executor``, marshal the per-client RNG streams home, and record
    one ``exec.local_update`` span per task in stable client order.

    Returns a list aligned with ``clients``: ``("ok", delta)`` or
    ``("dropped", reason)`` when the client's own ``local_update``
    raised :class:`~repro.fl.faults.ClientDropout`.
    """
    if executor is None:
        executor = _DEFAULT_EXECUTOR
    tel = ensure_telemetry(telemetry)
    global_params = np.asarray(global_params)
    clone = not executor.clones_payloads
    outcomes: list[tuple[str, object]] = []
    if not clients:
        return outcomes
    with tel.span("exec.wave", index=0, tasks=len(clients)):
        strip_runtime_state(model)
        tasks = [
            (_unwrap(client), model, global_params, round_index, clone)
            for client in clients
        ]
        results = executor.map_clients(_run_update, tasks)
        for client, (status, value, rng_state, seconds) in zip(clients, results):
            _restore_rng(_unwrap(client), rng_state)
            tel.record_span(
                "exec.local_update",
                seconds,
                client=_client_id(client),
                status=status,
                attempt=1,
            )
            outcomes.append((status, value))
    redispatches = getattr(executor, "redispatches", 0)
    if redispatches:
        tel.gauge("exec.redispatches", redispatches)
    return outcomes


def collect_reports(
    executor: ClientExecutor | None,
    clients: Sequence,
    model,
    mode: str,
    *,
    layer=None,
    prune_rate: float | None = None,
    telemetry: Telemetry | None = None,
) -> list[tuple[str, object]]:
    """Collect one report per client: ``mode`` is ``"ranking"``,
    ``"vote"`` or ``"accuracy"``.

    Returns a list aligned with ``clients``: ``("ok", report)`` for a
    delivered (possibly malformed — validation is the caller's job)
    report, or ``("dropout", message)`` when the report was planned
    missing or the client itself raised :class:`ClientDropout`.  Report
    faults are planned on the coordinator in client order, like update
    faults; accuracy reports have no fault interception (matching the
    inline protocol) and dispatch unconditionally.

    ``telemetry`` records one ``exec.report`` span per dispatched task
    (worker-measured duration, coordinator-side marshalling in stable
    task order), so the stream is identical across executor engines.
    """
    if executor is None:
        executor = _DEFAULT_EXECUTOR
    if mode not in ("ranking", "vote", "accuracy"):
        raise ValueError(f"unknown report mode {mode!r}")
    tel = ensure_telemetry(telemetry)
    vote = mode == "vote"
    num_channels = int(layer.out_mask.size) if layer is not None else 0

    outcomes: list[tuple[str, object] | None] = [None] * len(clients)
    dispatch: list[tuple[int, object, object]] = []
    for position, client in enumerate(clients):
        planner = getattr(client, "plan_report", None)
        if planner is None or mode == "accuracy":
            dispatch.append((position, client, None))
            continue
        plan = planner(num_channels, vote)
        if plan.action == "missing":
            outcomes[position] = ("dropout", plan.error)
        else:
            dispatch.append((position, client, plan))

    if dispatch:
        with tel.span("exec.report_wave", mode=mode, tasks=len(dispatch)):
            strip_runtime_state(model)
            layer_index = (
                list(model.modules()).index(layer) if layer is not None else -1
            )
            clone = not executor.clones_payloads
            tasks = [
                (_unwrap(client), model, layer_index, mode, prune_rate, clone)
                for _, client, _ in dispatch
            ]
            results = executor.map_clients(_run_report, tasks)
            for (position, client, plan), (status, value, rng_state, seconds) in zip(
                dispatch, results
            ):
                _restore_rng(_unwrap(client), rng_state)
                tel.record_span(
                    "exec.report",
                    seconds,
                    client=_client_id(client),
                    status=status,
                    mode=mode,
                )
                if status == "ok" and plan is not None:
                    value = client.finish_report(plan, value, vote)
                outcomes[position] = (status, value)

    return outcomes


_DEFAULT_EXECUTOR = SerialExecutor()
