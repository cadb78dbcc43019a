#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig9_mnist --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A run builds the workload's seeded inputs several times (``setup_s`` is
the median), then runs the workload's minimum number of timed passes and
more while the passes' time plus the longest pass still fits in
``--seconds``.  Each pass is built just before it runs and checked and
released just after, so memory does not grow with the number of passes.
With ``--trace 0`` the last line reports every end-to-end metric of
``BENCHMARK.json`` (medians over the passes; round-time percentiles
over every round of the run).  With ``--trace 1`` it runs the minimum untraced passes and
one traced pass, and reports every per-layer metric from the traced one.  Lines
before the last are a human-readable report: environment, checks, each
metric with its unit, and, for a traced run, which rows do not apply to
the workload and what each layer row is predicted to move
(``perfbench/predictions.json``).  ``--workload all`` runs every
workload in its own child process and exits non-zero if any fails.

The program is imported from ``src/`` of the same checkout; without it
the benchmark exits with status 2 and prints no result.
"""

# BLAS pools are pinned to one thread before numpy is first imported.
import os

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: builds of the workload's inputs per run; setup_s is their median
SETUP_REPEATS = 5

#: scalar fields of a pass result kept once the pass has been checked
SUMMARY_KEYS = (
    "wall_s", "cpu_s", "defense_s", "samples", "rounds", "round_seconds",
    "test_acc", "attack_acc", "peak_rss_mb", "facts",
)

#: per-nn-layer rows: metric prefix -> (LayerProfiler class name, fields)
NN_ROWS = {
    "conv2d": ("Conv2d", ("fwd_s", "bwd_s", "calls", "bytes")),
    "maxpool2d": ("MaxPool2d", ("fwd_s", "bwd_s")),
    "relu": ("ReLU", ("fwd_s", "bwd_s")),
    "linear": ("Linear", ("fwd_s", "bwd_s")),
    "avgpool2d": ("AvgPool2d", ("fwd_s",)),
}

#: LayerProfiler.stats fields summed into each row field
_ROW_FIELDS = {
    "fwd_s": ("forward_seconds",),
    "bwd_s": ("backward_seconds",),
    "calls": ("forward_calls", "backward_calls"),
    "bytes": ("input_bytes", "output_bytes", "grad_bytes"),
}


def _load_json(*parts: str) -> dict:
    with open(os.path.join(*parts), encoding="utf-8") as handle:
        return json.load(handle)


def _import_program():
    """Import the program from ``src/`` of this checkout; exit 2 when it is
    missing, so the benchmark never measures a copy found elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    try:
        import numpy  # noqa: F401
        import tracing
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        sys.exit(2)
    return workloads, tracing


def pass_seed(seed: int, index: int) -> int:
    """Input seed of a run's ``index``-th pass.  Passes of one run see
    different inputs, so a run's medians average over inputs as well as
    over repeats; the traced pass reuses pass 0's inputs."""
    return seed * 1000 + index


def _percentile(values: list[float], q: int) -> float:
    """Interpolated ``q``-th percentile.  Round times of a run are
    bimodal (rounds before and after the attack starts), and a
    nearest-rank percentile at the edge between the two modes jumps
    between them from run to run; interpolation moves smoothly."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _reset_peak_rss() -> bool:
    """Reset the kernel's resident-set high-water mark of this process."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mb(since_reset: bool) -> float:
    """Peak resident set in MiB since the last reset, or over the whole
    process where the high-water mark cannot be reset."""
    if since_reset:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _filesystem(path: str) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def _environment(workdir: str, heldout_seed: int) -> dict:
    import numpy

    return {
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "checkpoint_fs": _filesystem(workdir),
        "heldout_seed": heldout_seed,
    }


# -- metrics --------------------------------------------------------------


def end_to_end(results, setup_seconds, attempted, failed) -> dict:
    """Every end-to-end metric, as medians over the untraced passes."""
    rounds = [s for r in results for s in r["round_seconds"]]

    def median(key):
        return statistics.median(r[key] for r in results)

    return {
        "setup_s": statistics.median(setup_seconds),
        "wall_s": median("wall_s"),
        "cpu_s": median("cpu_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "samples_per_s": statistics.median(r["samples"] / r["wall_s"] for r in results),
        "ops_ok_frac": (attempted - failed) / attempted,
        "defense_s": median("defense_s"),
        "rounds_per_s": statistics.median(r["rounds"] / r["wall_s"] for r in results),
        "round_ms_p50": 1000 * _percentile(rounds, 50),
        "round_ms_p90": 1000 * _percentile(rounds, 90),
    }


def per_layer(tracer, rows, traced, untraced_wall, load_s, root_span, nn_self) -> dict:
    """Every per-layer metric from one traced pass."""
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    facts = traced["facts"]
    metrics = {"nn.self_s": self_s[nn_self]}
    for prefix, (cls, fields) in NN_ROWS.items():
        entries = [e for key, e in rows.items() if key.split("(")[0] == cls]
        for field in fields:
            metrics[f"nn.{prefix}.{field}"] = sum(
                e[stat] for e in entries for stat in _ROW_FIELDS[field]
            )
    tasks = counts["update_tasks"]
    batched = counts["megabatch_clients"] / tasks if tasks else 0.0
    saves = tracer.durations["persist.save"]
    start, end = tracer.root_window()
    metrics.update({
        "quality.test_acc": traced["test_acc"],
        "quality.attack_acc": traced["attack_acc"],
        "nn.covered_share": 1.0 - batched,
        "nn.megabatch.train_wave_s": self_s["nn.megabatch.train_wave"],
        "nn.megabatch.waves": calls["nn.megabatch.train_wave"],
        "nn.megabatch.clients": counts["megabatch_clients"],
        "fl.executor.update_wave_s": self_s["fl.executor.update_wave"],
        "fl.executor.update_tasks": tasks,
        "fl.executor.report_wave_s": self_s["fl.executor.report_wave"],
        "fl.executor.report_tasks": counts["report_tasks"],
        "fl.executor.batched_share": batched,
        "fl.client.local_update_s": self_s["fl.client.local_update"],
        "fl.client.local_updates": calls["fl.client.local_update"],
        "fl.server.train_s": self_s["fl.server.train"],
        "defense.prune_order_s": self_s["defense.prune_order"],
        "defense.prune_s": self_s["defense.prune"],
        "defense.fine_tune_s": self_s["defense.fine_tune"],
        "defense.adjust_s": self_s["defense.adjust"],
        "defense.oracle_calls": calls["defense.oracle"],
        "defense.oracle_s": self_s["defense.oracle"],
        "baselines.nc_s": self_s["baselines.nc"],
        "eval.test_accuracy_s": self_s["eval.test_accuracy"],
        "eval.attack_success_rate_s": self_s["eval.attack_success_rate"],
        "persist.save_s": self_s["persist.save"],
        "persist.save_ms_p50": 1000 * statistics.median(saves) if saves else 0.0,
        "persist.saves": calls["persist.save"],
        "persist.snapshot_bytes": facts.get("snapshot_bytes", 0),
        "persist.load_s": load_s,
        "fl.transport.transmit_s": self_s["fl.transport.transmit"],
        "fl.transport.messages": calls["fl.transport.transmit"],
        "fl.transport.delivery_rate": facts.get("delivery_rate", 0.0),
        "fl.transport.gate_check_s": self_s["fl.transport.gate_check"],
        "fl.transport.dedup_hits": facts.get("dedup_hits", 0),
        "fl.trust.score_round_s": self_s["fl.trust.score_round"],
        "fl.trust.quarantines": facts.get("quarantines", 0),
        "fl.aggregation.aggregate_s": self_s["fl.aggregation.aggregate"],
        "obs.metrics.fold_s": self_s["obs.metrics.fold"],
        "obs.metrics.records": calls["obs.metrics.fold"],
        "fl.service.round_self_s": self_s["fl.service.round"],
        "fl.service.cleanses": facts.get("cleanses", 0),
        "fl.service.commit_latency_sim_p99_s": facts.get("commit_latency_sim_p99_s", 0.0),
        "trace.wall_s": end - start,
        "trace.self_sum_s": math.fsum(self_s.values()),
        "trace.unattributed_s": self_s[root_span],
        "trace.overhead_frac": (end - start) / untraced_wall - 1.0,
    })
    return metrics


# -- one workload ---------------------------------------------------------


def run_workload(args) -> int:
    spec = _load_json(ROOT, "BENCHMARK.json")
    predictions = _load_json(HERE, "predictions.json")
    workloads, tracing = _import_program()
    workload = workloads.WORKLOADS[args.workload]
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace}"]
    try:
        env = _environment(workdir, predictions["heldout_seed"])
        setup_seconds = []

        def build(index):
            start = time.perf_counter()
            world = workload.setup(pass_seed(args.seed, index), workdir)
            setup_seconds.append(time.perf_counter() - start)
            return world

        # set-ups that are only timed, so every run has SETUP_REPEATS of them
        for _ in range(SETUP_REPEATS - workload.MIN_PASSES):
            build(0)

        # untraced passes: the workload's minimum, then more while the
        # passes so far plus the longest one still fit in --seconds
        results, checks = [], []
        spent, longest = 0.0, 0.0
        while len(results) < workload.MIN_PASSES or (
            not args.trace and spent + longest <= args.seconds
        ):
            world = build(len(results))
            since_reset = _reset_peak_rss()
            start = time.perf_counter()
            result = workload.run(world)
            seconds = time.perf_counter() - start
            result["peak_rss_mb"] = _peak_rss_mb(since_reset)
            spent, longest = spent + seconds, max(longest, seconds)
            checks.extend(workload.check(world, result))
            results.append({key: result[key] for key in SUMMARY_KEYS})
            del world, result
        traced = tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            traced = workload.run(build(0), tracer)
            first = results[0]
            same = (traced["test_acc"], traced["attack_acc"]) == (
                first["test_acc"], first["attack_acc"]
            )
            checks.append(("trace_transparent", same, "traced pass TA/ASR equal untraced"))
        attempted = len(checks)
        failed = sum(1 for _, ok, _ in checks if not ok)

        if traced is None:
            wanted = spec["end_to_end"]
            values = end_to_end(results, setup_seconds, attempted, failed)
        else:
            wanted = spec["per_layer"]
            load_s = next(
                (r["facts"]["load_s"] for r in results if "load_s" in r["facts"]), 0.0
            )
            untraced_wall = statistics.median(r["wall_s"] for r in results)
            values = per_layer(
                tracer, tracer.layer_rows, traced, untraced_wall, load_s,
                workloads.ROOT_SPAN, tracing.NN_SELF,
            )
            # self times telescope to the root span by construction, so this
            # is a report line on the tracer itself, not a check of the program
            drift = abs(values["trace.self_sum_s"] - values["trace.wall_s"])
            lines.append(f"trace self times sum to traced wall within {drift:.2e} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if set(values) != set(names):
        raise SystemExit(
            f"perfbench: metrics drifted from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(names))}"
        )
    lines.insert(1, "env " + json.dumps(env, sort_keys=True))
    lines.insert(2, f"passes={len(results)} setups={len(setup_seconds)}")
    for name, ok, detail in checks:
        lines.append(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    lines.extend(_metric_lines(args.workload, wanted, values, predictions, traced))
    print("\n".join(lines))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def _metric_lines(workload, wanted, values, predictions, traced) -> list[str]:
    lines = []
    applies, moves = {}, {}
    for group in predictions["layers"]:
        for name in group["metrics"]:
            applies[name] = group["applies"]
            moves[name] = group["moves"]
    for m in wanted:
        name, value = m["name"], values[m["name"]]
        text = f"metric {name} = {value:.6g} {m['unit']} ({m['better']} is better)"
        if traced is not None:
            if workload not in applies[name]:
                text = f"metric {name} = n/a on {workload} (reported as 0)"
            elif name.startswith("nn.") and not name.startswith("nn.megabatch"):
                share = values["fl.executor.batched_share"]
                if share > 0:
                    text += (f" [serial path only: {share:.0%} of update tasks ran "
                             "in megabatch waves, not covered]")
            predicted = "; ".join(
                f"{metric} on {', '.join(names)}" for metric, names in moves[name].items()
            )
            text += f"  moves: {predicted or 'nothing'}"
        lines.append(text)
    return lines


# -- every workload ---------------------------------------------------------


def run_all(args) -> int:
    spec = _load_json(ROOT, "BENCHMARK.json")
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for entry in spec["workloads"]:
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", entry["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            status = 1
        try:
            result = json.loads(child.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{entry['name']}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    spec = _load_json(ROOT, "BENCHMARK.json")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
