#!/usr/bin/env bash
# Full verification: the fast default suite, then the slow tier.
#
# The default pytest run deselects tests marked `slow` (multi-second
# process-spawn / kill-and-resume chaos); this script is the complete
# gate CI and pre-merge checks should run.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== fast suite (slow tests deselected) =="
python -m pytest -x -q

echo "== slow tier (process kill/hang recovery, end-to-end resume) =="
python -m pytest -x -q -m slow

echo "== trace round-trip (emit -> validate -> analyze) =="
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
python -m repro.experiments.cli table1 --scale smoke \
    --trace-out "$TRACE_TMP/verify_trace.jsonl"
python scripts/trace.py --strict validate "$TRACE_TMP/verify_trace.jsonl"
python scripts/trace.py summarize "$TRACE_TMP/verify_trace.jsonl" | head -20

echo "== service (deadline-scheduled rounds under bursty traffic) =="
python -m repro.experiments.cli serve --scale smoke --schedule bursty \
    --service-rounds 6 --trace-out "$TRACE_TMP/service_trace.jsonl"
python scripts/trace.py --strict validate "$TRACE_TMP/service_trace.jsonl"

echo "== robustness matrix (attack x defense sub-grid, incl. cleanse) =="
python -m repro.experiments.cli matrix --scale smoke --max-rounds 2 \
    --attack badnets,lie \
    --aggregator fedavg,foolsgold,cleanse \
    --trace-out "$TRACE_TMP/matrix_trace.jsonl"
python scripts/trace.py --strict validate "$TRACE_TMP/matrix_trace.jsonl"

echo "== network chaos (partition-heal drill, idempotent ingest) =="
python - <<'EOF'
from repro.experiments.scale import build_bench_world
from repro.fl.faults import FaultModel, wrap_clients
from repro.fl.service import DefenseService, ServiceConfig
from repro.fl.traffic import make_drill
from repro.fl.transport import make_network
from repro.obs.context import RunContext
from repro.obs.schema import validate_stream
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry

SEED = 11
traffic, spec = make_drill("partition_heal", seed=SEED + 3)
network = make_network(spec, seed=SEED + 5)
model, clients, dataset = build_bench_world("smoke", seed=SEED)
faults = FaultModel(
    straggler_prob=0.3,
    straggler_delay=(1.0, 20.0),
    duplicate_prob=0.2,
    deadline_seconds=10.0,
    seed=SEED + 2,
)
hub = Telemetry()
ring = hub.add_sink(RingBufferSink())
service = DefenseService(
    model,
    wrap_clients(clients, faults),
    dataset,
    ServiceConfig(round_deadline=10.0, quorum=0.5, eval_every=0),
    traffic=traffic,
    network=network,
    context=RunContext(telemetry=hub, fault_model=faults),
)
history = service.run(7)
hub.close()

# every round commits or degrades per policy; nothing silently vanishes
assert len(history) == 7, len(history)
# the epoch fence + dedup gate: nothing is ever aggregated twice
origins = history.aggregated_origins
assert len(origins) == len(set(origins)), "double aggregation"
# the drill actually exercised the transport (partition held traffic)
counts = history.network_counts()
assert counts["held"] > 0, counts
problems = validate_stream(ring.events)
assert not problems, problems
summary = network.summary()
print(
    f"drill ok: {len(history.committed_rounds)}/7 rounds committed, "
    f"{len(origins)} unique aggregated origins, "
    f"held={counts['held']} dedup={counts['dedup']} "
    f"fenced={counts['fenced']} "
    f"delivery_rate={summary['delivery_rate']:.3f}; schema valid"
)
EOF

python -m repro.experiments.cli serve --scale smoke --schedule steady \
    --network chaos --service-rounds 6 \
    --trace-out "$TRACE_TMP/network_trace.jsonl"
python scripts/trace.py --strict validate "$TRACE_TMP/network_trace.jsonl"

echo "== live metrics + SLO alerting (chaos serve fires and resolves) =="
python -m repro.experiments.cli serve --scale smoke --network chaos \
    --service-rounds 10 --rules default \
    --metrics-out "$TRACE_TMP/metrics.jsonl" \
    --trace-out "$TRACE_TMP/metrics_trace.jsonl"
python scripts/trace.py --strict validate "$TRACE_TMP/metrics_trace.jsonl"
python - "$TRACE_TMP/metrics_trace.jsonl" "$TRACE_TMP/metrics.jsonl" <<'EOF'
import io
import sys

from repro.obs.analysis import load_trace
from repro.obs.metrics import fold_records, read_series, write_series

trace_path, series_path = sys.argv[1], sys.argv[2]
records = load_trace(trace_path, strict=True).records
by_name = {}
for record in records:
    if record.get("kind") == "event":
        by_name.setdefault(record["name"], []).append(record)

# the chaos network breaks the net-loss SLO: the alert must fire in the
# trace, and the heal must resolve it again
fired = by_name.get("alert.fired", [])
resolved = by_name.get("alert.resolved", [])
assert fired, "no alert.fired events in the chaos trace"
assert resolved, "no alert.resolved events in the chaos trace"
assert any(e["attrs"]["alert"] == "net-loss-rate" for e in fired), fired
assert by_name.get("metrics.window"), "no metrics.window events"

# the exported series must equal an offline fold of the same trace,
# byte for byte (online/offline determinism contract)
exported = read_series(series_path)
buffer = io.StringIO()
write_series(fold_records(records).series, buffer)
with open(series_path, encoding="utf-8") as handle:
    assert handle.read() == buffer.getvalue(), "exported series != offline fold"
print(
    f"metrics ok: {len(exported)} windows, "
    f"{len(fired)} firing(s) / {len(resolved)} resolution(s), "
    "offline fold identical"
)
EOF
python scripts/dashboard.py --series "$TRACE_TMP/metrics.jsonl"

echo "== megabatch wave parity (one 64-client vectorized wave vs serial, bitwise) =="
python -m pytest -q \
    "tests/fl/test_megabatch.py::TestWaveParity::test_deltas_and_rng_bitwise_identical[cohort-64]"
