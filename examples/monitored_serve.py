"""Watch the defense service live: metrics windows and SLO alerts.

Boots :class:`~repro.fl.service.DefenseService` (DESIGN.md §12) over a
chaos network and plugs in the live monitoring stack
(:mod:`repro.obs.metrics` + :mod:`repro.obs.alerts`, DESIGN.md §16):

* **windowed SLIs** — an online aggregator folds the telemetry stream
  into per-round windows on the simulated clock: commit-latency
  p50/p90/p99 from fixed-boundary histogram sketches, quorum-failure /
  shed / late rates, wire loss/dup rates, trust churn, backlog depth;
* **SLO alerting** — the default Prometheus-style rule catalog
  (threshold + ``for``-duration + hysteresis) watches the windows; the
  chaos partition breaks the net-loss SLO, the alert *fires*, and the
  heal *resolves* it again — both transitions land as schema-registered
  ``alert.*`` events in the same trace as everything else;
* **offline parity** — re-folding the captured trace through
  :func:`~repro.obs.metrics.fold_records` reproduces the live series
  exactly (the script proves it), so dashboards built after the fact
  agree with the ones watched live.

The run is fully deterministic: rerunning this script reproduces the
same windows, the same alert timeline and the same bytes.

Usage::

    python examples/monitored_serve.py [--rounds 10] [--seed 11]
    python examples/monitored_serve.py --network "chaos:loss=0.4"
"""

from __future__ import annotations

import argparse
import json

from repro.experiments.scale import build_bench_world
from repro.fl.faults import FaultModel, wrap_clients
from repro.fl.service import DefenseService, ServiceConfig
from repro.fl.traffic import make_schedule
from repro.fl.transport import make_network
from repro.obs import RingBufferSink, RunContext, Telemetry
from repro.obs.alerts import ServiceMetrics, default_rules
from repro.obs.metrics import fold_records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--deadline", type=float, default=10.0)
    parser.add_argument(
        "--scale", default="smoke", help="benchmark world size"
    )
    parser.add_argument(
        "--network",
        default="chaos",
        help="network spec (the default chaos preset schedules a "
        "partition that fires the net-loss alert and a heal that "
        "resolves it)",
    )
    args = parser.parse_args()

    model, clients, dataset = build_bench_world(args.scale, seed=args.seed)
    faults = FaultModel(
        straggler_prob=0.3,
        straggler_delay=(1.0, 2 * args.deadline),
        deadline_seconds=args.deadline,
        seed=args.seed + 2,
    )
    hub = Telemetry()
    ring = hub.add_sink(RingBufferSink())
    rules = default_rules()
    metrics = ServiceMetrics(rules=rules, round_interval=args.deadline)
    service = DefenseService(
        model,
        wrap_clients(clients, faults),
        dataset,
        ServiceConfig(
            round_deadline=args.deadline,
            quorum=0.5,
            eval_every=0,
        ),
        traffic=make_schedule("steady", seed=args.seed + 3),
        network=make_network(args.network, seed=args.seed + 5),
        context=RunContext(telemetry=hub, fault_model=faults),
        metrics=metrics,
    )
    history = service.run(args.rounds)
    hub.close()

    print(f"{len(history.committed_rounds)}/{len(history)} rounds committed, "
          f"{len(metrics.series)} metric window(s) sealed")
    print(f"watching {len(rules)} SLO rule(s): "
          + ", ".join(rule.name for rule in rules))

    # the alert timeline: the chaos partition pushes net_loss_rate over
    # its threshold for long enough to fire; the heal brings it back
    # under the (lower) resolve bound and the alert resolves
    print("\nalert timeline:")
    for t in metrics.timeline:
        marker = "FIRED   " if t["action"] == "fired" else "resolved"
        print(f"  window {t['window']:>2} {marker} {t['alert']} "
              f"({t['sli']}={t['value']:g} vs {t['threshold']:g})")
    fired = [t for t in metrics.timeline if t["action"] == "fired"]
    resolved = [t for t in metrics.timeline if t["action"] == "resolved"]
    assert fired, "expected the chaos run to fire at least one alert"
    assert resolved, "expected the heal to resolve an alert"
    assert not service.metrics.engine.firing(), (
        "every alert should have resolved by the end of the run"
    )

    # a few windows, the way the dashboard sees them
    print("\nsample windows (net_loss_rate / commit_latency_p99):")
    for window in metrics.series[:: max(len(metrics.series) // 5, 1)]:
        slis = window["slis"]
        print(f"  window {window['window']:>2} rounds "
              f"{window['start_round']}-{window['end_round']}: "
              f"net_loss_rate={slis['net_loss_rate']:.3f} "
              f"p99={slis['commit_latency_p99']:.2f}s")

    # offline parity: folding the captured trace through the same rules
    # reproduces the live series byte-for-byte
    refolded = fold_records(ring.events, round_interval=args.deadline)
    identical = json.dumps(refolded.series, sort_keys=True) == json.dumps(
        metrics.series, sort_keys=True
    )
    print(f"\noffline fold of the trace == live series: {identical}")
    assert identical, "offline fold diverged from the online aggregator"

    alert_events = [
        r for r in ring.events
        if r.get("kind") == "event" and r["name"].startswith("alert.")
    ]
    print(f"{len(alert_events)} alert.* event(s) in the validated trace — "
          f"alert history rides with the run, not beside it")


if __name__ == "__main__":
    main()
