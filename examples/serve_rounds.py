"""Stream the always-on defense service over adversarial traffic.

Boots :class:`~repro.fl.service.DefenseService` (DESIGN.md §12) on the
seeded synthetic benchmark federation and walks through its whole
repertoire on the simulated clock:

* **deadline-scheduled rounds** — each round commits at the arrival of
  the quorum-th report, or fails at the deadline,
* **traffic** — a bursty schedule composed with a flash-crowd spike and
  one adversarially just-late client (:mod:`repro.fl.traffic`),
* **online trust** — per-client EWMA scoring; two boosted attackers are
  trust-quarantined, ride probation, and (being persistent) stay out,
* **graceful degradation** — when the flash crowd starves quorum the
  service freezes aggregation and rolls back to its last snapshot.

The run is fully deterministic: rerunning this script reproduces the
same history, latencies and telemetry byte-for-byte.

Usage::

    python examples/serve_rounds.py [--rounds 12] [--seed 11]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.experiments.scale import build_bench_world
from repro.fl.faults import FaultModel, wrap_clients
from repro.fl.service import DefenseService, ServiceConfig
from repro.fl.traffic import (
    AdversarialTraffic,
    BurstyTraffic,
    ComposedTraffic,
    FlashCrowdTraffic,
)
from repro.fl.trust import TrustConfig
from repro.obs import RingBufferSink, RunContext, Telemetry


class BoostedClient:
    """Wraps a client and scales its delta: a model-replacement attacker."""

    def __init__(self, base, factor=-12.0):
        self._base = base
        self.factor = factor

    def __getattr__(self, name):
        return getattr(self.__dict__["_base"], name)

    def local_update(self, model, global_params, round_index=None):
        return self._base.local_update(model, global_params, round_index) * self.factor


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--deadline", type=float, default=10.0)
    args = parser.parse_args()

    model, clients, dataset = build_bench_world("smoke", seed=args.seed)
    clients = [
        BoostedClient(c) if c.client_id in (2, 5) else c for c in clients
    ]
    faults = FaultModel(
        straggler_prob=0.3,
        straggler_delay=(1.0, 2 * args.deadline),
        deadline_seconds=args.deadline,
        seed=args.seed + 1,
    )
    spike = [args.rounds // 3] if args.rounds >= 3 else []
    traffic = ComposedTraffic(
        [
            BurstyTraffic(seed=args.seed + 3, burst_prob=0.3),
            FlashCrowdTraffic(
                seed=args.seed + 4, spike_rounds=spike, service_time=25.0
            ),
            AdversarialTraffic(
                seed=args.seed + 5, targets=[3], deadline=args.deadline
            ),
        ]
    )

    hub = Telemetry()
    ring = hub.add_sink(RingBufferSink())
    service = DefenseService(
        model,
        wrap_clients(clients, faults),
        dataset,
        ServiceConfig(
            round_deadline=args.deadline,
            quorum=4,
            degraded_after=2,
            eval_every=0,
            trust=TrustConfig(smoothing=0.5, min_observations=3),
            cleanse_threshold=0.9,
            cleanse_cooldown=100,
            min_cleanse_clients=2,
        ),
        traffic=traffic,
        context=RunContext(telemetry=hub, fault_model=faults),
    )
    history = service.run(args.rounds)
    hub.close()

    percentiles = history.latency_percentiles()
    counts = history.report_counts()
    print(f"{len(history.committed_rounds)}/{len(history)} rounds committed "
          f"(simulated p50={percentiles['p50']:.2f}s "
          f"p99={percentiles['p99']:.2f}s)")
    print(f"reports: admitted={counts['admitted']} late={counts['late']} "
          f"deferred={counts['deferred']} invalid={counts['invalid']} "
          f"no_response={counts['no_response']}")
    if history.quorum_failed_rounds:
        print(f"quorum failed in rounds {history.quorum_failed_rounds}")
    if history.degraded_rounds:
        print(f"degraded (aggregation frozen) in rounds "
              f"{history.degraded_rounds}")
    if history.trust_quarantine_events:
        for round_index, client in history.trust_quarantine_events:
            score = service.trust.trust(client)
            print(f"round {round_index}: client {client} trust-quarantined "
                  f"(EWMA {score:.3f})")
    restored = [c for r in history.rounds for c in r.trust_restored]
    if restored:
        print(f"restored from probation: {sorted(set(restored))}")

    # the stream in the ring buffer is the same schema-v1 record flow a
    # JSONLSink would persist — count the service's own vocabulary
    names = sorted({e["name"] for e in ring.events
                    if str(e["name"]).startswith(("service.", "trust."))})
    print(f"\ntelemetry names emitted: {', '.join(names)}")

    final = service.model.flat_parameters()
    print(f"final params: norm={float(np.linalg.norm(final)):.4g} "
          f"(deterministic for seed {args.seed})")


if __name__ == "__main__":
    main()
