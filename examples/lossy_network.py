"""Run the defense service over a simulated lossy network.

Boots :class:`~repro.fl.service.DefenseService` (DESIGN.md §12) on the
seeded benchmark federation and routes every solicitation and update
through :class:`~repro.fl.transport.SimulatedNetwork` (DESIGN.md §15):

* **message-level faults** — per-link latency/jitter, loss, wire
  duplication and in-flight payload corruption, each fate a pure
  seeded function of message identity;
* **a scheduled partition** — the cut opens mid-run, swallows the
  cohort's updates, and the held backlog floods back after the heal;
* **idempotent ingest** — the coordinator dedups retransmitted copies
  by message id and fences stale epochs, so nothing is ever
  aggregated twice, while corrupted payloads fail their checksum into
  the ordinary invalid/strike path;
* **transparency** — rerun with ``--network lossless`` and the run is
  byte-identical to no network at all (the script proves it).

The run is fully deterministic: rerunning this script reproduces the
same history, delivery stats and telemetry byte-for-byte.

Usage::

    python examples/lossy_network.py [--rounds 10] [--seed 11]
    python examples/lossy_network.py --network "partition:start=12,heal=35"
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.experiments.scale import build_bench_world
from repro.fl.faults import FaultModel, wrap_clients
from repro.fl.service import DefenseService, ServiceConfig
from repro.fl.traffic import make_drill
from repro.fl.transport import make_network, network_names
from repro.obs import RingBufferSink, RunContext, Telemetry
from repro.obs.schema import dumps_canonical


def run_service(args, network):
    """One seeded service run; ``network=None`` is the direct path."""
    model, clients, dataset = build_bench_world("smoke", seed=args.seed)
    faults = FaultModel(
        straggler_prob=0.3,
        straggler_delay=(1.0, 2 * args.deadline),
        duplicate_prob=0.2,  # client-level retransmits, deduped server-side
        deadline_seconds=args.deadline,
        seed=args.seed + 2,
    )
    traffic, _ = make_drill("partition_heal", seed=args.seed + 3)
    hub = Telemetry()
    ring = hub.add_sink(RingBufferSink())
    service = DefenseService(
        model,
        wrap_clients(clients, faults),
        dataset,
        ServiceConfig(
            round_deadline=args.deadline,
            quorum=0.5,
            degraded_after=2,
            eval_every=0,
        ),
        traffic=traffic,
        network=network,
        context=RunContext(telemetry=hub, fault_model=faults),
    )
    history = service.run(args.rounds)
    hub.close()
    return service, history, dumps_canonical(ring.events)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--deadline", type=float, default=10.0)
    parser.add_argument(
        "--network",
        default="chaos",
        help=f"spec: one of {', '.join(network_names())}, optionally "
        "with overrides like 'partition:start=12,heal=35'",
    )
    args = parser.parse_args()

    network = make_network(args.network, seed=args.seed + 5)
    service, history, stream = run_service(args, network)

    summary = network.summary()
    print(f"network {summary['name']}: sent={summary['sent']} "
          f"delivered={summary['delivered']} lost={summary['lost']} "
          f"duplicates={summary['duplicates']} "
          f"corrupted={summary['corrupted']} held={summary['held']} "
          f"(delivery rate {summary['delivery_rate']:.3f})")
    print(f"one-way latency (simulated): "
          f"p50={summary['latency_p50']:.2f}s "
          f"p99={summary['latency_p99']:.2f}s")

    counts = history.network_counts()
    print(f"coordinator ledger: lost={counts['lost']} "
          f"dedup={counts['dedup']} fenced={counts['fenced']} "
          f"held={counts['held']}")
    print(f"{len(history.committed_rounds)}/{len(history)} rounds committed")
    if history.quorum_failed_rounds:
        print(f"quorum failed in rounds {history.quorum_failed_rounds} "
              f"(the partition window)")

    # the idempotence contract: however many copies the wire or the
    # clients produced, each (client, round) landed in the aggregate at
    # most once
    origins = history.aggregated_origins
    assert len(origins) == len(set(origins)), "double aggregation"
    print(f"{len(origins)} aggregated updates, all unique origins — "
          f"dedup + epoch fencing held")

    # the transparency contract: a lossless wire is not just low-cost,
    # it is *invisible* — byte-identical params, history and telemetry
    lossless, lossless_history, lossless_stream = run_service(
        args, make_network("lossless", seed=args.seed + 5)
    )
    direct, direct_history, direct_stream = run_service(args, None)
    identical = (
        lossless.model.flat_parameters().tobytes()
        == direct.model.flat_parameters().tobytes()
        and lossless_history.to_jsonable() == direct_history.to_jsonable()
        and lossless_stream == direct_stream
    )
    print(f"\nlossless == direct path (params/history/telemetry): "
          f"{identical}")

    final = service.model.flat_parameters()
    print(f"final params: norm={float(np.linalg.norm(final)):.4g} "
          f"(deterministic for seed {args.seed})")


if __name__ == "__main__":
    main()
