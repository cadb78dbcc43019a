"""Deterministic online metrics: windowed time-series over the stream.

The telemetry stream (:mod:`repro.obs.telemetry`) records *everything
that happened*; this module folds it into *how the service is doing* —
per-window counts, rates and latency quantiles on the service's
**simulated clock**.  :class:`MetricsAggregator` is an ordinary sink:
attach it to the hub next to the JSONL writer and every record is folded
online, with one :class:`MetricsWindow` sealed per ``window_rounds``
service rounds.  The same folding rules replay offline over a recorded
trace (:func:`fold_records`), and both paths produce byte-identical
windows because nothing wall-clock ever enters them:

* **Windows key on round indices**, never timestamps.  A window seals
  when the ``service.round`` span for its last round is emitted (spans
  emit at exit, so every record of the round has already been folded).
* **Quantiles come from fixed-boundary histogram sketches**
  (:class:`HistogramSketch`): bucket counts are integers, merging is
  addition, and a quantile is always an exact bucket boundary — so the
  p99 of a window is bitwise identical across serial/process/megabatch
  engines and across a crash/resume splice.
* **The only duration folded is ``service.commit_latency``**, whose
  ``dur`` carries the *simulated* commit latency.  Wall-clock spans
  (``service.round`` itself, waves, evaluation) contribute counts only.
* **Metrics output is ignored on input.**  ``metrics.*`` / ``alert.*``
  records pass through unfolded, so re-folding a metrics-on trace
  reproduces the exact windows the online run sealed.

Window state is plain JSON (:meth:`MetricsAggregator.state_dict`), so
the service checkpoints it alongside aggregator/trust state and a
resumed run continues the series exactly where the crash cut it.

The shared nearest-rank quantile helper (:func:`nearest_rank`) also
serves every other latency-stats site in the codebase —
``ServiceHistory.latency_percentiles``, the transport summary, trace
analysis — so "p99" means the same thing everywhere.
"""

from __future__ import annotations

import io
import json
import math
from bisect import bisect_left
from typing import IO, Iterable, Sequence

from .sinks import Sink

__all__ = [
    "nearest_rank",
    "percentile_summary",
    "HistogramSketch",
    "default_latency_boundaries",
    "MetricsWindow",
    "MetricsAggregator",
    "fold_records",
    "write_series",
    "read_series",
    "render_prometheus",
]


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    ``sorted_values`` must be ascending; an empty sequence yields 0.0.
    This is THE quantile rule of the codebase — every latency figure
    (service history, transport summary, trace analysis, metrics
    windows) routes through it so percentiles are comparable across
    surfaces.
    """
    if not sorted_values:
        return 0.0
    rank = int(math.ceil(q / 100.0 * len(sorted_values)))
    return float(sorted_values[max(0, min(rank - 1, len(sorted_values) - 1))])


def percentile_summary(
    values: Iterable[float], qs: Sequence[int] = (50, 90, 99)
) -> dict[str, float]:
    """``{"p50": ..., "p90": ..., "p99": ...}`` over unsorted values."""
    ordered = sorted(values)
    return {f"p{q}": nearest_rank(ordered, q) for q in qs}


def default_latency_boundaries(deadline: float, buckets: int = 20) -> list[float]:
    """Evenly spaced histogram boundaries covering ``(0, deadline]``.

    ``buckets`` boundaries at ``deadline * i / buckets``; a commit can
    never take longer than the round deadline, so the overflow bucket
    stays empty and every quantile is exact to ``deadline / buckets``.
    """
    if deadline <= 0:
        raise ValueError(f"deadline must be > 0, got {deadline}")
    if buckets < 1:
        raise ValueError(f"buckets must be >= 1, got {buckets}")
    return [deadline * i / buckets for i in range(1, buckets + 1)]


class HistogramSketch:
    """A mergeable fixed-boundary histogram for deterministic quantiles.

    Values land in the first bucket whose boundary is >= the value; one
    overflow bucket catches everything beyond the last boundary.  The
    quantile of a bucket is its upper boundary (the overflow bucket
    reports the exact max, which merges as max), so quantiles are a
    pure function of the integer bucket counts — bitwise reproducible
    regardless of fold order, executor engine, or resume splices.
    """

    def __init__(self, boundaries: Sequence[float]) -> None:
        bounds = [float(b) for b in boundaries]
        if not bounds:
            raise ValueError("need at least one boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"boundaries must be strictly increasing: {bounds}")
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = overflow
        self.total = 0
        self.sum = 0.0
        self.max_value = 0.0

    def add(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.total += 1
        self.sum += value
        if value > self.max_value:
            self.max_value = value

    def merge(self, other: "HistogramSketch") -> "HistogramSketch":
        if other.boundaries != self.boundaries:
            raise ValueError(
                f"cannot merge sketches with different boundaries: "
                f"{self.boundaries} vs {other.boundaries}"
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total += other.total
        self.sum += other.sum
        self.max_value = max(self.max_value, other.max_value)
        return self

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile as an exact bucket boundary (0.0 empty)."""
        if self.total == 0:
            return 0.0
        rank = max(1, int(math.ceil(q / 100.0 * self.total)))
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                if i < len(self.boundaries):
                    return self.boundaries[i]
                return self.max_value  # overflow bucket: exact max
        return self.max_value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def state_dict(self) -> dict:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "max": self.max_value,
        }

    @classmethod
    def from_state(cls, state: dict) -> "HistogramSketch":
        sketch = cls(state["boundaries"])
        counts = [int(c) for c in state["counts"]]
        if len(counts) != len(sketch.counts):
            raise ValueError(
                f"count vector has {len(counts)} buckets, "
                f"expected {len(sketch.counts)}"
            )
        sketch.counts = counts
        sketch.total = int(state["total"])
        sketch.sum = float(state["sum"])
        sketch.max_value = float(state["max"])
        return sketch

    def __repr__(self) -> str:
        return (
            f"HistogramSketch(buckets={len(self.counts)}, total={self.total})"
        )


#: event name -> window count key.  The fold is intentionally a flat
#: lookup: every service-health event increments exactly one counter.
EVENT_COUNTS = {
    "service.quorum_failed": "quorum_failed",
    "service.report_shed": "shed",
    "service.report_rejected": "rejected",
    "service.report_late": "late",
    "service.report_invalid": "invalid",
    "service.no_response": "no_response",
    "service.degraded": "degraded_entries",
    "service.recovered": "recoveries",
    "trust.quarantine": "trust_quarantines",
    "trust.restore": "trust_restores",
    "watchdog.rollback": "watchdog_rollbacks",
    "net.sent": "net_sent",
    "net.dropped": "net_lost",
    "net.duplicate": "net_duplicates",
    "net.corrupt": "net_corrupt",
    "net.dedup": "net_dedup",
    "net.fenced": "net_fenced",
}

#: record-name prefixes the aggregator never folds: its own output (so
#: re-folding a metrics-on trace reproduces the same windows)
IGNORED_PREFIXES = ("metrics.", "alert.")

#: every SLI a sealed window carries, in emission order.  The catalog is
#: the contract between the aggregator, the alert rules, the dashboard
#: and the schema tests: a rule naming an SLI outside this list is
#: rejected at parse time.
SLI_NAMES = (
    "rounds",
    "committed",
    "commit_latency_p50",
    "commit_latency_p90",
    "commit_latency_p99",
    "quorum_failure_rate",
    "shed_rate",
    "reject_rate",
    "late_rate",
    "invalid_rate",
    "no_response_rate",
    "net_loss_rate",
    "net_dup_rate",
    "net_corrupt_rate",
    "trust_churn",
    "cleanse_rate",
    "degraded_entries",
    "recoveries",
    "watchdog_rollbacks",
    "pending",
)


class MetricsWindow:
    """Raw accumulators for one window of ``window_rounds`` rounds."""

    def __init__(self, index: int, start_round: int, boundaries: Sequence[float]) -> None:
        self.index = int(index)
        self.start_round = int(start_round)
        self.rounds = 0
        self.committed = 0
        self.solicited = 0
        self.cleanses = 0
        self.counts: dict[str, int] = {key: 0 for key in EVENT_COUNTS.values()}
        self.latency = HistogramSketch(boundaries)
        self.pending = 0  # queue depth after the window's last round

    def slis(self) -> dict[str, float]:
        """The derived service-level indicators of this (sealed) window.

        Rates are per-round (or per-sent-message for ``net_*``), so a
        rule threshold means the same thing whatever ``window_rounds``
        is.  Divisions are IEEE-deterministic; every input is an int.
        """
        rounds = max(self.rounds, 1)
        sent = max(self.counts["net_sent"], 1)
        c = self.counts
        return {
            "rounds": float(self.rounds),
            "committed": float(self.committed),
            "commit_latency_p50": self.latency.quantile(50),
            "commit_latency_p90": self.latency.quantile(90),
            "commit_latency_p99": self.latency.quantile(99),
            "quorum_failure_rate": c["quorum_failed"] / rounds,
            "shed_rate": c["shed"] / rounds,
            "reject_rate": c["rejected"] / rounds,
            "late_rate": c["late"] / rounds,
            "invalid_rate": c["invalid"] / rounds,
            "no_response_rate": c["no_response"] / rounds,
            "net_loss_rate": c["net_lost"] / sent,
            "net_dup_rate": c["net_duplicates"] / sent,
            "net_corrupt_rate": c["net_corrupt"] / sent,
            "trust_churn": (c["trust_quarantines"] + c["trust_restores"]) / rounds,
            "cleanse_rate": self.cleanses / rounds,
            "degraded_entries": float(c["degraded_entries"]),
            "recoveries": float(c["recoveries"]),
            "watchdog_rollbacks": float(c["watchdog_rollbacks"]),
            "pending": float(self.pending),
        }

    def sealed(self) -> dict:
        """The JSON-ready sealed-window record the series accumulates."""
        return {
            "window": self.index,
            "start_round": self.start_round,
            "end_round": self.start_round + self.rounds - 1,
            "slis": self.slis(),
            "counts": dict(self.counts),
            "solicited": self.solicited,
            "latency": self.latency.state_dict(),
        }

    def state_dict(self) -> dict:
        return {
            "index": self.index,
            "start_round": self.start_round,
            "rounds": self.rounds,
            "committed": self.committed,
            "solicited": self.solicited,
            "cleanses": self.cleanses,
            "counts": dict(self.counts),
            "latency": self.latency.state_dict(),
            "pending": self.pending,
        }

    @classmethod
    def from_state(cls, state: dict) -> "MetricsWindow":
        window = cls(
            state["index"], state["start_round"], state["latency"]["boundaries"]
        )
        window.rounds = int(state["rounds"])
        window.committed = int(state["committed"])
        window.solicited = int(state["solicited"])
        window.cleanses = int(state["cleanses"])
        counts = {str(k): int(v) for k, v in state["counts"].items()}
        for key in EVENT_COUNTS.values():  # forward-compat: new keys start 0
            counts.setdefault(key, 0)
        window.counts = counts
        window.latency = HistogramSketch.from_state(state["latency"])
        window.pending = int(state["pending"])
        return window


class MetricsAggregator(Sink):
    """Fold the telemetry stream into sealed metric windows, online.

    Attach to the hub as a sink; the service's per-round records fold
    into the open window, and the ``service.round`` span (emitted at
    round exit, after all of the round's children) both counts the
    round and — every ``window_rounds`` rounds — seals the window.  The
    service drains sealed windows with :meth:`take_sealed` after each
    round and emits them as ``metrics.window`` events, which this sink
    deliberately ignores (see :data:`IGNORED_PREFIXES`).

    ``round_interval`` is only a label: it converts window indices to
    simulated-clock offsets for exporters, and never affects folding.
    """

    def __init__(
        self,
        window_rounds: int = 1,
        latency_boundaries: Sequence[float] | None = None,
        round_interval: float = 10.0,
    ) -> None:
        if window_rounds < 1:
            raise ValueError(f"window_rounds must be >= 1, got {window_rounds}")
        if round_interval <= 0:
            raise ValueError(f"round_interval must be > 0, got {round_interval}")
        self.window_rounds = int(window_rounds)
        self.boundaries = list(
            latency_boundaries
            if latency_boundaries is not None
            else default_latency_boundaries(round_interval)
        )
        HistogramSketch(self.boundaries)  # validate once, up front
        self.round_interval = float(round_interval)
        self.series: list[dict] = []
        self._open: MetricsWindow | None = None
        self._unsealed_cursor = 0  # series index take_sealed() drained to

    # -- folding -------------------------------------------------------

    def _window_for(self, round_index: int) -> MetricsWindow:
        index = round_index // self.window_rounds
        if self._open is None or self._open.index != index:
            self._open = MetricsWindow(
                index, index * self.window_rounds, self.boundaries
            )
        return self._open

    def emit(self, record: dict) -> None:
        name = record.get("name", "")
        if name.startswith(IGNORED_PREFIXES):
            return
        kind = record.get("kind")
        if kind == "event":
            attrs = record.get("attrs", {})
            round_index = attrs.get("round")
            if round_index is None:
                # the rare round-less events (service.backoff) fold into
                # the window currently open — the round that caused them
                window = self._open
                if window is None:
                    return
            else:
                window = self._window_for(int(round_index))
            key = EVENT_COUNTS.get(name)
            if key is not None:
                window.counts[key] += 1
            elif name == "service.dispatch":
                window.solicited += int(attrs.get("solicited", 0))
        elif kind == "span":
            attrs = record.get("attrs", {})
            round_index = attrs.get("round")
            if round_index is None:
                return
            window = self._window_for(int(round_index))
            if name == "service.commit_latency":
                # dur is the SIMULATED commit latency — the one span
                # duration that is deterministic and safe to fold
                window.latency.add(float(record.get("dur", 0.0)))
                if attrs.get("quorum_met"):
                    window.committed += 1
            elif name == "service.cleanse":
                window.cleanses += 1
            elif name == "service.round":
                self._end_round(int(round_index), attrs)
        # counter/gauge snapshots (flush-time state dumps) are not folded:
        # their values are cumulative run totals, not per-window deltas

    def _end_round(self, round_index: int, attrs: dict) -> None:
        window = self._window_for(round_index)
        window.rounds += 1
        window.pending = int(attrs.get("pending", window.pending))
        if (round_index + 1) % self.window_rounds == 0:
            self.series.append(window.sealed())
            self._open = None

    # -- the service-facing drain --------------------------------------

    def take_sealed(self) -> list[dict]:
        """Windows sealed since the last drain (oldest first)."""
        sealed = self.series[self._unsealed_cursor:]
        self._unsealed_cursor = len(self.series)
        return sealed

    # -- persistence ---------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "window_rounds": self.window_rounds,
            "boundaries": list(self.boundaries),
            "round_interval": self.round_interval,
            "series": [dict(w) for w in self.series],
            "open": None if self._open is None else self._open.state_dict(),
            "cursor": self._unsealed_cursor,
        }

    def load_state_dict(self, state: dict | None) -> None:
        if state is None:
            return
        self.window_rounds = int(state["window_rounds"])
        self.boundaries = [float(b) for b in state["boundaries"]]
        self.round_interval = float(state["round_interval"])
        self.series = [dict(w) for w in state["series"]]
        self._open = (
            MetricsWindow.from_state(state["open"])
            if state["open"] is not None
            else None
        )
        self._unsealed_cursor = int(state["cursor"])

    def __repr__(self) -> str:
        return (
            f"MetricsAggregator(window_rounds={self.window_rounds}, "
            f"sealed={len(self.series)})"
        )


def fold_records(
    records: Iterable[dict],
    window_rounds: int = 1,
    latency_boundaries: Sequence[float] | None = None,
    round_interval: float = 10.0,
) -> MetricsAggregator:
    """Replay a recorded stream through the online folding rules.

    Records are re-sorted by ``seq`` first, so a stitched resume trace
    folds in emission order.  Because ``metrics.*`` / ``alert.*``
    records are ignored, folding a metrics-on trace reproduces the
    exact windows its online aggregator sealed — the offline/online
    parity the determinism tests pin.
    """
    aggregator = MetricsAggregator(
        window_rounds=window_rounds,
        latency_boundaries=latency_boundaries,
        round_interval=round_interval,
    )
    for record in sorted(records, key=lambda r: r.get("seq", 0)):
        aggregator.emit(record)
    return aggregator


# -- exporters ---------------------------------------------------------


def write_series(
    series: Sequence[dict], target: str | IO[str], round_interval: float = 10.0
) -> int:
    """Write sealed windows as JSONL time-series (one window per line).

    Each line carries the window record plus a ``t`` field — the
    simulated-clock offset of the window start — sorted keys and compact
    separators, so the same series always serializes to the same bytes
    (the file is rewritten whole, never appended: a resumed run
    regenerates it identically).  Returns the number of lines written.
    """
    if isinstance(target, (str, bytes)):
        with open(target, "w", encoding="utf-8") as handle:
            return write_series(series, handle, round_interval=round_interval)
    for window in series:
        row = dict(window)
        row["t"] = window["start_round"] * round_interval
        target.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
    return len(series)


def read_series(source: str | IO[str]) -> list[dict]:
    """Parse a :func:`write_series` JSONL file back into window records."""
    if isinstance(source, (str, bytes)):
        with open(source, encoding="utf-8") as handle:
            return read_series(handle)
    return [json.loads(line) for line in source if line.strip()]


def render_prometheus(
    series: Sequence[dict],
    counters: dict[str, int] | None = None,
    namespace: str = "repro",
) -> str:
    """Prometheus text exposition (v0.0.4) of the latest sealed window.

    Gauges carry the latest window's SLIs (suffixed ``_sli``); the
    cumulative event counts across *all* sealed windows are exported as
    counters; extra run-level ``counters`` (e.g. the hub's
    ``alert.firings``) ride along verbatim.  Deterministic: no
    timestamps, names sorted.
    """
    out = io.StringIO()
    if series:
        latest = series[-1]
        out.write(
            f"# HELP {namespace}_window Latest sealed metrics window index\n"
            f"# TYPE {namespace}_window gauge\n"
            f"{namespace}_window {latest['window']}\n"
        )
        for sli in SLI_NAMES:
            value = latest["slis"].get(sli)
            if value is None:
                continue
            metric = f"{namespace}_{sli}_sli"
            out.write(
                f"# TYPE {metric} gauge\n{metric} {_format_value(value)}\n"
            )
        totals: dict[str, int] = {}
        for window in series:
            for key, value in window["counts"].items():
                totals[key] = totals.get(key, 0) + int(value)
        for key in sorted(totals):
            metric = f"{namespace}_{key}_total"
            out.write(f"# TYPE {metric} counter\n{metric} {totals[key]}\n")
    for name in sorted(counters or {}):
        metric = namespace + "_" + name.replace(".", "_")
        out.write(f"# TYPE {metric} counter\n{metric} {counters[name]}\n")
    return out.getvalue()


def _format_value(value: float) -> str:
    """Ints render bare; floats via repr (shortest round-trip form)."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
