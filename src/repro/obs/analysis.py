"""Trace analysis: span trees, breakdowns, utilization, and diffs.

PR 3 made every run emit a schema-v1 event stream (:mod:`repro.obs`);
this module is the half that *reads* it.  From a JSONL file or an
in-memory record list, :class:`TraceAnalysis` reconstructs the span
tree (spans are emitted at exit, so children precede parents and the
tree must be rebuilt from ``span_id``/``parent_id`` links), and answers
the questions every perf/robustness PR needs a trace to answer:

* **Where did the time go?**  Per-span-name totals with self-time
  (:meth:`TraceAnalysis.by_name`), per-phase totals
  (:meth:`~TraceAnalysis.phase_totals`), per-round
  (:meth:`~TraceAnalysis.round_breakdown`) and per-client
  (:meth:`~TraceAnalysis.client_breakdown`) views.
* **Did the executor help?**  :meth:`~TraceAnalysis.wave_utilization`
  computes busy-time ÷ (wall-time × workers) per ``exec.wave`` /
  ``exec.report_wave`` — the number that explains a sub-1× process-pool
  "speedup" (dispatch overhead and idle workers show up directly).
* **What bounds the run?**  :meth:`~TraceAnalysis.critical_path` walks
  the tree root→leaf through the largest child at every level.
* **Did this change regress anything?**  :func:`diff` compares two
  traces per span name against a configurable threshold;
  ``scripts/trace.py diff`` is built on it.

The loader is tolerant by design: out-of-order records are re-sorted by
``seq``, spans whose parent never made it into the stream (a crashed
writer, a stitched resume boundary) become roots instead of errors, and
a torn trailing JSONL line is skipped with a warning and surfaced as a
synthetic ``trace.truncated`` event (see :func:`load_trace`).
"""

from __future__ import annotations

import io
from typing import IO, Iterable, Sequence

from .metrics import percentile_summary
from .sinks import read_events

__all__ = [
    "SpanNode",
    "TraceAnalysis",
    "TraceDiff",
    "load_trace",
    "diff",
]


class SpanNode:
    """One span record, linked into the reconstructed tree."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "ts",
        "dur",
        "attrs",
        "seq",
        "children",
        "events",
        "parent",
    )

    def __init__(self, record: dict) -> None:
        self.name: str = record["name"]
        self.span_id: int = record["span_id"]
        self.parent_id: int | None = record.get("parent_id")
        self.ts: float = float(record.get("ts", 0.0))
        self.dur: float = float(record.get("dur", 0.0))
        self.attrs: dict = record.get("attrs", {})
        self.seq: int = int(record.get("seq", 0))
        self.children: list[SpanNode] = []
        self.events: list[dict] = []
        self.parent: SpanNode | None = None

    @property
    def child_seconds(self) -> float:
        return sum(child.dur for child in self.children)

    @property
    def self_seconds(self) -> float:
        """Time spent in this span but not in any child span.

        Clamped at zero: worker-timed child spans are recorded with
        durations measured on another clock, so their sum can slightly
        exceed the parent's wall time under a parallel executor.
        """
        return max(0.0, self.dur - self.child_seconds)

    def walk(self):
        """This node and every descendant, depth-first, children in
        stream (``ts``, ``seq``) order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"SpanNode({self.name!r}, id={self.span_id}, "
            f"dur={self.dur:.4f}, children={len(self.children)})"
        )


#: span names that mark one executor fan-out wave; their direct
#: children are the per-task spans whose durations are the busy time
WAVE_SPAN_NAMES = ("exec.wave", "exec.report_wave")

#: gauge the tracing entry points set so a trace knows its pool size
WORKERS_GAUGE = "exec.workers"


class TraceAnalysis:
    """A parsed event stream plus everything derivable from it.

    Parameters
    ----------
    events:
        Schema-v1 records, in any order (re-sorted by ``seq``).  Spans
        referencing a parent that is absent from the stream — a resumed
        run's stitched prefix, a truncated file — are promoted to roots.
    truncated:
        Set by :func:`load_trace` when the source ended in a torn line;
        surfaced as a synthetic ``trace.truncated`` event so downstream
        tooling (and humans reading ``summarize``) can see it.
    """

    def __init__(self, events: Iterable[dict], truncated: bool = False) -> None:
        records = sorted(events, key=lambda e: e.get("seq", 0))
        self.records = records
        self.truncated = truncated
        self.spans: list[SpanNode] = []
        self.events: list[dict] = []
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        for record in records:
            kind = record.get("kind")
            if kind == "span":
                self.spans.append(SpanNode(record))
            elif kind == "event":
                self.events.append(record)
            elif kind == "counter":
                self.counters[record["name"]] = record["value"]
            elif kind == "gauge":
                self.gauges[record["name"]] = record["value"]
        if truncated:
            # synthetic marker so downstream consumers of either view
            # (records or events) see the tear without re-checking a flag
            marker = {"kind": "event", "name": "trace.truncated", "attrs": {}}
            self.records.append(marker)
            self.events.append(marker)
        self._build_tree()

    # -- tree ----------------------------------------------------------

    def _build_tree(self) -> None:
        by_id = {span.span_id: span for span in self.spans}
        self.roots: list[SpanNode] = []
        for span in self.spans:
            parent = (
                by_id.get(span.parent_id)
                if span.parent_id is not None
                else None
            )
            if parent is None or parent is span:
                self.roots.append(span)
            else:
                span.parent = parent
                parent.children.append(span)
        # sibling order is emission (seq) order, NOT wall-clock: spans
        # emit at exit so seq order is the coordinator's deterministic
        # completion order, and in a stitched resume stream the second
        # attempt's clock restarts — ts is not monotonic across the splice
        for span in self.spans:
            span.children.sort(key=lambda s: s.seq)
        self.roots.sort(key=lambda s: s.seq)
        for event in self.events:
            owner = by_id.get(event.get("span_id"))
            if owner is not None:
                owner.events.append(event)

    @property
    def total_seconds(self) -> float:
        """Wall-clock covered by the root spans."""
        return sum(root.dur for root in self.roots)

    # -- breakdowns ----------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        """Aggregate statistics per span name, ordered by total seconds.

        Each entry: ``count``, ``total``, ``self`` (total minus child
        time), ``mean``, ``min``, ``max``.
        """
        stats: dict[str, dict] = {}
        for span in self.spans:
            entry = stats.setdefault(
                span.name,
                {
                    "count": 0,
                    "total": 0.0,
                    "self": 0.0,
                    "min": float("inf"),
                    "max": 0.0,
                },
            )
            entry["count"] += 1
            entry["total"] += span.dur
            entry["self"] += span.self_seconds
            entry["min"] = min(entry["min"], span.dur)
            entry["max"] = max(entry["max"], span.dur)
        for entry in stats.values():
            entry["mean"] = entry["total"] / entry["count"]
            if entry["min"] == float("inf"):
                entry["min"] = 0.0
        return dict(
            sorted(stats.items(), key=lambda kv: kv[1]["total"], reverse=True)
        )

    def phase_totals(self) -> list[tuple[str, float, int]]:
        """(name, total seconds, count) of the run's phases, in order.

        Phases are the ``stage.*`` spans (the StageTimer surface every
        pipeline reports through) plus any root span that is not itself
        a stage — so a bare ``fl.train`` with no timer around it still
        shows up.
        """
        totals: dict[str, list] = {}
        order: list[str] = []
        for span in self.spans:
            is_stage = span.name.startswith("stage.")
            if not is_stage and span.parent is not None:
                continue
            if is_stage and any(
                a is not span and a.name.startswith("stage.")
                for a in self._ancestors(span)
            ):
                continue  # nested stage: count it under the outer one
            if span.name not in totals:
                totals[span.name] = [0.0, 0]
                order.append(span.name)
            totals[span.name][0] += span.dur
            totals[span.name][1] += 1
        return [(name, totals[name][0], totals[name][1]) for name in order]

    @staticmethod
    def _ancestors(span: SpanNode):
        node = span.parent
        while node is not None:
            yield node
            node = node.parent

    def round_breakdown(self) -> list[dict]:
        """One record per ``fl.round`` span: index, duration, child phases."""
        rounds = []
        for span in self.spans:
            if span.name != "fl.round":
                continue
            phases = {}
            for child in span.children:
                short = child.name.rsplit(".", 1)[-1]
                phases[short] = phases.get(short, 0.0) + child.dur
            rounds.append(
                {
                    "round": span.attrs.get("round"),
                    "seconds": span.dur,
                    "phases": phases,
                    "attrs": dict(span.attrs),
                }
            )
        rounds.sort(key=lambda r: (r["round"] is None, r["round"]))
        return rounds

    def client_breakdown(self) -> dict[object, dict]:
        """Per-client totals over the worker-timed task spans.

        Aggregates ``exec.local_update`` and ``exec.report`` spans by
        their ``client`` attribute; entries carry ``count``, ``total``
        and per-status counts (ok / dropped / ...).
        """
        clients: dict[object, dict] = {}
        for span in self.spans:
            if span.name not in ("exec.local_update", "exec.report"):
                continue
            client = span.attrs.get("client")
            entry = clients.setdefault(
                client, {"count": 0, "total": 0.0, "status": {}}
            )
            entry["count"] += 1
            entry["total"] += span.dur
            status = span.attrs.get("status", "?")
            entry["status"][status] = entry["status"].get(status, 0) + 1
        return dict(
            sorted(
                clients.items(),
                key=lambda kv: kv[1]["total"],
                reverse=True,
            )
        )

    # -- executor utilization ------------------------------------------

    def wave_utilization(self, workers: int | None = None) -> dict:
        """Executor wave efficiency: busy ÷ (wall × workers).

        ``busy`` is the sum of worker-timed task-span durations inside
        each wave; ``wall`` is the wave span's own duration.  With
        ``workers`` pool slots, perfect overlap gives utilization 1.0;
        a serial engine with 4 claimed workers gives ~0.25; a process
        pool drowning in pickling overhead shows busy ≪ wall.  That
        ratio is exactly why a process "speedup" can land below 1×: the
        wall time includes dispatch cost no worker is busy for.

        ``workers`` defaults to the trace's ``exec.workers`` gauge
        (written by the tracing entry points) and falls back to 1.
        Returns the aggregate plus a per-wave list.
        """
        if workers is None:
            workers = int(self.gauges.get(WORKERS_GAUGE, 1))
        workers = max(1, workers)
        waves = []
        busy_total = 0.0
        wall_total = 0.0
        for span in self.spans:
            if span.name not in WAVE_SPAN_NAMES:
                continue
            busy = span.child_seconds
            wall = span.dur
            busy_total += busy
            wall_total += wall
            waves.append(
                {
                    "name": span.name,
                    "tasks": span.attrs.get("tasks"),
                    "busy_seconds": busy,
                    "wall_seconds": wall,
                    "utilization": busy / max(wall * workers, 1e-12),
                }
            )
        return {
            "workers": workers,
            "num_waves": len(waves),
            "busy_seconds": busy_total,
            "wall_seconds": wall_total,
            "parallel_speedup": busy_total / max(wall_total, 1e-12),
            "utilization": busy_total / max(wall_total * workers, 1e-12),
            "waves": waves,
        }

    # -- streaming service ---------------------------------------------

    def commit_latency_stats(self) -> dict | None:
        """Round-commit latency distribution of a streaming-service trace.

        Reads the ``service.commit_latency`` spans the
        :class:`~repro.fl.service.DefenseService` records once per round
        (their ``dur`` carries the *simulated* commit latency, which is
        deterministic for a fixed seed).  Returns ``None`` when the
        trace has no service rounds; otherwise a dict with ``rounds``,
        ``committed``, nearest-rank ``p50``/``p90``/``p99``, ``mean``
        and ``max`` — the numbers the bench payload and the trace diff
        gate key on.
        """
        latencies = [
            span.dur for span in self.spans if span.name == "service.commit_latency"
        ]
        if not latencies:
            return None
        ordered = sorted(latencies)
        committed = sum(
            1
            for span in self.spans
            if span.name == "service.commit_latency"
            and span.attrs.get("quorum_met")
        )
        return {
            "rounds": len(ordered),
            "committed": committed,
            **percentile_summary(ordered),
            "mean": float(sum(ordered) / len(ordered)),
            "max": float(ordered[-1]),
        }

    # -- critical path -------------------------------------------------

    def critical_path(self) -> list[dict]:
        """Root→leaf chain through the largest child at every level.

        For a single-threaded coordinator this is the dominant nesting
        chain; inside a parallel wave the largest task *is* the wave's
        wall-time bound, so the same rule holds.  Each entry carries the
        span name, depth, duration, and self time.
        """
        if not self.roots:
            return []
        node = max(self.roots, key=lambda s: s.dur)
        path = []
        depth = 0
        while node is not None:
            path.append(
                {
                    "name": node.name,
                    "depth": depth,
                    "seconds": node.dur,
                    "self_seconds": node.self_seconds,
                    "attrs": dict(node.attrs),
                }
            )
            node = (
                max(node.children, key=lambda s: s.dur)
                if node.children
                else None
            )
            depth += 1
        return path

    # -- rendering -----------------------------------------------------

    def render_tree(
        self,
        max_depth: int | None = None,
        min_fraction: float = 0.0,
    ) -> str:
        """The span tree as indented text (a vertical flame graph).

        ``min_fraction`` hides spans below that share of the trace
        total; elided siblings are summarized on one line so totals
        still add up visually.
        """
        total = max(self.total_seconds, 1e-12)
        out = io.StringIO()
        out.write(f"trace  {self.total_seconds:.3f}s  ({len(self.spans)} spans)\n")

        def render(node: SpanNode, prefix: str, depth: int) -> None:
            if max_depth is not None and depth > max_depth:
                return
            shown = [
                c for c in node.children if c.dur / total >= min_fraction
            ]
            hidden = len(node.children) - len(shown)
            for i, child in enumerate(shown):
                last = i == len(shown) - 1 and hidden == 0
                branch = "└─ " if last else "├─ "
                extra = _describe_attrs(child.attrs)
                out.write(
                    f"{prefix}{branch}{child.name}  {child.dur:.3f}s"
                    f"  {100.0 * child.dur / total:5.1f}%{extra}\n"
                )
                render(child, prefix + ("   " if last else "│  "), depth + 1)
            if hidden:
                out.write(f"{prefix}└─ … {hidden} span(s) below threshold\n")

        virtual = SpanNode(
            {"name": "", "span_id": -1, "parent_id": None, "dur": 0.0}
        )
        virtual.children = self.roots
        render(virtual, "", 0)
        return out.getvalue()

    def summary_dict(self, workers: int | None = None, top: int = 5) -> dict:
        """The run report as plain data — what ``summarize --format json``
        emits and dashboards consume.  Mirrors :meth:`summarize` section
        for section."""
        event_counts: dict[str, int] = {}
        for event in self.events:
            event_counts[event["name"]] = event_counts.get(event["name"], 0) + 1
        return {
            "truncated": self.truncated,
            "total_seconds": self.total_seconds,
            "phases": [
                {"name": name, "seconds": seconds, "count": count}
                for name, seconds, count in self.phase_totals()
            ],
            "spans": self.by_name(),
            "waves": self.wave_utilization(workers=workers),
            "service": self.commit_latency_stats(),
            "critical_path": self.critical_path()[:top],
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "events": event_counts,
        }

    def summarize(self, workers: int | None = None, top: int = 5) -> str:
        """The human-readable run report ``scripts/trace.py summarize`` prints."""
        out = io.StringIO()
        if not self.records:
            return "(empty trace: no records)\n"
        if self.truncated:
            out.write("!! trace truncated: torn trailing record skipped\n\n")
        phases = self.phase_totals()
        total = max(self.total_seconds, 1e-12)
        out.write("== per-phase totals ==\n")
        if phases:
            width = max(len(name) for name, _, _ in phases)
            for name, seconds, count in phases:
                out.write(
                    f"  {name:<{width}}  {seconds:>9.3f}s"
                    f"  {100.0 * seconds / total:5.1f}%  x{count}\n"
                )
        else:
            out.write("  (no spans)\n")

        stats = self.by_name()
        if stats:
            out.write("\n== spans by total time ==\n")
            width = max(len(name) for name in stats)
            out.write(
                f"  {'name':<{width}}  {'total':>9}  {'self':>9}"
                f"  {'calls':>6}  {'mean':>9}\n"
            )
            for name, entry in stats.items():
                out.write(
                    f"  {name:<{width}}  {entry['total']:>8.3f}s"
                    f"  {entry['self']:>8.3f}s  {entry['count']:>6}"
                    f"  {entry['mean'] * 1e3:>7.2f}ms\n"
                )

        util = self.wave_utilization(workers=workers)
        if util["num_waves"]:
            out.write(
                f"\n== executor waves ==\n"
                f"  waves={util['num_waves']}  workers={util['workers']}"
                f"  busy={util['busy_seconds']:.3f}s"
                f"  wall={util['wall_seconds']:.3f}s\n"
                f"  parallel speedup (busy/wall) = "
                f"{util['parallel_speedup']:.2f}x\n"
                f"  wave utilization (busy/(wall*workers)) = "
                f"{util['utilization']:.1%}\n"
            )

        service = self.commit_latency_stats()
        if service is not None:
            out.write(
                f"\n== service round commits ==\n"
                f"  rounds={service['rounds']}"
                f"  committed={service['committed']}"
                f"  quorum_failed={service['rounds'] - service['committed']}\n"
                f"  commit latency (simulated): p50={service['p50']:.3f}s"
                f"  p90={service['p90']:.3f}s  p99={service['p99']:.3f}s"
                f"  max={service['max']:.3f}s\n"
            )

        path = self.critical_path()
        if path:
            out.write(f"\n== critical path (top {top}) ==\n")
            for entry in path[:top]:
                indent = "  " * entry["depth"]
                out.write(
                    f"  {indent}{entry['name']}  {entry['seconds']:.3f}s"
                    f"  (self {entry['self_seconds']:.3f}s)\n"
                )

        if self.counters:
            out.write("\n== counters ==\n")
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                out.write(f"  {name:<{width}}  {self.counters[name]}\n")
        if self.gauges:
            out.write("\n== gauges ==\n")
            width = max(len(name) for name in self.gauges)
            for name in sorted(self.gauges):
                out.write(f"  {name:<{width}}  {self.gauges[name]:g}\n")
        if self.events:
            counts: dict[str, int] = {}
            for event in self.events:
                counts[event["name"]] = counts.get(event["name"], 0) + 1
            out.write("\n== events ==\n")
            width = max(len(name) for name in counts)
            for name in sorted(counts):
                out.write(f"  {name:<{width}}  x{counts[name]}\n")
        return out.getvalue()

    def __repr__(self) -> str:
        return (
            f"TraceAnalysis(spans={len(self.spans)}, events={len(self.events)}, "
            f"roots={len(self.roots)}, truncated={self.truncated})"
        )


def _describe_attrs(attrs: dict) -> str:
    """A short ``key=value`` suffix for tree lines (scalar attrs only)."""
    parts = [
        f"{key}={value}"
        for key, value in attrs.items()
        if isinstance(value, (int, float, str, bool)) and key != "attrs"
    ]
    return f"  [{', '.join(parts)}]" if parts else ""


def load_trace(
    source: str | IO[str] | Iterable[dict], *, strict: bool = False
) -> TraceAnalysis:
    """A :class:`TraceAnalysis` from a JSONL path/stream or record list.

    By default (``strict=False``, stated explicitly so the tolerant
    behaviour survives any future ``read_events`` default change) a torn
    trailing line — a writer killed mid-record — is skipped with a
    warning rather than raised, and the analysis is marked ``truncated``
    with a synthetic ``trace.truncated`` event, so a crashed run's trace
    is still readable up to the tear.  ``strict=True`` raises on the
    tear instead — the mode for gates that require a complete trace
    (the ``verify.sh`` service step, ``trace.py --strict``).
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "read"):
        torn: list[str] = []
        events = list(read_events(source, strict=strict, on_torn=torn.append))
        return TraceAnalysis(events, truncated=bool(torn))
    return TraceAnalysis(list(source))


class TraceDiff:
    """Per-span-name comparison of two traces (``base`` vs ``head``)."""

    def __init__(
        self,
        entries: list[dict],
        threshold: float,
        min_seconds: float,
    ) -> None:
        self.entries = entries
        self.threshold = threshold
        self.min_seconds = min_seconds

    @property
    def regressions(self) -> list[dict]:
        """Entries whose head total exceeds base by more than the
        threshold (and by at least ``min_seconds``, so microsecond spans
        cannot trip the gate on noise)."""
        return [entry for entry in self.entries if entry["regressed"]]

    def render(self) -> str:
        if not self.entries:
            return "(no spans on either side)\n"
        out = io.StringIO()
        width = max(len(entry["name"]) for entry in self.entries)
        out.write(
            f"  {'name':<{width}}  {'base':>9}  {'head':>9}"
            f"  {'delta':>9}  {'ratio':>6}\n"
        )
        for entry in self.entries:
            flag = "  << REGRESSION" if entry["regressed"] else ""
            ratio = (
                f"{entry['ratio']:.2f}x" if entry["ratio"] is not None else "new"
            )
            out.write(
                f"  {entry['name']:<{width}}  {entry['base_total']:>8.3f}s"
                f"  {entry['head_total']:>8.3f}s"
                f"  {entry['delta']:>+8.3f}s  {ratio:>6}{flag}\n"
            )
        out.write(
            f"\n{len(self.regressions)} regression(s) beyond "
            f"+{self.threshold:.0%} (min {self.min_seconds}s)\n"
        )
        return out.getvalue()

    def __repr__(self) -> str:
        return (
            f"TraceDiff(entries={len(self.entries)}, "
            f"regressions={len(self.regressions)})"
        )


def diff(
    base: TraceAnalysis | Sequence[dict],
    head: TraceAnalysis | Sequence[dict],
    threshold: float = 0.25,
    min_seconds: float = 1e-3,
) -> TraceDiff:
    """Compare two traces per span name; the perf-regression primitive.

    An entry regresses when ``head_total > base_total * (1 + threshold)``
    *and* the absolute growth exceeds ``min_seconds``.  Span names only
    present in ``head`` count as regressions when their total alone
    clears both bars (new hot code is still a regression); names that
    disappeared are reported with a negative delta and never regress.
    """
    if not isinstance(base, TraceAnalysis):
        base = TraceAnalysis(list(base))
    if not isinstance(head, TraceAnalysis):
        head = TraceAnalysis(list(head))
    base_stats = base.by_name()
    head_stats = head.by_name()
    entries = []
    for name in sorted(set(base_stats) | set(head_stats)):
        base_total = base_stats.get(name, {}).get("total", 0.0)
        head_total = head_stats.get(name, {}).get("total", 0.0)
        delta = head_total - base_total
        ratio = head_total / base_total if base_total > 0 else None
        if base_total > 0:
            regressed = ratio > 1.0 + threshold and delta > min_seconds
        else:
            regressed = head_total > min_seconds and threshold < float("inf")
        entries.append(
            {
                "name": name,
                "base_total": base_total,
                "head_total": head_total,
                "base_count": base_stats.get(name, {}).get("count", 0),
                "head_count": head_stats.get(name, {}).get("count", 0),
                "delta": delta,
                "ratio": ratio,
                "regressed": regressed,
            }
        )
    entries.sort(key=lambda e: e["delta"], reverse=True)
    return TraceDiff(entries, threshold, min_seconds)
