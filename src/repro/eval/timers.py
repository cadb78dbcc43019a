"""Wall-clock stage timing for the Fig 9 energy/time study.

:class:`StageTimer` is now a thin adapter over telemetry spans
(:mod:`repro.obs.telemetry`): each ``stage()`` block opens a real span
on the timer's hub and the accumulated ``seconds`` are read back from
that span, so Fig 9 and every other consumer of the timer measure with the same monotonic clock as the event stream.  The
public API (``seconds`` dict, ``stage()`` context manager, ``add``,
``total``) is unchanged; constructing a timer without a hub times
against the shared null hub, which costs nothing and records nowhere.
"""

from __future__ import annotations

import time

from ..obs.telemetry import Telemetry, ensure_telemetry

__all__ = ["StageTimer"]


class StageTimer:
    """Accumulates named wall-clock durations (telemetry-span backed).

    Usage::

        timer = StageTimer()                 # or StageTimer(telemetry=hub)
        with timer.stage("training"):
            ...
        with timer.stage("pruning"):
            ...
        timer.seconds  # {"training": ..., "pruning": ...}

    With a real hub attached, every stage additionally lands in the
    event stream as a span named ``stage.<name>``; ``add()`` records an
    externally-measured duration the same way.
    """

    def __init__(self, telemetry: Telemetry | None = None) -> None:
        self.seconds: dict[str, float] = {}
        self.telemetry = ensure_telemetry(telemetry)

    def stage(self, name: str) -> "_StageContext":
        return _StageContext(self, name)

    def add(self, name: str, duration: float) -> None:
        """Merge an externally-measured duration into the totals."""
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        self.seconds[name] = self.seconds.get(name, 0.0) + duration
        self.telemetry.record_span(f"stage.{name}", duration, external=True)

    def _accumulate(self, name: str, duration: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + duration

    def total(self) -> float:
        return sum(self.seconds.values())


class _StageContext:
    def __init__(self, timer: StageTimer, name: str) -> None:
        self._timer = timer
        self._name = name
        self._span = timer.telemetry.span(f"stage.{name}")
        self._start = 0.0

    def __enter__(self) -> "_StageContext":
        self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._start
        self._span.__exit__(*exc_info)
        # a real span measured the block itself — prefer its clock so the
        # stream and the seconds dict can never disagree
        duration = self._span.seconds if self._span.seconds is not None else elapsed
        self._timer._accumulate(self._name, duration)
