"""In-memory span tracing for the benchmark's traced run.

The benchmark never edits the program to trace it.  Instead a
:class:`Tracer` replaces the functions and methods that form each
module's boundary with thin wrappers, installed where the caller looks
the name up (the importing module, the class, or the live instance), and
restores every original when the traced pass ends.

Each wrapper records one span: name, start, end and the index of the
span that was open when it began.  Self time is a span's duration minus
the time its child spans cover, so summing self time over every span,
plus the time no span covers, gives the traced pass's wall time exactly.

Per-nn-layer rows come from :class:`repro.obs.profile.LayerProfiler`,
subclassed so that each leaf layer call is also charged as child time to
the span that made it; the layer calls themselves are aggregated, not
stored one by one.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.obs.profile import LayerProfiler

__all__ = ["Patches", "Tracer", "LayerRows", "NN_SELF"]

#: pseudo-span charged with the self time of every profiled leaf layer call
NN_SELF = "nn.layers"


class Patches:
    """Attribute replacements that are undone together, newest first."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, bool, object]] = []

    def set(self, owner, attr: str, value) -> None:
        """Set ``owner.attr``; :meth:`restore` puts back the original,
        or deletes the attribute when ``owner`` only inherited it."""
        own = attr in vars(owner)
        self._saved.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, own, original in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()


class Tracer:
    """Span recorder with per-name self time, calls and durations."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        #: LayerProfiler.stats of the pass's LayerRows, keyed by layer
        self.layer_rows: dict[str, dict] = {}
        # open spans: [name, start, child_seconds, parent_index]
        self._stack: list[list] = []
        self.patches = Patches()

    # -- spans ----------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        self._stack.append([name, time.perf_counter(), 0.0, len(self.spans)])
        # reserve the slot so children can name their parent by index
        self.spans.append((name, 0.0, 0.0, parent))

    def exit(self) -> float:
        end = time.perf_counter()
        name, start, child, index = self._stack.pop()
        seconds = end - start
        self.spans[index] = (name, start, end, self.spans[index][3])
        self.self_s[name] += seconds - child
        # a span re-entered directly inside itself (a subclass method
        # calling its patched parent) is one call, not two
        if not self._stack or self._stack[-1][0] != name:
            self.calls[name] += 1
            self.durations[name].append(seconds)
        if self._stack:
            self._stack[-1][2] += seconds
        return seconds

    def charge(self, name: str, seconds: float) -> None:
        """Book leaf work timed elsewhere as a child of the open span."""
        self.self_s[name] += seconds
        if self._stack:
            self._stack[-1][2] += seconds

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def traced(self, name: str, fn, on_call=None):
        """``fn`` wrapped in a span.  ``on_call(args, result)`` runs after
        ``fn`` returns, outside the span, to record counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    # -- wrappers ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` by :meth:`traced`; :meth:`restore` undoes
        every wrap."""
        self.patches.set(owner, attr, self.traced(name, getattr(owner, attr), on_call))

    def restore(self) -> None:
        self.patches.restore()

    # -- summaries --------------------------------------------------------

    def root_window(self) -> tuple[float, float]:
        """(start, end) of the outermost span, which is the traced pass."""
        _, start, end, _ = self.spans[0]
        return start, end


class LayerRows(LayerProfiler):
    """A :class:`LayerProfiler` that also charges leaf layer time to the
    open benchmark span, so layer time counts once in the self-time sum."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer
        tracer.layer_rows = self.stats

    def profiled_forward(self, module, x):
        if next(module.children(), None) is not None:
            return module.forward(x)
        start = time.perf_counter()
        out = super().profiled_forward(module, x)
        self._tracer.charge(NN_SELF, time.perf_counter() - start)
        return out

    def profiled_backward(self, module, grad_output):
        if next(module.children(), None) is not None:
            return module.backward(grad_output)
        start = time.perf_counter()
        grad = super().profiled_backward(module, grad_output)
        self._tracer.charge(NN_SELF, time.perf_counter() - start)
        return grad
