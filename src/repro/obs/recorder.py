"""The recording substrate: spans, counters, gauges, iteration traces.

One process-global recorder (default: :class:`NullRecorder`) receives
every event the instrumented subsystems emit.  The design constraint is
that **disabled observability must cost nothing**: every instrumentation
site first reads the global (:func:`recorder`, a module-global load) and
then checks a single class attribute (``rec.enabled``) before touching
any event machinery, so hot loops pay one attribute lookup when nothing
is recording.  ``benchmarks/bench_obs_overhead.py`` pins this.

Event kinds
-----------

**Spans** are timed, nestable regions with free-form attributes::

    with rec.span("steady_state", method="power", n=4200) as sp:
        ...
        sp.set(iterations=37)       # attributes discovered mid-region

Nesting is tracked with an explicit stack: a span entered while another
is open becomes its child (``parent_id``).  Code that already measured a
region by hand can file it with :meth:`Recorder.record_span` instead of
restructuring around a ``with`` block.  Spans enter only through these
two (and :meth:`Recorder.merge`, which carries a worker's), all in
``perf_counter`` time, so :meth:`Recorder.wall_time` and
:meth:`Recorder.coverage` measure the program's own time.

**Counters** are monotonic sums keyed by name plus optional attributes
(``rec.add("sim.killed", 3, node=0)``); **gauges** record sampled values
and keep ``count/total/min/max/last``; **iteration traces** store a
``(step, value)`` series from an iterative algorithm (solver residuals,
BFS frontier sizes) as one event rather than thousands of counters.

Cross-process aggregation
-------------------------

A worker in a :class:`~concurrent.futures.ProcessPoolExecutor` installs
its own :class:`Recorder`, does its chunk of work, then ships
:meth:`Recorder.drain` -- a plain picklable payload -- back with its
results; the parent calls :meth:`Recorder.merge`, which re-ids the
child's spans and attaches the child's root spans to whatever span the
parent currently has open.  The sweep engine does exactly this (see
``repro/sweep/engine.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = [
    "SpanRecord",
    "IterationTrace",
    "GaugeStats",
    "Span",
    "Recorder",
    "NullRecorder",
]


def _attr_key(attrs: dict) -> tuple:
    """Deterministic hashable key for a counter/gauge attribute set."""
    return tuple(sorted(attrs.items())) if attrs else ()


@dataclass(slots=True)
class SpanRecord:
    """One completed timed region."""

    name: str
    t0: float  # perf_counter at entry (absolute, monotonic clock)
    duration: float
    attrs: dict = field(default_factory=dict)
    span_id: int = 0
    parent_id: "int | None" = None

    @property
    def end(self) -> float:
        return self.t0 + self.duration


@dataclass(slots=True)
class IterationTrace:
    """A per-iteration series from one run of an iterative algorithm."""

    name: str
    series: list  # [(step, value), ...]
    attrs: dict = field(default_factory=dict)

    @property
    def n_points(self) -> int:
        return len(self.series)


@dataclass(slots=True)
class GaugeStats:
    """Aggregate of all samples seen for one gauge key."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    last: float = 0.0

    def sample(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.last = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class Span:
    """Open timed region handed out by :meth:`Recorder.span`.

    Context-manager protocol; :meth:`set` attaches attributes discovered
    while the region runs (iteration counts, result sizes, ...).
    """

    __slots__ = ("_rec", "name", "attrs", "span_id", "parent_id", "t0")

    def __init__(self, rec: "Recorder", name: str, attrs: dict) -> None:
        self._rec = rec
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id = None
        self.t0 = 0.0

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        rec = self._rec
        self.span_id = rec._new_id()
        self.parent_id = rec._stack[-1] if rec._stack else None
        rec._stack.append(self.span_id)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter() - self.t0
        rec = self._rec
        if rec._stack and rec._stack[-1] == self.span_id:
            rec._stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        rec.spans.append(
            SpanRecord(
                name=self.name,
                t0=self.t0,
                duration=dur,
                attrs=self.attrs,
                span_id=self.span_id,
                parent_id=self.parent_id,
            )
        )
        return False


class _NullSpan:
    """Reusable no-op stand-in for :class:`Span` (one shared instance)."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Recorder:
    """In-memory event store.  ``enabled`` is a *class* attribute so the
    hot-path check compiles to one attribute load on the instance."""

    enabled = True

    def __init__(self) -> None:
        self.spans: "list[SpanRecord]" = []
        self.counters: dict = {}  # (name, attr_key) -> float
        self.gauges: dict = {}  # (name, attr_key) -> GaugeStats
        self.traces: "list[IterationTrace]" = []
        self._stack: "list[int]" = []
        self._next_id = 1
        self.t_origin = time.perf_counter()

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    # -- emission ------------------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        """Open a timed region (use as a context manager)."""
        return Span(self, name, attrs)

    def record_span(self, name: str, t0: float, duration: float, **attrs) -> SpanRecord:
        """File an already-measured region (``t0`` from ``perf_counter``).

        The span is parented to whatever span is currently open, exactly
        as if it had been entered through :meth:`span`.

        It stays lean (positional construction, inlined id bump).
        """
        sid = self._next_id
        self._next_id = sid + 1
        stack = self._stack
        rec = SpanRecord(
            name, t0, duration, attrs, sid, stack[-1] if stack else None
        )
        self.spans.append(rec)
        return rec

    def add(self, name: str, value: float = 1, **attrs) -> None:
        """Increment a monotonic counter."""
        key = (name, _attr_key(attrs))
        self.counters[key] = self.counters.get(key, 0) + value

    def gauge(self, name: str, value: float, **attrs) -> None:
        """Record one sample of a gauge."""
        key = (name, _attr_key(attrs))
        stats = self.gauges.get(key)
        if stats is None:
            stats = self.gauges[key] = GaugeStats()
        stats.sample(float(value))

    def trace(self, name: str, series, **attrs) -> None:
        """Record one iteration trace (a ``[(step, value), ...]`` series)."""
        self.traces.append(
            IterationTrace(name=name, series=list(series), attrs=attrs)
        )

    # -- read-back -----------------------------------------------------
    def counter(self, name: str, **attrs) -> float:
        """Current value of a counter (0 if never incremented)."""
        return self.counters.get((name, _attr_key(attrs)), 0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter over all attribute sets."""
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def find_spans(self, name: str) -> "list[SpanRecord]":
        return [s for s in self.spans if s.name == name]

    @property
    def n_events(self) -> int:
        return len(self.spans) + len(self.counters) + len(self.gauges) + len(self.traces)

    def wall_time(self) -> float:
        """Span of the monotonic clock covered by recorded spans (first
        entry to last exit); 0 when no spans were recorded."""
        if not self.spans:
            return 0.0
        start = min(s.t0 for s in self.spans)
        end = max(s.end for s in self.spans)
        return end - start

    def coverage(self) -> float:
        """Fraction of :meth:`wall_time` covered by *root* spans.

        Root spans in this library do not overlap (one process-global
        recorder, sequential top-level regions), so the sum of their
        durations over the first-to-last window is the fraction of wall
        time the span tree explains.  The sweep acceptance bar is >= 0.95.
        """
        wall = self.wall_time()
        if wall <= 0:
            return 0.0
        covered = sum(s.duration for s in self.spans if s.parent_id is None)
        return min(covered / wall, 1.0)

    # -- cross-process aggregation -------------------------------------
    def drain(self) -> dict:
        """Detach all buffered events as a plain picklable payload (the
        recorder is left empty).  Ship this from a pool worker back to
        the parent and feed it to :meth:`merge`."""
        payload = {
            "spans": [
                (s.name, s.t0, s.duration, s.attrs, s.span_id, s.parent_id)
                for s in self.spans
            ],
            "counters": dict(self.counters),
            "gauges": {
                k: (g.count, g.total, g.min, g.max, g.last)
                for k, g in self.gauges.items()
            },
            "traces": [(t.name, t.series, t.attrs) for t in self.traces],
            "next_id": self._next_id,
        }
        self.spans = []
        self.counters = {}
        self.gauges = {}
        self.traces = []
        return payload

    def merge(self, payload: "dict | None") -> None:
        """Fold a :meth:`drain` payload (typically from a worker process)
        into this recorder.

        Span ids are offset into this recorder's id space; the payload's
        root spans are re-parented under the currently open span, so a
        sweep's worker solves appear as children of the parent's sweep
        span.  Counters and gauges aggregate; traces append.
        """
        if not payload:
            return
        offset = self._next_id
        attach_to = self._stack[-1] if self._stack else None
        for name, t0, dur, attrs, sid, parent in payload["spans"]:
            self.spans.append(
                SpanRecord(
                    name=name,
                    t0=t0,
                    duration=dur,
                    attrs=attrs,
                    span_id=sid + offset,
                    parent_id=attach_to if parent is None else parent + offset,
                )
            )
        self._next_id += payload["next_id"]
        for key, value in payload["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value
        for key, (count, total, mn, mx, last) in payload["gauges"].items():
            stats = self.gauges.get(key)
            if stats is None:
                stats = self.gauges[key] = GaugeStats()
            stats.count += count
            stats.total += total
            stats.min = min(stats.min, mn)
            stats.max = max(stats.max, mx)
            stats.last = last
        for name, series, attrs in payload["traces"]:
            self.traces.append(IterationTrace(name=name, series=series, attrs=attrs))

    def clear(self) -> None:
        """Drop all buffered events (ids and origin are kept)."""
        self.spans = []
        self.counters = {}
        self.gauges = {}
        self.traces = []


class NullRecorder(Recorder):
    """The default recorder: every operation is a no-op.

    ``enabled`` is False, so gated instrumentation sites never construct
    events; the unconditional sites (``with rec.span(...)`` in cool code
    paths) get a shared no-op span object.
    """

    enabled = False

    def __init__(self) -> None:  # skip buffer allocation
        self.spans = []
        self.counters = {}
        self.gauges = {}
        self.traces = []
        self._stack = []
        self._next_id = 1
        self.t_origin = 0.0

    def span(self, name: str, **attrs) -> "_NullSpan":  # type: ignore[override]
        return _NULL_SPAN

    def record_span(self, name, t0, duration, **attrs):
        return None

    def add(self, name, value=1, **attrs) -> None:
        pass

    def gauge(self, name, value, **attrs) -> None:
        pass

    def trace(self, name, series, **attrs) -> None:
        pass
