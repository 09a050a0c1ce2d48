"""Exporters for recorded observability data.

Three output shapes, matching three consumers:

* :func:`write_jsonl` -- the machine-readable event log.  One JSON object
  per line; the whole export is a **single atomic append** (one
  ``O_APPEND`` write), so concurrent exporters -- e.g. several benchmark
  processes sharing a trace file -- never interleave half-written lines.
* :func:`format_summary` -- the human-readable console table (rendered
  with :func:`repro.experiments.report.render_table`, the same engine
  the figure tables use).
* :func:`traces_to_csv` -- iteration traces (solver residual series, BFS
  frontier series) as a flat CSV for external plotting.
"""

from __future__ import annotations

import json
import os

from repro.obs.recorder import Recorder

__all__ = ["events", "write_jsonl", "traces_to_csv", "format_summary"]


def events(rec: Recorder) -> "list[dict]":
    """Flatten a recorder's buffers into JSON-ready event dicts.

    Span times are reported relative to the recorder's origin so traces
    start near ``t=0`` regardless of process uptime.
    """
    out: "list[dict]" = []
    origin = rec.t_origin
    for s in rec.spans:
        out.append(
            {
                "type": "span",
                "name": s.name,
                "t0": s.t0 - origin,
                "dur": s.duration,
                "id": s.span_id,
                "parent": s.parent_id,
                "attrs": s.attrs,
            }
        )
    for (name, attrs), value in rec.counters.items():
        out.append(
            {"type": "counter", "name": name, "attrs": dict(attrs), "value": value}
        )
    for (name, attrs), g in rec.gauges.items():
        out.append(
            {
                "type": "gauge",
                "name": name,
                "attrs": dict(attrs),
                "count": g.count,
                "mean": g.mean,
                "min": g.min,
                "max": g.max,
                "last": g.last,
            }
        )
    for t in rec.traces:
        out.append(
            {
                "type": "trace",
                "name": t.name,
                "attrs": t.attrs,
                "series": [[step, value] for step, value in t.series],
            }
        )
    return out


def write_jsonl(rec: Recorder, path) -> int:
    """Append the recorder's events to ``path`` as JSON lines.

    The serialised block is written with a single ``write`` on an
    ``O_APPEND`` descriptor, so parallel writers append whole blocks, not
    interleaved fragments.  Returns the number of events written.
    """
    evs = events(rec)
    if not evs:
        return 0
    payload = "".join(
        json.dumps(e, default=str, separators=(",", ":")) + "\n" for e in evs
    ).encode()
    fd = os.open(os.fspath(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, payload)
    finally:
        os.close(fd)
    return len(evs)


def traces_to_csv(rec: Recorder, path) -> int:
    """Write every iteration trace as ``trace, attrs, step, value`` rows.

    Returns the number of data rows written.
    """
    import csv

    rows = 0
    with open(os.fspath(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trace", "attrs", "step", "value"])
        for t in rec.traces:
            attrs = json.dumps(t.attrs, default=str, sort_keys=True)
            for step, value in t.series:
                writer.writerow([t.name, attrs, step, repr(float(value))])
                rows += 1
    return rows


def format_summary(rec: Recorder) -> str:
    """Aggregate console summary: spans by name, counters, gauges, traces."""
    # deferred: report -> figures -> models is a heavy import chain, and
    # importing it at module load would cycle (figures' solvers import obs)
    from repro.experiments.report import render_table

    lines = [
        f"obs summary: {len(rec.spans)} spans, {len(rec.counters)} counters, "
        f"{len(rec.gauges)} gauges, {len(rec.traces)} traces; "
        f"wall {rec.wall_time():.3f} s, span coverage {rec.coverage():.1%}"
    ]

    # "total s" sums durations; "wall s" is the length of the union of
    # the name's intervals, which concurrent spans cannot push past the run
    by_name: dict = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append((s.t0, s.t0 + s.duration))
    if by_name:
        rows = []
        for name, spans in by_name.items():
            durations = [t1 - t0 for t0, t1 in spans]
            total = sum(durations)
            rows.append(
                [name, len(spans), total, _union_length(spans),
                 total / len(spans), max(durations)]
            )
        rows.sort(key=lambda row: -row[2])
        lines += [
            "",
            render_table(
                ["span", "count", "total s", "wall s", "mean s", "max s"], rows
            ),
        ]

    if rec.counters:
        rows = [
            [_key_label(name, attrs), value]
            for (name, attrs), value in sorted(rec.counters.items())
        ]
        lines += ["", render_table(["counter", "value"], rows, float_fmt="{:g}")]

    if rec.gauges:
        rows = [
            [_key_label(name, attrs), g.count, g.min, g.mean, g.max, g.last]
            for (name, attrs), g in sorted(rec.gauges.items())
        ]
        lines += [
            "",
            render_table(["gauge", "n", "min", "mean", "max", "last"], rows),
        ]

    if rec.traces:
        rows = [
            [
                _key_label(t.name, tuple(sorted(t.attrs.items()))),
                t.n_points,
                t.series[-1][0] if t.series else "",
                f"{t.series[-1][1]:.3e}" if t.series else "",
            ]
            for t in rec.traces
        ]
        lines += [
            "",
            render_table(["trace", "points", "last step", "last value"], rows),
        ]
    return "\n".join(lines)


def _union_length(intervals) -> float:
    """Length of the union of ``(t0, t1)`` intervals."""
    length, reach = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 > reach:
            length += t1 - max(t0, reach)
            reach = t1
    return length


def _key_label(name: str, attrs: tuple) -> str:
    if not attrs:
        return name
    inner = ",".join(f"{k}={v}" for k, v in attrs)
    return f"{name}{{{inner}}}"
