"""Exporters: JSONL event log, iteration-trace CSV, console summary."""

import csv
import json

import pytest

from repro import obs
from repro.obs import Recorder
from repro.obs.export import events


def recorded():
    rec = Recorder()
    with rec.span("outer", method="gth"):
        rec.record_span("inner", rec.t_origin, 0.5)
        rec.add("hits", 3)
        rec.add("hits", 1, node=0)
        rec.gauge("queue", 2.0)
        rec.gauge("queue", 4.0)
        rec.trace("resid", [(1, 1e-2), (2, 1e-4)], method="power")
    return rec


class TestEvents:
    def test_one_event_per_record(self):
        evs = events(recorded())
        by_type = {}
        for e in evs:
            by_type.setdefault(e["type"], []).append(e)
        assert len(by_type["span"]) == 2
        assert len(by_type["counter"]) == 2
        assert len(by_type["gauge"]) == 1
        assert len(by_type["trace"]) == 1

    def test_span_times_relative_to_origin(self):
        evs = [e for e in events(recorded()) if e["type"] == "span"]
        inner = next(e for e in evs if e["name"] == "inner")
        assert inner["t0"] == pytest.approx(0.0)
        assert inner["parent"] is not None

    def test_counter_attrs_survive(self):
        evs = [e for e in events(recorded()) if e["type"] == "counter"]
        with_node = next(e for e in evs if e["attrs"])
        assert with_node["attrs"] == {"node": 0} and with_node["value"] == 1

    def test_all_events_json_serialisable(self):
        for e in events(recorded()):
            json.loads(json.dumps(e, default=str))


class TestWriteJsonl:
    def test_round_trips_through_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        n = obs.write_jsonl(recorded(), path)
        lines = path.read_text().splitlines()
        assert len(lines) == n
        names = {json.loads(l)["name"] for l in lines}
        assert {"outer", "inner", "hits", "queue", "resid"} <= names

    def test_appends_rather_than_truncates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        n1 = obs.write_jsonl(recorded(), path)
        n2 = obs.write_jsonl(recorded(), path)
        assert len(path.read_text().splitlines()) == n1 + n2

    def test_empty_recorder_writes_nothing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert obs.write_jsonl(Recorder(), path) == 0
        assert not path.exists()


class TestTracesToCsv:
    def test_rows_flatten_series(self, tmp_path):
        path = tmp_path / "t.csv"
        n = obs.traces_to_csv(recorded(), path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert n == len(rows) == 2
        assert rows[0]["trace"] == "resid"
        assert json.loads(rows[0]["attrs"]) == {"method": "power"}
        assert [float(r["value"]) for r in rows] == [1e-2, 1e-4]
        assert [int(r["step"]) for r in rows] == [1, 2]


class TestFormatSummary:
    def test_mentions_every_primitive(self):
        text = obs.format_summary(recorded())
        assert "2 spans" in text and "2 counters" in text
        assert "1 gauges" in text and "1 traces" in text
        for token in ("outer", "hits{node=0}", "queue", "resid{method=power}"):
            assert token in text, token

    def test_reports_coverage(self):
        text = obs.format_summary(recorded())
        assert "span coverage" in text and "%" in text

    def test_wall_column_is_the_union_of_overlapping_spans(self):
        rec = Recorder()
        t = rec.t_origin
        rec.record_span("search", t, 2.0)
        rec.record_span("search", t + 1.0, 2.0)  # overlaps the first
        rec.record_span("search", t + 5.0, 0.5)  # disjoint
        rec.record_span("solve", t + 1.5, 0.25)  # nested in both searches
        rows = {}
        for line in obs.format_summary(rec).splitlines():
            if line.split()[:1] in (["span"], ["search"], ["solve"]):
                rows[line.split()[0]] = line.split()[1:]
        assert rows["span"] == "count total s wall s mean s max s".split()
        assert rows["search"] == ["3", "4.5000", "3.5000", "1.5000", "2.0000"]
        assert rows["solve"] == ["1", "0.2500", "0.2500", "0.2500", "0.2500"]

    def test_empty_recorder_is_one_line(self):
        text = obs.format_summary(Recorder())
        assert text.startswith("obs summary: 0 spans")
        assert "\n" not in text
