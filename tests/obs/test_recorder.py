"""Recorder core: spans, counters, gauges, traces, globals, env config,
and the drain/merge protocol the sweep workers use."""

import os
import subprocess
import sys

import pytest

from repro import obs
from repro.obs import NullRecorder, Recorder


class TestGlobals:
    def test_default_is_null(self):
        rec = obs.recorder()
        assert isinstance(rec, NullRecorder)
        assert rec.enabled is False

    def test_use_swaps_and_restores(self):
        before = obs.recorder()
        with obs.use(Recorder()) as rec:
            assert obs.recorder() is rec
            assert rec.enabled
        assert obs.recorder() is before

    def test_use_restores_on_error(self):
        before = obs.recorder()
        with pytest.raises(RuntimeError):
            with obs.use(Recorder()):
                raise RuntimeError("boom")
        assert obs.recorder() is before

    def test_install_none_restores_null(self):
        obs.install(Recorder())
        try:
            assert obs.recorder().enabled
        finally:
            obs.install(None)
        assert isinstance(obs.recorder(), NullRecorder)


class TestSpans:
    def test_nesting_via_stack(self):
        rec = Recorder()
        with rec.span("outer") as outer:
            with rec.span("inner"):
                pass
        inner_rec, outer_rec = rec.spans  # completion order
        assert inner_rec.name == "inner"
        assert inner_rec.parent_id == outer_rec.span_id
        assert outer_rec.parent_id is None

    def test_set_attaches_attrs_mid_region(self):
        rec = Recorder()
        with rec.span("s", a=1) as sp:
            sp.set(b=2)
        assert rec.spans[0].attrs == {"a": 1, "b": 2}

    def test_error_annotates_span(self):
        rec = Recorder()
        with pytest.raises(ValueError):
            with rec.span("s"):
                raise ValueError
        assert rec.spans[0].attrs["error"] == "ValueError"

    def test_record_span_parents_to_open_span(self):
        rec = Recorder()
        with rec.span("open") as sp:
            manual = rec.record_span("manual", 0.0, 1.0, k="v")
        assert manual.parent_id == sp.span_id
        assert rec.find_spans("manual")[0].attrs == {"k": "v"}

    def test_null_span_is_inert(self):
        rec = NullRecorder()
        with rec.span("anything", x=1) as sp:
            sp.set(y=2)
        assert rec.spans == []


class TestCountersGaugesTraces:
    def test_counters_aggregate_by_name_and_attrs(self):
        rec = Recorder()
        rec.add("c")
        rec.add("c", 4)
        rec.add("c", 2, node=1)
        assert rec.counter("c") == 5
        assert rec.counter("c", node=1) == 2
        assert rec.counter_total("c") == 7
        assert rec.counter("absent") == 0

    def test_gauges_track_min_max_mean_last(self):
        rec = Recorder()
        for v in (4.0, 1.0, 7.0):
            rec.gauge("g", v)
        g = rec.gauges[("g", ())]
        assert (g.count, g.min, g.max, g.last) == (3, 1.0, 7.0, 7.0)
        assert g.mean == pytest.approx(4.0)

    def test_traces_keep_series(self):
        rec = Recorder()
        rec.trace("t", [(1, 0.5), (2, 0.25)], method="power")
        assert rec.traces[0].n_points == 2
        assert rec.traces[0].attrs == {"method": "power"}


class TestDrainMerge:
    def make_child_payload(self):
        child = Recorder()
        with child.span("work", chunk=0):
            child.add("solves", 3)
            child.gauge("q", 2.0)
            child.trace("resid", [(1, 0.1)])
        return child.drain()

    def test_drain_empties_child(self):
        child = Recorder()
        child.add("c")
        payload = child.drain()
        assert child.n_events == 0
        assert payload["counters"]

    def test_merge_attaches_roots_to_open_span(self):
        parent = Recorder()
        with parent.span("sweep") as sp:
            parent.merge(self.make_child_payload())
        work = parent.find_spans("work")[0]
        assert work.parent_id == sp.span_id

    def test_merge_remaps_ids_without_collision(self):
        parent = Recorder()
        with parent.span("a"):
            pass
        payload = self.make_child_payload()
        parent.merge(payload)
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))

    def test_merge_aggregates_counters_and_gauges(self):
        parent = Recorder()
        parent.add("solves", 1)
        parent.merge(self.make_child_payload())
        parent.merge(self.make_child_payload())
        assert parent.counter("solves") == 7
        assert parent.gauges[("q", ())].count == 2
        assert len(parent.traces) == 2

    def test_merge_none_is_noop(self):
        parent = Recorder()
        parent.merge(None)
        assert parent.n_events == 0


class TestCoverage:
    def test_coverage_of_back_to_back_roots(self):
        rec = Recorder()
        rec.record_span("a", 0.0, 1.0)
        rec.record_span("b", 1.0, 1.0)
        assert rec.wall_time() == pytest.approx(2.0)
        assert rec.coverage() == pytest.approx(1.0)

    def test_gap_lowers_coverage(self):
        rec = Recorder()
        rec.record_span("a", 0.0, 1.0)
        rec.record_span("b", 3.0, 1.0)
        assert rec.coverage() == pytest.approx(0.5)

    def test_children_do_not_double_count(self):
        rec = Recorder()
        with rec.span("root"):
            rec.record_span("child", 0.0, 100.0)
        assert rec.coverage() <= 1.0


class TestEnvConfiguration:
    def run_child(self, env_value, code):
        env = dict(os.environ, REPRO_OBS=env_value)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )

    def test_record_installs_recorder(self):
        proc = self.run_child(
            "record",
            "from repro import obs; print(type(obs.recorder()).__name__)",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "Recorder"

    def test_unset_like_values_stay_null(self):
        for value in ("", "off", "0", "none"):
            proc = self.run_child(
                value,
                "from repro import obs; print(type(obs.recorder()).__name__)",
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "NullRecorder"

    def test_jsonl_exports_at_exit(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        proc = self.run_child(
            f"jsonl:{out}",
            "from repro import obs; obs.recorder().add('c', 2)",
        )
        assert proc.returncode == 0, proc.stderr
        assert '"counter"' in out.read_text()

    def test_jsonl_skips_empty_run(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        proc = self.run_child(f"jsonl:{out}", "pass")
        assert proc.returncode == 0, proc.stderr
        assert not out.exists()

    def test_bad_value_raises(self):
        proc = self.run_child("bogus", "import repro.obs")
        assert proc.returncode != 0
        assert "REPRO_OBS" in proc.stderr
