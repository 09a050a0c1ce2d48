"""Sweep statistics against the recorded obs stream.

The engine files each point's ``PointStats`` fields as its
``sweep.point`` span, so ``SweepResult.summary`` / ``format_sweep_stats``
and an exported trace agree -- these tests pin that: the cache
hit/miss counts in the summary must equal the obs counter values exactly,
per-point wall times must be the span durations, and events produced in
pool workers must surface in the parent recorder.
"""

import pytest

from repro import obs
from repro.models import TagsExponential
from repro.sweep import SweepEngine
from repro.sweep.stats import PointStats, format_sweep_stats

PARAMS = dict(lam=5.0, mu=10.0, n=6, K1=3, K2=3)
T_GRID = [10.0, 40.0, 70.0, 100.0]


def grid():
    return [dict(PARAMS, t=t) for t in T_GRID]


class TestPointStats:
    """``PointStats`` is the point's solve record plus its cache-hit flag."""

    def test_fields_from_the_solve_record(self):
        engine = SweepEngine()
        params = dict(PARAMS, t=50.0)
        _, miss = engine.solve(TagsExponential, params)
        _, hit = engine.solve(TagsExponential, params)
        key = engine._key(TagsExponential, params)
        rec = engine.cache.get(key)
        assert miss == PointStats(
            index=0, key=key, method=rec.method, cache_hit=False,
            iterations=rec.iterations, residual=rec.residual,
            wall_time=rec.wall_time,
        )
        # a hit ran no solver: same record, zero duration
        assert hit == PointStats(
            index=0, key=key, method=rec.method, cache_hit=True,
            iterations=rec.iterations, residual=rec.residual, wall_time=0.0,
        )

    def test_optional_fields_default(self):
        _, stats = SweepEngine(cache=False).solve(
            TagsExponential, dict(PARAMS, t=50.0)
        )
        assert stats.key is None and stats.iterations is None


class TestSummaryMatchesCounters:
    """The acceptance bar: summary counts == obs counter values, exactly."""

    workers = 1

    def recorded_sweeps(self):
        engine = SweepEngine(workers=self.workers)
        with obs.use(obs.Recorder()) as rec:
            cold = engine.sweep(TagsExponential, grid())
            warm = engine.sweep(TagsExponential, grid())
        return rec, cold, warm

    def test_cold_then_cached_sweep(self):
        rec, cold, warm = self.recorded_sweeps()
        assert cold.summary()["solves"] == len(T_GRID)
        assert cold.summary()["cache_hits"] == 0
        assert warm.summary()["cache_hits"] == len(T_GRID)
        assert rec.counter("sweep.cache.miss") == (
            cold.summary()["solves"] + warm.summary()["solves"]
        )
        assert rec.counter("sweep.cache.hit") == (
            cold.summary()["cache_hits"] + warm.summary()["cache_hits"]
        )

    def test_point_spans_are_the_stats(self):
        rec, cold, warm = self.recorded_sweeps()
        points = rec.find_spans("sweep.point")
        assert len(points) == 2 * len(T_GRID)
        by_sweep = points[: len(T_GRID)], points[len(T_GRID):]
        for result, spans in zip((cold, warm), by_sweep):
            for span, stats in zip(spans, result.stats, strict=True):
                assert span.attrs == dict(
                    index=stats.index,
                    key=stats.key,
                    method=stats.method,
                    cache_hit=stats.cache_hit,
                    iterations=stats.iterations,
                    residual=stats.residual,
                )
                assert span.duration == stats.wall_time
            assert result.summary()["solve_time"] == pytest.approx(
                sum(s.duration for s in spans if not s.attrs["cache_hit"])
            )

    def test_point_spans_nest_under_sweep_span(self):
        rec, _, _ = self.recorded_sweeps()
        sweeps = rec.find_spans("sweep")
        assert len(sweeps) == 2
        parents = {s.parent_id for s in rec.find_spans("sweep.point")}
        assert parents == {s.span_id for s in sweeps}

    def test_sweep_span_attrs_match_summary(self):
        rec, cold, warm = self.recorded_sweeps()
        for span, result in zip(rec.find_spans("sweep"), (cold, warm)):
            assert span.attrs["cache_hits"] == result.summary()["cache_hits"]
            assert span.attrs["solves"] == result.summary()["solves"]
            assert span.attrs["points"] == result.n_points
            assert span.attrs["workers"] == result.workers

    def test_format_sweep_stats_reports_counter_values(self):
        rec, cold, warm = self.recorded_sweeps()
        line = format_sweep_stats(cold, label="fig6")
        assert line.startswith("fig6: ")
        assert f"{rec.counter('sweep.cache.miss') - warm.n_solves} solves" in line
        hits = format_sweep_stats(warm)
        assert f"{rec.counter('sweep.cache.hit')} cache hits" in hits

    def test_single_point_solve_files_counters(self):
        engine = SweepEngine()
        with obs.use(obs.Recorder()) as rec:
            _, miss = engine.solve(TagsExponential, dict(PARAMS, t=50.0))
            _, hit = engine.solve(TagsExponential, dict(PARAMS, t=50.0))
        assert (miss.cache_hit, hit.cache_hit) == (False, True)
        assert rec.counter("sweep.cache.miss") == 1
        assert rec.counter("sweep.cache.hit") == 1


class TestSummaryMatchesCountersOnPool(TestSummaryMatchesCounters):
    """The same checks when the cold sweep's misses go to a pool."""

    workers = 2

    def test_cold_sweep_ran_the_pool(self):
        rec, cold, warm = self.recorded_sweeps()
        assert (cold.workers, warm.workers) == (2, 1)
        assert len(rec.find_spans("steady_state")) == len(T_GRID)


class TestWorkerAggregation:
    """Acceptance: spans recorded inside ProcessPoolExecutor workers must
    appear in the parent recorder's export, nested under the sweep."""

    def test_worker_solver_spans_reach_parent(self):
        with obs.use(obs.Recorder()) as rec:
            result = SweepEngine(workers=2, cache=False).sweep(
                TagsExponential, grid()
            )
        solves = rec.find_spans("steady_state")
        assert len(solves) == len(T_GRID)
        sweep_id = rec.find_spans("sweep")[0].span_id
        for s in solves:
            assert s.parent_id == sweep_id
        assert result.summary()["solves"] == len(T_GRID)

    def test_parallel_summary_still_matches_counters(self):
        with obs.use(obs.Recorder()) as rec:
            result = SweepEngine(workers=2, cache=False).sweep(
                TagsExponential, grid()
            )
        assert rec.counter("sweep.cache.miss") == result.summary()["solves"]
        assert rec.counter("sweep.cache.hit") == 0

    def test_recording_does_not_change_results(self):
        plain = SweepEngine(workers=2, cache=False).sweep(
            TagsExponential, grid()
        )
        with obs.use(obs.Recorder()):
            recorded = SweepEngine(workers=2, cache=False).sweep(
                TagsExponential, grid()
            )
        assert plain.values("mean_jobs") == recorded.values("mean_jobs")


class TestDisabledPath:
    def test_stats_still_produced_without_recorder(self):
        assert not obs.recorder().enabled
        result = SweepEngine(cache=False).sweep(TagsExponential, grid())
        assert len(result.stats) == len(T_GRID)
        assert result.summary()["solves"] == len(T_GRID)
        assert obs.recorder().n_events == 0
