"""The one timeout search: ``grid_argmin`` and its callers.

Oracles are full scans of the same grid, so a wrong bracket, a lost
probe or a broken tie rule shows up as a different index.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.approx import TagsFixedPoint, optimise_timeout
from repro.approx.optimizer import (
    METRIC_SIGNS, evaluator, grid_argmin, grid_search, metric_sign, strided_probes,
)
from repro.approx.sensitivity import tuning_tolerance
from repro.experiments import figures
from repro.experiments.config import (
    FIG6_PARAMS,
    FIG8_LAMBDAS,
    FIG11_ALPHAS,
    h2_service_fig11,
)
from repro.experiments.figures import _best_integer_t, _h2_params, optimal_integer_t
from repro.models import TagsExponential, TagsHyperExponential
from repro.sweep import ModelSpec, SweepEngine, default_engine
from repro.sweep import engine as engine_mod


def search(values):
    """``grid_argmin`` over the sequence itself (index -> value): the index
    it returns, the indices it probed and whether it fell back."""
    values, probed = list(values), []

    def f(i):
        probed.append(int(i))
        return values[int(i)]

    with obs.use(obs.Recorder()) as rec:
        index = grid_argmin(f, np.arange(len(values)))
    (span,) = rec.find_spans("search")
    assert span.attrs["probes"] == len(probed) == len(set(probed))
    return index, sorted(probed), span.attrs["fallback"]


@st.composite
def strictly_unimodal(draw):
    """Strictly falls to one minimum, then strictly rises (either side may
    be empty)."""
    down = draw(st.lists(st.floats(1e-3, 10.0), max_size=40))
    up = draw(st.lists(st.floats(1e-3, 10.0), max_size=40))
    left = np.cumsum(down[::-1])[::-1] if down else np.array([])
    return [*left, 0.0, *np.cumsum(up)]


@st.composite
def valley_shaped(draw):
    """Non-increasing, then non-decreasing: plateaus and ties allowed."""
    down = draw(st.lists(st.integers(0, 3), max_size=40))
    up = draw(st.lists(st.integers(0, 3), max_size=40))
    left = np.cumsum(down[::-1])[::-1] if down else np.array([])
    return [*left, 0, *np.cumsum(up)]


class TestGridArgmin:
    @settings(max_examples=300, deadline=None)
    @given(strictly_unimodal())
    def test_strictly_unimodal_is_full_scan_argmin(self, values):
        index, _, fallback = search(values)
        assert index == int(np.argmin(values))
        assert not fallback

    @settings(max_examples=300, deadline=None)
    @given(valley_shaped())
    def test_valley_with_plateaus_is_full_scan_argmin(self, values):
        """Ties between probes refute the assumption, so plateaus cost a
        full scan but never a wrong index."""
        assert search(values)[0] == int(np.argmin(values))

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=60))
    def test_any_sequence(self, values):
        """The full-scan argmin, or the argmin of the probes when they
        looked valley-shaped; probed values are the sequence's."""
        index, probed, fallback = search(values)
        if fallback:
            assert len(probed) == len(values)
            assert index == int(np.argmin(values))
        else:
            assert index == probed[int(np.argmin([values[i] for i in probed]))]

    def test_minimum_at_an_end_behind_a_dip(self):
        index, _, fallback = search([0, 5, 4, 3, 2, 1, 2, 3, 4, 5, 6])
        assert index == 0 and fallback

    def test_second_valley_wider_than_stride_falls_back(self):
        """The shape of the reduced Figure 5 response-time curves: a deep
        valley at small t, a bump, then a wide shallower valley. Golden
        section from the two ends alone probes 0, 10, 14, ..., which look
        valley-shaped, and settles at 18; the strided first probes see
        both valleys."""
        left = [9, 7, 5, 3, 1, 2, 3, 4, 5, 6, 7, 8]
        right = [7, 6, 5, 4, 3, 2.5, 2] + [3 + i for i in range(20)]
        index, _, fallback = search(left + right)
        assert index == 4 and fallback

    def test_probes_memoised_and_few(self):
        calls = []

        def f(x):
            calls.append(x)
            return (x - 31.0) ** 2

        assert grid_argmin(f, np.arange(45.0)) == 31
        assert len(calls) == len(set(calls)) <= 16

    def test_files_one_span(self):
        with obs.use(obs.Recorder()) as rec:
            grid_argmin(lambda x: [3, 1, 2][x], range(3))
            grid_argmin(lambda x: [0, 2, 1, 3, 0.5][x], range(5))
        spans = rec.find_spans("search")
        assert [s.attrs["n_grid"] for s in spans] == [3, 5]
        assert [s.attrs["fallback"] for s in spans] == [False, True]
        assert spans[1].attrs["probes"] == 5
        assert rec.counter_total("search.fallback") == 1

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="empty grid"):
            grid_argmin(lambda x: x, [])

    @pytest.mark.parametrize(
        "xs",
        [range(n) for n in range(1, 51)] + [range(25, 70), range(2, 80, 2)],
        ids=[f"n{n}" for n in range(1, 51)] + ["fig8", "fig11"],
    )
    def test_first_probes_are_strided_probes(self, xs):
        """The stride is defined once: the searches' first probes are the
        points the figures solve ahead of them in one sweep."""
        probed = []

        def f(x):
            probed.append(x)
            return abs(x - xs[len(xs) // 3])

        grid_argmin(f, xs)
        first = strided_probes(xs)
        assert probed[: len(first)] == first
        assert len(set(first)) == len(first) and first[-1] == xs[-1]


class TestValidationBeforeSolving:
    @pytest.fixture
    def no_solves(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("solved before validating")

        monkeypatch.setattr(SweepEngine, "solve", boom)
        monkeypatch.setattr(SweepEngine, "sweep", boom)

    def test_unknown_metric(self, no_solves):
        with pytest.raises(ValueError, match="unknown metric"):
            optimal_integer_t(5.0, metric="nope")

    def test_empty_t_range(self, no_solves):
        with pytest.raises(ValueError, match="empty grid"):
            optimal_integer_t(5.0, t_range=range(0))

    def test_no_grid_points(self):
        def factory(t):
            raise AssertionError("solved before validating")

        with pytest.raises(ValueError, match="grid_points"):
            optimise_timeout(factory, grid_points=0)

    def test_one_sign_table(self):
        assert METRIC_SIGNS == {
            "mean_jobs": 1, "response_time": 1, "loss_rate": 1, "throughput": -1,
        }
        assert metric_sign("throughput") == -1
        with pytest.raises(ValueError, match="unknown metric"):
            metric_sign("nope")
        spec = ModelSpec.of(TagsFixedPoint, lam=11.0, mu=10.0, n=6)
        m = TagsFixedPoint(lam=11.0, mu=10.0, n=6, t=40.0).metrics()
        assert evaluator(spec, "throughput")(40.0) == m.throughput

    def test_tolerance_direction_from_sign_table(self, no_solves):
        with pytest.raises(ValueError, match="unknown metric"):
            tuning_tolerance(ModelSpec.of(TagsExponential, lam=5.0), 40.0, "nope")


class TestOptimiseTimeout:
    def test_scans_whole_grid(self):
        """No unimodality assumed: the fixed point's mean jobs under
        overload dips in the interior but is lowest at the grid's end."""
        res = optimise_timeout(
            lambda t: TagsFixedPoint(lam=14.0, mu=10.0, t=t, n=6),
            "mean_jobs", t_min=5.0, t_max=200.0, grid_points=25, refine=False,
        )
        assert not np.isnan(res.grid_values).any()
        assert res.t_opt == 5.0 == res.grid_t[np.argmin(res.grid_values)]

    def test_spec_and_factory_agree(self):
        kw = dict(lam=11.0, mu=10.0, n=4, K1=5, K2=5)
        spec = ModelSpec.of(TagsExponential, **kw)
        a = optimise_timeout(spec, "throughput", t_min=5.0, t_max=200.0, grid_points=12)
        b = optimise_timeout(
            lambda t: TagsExponential(t=t, **kw),
            "throughput", t_min=5.0, t_max=200.0, grid_points=12,
        )
        assert a.t_opt == b.t_opt and a.value == b.value


def full_scan_t(model_cls, params, t_range, metric):
    grid = [dict(params, t=float(t)) for t in t_range]
    vals = default_engine().sweep(model_cls, grid).values(metric)
    return list(t_range)[int(np.argmin(METRIC_SIGNS[metric] * np.asarray(vals)))]


class TestFigureOracles:
    @pytest.mark.parametrize("lam", FIG8_LAMBDAS)
    def test_figure8_search_is_full_scan(self, lam):
        with obs.use(obs.Recorder()) as rec:
            t_opt = optimal_integer_t(lam)
        params = {**FIG6_PARAMS, "lam": float(lam)}
        assert t_opt == full_scan_t(TagsExponential, params, range(25, 70), "mean_jobs")
        assert rec.counter_total("search.fallback") == 0

    def test_reduced_h2_search_is_full_scan(self):
        """Every Figure 11 alpha on a reduced Figure 5 chain (n = 3,
        K1 = K2 = 4), whose response-time curves for alpha >= 0.90 have
        their minimum in a narrow valley at t = 4-10 and a second valley
        at larger t: the search must find the first or fall back."""
        t_range = range(2, 80, 2)
        with obs.use(obs.Recorder()) as rec:
            for metric in ("response_time", "throughput"):
                for a in FIG11_ALPHAS:
                    params = dict(
                        _h2_params(h2_service_fig11(float(a)), 11.0), n=3, K1=4, K2=4
                    )
                    want = full_scan_t(TagsHyperExponential, params, t_range, metric)
                    got = _best_integer_t(TagsHyperExponential, params, t_range, metric)
                    assert got == want, (metric, a)
        assert rec.counter_total("search.fallback") > 0


class TestDrivenSearches:
    """A figure's searches run side by side through
    ``SweepEngine.drive``: the same probes and optima as one search at a
    time, whatever order the pool answers in."""

    @staticmethod
    def run(monkeypatch, workers, figure, *args):
        monkeypatch.setattr(engine_mod, "_DEFAULT_ENGINE", SweepEngine(workers=workers))
        with obs.use(obs.Recorder()) as rec:
            fig = figure(*args)
        return fig, rec

    @staticmethod
    def probes(rec):
        """``probes`` of each ``search`` span, in the order the searches
        started (they may finish in any order)."""
        return [s.attrs["probes"] for s in sorted(rec.find_spans("search"), key=lambda s: s.t0)]

    def test_figure8_parallel_equals_serial(self, monkeypatch):
        serial, rec1 = self.run(monkeypatch, 1, figures.figure8)
        parallel, rec2 = self.run(monkeypatch, 2, figures.figure8)
        assert serial.series.keys() == parallel.series.keys()
        for label, values in serial.series.items():
            assert np.array_equal(values, parallel.series[label]), label
        assert list(parallel.series["optimal t"]) == [51, 48, 46, 42]
        # the pool adds no solve, and each search probes the same points
        assert rec1.counter_total("sweep.cache.miss") == rec2.counter_total("sweep.cache.miss")
        for rec in (rec1, rec2):
            assert self.probes(rec) == [16, 15, 15, 15]
        (drive1,), (drive2,) = rec1.find_spans("drive"), rec2.find_spans("drive")
        assert (drive1.attrs["workers"], drive2.attrs["workers"]) == (1, 2)

    def test_second_figure8_starts_no_pool(self, monkeypatch):
        first, _ = self.run(monkeypatch, 2, figures.figure8)
        pools = []

        def no_pool(*args, **kwargs):
            pools.append(args)
            raise RuntimeError("no pool expected")

        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", no_pool)
        with obs.use(obs.Recorder()) as rec:
            again = figures.figure8()
        assert pools == [] and rec.counter_total("sweep.cache.miss") == 0
        for label, values in first.series.items():
            assert np.array_equal(values, again.series[label]), label
        assert self.probes(rec) == [16, 15, 15, 15]

    def test_unpicklable_model_falls_back_to_serial(self, monkeypatch):
        """On a reduced Figure 3 chain: a local class does not pickle, so
        the driver starts no pool and solves in-process."""

        class LocalTags(TagsExponential):  # local class: not picklable
            pass

        params = [dict(FIG6_PARAMS, lam=lam, n=3, K1=4, K2=4) for lam in (5.0, 9.0)]
        monkeypatch.setattr(engine_mod, "_DEFAULT_ENGINE", SweepEngine(workers=1))
        want = figures._best_integer_ts(TagsExponential, params, range(2, 60), "mean_jobs")
        pools = []
        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", lambda *a, **k: pools.append(a))
        monkeypatch.setattr(engine_mod, "_DEFAULT_ENGINE", SweepEngine(workers=2))
        with obs.use(obs.Recorder()) as rec:
            got = figures._best_integer_ts(LocalTags, params, range(2, 60), "mean_jobs")
        assert got == want and pools == []
        (drive,) = rec.find_spans("drive")
        assert drive.attrs["workers"] == 1
        assert rec.counter_total("sweep.cache.miss") == sum(self.probes(rec))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=60), min_size=1, max_size=5),
        st.randoms(use_true_random=False),
    )
    def test_interleaved_searches_match_grid_argmin(self, sequences, rnd):
        """Several searches at once, their probes answered one at a time
        in random order: each returns ``grid_argmin``'s index and probes
        the same points, none twice."""
        searches = [grid_search(len(values)) for values in sequences]
        asked = [[] for _ in sequences]
        returned = [None] * len(sequences)
        batches, out = {}, []

        def resume(k, values):
            try:
                batch = searches[k].send(values)
            except StopIteration as stop:
                returned[k] = stop.value
                return
            batches[k] = (batch, {})
            asked[k].extend(batch)
            out.extend((k, i) for i in batch)

        for k in range(len(searches)):
            resume(k, None)
        while out:
            k, i = out.pop(rnd.randrange(len(out)))
            batch, got = batches[k]
            got[i] = sequences[k][i]
            if len(got) == len(batch):
                resume(k, [got[j] for j in batch])
        for values, probed, (index, probes, fallback) in zip(sequences, asked, returned):
            assert (index, sorted(probed), fallback) == search(values)
            assert probes == len(probed) == len(set(probed))

    def test_recorded_figure8_trace_is_honest(self, monkeypatch):
        """The searches overlap inside one ``drive`` span, so root spans
        stay disjoint and the trace's wall time is the program's."""
        monkeypatch.setattr(engine_mod, "_DEFAULT_ENGINE", SweepEngine(workers=2))
        t0 = time.perf_counter()
        with obs.use(obs.Recorder()) as rec:
            figures.figure8()
        elapsed = time.perf_counter() - t0
        roots = sorted((s.t0, s.end) for s in rec.spans if s.parent_id is None)
        assert all(later[0] >= earlier[1] for earlier, later in zip(roots, roots[1:]))
        assert rec.wall_time() <= elapsed
        assert len(rec.find_spans("search")) == 4
        (drive,) = rec.find_spans("drive")
        assert {s.parent_id for s in rec.find_spans("search")} == {drive.span_id}
        assert {s.parent_id for s in rec.find_spans("steady_state")} >= {drive.span_id}
