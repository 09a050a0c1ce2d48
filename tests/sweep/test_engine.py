"""Sweep engine: parallel determinism, per-point stats, method
validation, worker resolution, and the figure-level shared-solve
guarantee."""

import numpy as np
import pytest

from repro import obs
from repro.models import TagsExponential
from repro.sweep import SolveCache, SweepEngine, default_engine
from repro.sweep.engine import WORKERS_ENV_VAR

from tests.sweep._counting_model import CountingMM1K, DiesInWorker, FailingPoint

# a small Figure 6 system (reduced buffers) so chains stay a few hundred
# states and the suite stays fast; same structure as the paper's sweep
FIG6_SMALL = dict(lam=5.0, mu=10.0, n=6, K1=4, K2=4)
T_GRID = [10.0, 30.0, 50.0, 70.0, 90.0, 110.0]


def fig6_grid():
    return [dict(FIG6_SMALL, t=t) for t in T_GRID]


class TestDeterminism:
    def test_parallel_matches_serial_bitwise(self):
        """Figure 6 metrics from a parallel sweep must equal the serial
        sweep's (acceptance bar: allclose at rtol=1e-10; the direct
        solvers actually give bit-identical results)."""
        serial = SweepEngine(workers=1).sweep(TagsExponential, fig6_grid())
        for workers in (2, 3):
            par = SweepEngine(workers=workers).sweep(TagsExponential, fig6_grid())
            for metric in ("mean_jobs", "response_time", "throughput"):
                s = np.asarray(serial.values(metric))
                p = np.asarray(par.values(metric))
                np.testing.assert_allclose(p, s, rtol=1e-10, atol=0.0)
                np.testing.assert_array_equal(p, s)  # stronger: bitwise

    def test_parallel_preserves_grid_order(self):
        par = SweepEngine(workers=3).sweep(TagsExponential, fig6_grid())
        assert [s.index for s in par.stats] == list(range(len(T_GRID)))
        assert [p["t"] for p in par.params] == T_GRID
        # mean queue length is not monotone in t (interior optimum), so a
        # shuffled result could not reproduce the solved-by-param mapping
        for p, m in zip(par.params, par.metrics):
            ref, _ = SweepEngine(workers=1).solve(TagsExponential, p)
            assert ref.mean_jobs == m.mean_jobs


class TestPointStats:
    def test_stats_fields(self):
        res = SweepEngine(workers=1).sweep(TagsExponential, fig6_grid())
        for s in res.stats:
            assert s.method == "direct"  # 725 states > GTH_CUTOFF: sparse LU
            assert s.residual < 1e-8
            assert not s.cache_hit
        summary = res.summary()
        assert summary["points"] == summary["solves"] == len(T_GRID)
        assert summary["cache_hits"] == 0


class TestMethodValidation:
    @pytest.mark.parametrize("method", ["gmres", "gauss_seidel"])
    def test_unknown_method_rejected_at_construction(self, method):
        """A bad method fails when the engine is built, not after a
        parallel sweep has spun its pool down and rerun serially."""
        with pytest.raises(ValueError, match="unknown method") as exc:
            SweepEngine(method=method)
        for name in ("auto", "direct", "gth", "power"):
            assert repr(name) in str(exc.value)


class TestWorkerResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "7")
        eng = SweepEngine(workers=3)
        assert eng.resolve_workers(2, 100) == 2

    def test_engine_attribute_beats_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "7")
        assert SweepEngine(workers=3).resolve_workers(None, 100) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert SweepEngine().resolve_workers(None, 100) == 5

    def test_env_invalid_raises(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "many")
        with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
            SweepEngine().resolve_workers(None, 100)

    def test_clamped_to_task_count(self):
        assert SweepEngine(workers=16).resolve_workers(None, 3) == 3
        assert SweepEngine(workers=0).resolve_workers(None, 3) == 1

    def test_default_is_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert SweepEngine().resolve_workers(None, 10_000) == min(
            os.cpu_count() or 1, 10_000
        )


class TestParallelFallback:
    def test_unpicklable_model_falls_back_to_serial(self):
        class LocalModel(CountingMM1K):  # local class: not picklable
            pass

        res = SweepEngine(workers=2, cache=False).sweep(
            LocalModel, [dict(lam=l, mu=5.0, K=5) for l in (1.0, 2.0, 3.0)]
        )
        assert res.workers == 1  # fell back
        assert res.n_points == 3

    @pytest.mark.parametrize("workers, built", [(2, 0), (1, 4)])
    def test_failing_point_raises_after_one_solve(self, monkeypatch, workers, built):
        """A point's own exception is not a pool failure: the parallel
        sweep raises it without re-solving the grid in the parent (which
        builds no model), the serial one after building points 0-3."""
        monkeypatch.setattr(FailingPoint, "constructed", 0)
        grid = [dict(x=float(x)) for x in range(6)]
        with pytest.raises(ValueError, match="point 3.0 fails"):
            SweepEngine(workers=workers, cache=False).sweep(FailingPoint, grid)
        assert FailingPoint.constructed == built

    @pytest.mark.parametrize("workers, built", [(2, 0), (1, 4)])
    def test_failing_point_raises_from_drive(self, monkeypatch, workers, built):
        """The search driver follows the same rule."""
        monkeypatch.setattr(FailingPoint, "constructed", 0)

        def asks():
            yield [dict(x=float(x)) for x in range(6)]

        with pytest.raises(ValueError, match="point 3.0 fails"):
            SweepEngine(workers=workers).drive(FailingPoint, [asks()])
        assert FailingPoint.constructed == built

    def test_broken_pool_falls_back_to_serial(self):
        """A worker that dies breaks the pool, not the sweep: the points
        are solved in-process instead."""
        grid = [dict(x=float(x), fail_at=-1.0) for x in range(3)]
        res = SweepEngine(workers=2, cache=False).sweep(DiesInWorker, grid)
        assert res.workers == 1 and res.values("mean_jobs") == [0.0, 1.0, 2.0]

        def asks():
            return (yield grid)

        with obs.use(obs.Recorder()) as rec:
            (metrics,) = SweepEngine(workers=2).drive(DiesInWorker, [asks()])
        assert [m.mean_jobs for m in metrics] == [0.0, 1.0, 2.0]
        assert rec.find_spans("drive")[0].attrs["workers"] == 1
        assert rec.counter_total("sweep.cache.miss") == len(grid)

    def test_drive_answers_disk_records_in_process(self, tmp_path):
        """A record on the disk layer is a cache hit: it never reaches a
        worker, so the driver counts no miss."""
        grid = [dict(x=float(x), fail_at=-1.0) for x in range(4)]
        SweepEngine(workers=1, cache=SolveCache(disk_dir=tmp_path)).sweep(FailingPoint, grid)

        def asks():
            return (yield grid)

        with obs.use(obs.Recorder()) as rec:
            (metrics,) = SweepEngine(workers=2, cache=SolveCache(disk_dir=tmp_path)).drive(
                FailingPoint, [asks()]
            )
        assert [m.mean_jobs for m in metrics] == [0.0, 1.0, 2.0, 3.0]
        assert rec.counter_total("sweep.cache.miss") == 0
        assert rec.counter_total("sweep.cache.hit") == len(grid)

    def test_parallel_results_enter_parent_cache(self):
        eng = SweepEngine(workers=2)
        r1 = eng.sweep(TagsExponential, fig6_grid())
        assert r1.n_solves == len(T_GRID)
        r2 = eng.sweep(TagsExponential, fig6_grid())
        assert r2.n_hits == len(T_GRID) and r2.n_solves == 0

    def test_partial_cache_solves_only_misses(self):
        eng = SweepEngine(workers=1)
        eng.sweep(TagsExponential, fig6_grid()[:3])
        res = eng.sweep(TagsExponential, fig6_grid())
        assert res.n_hits == 3 and res.n_solves == len(T_GRID) - 3


class TestFigureSharing:
    def test_figure6_and_figure7_share_one_solve_pass(self):
        """The seed computed the Fig 6/7 sweep twice; now the second
        figure must be answered entirely from the shared cache."""
        from repro.experiments import figure6, figure7

        eng = default_engine()
        eng.cache.clear()
        t_grid = np.asarray(T_GRID)

        figure6(t_grid)
        misses_after_6 = eng.cache.misses
        assert misses_after_6 == len(T_GRID) + 2  # sweep + random + JSQ

        figure7(t_grid)
        assert eng.cache.misses == misses_after_6  # zero new solves
        assert eng.cache.hits >= len(T_GRID) + 2

    def test_h2_pair_shares_one_solve_pass(self):
        from repro.experiments import figure9, figure10

        eng = default_engine()
        eng.cache.clear()
        t_grid = np.asarray([20.0, 40.0, 60.0])

        figure9(t_grid)
        misses_after_9 = eng.cache.misses
        figure10(t_grid)
        assert eng.cache.misses == misses_after_9
