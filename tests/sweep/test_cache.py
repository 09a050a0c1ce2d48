"""Content-addressed solve cache: keying, hit/miss semantics, disk layer."""

import dataclasses
import hashlib
import json
import os
import pickle

import numpy as np
import pytest

from repro.experiments import FIG6_PARAMS
from repro.models import TagsExponential
from repro.models.metrics import from_population_and_throughput
from repro.sweep import (
    ModelSpec,
    SolveCache,
    SolveRecord,
    SweepEngine,
    UncacheableParams,
    cache_key,
)
from repro.sweep.cache import _canon

from tests.sweep._counting_model import CountingMM1K

PARAMS = dict(lam=2.0, mu=5.0, K=10)


class _WritesMarker:
    """Unpickling this object writes a marker file."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


@pytest.fixture(autouse=True)
def reset_counter():
    CountingMM1K.builds = 0
    yield


def make_engine(**kw):
    kw.setdefault("workers", 1)
    return SweepEngine(**kw)


class TestCacheKey:
    def test_stable_across_dict_order(self):
        a = cache_key(TagsExponential, dict(lam=5.0, mu=10.0, t=51.0), "auto", 1e-8)
        b = cache_key(TagsExponential, dict(t=51.0, mu=10.0, lam=5.0), "auto", 1e-8)
        assert a == b

    def test_numpy_scalars_equal_python_floats(self):
        a = cache_key(TagsExponential, dict(lam=np.float64(5.0)), "auto", 1e-8)
        b = cache_key(TagsExponential, dict(lam=5.0), "auto", 1e-8)
        assert a == b

    @pytest.mark.parametrize(
        "change",
        [
            dict(params=dict(lam=5.000001, t=51.0)),
            dict(params=dict(lam=5.0, t=52.0)),
            dict(method="power"),
            dict(tol=1e-6),
            dict(model_cls=CountingMM1K),
        ],
        ids=["param-value", "other-param", "method", "tol", "model-class"],
    )
    def test_any_change_changes_key(self, change):
        base = dict(
            model_cls=TagsExponential,
            params=dict(lam=5.0, t=51.0),
            method="auto",
            tol=1e-8,
        )
        changed = {**base, **change}
        assert cache_key(**base) != cache_key(**changed)

    def test_callable_param_is_uncacheable(self):
        with pytest.raises(UncacheableParams):
            cache_key(TagsExponential, dict(t_of_q1=lambda q: 50.0), "auto", 1e-8)

    def test_distribution_objects_canonicalise(self):
        from repro.dists.families import HyperExponential

        a = _canon(HyperExponential.h2(0.99, 19.9, 0.199))
        b = _canon(HyperExponential.h2(0.99, 19.9, 0.199))
        c = _canon(HyperExponential.h2(0.98, 19.9, 0.199))
        assert a == b
        assert a != c


class TestHitMissSemantics:
    def test_identical_params_hit_without_resolving(self):
        eng = make_engine()
        m1, s1 = eng.solve(CountingMM1K, PARAMS)
        assert CountingMM1K.builds == 1
        assert not s1.cache_hit
        m2, s2 = eng.solve(CountingMM1K, PARAMS)
        assert CountingMM1K.builds == 1  # solver NOT re-invoked
        assert s2.cache_hit
        assert m2.mean_jobs == m1.mean_jobs

    def test_changed_param_misses(self):
        eng = make_engine()
        eng.solve(CountingMM1K, PARAMS)
        eng.solve(CountingMM1K, dict(PARAMS, lam=2.5))
        assert CountingMM1K.builds == 2

    def test_changed_method_misses(self):
        e1 = make_engine()
        e2 = make_engine(method="power", cache=e1.cache)
        e1.solve(CountingMM1K, PARAMS)
        e2.solve(CountingMM1K, PARAMS)
        assert CountingMM1K.builds == 2

    def test_changed_tol_misses(self):
        e1 = make_engine()
        e2 = make_engine(tol=1e-6, cache=e1.cache)
        e1.solve(CountingMM1K, PARAMS)
        e2.solve(CountingMM1K, PARAMS)
        assert CountingMM1K.builds == 2

    def test_sweep_then_point_lookup_shares(self):
        eng = make_engine()
        grid = [dict(PARAMS, lam=x) for x in (1.0, 2.0, 3.0)]
        eng.sweep(CountingMM1K, grid)
        assert CountingMM1K.builds == 3
        eng.solve(CountingMM1K, dict(PARAMS, lam=2.0))
        assert CountingMM1K.builds == 3

    def test_cache_disabled(self):
        eng = make_engine(cache=False)
        eng.solve(CountingMM1K, PARAMS)
        eng.solve(CountingMM1K, PARAMS)
        assert CountingMM1K.builds == 2

    def test_lru_eviction(self):
        cache = SolveCache(maxsize=2)
        eng = make_engine(cache=cache)
        for lam in (1.0, 2.0, 3.0):
            eng.solve(CountingMM1K, dict(PARAMS, lam=lam))
        assert len(cache) == 2
        eng.solve(CountingMM1K, dict(PARAMS, lam=1.0))  # evicted -> resolve
        assert CountingMM1K.builds == 4


class TestDiskLayer:
    def test_round_trip_across_fresh_cache(self, tmp_path):
        eng1 = make_engine(cache=SolveCache(disk_dir=tmp_path))
        m1, _ = eng1.solve(CountingMM1K, PARAMS)
        assert CountingMM1K.builds == 1

        # brand-new cache instance, same directory: disk hit, no solve
        eng2 = make_engine(cache=SolveCache(disk_dir=tmp_path))
        m2, s2 = eng2.solve(CountingMM1K, PARAMS)
        assert CountingMM1K.builds == 1
        assert s2.cache_hit
        assert m2 == m1
        assert eng2.cache.get(s2.key) == eng1.cache.get(s2.key)

    def test_figure6_point_round_trips_exactly(self, tmp_path):
        """Every metric field of a Figure 6 point survives the JSON
        layer with ``==`` (floats round-trip bit for bit)."""
        params = dict(FIG6_PARAMS, t=52.0)
        m1, _ = make_engine(cache=SolveCache(disk_dir=tmp_path)).solve(
            TagsExponential, params
        )
        m2, s2 = make_engine(cache=SolveCache(disk_dir=tmp_path)).solve(
            TagsExponential, params
        )
        assert s2.cache_hit
        for f in dataclasses.fields(m1):
            assert getattr(m2, f.name) == getattr(m1, f.name), f.name
        assert m2 == m1

    def test_infinite_response_time_round_trips(self, tmp_path):
        metrics = from_population_and_throughput(
            mean_jobs_per_node=(1.5, 0.25), throughput=0.0, offered_load=3.0,
            loss_per_node=(3.0, 0.0), extra={"n_states": np.int64(7)},
        )
        assert metrics.response_time == float("inf")
        rec = SolveRecord(
            metrics=metrics, method="gth", iterations=None,
            residual=1e-17, wall_time=0.5,
        )
        SolveCache(disk_dir=tmp_path).put("k", rec)
        back = SolveCache(disk_dir=tmp_path).get("k")
        assert back == rec
        assert back.metrics.response_time == float("inf")
        assert back.metrics.mean_jobs_per_node == (1.5, 0.25)

    def test_pickle_file_is_never_loaded(self, tmp_path):
        """A planted ``<key>.pkl`` whose unpickling would run code is
        ignored: no marker file appears and the point recomputes."""
        marker = tmp_path / "pwned"
        key = make_engine()._key(CountingMM1K, PARAMS)
        with open(tmp_path / f"{key}.pkl", "wb") as fh:
            pickle.dump(_WritesMarker(str(marker)), fh)

        eng = make_engine(cache=SolveCache(disk_dir=tmp_path))
        _, s = eng.solve(CountingMM1K, PARAMS)
        assert not s.cache_hit and CountingMM1K.builds == 1
        assert not marker.exists()
        assert eng.cache.corrupt == 0
        # control: loading the planted file would have written the marker
        with open(tmp_path / f"{key}.pkl", "rb") as fh:
            pickle.load(fh).close()
        assert marker.exists()

    def test_corrupt_file_recomputes(self, tmp_path):
        eng1 = make_engine(cache=SolveCache(disk_dir=tmp_path))
        _, s1 = eng1.solve(CountingMM1K, PARAMS)
        (tmp_path / f"{s1.key}.json").write_bytes(b"not json at all")

        eng2 = make_engine(cache=SolveCache(disk_dir=tmp_path))
        _, s2 = eng2.solve(CountingMM1K, PARAMS)
        assert not s2.cache_hit
        assert CountingMM1K.builds == 2
        # and the recompute heals the file for the next fresh cache
        eng3 = make_engine(cache=SolveCache(disk_dir=tmp_path))
        _, s3 = eng3.solve(CountingMM1K, PARAMS)
        assert s3.cache_hit

    def test_truncated_entry_recomputes(self, tmp_path):
        eng1 = make_engine(cache=SolveCache(disk_dir=tmp_path))
        _, s1 = eng1.solve(CountingMM1K, PARAMS)
        path = tmp_path / f"{s1.key}.json"
        path.write_bytes(path.read_bytes()[:20])

        eng2 = make_engine(cache=SolveCache(disk_dir=tmp_path))
        _, s2 = eng2.solve(CountingMM1K, PARAMS)
        assert not s2.cache_hit and CountingMM1K.builds == 2

    def test_wrong_object_type_recomputes(self, tmp_path):
        eng1 = make_engine(cache=SolveCache(disk_dir=tmp_path))
        _, s1 = eng1.solve(CountingMM1K, PARAMS)
        (tmp_path / f"{s1.key}.json").write_text(json.dumps({"not": "a record"}))
        eng2 = make_engine(cache=SolveCache(disk_dir=tmp_path))
        _, s2 = eng2.solve(CountingMM1K, PARAMS)
        assert not s2.cache_hit and CountingMM1K.builds == 2

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        """A truncated entry is moved aside to <key>.corrupt -- the bad
        bytes survive for post-mortems -- counted on the cache and in
        obs, and the recompute heals the live .json."""
        from repro import obs

        eng1 = make_engine(cache=SolveCache(disk_dir=tmp_path))
        _, s1 = eng1.solve(CountingMM1K, PARAMS)
        path = tmp_path / f"{s1.key}.json"
        bad_bytes = path.read_bytes()[:20]
        path.write_bytes(bad_bytes)

        cache2 = SolveCache(disk_dir=tmp_path)
        eng2 = make_engine(cache=cache2)
        with obs.use(obs.Recorder()) as rec:
            _, s2 = eng2.solve(CountingMM1K, PARAMS)
        assert not s2.cache_hit
        assert cache2.corrupt == 1
        assert rec.counter("cache.corrupt") == 1
        quarantined = tmp_path / f"{s1.key}.corrupt"
        assert quarantined.read_bytes() == bad_bytes
        # the recompute rewrote the live entry: a fresh cache hits
        cache3 = SolveCache(disk_dir=tmp_path)
        _, s3 = make_engine(cache=cache3).solve(CountingMM1K, PARAMS)
        assert s3.cache_hit
        assert cache3.corrupt == 0

    def test_missing_file_is_plain_miss_not_corrupt(self, tmp_path):
        cache = SolveCache(disk_dir=tmp_path)
        assert cache.get("no-such-key") is None
        assert cache.corrupt == 0
        assert list(tmp_path.iterdir()) == []

    def test_clear_disk_removes_quarantined_files(self, tmp_path):
        cache = SolveCache(disk_dir=tmp_path)
        eng = make_engine(cache=cache)
        _, s = eng.solve(CountingMM1K, PARAMS)
        path = tmp_path / f"{s.key}.json"
        path.write_bytes(b"junk")
        SolveCache(disk_dir=tmp_path).get(s.key)  # quarantines
        assert (tmp_path / f"{s.key}.corrupt").exists()
        cache.clear(disk=True)
        assert [
            p for p in os.listdir(tmp_path)
            if p.endswith((".json", ".corrupt"))
        ] == []

    def test_no_stray_tmp_files(self, tmp_path):
        eng = make_engine(cache=SolveCache(disk_dir=tmp_path))
        eng.solve(CountingMM1K, PARAMS)
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_clear_disk(self, tmp_path):
        cache = SolveCache(disk_dir=tmp_path)
        eng = make_engine(cache=cache)
        eng.solve(CountingMM1K, PARAMS)
        cache.clear(disk=True)
        assert [p for p in os.listdir(tmp_path) if p.endswith(".json")] == []
        eng.solve(CountingMM1K, PARAMS)
        assert CountingMM1K.builds == 2


class TestUncacheablePoints:
    def test_callable_param_still_solves(self):
        eng = SweepEngine(workers=1)
        m, s = eng.solve(
            TagsExponential,
            dict(lam=5.0, mu=10.0, n=2, K1=2, K2=2, t=50.0,
                 t_of_q1=lambda q: 50.0),
        )
        assert s.key is None and not s.cache_hit
        assert m.throughput > 0


class TestModelSpec:
    def test_spec_round_trip(self):
        spec = ModelSpec.of(CountingMM1K, param_name="lam", mu=5.0, K=10)
        assert spec.params_at(2.0) == dict(mu=5.0, K=10, lam=2.0)
        model = spec(2.0)
        assert isinstance(model, CountingMM1K)

    def test_record_is_picklable(self):
        eng = make_engine()
        _, s = eng.solve(CountingMM1K, PARAMS)
        rec = eng.cache.get(s.key)
        clone = pickle.loads(pickle.dumps(rec))  # pool workers ship records
        assert isinstance(clone, SolveRecord)
        assert clone == rec


class TestEngineTag:
    """Satellite: the solve-cache key carries an engine/version tag so a
    solver-pipeline change (e.g. interpreter -> compiled) invalidates old
    entries instead of silently serving them."""

    BASE = dict(
        model_cls=TagsExponential, params=dict(lam=5.0), method="auto", tol=1e-8
    )

    def test_engine_changes_key(self):
        assert cache_key(**self.BASE) != cache_key(**self.BASE, engine="v2")
        assert cache_key(**self.BASE, engine="v1") != cache_key(
            **self.BASE, engine="v2"
        )

    def test_engine_none_is_default(self):
        assert cache_key(**self.BASE) == cache_key(**self.BASE, engine=None)

    def test_sweep_key_uses_solve_engine_attr(self):
        eng = make_engine()
        base = eng._key(TagsExponential, dict(lam=5.0))
        assert base == cache_key(
            TagsExponential,
            dict(lam=5.0),
            eng.method,
            eng.tol,
            engine=TagsExponential.SOLVE_ENGINE,
        )

    def test_untagged_model_gets_no_tag(self):
        class Plain:
            pass

        eng = make_engine()
        assert eng._key(Plain, dict(lam=5.0)) == cache_key(
            Plain, dict(lam=5.0), eng.method, eng.tol, engine=None
        )

    def test_solver_revision_changes_key(self, monkeypatch):
        import repro.sweep.cache as cache_mod

        before = cache_key(**self.BASE)
        monkeypatch.setattr(cache_mod, "SOLVER_REVISION", "older-solver")
        assert cache_key(**self.BASE) != before

    def test_record_under_pre_revision_key_is_a_miss(self, tmp_path):
        """A disk record keyed the way keys were built before the solver
        revision joined the token (same fields, no revision) is never
        served: the point is solved afresh."""
        eng = make_engine(cache=SolveCache(disk_dir=tmp_path))
        token = (
            f"{CountingMM1K.__module__}.{CountingMM1K.__qualname__}",
            _canon(dict(PARAMS)),
            str(eng.method),
            repr(float(eng.tol)),
            getattr(CountingMM1K, "SOLVE_ENGINE", None),
        )
        old_key = hashlib.sha256(repr(token).encode()).hexdigest()
        stale = SolveRecord(
            metrics=from_population_and_throughput(
                mean_jobs_per_node=(9.0,), throughput=1.0, offered_load=1.0
            ),
            method="direct",
            iterations=None,
            residual=0.0,
            wall_time=0.0,
        )
        SolveCache(disk_dir=tmp_path).put(old_key, stale)
        assert eng._key(CountingMM1K, PARAMS) != old_key
        m, stats = eng.solve(CountingMM1K, PARAMS)
        assert not stats.cache_hit
        assert CountingMM1K.builds == 1
        assert m.mean_jobs != stale.metrics.mean_jobs

    def test_engine_bump_invalidates_cache_entry(self, monkeypatch):
        eng = make_engine()
        eng.solve(CountingMM1K, PARAMS)
        assert CountingMM1K.builds == 1
        monkeypatch.setattr(CountingMM1K, "SOLVE_ENGINE", "bumped-v2",
                            raising=False)
        eng.solve(CountingMM1K, PARAMS)
        assert CountingMM1K.builds == 2  # old entry not served
