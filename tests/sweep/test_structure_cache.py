"""Structure-level caching: explore once per structure, refill per point.

Covers the :class:`repro.sweep.StructureCache` itself (LRU, counters,
drop semantics) and the end-to-end guarantee the compiled engine was
built for: a parameter sweep over rate values runs exactly one
state-space exploration per reachability structure, and every refilled
generator is bit-identical to a cold compile.
"""

import numpy as np
import pytest

from repro import obs
from repro.ctmc import action_throughput, steady_state
from repro.models import (
    TagsExponential,
    TagsHyperExponential,
    TagsPepa,
    tags_pepa_metrics,
)
from repro.models.tags_pepa import TagsParameters
from repro.pepa import explore, to_generator
from repro.pepa.compiled import compile_model
from repro.sweep import StructureCache, SweepEngine, structure_cache


@pytest.fixture(autouse=True)
def fresh_cache():
    structure_cache().clear()
    yield
    structure_cache().clear()


def assert_generators_equal(a, b):
    assert (a.Q != b.Q).nnz == 0
    assert set(a.action_rates) == set(b.action_rates)
    for name, mat in a.action_rates.items():
        assert (mat != b.action_rates[name]).nnz == 0


class TestStructureCache:
    def test_miss_then_hit(self):
        cache = StructureCache()
        built = []

        def make():
            built.append(1)
            return object()

        first = cache.get_or_build("k", make)
        second = cache.get_or_build("k", make)
        assert first is second
        assert built == [1]
        assert (cache.misses, cache.hits) == (1, 1)

    def test_lru_eviction(self):
        cache = StructureCache(maxsize=2)
        a = cache.get_or_build("a", object)
        cache.get_or_build("b", object)
        cache.get_or_build("a", object)  # refresh a
        cache.get_or_build("c", object)  # evicts b, not a
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.get_or_build("a", object) is a
        assert len(cache) == 2

    def test_drop_and_clear(self):
        cache = StructureCache()
        cache.get_or_build("k", object)
        cache.drop("k")
        assert "k" not in cache
        cache.drop("k")  # idempotent
        cache.get_or_build("k", object)
        cache.clear()
        assert len(cache) == 0

    def test_obs_counters(self):
        cache = StructureCache()
        with obs.use(obs.Recorder()) as rec:
            cache.get_or_build("k", object)
            cache.get_or_build("k", object)
            cache.get_or_build("k", object)
        assert rec.counter_total("sweep.structure.miss") == 1
        assert rec.counter_total("sweep.structure.hit") == 2
        assert len(rec.find_spans("sweep.structure.build")) == 1


SMALL = dict(mu=10.0, t=51.0, n=3, K1=4, K2=4)


class TestDirectModelTemplates:
    def test_explores_once_per_structure(self):
        with obs.use(obs.Recorder()) as rec:
            for lam in (2.0, 4.0, 6.0, 8.0):
                TagsExponential(lam=lam, **SMALL).generator
        assert len(rec.find_spans("pepa.explore.fast")) == 1
        assert rec.counter_total("sweep.structure.miss") == 1
        assert rec.counter_total("sweep.structure.hit") == 3

    def test_different_structure_explores_again(self):
        with obs.use(obs.Recorder()) as rec:
            TagsExponential(lam=2.0, **SMALL).generator
            TagsExponential(lam=2.0, **dict(SMALL, K1=5)).generator
        assert len(rec.find_spans("pepa.explore.fast")) == 2

    @pytest.mark.parametrize(
        "make",
        [
            lambda lam: TagsExponential(lam=lam, **SMALL),
            lambda lam: TagsExponential(
                lam=lam, mu=10.0, n=3, K1=4, K2=4, t=51.0, restart_work=False
            ),
            lambda lam: TagsExponential(
                lam=lam, mu=10.0, n=3, K1=4, K2=4, t=51.0,
                t_of_q1=lambda q: 30.0 + 5.0 * q,
            ),
            lambda lam: TagsHyperExponential(lam=lam, n=2, K1=3, K2=3),
            lambda lam: TagsHyperExponential(
                lam=lam, n=2, K1=3, K2=3, alpha_prime=1.0
            ),
        ],
        ids=["exp", "exp-migrate", "exp-dynamic-t", "h2", "h2-ap1"],
    )
    def test_refilled_generator_bit_equal(self, make):
        """Warm build (refill of a cached structure) == cold build."""
        make(3.0).generator  # populate the template
        warm_model = make(9.0)
        warm = warm_model.generator
        cold = compile_model(warm_model.build()).explore().generator()
        assert_generators_equal(warm, cold)


class TestPepaSweepIntegration:
    GRID = [dict(lam=l, mu=10.0, t=51.0, n=3, K1=4, K2=4) for l in
            (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)]

    def test_explore_once_refill_per_point(self):
        with obs.use(obs.Recorder()) as rec:
            SweepEngine(workers=1).sweep(TagsPepa, self.GRID)
        assert len(rec.find_spans("pepa.compile")) == 1
        assert len(rec.find_spans("pepa.explore.fast")) == 1
        assert len(rec.find_spans("template.refill")) == len(self.GRID) - 1
        assert rec.counter_total("template.refill.points") == len(self.GRID) - 1

    def test_metrics_match_interpreter_pipeline(self):
        """TagsPepa (structure cache + refilled template) == a fresh
        exploration with a scratch generator assembly, exactly: both
        queue lengths (node 2 read through ``state_reward`` rather than
        the tuple projection), every throughput and both losses."""
        for point in (self.GRID[0], self.GRID[-1]):
            model = TagsPepa(**point)
            fast = model.metrics()
            space = explore(model.build())
            gen = to_generator(space)
            pi = steady_state(gen)
            # local names: Q1_i, Timer1_k, Q2_j or Q2r_j, Timer2_k
            q1 = space.state_reward(lambda names: float(names[0].split("_")[1]))
            q2 = space.state_reward(lambda names: float(names[2].split("_")[1]))
            assert fast.mean_jobs_per_node == (float(pi @ q1), float(pi @ q2))
            x = {
                action: action_throughput(gen, pi, action)
                for action in ("service1", "service2", "timeout", "arrloss")
            }
            assert fast.throughput == x["service1"] + x["service2"]
            assert fast.extra["timeout_throughput"] == x["timeout"]
            assert fast.extra["service1_throughput"] == x["service1"]
            assert fast.extra["service2_throughput"] == x["service2"]
            assert fast.loss_per_node == (
                x["arrloss"], x["timeout"] - x["service2"]
            )
            assert fast.extra["n_states"] == space.n_states

    def test_sweep_values_match_per_point_solves(self):
        res = SweepEngine(workers=1).sweep(TagsPepa, self.GRID)
        expect = [tags_pepa_metrics(TagsParameters(**p)) for p in self.GRID]
        np.testing.assert_array_equal(
            res.values("mean_jobs"), [m.mean_jobs for m in expect]
        )
