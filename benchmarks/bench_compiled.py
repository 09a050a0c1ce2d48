"""Experiment P1: the compile-once/evaluate-many engine.

A 16-point lambda sweep of the Figure 3 model at the paper's size
(n = 6, K1 = K2 = 10, 4331 states).  The interpreter pipeline re-walks
the process-algebra semantics at every grid point; the compiled engine
(:mod:`repro.pepa.compiled`) explores the structure once, then refills
the rate column and fills the kept CSR generator pattern per point.

Gate: the compiled sweep must be at least 2x faster end-to-end (both
sides include the linear solve, which is the shared floor) while
producing the same metrics.

The cold-build benchmarks time what every structure-cache miss pays
(compile, explore, first generator) on the 15 buffer/phase shapes of
the structure scan and on the Figure 5 chain; they record the trend and
gate nothing.
"""

import time

import numpy as np

from repro.ctmc import action_throughput, steady_state
from repro.models import TagsHyperExponential, TagsPepa, build_tags_model
from repro.models.tags_pepa import TagsParameters
from repro.pepa import explore_interpreter, to_generator
from repro.pepa.compiled import compile_model
from repro.sweep import structure_cache

LAMS = np.linspace(2.0, 9.5, 16)
SCAN_SHAPES = [(K, n) for K in (2, 4, 6, 8, 10) for n in (2, 4, 6)]


# flattened local names of a Figure 3 state: Q1_i, Timer1_k, Q2*_j, Timer2_k
def _q1_len(names) -> float:
    return float(names[0].rsplit("_", 1)[1])


def _q2_len(names) -> float:
    return float(names[2].rsplit("_", 1)[1])


def _interpreter_point(lam: float):
    space = explore_interpreter(build_tags_model(TagsParameters(lam=lam)))
    gen = to_generator(space)
    pi = steady_state(gen)
    L = float(pi @ space.state_reward(_q1_len)) + float(
        pi @ space.state_reward(_q2_len)
    )
    x = action_throughput(gen, pi, "service1") + action_throughput(
        gen, pi, "service2"
    )
    return L, x


def _compiled_point(lam: float):
    m = TagsPepa(lam=lam).metrics()
    return m.mean_jobs, m.throughput


def _timed_sweep(point):
    t0 = time.perf_counter()
    out = [point(float(lam)) for lam in LAMS]
    return time.perf_counter() - t0, out


def test_compile_and_first_explore(once):
    """One compile + vectorized exploration of the full-size model."""
    model = build_tags_model(TagsParameters())
    cs = once(lambda: compile_model(model).explore())
    print()
    print(
        f"P1: compiled exploration, {cs.n_states} states, "
        f"{cs.n_transitions} transitions"
    )
    assert cs.n_states == 4331


def _cold_builds(models):
    """Compile, explore and assemble the first generator of each model;
    returns the wall time and the generators."""
    t0 = time.perf_counter()
    gens = [compile_model(m).explore().generator() for m in models]
    return time.perf_counter() - t0, gens


def test_cold_build_structure_scan(once):
    """Cold structure builds of the 15 structure-scan shapes."""
    models = [
        build_tags_model(TagsParameters(lam=5.0, mu=10.0, t=51.0, n=n, K1=K, K2=K))
        for K, n in SCAN_SHAPES
    ]
    elapsed, gens = once(_cold_builds, models)
    print()
    print(f"P1: cold builds of the 15 structure-scan shapes {elapsed * 1e3:.1f} ms")
    assert [g.n_states for g in gens] == [
        (K * n + 1) * (K * (n + 1) + 1) for K, n in SCAN_SHAPES
    ]


def test_cold_build_figure5(once):
    """Cold structure build of the Figure 5 chain (n = 6, K1 = K2 = 10)."""
    elapsed, (gen,) = once(_cold_builds, [TagsHyperExponential().build()])
    print()
    print(f"P1: cold build of the Figure 5 chain {elapsed * 1e3:.1f} ms")
    assert gen.n_states == 9801


def test_sweep_speedup_compiled_vs_interpreter(once):
    """16-point lambda sweep, interpreter vs compiled, >= 2x."""

    def run():
        structure_cache().clear()
        t_interp, m_interp = _timed_sweep(_interpreter_point)
        t_compiled, m_compiled = _timed_sweep(_compiled_point)
        return t_interp, m_interp, t_compiled, m_compiled

    t_interp, m_interp, t_compiled, m_compiled = once(run)
    speedup = t_interp / t_compiled
    print()
    print(
        f"P1: 16-point sweep  interpreter {t_interp:.3f}s  "
        f"compiled {t_compiled:.3f}s  speedup {speedup:.2f}x"
    )
    # same chain solved in a different state order: allclose, not bitwise
    np.testing.assert_allclose(
        np.asarray(m_compiled), np.asarray(m_interp), rtol=1e-8
    )
    assert speedup >= 2.0, (
        f"compiled sweep only {speedup:.2f}x faster than the interpreter "
        f"(interpreter {t_interp:.3f}s, compiled {t_compiled:.3f}s)"
    )


def test_refill_cost_is_marginal(once):
    """Rate refills are orders of magnitude cheaper than exploration."""
    structure_cache().clear()
    TagsPepa(lam=2.0).metrics()  # pay the one-off compile + explore

    def refills():
        for lam in LAMS:
            TagsPepa(lam=float(lam)).metrics()

    once(refills)
    cache = structure_cache()
    assert cache.hits >= len(LAMS)
