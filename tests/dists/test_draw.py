"""The cdf-inversion samplers and the scalar ``draw`` against oracles.

Every discrete choice in the samplers inverts a precomputed normalised
cdf, ``cdf.searchsorted(rng.random(size), "right")``.  The oracles below
are the samplers as they were written on ``rng.choice(p=)``, which
builds that table on every call; the new draws must return the same
bits on the same generator state.
"""

import numpy as np
import pytest

from repro.dists import (
    BoundedPareto,
    Coxian,
    EmpiricalDistribution,
    Erlang,
    Exponential,
    HyperExponential,
    PhaseType,
    h2_balanced_means,
)
from repro.serve import Trace, TraceDemands
from repro.sim import PoissonArrivals, RandomPolicy

N_DRAWS = 20_000


def choice_h2_sample(h, size, rng):
    branch = rng.choice(len(h.probs), size=size, p=h.probs)
    return rng.exponential(1.0 / h.rates[branch])


def choice_ph_sample(ph, size, rng):
    """The absorbing-chain walk with ``choice`` for the start phase and
    the unnormalised cumulative jump table."""
    m = ph.n_phases
    rates = -np.diag(ph.T)
    P = np.zeros((m, m + 1))
    for i in range(m):
        P[i, :m] = ph.T[i] / rates[i]
        P[i, i] = 0.0
        P[i, m] = ph.exit[i] / rates[i]
    cumP = np.cumsum(P, axis=1)
    total = np.zeros(size)
    start = np.concatenate([ph.alpha, [ph.atom_at_zero]])
    phase = rng.choice(m + 1, size=size, p=start / start.sum())
    active = phase < m
    while active.any():
        idx = np.flatnonzero(active)
        p = phase[idx]
        total[idx] += rng.exponential(1.0 / rates[p])
        u = rng.random(idx.size)
        nxt = (u[:, None] < cumP[p]).argmax(axis=1)
        phase[idx] = nxt
        active[idx] = nxt < m
    return total


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


PHASE_TYPES = {
    "coxian": Coxian([3.0, 1.5, 0.7], [0.6, 0.3]),
    "coxian-long": Coxian([9.0, 4.0, 2.0, 1.0, 0.5], [0.9, 0.8, 0.5, 0.2]),
    "erlang": PhaseType(Erlang(4, 2.0).alpha, Erlang(4, 2.0).T),
    "h2-as-ph": PhaseType([0.9, 0.1], np.diag([-20.0, -0.5])),
    "atom": PhaseType([0.3, 0.5], [[-2.0, 1.0], [0.5, -1.0]]),
}


@pytest.mark.parametrize("size", [1, 7, 1000])
@pytest.mark.parametrize("seed", range(3))
def test_hyperexponential_sample_matches_choice(size, seed):
    h = h2_balanced_means(0.1, 0.99, 100.0)
    got = h.sample(size, np.random.default_rng(seed))
    want = choice_h2_sample(h, size, np.random.default_rng(seed))
    assert same_bits(got, want)


def test_hyperexponential_stream_matches_choice():
    h = HyperExponential([0.2, 0.5, 0.3], [10.0, 1.0, 0.1])
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    got = [h.sample(1, a)[0] for _ in range(N_DRAWS)]
    want = [choice_h2_sample(h, 1, b)[0] for _ in range(N_DRAWS)]
    assert got == want


@pytest.mark.parametrize("name", sorted(PHASE_TYPES))
def test_phase_type_sample_matches_choice(name):
    ph = PHASE_TYPES[name]
    got = ph.sample(N_DRAWS, np.random.default_rng(5))
    want = choice_ph_sample(ph, N_DRAWS, np.random.default_rng(5))
    assert same_bits(got, want)


def test_erlang_sample_matches_gamma():
    e = Erlang(6, 50.0)
    got = e.sample(N_DRAWS, np.random.default_rng(2))
    want = np.random.default_rng(2).gamma(shape=6, scale=1.0 / 50.0, size=N_DRAWS)
    assert same_bits(got, want)


@pytest.mark.parametrize("weights", [(0.5, 0.5), (0.7, 0.2, 0.1), (0.1, 0.0, 0.9)])
def test_random_route_matches_choice(weights):
    policy = RandomPolicy(weights=weights)
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    w = np.asarray(weights, dtype=float)
    got = [policy.route(None, a) for _ in range(N_DRAWS)]
    want = [int(b.choice(len(w), p=w)) for _ in range(N_DRAWS)]
    assert got == want


def demand_sources():
    trace = Trace.synthesise(PoissonArrivals(5.0), Exponential(1.0), 3000, seed=4)
    return {
        "exponential": lambda: Exponential(3.0),
        "erlang": lambda: Erlang(5, 2.0),
        "h2": lambda: h2_balanced_means(0.1, 0.99, 100.0),
        **{f"ph-{k}": (lambda v=v: v) for k, v in PHASE_TYPES.items()},
        "bounded-pareto": lambda: BoundedPareto(0.1, 1e4, 1.1),
        "empirical": lambda: EmpiricalDistribution(
            np.random.default_rng(0).pareto(1.5, 500) + 0.01
        ),
        "trace": lambda: TraceDemands(trace),
    }


@pytest.mark.parametrize("name", sorted(demand_sources()))
def test_draw_equals_sample_of_one(name):
    make = demand_sources()[name]
    by_draw, by_sample = make(), make()
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    got = [by_draw.draw(a) for _ in range(2000)]
    want = [by_sample.sample(1, b)[0] for _ in range(2000)]
    assert all(type(x) is float for x in got)
    assert got == want
    # both generators consumed the same draws
    assert a.random() == b.random()
