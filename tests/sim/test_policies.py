"""Routing-policy unit tests; JSQ tie-breaking is pinned explicitly."""

import numpy as np
import pytest

from repro.dists import Exponential
from repro.sim import JSQPolicy, PoissonArrivals, Simulation


class TestJsqTieBreak:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="tie_break"):
            JSQPolicy(tie_break="argmin")

    def test_no_tie_ignores_mode(self):
        rng = np.random.default_rng(0)
        for mode in ("random", "lowest"):
            assert JSQPolicy(tie_break=mode).route([3, 1], rng) == 1
            assert JSQPolicy(tie_break=mode).route([0, 4], rng) == 0

    def test_lowest_always_picks_first_tied(self):
        rng = np.random.default_rng(0)
        policy = JSQPolicy(nodes=3, tie_break="lowest")
        assert all(policy.route([2, 2, 2], rng) == 0 for _ in range(50))
        assert all(policy.route([5, 1, 1], rng) == 1 for _ in range(50))

    def test_random_is_uniform_over_ties(self):
        rng = np.random.default_rng(7)
        policy = JSQPolicy(nodes=3)
        picks = [policy.route([1, 1, 1], rng) for _ in range(3000)]
        counts = np.bincount(picks, minlength=3)
        assert counts.min() > 0.25 * len(picks)  # ~1/3 each

    def test_random_is_seeded(self):
        policy = JSQPolicy()
        a = [policy.route([0, 0], np.random.default_rng(5)) for _ in range(20)]
        b = [policy.route([0, 0], np.random.default_rng(5)) for _ in range(20)]
        assert a == b

    @pytest.mark.parametrize(
        "lengths",
        [[2, 2], [1, 1, 1], [0, 3, 0], [4, 1, 2, 1], [0, 0, 5, 0], [3, 3, 3, 3]],
    )
    def test_random_draws_the_rng_choice_stream(self, lengths):
        """The tie break draws what ``rng.choice`` over the tied indices
        draws, and leaves the generator in the same state."""
        policy = JSQPolicy(nodes=len(lengths))
        low = min(lengths)
        tied = [i for i, q in enumerate(lengths) if q == low]
        rng, oracle = np.random.default_rng(11), np.random.default_rng(11)
        picks = [policy.route(lengths, rng) for _ in range(2000)]
        assert picks == [int(oracle.choice(tied)) for _ in range(2000)]
        assert rng.random() == oracle.random()

    @pytest.mark.parametrize("lengths", [[0, 3, 0], [4, 1, 2, 1], [3, 3, 3]])
    def test_lowest_draws_nothing(self, lengths):
        policy = JSQPolicy(nodes=len(lengths), tie_break="lowest")
        rng, untouched = np.random.default_rng(11), np.random.default_rng(11)
        low = min(lengths)
        assert policy.route(lengths, rng) == lengths.index(low)
        assert rng.random() == untouched.random()

    def test_lowest_biases_node0_under_low_load(self):
        """The documented argmin artefact: at low load most arrivals see
        an empty system, so 'lowest' funnels them to node 0 while
        'random' splits evenly."""

        def run(mode):
            sim = Simulation(
                PoissonArrivals(1.0),
                Exponential(10.0),
                JSQPolicy(tie_break=mode),
                (10, 10),
                seed=3,
            )
            return sim.run(t_end=5000.0, warmup=500.0).mean_queue_lengths

        low_a, low_b = run("lowest")
        rnd_a, rnd_b = run("random")
        assert low_a > 5 * low_b  # node 0 hoards the work
        assert rnd_a == pytest.approx(rnd_b, rel=0.25)  # symmetric
