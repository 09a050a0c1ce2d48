"""Tests for the tuple-state BFS generator builder."""

import numpy as np
import pytest

from repro.ctmc import steady_state
from repro.ctmc.bfs import assemble_generator, bfs_generator


def ring(n, rate=1.0):
    def succ(s):
        (i,) = s
        return [("step", rate, ((i + 1) % n,))]

    return succ


class TestExploration:
    def test_ring(self):
        gen, states, index = bfs_generator((0,), ring(5))
        assert gen.n_states == 5
        assert states[0] == (0,)
        assert index[(3,)] == states.index((3,))
        np.testing.assert_allclose(steady_state(gen), 0.2)

    def test_initial_is_state_zero(self):
        gen, states, _ = bfs_generator((7,), ring(10))
        assert states[0] == (7,)

    def test_duplicate_transitions_sum(self):
        def succ(s):
            if s == (0,):
                return [("a", 1.0, (1,)), ("a", 2.0, (1,)), ("b", 1.0, (0,))]
            return [("back", 6.0, (0,))]

        gen, _, _ = bfs_generator((0,), succ)
        assert gen.Q[0, 1] == pytest.approx(3.0)
        # the self-loop 'b' does not enter the generator
        assert gen.Q[0, 0] == pytest.approx(-3.0)
        assert gen.action_rates["b"][0, 0] == 1.0

    def test_zero_rates_skipped(self):
        def succ(s):
            return [("a", 0.0, (1,)), ("b", 1.0, (0,))] if s == (0,) else []

        gen, states, _ = bfs_generator((0,), succ)
        assert gen.n_states == 1  # the zero-rate edge never explored (1,)

    def test_negative_rate_rejected(self):
        def succ(s):
            return [("a", -1.0, (1,))]

        with pytest.raises(ValueError, match="negative rate"):
            bfs_generator((0,), succ)

    def test_max_states_guard(self):
        def succ(s):
            (i,) = s
            return [("grow", 1.0, (i + 1,))]

        with pytest.raises(MemoryError):
            bfs_generator((0,), succ, max_states=100)

    def test_action_matrices_complete(self):
        gen, _, _ = bfs_generator((0,), ring(4, rate=2.5))
        assert set(gen.action_rates) == {"step"}
        assert gen.action_rates["step"].sum() == pytest.approx(4 * 2.5)

    def test_seeds_continue_exploration(self):
        """Two disjoint rings: the seed's ring follows the initial's,
        and a seed already reached is not re-added."""

        def succ(s):
            ring_id, i = s
            return [("step", 1.0, (ring_id, (i + 1) % 3))]

        gen, states, index = bfs_generator(
            (0, 0), succ, seeds=[(0, 2), (1, 1), (1, 0)]
        )
        assert states == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 0)]
        assert index == {s: i for i, s in enumerate(states)}
        assert gen.action_rates["step"].sum() == pytest.approx(6.0)


class TestAssembleGenerator:
    def test_unlabelled_transitions_enter_q_only(self):
        src = np.array([0, 1, 1])
        dst = np.array([1, 0, 0])
        rate = np.array([2.0, 1.0, 0.5])
        gen = assemble_generator(2, src, dst, rate, ["go", None, "back"])
        np.testing.assert_allclose(gen.dense(), [[-2.0, 2.0], [1.5, -1.5]])
        assert set(gen.action_rates) == {"go", "back"}
        assert gen.action_rates["back"][1, 0] == 0.5
