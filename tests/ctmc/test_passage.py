"""First-passage and absorption tests against closed forms."""

import numpy as np
import pytest

from repro.ctmc import (
    Generator,
    absorbing_on_action,
    absorption_probabilities,
    mean_first_passage_times,
)
from repro.ctmc.generator import TransitionBatch
from repro.ctmc.passage import conditional_absorption_times


def birth_death(lam, mu, K):
    b = TransitionBatch()
    for i in range(K):
        b.add(i, i + 1, lam, action="up")
        b.add(i + 1, i, mu, action="down")
    b.add(K, K, lam, action="overflow")
    return b.to_generator(K + 1)


class TestMeanFirstPassage:
    def test_two_state(self):
        # 0 -(a)-> 1 at rate a; expected time from 0 to 1 is 1/a
        g = Generator.from_triples(2, [0, 1], [1, 0], [4.0, 1.0])
        m = mean_first_passage_times(g, [1])
        assert m[1] == 0.0
        assert m[0] == pytest.approx(0.25)

    def test_pure_birth_chain(self):
        # expected time 0 -> K is K / lam
        lam, K = 2.0, 5
        g = Generator.from_triples(
            K + 1, list(range(K)), list(range(1, K + 1)), [lam] * K
        )
        m = mean_first_passage_times(g, [K])
        assert m[0] == pytest.approx(K / lam)

    def test_birth_death_hitting_time(self):
        """E[time to reach K from 0] in a birth-death chain has the classic
        sum formula; check against it."""
        lam, mu, K = 2.0, 3.0, 6
        g = birth_death(lam, mu, K)
        m = mean_first_passage_times(g, [K])
        # h_i = expected time from i to i+1: h_i = 1/lam + (mu/lam) h_{i-1}
        h = [1.0 / lam]
        for i in range(1, K):
            h.append(1.0 / lam + (mu / lam) * h[i - 1])
        assert m[0] == pytest.approx(sum(h), rel=1e-9)

    def test_unreachable_target_inf(self):
        g = Generator.from_triples(3, [0, 1], [1, 0], [1.0, 1.0])
        m = mean_first_passage_times(g, [2])
        assert np.isinf(m[0]) and np.isinf(m[1])
        assert m[2] == 0.0

    def test_empty_targets_rejected(self):
        g = birth_death(1.0, 1.0, 2)
        with pytest.raises(ValueError):
            mean_first_passage_times(g, [])

    def test_out_of_range_rejected(self):
        g = birth_death(1.0, 1.0, 2)
        with pytest.raises(ValueError):
            mean_first_passage_times(g, [99])


class TestAbsorptionProbabilities:
    def test_gamblers_ruin(self):
        """Symmetric random walk on 0..4 with absorbing ends: ruin
        probability from i is 1 - i/4."""
        K = 4
        src, dst, rate = [], [], []
        for i in range(1, K):
            src += [i, i]
            dst += [i - 1, i + 1]
            rate += [1.0, 1.0]
        g = Generator.from_triples(K + 1, src, dst, rate)
        B = absorption_probabilities(g, [[0], [K]])
        for i in range(K + 1):
            assert B[i, 0] == pytest.approx(1 - i / K)
            assert B[i, 1] == pytest.approx(i / K)

    def test_biased_walk(self):
        # up rate 2, down rate 1 on 0..3: p_win(i) follows ((1/2)^i) form
        K = 3
        src, dst, rate = [], [], []
        for i in range(1, K):
            src += [i, i]
            dst += [i - 1, i + 1]
            rate += [1.0, 2.0]
        g = Generator.from_triples(K + 1, src, dst, rate)
        B = absorption_probabilities(g, [[0], [K]])
        # classic gambler's ruin with p=2/3: P[hit K first | start i]
        q_over_p = 0.5
        for i in range(K + 1):
            expect = (1 - q_over_p**i) / (1 - q_over_p**K)
            assert B[i, 1] == pytest.approx(expect)

    def test_rows_sum_to_one_when_absorption_certain(self):
        g = Generator.from_triples(3, [1, 1], [0, 2], [1.0, 3.0])
        B = absorption_probabilities(g, [[0], [2]])
        np.testing.assert_allclose(B.sum(axis=1), 1.0)
        assert B[1, 1] == pytest.approx(0.75)

    def test_closed_class_outside_targets(self):
        """State 0 leaves at rate 2, half into the absorbing state 1 and
        half into the closed class {2, 3}: rows sum to < 1, and states
        that can never be absorbed get 0 (were nan)."""
        g = Generator.from_triples(
            4, [0, 0, 2, 3], [1, 2, 3, 2], [1.0, 1.0, 2.0, 3.0]
        )
        B, M = conditional_absorption_times(g, [[1]])
        np.testing.assert_allclose(B[:, 0], [0.5, 1.0, 0.0, 0.0])
        assert M[0, 0] == pytest.approx(0.5)
        assert np.isnan(M[2:, 0]).all()
        np.testing.assert_array_equal(absorption_probabilities(g, [[1]]), B)

    def test_overlapping_classes_rejected(self):
        g = birth_death(1.0, 1.0, 2)
        with pytest.raises(ValueError):
            absorption_probabilities(g, [[0], [0, 1]])


class TestAbsorbingOnAction:
    def test_time_to_first_overflow(self):
        """Mean time from empty to the first dropped arrival of an
        M/M/1/K."""
        lam, mu, K = 2.0, 3.0, 3
        g = birth_death(lam, mu, K)
        g2, sink = absorbing_on_action(g, "overflow")
        m = mean_first_passage_times(g2, [sink])
        # cross-check by simulation-free recursion: time to fire overflow =
        # time to reach K, then race: overflow (lam) vs down (mu), with
        # return on losing
        # Build it independently via the hitting-time of the sink in a
        # hand-built chain:
        src = [0, 1, 1, 2, 2, 3, 3]
        dst = [1, 2, 0, 3, 1, 4, 2]
        rate = [lam, lam, mu, lam, mu, lam, mu]
        ref = Generator.from_triples(5, src, dst, rate)
        m_ref = mean_first_passage_times(ref, [4])
        assert m[0] == pytest.approx(m_ref[0], rel=1e-9)

    def test_unknown_action_rejected(self):
        g = birth_death(1.0, 1.0, 2)
        with pytest.raises(KeyError):
            absorbing_on_action(g, "nope")

    def test_sink_is_absorbing(self):
        g = birth_death(1.0, 1.0, 2)
        g2, sink = absorbing_on_action(g, "overflow")
        assert g2.n_states == g.n_states + 1
        assert -g2.Q.diagonal()[sink] == 0.0

    def test_non_selfloop_action_redirected(self):
        """Redirecting a state-changing action preserves total exit rates
        but reroutes the flow."""
        g = birth_death(2.0, 3.0, 3)
        g2, sink = absorbing_on_action(g, "down")
        # from state 1, the down-rate now leads to the sink
        assert g2.Q[1, 0] == 0.0
        assert g2.Q[1, sink] == pytest.approx(3.0)
        np.testing.assert_allclose(
            -g2.Q.diagonal()[:3], -g.Q.diagonal()[:3] + [0, 0, 0], atol=1e-12
        )
