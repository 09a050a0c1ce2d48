"""Unit tests for the Generator class and TransitionBatch accumulator."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.ctmc import Generator
from repro.ctmc.generator import TransitionBatch


def two_state_Q(a=2.0, b=3.0):
    return np.array([[-a, a], [b, -b]])


class TestGeneratorValidation:
    def test_accepts_valid_generator(self):
        g = Generator.from_dense(two_state_Q())
        assert g.n_states == 2

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            Generator(sp.csr_matrix(np.zeros((2, 3))))

    def test_rejects_negative_offdiagonal(self):
        Q = np.array([[1.0, -1.0], [3.0, -3.0]])
        with pytest.raises(ValueError, match="negative off-diagonal"):
            Generator.from_dense(Q)

    def test_rejects_bad_rowsum(self):
        Q = np.array([[-2.0, 1.0], [3.0, -3.0]])
        with pytest.raises(ValueError, match="row sums"):
            Generator.from_dense(Q)

    def test_rowsum_tolerance_scales_with_diagonal(self):
        # row sums off by 1e-12 relative to rates of 1e6 must pass
        a = 1e6
        Q = np.array([[-a, a + 1e-8], [a, -a]])
        Q[1, 1] = -Q[1, 0]
        g = Generator.from_dense(Q)
        assert g.n_states == 2


class TestFromTriples:
    def test_diagonal_computed(self):
        g = Generator.from_triples(2, [0, 1], [1, 0], [2.0, 3.0])
        np.testing.assert_allclose(g.dense(), two_state_Q())

    def test_duplicate_triples_sum(self):
        g = Generator.from_triples(2, [0, 0, 1], [1, 1, 0], [1.0, 1.0, 3.0])
        np.testing.assert_allclose(g.dense(), two_state_Q())

    def test_self_loops_cancel(self):
        g = Generator.from_triples(2, [0, 0, 1], [0, 1, 0], [5.0, 2.0, 3.0])
        np.testing.assert_allclose(g.dense(), two_state_Q())

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Generator.from_triples(2, [0], [1], [-1.0])


class TestProperties:
    def test_exit_rates(self):
        g = Generator.from_dense(two_state_Q(2.0, 3.0))
        np.testing.assert_allclose(g.exit_rates, [2.0, 3.0])

    def test_uniformization_rate(self):
        g = Generator.from_dense(two_state_Q(2.0, 3.0))
        assert g.uniformization_rate == 3.0

    def test_off_diagonal(self):
        g = Generator.from_dense(two_state_Q())
        R = g.off_diagonal().toarray()
        np.testing.assert_allclose(R, [[0, 2.0], [3.0, 0]])

    def test_embedded_dtmc_rows_stochastic(self):
        g = Generator.from_triples(
            3, [0, 0, 1, 2], [1, 2, 2, 0], [1.0, 3.0, 2.0, 5.0]
        )
        P = g.embedded_dtmc().toarray()
        np.testing.assert_allclose(P.sum(axis=1), 1.0)
        np.testing.assert_allclose(P[0], [0, 0.25, 0.75])

    def test_embedded_dtmc_absorbing_row_identity(self):
        g = Generator.from_triples(2, [0], [1], [1.0])
        P = g.embedded_dtmc().toarray()
        np.testing.assert_allclose(P[1], [0.0, 1.0])


class TestTransitionBatch:
    def test_scalar_and_vector_adds(self):
        b = TransitionBatch()
        b.add(0, 1, 2.0, action="go")
        b.add([1], [0], [3.0], action="back")
        g = b.to_generator(2)
        np.testing.assert_allclose(g.dense(), two_state_Q())
        assert set(g.action_rates) == {"go", "back"}
        assert g.action_rates["go"][0, 1] == 2.0

    def test_shape_mismatch_rejected(self):
        b = TransitionBatch()
        with pytest.raises(ValueError, match="shapes differ"):
            b.add([0, 1], [1], [1.0])

    def test_state_count_inferred(self):
        b = TransitionBatch()
        b.add([0, 4], [4, 0], [1.0, 1.0])
        g = b.to_generator()
        assert g.n_states == 5

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            TransitionBatch().to_generator()

    def test_action_matrix_keeps_self_loops(self):
        # self-loop transitions don't enter Q but must count for throughput
        b = TransitionBatch()
        b.add(0, 0, 7.0, action="loop")
        b.add(0, 1, 1.0, action="move")
        b.add(1, 0, 1.0, action="move")
        g = b.to_generator(2)
        assert g.action_rates["loop"][0, 0] == 7.0
        assert g.dense()[0, 0] == -1.0

    def test_unlabelled_batch_enters_q_only(self):
        b = TransitionBatch()
        b.add(0, 1, 2.0)
        b.add([1, 1], [0, 0], [1.0, 2.0], action="back")
        g = b.to_generator(2)
        np.testing.assert_allclose(g.dense(), two_state_Q())
        assert set(g.action_rates) == {"back"}
        assert g.action_rates["back"][1, 0] == 3.0
