"""Unit tests for the Generator class, the one transition assembler
(GeneratorPattern) and the TransitionBatch accumulator."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmc import Generator, GeneratorPattern, assemble_generator
from repro.ctmc.generator import TransitionBatch, stable_groups


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


def coo_reference(n, src, dst, rate, act):
    """The assembly semantics as SciPy's COO construction gives them: the
    oracle for :class:`GeneratorPattern`."""
    src, dst, rate = np.asarray(src), np.asarray(dst), np.asarray(rate, float)
    keep = src != dst
    R = sp.csr_matrix((rate[keep], (src[keep], dst[keep])), shape=(n, n))
    Q = R - sp.diags(np.asarray(R.sum(axis=1)).ravel(), format="csr")
    labels = np.asarray(act, dtype=object)
    mats = {}
    for a in sorted({a for a in act if a is not None}):
        m = labels == a
        mats[a] = sp.csr_matrix((rate[m], (src[m], dst[m])), shape=(n, n))
    return Q, mats


def assert_same_csr(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


def assert_same_generator(got, Q, mats):
    assert_same_csr(got.Q, Q)
    assert list(got.action_rates) == list(mats)
    for a, m in mats.items():
        assert_same_csr(got.action_rates[a], m)


@st.composite
def labelled_transitions(draw):
    """Random labelled transitions on ``n`` states plus one state that is
    never left (a row without a stored diagonal), with three parallel
    transitions on one pair and a self-loop.  At most 16 transitions:
    SciPy sorts longer rows with an unstable sort, which leaves its
    duplicate summation order unspecified there."""
    n = draw(st.integers(min_value=2, max_value=6))
    state = st.integers(min_value=0, max_value=n - 1)
    rate = st.floats(min_value=0.0, max_value=100.0)
    label = st.sampled_from(["a", "b", None])
    i = draw(state)
    j = draw(state.filter(lambda s: s != i))
    k = draw(state)
    triples = [(i, j, draw(rate), draw(label)) for _ in range(3)]
    triples.append((k, k, draw(rate), draw(label)))
    triples += draw(
        st.lists(st.tuples(state, st.integers(0, n), rate, label), max_size=12)
    )
    triples = draw(st.permutations(triples))
    src, dst, rates, act = (list(c) for c in zip(*triples))
    return n + 1, src, dst, rates, act


class TestOneAssembler:
    """GeneratorPattern against the COO reference above."""

    @settings(max_examples=200, deadline=None)
    @given(labelled_transitions())
    def test_matches_coo_reference(self, case):
        n, src, dst, rate, act = case
        assert_same_generator(
            assemble_generator(n, src, dst, rate, act),
            *coo_reference(n, src, dst, rate, act),
        )

    @settings(max_examples=100, deadline=None)
    @given(labelled_transitions(), st.data())
    def test_refill_equals_fresh_build(self, case, data):
        n, src, dst, rate, act = case
        names = sorted({a for a in act if a is not None})
        codes = [names.index(a) if a is not None else -1 for a in act]
        pattern = GeneratorPattern(n, src, dst, codes, names)
        first = pattern.fill(rate)
        # a caller mutating one generator must not corrupt the pattern
        first.Q.indices[:] = 0
        first.Q.indptr[:] = 0
        for m in first.action_rates.values():
            m.indices[:] = 0
        rate2 = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0),
                min_size=len(rate),
                max_size=len(rate),
            )
        )
        assert_same_generator(
            pattern.fill(rate2), *coo_reference(n, src, dst, rate2, act)
        )

    def test_row_without_exit_stores_no_diagonal(self):
        g = Generator.from_triples(3, [0, 1], [1, 2], [1.0, 2.0])
        assert g.Q.indptr.tolist() == [0, 2, 4, 4]
        np.testing.assert_array_equal(g.exit_rates, [1.0, 2.0, 0.0])

    def test_unlabelled_transitions_skip_action_matrices(self):
        g = assemble_generator(2, [0, 1], [1, 0], [1.0, 2.0], [None, "back"])
        assert list(g.action_rates) == ["back"]


class TestStableGroups:
    """``stable_groups`` against a plain ``np.lexsort`` grouping, on keys
    it packs into one sort and on keys whose ranges it cannot pack."""

    @staticmethod
    def lexsort_groups(idx, *keys):
        order = idx[np.lexsort(tuple(k[idx] for k in reversed(keys)))]
        new = np.zeros(order.size, dtype=bool)
        new[:1] = True
        for k in keys:
            ks = k[order]
            new[1:] |= ks[1:] != ks[:-1]
        return order, np.cumsum(new) - 1, order[new]

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=60),
        st.sampled_from([(0, 3), (-5, 5), (0, 2**40), (-(2**62), 2**62)]),
        st.data(),
    )
    def test_matches_lexsort(self, n_keys, size, bounds, data):
        lo, hi = bounds
        keys = [
            np.array(
                data.draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)),
                dtype=np.int64,
            )
            for _ in range(n_keys)
        ]
        idx = np.array(
            data.draw(st.permutations(range(size)))[: data.draw(st.integers(0, size))],
            dtype=np.int64,
        )
        got = stable_groups(idx, *keys)
        want = self.lexsort_groups(idx, *keys)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_ranges_past_int64_fall_back(self):
        big = np.array([2**62, 0, 2**62, 0], dtype=np.int64)
        small = np.array([1, 1, 0, 0], dtype=np.int64)
        order, group, first = stable_groups(np.arange(4), big, small, big)
        assert order.tolist() == [3, 1, 2, 0]
        assert group.tolist() == [0, 1, 2, 3]


class TestAssemblerInputs:
    """Outside input is refused, not assembled into a wrong generator."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_bad_rate_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            Generator.from_triples(2, [0, 1], [1, 0], [bad, 1.0])

    def test_bad_rate_rejected_on_refill(self):
        pattern = GeneratorPattern(2, [0, 1], [1, 0])
        with pytest.raises(ValueError, match="finite"):
            pattern.fill([1.0, np.nan])

    @pytest.mark.parametrize(
        "src, dst", [([0, 2], [1, 0]), ([0, 1], [1, 5]), ([-1, 1], [1, 0])]
    )
    def test_endpoint_outside_state_range_rejected(self, src, dst):
        with pytest.raises(ValueError, match="outside"):
            Generator.from_triples(2, src, dst, [1.0, 1.0])

    def test_labelled_paths_check_too(self):
        with pytest.raises(ValueError, match="outside"):
            assemble_generator(2, [0], [2], [1.0], ["go"])
        b = TransitionBatch()
        b.add([0], [1], [np.nan], action="go")
        with pytest.raises(ValueError, match="finite"):
            b.to_generator(2)

    def test_rate_count_must_match(self):
        with pytest.raises(ValueError, match="rates"):
            GeneratorPattern(2, [0, 1], [1, 0]).fill([1.0])
