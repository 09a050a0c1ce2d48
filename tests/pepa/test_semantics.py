"""Operational-semantics tests: SOS rules, apparent rates, cooperation."""

import pytest

from repro.pepa import (
    Activity,
    Choice,
    Constant,
    Cooperation,
    Hiding,
    Model,
    Prefix,
    Rate,
    TAU,
    apparent_rate,
    top,
    transitions,
)
from repro.pepa.rates import MixedRateError


def act(name, rate, cont):
    r = rate if isinstance(rate, Rate) else Rate(rate)
    return Prefix(Activity(name, r), cont)


P = Constant("P")
Q = Constant("Q")


def model(defs, system):
    return Model(defs, system)


class TestPrefixChoice:
    def test_prefix_single_transition(self):
        m = model({"P": act("a", 2.0, P)}, P)
        trs = transitions(P, m)
        assert trs == (("a", Rate(2.0), P),)

    def test_choice_unions(self):
        body = Choice(act("a", 1.0, P), act("b", 2.0, Q))
        m = model({"P": body, "Q": act("c", 1.0, P)}, P)
        trs = transitions(P, m)
        assert {(a, r.value) for a, r, _ in trs} == {("a", 1.0), ("b", 2.0)}

    def test_multi_transition_duplicates_kept(self):
        """(a, r).P + (a, r).P enables a at apparent rate 2r."""
        body = Choice(act("a", 1.5, P), act("a", 1.5, P))
        m = model({"P": body}, P)
        trs = transitions(P, m)
        assert len(trs) == 2
        assert apparent_rate(P, "a", m).value == 3.0

    def test_unguarded_recursion_detected(self):
        m = model({"P": Choice(Constant("P"), act("a", 1.0, P))}, P)
        with pytest.raises(RecursionError, match="unguarded"):
            transitions(P, m)


def left_chain(branches):
    """``b0 + b1 + ... + bk`` as the parser nests it: to the left."""
    body = branches[0]
    for b in branches[1:]:
        body = Choice(body, b)
    return body


class TestLongChoice:
    """A choice chain is derived branch by branch, left to right, with
    no memo entry per nested ``Choice`` (hashing each sub-chain by value
    made long chains quadratic, and deep enough ones overflow the stack)."""

    def _model(self, k):
        """``P = (a0, 1).S0 + ... + (a{k-1}, k).S{k-1}``; ``Si = (b, 1).P``."""
        defs = {f"S{i}": act("b", 1.0, P) for i in range(k)}
        defs["P"] = left_chain(
            [act(f"a{i}", 1.0 + i, Constant(f"S{i}")) for i in range(k)]
        )
        return model(defs, P)

    def test_500_branches_in_order(self):
        trs = transitions(P, self._model(500))
        assert trs == tuple(
            (f"a{i}", Rate(1.0 + i), Constant(f"S{i}")) for i in range(500)
        )

    def test_nested_both_ways_keeps_left_to_right_order(self):
        a, b, c, d = (act(x, 1.0, P) for x in "abcd")
        m = model({"P": Choice(Choice(a, b), Choice(c, d))}, P)
        assert [t[0] for t in transitions(P, m)] == list("abcd")

    def test_hash_calls_grow_linearly(self, monkeypatch):
        calls = [0]
        for cls in (Choice, Prefix, Constant, Activity):
            real = cls.__hash__

            def counting(self, real=real):
                calls[0] += 1
                return real(self)

            monkeypatch.setattr(cls, "__hash__", counting)

        def count(k):
            m = self._model(k)
            calls[0] = 0
            for i in range(k):  # every local state, as a leaf BFS visits them
                transitions(Constant(f"S{i}"), m)
            transitions(P, m)
            return calls[0]

        n = {k: count(k) for k in (125, 250, 500)}
        assert n[500] > 0
        assert n[250] <= 2 * n[125] + 4 and n[500] <= 2 * n[250] + 4, n

    def test_self_reference_deep_in_a_chain_is_unguarded(self):
        A = Constant("A")
        branches = [act(f"a{i}", 1.0, P) for i in range(200)]
        m = model({"A": left_chain([A] + branches), "P": act("p", 1.0, A)}, A)
        with pytest.raises(RecursionError, match="unguarded"):
            transitions(A, m)

    def test_a_equals_a_plus_prefix_is_unguarded(self):
        A = Constant("A")
        m = model({"A": Choice(A, act("a", 1.0, P)), "P": act("p", 1.0, A)}, A)
        with pytest.raises(RecursionError, match="unguarded"):
            transitions(A, m)


class TestHiding:
    def test_hidden_becomes_tau(self):
        m = model({"P": act("a", 2.0, P)}, P)
        h = Hiding(P, frozenset({"a"}))
        trs = transitions(h, m)
        assert trs[0][0] == TAU
        assert trs[0][1] == Rate(2.0)
        # successor stays hidden
        assert isinstance(trs[0][2], Hiding)

    def test_unhidden_passes_through(self):
        m = model({"P": act("a", 2.0, P)}, P)
        h = Hiding(P, frozenset({"zzz"}))
        assert transitions(h, m)[0][0] == "a"

    def test_tau_not_allowed_in_coop_set(self):
        with pytest.raises(ValueError):
            Cooperation(P, Q, frozenset({TAU}))


class TestInterleaving:
    def test_unshared_actions_interleave(self):
        m = model({"P": act("a", 1.0, P), "Q": act("b", 2.0, Q)}, P)
        c = Cooperation(P, Q, frozenset())
        trs = transitions(c, m)
        assert {(a, r.value) for a, r, _ in trs} == {("a", 1.0), ("b", 2.0)}

    def test_same_action_unshared_both_fire(self):
        m = model({"P": act("a", 1.0, P), "Q": act("a", 2.0, Q)}, P)
        c = Cooperation(P, Q, frozenset())
        trs = transitions(c, m)
        assert len(trs) == 2
        assert apparent_rate(c, "a", m).value == 3.0


class TestCooperation:
    def test_shared_rate_is_minimum(self):
        """Single a-activity each side: shared rate = min(r1, r2)."""
        m = model({"P": act("a", 1.0, P), "Q": act("a", 5.0, Q)}, P)
        c = Cooperation(P, Q, frozenset({"a"}))
        trs = transitions(c, m)
        assert len(trs) == 1
        assert trs[0][1] == Rate(1.0)

    def test_passive_adopts_active_rate(self):
        m = model({"P": act("a", 3.0, P), "Q": act("a", top(), Q)}, P)
        c = Cooperation(P, Q, frozenset({"a"}))
        trs = transitions(c, m)
        assert trs[0][1] == Rate(3.0)

    def test_blocked_when_one_side_disabled(self):
        m = model({"P": act("a", 3.0, P), "Q": act("b", 1.0, Q)}, P)
        c = Cooperation(P, Q, frozenset({"a", "b"}))
        assert transitions(c, m) == ()

    def test_apparent_rate_formula_with_branching(self):
        """Hillston's canonical example: P enables a at rates r1+r2, Q at
        R; each combined transition gets (ri/(r1+r2)) * min(r1+r2, R)."""
        P1, P2, Q1 = Constant("P1"), Constant("P2"), Constant("Q1")
        m = model(
            {
                "P": Choice(act("a", 2.0, P1), act("a", 6.0, P2)),
                "P1": act("x", 1.0, Constant("P")),
                "P2": act("x", 1.0, Constant("P")),
                "Q": act("a", 4.0, Q1),
                "Q1": act("y", 1.0, Q),
            },
            P,
        )
        c = Cooperation(Constant("P"), Constant("Q"), frozenset({"a"}))
        trs = transitions(c, m)
        # apparent rates: P -> 8, Q -> 4; min = 4
        rates = sorted(r.value for _, r, _ in trs)
        assert rates == pytest.approx([0.25 * 4.0, 0.75 * 4.0])
        assert apparent_rate(c, "a", m).value == pytest.approx(4.0)

    def test_two_passives_combine_weights(self):
        m = model(
            {"P": act("a", top(2.0), P), "Q": act("a", top(4.0), Q)}, P
        )
        c = Cooperation(P, Q, frozenset({"a"}))
        trs = transitions(c, m)
        assert trs[0][1].passive
        assert trs[0][1].value == pytest.approx(2.0)  # min(2,4) * 1 * 1

    def test_three_way_sync_through_nesting(self):
        """timeout-style sync: (A <a> B) <a> C with A active."""
        A, B, C = Constant("A"), Constant("B"), Constant("C")
        m = model(
            {
                "A": act("a", 7.0, A),
                "B": act("a", top(), B),
                "C": act("a", top(), C),
            },
            A,
        )
        inner = Cooperation(A, B, frozenset({"a"}))
        outer = Cooperation(inner, C, frozenset({"a"}))
        trs = transitions(outer, m)
        assert len(trs) == 1
        assert trs[0][1] == Rate(7.0)

    def test_mixed_rates_same_action_rejected(self):
        m = model(
            {"P": Choice(act("a", 1.0, P), act("a", top(), P)), "Q": act("a", 1.0, Q)},
            P,
        )
        c = Cooperation(P, Q, frozenset({"a"}))
        with pytest.raises(MixedRateError):
            transitions(c, m)


class TestApparentRate:
    def test_disabled_action_none(self):
        m = model({"P": act("a", 1.0, P)}, P)
        assert apparent_rate(P, "b", m) is None

    def test_passive_apparent_rate_sums_weights(self):
        m = model({"P": Choice(act("a", top(1.0), P), act("a", top(2.0), P))}, P)
        r = apparent_rate(P, "a", m)
        assert r.passive and r.value == 3.0


class TestSharedContext:
    """Module-level transitions()/apparent_rate() accept a caller-owned
    TransitionContext so batch callers share one memo table."""

    def _model(self):
        return model({"P": act("a", 2.0, P), "Q": act("b", 3.0, P)}, P)

    def test_shared_ctx_reused(self):
        from repro.pepa.semantics import TransitionContext

        m = self._model()
        ctx = TransitionContext(m)
        first = transitions(P, m, ctx)
        assert transitions(P, m, ctx) is first  # memo hit: same tuple object
        assert apparent_rate(P, "a", m, ctx) == Rate(2.0)

    def test_ctx_for_wrong_model_rejected(self):
        from repro.pepa.semantics import TransitionContext

        m = self._model()
        other = model({"P": act("a", 9.0, P)}, P)
        ctx = TransitionContext(other)
        with pytest.raises(ValueError, match="different model"):
            transitions(P, m, ctx)
        with pytest.raises(ValueError, match="different model"):
            apparent_rate(P, "a", m, ctx)

    def test_default_builds_fresh_ctx(self):
        m = self._model()
        assert transitions(P, m) == transitions(P, m)
