"""Compiled-engine tests: equivalence with the interpreter, fragment
boundary / fallback behaviour, template refill, and decomposition caches.

The acceptance bar is strict: for every PEPA builder in ``repro.models``
the compiled engine must produce the *same* ``StateSpace`` as the
interpreter -- identical states, identical transition endpoints and
actions, bit-identical rates -- after both spaces are put in a canonical
order (the two engines enumerate states differently).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmc import steady_state
from repro.models import (
    Figure4Model,
    build_jsq_pepa_model,
    TagsHyperExponential,
    build_tags_breakdown_model,
    build_tags_model,
)
from repro.models.tags_pepa import TagsParameters
from repro.pepa import (
    Activity,
    Choice,
    Constant,
    Cooperation,
    Hiding,
    Model,
    PassiveRateError,
    Prefix,
    Rate,
    explore,
    explore_interpreter,
    parse_model,
    to_generator,
    top,
)
from repro.pepa.compiled import (
    CompileError,
    CompiledSpace,
    TemplateMismatch,
    compile_model,
)

MM1K = """
lam = 3.0; mu = 5.0;
Q0 = (arrive, lam).Q1;
Q1 = (arrive, lam).Q2 + (serve, mu).Q0;
Q2 = (arrive, lam).Q3 + (serve, mu).Q1;
Q3 = (serve, mu).Q2 + (drop, lam).Q3;
Q0;
"""

SYNC = """
lam = 2.0; mu = 3.0;
Job0 = (submit, lam).Job1;
Job1 = (done, infty).Job0;
Srv = (done, mu).Srv;
Job0 <done> Srv;
"""

HIDDEN = """
P0 = (work, 2.0).P1;
P1 = (rest, 1.0).P0;
Q0 = (work, infty).Q1;
Q1 = (back, 4.0).Q0;
(P0 <work> Q0) / {work};
"""


def explore_compiled(model, max_states=2_000_000):
    """The compiled engine alone: ``CompileError`` propagates."""
    return compile_model(model).explore(max_states=max_states).statespace()


EXPLORERS = {"interpreter": explore_interpreter, "compiled": explore_compiled}


def canon(space):
    """Reorder a state space into repr-sorted canonical form.

    Returns ``(state_keys, transitions, order)`` where ``transitions``
    is a sorted list of ``(src_rank, action, dst_rank, rate)`` tuples and
    ``order`` maps canonical rank -> original state id (usable to
    reorder a steady-state vector).
    """
    keys = [repr(s) for s in space.states]
    assert len(set(keys)) == len(keys), "state reprs must be unique"
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = [0] * len(order)
    for new, old in enumerate(order):
        rank[old] = new
    trans = sorted(
        (rank[int(s)], a, rank[int(d)], float(r))
        for s, a, d, r in zip(space.src, space.action, space.dst, space.rate)
    )
    return [keys[i] for i in order], trans, order


def assert_equivalent(model, *, rate_rtol=None):
    """Interpreter and compiled engines must agree on the state space.

    With ``rate_rtol=None`` rates must be bit-identical; otherwise they
    are compared to the given relative tolerance (used by the randomised
    property test, where float multiplication order may differ).
    """
    si = explore_interpreter(model)
    sc = explore_compiled(model)
    keys_i, trans_i, order_i = canon(si)
    keys_c, trans_c, order_c = canon(sc)
    assert keys_i == keys_c
    assert [t[:3] for t in trans_i] == [t[:3] for t in trans_c]
    ri = np.array([t[3] for t in trans_i])
    rc = np.array([t[3] for t in trans_c])
    if rate_rtol is None:
        assert np.array_equal(ri, rc), "rates must be bit-identical"
    else:
        np.testing.assert_allclose(rc, ri, rtol=rate_rtol)
    return si, sc, order_i, order_c


def _digests(gen) -> dict:
    """sha256 of the CSR arrays of ``Q`` and of every action matrix."""
    import hashlib

    def digest(m):
        h = hashlib.sha256()
        for arr in (m.data, m.indices, m.indptr):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    out = {a: digest(m) for a, m in gen.action_rates.items()}
    out[None] = digest(gen.Q)
    return out


BUILDERS = {
    "figure3": lambda: build_tags_model(TagsParameters(n=3, K1=4, K2=4)),
    "figure3_tick": lambda: build_tags_model(
        TagsParameters(n=3, K1=4, K2=4, tick_during_residual=True)
    ),
    "h2": lambda: TagsHyperExponential(n=2, K1=3, K2=3).build(),
    "breakdown": lambda: build_tags_breakdown_model(
        TagsParameters(n=2, K1=3, K2=3), 0.01, 0.5
    ),
    "breakdown_down": lambda: build_tags_breakdown_model(
        TagsParameters(n=2, K1=3, K2=3), 0.0, 0.0, permanently_down=True
    ),
    "jsq": lambda: build_jsq_pepa_model(3.0, 5.0, 4),
    "figure4": lambda: Figure4Model(n=3, K1=4, K2=4).pepa_model(),
    "mm1k": lambda: parse_model(MM1K),
    "sync": lambda: parse_model(SYNC),
    "hidden": lambda: parse_model(HIDDEN),
}


class TestEquivalence:
    """Compiled == interpreted for every model builder in the repo."""

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_statespace_bit_identical(self, name):
        model = BUILDERS[name]()
        # every repo builder currently sits inside the compiled fragment
        compile_model(model)
        assert_equivalent(model)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_steady_state_agrees(self, name):
        model = BUILDERS[name]()
        si, sc, order_i, order_c = assert_equivalent(model)
        pi_i = steady_state(to_generator(si))[order_i]
        pi_c = steady_state(to_generator(sc))[order_c]
        np.testing.assert_allclose(pi_c, pi_i, atol=1e-12, rtol=0)

    def test_auto_engine_matches_compiled(self):
        model = parse_model(MM1K)
        _, trans_auto, _ = canon(explore(model))
        _, trans_c, _ = canon(explore_compiled(model))
        assert trans_auto == trans_c

    def test_parallel_local_transitions_sum_in_order(self):
        """Three parallel local transitions add up left to right, as the
        interpreter adds them: 0.1 + (0.2 + 0.7) would read
        0.9999999999999999 instead of 1.0."""
        model = parse_model(
            """
            P0 = (a, 0.1).P1 + (a, 0.2).P1 + (a, 0.7).P1;
            P1 = (b, 1.0).P0;
            P0;
            """
        )
        _, sc, _, _ = assert_equivalent(model)
        assert sorted(zip(sc.action, sc.rate.tolist())) == [("a", 1.0), ("b", 1.0)]

    def test_compiled_space_generator_matches_statespace(self):
        """CompiledSpace.generator() == to_generator of the StateSpace."""
        model = build_tags_model(TagsParameters(n=3, K1=4, K2=4))
        cs = compile_model(model).explore()
        assert isinstance(cs, CompiledSpace)
        g_direct = cs.generator()
        g_space = to_generator(cs.statespace())
        assert (g_direct.Q != g_space.Q).nnz == 0
        assert set(g_direct.action_rates) == set(g_space.action_rates)
        for a, mat in g_direct.action_rates.items():
            assert (mat != g_space.action_rates[a]).nnz == 0


# ----------------------------------------------------------------------
# fragment boundary: what cannot compile must fall back, identically
# ----------------------------------------------------------------------

BOTH_ACTIVE = """
P0 = (go, 2.0).P1; P1 = (halt, 1.0).P0;
Q0 = (go, 3.0).Q1; Q1 = (halt, 1.0).Q0;
P0 <go> Q0;
"""

MULTI_PASSIVE = """
A0 = (x, 5.0).A1; A1 = (r, 1.0).A0;
P0 = (x, infty).P1; P1 = (back, 2.0).P0;
A0 <x> (P0 <back> P0);
"""

HIDDEN_PASSIVE = """
P0 = (a, infty).P1; P1 = (b, 1.0).P0;
P0 / {a};
"""


class TestFragmentFallback:
    def test_both_active_sync_rejected(self):
        with pytest.raises(CompileError, match="active"):
            compile_model(parse_model(BOTH_ACTIVE))

    def test_both_active_sync_engine_compiled_raises(self):
        with pytest.raises(CompileError):
            explore_compiled(parse_model(BOTH_ACTIVE))

    def test_both_active_sync_auto_falls_back(self):
        m = parse_model(BOTH_ACTIVE)
        _, trans_auto, _ = canon(explore(m))
        _, trans_i, _ = canon(explore_interpreter(m))
        assert trans_auto == trans_i
        # min-rate semantics: apparent rate of go is min(2, 3) = 2
        assert any(a == "go" and r == 2.0 for _, a, _, r in trans_auto)

    def test_multi_term_passive_side_falls_back(self):
        m = parse_model(MULTI_PASSIVE)
        with pytest.raises(CompileError):
            compile_model(m)
        _, trans_auto, _ = canon(explore(m))
        _, trans_i, _ = canon(explore_interpreter(m))
        assert trans_auto == trans_i

    def test_hidden_passive_rejected(self):
        with pytest.raises(CompileError):
            compile_model(parse_model(HIDDEN_PASSIVE))

    def test_rule_key_space_overflow_falls_back(self):
        """Two rules that each span all 61 two-state leaves need 2**62
        packed keys between them: past the int64 headroom, so the model
        compiles to nothing and ``explore`` takes the interpreter."""
        defs = {"A0": Prefix(Activity("a", Rate(1.0)), Constant("A1")),
                "A1": Prefix(Activity("b", Rate(2.0)), Constant("A0"))}
        system = Constant("A0")
        for i in range(1, 61):
            defs[f"B{i}_0"] = Prefix(Activity("a", top()), Constant(f"B{i}_1"))
            defs[f"B{i}_1"] = Prefix(Activity("b", top()), Constant(f"B{i}_0"))
            system = Cooperation(system, Constant(f"B{i}_0"), frozenset("ab"))
        m = Model(defs, system)
        with pytest.raises(CompileError, match="overflow"):
            compile_model(m)
        space = explore(m)
        assert space.n_states == 2
        assert sorted(space.action) == ["a", "b"]


class TestPassivePoison:
    """Reachability-sensitive passive check (an eager whole-product
    check would differ; the compiled engine must match the interpreter
    exactly)."""

    def test_reachable_passive_raises(self):
        m = parse_model("P = (a, infty).P;")
        for explorer in (explore_interpreter, explore_compiled, explore):
            with pytest.raises(PassiveRateError, match="passive"):
                explorer(m)

    def test_unreachable_passive_is_fine(self):
        # M's passive `c` is only enabled in M1, but M1 is reached via
        # the shared action `b`, which L never offers: blocked forever.
        m = parse_model(
            """
            L = (a, 1.0).L;
            M0 = (b, 2.0).M1;
            M1 = (c, infty).M0;
            L <b, c> M0;
            """
        )
        for explorer in EXPLORERS.values():
            space = explorer(m)
            assert space.n_states == 1
            assert space.actions() == {"a"}

    def test_max_states_guard(self):
        with pytest.raises(MemoryError):
            explore_compiled(parse_model(MM1K), max_states=2)


# ----------------------------------------------------------------------
# randomised two-level cooperations
# ----------------------------------------------------------------------

ACTIONS = ("a", "b", "c")


def _machine(names, targets, rates, passive_mask, shared):
    """A cyclic machine: state i offers action[i] to state targets[i].

    Shared actions on the passive side get weight-``T`` rates; every
    state keeps an unshared active self-advance so the space stays live.
    """
    defs = {}
    k = len(targets)
    for i in range(k):
        act = ACTIONS[i % len(ACTIONS)]
        rate = top(rates[i]) if (passive_mask and act in shared) else Rate(rates[i])
        step = Prefix(Activity(act, rate), Constant(names[targets[i]]))
        # unshared progress action keeps passive states from deadlocking
        prog = Prefix(
            Activity("m" if passive_mask else "l", Rate(1.0)),
            Constant(names[(i + 1) % k]),
        )
        defs[names[i]] = Choice(step, prog) if act in shared or not passive_mask else step
    return defs


@st.composite
def two_level_coop(draw):
    kl = draw(st.integers(min_value=1, max_value=3))
    kr = draw(st.integers(min_value=1, max_value=3))
    shared = frozenset(draw(st.sets(st.sampled_from(ACTIONS), max_size=2)))
    rl = [draw(st.floats(min_value=0.5, max_value=8.0)) for _ in range(kl)]
    rr = [draw(st.floats(min_value=0.5, max_value=8.0)) for _ in range(kr)]
    tl = [draw(st.integers(min_value=0, max_value=kl - 1)) for _ in range(kl)]
    tr = [draw(st.integers(min_value=0, max_value=kr - 1)) for _ in range(kr)]
    lnames = [f"L{i}" for i in range(kl)]
    rnames = [f"R{i}" for i in range(kr)]
    defs = {}
    defs.update(_machine(lnames, tl, rl, False, shared))
    defs.update(_machine(rnames, tr, rr, True, shared))
    system = Cooperation(Constant("L0"), Constant("R0"), shared)
    return Model(defs, system)


class TestHypothesisEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(two_level_coop())
    def test_random_two_level_cooperation(self, model):
        # left machines are always active, right machines passive only on
        # shared actions -- every draw is inside the compiled fragment
        compile_model(model)
        assert_equivalent(model, rate_rtol=1e-12)


# ----------------------------------------------------------------------
# compile-once / evaluate-many templates
# ----------------------------------------------------------------------


class TestRefill:
    def test_refill_matches_fresh_exploration(self):
        base = build_tags_model(TagsParameters(lam=5.0, n=3, K1=4, K2=4))
        other = build_tags_model(TagsParameters(lam=9.0, n=3, K1=4, K2=4))
        cs = compile_model(base).explore()
        cs.refill(other)
        fresh = compile_model(other).explore()
        assert np.array_equal(cs.rate, fresh.rate)
        assert np.array_equal(cs.src, fresh.src)
        g_refill = cs.generator()
        g_fresh = fresh.generator()
        assert (g_refill.Q != g_fresh.Q).nnz == 0
        for a, mat in g_fresh.action_rates.items():
            assert (g_refill.action_rates[a] != mat).nnz == 0

    def test_refill_generator_matches_first_assembly(self):
        """A refill of the kept generator pattern (second generator()
        call) must be bit-identical to a scratch assembly."""
        p0 = TagsParameters(lam=5.0, n=3, K1=4, K2=4)
        cs = compile_model(build_tags_model(p0)).explore()
        cs.generator()  # builds the CSR template
        cs.refill(build_tags_model(TagsParameters(lam=7.5, n=3, K1=4, K2=4)))
        g_tpl = cs.generator()  # template path
        g_scratch = to_generator(cs)  # scratch assembly of the same rates
        assert (g_tpl.Q != g_scratch.Q).nnz == 0
        for a, mat in g_scratch.action_rates.items():
            assert (g_tpl.action_rates[a] != mat).nnz == 0

    def test_refill_rejects_different_structure(self):
        cs = compile_model(
            build_tags_model(TagsParameters(n=3, K1=4, K2=4))
        ).explore()
        with pytest.raises(TemplateMismatch):
            cs.refill(build_tags_model(TagsParameters(n=3, K1=5, K2=4)))

    def test_refill_rejects_different_model_shape(self):
        cs = compile_model(parse_model(MM1K)).explore()
        with pytest.raises(TemplateMismatch):
            cs.refill(parse_model(SYNC))

    @pytest.mark.parametrize(
        "build",
        [
            lambda lam: build_tags_model(TagsParameters(lam=lam)),
            lambda lam: TagsHyperExponential(lam=lam).build(),
        ],
        ids=["figure3", "figure5"],
    )
    def test_warm_refill_sorts_nothing(self, build, monkeypatch):
        """A rate-only refill of a built structure reuses every
        aggregation order: ``stable_groups`` is never called, and the
        generator is bit-equal to a cold build."""
        from repro.ctmc import generator as generator_mod
        from repro.pepa import compiled as compiled_mod

        cs = compile_model(build(5.0)).explore()
        cs.generator()
        other = build(7.5)
        calls = []
        real = generator_mod.stable_groups

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(compiled_mod, "stable_groups", counting)
        monkeypatch.setattr(generator_mod, "stable_groups", counting)
        warm = cs.refill(other).generator()
        assert calls == []
        cold = compile_model(other).explore().generator()
        assert calls  # the cold build does sort
        assert _digests(warm) == _digests(cold)

    def test_refill_of_renamed_constants_renames_states(self):
        renamed = MM1K.replace("Q", "R")
        cs = compile_model(parse_model(MM1K)).explore()
        before = cs.names()
        cs.refill(parse_model(renamed))
        assert cs.names() == [tuple(n.replace("Q", "R") for n in t) for t in before]
        fresh = compile_model(parse_model(renamed)).explore()
        assert cs.names() == fresh.names()
        assert np.array_equal(cs.rate, fresh.rate)

    def test_state_reward_memoised_and_refreshed(self):
        p0 = TagsParameters(lam=5.0, n=3, K1=4, K2=4)
        cs = compile_model(build_tags_model(p0)).explore()

        def q1(names):
            return float(sum(1 for nm in names if nm.startswith("Q1_")))

        r1 = cs.state_reward(q1)
        r2 = cs.state_reward(q1)
        assert np.array_equal(r1, r2)
        r1[:] = -1.0  # callers get copies; the memo must be unaffected
        assert not np.array_equal(r1, cs.state_reward(q1))
        # rates-only refill keeps the reward memo valid
        cs.refill(build_tags_model(TagsParameters(lam=8.0, n=3, K1=4, K2=4)))
        assert np.array_equal(cs.state_reward(q1), r2)


# ----------------------------------------------------------------------
# satellite 1: flattened local-state decomposition caches
# ----------------------------------------------------------------------


class TestDecompositionCache:
    @pytest.mark.parametrize("engine", ["interpreter", "compiled"])
    def test_local_names_cached(self, engine):
        space = EXPLORERS[engine](parse_model(SYNC))
        assert space.local_names(0) == ("Job0", "Srv")
        assert space._names is not None  # built (or primed) once
        first = space._names
        space.local_names(1)
        assert space._names is first  # no rebuild on later calls

    @pytest.mark.parametrize("engine", ["interpreter", "compiled"])
    def test_derivative_count_int_coded(self, engine):
        space = EXPLORERS[engine](build_tags_model(TagsParameters(n=3, K1=4, K2=4)))
        counts = space.derivative_count("Q1_0")
        naive = np.array(
            [
                sum(1 for nm in space.local_names(i) if nm == "Q1_0")
                for i in range(space.n_states)
            ],
            dtype=np.float64,
        )
        np.testing.assert_array_equal(counts, naive)
        # the int-coded matrix is cached for the next lookup
        assert space._name_codes is not None or space._name_vocab is not None

    def test_engines_agree_on_names(self):
        model = build_tags_model(TagsParameters(n=3, K1=4, K2=4))
        si = explore_interpreter(model)
        sc = explore_compiled(model)
        names_i = {repr(si.states[i]): si.local_names(i) for i in range(si.n_states)}
        names_c = {repr(sc.states[i]): sc.local_names(i) for i in range(sc.n_states)}
        assert names_i == names_c
