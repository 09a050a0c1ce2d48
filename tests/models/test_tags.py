"""TAGS model tests: regression pins against the removed direct chains,
the paper's 4331-state count, structural invariants and limiting
behaviours."""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from repro.dists.residual import (
    erlang_vs_exp_timeout_probability,
    h2_conditional_timeout_probability,
)
from repro.models import (
    MMPP2,
    TagsExponential,
    TagsHyperExponential,
    TagsPepa,
    build_tags_model,
    tags_pepa_metrics,
)
from repro.models.tags_pepa import TagsParameters
from repro.models.tags_hyper import TagsH2Parameters, tags_h2_pepa_metrics
from repro.pepa import check_model, explore
from repro.pepa.pretty import pretty_model


class TestStateSpace:
    def test_paper_state_count(self):
        """The headline check: n=6, K1=K2=10 must give 4331 states."""
        p = TagsParameters(lam=5, mu=10, t=51, n=6, K1=10, K2=10)
        space = explore(build_tags_model(p))
        assert space.n_states == 4331

    def test_state_count_formula(self):
        """Reachable count is (K1*n + 1) * (K2*(n+1) + 1) for the frozen-
        timer encoding."""
        for n, K1, K2 in [(3, 4, 5), (2, 3, 3), (6, 10, 10)]:
            p = TagsParameters(lam=5, mu=10, t=20, n=n, K1=K1, K2=K2)
            space = explore(build_tags_model(p))
            assert space.n_states == (K1 * n + 1) * (K2 * (n + 1) + 1)

    def test_direct_matches_pepa_count(self):
        p = TagsParameters(lam=5, mu=10, t=51, n=4, K1=6, K2=6)
        space = explore(build_tags_model(p))
        d = TagsExponential(lam=5, mu=10, t=51, n=4, K1=6, K2=6)
        assert d.n_states == space.n_states

    def test_well_formed(self):
        p = TagsParameters(n=3, K1=3, K2=3)
        assert check_model(build_tags_model(p)).warnings == []


class TestFigure3Model:
    """The builder's Figure 3 output, pinned by the sha256 of its
    pretty-printed form (definitions in order, then the system): the
    N-node and MMPP generalisations of ``build_tags_model`` must leave
    the two-node Poisson model unchanged."""

    @pytest.mark.parametrize(
        "params, digest",
        [
            ({}, "3d7423038207a7299a2bbc3b041e88034f015742e6e6d49b5854d9ea6c1e95eb"),
            (
                {"tick_during_residual": True},
                "4b8a84fd3ae65348cc64b03556643b469cc30a6887ada435b4eaae49726059b7",
            ),
            (
                {"restart_work": False},
                "edc7664c2c44d5fbceaef1ecc389e1e331a7cf9f3dbb9672708fb6b02aae0b00",
            ),
        ],
        ids=["default", "tick-during-residual", "resume"],
    )
    def test_fingerprint(self, params, digest):
        text = pretty_model(build_tags_model(TagsParameters(**params)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _csr_digest(model) -> str:
    """sha256 of the generator's CSR ``indptr``/``indices``/``data``."""
    Q = model.generator.Q.tocsr()
    h = hashlib.sha256()
    for a in (Q.indptr, Q.indices, Q.data):
        h.update(a.tobytes())
    return h.hexdigest()


class TestFigure5Model:
    """The Figure 5 chain's generator, pinned byte for byte (state
    order, pattern and every rate): any way of building the H2 model
    must give this exact CTMC."""

    @pytest.mark.parametrize(
        "params, digest",
        [
            (
                {"t": 10.0},
                "97b6669483cc5e0ecb42609a12bf4c9af2a8f06664b94919e554c12273f81257",
            ),
            (
                {"t": 51.0},
                "8c5c694ac3e2a28fe0b34c363f5afe72faafeb59af4dd0b86649e0c8bdb0a93f",
            ),
            (
                {"n": 3, "K1": 5, "K2": 5, "tick_during_residual": True},
                "0ae1f1b69c26f277a1f8dc269156fe5b3435c261b2a90619a0ae2220d31d77d2",
            ),
            (
                {"n": 2, "K1": 4, "K2": 4, "alpha_prime": 1.0},
                "8bf801cb1751a4c5346bdbeb0a425a4154a7889abeb96e12a6d7afb52090446e",
            ),
        ],
        ids=["t10", "t51", "small-ticking", "alpha-prime-1"],
    )
    def test_generator_digest(self, params, digest):
        assert _csr_digest(TagsHyperExponential(**params)) == digest


class TestServicePhases:
    """``service`` replaces ``mu`` by exponential phases: one phase is
    the Figure 3 model, two the Figure 5 chain pinned above; shapes no
    model class uses with several phases are refused."""

    def test_one_phase_is_figure3(self):
        p = TagsParameters(mu=7.0, n=3, K1=4, K2=4)
        service = TagsExponential(mu=7.0).service_phases()
        assert build_tags_model(
            TagsParameters(mu=1.0, n=3, K1=4, K2=4), service=service
        ) == build_tags_model(p)

    @pytest.mark.parametrize(
        "params, options",
        [
            ({}, {"capacities": (3, 3, 3), "timeouts": (20.0, 20.0)}),
            ({}, {"arrivals": MMPP2(10.0, 1.0, 0.5, 0.5)}),
            ({"t_of_q1": lambda q: 20.0}, {}),
            ({"restart_work": False}, {}),
            ({"mu2_service": 5.0}, {}),
            ({"t2": 5.0}, {}),
        ],
        ids=["three-nodes", "mmpp", "t_of_q1", "resume", "mu2_service", "t2"],
    )
    def test_untested_shapes_with_two_phases_raise(self, params, options):
        service = TagsHyperExponential(n=2, K1=3, K2=3).service_phases()
        p = TagsParameters(n=2, K1=3, K2=3, **params)
        with pytest.raises(ValueError):
            build_tags_model(p, service=service, **options)


class TestTimeoutRace:
    """At node 1 every head epoch races the head's service phase (drawn
    when its service starts) against a fresh Erlang(n, t) clock, and
    nothing else in the chain touches that race; so by renewal-reward
    the share of epochs ending in a timeout is the race's probability.
    The chains are built independently of that formula: 1e-12 is
    solver rounding."""

    @pytest.mark.parametrize("t", [10.0, 30.0, 60.0])
    def test_exponential(self, t):
        m = TagsExponential(t=t)
        x_out, x_done = m.throughput("timeout"), m.throughput("service1")
        want = erlang_vs_exp_timeout_probability(t, m.mu, m.n)
        assert x_out / (x_done + x_out) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("t", [10.0, 50.0])
    def test_hyperexponential(self, t):
        m = TagsHyperExponential(t=t)
        x_out, x_done = m.throughput("timeout"), m.throughput("service1")
        want = h2_conditional_timeout_probability(t, m.alpha, m.mu1, m.mu2, m.n)
        assert x_out / (x_done + x_out) == pytest.approx(want, rel=1e-12)


REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "tags_direct_reference.json").read_text()
)


def _dynamic_clock(q):
    return 42.0 * (1.0 + 0.3 * (q - 1))


def assert_matches_reference(m, ref):
    """Relative 1e-9 agreement with a recorded reference point.  Node 2's
    loss alone also passes within 1e-12 absolute: it is a difference of
    two O(1) throughputs (timeout - service2), so at light load (Figure 6:
    ~8e-7 from two ~1.7 terms) its relative error is cancellation, not
    solve accuracy.  Node 1's loss is a throughput read directly and is
    held to 1e-9 relative."""
    for name in ("mean_jobs", "throughput", "response_time"):
        assert getattr(m, name) == pytest.approx(ref[name], rel=1e-9), name
    assert list(m.mean_jobs_per_node) == pytest.approx(
        ref["mean_jobs_per_node"], rel=1e-9
    )
    loss1, loss2 = m.loss_per_node
    assert loss1 == pytest.approx(ref["loss_per_node"][0], rel=1e-9)
    assert loss2 == pytest.approx(ref["loss_per_node"][1], rel=1e-9, abs=1e-12)
    assert m.extra["n_states"] == ref["extra"]["n_states"]
    for key, value in ref["extra"].items():
        assert m.extra[key] == pytest.approx(value, rel=1e-9), key


EXP_CASES = {
    "fig6": dict(lam=5.0, mu=10.0, t=51.0, n=6, K1=10, K2=10),
    "fig8-lam11": dict(lam=11.0, mu=10.0, t=42.0, n=6, K1=10, K2=10),
    "small": dict(lam=5.0, mu=10.0, t=5.0, n=2, K1=4, K2=6),
    "ticking-variant": dict(
        lam=5.0, mu=10.0, t=20.0, n=3, K1=5, K2=5, tick_during_residual=True
    ),
    "heterogeneous": dict(
        lam=9.0, mu=10.0, t=40.0, n=3, K1=5, K2=5, mu2_service=25.0, t2=10.0
    ),
    "dynamic-timeout": dict(
        lam=11.0, mu=10.0, t=42.0, n=3, K1=6, K2=6, t_of_q1=_dynamic_clock
    ),
    "resume": dict(
        lam=9.0, mu=10.0, t=42.0, n=3, K1=6, K2=6, restart_work=False
    ),
    "resume-fig6": dict(
        lam=5.0, mu=10.0, t=51.0, n=6, K1=10, K2=10, restart_work=False
    ),
}

H2_CASES = {
    "fig9-small": dict(
        lam=11.0, alpha=0.99, mu1=19.9, mu2=0.199, t=40.0, n=3, K1=5, K2=5
    ),
    "alpha09": dict(
        lam=11.0, alpha=0.9, mu1=19.0, mu2=1.9, t=20.0, n=2, K1=4, K2=4
    ),
    "ticking-variant": dict(
        lam=11.0, alpha=0.99, mu1=19.9, mu2=0.199, t=40.0, n=3, K1=5, K2=5,
        tick_during_residual=True,
    ),
    "alpha-prime-1": dict(
        lam=11.0, alpha=0.9, mu1=19.0, mu2=1.9, t=20.0, n=2, K1=4, K2=4,
        alpha_prime=1.0,
    ),
}


class TestPepaDirectAgreement:
    """The compiled PEPA chains reproduce the hand-built tuple-state
    chains they replaced: metrics recorded from those chains (see
    ``data/tags_direct_reference.json``) at 1e-9."""

    @pytest.mark.parametrize("case", list(EXP_CASES))
    def test_exponential(self, case):
        kwargs = EXP_CASES[case]
        ref = REFERENCE["exponential"][case]
        assert_matches_reference(TagsExponential(**kwargs).metrics(), ref)
        if "t_of_q1" not in kwargs:
            # the PEPA-named entry points are the same chain
            metrics = tags_pepa_metrics(TagsParameters(**kwargs))
            assert_matches_reference(metrics, ref)

    @pytest.mark.parametrize("case", list(H2_CASES))
    def test_hyperexponential(self, case):
        kwargs = H2_CASES[case]
        ref = REFERENCE["hyperexponential"][case]
        assert_matches_reference(TagsHyperExponential(**kwargs).metrics(), ref)
        metrics = tags_h2_pepa_metrics(TagsH2Parameters(**kwargs))
        assert_matches_reference(metrics, ref)


STATE_CASES = {
    "exp-fig3": lambda: TagsExponential(n=6, K1=10, K2=10),
    "exp-small-ticking": lambda: TagsExponential(
        n=3, K1=5, K2=5, tick_during_residual=True
    ),
    "exp-fig3-resume": lambda: TagsExponential(
        n=6, K1=10, K2=10, restart_work=False
    ),
    "h2-fig5": lambda: TagsHyperExponential(n=6, K1=10, K2=10),
    "h2-small-ticking": lambda: TagsHyperExponential(
        n=3, K1=5, K2=5, tick_during_residual=True
    ),
    "h2-alpha-prime-1": lambda: TagsHyperExponential(
        n=2, K1=4, K2=4, alpha_prime=1.0
    ),
}


class TestTupleStates:
    """``states`` projects the PEPA state names onto the tuple encoding
    of the removed direct chains: the same set, one tuple per state."""

    @pytest.mark.parametrize("case", list(STATE_CASES))
    def test_states_equal_direct_state_set(self, case):
        model = STATE_CASES[case]()
        states = model.states
        want = REFERENCE["states"][case]
        assert len(states) == model.n_states == want["n_states"]
        assert len(set(states)) == len(states)
        digest = hashlib.sha256(repr(sorted(states)).encode()).hexdigest()
        assert digest == want["sha256"]

    def test_queue_lengths_match_metrics(self):
        m = TagsHyperExponential(n=2, K1=3, K2=3)
        q = np.array(m.states, dtype=float)
        got = m.metrics().mean_jobs_per_node
        assert got == pytest.approx((m.pi @ q[:, 0], m.pi @ q[:, 3]), rel=1e-12)


class TestH2Degeneracy:
    def test_h2_with_equal_rates_equals_exponential(self):
        """mu1 == mu2 == mu collapses Figure 5 to Figure 3."""
        exp = TagsExponential(lam=5, mu=10, t=30, n=3, K1=5, K2=5).metrics()
        h2 = TagsHyperExponential(
            lam=5, alpha=0.5, mu1=10.0, mu2=10.0, t=30.0, n=3, K1=5, K2=5
        ).metrics()
        assert h2.mean_jobs == pytest.approx(exp.mean_jobs, rel=1e-9)
        assert h2.throughput == pytest.approx(exp.throughput, rel=1e-9)
        assert h2.response_time == pytest.approx(exp.response_time, rel=1e-9)


class TestFlowBalance:
    def test_conservation(self):
        m = TagsExponential(lam=9, mu=10, t=45, n=6, K1=10, K2=10).metrics()
        # every admitted job leaves by service1 or service2
        assert m.throughput + m.loss_rate == pytest.approx(9.0, abs=1e-9)
        # node-2 flow balance: entries (timeout minus drops) = service2
        x2 = m.extra["service2_throughput"]
        assert m.extra["timeout_throughput"] - m.loss_per_node[1] == pytest.approx(
            x2, abs=1e-9
        )

    def test_losses_nonnegative(self):
        m = TagsExponential(lam=11, mu=10, t=5.0, n=6, K1=10, K2=10).metrics()
        assert m.loss_per_node[0] >= 0
        assert m.loss_per_node[1] >= -1e-12


class TestLimits:
    def test_huge_timeout_first_node_does_everything(self):
        """t -> 0 rate ... wait: huge MEAN timeout = tiny rate t is wrong
        way; a very SLOW clock (t small) means the timeout almost never
        fires, so node 1 behaves like M/M/1/K1 and node 2 idles."""
        m = TagsExponential(lam=5, mu=10, t=0.01, n=6, K1=10, K2=10).metrics()
        from repro.models import MM1K

        ana = MM1K(5, 10, 10)
        assert m.mean_jobs_per_node[0] == pytest.approx(ana.mean_jobs, rel=1e-2)
        assert m.mean_jobs_per_node[1] == pytest.approx(0.0, abs=1e-2)
        assert m.extra["timeout_throughput"] < 0.05

    def test_instant_timeout_everything_to_node2(self):
        """A very fast clock times every job out to node 2."""
        m = TagsExponential(lam=5, mu=10, t=5000.0, n=6, K1=10, K2=10).metrics()
        assert m.extra["service1_throughput"] < 0.1
        assert m.extra["service2_throughput"] > 4.5

    def test_monotone_loss_in_load(self):
        losses = [
            TagsExponential(lam=lam, mu=10, t=45, n=6, K1=10, K2=10)
            .metrics()
            .loss_rate
            for lam in (5.0, 9.0, 13.0, 18.0)
        ]
        assert all(a < b for a, b in zip(losses, losses[1:]))


class TestTickDuringResidualAblation:
    def test_variants_differ_but_slightly(self):
        base = dict(lam=5, mu=10, t=51.0, n=6, K1=10, K2=10)
        frozen = TagsExponential(**base).metrics()
        ticking = TagsExponential(**base, tick_during_residual=True).metrics()
        assert ticking.mean_jobs != pytest.approx(frozen.mean_jobs, rel=1e-12)
        # the encodings describe the same physical system to first order
        # (the ticking variant shortens the next job's repeat period, so it
        # holds ~17% fewer jobs at these parameters)
        assert ticking.mean_jobs == pytest.approx(frozen.mean_jobs, rel=0.3)
        assert ticking.mean_jobs < frozen.mean_jobs

    def test_ticking_variant_has_more_states(self):
        base = dict(lam=5, mu=10, t=51.0, n=6, K1=10, K2=10)
        frozen = TagsExponential(**base)
        ticking = TagsExponential(**base, tick_during_residual=True)
        assert ticking.n_states > frozen.n_states


class TestParameterValidation:
    def test_bad_rates(self):
        with pytest.raises(ValueError):
            TagsParameters(lam=-1.0)
        with pytest.raises(ValueError):
            TagsExponential(lam=5, mu=0.0)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            TagsH2Parameters(alpha=1.0)
        with pytest.raises(ValueError):
            TagsHyperExponential(alpha=0.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TagsExponential(lam=math.nan),
            lambda: TagsPepa(t=math.nan),
            lambda: TagsHyperExponential(mu1=math.nan),
            lambda: TagsExponential(t=math.inf),
            lambda: TagsHyperExponential(alpha_prime=math.nan),
            lambda: TagsExponential(mu2_service=math.nan),
            lambda: TagsExponential(t2=math.inf),
            lambda: TagsExponential(t_of_q1=lambda q: math.nan),
            lambda: TagsParameters(mu=math.inf),
        ],
        ids=[
            "exp-lam-nan", "pepa-t-nan", "h2-mu1-nan", "exp-t-inf",
            "h2-alpha-prime-nan", "exp-mu2-nan", "exp-t2-inf",
            "exp-t_of_q1-nan", "params-mu-inf",
        ],
    )
    def test_non_finite_rates_rejected_fast(self, make):
        """nan fails no ``<= 0`` test; before the finite check these were
        accepted and ended ~100 s later in SteadyStateError."""
        start = time.perf_counter()
        with pytest.raises(ValueError):
            make().metrics()
        assert time.perf_counter() - start < 1.0

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            TagsParameters(n=0)
        with pytest.raises(ValueError):
            TagsParameters(K1=0)
