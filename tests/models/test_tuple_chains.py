"""The tuple-state chains on ``ctmc.bfs.TupleChain``: the base's protocol,
metrics pinned exactly, and rate validation at construction.

The pins hold with ``==``: a change to a successor's arithmetic or to
its transition order shows here even when the chain stays correct.  The
Appendix B PEPA agreement test in ``test_baselines.py`` is the
independent oracle for the JSQ numbers.
"""

import math

import numpy as np
import pytest

from repro.ctmc.bfs import TupleChain
from repro.dists.families import Exponential
from repro.models import (
    MM1K,
    MMPP2,
    MPH1K,
    Figure4Model,
    MMcK,
    RandomAllocation,
    RoundRobin,
    ShortestQueue,
    ShortestQueueMMPP,
    TagsBreakdown,
    TagsMMPP,
    TagsMultiNode,
)


class _Ring(TupleChain):
    """Three states on a ring, one ``step`` action."""

    def _initial(self):
        return (0,)

    def _successors(self, s):
        return [("step", 1.0, ((s[0] + 1) % 3,))]


class TestTupleChain:
    def test_builds_once(self):
        chain = _Ring()
        assert chain.n_states == 3
        assert chain.generator is chain.generator
        assert chain.states == [(0,), (1,), (2,)]

    def test_pi_memoised(self):
        chain = _Ring()
        assert chain.pi is chain.pi
        np.testing.assert_allclose(chain.pi, [1 / 3] * 3)

    def test_pi_honours_handed_in_vector(self):
        chain = _Ring()
        _ = chain.generator
        given = np.array([0.5, 0.25, 0.25])
        chain._pi = given
        assert chain.pi is given

    def test_throughput_of_unfired_action_is_zero(self):
        chain = _Ring()
        assert chain.throughput("step") == pytest.approx(1.0)
        assert chain.throughput("never") == 0.0

    def test_mean(self):
        assert _Ring().mean(lambda s: s[0]) == pytest.approx(1.0)


PINS = [
    (
        lambda: ShortestQueue(5, 10.0, K=10),
        121, 0.5505010320606345, 4.999999999994029, 5.968558976218222e-12,
    ),
    (
        lambda: RoundRobin(5, 10.0, K=10),
        242, 0.577350258495077, 4.999999992511957, 7.488042139586129e-09,
    ),
    (
        lambda: ShortestQueueMMPP(MMPP2(2, 14, 0.5, 1), mu=10, K=6),
        98, 0.9448270590561327, 5.990530060369458, 0.009469939630545083,
    ),
]


class TestPinnedMetrics:
    @pytest.mark.parametrize(
        "make, states, mean_jobs, throughput, loss_rate",
        PINS,
        ids=["jsq", "round_robin", "jsq_mmpp"],
    )
    def test_exact(self, make, states, mean_jobs, throughput, loss_rate):
        model = make()
        m = model.metrics()
        assert model.n_states == states
        assert m.mean_jobs == mean_jobs
        assert m.throughput == throughput
        assert m.loss_rate == loss_rate

    def test_exponential_is_the_one_phase_case(self):
        """Head-phase columns stay 0 under exponential service."""
        for model, cols in (
            (ShortestQueue(5, 10.0, K=4), (1, 3)),
            (RoundRobin(5, 10.0, K=4), (2, 4)),
            (ShortestQueueMMPP(MMPP2(2, 14, 0.5, 1), mu=10, K=4), (2, 4)),
        ):
            assert all(s[c] == 0 for s in model.states for c in cols)


_MMPP = MMPP2(2, 14, 0.5, 1)

NON_FINITE = {
    "MM1K.lam": lambda x: MM1K(x, 10.0, 5),
    "MM1K.mu": lambda x: MM1K(5.0, x, 5),
    "MMcK.lam": lambda x: MMcK(x, 10.0, 2, 5),
    "MMcK.mu": lambda x: MMcK(5.0, x, 2, 5),
    "MPH1K.lam": lambda x: MPH1K(x, Exponential(10.0), 5),
    "RandomAllocation.lam": lambda x: RandomAllocation(lam=x, service=10.0),
    "RandomAllocation.service": lambda x: RandomAllocation(lam=5.0, service=x),
    "ShortestQueue.lam": lambda x: ShortestQueue(x, 10.0),
    "ShortestQueue.service": lambda x: ShortestQueue(5.0, x),
    "RoundRobin.lam": lambda x: RoundRobin(x, 10.0),
    "RoundRobin.service": lambda x: RoundRobin(5.0, x),
    "TagsMultiNode.lam": lambda x: TagsMultiNode(lam=x),
    "TagsMultiNode.mu": lambda x: TagsMultiNode(mu=x),
    "TagsMultiNode.timeouts": lambda x: TagsMultiNode(timeouts=(x,)),
    "TagsMMPP.mu": lambda x: TagsMMPP(_MMPP, mu=x),
    "TagsMMPP.t": lambda x: TagsMMPP(_MMPP, t=x),
    "ShortestQueueMMPP.mu": lambda x: ShortestQueueMMPP(_MMPP, mu=x),
    "MMPP2.rate0": lambda x: MMPP2(x, 14.0, 0.5, 1.0),
    "MMPP2.rate1": lambda x: MMPP2(2.0, x, 0.5, 1.0),
    "MMPP2.switch01": lambda x: MMPP2(2.0, 14.0, x, 1.0),
    "MMPP2.switch10": lambda x: MMPP2(2.0, 14.0, 0.5, x),
    "Figure4Model.lam": lambda x: Figure4Model(lam=x),
    "Figure4Model.mu": lambda x: Figure4Model(mu=x),
    "Figure4Model.t": lambda x: Figure4Model(t=x),
    "TagsBreakdown.lam": lambda x: TagsBreakdown(lam=x),
    "TagsBreakdown.fail": lambda x: TagsBreakdown(fail=x),
    "TagsBreakdown.repair": lambda x: TagsBreakdown(repair=x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("make", NON_FINITE.values(), ids=list(NON_FINITE))
def test_non_finite_rate_rejected_at_construction(make, value):
    with pytest.raises(ValueError, match="finite"):
        make(value)


def test_on_off_arrivals_still_allowed():
    """A zero MMPP arrival rate is an on/off source, not an error."""
    assert MMPP2(0.0, 12.0, 1.0, 2.0).burstiness > 1
