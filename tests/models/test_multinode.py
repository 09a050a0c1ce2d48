"""N-node TAGS extension tests."""

import pytest

from repro.models import TagsExponential, TagsMultiNode, build_tags_model
from repro.models.tags_pepa import TagsParameters


TWO_NODE_SHAPES = [
    dict(lam=5.0, mu=10.0, t=51.0, n=6, K1=10, K2=10),
    dict(lam=9.0, mu=10.0, t=45.0, n=4, K1=6, K2=6),
    dict(lam=3.0, mu=7.0, t=12.0, n=1, K1=2, K2=5),
]


def _two_node(p):
    return TagsMultiNode(
        lam=p["lam"], mu=p["mu"], timeouts=(p["t"],), n=p["n"],
        capacities=(p["K1"], p["K2"]),
    )


class TestTwoNodeEquivalence:
    @pytest.mark.parametrize("p", TWO_NODE_SHAPES, ids=["fig3", "x7", "n1"])
    def test_builds_the_figure3_model(self, p):
        """At N=2 the one builder returns the Figure 3 model itself."""
        assert _two_node(p).build() == build_tags_model(TagsParameters(**p))

    def test_matches_two_node_model(self):
        """With N=2 the multinode chain must equal the Figure 3 chain."""
        mn = _two_node(TWO_NODE_SHAPES[0])
        te = TagsExponential(lam=5, mu=10, t=51, n=6, K1=10, K2=10)
        m1, m2 = mn.metrics(), te.metrics()
        assert mn.n_states == te.n_states
        assert m1.mean_jobs == m2.mean_jobs
        assert m1.mean_jobs_per_node == m2.mean_jobs_per_node
        assert m1.throughput == m2.throughput
        assert m1.loss_per_node == m2.loss_per_node


class TestThreeNodes:
    @pytest.fixture(scope="class")
    def metrics3(self):
        mn = TagsMultiNode(
            lam=5.0, mu=10.0, timeouts=(30.0, 15.0), n=2, capacities=(4, 4, 4)
        )
        return mn.metrics()

    def test_flow_balance(self, metrics3):
        assert metrics3.throughput + metrics3.loss_rate == pytest.approx(
            5.0, abs=1e-8
        )

    def test_population_positive_everywhere(self, metrics3):
        assert all(x > 0 for x in metrics3.mean_jobs_per_node)

    def test_rare_timeouts_concentrate_load_at_node1(self):
        """With generous timeouts almost nothing times out, so the
        population decreases down the chain."""
        mn = TagsMultiNode(
            lam=5.0, mu=10.0, timeouts=(4.0, 4.0), n=2, capacities=(4, 4, 4)
        )
        per = mn.metrics().mean_jobs_per_node
        assert per[0] > per[1] > per[2]


class TestPinnedMetrics:
    """Values recorded from the compiled PEPA line (``build_tags_model``
    with ``capacities``/``timeouts``), solved by the sparse LU that
    orders once per sparsity pattern.  They moved by at most 1e-15
    relative from the hand-built tuple chain they replace (same state
    set, another state order).  Build and solve are deterministic, so
    they must hold exactly."""

    @pytest.mark.parametrize(
        "params, expect",
        [
            (
                dict(lam=5.0, mu=10.0, timeouts=(30.0, 15.0), n=2,
                     capacities=(4, 4, 4)),
                dict(
                    n_states=3213,
                    mean_jobs=1.6055378282650685,
                    throughput=4.936287642206554,
                    per_node=(0.26746947977435415, 0.8839632865138569,
                              0.45410506197685735),
                    arrival_loss=0.004904183042611734,
                ),
            ),
            (
                dict(lam=9.0, mu=10.0, timeouts=(45.0, 22.0), n=4,
                     capacities=(4, 4, 4)),
                dict(
                    n_states=20757,
                    mean_jobs=3.313997863536719,
                    throughput=8.246503468865948,
                    per_node=(0.780212513693211, 2.131644458534151,
                              0.4021408913093568),
                    arrival_loss=0.1637705906791756,
                ),
            ),
        ],
        ids=["n2-lam5", "n4-lam9"],
    )
    def test_three_node_metrics_exact(self, params, expect):
        m = TagsMultiNode(**params).metrics()
        assert m.extra["n_states"] == expect["n_states"]
        assert m.mean_jobs == expect["mean_jobs"]
        assert m.throughput == expect["throughput"]
        assert m.mean_jobs_per_node == expect["per_node"]
        assert m.extra["arrival_loss"] == expect["arrival_loss"]


class TestValidation:
    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            TagsMultiNode(capacities=(5,), timeouts=())

    def test_timeout_count(self):
        with pytest.raises(ValueError):
            TagsMultiNode(capacities=(5, 5, 5), timeouts=(10.0,))

    def test_positive_rates(self):
        with pytest.raises(ValueError):
            TagsMultiNode(lam=-1.0, capacities=(5, 5), timeouts=(10.0,))

    @pytest.mark.parametrize("caps", [(0, 5), (5, 0), (4, -1, 4)])
    def test_capacities_at_least_one(self, caps):
        with pytest.raises(ValueError, match="capacities"):
            TagsMultiNode(capacities=caps, timeouts=(10.0,) * (len(caps) - 1))

    def test_phases_at_least_one(self):
        with pytest.raises(ValueError):
            TagsMultiNode(n=0)


class TestRepeatCycles:
    """Node i's head repeats i - 1 cycles: the tuple states' ``c_i``."""

    def test_cycles_left_per_node(self):
        mn = TagsMultiNode(timeouts=(30.0, 15.0, 8.0), n=2, capacities=(1, 1, 1, 2))
        for i in range(4):
            assert {s[3 * i + 2] for s in mn.states} == set(range(i + 1))

    def test_structure_shared_across_rates(self):
        a = TagsMultiNode(lam=5.0, timeouts=(30.0, 15.0), capacities=(2, 2, 2))
        b = TagsMultiNode(lam=6.0, timeouts=(20.0, 9.0), capacities=(2, 2, 2))
        assert a.states is b.states
