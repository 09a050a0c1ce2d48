"""N-node TAGS extension tests."""

import pytest

from repro.models import TagsExponential, TagsMultiNode


class TestTwoNodeEquivalence:
    def test_matches_two_node_model(self):
        """With N=2 the multinode chain must equal the Figure 3 chain."""
        mn = TagsMultiNode(
            lam=5.0, mu=10.0, timeouts=(51.0,), n=6, capacities=(10, 10)
        )
        te = TagsExponential(lam=5, mu=10, t=51, n=6, K1=10, K2=10)
        m1, m2 = mn.metrics(), te.metrics()
        assert mn.n_states == te.n_states
        assert m1.mean_jobs == pytest.approx(m2.mean_jobs, rel=1e-9)
        assert m1.throughput == pytest.approx(m2.throughput, rel=1e-9)


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
    """Values recorded with the sparse LU that orders once per sparsity
    pattern (minimum degree, unpivoted factor, first state anchored);
    they moved by at most 2e-14 relative from the COLAMD solver's.  The
    build path (``bfs_arrays`` + ``assemble_generator``, the one
    labelled-generator assembler) is deterministic, so they must hold
    exactly."""

    @pytest.mark.parametrize(
        "params, expect",
        [
            (
                dict(lam=5.0, mu=10.0, timeouts=(30.0, 15.0), n=2,
                     capacities=(4, 4, 4)),
                dict(
                    n_states=3213,
                    mean_jobs=1.6055378282650672,
                    throughput=4.936287642206551,
                    per_node=(0.2674694797743541, 0.8839632865138559,
                              0.4541050619768572),
                    arrival_loss=0.0049041830426117304,
                ),
            ),
            (
                dict(lam=9.0, mu=10.0, timeouts=(45.0, 22.0), n=4,
                     capacities=(4, 4, 4)),
                dict(
                    n_states=20757,
                    mean_jobs=3.313997863536718,
                    throughput=8.246503468865948,
                    per_node=(0.7802125136932109, 2.1316444585341503,
                              0.4021408913093572),
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
