"""QueueMetrics record tests: validation and derived quantities."""

import pytest

from repro.models import MMPP2, RoundRobin, ShortestQueue, ShortestQueueMMPP
from repro.models.metrics import QueueMetrics, from_population_and_throughput


class TestAssembly:
    def test_derived_fields(self):
        m = from_population_and_throughput(
            mean_jobs_per_node=(1.0, 2.0),
            throughput=4.0,
            offered_load=5.0,
        )
        assert m.mean_jobs == 3.0
        assert m.response_time == pytest.approx(0.75)
        assert m.loss_rate == pytest.approx(1.0)
        assert m.loss_probability == pytest.approx(0.2)

    def test_measured_loss_rate(self):
        """A model's loss throughput is reported as is, not as the
        difference offered - throughput (which keeps no relative
        precision when the loss is tiny)."""
        m = from_population_and_throughput(
            mean_jobs_per_node=(1.0,), throughput=5.0 - 3e-12, offered_load=5.0,
            loss_rate=3.0000000001e-12, loss_per_node=(3.0000000001e-12,),
        )
        assert m.loss_rate == 3.0000000001e-12

    def test_loss_is_the_arrloss_throughput(self):
        """JSQ and round robin lose jobs only by ``arrloss``."""
        for model in (
            ShortestQueue(5.0, 10.0, K=10),
            RoundRobin(5.0, 10.0, K=10),
            ShortestQueueMMPP(MMPP2(2, 14, 0.5, 1), mu=10, K=6),
        ):
            m = model.metrics()
            assert m.loss_rate == model.throughput("arrloss") == m.loss_per_node[0]

    def test_zero_throughput_infinite_response(self):
        m = from_population_and_throughput(
            mean_jobs_per_node=(1.0,), throughput=0.0, offered_load=1.0
        )
        assert m.response_time == float("inf")

    def test_extra_dict_copied(self):
        extra = {"a": 1}
        m = from_population_and_throughput(
            mean_jobs_per_node=(0.0,), throughput=1.0, offered_load=1.0,
            extra=extra,
        )
        extra["b"] = 2
        assert "b" not in m.extra


class TestValidation:
    def test_negative_population_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            from_population_and_throughput(
                mean_jobs_per_node=(-1.0,), throughput=1.0, offered_load=1.0
            )

    def test_throughput_above_offered_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            from_population_and_throughput(
                mean_jobs_per_node=(1.0,), throughput=2.0, offered_load=1.0
            )

    def test_flow_imbalance_rejected(self):
        with pytest.raises(ValueError, match="flow balance"):
            from_population_and_throughput(
                mean_jobs_per_node=(1.0,), throughput=0.5, offered_load=1.0,
                loss_rate=0.1,  # should be 0.5
            )

    def test_inconsistent_loss_split_rejected(self):
        with pytest.raises(ValueError, match="do not sum"):
            from_population_and_throughput(
                mean_jobs_per_node=(1.0,),
                throughput=0.5,
                offered_load=1.0,
                loss_per_node=(0.1,),  # should be 0.5
            )

    def test_zero_offered_load_loss_probability(self):
        m = QueueMetrics(
            mean_jobs=0.0,
            mean_jobs_per_node=(0.0,),
            throughput=0.0,
            offered_load=0.0,
            response_time=0.0,
            loss_rate=0.0,
        )
        assert m.loss_probability == 0.0

    def test_frozen(self):
        m = from_population_and_throughput(
            mean_jobs_per_node=(1.0,), throughput=1.0, offered_load=1.0
        )
        with pytest.raises(AttributeError):
            m.mean_jobs = 5.0
