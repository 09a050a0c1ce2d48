"""Regression tests for resume-policy work accounting.

``JobRecord.remaining`` must carry over *exactly* the unserved work when a
``resume=True`` policy moves a killed job, and restart semantics must
re-serve the full demand.  A fully deterministic single-job scenario
pins the arithmetic: demand 10, node-1 timeout 4, so resume completes
the job in 4 + 6 and restart in 4 + 10.
"""

import numpy as np
import pytest

from repro.sim import DeterministicTimeout, Simulation, TagsPolicy
from repro.sim.cluster import JobRecord


class ConstantDemand:
    """Every job has exactly the same service demand."""

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def sample(self, n: int, rng) -> np.ndarray:
        return np.full(n, self.value)


class SingleArrival:
    """One arrival at t=1; the next is pushed beyond any horizon."""

    def __init__(self) -> None:
        self.calls = 0

    def next_interarrival(self, rng) -> float:
        self.calls += 1
        return 1.0 if self.calls == 1 else 1e9


def one_job_response(resume: bool, demand: float = 10.0, tau: float = 4.0) -> float:
    sim = Simulation(
        SingleArrival(),
        ConstantDemand(demand),
        TagsPolicy(timeouts=(DeterministicTimeout(tau),), resume=resume),
        capacities=(5, 5),
    )
    res = sim.run(t_end=100.0)
    assert res.completed == 1
    return float(res.response_times[0])


class TestJobTyping:
    def test_remaining_defaults_to_demand(self):
        job = JobRecord(arrival_time=0.0, demand=7.5)
        assert job.remaining == 7.5

    def test_explicit_remaining_is_kept(self):
        job = JobRecord(arrival_time=0.0, demand=7.5, remaining=2.5)
        assert job.remaining == 2.5

    def test_annotation_is_optional_float(self):
        # the dataclass must declare the None default honestly
        assert JobRecord.__dataclass_fields__["remaining"].type == "float | None"


class TestResumeCarriesRemainingWork:
    def test_resume_serves_exactly_the_remaining_work(self):
        """Kill at tau=4 leaves 10-4=6 units; resume completes at
        arrival + 4 + 6."""
        assert one_job_response(resume=True) == pytest.approx(10.0)

    def test_restart_reserves_the_full_demand(self):
        """Restart loses the 4 served units: arrival + 4 + 10."""
        assert one_job_response(resume=False) == pytest.approx(14.0)

    def test_two_kills_chain_remaining_exactly(self):
        """Across two resume kills the remaining work telescopes:
        10 -> 6 -> 2, completing at 1 + 4 + 4 + 2."""
        sim = Simulation(
            SingleArrival(),
            ConstantDemand(10.0),
            TagsPolicy(
                timeouts=(DeterministicTimeout(4.0), DeterministicTimeout(4.0)),
                resume=True,
            ),
            capacities=(5, 5, 5),
        )
        res = sim.run(t_end=100.0)
        assert res.completed == 1
        assert float(res.response_times[0]) == pytest.approx(10.0)

    def test_speed_scaling_resumes_in_work_units(self):
        """remaining is tracked in *work* units: at node speed 2 a
        tau=4 kill removes 8 units of the demand-10 job, leaving 2."""
        sim = Simulation(
            SingleArrival(),
            ConstantDemand(10.0),
            TagsPolicy(timeouts=(DeterministicTimeout(4.0),), resume=True),
            capacities=(5, 5),
            speeds=(2.0, 1.0),
        )
        res = sim.run(t_end=100.0)
        assert res.completed == 1
        # arrival + 4 (killed at node 1) + 2 remaining at speed 1
        assert float(res.response_times[0]) == pytest.approx(6.0)
