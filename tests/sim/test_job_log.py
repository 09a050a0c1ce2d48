"""The columnar job log (``record_jobs=True``) on both DES hosts.

* Job conservation read from the log: every offered job has exactly one
  row; the rows per outcome equal the run's counters, and the rows with
  an outcome plus ``still_queued`` equal ``offered`` -- for plain runs
  and under crash plans (``requeue`` and ``drop``, restart and resume).
* Pins: the sha256 of a canonical dump of ``job_outcomes()``, of every
  ``.jobs`` field and of the per-completion arrays, for seeded faulted
  runs of each host.  The digests were recorded from the object-per-job
  log the columns replaced, so the columns hold the same values.
* Rows write through: a changed ``kills`` shows in ``job_outcomes()``.
* Footprint: a finished job costs bytes, not an object.
"""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.dists import Exponential
from repro.faults import FaultInjector, FaultPlan
from repro.serve import DispatchRuntime, PoissonLoad
from repro.sim import ErlangTimeout, PoissonArrivals, Simulation, TagsPolicy
from repro.sim.cluster import OUTCOMES, JobRecord

T_END = 805.9  # mid-stream: jobs are still queued when the run ends
CAPACITIES = (6, 4)
# two outages per node, all repaired before T_END
PLAN = FaultPlan.script(
    (100.0, "node_crash", 0), (130.0, "node_recover", 0),
    (200.0, "node_crash", 1), (215.0, "node_recover", 1),
    (400.0, "node_crash", 0), (420.0, "node_recover", 0),
    (600.0, "node_crash", 1), (605.0, "node_recover", 1),
)


def run(host, on_crash=None, resume=False, lam=11.0, t_end=T_END):
    """One seeded overloaded TAGS run with ``record_jobs=True``; the
    runtime guards its forwards with retries, so it can end holding a
    job mid-forward."""
    policy = TagsPolicy(timeouts=(ErlangTimeout(6, 51.0),), resume=resume)
    faults = None if on_crash is None else FaultInjector(PLAN, on_crash=on_crash)
    if host == "sim":
        return Simulation(
            PoissonArrivals(lam), Exponential(10.0), policy, CAPACITIES,
            seed=5, record_jobs=True, faults=faults,
        ).run(t_end=t_end)
    return DispatchRuntime(
        PoissonLoad(lam, Exponential(10.0)), policy, CAPACITIES,
        seed=5, record_jobs=True, faults=faults,
        forward_retries=2, retry_backoff=0.5,
    ).run(t_end)


VARIANTS = [
    (None, False),
    (None, True),
    ("requeue", False),
    ("requeue", True),
    ("drop", False),
    ("drop", True),
]


@pytest.mark.parametrize("host", ["sim", "serve"])
@pytest.mark.parametrize("on_crash,resume", VARIANTS)
def test_job_conservation_from_the_log(host, on_crash, resume):
    res = run(host, on_crash, resume)
    rows = {name: 0 for name in OUTCOMES}
    for job in res.jobs:
        rows[job.outcome] += 1
    assert rows["completed"] == res.completed
    assert rows["dropped_arrival"] == res.dropped_arrival
    assert rows["dropped_forward"] == res.dropped_forward
    assert rows["lost_to_failure"] == res.lost_to_failure
    assert rows[None] == res.still_queued
    assert len(res.jobs) - rows[None] + res.still_queued == res.offered
    assert [job.job_id for job in res.jobs] == list(range(res.offered))
    assert len(res.job_outcomes()) == res.offered - res.still_queued
    if on_crash is not None:
        assert res.lost_to_failure > 0  # the plan bit


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digests(res) -> dict:
    """sha256 of canonical dumps: floats as ``float.hex``, outcomes sorted
    by job id, jobs in log order."""
    def f(x):
        return float(x).hex()

    jobs = [
        repr((
            f(j.arrival_time), f(j.demand), f(j.remaining), int(j.job_id),
            int(j.kills), j.outcome, None if j.node is None else int(j.node),
        ))
        for j in res.jobs
    ]
    outcomes = [
        repr((int(k), o, int(n), int(c)))
        for k, (o, n, c) in sorted(res.job_outcomes().items())
    ]
    arrays = [
        np.asarray(a, dtype=float).tobytes().hex()
        for a in (res.response_times, res.slowdowns, res.demands)
    ]
    return {"job_outcomes": _sha(outcomes), "jobs": _sha(jobs), "arrays": _sha(arrays)}


PINS = {
    ("sim", "requeue", True): {
        "job_outcomes": "98875fc399e95d542745aae3142606b5f9e90b688e223129c1ae5c2e17fb9422",
        "jobs": "56a450eadb945ae02c6646e9b5e291c3760c2d3c685c401d8fac4048e464e9da",
        "arrays": "5302bfcfdb769c716b2296e9f087bdde77014478e454419f7dd839ddc9345254",
    },
    ("sim", "drop", False): {
        "job_outcomes": "64c7a1515d676c25b2cb385e5c39f84e71dbe6c6a0f5cac939fdc2ada6e1bb5b",
        "jobs": "b535909db9bddfb07d226ea99f1a89ce6d1b618558cb5739f3461e3b67d678e7",
        "arrays": "df5bea1673430ff5f88832c5aae47dea730f143e5976b11aa3e8988bbd408267",
    },
    ("serve", "requeue", True): {
        "job_outcomes": "a37541830d15f199a8c6a211a5662e806b6a28e9ab8716eace808ef4669d72e3",
        "jobs": "8e66ab608b848cb18bbc1120c76fa0f5961adb16955d71f337468c7a7fd3e089",
        "arrays": "cc7e48ed7fcfd7208dc5e60a1460ce03aee9b75052871aee1ab0e6b6aee32bb6",
    },
    ("serve", "drop", False): {
        "job_outcomes": "81093d3470bf0b15923ee5dea062c0cd700d1fe26c381dba79541ed99e272fa0",
        "jobs": "03a20f5345c5d847ea2a83caa054f5d67e31a9823fdae7aa60996c7b450a91d4",
        "arrays": "fb9a2c2769ac5e2199bd50609ba773d3cf4dc1b005cb6730c4f3b6fcbf389f63",
    },
}


@pytest.mark.parametrize("key", sorted(PINS))
def test_log_pinned(key):
    host, on_crash, resume = key
    res = run(host, on_crash, resume)
    assert res.still_queued > 0  # the dump covers rows without an outcome
    assert digests(res) == PINS[key]


def test_rows_write_through():
    res = run("sim", "requeue", True)
    before = res.job_outcomes()
    row = next(j for j in res.jobs if j.outcome == "completed")
    row.kills += 1
    after = res.job_outcomes()
    outcome, node, kills = before[row.job_id]
    assert after[row.job_id] == (outcome, node, kills + 1)
    assert res.jobs[row.job_id].kills == kills + 1
    assert {k: v for k, v in after.items() if k != row.job_id} == {
        k: v for k, v in before.items() if k != row.job_id
    }


def _live_job_records() -> int:
    gc.collect()
    return sum(type(o) is JobRecord for o in gc.get_objects())


# ~20k jobs at lam = 11, ending with 5 still queued on the runtime
FOOTPRINT_T_END = 1805.9
# Basis: a log row is 39 bytes of columns (id 8, arrival 8, demand 8,
# remaining 8, kills 8, outcome 1, node 2) and a completed job adds 24
# bytes (response, slowdown, demand).  array's growth over-allocates
# about 1/16, so ~67 bytes a job; 100 leaves room for allocator slack,
# and one JobRecord plus its boxed floats (~200 bytes) per job fails.
BYTES_PER_JOB = 100


@pytest.mark.parametrize("host", ["sim", "serve"])
def test_footprint_bytes_not_objects(host):
    gc.collect()
    baseline_records = _live_job_records()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = run(host, t_end=FOOTPRINT_T_END)
        gc.collect()  # what the result retains, not uncollected garbage
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert res.offered >= 19_000
    # none of the finished jobs' objects outlive the run
    assert _live_job_records() - baseline_records <= sum(CAPACITIES) + len(CAPACITIES)
    assert grown / res.offered < BYTES_PER_JOB, grown / res.offered


def test_live_jobs_bounded_by_capacity_mid_run():
    """The runtime keeps its core after a run: only the jobs still in
    the system (at most the capacities plus one held per node) are
    objects."""
    baseline_records = _live_job_records()
    rt = DispatchRuntime(
        PoissonLoad(11.0, Exponential(10.0)),
        TagsPolicy(timeouts=(ErlangTimeout(6, 51.0),)),
        CAPACITIES,
        seed=5,
        record_jobs=True,
    )
    res = rt.run(FOOTPRINT_T_END)
    live = _live_job_records() - baseline_records
    assert res.still_queued > 0
    assert live == res.still_queued
    assert live <= sum(CAPACITIES) + len(CAPACITIES)
    del rt
