"""Failure-impact reporting: availability, MTTR, lost jobs, wasted work.

:class:`FaultReport` folds one run's failure bookkeeping -- the
injector's downtime log plus the host's loss counters -- into the
numbers an operator reasons about, and
:func:`degradation_table` sweeps a crash rate over the online runtime to
produce the degradation-vs-failure-rate table behind
``python -m repro.experiments faults`` and the CI chaos artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan

__all__ = ["FaultReport", "degradation_table"]


@dataclass(frozen=True)
class FaultReport:
    """One run's failure impact."""

    t_end: float
    availability: tuple  # per node, fraction of [t0, t_end] up
    mttr: "float | None"  # mean completed-downtime duration
    crashes: int
    recoveries: int
    lost_to_failure: int
    work_wasted: float

    @classmethod
    def collect(cls, result, injector: FaultInjector, t_end: float) -> "FaultReport":
        """Build from a finished run's result + the injector that drove it.

        ``result`` is a :class:`~repro.sim.runner.SimulationResult` from
        either host; it carries ``lost_to_failure`` / ``work_wasted``.
        """
        return cls(
            t_end=float(t_end),
            availability=tuple(
                injector.availability(i, t_end) for i in range(injector.n_nodes)
            ),
            mttr=injector.mttr(),
            crashes=injector.crashes,
            recoveries=injector.recoveries,
            lost_to_failure=int(result.lost_to_failure),
            work_wasted=float(result.work_wasted),
        )

    def format(self) -> str:
        avail = "  ".join(f"node{i + 1} {a:.4f}" for i, a in enumerate(self.availability))
        mttr = "-" if self.mttr is None else f"{self.mttr:.2f}"
        return (
            f"availability: {avail}\n"
            f"crashes {self.crashes}  recoveries {self.recoveries}  "
            f"MTTR {mttr}\n"
            f"jobs lost to failure {self.lost_to_failure}  "
            f"work wasted {self.work_wasted:.2f}"
        )


def degradation_table(
    crash_rates,
    *,
    lam: float = 5.0,
    mu: float = 10.0,
    n: int = 6,
    t: float = 51.0,
    capacities=(10, 10),
    repair_rate: float = 0.05,
    horizon: float = 3000.0,
    warmup: float = 0.0,
    degraded: str = "single_node",
    on_crash: str = "requeue",
    seed: int = 1,
    supervised: bool = False,
):
    """Run online TAGS under increasing node-2 crash rates.

    Returns ``(headers, rows)`` ready for
    :func:`repro.experiments.report.render_table`: one row per crash
    rate with availability, MTTR, throughput, loss probability, jobs
    lost to failure and work wasted -- the degradation curve of the
    runtime's resilience machinery.
    """
    from repro.dists import Exponential
    from repro.serve import DispatchRuntime, PoissonLoad, Supervisor
    from repro.sim import ErlangTimeout, TagsPolicy

    headers = [
        "crash_rate",
        "avail_node2",
        "mttr",
        "throughput",
        "loss_prob",
        "lost_to_failure",
        "work_wasted",
    ]
    rows = []
    for rate in crash_rates:
        plan = FaultPlan.generate(
            horizon=horizon,
            crash_rate=float(rate),
            repair_rate=repair_rate,
            nodes=(len(capacities) - 1,),
            seed=seed,
        )
        inj = FaultInjector(plan, on_crash=on_crash, degraded=degraded)
        rt = DispatchRuntime(
            PoissonLoad(lam, Exponential(mu)),
            TagsPolicy(timeouts=tuple(ErlangTimeout(n, t) for _ in capacities[:-1])),
            capacities,
            seed=seed,
            faults=inj,
            supervisor=Supervisor(check_interval=2.0, seed=seed) if supervised else None,
        )
        res = rt.run(horizon, warmup=warmup)
        rep = FaultReport.collect(res, inj, horizon)
        rows.append(
            [
                float(rate),
                rep.availability[-1],
                float("nan") if rep.mttr is None else rep.mttr,
                res.throughput,
                res.loss_probability,
                float(rep.lost_to_failure),
                rep.work_wasted,
            ]
        )
    return headers, rows
