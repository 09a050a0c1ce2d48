"""`repro.serve` -- an online TAGS dispatcher runtime.

Everything below :mod:`repro.sim` *solves* or *simulates* the paper's
models offline; this package **runs** them: an asyncio runtime that
dispatches live jobs with the same policy objects
(:class:`~repro.sim.policies.TagsPolicy` and friends), enforces the
paper's admission control on bounded queues (drop-on-full at the routed
node, drop-after-timeout on a full forward node), and closes the
Section 4 loop online -- a controller estimates the arrival rate and
service mix from what a size-blind dispatcher can actually observe and
re-optimises the kill-timeout with hysteresis while traffic flows.

Pieces
------
* :mod:`~repro.serve.clock` -- :class:`VirtualClock` (deterministic
  simulated time; the equivalence tests pin runtime outcomes exactly to
  ``sim.runner``) and :class:`WallClock` (real time, optionally scaled).
* :mod:`~repro.serve.loadgen` -- open-loop Poisson, MMPP/bursty and
  trace-replay sources, plus trace adapters for the offline simulator.
* :mod:`~repro.serve.dispatcher` -- the runtime: drives the TAGS core
  (:mod:`repro.sim.cluster`, shared with the simulator) from clock
  timers; live timeout swapping, retries/breaker, obs instrumentation.
* :mod:`~repro.serve.controller` -- sliding-window estimation
  (``dists.fit`` with soft failure), ``approx.optimise_timeout``
  re-tuning, deadband hysteresis, full decision history.
* :mod:`~repro.serve.validate` -- live metrics vs. the CTMC
  steady-state prediction, with CI-aware acceptance.
* :mod:`~repro.serve.supervisor` -- supervised failover under fault
  injection (:mod:`repro.faults`): health checks, restart with jittered
  exponential backoff, full probe history.

Quick start::

    from repro.dists import Exponential
    from repro.serve import DispatchRuntime, PoissonLoad, TimeoutController
    from repro.sim import ErlangTimeout, TagsPolicy

    policy = TagsPolicy(timeouts=(ErlangTimeout(6, 20.0),))
    runtime = DispatchRuntime(
        PoissonLoad(5.0, Exponential(10.0)), policy, (10, 10),
        controller=TimeoutController(interval=100.0, window=500.0),
    )
    result = runtime.run(t_end=4000.0, warmup=500.0)   # virtual clock

See ``docs/serving.md`` for the runtime model and how live metrics map
onto the paper's figures.
"""

from repro.serve.clock import Clock, VirtualClock, WallClock
from repro.serve.controller import (
    ControlDecision,
    TimeoutController,
    fit_demands_soft,
)
from repro.serve.dispatcher import DispatchRuntime, JobRecord
from repro.serve.loadgen import (
    MMPPLoad,
    PoissonLoad,
    Trace,
    TraceArrivals,
    TraceDemands,
    TraceLoad,
)
from repro.serve.supervisor import RestartAttempt, Supervisor
from repro.serve.validate import (
    MetricCheck,
    ValidationReport,
    validate_against_model,
)

__all__ = [
    "Clock",
    "VirtualClock",
    "WallClock",
    "ControlDecision",
    "TimeoutController",
    "fit_demands_soft",
    "DispatchRuntime",
    "JobRecord",
    "MMPPLoad",
    "PoissonLoad",
    "Trace",
    "TraceArrivals",
    "TraceDemands",
    "TraceLoad",
    "RestartAttempt",
    "Supervisor",
    "MetricCheck",
    "ValidationReport",
    "validate_against_model",
]
