"""repro -- reproduction of "Modelling job allocation where service
duration is unknown" (N. Thomas, IPPS 2006).

Subpackages
-----------
``repro.core``
    Facade over the paper's primary contribution: the TAGS models and the
    figure-regeneration entry points.
``repro.pepa``
    The PEPA Markovian process algebra (syntax, parser, semantics, state
    space, CTMC mapping, fluid approximation).
``repro.ctmc``
    CTMC numerics: generators, steady-state and transient solvers,
    rewards, structural analysis.
``repro.dists``
    Phase-type distributions, residual-life computations, EM fitting,
    bounded Pareto.
``repro.models``
    The paper's queueing systems (TAGS exp/H2, random, shortest queue,
    M/M/1/K, M/PH/1/K); the TAGS chains are PEPA models solved on the
    compiled engine.
``repro.approx``
    Section 4's timeout approximations and the optimiser.
``repro.sim``
    Discrete-event simulation with true kill-and-restart semantics.
``repro.batch``
    The Section 1 deterministic worked-example calculator.
``repro.experiments``
    One function per paper figure, plus report rendering.
``repro.sweep``
    Parallel, cached parameter-sweep engine (what the
    figure regenerations and optimisers solve through).
``repro.serve``
    Online dispatcher runtime: the simulator's policies as live asyncio
    services with a closed-loop timeout controller.
``repro.faults``
    Fault injection and failure reporting: deterministic crash/repair
    plans replayed identically by ``sim`` and ``serve``, crash
    semantics, circuit breaker, degradation tables.
``repro.obs``
    Zero-overhead observability: spans, counters/gauges and iteration
    traces recorded through the solvers, state-space builders, the
    simulator, the sweep engine and the CLI (``REPRO_OBS`` to enable).
"""

__version__ = "1.1.0"

__all__ = [
    "pepa",
    "ctmc",
    "dists",
    "models",
    "approx",
    "sim",
    "batch",
    "experiments",
    "sweep",
    "serve",
    "faults",
    "obs",
    "core",
]
