"""Continuous-time Markov chain numerics.

This subpackage is the numerical substrate of the reproduction: sparse
generator matrices, steady-state solvers, transient solution by
uniformization, reward structures and structural (graph) analysis.

The public entry points are:

* :class:`~repro.ctmc.generator.Generator` -- a validated sparse CTMC
  generator matrix with labelled transition support;
  :class:`~repro.ctmc.generator.GeneratorPattern` and
  :func:`~repro.ctmc.generator.assemble_generator` -- the one assembler
  from transitions (CSR pattern built once, filled per rate vector).
* :func:`~repro.ctmc.steady.steady_state` -- steady-state distribution with
  a choice of solvers (GTH, direct sparse LU, power iteration).
* :func:`~repro.ctmc.transient.transient_distribution` -- uniformization.
* :mod:`~repro.ctmc.rewards` -- expected rewards, action throughputs and
  Little's-law utilities.
* :mod:`~repro.ctmc.structure` -- reachability / irreducibility checks.
* :class:`~repro.ctmc.bfs.Chain` -- the solve protocol of the stationary
  model classes.
"""

from repro.ctmc.generator import Generator, GeneratorPattern, assemble_generator
from repro.ctmc.steady import (
    SteadyStateError,
    steady_state,
    steady_state_gth,
    steady_state_direct,
    steady_state_power,
)
from repro.ctmc.transient import transient_distribution, uniformized_dtmc
from repro.ctmc.rewards import (
    expected_reward,
    action_throughput,
    littles_law_response_time,
)
from repro.ctmc.structure import (
    strongly_connected_components,
    is_irreducible,
    reachable_from,
    absorbing_states,
)
from repro.ctmc.passage import (
    mean_first_passage_times,
    absorption_probabilities,
    absorbing_on_action,
)
from repro.ctmc.accumulate import expected_accumulated_reward
from repro.ctmc.bfs import (
    Chain,
    TupleChain,
    bfs_generator,
)

__all__ = [
    "Generator",
    "GeneratorPattern",
    "SteadyStateError",
    "steady_state",
    "steady_state_gth",
    "steady_state_direct",
    "steady_state_power",
    "transient_distribution",
    "uniformized_dtmc",
    "expected_reward",
    "action_throughput",
    "littles_law_response_time",
    "strongly_connected_components",
    "is_irreducible",
    "reachable_from",
    "absorbing_states",
    "mean_first_passage_times",
    "absorption_probabilities",
    "absorbing_on_action",
    "expected_accumulated_reward",
    "Chain",
    "TupleChain",
    "bfs_generator",
    "assemble_generator",
]
