"""PEPA -- Performance Evaluation Process Algebra (Hillston 1996).

A from-scratch implementation of the Markovian process algebra used by the
paper, covering everything its models need:

* the component syntax ``(alpha, r).P``, ``P + Q``, ``P/L``,
  ``P <L> Q`` and named constants (:mod:`~repro.pepa.syntax`);
* active and weighted-passive rates with PEPA's apparent-rate cooperation
  semantics (:mod:`~repro.pepa.rates`, :mod:`~repro.pepa.semantics`);
* a textual parser for PEPA-Workbench-style source
  (:mod:`~repro.pepa.parser`);
* reachable-state-space derivation and CTMC generation
  (:mod:`~repro.pepa.statespace`, :mod:`~repro.pepa.ctmc_map`), with a
  compile-once / evaluate-many vectorized engine for the common
  fragment (:mod:`~repro.pepa.compiled`);
* static well-formedness checks (:mod:`~repro.pepa.wellformed`);
* the fluid-flow ODE approximation of Hillston (QEST 2005) used for the
  paper's Figure 4 "alternative model" (:mod:`~repro.pepa.fluid`).

Quick example::

    from repro.pepa import parse_model, explore, to_generator
    model = parse_model('''
        lam = 1.0; mu = 2.0;
        Idle = (arrive, lam).Busy;
        Busy = (serve, mu).Idle;
        System = Idle;
    ''')
    space = explore(model)
    gen = to_generator(space)
"""

from repro.pepa.rates import Rate, ACTIVE, PASSIVE, top
from repro.pepa.syntax import (
    Activity,
    Prefix,
    Choice,
    Cooperation,
    Hiding,
    Constant,
    Model,
    TAU,
    prefix_chain,
)
from repro.pepa.semantics import transitions, apparent_rate
from repro.pepa.statespace import PassiveRateError, StateSpace
from repro.pepa.statespace import explore, explore_interpreter
from repro.pepa.ctmc_map import to_generator
from repro.pepa.parser import parse_model, parse_component, PepaSyntaxError
from repro.pepa.wellformed import check_model, WellFormednessError, alphabet
from repro.pepa.fluid import FluidModel, FluidGroup
from repro.pepa.pretty import pretty_component, pretty_model
from repro.pepa.counted import CountedModel
from repro.pepa.compiled import (
    CompileError,
    CompiledModel,
    CompiledSpace,
    compile_model,
)
from repro.pepa.dot import to_dot

__all__ = [
    "Rate",
    "ACTIVE",
    "PASSIVE",
    "top",
    "Activity",
    "Prefix",
    "Choice",
    "Cooperation",
    "Hiding",
    "Constant",
    "Model",
    "TAU",
    "prefix_chain",
    "transitions",
    "apparent_rate",
    "StateSpace",
    "explore",
    "explore_interpreter",
    "PassiveRateError",
    "to_generator",
    "parse_model",
    "parse_component",
    "PepaSyntaxError",
    "check_model",
    "WellFormednessError",
    "alphabet",
    "FluidModel",
    "FluidGroup",
    "pretty_component",
    "pretty_model",
    "CountedModel",
    "CompileError",
    "CompiledModel",
    "CompiledSpace",
    "compile_model",
    "to_dot",
]
