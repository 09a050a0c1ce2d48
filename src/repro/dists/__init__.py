"""Phase-type distributions and related service-demand models.

The paper's service-demand models are all phase-type: exponential (Figure 3),
Erlang (the timeout clock), and two-phase hyper-exponential H2 (Figure 5,
Section 3.2).  This subpackage provides:

* :class:`~repro.dists.phase_type.PhaseType` -- general PH(alpha, T)
  representation with pdf/cdf/moments/Laplace transform/sampling;
  every demand source here has ``sample(size, rng)`` and its scalar form
  ``draw(rng)`` (``== sample(1, rng)[0]``), which the simulators call once
  per arrival;
* concrete families (:class:`Exponential`, :class:`Erlang`,
  :class:`HyperExponential`, :class:`Coxian`) in
  :mod:`~repro.dists.families`;
* residual-life computations in :mod:`~repro.dists.residual`, in particular
  the mixing probability ``alpha'`` of the H2 residual after losing a race
  against an Erlang timeout (Section 3.2 of the paper);
* EM fitting of hyper-exponential and Erlang-mixture models
  (:mod:`~repro.dists.fit`, replacing the EMpht tool cited as [1]);
* the bounded Pareto distribution of Harchol-Balter's empirical workloads
  (:mod:`~repro.dists.bounded_pareto`) for simulation experiments.
"""

from repro.dists.phase_type import PhaseType
from repro.dists.families import (
    Exponential,
    Erlang,
    HyperExponential,
    Coxian,
    h2_balanced_means,
    h2_from_mean_scv,
)
from repro.dists.residual import (
    erlang_vs_exp_timeout_probability,
    h2_residual_mixing,
    h2_conditional_timeout_probability,
)
from repro.dists.fit import fit_hyperexponential, fit_erlang_mixture, FitResult
from repro.dists.bounded_pareto import BoundedPareto
from repro.dists.empirical import EmpiricalDistribution

__all__ = [
    "PhaseType",
    "Exponential",
    "Erlang",
    "HyperExponential",
    "Coxian",
    "h2_balanced_means",
    "h2_from_mean_scv",
    "erlang_vs_exp_timeout_probability",
    "h2_residual_mixing",
    "h2_conditional_timeout_probability",
    "fit_hyperexponential",
    "fit_erlang_mixture",
    "FitResult",
    "BoundedPareto",
    "EmpiricalDistribution",
]
