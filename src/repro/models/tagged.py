"""Tagged-job analysis: response-time *distributions* from the CTMC.

The paper reports mean response times via Little's law.  Tagging a single
arriving job and following it through the system turns its sojourn into
the absorption time of an auxiliary Markov chain, giving the full
response-time distribution, per-outcome conditional means (completed at
node 1 / restarted and completed at node 2 / dropped at node 2), and an
exact decomposition that cross-validates Little's law:

    L  =  lam_accepted * sum_outcomes P[outcome] * E[T | outcome]

Tagged chain for the two-node system (FCFS means only the jobs *ahead*
of the tagged one matter):

* **phase A** (tagged waiting/serving at node 1): jobs ahead at node 1,
  the current head's service phase and the node-1 timer, *and* the full
  node-2 state -- jobs timing out ahead of the tagged job land in front
  of it in queue 2;
* **phase B** (tagged at node 2): jobs ahead at node 2 only; node-1
  dynamics and arrivals behind no longer matter;
* absorbing states ``done1``, ``done2``, ``dropped``.

By PASTA, the tagged job's initial state is the stationary system state
seen at an (accepted) arrival instant.

One chain serves the exponential (Figure 3) and H2 (Figure 5) models: it
reads the service phases the model's builder uses
(``service_phases()``; exponential service is the one-phase case).  A
job's phase is drawn when its service starts at node 1 (that is how
Figure 5 encodes the hyper-exponential), so tagged jobs remain
exchangeable with untagged ones and outcome probabilities match the
steady-state flow ratios -- asserted in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ctmc import transient_distribution
from repro.ctmc.bfs import bfs_generator
from repro.ctmc.passage import conditional_absorption_times
from repro.models.tags_pepa import CompiledTags, TagsParameters

__all__ = ["TaggedJobAnalysis"]

_DONE1 = ("done1",)
_DONE2 = ("done2",)
_DROPPED = ("dropped",)
_ABSORBING = {_DONE1: "done1", _DONE2: "done2", _DROPPED: "dropped"}


@dataclass
class TaggedJobAnalysis:
    """Follow one accepted job through a :class:`~repro.models.
    TagsExponential` or :class:`~repro.models.TagsHyperExponential`
    system.

    Phase-A states: ``("n1", k, hp, r1, q2, ph2, r2)`` with ``k`` jobs
    ahead at node 1 and ``hp`` the current head's service phase (the
    tagged job's own once ``k == 0``); phase-B states: ``("n2", l, ph2,
    r2)``.  ``ph2`` is 0 while node 2's head repeats its node-1 time and
    ``1 + j`` in residual phase ``j``.  Every start state (by PASTA,
    conditioned on acceptance) seeds one exploration, so start states
    the most likely one cannot reach are covered too.
    """

    model: CompiledTags

    def __post_init__(self) -> None:
        if not hasattr(self.model, "service_phases"):
            raise NotImplementedError(
                "tagged analysis is implemented for the two-node Poisson "
                f"chains, not {type(self.model).__name__}"
            )
        p = self.model.params(TagsParameters)
        # the node-2 successors below restart work and freeze the repeat
        # clock during the residual service
        if p.t_of_q1 is not None or p.tick_during_residual or not p.restart_work:
            raise NotImplementedError(
                "tagged analysis is implemented for static timeouts, "
                "restarted work and tick_during_residual=False"
            )
        self._draws, self._rates, self._mixing = self.model.service_phases()
        self._rates2 = self._rates if p.mu2_service is None else (p.mu2_service,)
        self._t, self._t2 = p.t, p.t if p.t2 is None else p.t2
        self._top, self._K1, self._K2 = p.n - 1, p.K1, p.K2

        self._initial = self._initial_weights()
        seeds = sorted(self._initial, key=self._initial.get, reverse=True)
        gen, states, index = bfs_generator(
            seeds[0], self._successors, seeds=seeds[1:]
        )
        self.generator = gen
        self.states = states
        self.index = index
        self.p0 = np.zeros(gen.n_states)
        for s, w in self._initial.items():
            self.p0[index[s]] = w
        self._absorb_ids = {
            name: index[st] for st, name in _ABSORBING.items() if st in index
        }
        self._B = None

    # ------------------------------------------------------------------
    def _conditional(self):
        if self._B is None:
            names = [k for k in ("done1", "done2", "dropped")
                     if k in self._absorb_ids]
            classes = [[self._absorb_ids[k]] for k in names]
            B, M = conditional_absorption_times(self.generator, classes)
            self._B, self._M, self._names = B, M, names
        return self._B, self._M, self._names

    def outcome_probabilities(self) -> dict:
        """P[tagged job completes at node 1 / node 2 / is dropped]."""
        B, _, names = self._conditional()
        probs = self.p0 @ B
        return dict(zip(names, (float(p) for p in probs)))

    def mean_response_by_outcome(self) -> dict:
        """E[sojourn | outcome] for each reachable outcome."""
        B, M, names = self._conditional()
        out = {}
        for c, name in enumerate(names):
            pc = float(self.p0 @ B[:, c])
            out[name] = (
                float(self.p0 @ (B[:, c] * np.nan_to_num(M[:, c]))) / pc
                if pc > 0
                else float("nan")
            )
        return out

    def mean_response_completed(self) -> float:
        """E[sojourn | job eventually completes] (either node)."""
        probs = self.outcome_probabilities()
        means = self.mean_response_by_outcome()
        pc = probs.get("done1", 0.0) + probs.get("done2", 0.0)
        acc = sum(
            probs[k] * means[k]
            for k in ("done1", "done2")
            if probs.get(k, 0.0) > 0
        )
        return acc / pc

    def response_cdf(self, xs) -> np.ndarray:
        """P[T <= x | job completes] for each x."""
        ids = [v for k, v in self._absorb_ids.items() if k != "dropped"]
        probs = self.outcome_probabilities()
        pc = probs.get("done1", 0.0) + probs.get("done2", 0.0)
        out = np.empty(len(xs))
        for i, x in enumerate(np.asarray(xs, dtype=float)):
            pt = transient_distribution(self.generator, self.p0, float(x))
            out[i] = float(pt[ids].sum()) / pc
        return out

    # ------------------------------------------------------------------
    def _node2_transitions(self, q2, ph2, r2):
        """Node-2 head dynamics (used for queue 2 in phase A and, with the
        tagged job counted, for the queue in phase B)."""
        t2, top = self._t2, self._top
        out = []
        if q2 >= 1:
            if ph2 == 0 and r2 >= 1:
                out.append(("tick2", t2, (q2, 0, r2 - 1)))
            elif ph2 == 0:  # the residual's phase is mixed
                for j, w in enumerate(self._mixing):
                    out.append(("repeatservice", t2 * w, (q2, 1 + j, top)))
            else:
                out.append(("service2", self._rates2[ph2 - 1], (q2 - 1, 0, top)))
        return out

    def _successors(self, s):
        t, top = self._t, self._top
        if s in _ABSORBING:
            return []
        if s[0] == "n2":  # phase B: the queue holds the tagged job too
            _, l, ph2, r2 = s
            return [
                (action, rate, ("n2", q2 - 1, ph2n, r2n) if q2 else _DONE2)
                for action, rate, (q2, ph2n, r2n) in self._node2_transitions(
                    l + 1, ph2, r2
                )
            ]
        _, k, hp, r1, q2, ph2, r2 = s
        mu = self._rates[hp]
        out = []

        def head_departs(action, rate, q2n):
            """An ahead-job leaves node 1: the next head (the tagged job
            once k - 1 == 0) draws its phase."""
            for phase, w in self._draws:
                out.append(
                    (action, rate * w, ("n1", k - 1, phase, top, q2n, ph2, r2))
                )

        if k == 0:  # tagged job at the head
            out.append(("service1", mu, _DONE1))
            if r1 >= 1:
                out.append(("tick1", t, ("n1", 0, hp, r1 - 1, q2, ph2, r2)))
            elif q2 < self._K2:
                out.append(("timeout", t, ("n2", q2, ph2, r2)))
            else:
                out.append(("timeout", t, _DROPPED))
        else:
            head_departs("service1", mu, q2)
            if r1 >= 1:
                out.append(("tick1", t, ("n1", k, hp, r1 - 1, q2, ph2, r2)))
            else:  # a full queue 2 drops the timed-out job
                head_departs("timeout", t, min(q2 + 1, self._K2))
        for action, rate, (q2n, ph2n, r2n) in self._node2_transitions(
            q2, ph2, r2
        ):
            out.append((action, rate, ("n1", k, hp, r1, q2n, ph2n, r2n)))
        return out

    def _initial_weights(self) -> dict:
        m = self.model
        weights: dict = {}
        total = 0.0
        for p, s in zip(m.pi, m.states):
            if len(s) == 5:  # one phase: Figure 3 has no head-phase column
                s = s[:1] + (0,) + s[1:]
            q1, ph1, r1, q2, ph2, r2 = s
            if q1 >= self._K1:
                continue
            total += p
            if q1 == 0:
                # the tagged job starts service at once and draws its phase
                for phase, w in self._draws:
                    key = ("n1", 0, phase, self._top, q2, ph2, r2)
                    weights[key] = weights.get(key, 0.0) + p * w
            else:
                key = ("n1", q1, ph1, r1, q2, ph2, r2)
                weights[key] = weights.get(key, 0.0) + p
        if total <= 0:
            raise RuntimeError("no accepting states")
        return {k: v / total for k, v in weights.items()}
