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

* **phase A** (tagged waiting/serving at node 1): jobs ahead at node 1
  plus the node-1 timer, *and* the full node-2 state -- jobs timing out
  ahead of the tagged job land in front of it in queue 2;
* **phase B** (tagged at node 2): jobs ahead at node 2 only; node-1
  dynamics and arrivals behind no longer matter;
* absorbing states ``done1``, ``done2``, ``dropped``.

By PASTA, the tagged job's initial state is the stationary system state
seen at an (accepted) arrival instant.

Both the exponential (Figure 3) and H2 (Figure 5) chains are supported.
In the H2 *model* a job's service phase is drawn when it reaches a head
position (that is how Figure 5 encodes the hyper-exponential), so tagged
jobs remain exchangeable with untagged ones and outcome probabilities
match the steady-state flow ratios -- asserted in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ctmc import transient_distribution
from repro.ctmc.bfs import bfs_generator
from repro.ctmc.passage import conditional_absorption_times
from repro.models.tags_hyper import TagsHyperExponential
from repro.models.tags_pepa import TagsExponential

__all__ = ["TaggedJobAnalysis", "TaggedJobAnalysisH2"]

_DONE1 = ("done1",)
_DONE2 = ("done2",)
_DROPPED = ("dropped",)
_ABSORBING = {_DONE1: "done1", _DONE2: "done2", _DROPPED: "dropped"}


class _TaggedBase:
    """Shared exploration + analysis machinery.

    Subclasses supply ``_successors(state)`` and ``_initial_weights()``
    (a dict ``state -> probability`` by PASTA, conditioned on acceptance).
    Every start state seeds one exploration, so start states the most
    likely one cannot reach are covered too.
    """

    def _setup(self) -> None:
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


@dataclass
class TaggedJobAnalysis(_TaggedBase):
    """Follow one accepted job through a :class:`TagsExponential` system.

    Phase-A states: ``("n1", k, r1, q2, ph2, r2)`` (``k`` jobs ahead at
    node 1); phase-B states: ``("n2", l, ph2, r2)``.
    """

    model: TagsExponential

    def __post_init__(self) -> None:
        m = self.model
        # the node-2 successors below restart work and freeze the repeat
        # clock during the residual service
        if m.t_of_q1 is not None or m.tick_during_residual or not m.restart_work:
            raise NotImplementedError(
                "tagged analysis is implemented for static timeouts, "
                "restarted work and tick_during_residual=False"
            )
        self._mu2 = m.mu if m.mu2_service is None else m.mu2_service
        self._t2 = m.t if m.t2 is None else m.t2
        self._setup()

    # ------------------------------------------------------------------
    def _node2_transitions(self, q2, ph2, r2):
        """Node-2 head dynamics (used for queue 2 in phase A and for the
        ahead-jobs in phase B)."""
        t2, mu2, top = self._t2, self._mu2, self.model.n - 1
        out = []
        if q2 >= 1:
            if ph2 == 0:
                if r2 >= 1:
                    out.append(("tick2", t2, (q2, 0, r2 - 1)))
                else:
                    out.append(("repeatservice", t2, (q2, 1, top)))
            else:
                out.append(("service2", mu2, (q2 - 1, 0, top)))
        return out

    def _successors(self, s):
        m = self.model
        mu, t, n = m.mu, m.t, m.n
        top = n - 1
        if s in _ABSORBING:
            return []
        if s[0] == "n1":
            _, k, r1, q2, ph2, r2 = s
            out = []
            if k == 0:  # tagged job at the head
                out.append(("service1", mu, _DONE1))
                if r1 >= 1:
                    out.append(("tick1", t, ("n1", 0, r1 - 1, q2, ph2, r2)))
                else:
                    if q2 < m.K2:
                        out.append(("timeout", t, ("n2", q2, ph2, r2)))
                    else:
                        out.append(("timeout", t, _DROPPED))
            else:
                out.append(("service1", mu, ("n1", k - 1, top, q2, ph2, r2)))
                if r1 >= 1:
                    out.append(("tick1", t, ("n1", k, r1 - 1, q2, ph2, r2)))
                else:
                    q2_next = min(q2 + 1, m.K2)  # full queue 2 drops it
                    out.append(
                        ("timeout", t, ("n1", k - 1, top, q2_next, ph2, r2))
                    )
            for action, rate, (q2n, ph2n, r2n) in self._node2_transitions(
                q2, ph2, r2
            ):
                out.append((action, rate, ("n1", k, r1, q2n, ph2n, r2n)))
            return out
        # phase B
        _, l, ph2, r2 = s
        out = []
        if l == 0:  # tagged at node-2 head
            if ph2 == 0:
                if r2 >= 1:
                    out.append(("tick2", self._t2, ("n2", 0, 0, r2 - 1)))
                else:
                    out.append(("repeatservice", self._t2, ("n2", 0, 1, top)))
            else:
                out.append(("service2", self._mu2, _DONE2))
        else:
            for action, rate, (ln, ph2n, r2n) in self._node2_transitions(
                l, ph2, r2
            ):
                out.append((action, rate, ("n2", ln, ph2n, r2n)))
        return out

    def _initial_weights(self) -> dict:
        m = self.model
        weights: dict = {}
        total = 0.0
        for p, s in zip(m.pi, m.states):
            q1, r1, q2, ph2, r2 = s
            if q1 >= m.K1:
                continue
            key = ("n1", q1, r1, q2, ph2, r2)
            weights[key] = weights.get(key, 0.0) + p
            total += p
        if total <= 0:
            raise RuntimeError("no accepting states")
        return {k: v / total for k, v in weights.items()}


@dataclass
class TaggedJobAnalysisH2(_TaggedBase):
    """Tagged-job analysis of the Figure 5 (H2-service) chain.

    In the Markovian model a job's phase is drawn when it reaches a head
    position, so phase-A states carry the *current head's* phase:
    ``("n1", k, hp, r1, q2, ph2, r2)`` with ``hp`` in {0 short, 1 long}
    (the tagged job's own phase once ``k == 0``); node 2 uses
    ``ph2`` in {0 repeat, 1 short residual, 2 long residual}.  Phase-B
    states: ``("n2", l, ph2, r2)``.
    """

    model: TagsHyperExponential

    def __post_init__(self) -> None:
        if self.model.tick_during_residual:
            raise NotImplementedError(
                "tagged analysis is implemented for tick_during_residual=False"
            )
        self._setup()

    # ------------------------------------------------------------------
    def _node2_transitions(self, q2, ph2, r2):
        m = self.model
        t, top = m.t, m.n - 1
        ap = m.resolved_alpha_prime
        out = []
        if q2 >= 1:
            if ph2 == 0:
                if r2 >= 1:
                    out.append(("tick2", t, (q2, 0, r2 - 1)))
                else:
                    out.append(("repeatservice", t * ap, (q2, 1, top)))
                    out.append(("repeatservice", t * (1 - ap), (q2, 2, top)))
            else:
                mu = m.mu1 if ph2 == 1 else m.mu2
                out.append(("service2", mu, (q2 - 1, 0, top)))
        return out

    def _successors(self, s):
        m = self.model
        t, n, a = m.t, m.n, m.alpha
        top = n - 1
        if s in _ABSORBING:
            return []
        if s[0] == "n1":
            _, k, hp, r1, q2, ph2, r2 = s
            mu_head = m.mu1 if hp == 0 else m.mu2
            out = []

            def head_departs(action, rate, q2n, ph2n, r2n):
                """An ahead-job leaves node 1: draw the next head's phase
                (the tagged job's own when k - 1 == 0)."""
                out.append(
                    (action, rate * a, ("n1", k - 1, 0, top, q2n, ph2n, r2n))
                )
                out.append(
                    (
                        action,
                        rate * (1 - a),
                        ("n1", k - 1, 1, top, q2n, ph2n, r2n),
                    )
                )

            if k == 0:  # tagged at the head, phase hp
                out.append(("service1", mu_head, _DONE1))
                if r1 >= 1:
                    out.append(("tick1", t, ("n1", 0, hp, r1 - 1, q2, ph2, r2)))
                else:
                    if q2 < m.K2:
                        out.append(("timeout", t, ("n2", q2, ph2, r2)))
                    else:
                        out.append(("timeout", t, _DROPPED))
            else:
                head_departs("service1", mu_head, q2, ph2, r2)
                if r1 >= 1:
                    out.append(("tick1", t, ("n1", k, hp, r1 - 1, q2, ph2, r2)))
                else:
                    q2_next = min(q2 + 1, m.K2)
                    head_departs("timeout", t, q2_next, ph2, r2)
            for action, rate, (q2n, ph2n, r2n) in self._node2_transitions(
                q2, ph2, r2
            ):
                out.append((action, rate, ("n1", k, hp, r1, q2n, ph2n, r2n)))
            return out
        # phase B
        _, l, ph2, r2 = s
        out = []
        if l == 0:
            if ph2 == 0:
                ap = m.resolved_alpha_prime
                if r2 >= 1:
                    out.append(("tick2", t, ("n2", 0, 0, r2 - 1)))
                else:
                    out.append(("repeatservice", t * ap, ("n2", 0, 1, top)))
                    out.append(
                        ("repeatservice", t * (1 - ap), ("n2", 0, 2, top))
                    )
            else:
                mu = m.mu1 if ph2 == 1 else m.mu2
                out.append(("service2", mu, _DONE2))
        else:
            for action, rate, (ln, ph2n, r2n) in self._node2_transitions(
                l, ph2, r2
            ):
                out.append((action, rate, ("n2", ln, ph2n, r2n)))
        return out

    def _initial_weights(self) -> dict:
        m = self.model
        a = m.alpha
        weights: dict = {}
        total = 0.0
        for p, s in zip(m.pi, m.states):
            q1, ph1, r1, q2, ph2, r2 = s
            if q1 >= m.K1:
                continue
            total += p
            if q1 == 0:
                # the tagged job starts service immediately; draw its phase
                for phase, w in ((0, a), (1, 1 - a)):
                    key = ("n1", 0, phase, m.n - 1, q2, ph2, r2)
                    weights[key] = weights.get(key, 0.0) + p * w
            else:
                key = ("n1", q1, ph1, r1, q2, ph2, r2)
                weights[key] = weights.get(key, 0.0) + p
        if total <= 0:
            raise RuntimeError("no accepting states")
        return {k: v / total for k, v in weights.items()}
