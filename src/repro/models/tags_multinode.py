"""N-node TAGS with exponential service (paper Section 3: "a simple
matter to add more nodes").

A TAGS chain with no PEPA form (the other is
:class:`~repro.models.bursty.TagsMMPP`): it is built directly over tuple
states as a :class:`~repro.ctmc.bfs.TupleChain`, once per instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ctmc.bfs import TupleChain
from repro.models.metrics import (
    QueueMetrics,
    check_rates,
    from_population_and_throughput,
)

__all__ = ["TagsMultiNode"]


@dataclass
class TagsMultiNode(TupleChain):
    """N-node TAGS chain with exponential service (paper Section 3: "a
    simple matter to add more nodes").

    Node 1 receives the Poisson stream; every node ``i < N`` races its
    Erlang(n+1, t_i) timeout against the head job's processing; node ``N``
    serves to exhaustion.  A job arriving at node ``i >= 2`` first performs
    ``repeat_cycles(i)`` full repeat cycles (defaults to ``i - 1``:
    kill-and-restart repeats *all* earlier timeout periods) and then its
    exponential residual.

    State: per node ``(q_i, r_i, c_i)`` with ``r_i`` ticks remaining and
    ``c_i`` the head's remaining repeat cycles (``0`` = in residual
    service).  The last node has no timer (``r_N`` fixed at 0).
    """

    lam: float = 5.0
    mu: float = 10.0
    timeouts: tuple = (51.0,)
    n: int = 2
    capacities: tuple = (5, 5)
    repeat_cycles: "callable | None" = None

    def __post_init__(self) -> None:
        self.N = len(self.capacities)
        if self.N < 2:
            raise ValueError("need at least two nodes")
        if len(self.timeouts) != self.N - 1:
            raise ValueError("need one timeout rate per non-final node")
        check_rates(lam=self.lam, mu=self.mu)
        check_rates(**{f"t{i + 1}": t for i, t in enumerate(self.timeouts)})
        if self.repeat_cycles is None:
            self.repeat_cycles = lambda i: i - 1  # node index is 1-based

    # ------------------------------------------------------------------
    def _initial(self):
        parts = []
        for i in range(self.N):
            has_timer = i < self.N - 1
            parts.append((0, self.n - 1 if has_timer else 0, 0))
        return tuple(parts)

    def _successors(self, s):
        lam, mu, n = self.lam, self.mu, self.n
        out = []
        state = list(s)

        def with_node(i, node):
            new = state.copy()
            new[i] = node
            return tuple(new)

        def push(i, updates: dict):
            """Apply updates to several nodes at once."""
            new = state.copy()
            for j, node in updates.items():
                new[j] = node
            return tuple(new)

        # arrivals at node 1
        q1, r1, c1 = s[0]
        if q1 < self.capacities[0]:
            out.append(("arrival", lam, with_node(0, (q1 + 1, r1, c1))))
        else:
            out.append(("arrloss", lam, s))

        for i in range(self.N):
            q, r, c = s[i]
            if q == 0:
                continue
            has_timer = i < self.N - 1
            t = self.timeouts[i] if has_timer else None

            def next_head(i=i):
                """Node i after the head departs: reset timer and set the
                repeat count for the next head."""
                cycles = self.repeat_cycles(i + 1) if i >= 1 else 0
                remaining = s[i][0] - 1
                cycles = cycles if remaining >= 1 else 0
                if i < self.N - 1:
                    r_new = self.n - 1
                else:  # last node: r is the repeat countdown
                    r_new = self.n - 1 if cycles >= 1 else 0
                return (remaining, r_new, cycles)

            # processing: repeat cycles then residual
            if c >= 1:
                # repeat cycle driven by a dedicated Erlang(n+1, t_rep);
                # reuse the node's own timer rate (last node uses the
                # previous node's rate, the period it must repeat)
                t_rep = self.timeouts[min(i, self.N - 2)]
                # the repeat cycle shares the countdown r of the node timer
                # only on nodes with a timer; the final node tracks the
                # repeat countdown in r directly.
                if has_timer:
                    # race: timeout (node timer) vs nothing else during
                    # repeat -- both countdowns run on the same Erlang clock
                    # approximation: one clock, timeout wins if it fires
                    # before the repeats finish.  We model the repeat with
                    # its own countdown in c as whole cycles of the shared
                    # clock: each time the clock completes, one repeat cycle
                    # finishes instead of a timeout.
                    if r >= 1:
                        out.append(("tick", t, with_node(i, (q, r - 1, c))))
                    else:
                        out.append(
                            ("repeatservice", t, with_node(i, (q, n - 1, c - 1)))
                        )
                else:
                    if r >= 1:
                        out.append(("tick", t_rep, with_node(i, (q, r - 1, c))))
                    else:
                        out.append(
                            (
                                "repeatservice",
                                t_rep,
                                with_node(i, (q, n - 1 if c > 1 else 0, c - 1)),
                            )
                        )
            else:
                # residual service races the timeout (if any)
                action = "service1" if i == 0 else "service2"
                out.append((action, mu, with_node(i, next_head())))
                if has_timer:
                    if r >= 1:
                        out.append(("tick", t, with_node(i, (q, r - 1, c))))
                    else:
                        # timeout: head moves to node i+1 (or is dropped)
                        qn, rn, cn = s[i + 1]
                        if qn < self.capacities[i + 1]:
                            if qn == 0:
                                cyc = self.repeat_cycles(i + 2)
                                if i + 1 < self.N - 1:
                                    rn2 = self.n - 1
                                else:
                                    rn2 = self.n - 1 if cyc >= 1 else 0
                                node_next = (1, rn2, cyc)
                            else:
                                node_next = (qn + 1, rn, cn)
                            out.append(
                                (
                                    "timeout",
                                    t,
                                    push(i, {i: next_head(), i + 1: node_next}),
                                )
                            )
                        else:
                            out.append(("timeout", t, with_node(i, next_head())))
        return out

    def metrics(self) -> QueueMetrics:
        return from_population_and_throughput(
            mean_jobs_per_node=tuple(
                self.mean(lambda s, i=i: s[i][0]) for i in range(self.N)
            ),
            throughput=self.throughput("service1") + self.throughput("service2"),
            offered_load=self.lam,
            extra={
                "n_states": self.n_states,
                "arrival_loss": self.throughput("arrloss"),
            },
        )
