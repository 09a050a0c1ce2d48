"""Experiment X8: time to the first lost job.

Steady-state loss rates (Figures 9-12) hide *when* a system first
misbehaves.  Using the first-passage machinery we compute the expected
time from an empty system until the first dropped job, for each strategy,
exponential demand -- the paper's Section 5 explanation of *why* TAGS
loses jobs differently from JSQ ("shortest queue will lose jobs when both
queues are full ... TAG will lose jobs when either of the queues are
full") made quantitative.
"""

import numpy as np

from repro.ctmc import absorbing_on_action, mean_first_passage_times
from repro.experiments import render_table
from repro.models import RandomAllocation, ShortestQueue, TagsExponential
from repro.models.mm1k import MM1K
from repro.ctmc.bfs import bfs_generator


def _first_loss_time(generator, actions, initial=0) -> float:
    """Expected time from ``initial`` until any action in ``actions``
    fires."""
    g = generator
    sinks = []
    for a in actions:
        g, sink = absorbing_on_action(g, a)
        sinks.append(sink)
    m = mean_first_passage_times(g, sinks)
    return float(m[initial])


def test_time_to_first_loss(once):
    lam, mu, K = 9.0, 10.0, 10

    def compute():
        rows = []
        tags = TagsExponential(lam=lam, mu=mu, t=45.0, n=6, K1=K, K2=K)
        # TAGS drops at node 1 (arrloss) or at node 2 (timeout into a full
        # queue -- those timeout transitions that do not move a job).  The
        # node-2 drop is a self-loop in the chain, i.e. a timeout whose
        # target state equals its source; redirect arrloss only and treat
        # node-2 drops via the labelled self-loops of 'timeout' at full q2.
        t_loss1 = _first_loss_time(tags.generator, ["arrloss"])
        rows.append(["TAGS (node-1 drop)", t_loss1])

        jsq = ShortestQueue(lam=lam, service=mu, K=K)
        rows.append(["shortest queue", _first_loss_time(jsq.generator, ["arrloss"])])

        # random: each node is an independent M/M/1/K; first loss overall
        # is the minimum of two iid first-loss times -- compute on one
        # node's chain and halve is wrong (not exponential), so build the
        # two-node chain directly
        def rnd_succ(s):
            n1, n2 = s
            out = []
            for which, n in ((0, n1), (1, n2)):
                if n < K:
                    nxt = (n1 + 1, n2) if which == 0 else (n1, n2 + 1)
                    out.append(("arrival", lam / 2, nxt))
                else:
                    out.append(("arrloss", lam / 2, s))
                if n >= 1:
                    nxt = (n1 - 1, n2) if which == 0 else (n1, n2 - 1)
                    out.append(("service", mu, nxt))
            return out

        gen, _, _ = bfs_generator((0, 0), rnd_succ)
        rows.append(["random", _first_loss_time(gen, ["arrloss"])])

        rows.append(
            ["single M/M/1/2K (pooled reference)",
             _first_loss_time(
                 _mm1k_gen(lam, mu, 2 * K), ["arrloss"])]
        )
        return rows

    rows = once(compute)
    print()
    print(f"X8: expected time from empty to the first dropped job "
          f"(lam={lam}, mu={mu}, K={K})")
    print(render_table(["strategy", "E[time to first loss]"], rows, float_fmt="{:.1f}"))
    vals = dict((r[0], r[1]) for r in rows)
    # JSQ pools the buffer: it survives orders of magnitude longer than
    # random (the paper's "will lose jobs when both queues are full")
    assert vals["shortest queue"] > 100 * vals["random"]
    # TAGS funnels the whole stream through node 1 (utilisation
    # lam/(mu/(1-p)) ~= 0.63 here vs 0.45 per random node), so its first
    # arrival drop comes *sooner* than random's -- TAGS buys its
    # heavy-tail gains with a busier front queue
    assert vals["TAGS (node-1 drop)"] < vals["random"]
    # and any two-queue strategy beats the pooled single queue at equal
    # total capacity only because the pooled queue sees double the load
    assert vals["random"] > vals["single M/M/1/2K (pooled reference)"]


def _mm1k_gen(lam, mu, K):
    def succ(s):
        (n,) = s
        out = []
        if n < K:
            out.append(("arrival", lam, (n + 1,)))
        else:
            out.append(("arrloss", lam, s))
        if n >= 1:
            out.append(("service", mu, (n - 1,)))
        return out

    gen, _, _ = bfs_generator((0,), succ)
    return gen
