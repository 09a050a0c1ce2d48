"""Stationary CTMC model classes and breadth-first construction.

:class:`Chain` is the solve protocol of every stationary CTMC model
class: a subclass supplies ``generator``, the base owns ``n_states``,
the memoised ``pi`` and ``throughput(action)``.  Every TAGS model
class (on PEPA), the Figure 4 counted chain and the tuple chains all
solve through it.

Chains without a PEPA form define a successor function
``succ(state) -> [(action, rate, next_state), ...]`` over plain tuples;
:func:`bfs_generator` explores the reachable set and
:func:`~repro.ctmc.generator.assemble_generator` builds the chain.  The
model classes built this way (the JSQ, round-robin and JSQ-under-MMPP
baselines) subclass :class:`TupleChain`; the tagged-job chains call
:func:`bfs_generator` directly, seeded with every start state.

These chains are rebuilt from scratch per instance (one generator
pattern built and filled once); sweeps that only change rate values
refill a frozen structure on the compiled PEPA engine instead
(:meth:`repro.pepa.compiled.CompiledSpace.refill`), which keeps its
pattern.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

import numpy as np

from repro import obs
from repro.ctmc.generator import Generator, assemble_generator
from repro.ctmc.rewards import action_throughput
from repro.ctmc.steady import steady_state

__all__ = [
    "Chain",
    "TupleChain",
    "bfs_generator",
]


def bfs_generator(
    initial,
    successors: Callable,
    *,
    seeds: Iterable = (),
    max_states: int = 2_000_000,
):
    """Explore from ``initial`` and build the generator.

    Returns ``(generator, states, index)``: the reachable tuples with
    ``states[0] == initial`` and the reverse map.  Once the queue
    empties, exploration continues from the first of ``seeds`` not yet
    reached, so the result covers everything reachable from any start
    state.  Zero-rate transitions are skipped, negative rates raise
    ``ValueError``, and transitions are recorded in enumeration order
    (per-action aggregation happens in
    :func:`~repro.ctmc.generator.assemble_generator`).

    Each exploration files a ``ctmc.bfs`` span (state/transition counts)
    and ``ctmc.bfs.states``/``ctmc.bfs.transitions`` counters with the
    :mod:`repro.obs` recorder; the loop itself is untouched, so disabled
    recording costs one attribute check per build.
    """
    rec = obs.recorder()
    t0 = time.perf_counter() if rec.enabled else 0.0
    index = {initial: 0}
    states = [initial]
    src: list = []
    dst: list = []
    rate: list = []
    act: list = []

    pending = iter(seeds)
    head = 0
    while True:
        if head == len(states):
            seed = next((s for s in pending if s not in index), None)
            if seed is None:
                break
            index[seed] = head
            states.append(seed)
        sid = head
        state = states[head]
        head += 1
        for action, r, nxt in successors(state):
            if r < 0:
                raise ValueError(f"negative rate {r} for {action!r} from {state!r}")
            if r == 0:
                continue
            tid = index.get(nxt)
            if tid is None:
                tid = len(states)
                if tid >= max_states:
                    raise MemoryError(f"state space exceeded {max_states}")
                index[nxt] = tid
                states.append(nxt)
            src.append(sid)
            dst.append(tid)
            rate.append(float(r))
            act.append(action)

    n = len(states)
    if rec.enabled:
        rec.record_span(
            "ctmc.bfs", t0, time.perf_counter() - t0, states=n, transitions=len(src)
        )
        rec.add("ctmc.bfs.states", n)
        rec.add("ctmc.bfs.transitions", len(src))
    gen = assemble_generator(
        n,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(rate, dtype=np.float64),
        act,
    )
    return gen, states, index


class Chain:
    """A model class solved as one stationary CTMC.

    Subclasses supply the ``generator`` property.  ``pi`` is solved once
    and memoised; a vector already stored in ``_pi`` (the sweep engine
    hands in its own solve) is used as is.
    """

    _pi = None

    @property
    def n_states(self) -> int:
        return self.generator.n_states

    @property
    def pi(self) -> np.ndarray:
        if self._pi is None:
            self._pi = steady_state(self.generator)
        return self._pi

    def throughput(self, action: str) -> float:
        """Steady-state rate of ``action``; 0.0 if the chain never fires
        it."""
        if action not in self.generator.action_rates:
            return 0.0
        return action_throughput(self.generator, self.pi, action)


class TupleChain(Chain):
    """A :class:`Chain` explored from tuple states.

    Subclasses supply ``_initial()`` and ``_successors(state)``; the
    chain is built by one :func:`bfs_generator` call on first access.
    """

    def _initial(self):
        raise NotImplementedError

    def _successors(self, state):
        raise NotImplementedError

    @property
    def generator(self) -> Generator:
        if not hasattr(self, "_gen"):
            self._gen, self._states, _ = bfs_generator(
                self._initial(), self._successors
            )
        return self._gen

    @property
    def states(self) -> list:
        _ = self.generator
        return self._states

    def mean(self, f) -> float:
        """Steady-state expectation of ``f(state)``."""
        return float(self.pi @ np.array([f(s) for s in self.states], dtype=float))
