"""Reachable state space of a PEPA model.

Breadth-first exploration from the system equation.  Every reachable
derivative becomes a CTMC state; the labelled multi-transitions are recorded
as flat arrays ready for sparse-matrix assembly.

:func:`explore` explores models inside the compiled fragment (see
:mod:`repro.pepa.compiled`) with the vectorized engine -- identical
``StateSpace`` output, states in canonical (BFS-level, packed-code)
order -- and everything else with the pure-Python interpreter below,
:func:`explore_interpreter`.

Passive rates must have been closed off by cooperation by the time they
reach the top level -- a reachable passive transition means the model is
incomplete (some ``T`` never met an active partner) and raises
:class:`PassiveRateError`, mirroring the PEPA Workbench's check.  Both
engines check this over *reachable* states only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.pepa.semantics import TransitionContext
from repro.pepa.syntax import Component, Constant, Cooperation, Hiding, Model

__all__ = ["StateSpace", "explore", "explore_interpreter", "PassiveRateError"]


class PassiveRateError(RuntimeError):
    """A passive (unspecified) rate survived to the top level."""


@dataclass
class StateSpace:
    """Explored labelled transition system of a PEPA model.

    Attributes
    ----------
    states :
        List of component expressions; index = CTMC state id.
    index :
        Reverse map component -> id.
    src, dst, rate :
        Parallel arrays of transitions (multi-transitions already summed
        per (src, dst, action)).
    action :
        Python list of action names parallel to ``src``.
    initial :
        Id of the system equation's state (always 0).
    """

    states: list
    index: dict
    src: np.ndarray
    dst: np.ndarray
    rate: np.ndarray
    action: list
    model: Model
    initial: int = 0
    # lazily-built decomposition caches; reward helpers walk each state's
    # AST exactly once per space, not once per state per reward
    _names: "list | None" = field(default=None, repr=False, compare=False)
    _name_codes: "np.ndarray | None" = field(
        default=None, repr=False, compare=False
    )
    _name_vocab: "dict | None" = field(default=None, repr=False, compare=False)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        return len(self.src)

    def actions(self) -> set:
        return set(self.action)

    # ------------------------------------------------------------------
    def local_states(self, state_id: int) -> tuple:
        """The sequential components of a state, left-to-right (flattening
        cooperation/hiding structure).  Useful for reward functions."""
        out: list = []

        def walk(c: Component) -> None:
            if isinstance(c, Cooperation):
                walk(c.left)
                walk(c.right)
            elif isinstance(c, Hiding):
                walk(c.component)
            else:
                out.append(c)

        walk(self.states[state_id])
        return tuple(out)

    def _prime_names(self, names: list) -> None:
        """Install a precomputed local-name decomposition (one tuple per
        state).  The compiled engine knows the names without rebuilding
        any component expression; everyone else gets them lazily."""
        if len(names) != self.n_states:
            raise ValueError("names cache length != state count")
        self._names = list(names)

    def _ensure_names(self) -> list:
        if self._names is None:
            self._names = [
                tuple(
                    c.name if isinstance(c, Constant) else repr(c)
                    for c in self.local_states(i)
                )
                for i in range(self.n_states)
            ]
        return self._names

    def local_names(self, state_id: int) -> tuple:
        """Names of the sequential components (Constants) of a state."""
        return self._ensure_names()[state_id]

    def state_reward(self, fn) -> np.ndarray:
        """Vectorise ``fn(local_names) -> float`` over all states."""
        names = self._ensure_names()
        return np.fromiter(
            (fn(nm) for nm in names), dtype=np.float64, count=self.n_states
        )

    def _coded_names(self):
        """Int-coded name matrix (n_states x n_leaves) + vocabulary, or
        ``(None, vocab)`` when states disagree on leaf count (possible
        only for pathological models whose leaves unfold into composites).
        """
        if self._name_vocab is None:
            names = self._ensure_names()
            vocab: dict = {}
            widths = {len(nm) for nm in names}
            if len(widths) == 1 and names:
                codes = np.empty((len(names), widths.pop()), dtype=np.int32)
                for i, nm in enumerate(names):
                    for j, name in enumerate(nm):
                        code = vocab.get(name)
                        if code is None:
                            code = vocab[name] = len(vocab)
                        codes[i, j] = code
                self._name_codes = codes
            else:
                for nm in names:
                    for name in nm:
                        vocab.setdefault(name, len(vocab))
                self._name_codes = None
            self._name_vocab = vocab
        return self._name_codes, self._name_vocab

    def derivative_count(self, name: str) -> np.ndarray:
        """Per-state count of sequential components equal to ``name``
        (the quantity fluid analysis approximates)."""
        codes, vocab = self._coded_names()
        code = vocab.get(name)
        if code is None:
            return np.zeros(self.n_states, dtype=np.float64)
        if codes is not None:
            return (codes == code).sum(axis=1).astype(np.float64)
        return self.state_reward(lambda names: names.count(name))

    def find_deadlocks(self) -> np.ndarray:
        """State ids with no outgoing transitions."""
        has_out = np.zeros(self.n_states, dtype=bool)
        has_out[self.src] = True
        return np.flatnonzero(~has_out)


def explore(model: Model, *, max_states: int = 2_000_000) -> StateSpace:
    """Explore the reachable derivatives of ``model.system``.

    The model is compiled for the vectorized engine
    (:mod:`repro.pepa.compiled`); on
    :class:`~repro.pepa.compiled.CompileError` (model outside the
    supported fragment) it falls back to :func:`explore_interpreter`
    silently.  Both produce the same ``StateSpace`` contents; the
    compiled engine orders states canonically (BFS level, then packed
    local-state code) while the interpreter's order depends on
    hash-dependent transition enumeration.  Progress is reported through
    :mod:`repro.obs`: the interpreter emits a ``pepa.explore`` span, the
    fast path ``pepa.compile`` + ``pepa.explore.fast``; both emit the
    ``pepa.explore.frontier`` trace, ``pepa.frontier`` gauge and
    ``pepa.states``/``pepa.transitions`` counters.
    """
    # lazy import: compiled.py imports this module for StateSpace
    from repro.pepa.compiled import CompileError, compile_model

    try:
        compiled = compile_model(model)
    except CompileError:
        return explore_interpreter(model, max_states=max_states)
    return compiled.explore(max_states=max_states).statespace()


def explore_interpreter(
    model: Model,
    *,
    max_states: int = 2_000_000,
) -> StateSpace:
    """Reference BFS: pure-Python AST rewriting, one state at a time,
    for every PEPA model (the compiled engine's test oracle)."""
    ctx = TransitionContext(model)
    rec = obs.recorder()
    rec_on = rec.enabled
    t0 = time.perf_counter() if rec_on else 0.0
    frontier_sizes: list = []
    index: dict = {model.system: 0}
    states: list = [model.system]
    src: list = []
    dst: list = []
    rates: list = []
    actions: list = []

    frontier = [0]
    while frontier:
        if rec_on:
            frontier_sizes.append((len(frontier_sizes), len(frontier)))
            rec.gauge("pepa.frontier", len(frontier))
        next_frontier: list = []
        for sid in frontier:
            state = states[sid]
            # sum multi-transitions per (action, successor)
            agg: dict = {}
            for action, rate, succ in ctx.transitions(state):
                if rate.passive:
                    raise PassiveRateError(
                        f"passive rate for action {action!r} reachable at the "
                        f"top level in state {state!r}; the model is "
                        "incomplete (a 'T' rate never synchronised with an "
                        "active partner)"
                    )
                key = (action, succ)
                agg[key] = agg.get(key, 0.0) + rate.value
            for (action, succ), total in agg.items():
                tid = index.get(succ)
                if tid is None:
                    tid = len(states)
                    if tid >= max_states:
                        raise MemoryError(
                            f"state space exceeded max_states={max_states}"
                        )
                    index[succ] = tid
                    states.append(succ)
                    next_frontier.append(tid)
                src.append(sid)
                dst.append(tid)
                rates.append(total)
                actions.append(action)
        frontier = next_frontier

    if rec_on:
        rec.record_span(
            "pepa.explore",
            t0,
            time.perf_counter() - t0,
            states=len(states),
            transitions=len(src),
            depth=len(frontier_sizes),
        )
        rec.trace("pepa.explore.frontier", frontier_sizes)
        rec.add("pepa.states", len(states))
        rec.add("pepa.transitions", len(src))
    return StateSpace(
        states=states,
        index=index,
        src=np.asarray(src, dtype=np.int64),
        dst=np.asarray(dst, dtype=np.int64),
        rate=np.asarray(rates, dtype=np.float64),
        action=actions,
        model=model,
    )
