"""Fluid-flow (ODE) approximation of replicated-component PEPA models.

Implements the analysis of Hillston, *Fluid Flow Approximation of PEPA
models* (QEST 2005) -- the technique the paper's Section 3.1 proposes for
the Figure 4 "one component per queue place" model, supported there by the
Dizzy tool [9].  Instead of deriving the (large) CTMC, we track the
*expected count* of components in each local derivative and integrate::

    dx/dt = sum over activities (flow in - flow out)

For an action ``a`` shared between component groups, the fluid flow is the
minimum of the groups' capacities, mirroring PEPA's apparent-rate minimum:

* an **active** group's capacity is ``sum_d x_d * r_d(a)``;
* a **passive** group's capacity is its enabled weighted count times the
  active side's per-component rate (so a draining passive population really
  throttles the flow instead of being overdrawn).

Unshared actions flow at each group's own total rate.  Within a group the
flow is apportioned over the enabled derivatives proportionally to
``x_d * r_d(a)``, PEPA's branching rule in the large-population limit.

This module is deliberately restricted to the model shape the technique is
defined for: a cooperation of *groups*, each group a multiset of copies of
one sequential component.  That is exactly the Figure 4 structure (arrays
of queue places cooperating with server and timer processes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pepa.semantics import TransitionContext
from repro.pepa.syntax import Constant, Model

__all__ = ["FluidGroup", "FluidModel"]


@dataclass
class FluidGroup:
    """A replicated population of one sequential component.

    ``initial`` maps derivative names (constants in the model) to initial
    counts; e.g. ``{"Q1_0": 10.0}`` is ten empty queue-1 places.
    """

    name: str
    initial: dict

    def __post_init__(self) -> None:
        if not self.initial:
            raise ValueError(f"group {self.name!r} has no initial derivatives")
        for count in self.initial.values():
            if count < 0:
                raise ValueError(f"negative initial count in group {self.name!r}")


@dataclass
class _LocalTransition:
    src: int  # derivative index within the group
    dst: int
    action: str
    value: float  # rate (active) or weight (passive)
    passive: bool


class FluidModel:
    """Fluid interpretation of a PEPA model composed of component groups.

    Parameters
    ----------
    model :
        PEPA model supplying the sequential definitions.
    groups :
        The component populations.
    synced :
        Action types shared **between** groups (the cooperation sets of the
        group-level composition).  Actions not listed flow independently in
        every group that enables them.
    """

    def __init__(self, model: Model, groups: list, synced: set) -> None:
        self.model = model
        self.groups = list(groups)
        self.synced = frozenset(synced)
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ValueError("duplicate group names")
        self._ctx = TransitionContext(model)
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        self._derivatives: list[list] = []  # per group: component exprs
        self._deriv_names: list[list[str]] = []
        self._deriv_index: list[dict] = []
        self._locals: list[list[_LocalTransition]] = []
        self._offsets: list[int] = []
        offset = 0
        for g in self.groups:
            derivs: list = []
            index: dict = {}
            todo = [Constant(d) for d in g.initial]
            transitions: list[_LocalTransition] = []
            while todo:
                comp = todo.pop()
                if comp in index:
                    continue
                index[comp] = len(derivs)
                derivs.append(comp)
                for action, rate, succ in self._ctx.transitions(comp):
                    if succ not in index and succ not in todo:
                        todo.append(succ)
            # second pass now that all derivatives are indexed
            for comp in derivs:
                for action, rate, succ in self._ctx.transitions(comp):
                    transitions.append(
                        _LocalTransition(
                            index[comp],
                            index[succ],
                            action,
                            rate.value,
                            rate.passive,
                        )
                    )
            self._derivatives.append(derivs)
            self._deriv_names.append(
                [c.name if isinstance(c, Constant) else repr(c) for c in derivs]
            )
            self._deriv_index.append(index)
            self._locals.append(transitions)
            self._offsets.append(offset)
            offset += len(derivs)
        self.n_vars = offset

        # initial state vector
        x0 = np.zeros(self.n_vars)
        for gi, g in enumerate(self.groups):
            for name, count in g.initial.items():
                comp = Constant(name)
                try:
                    di = self._deriv_index[gi][comp]
                except KeyError:
                    raise KeyError(
                        f"{name!r} is not a derivative of group {self.groups[gi].name!r}"
                    ) from None
                x0[self._offsets[gi] + di] = count
        self.x0 = x0

        # which groups participate in each synced action, and how
        self._participants: dict[str, list[int]] = {}
        for action in self.synced:
            parts = [
                gi
                for gi in range(len(self.groups))
                if any(t.action == action for t in self._locals[gi])
            ]
            if len(parts) < 2:
                raise ValueError(
                    f"synced action {action!r} is enabled by "
                    f"{len(parts)} group(s); cooperation needs at least two"
                )
            self._participants[action] = parts

    # ------------------------------------------------------------------
    def variable_names(self) -> list:
        """Flat ``group.derivative`` labels aligned with the state vector."""
        out = []
        for gi, g in enumerate(self.groups):
            out.extend(f"{g.name}.{d}" for d in self._deriv_names[gi])
        return out

    # ------------------------------------------------------------------
    def _rhs(self, _t: float, x: np.ndarray) -> np.ndarray:
        dx = np.zeros_like(x)
        x = np.maximum(x, 0.0)

        # group/action totals
        def totals(gi: int, action: str):
            active = 0.0
            passive = 0.0
            for tr in self._locals[gi]:
                if tr.action != action:
                    continue
                amount = x[self._offsets[gi] + tr.src] * tr.value
                if tr.passive:
                    passive += amount
                else:
                    active += amount
            return active, passive

        flows: dict[str, float] = {}
        all_actions = {t.action for loc in self._locals for t in loc}
        for action in all_actions:
            if action not in self.synced:
                continue
            parts = self._participants[action]
            active_caps = []
            passive_weights = []
            per_unit = []
            for gi in parts:
                a, p = totals(gi, action)
                if a > 0 or not any(
                    t.passive for t in self._locals[gi] if t.action == action
                ):
                    active_caps.append(a)
                    enabled = sum(
                        x[self._offsets[gi] + t.src]
                        for t in self._locals[gi]
                        if t.action == action and not t.passive
                    )
                    if enabled > 0:
                        per_unit.append(a / enabled)
                else:
                    passive_weights.append(p)
            if not active_caps:
                raise ValueError(
                    f"synced action {action!r} has no active participant"
                )
            flow = min(active_caps)
            if passive_weights:
                unit = min(per_unit) if per_unit else 0.0
                flow = min([flow] + [w * unit for w in passive_weights])
            flows[action] = max(flow, 0.0)

        # apply transitions
        for gi in range(len(self.groups)):
            off = self._offsets[gi]
            for action in {t.action for t in self._locals[gi]}:
                trs = [t for t in self._locals[gi] if t.action == action]
                amounts = np.array(
                    [x[off + t.src] * t.value for t in trs], dtype=float
                )
                total = amounts.sum()
                if total <= 0:
                    continue
                if action in self.synced:
                    flow = flows[action]
                    shares = amounts / total * flow
                else:
                    shares = amounts  # independent: each fires at own rate
                for t, s in zip(trs, shares):
                    dx[off + t.src] -= s
                    dx[off + t.dst] += s
        return dx

    # ------------------------------------------------------------------
    def solve(self, t_end: float, n_points: int = 200, rtol: float = 1e-8):
        """Integrate the fluid ODEs to ``t_end``.

        Returns ``(times, trajectories)`` where ``trajectories`` maps
        ``group.derivative`` labels to count arrays.
        """
        from scipy.integrate import solve_ivp

        ts = np.linspace(0.0, t_end, n_points)
        sol = solve_ivp(
            self._rhs,
            (0.0, t_end),
            self.x0,
            t_eval=ts,
            rtol=rtol,
            atol=1e-10,
            method="LSODA",
        )
        if not sol.success:  # pragma: no cover - solver failure is exceptional
            raise RuntimeError(f"fluid ODE integration failed: {sol.message}")
        traj = {
            name: sol.y[i] for i, name in enumerate(self.variable_names())
        }
        return sol.t, traj

    def equilibrium(self, t_end: float = 1000.0) -> dict:
        """Long-run counts: integrate far and report the final point."""
        _, traj = self.solve(t_end, n_points=2)
        return {name: float(vals[-1]) for name, vals in traj.items()}
