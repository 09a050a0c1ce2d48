"""PEPA structured operational semantics.

:func:`transitions` enumerates the activities a component enables together
with their successor components, implementing Hillston's rules including the
**apparent rate** treatment of cooperation: a shared activity proceeds at

    (r1 / R1(a)) * (r2 / R2(a)) * min(R1(a), R2(a))

where ``R_i(a)`` is component *i*'s apparent rate of ``a`` (the sum of the
rates of all its enabled ``a``-activities) and passive rates act as
infinities carrying branching weights.

The result is a *multi*-transition list: syntactically distinct derivations
that happen to coincide in (action, rate, successor) are kept separate and
later summed into the CTMC, which matches PEPA's multiset semantics (e.g.
``(a, r).P + (a, r).P`` fires ``a`` at rate ``2r``).

``TransitionContext`` memoises per-component transition lists; reachability
exploration visits the same sequential derivatives in thousands of global
states, so this cache is the difference between O(states) and
O(states x tree) work.
"""

from __future__ import annotations

from typing import Iterable

from repro.pepa.rates import MixedRateError, Rate
from repro.pepa.syntax import (
    TAU,
    Choice,
    Component,
    Constant,
    Cooperation,
    Hiding,
    Model,
    Prefix,
)

__all__ = ["Transition", "TransitionContext", "transitions", "apparent_rate"]

Transition = tuple  # (action: str, rate: Rate, successor: Component)


class TransitionContext:
    """Memoised transition computation against one model's definitions."""

    _IN_PROGRESS = object()

    def __init__(self, model: Model) -> None:
        self.model = model
        self._memo: dict = {}

    # ------------------------------------------------------------------
    def transitions(self, comp) -> tuple:
        """All activities enabled by ``comp``: tuple of
        ``(action, Rate, successor)``."""
        cached = self._memo.get(comp)
        if cached is self._IN_PROGRESS:
            raise RecursionError(
                f"unguarded recursion: computing the transitions of "
                f"{comp!r} requires its own transitions"
            )
        if cached is None:
            self._memo[comp] = self._IN_PROGRESS
            try:
                cached = self._derive(comp, ())
            except BaseException:
                del self._memo[comp]
                raise
            self._memo[comp] = cached
        return cached

    def apparent_rate(self, comp, action: str) -> Rate | None:
        """Apparent rate of ``action`` in ``comp`` (None when disabled)."""
        total: Rate | None = None
        for a, r, _ in self.transitions(comp):
            if a == action:
                total = r if total is None else total + r
        return total

    # ------------------------------------------------------------------
    def _derive(self, comp, unfolding: tuple) -> tuple:
        if isinstance(comp, Prefix):
            return ((comp.activity.action, comp.activity.rate, comp.continuation),)

        if isinstance(comp, Choice):
            return self._derive_choice(comp)

        if isinstance(comp, Constant):
            if comp.name in unfolding:
                cycle = " -> ".join(unfolding + (comp.name,))
                raise RecursionError(
                    f"unguarded recursion through constant(s): {cycle}"
                )
            body = self.model.resolve(comp.name)
            return self._derive(body, unfolding + (comp.name,))

        if isinstance(comp, Hiding):
            out = []
            for action, rate, succ in self._derive_sub(comp.component):
                shown = TAU if action in comp.actions else action
                out.append((shown, rate, Hiding(succ, comp.actions)))
            return tuple(out)

        if isinstance(comp, Cooperation):
            return self._derive_cooperation(comp)

        raise TypeError(f"not a PEPA component: {comp!r}")

    def _derive_choice(self, comp: Choice) -> tuple:
        """The branches' transitions, left to right.

        A choice chain is walked with an explicit stack, and only its
        ``Constant`` branches go through the memo (their keys hash a
        name): memoising every nested ``Choice`` by value would hash
        each left-nested chain from scratch, quadratic in its length.
        """
        out: list = []
        stack = [comp]
        while stack:
            c = stack.pop()
            if isinstance(c, Choice):
                stack += (c.right, c.left)
            elif isinstance(c, Constant):
                out += self.transitions(c)
            else:  # a new guardedness scope, as for any sub-derivation
                out += self._derive(c, ())
        return tuple(out)

    def _derive_sub(self, comp) -> tuple:
        """Memoised recursion (fresh unfolding stack: a sub-derivation is a
        new guardedness scope)."""
        return self.transitions(comp)

    def _derive_cooperation(self, comp: Cooperation) -> tuple:
        L = comp.actions
        left_tr = self._derive_sub(comp.left)
        right_tr = self._derive_sub(comp.right)
        out = []
        # independent moves
        for action, rate, succ in left_tr:
            if action not in L:
                out.append((action, rate, Cooperation(succ, comp.right, L)))
        for action, rate, succ in right_tr:
            if action not in L:
                out.append((action, rate, Cooperation(comp.left, succ, L)))
        # synchronised moves
        shared = {a for a, _, _ in left_tr if a in L} & {
            a for a, _, _ in right_tr if a in L
        }
        for action in shared:
            lt = [(r, s) for a, r, s in left_tr if a == action]
            rt = [(r, s) for a, r, s in right_tr if a == action]
            R1 = _sum_rates(action, (r for r, _ in lt))
            R2 = _sum_rates(action, (r for r, _ in rt))
            m = R1.min_with(R2)
            for r1, s1 in lt:
                for r2, s2 in rt:
                    rate = Rate(
                        r1.ratio_to(R1) * r2.ratio_to(R2) * m.value, m.passive
                    )
                    out.append((action, rate, Cooperation(s1, s2, L)))
        return tuple(out)


def _sum_rates(action: str, rates: Iterable[Rate]) -> Rate:
    total: Rate | None = None
    for r in rates:
        try:
            total = r if total is None else total + r
        except MixedRateError:
            raise MixedRateError(
                f"action {action!r} enabled with both active and passive "
                "rates inside one cooperand (ill-formed PEPA)"
            ) from None
    assert total is not None
    return total


# ----------------------------------------------------------------------
# module-level conveniences (fresh context each call; fine for small uses)
# ----------------------------------------------------------------------

def transitions(
    comp: Component,
    model: Model,
    ctx: "TransitionContext | None" = None,
) -> tuple:
    """Enabled activities of ``comp`` under ``model``'s definitions.

    Pass a shared ``ctx`` (built against the same ``model``) to keep the
    memo across calls -- a fresh context per call silently discards it,
    which turns loops (e.g. well-formedness sweeps over every derivative)
    quadratic.
    """
    if ctx is None:
        ctx = TransitionContext(model)
    elif ctx.model is not model:
        raise ValueError("ctx was built for a different model")
    return ctx.transitions(comp)


def apparent_rate(
    comp: Component,
    action: str,
    model: Model,
    ctx: "TransitionContext | None" = None,
) -> Rate | None:
    """Apparent rate of ``action`` in ``comp`` (None when disabled).

    ``ctx`` works as in :func:`transitions`: share one context across
    calls against the same model to retain memoisation.
    """
    if ctx is None:
        ctx = TransitionContext(model)
    elif ctx.model is not model:
        raise ValueError("ctx was built for a different model")
    return ctx.apparent_rate(comp, action)
