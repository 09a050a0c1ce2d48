"""Demand-balance equations for the TAGS timeout (paper Section 4).

The heuristic: a good timeout equalises the expected *useful* service
demand at the two nodes.  Restricting (as the paper argues) to the
successfully-completing services at node 1 versus the residual services at
node 2:

* **Exponential timeout** at rate ``T`` racing Exponential(mu) service::

      P[timeout] * E[residual]  =  P[service] * E[race | service wins]
      T/(T+mu) * 1/mu           =  mu/(T+mu) * 1/(T+mu)

  which reduces to ``mu^2 = T^2 + T mu`` with positive root
  ``T = mu (sqrt(5) - 1) / 2 ~= 0.618 mu`` (~6.18 for mu = 10; the paper
  quotes "approximately 6.17").

* **Erlang(n, t) timeout** (the model's actual clock)::

      (t/(t+mu))^n / mu  =  mu/(t(t+mu)) * sum_{i=1..n} i (t/(t+mu))^i

  solved numerically for ``t``.  As ``n`` grows the clock becomes
  deterministic and the balance rate per phase grows so that the paper
  reports the *total* timeout rate ``t/n`` tending to roughly 0.9 mu
  (about 9 for mu = 10) -- matching the upper bound of the numerically
  optimal timeout at low arrival rates.

Both sides of the Erlang equation are evaluated in the raw probabilistic
form above; the paper's polynomial simplification
``t^n (t+mu) = (t+mu)^{n+1} - t(mu(n+1) + t)`` is provided for
cross-checking in :func:`erlang_balance_polynomial_residual`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "timeout_win_probability",
    "expected_race_duration",
    "exponential_balance_rate",
    "erlang_balance_residual",
    "erlang_balance_polynomial_residual",
    "erlang_balance_rate",
]


def timeout_win_probability(t: float, mu: float, n: int) -> float:
    """P[Erlang(n, t) timeout fires before Exponential(mu) service]."""
    if t <= 0 or mu <= 0 or n < 1:
        raise ValueError("need positive rates and n >= 1")
    return (t / (t + mu)) ** n


def expected_race_duration(t: float, mu: float, n: int) -> float:
    """E[min(Erlang(n, t), Exponential(mu))] -- how long the head job
    occupies node 1's server per attempt.

    Closed form ``(1 - (t/(t+mu))^n) / mu`` (integrate the product of the
    survival functions).
    """
    return (1.0 - timeout_win_probability(t, mu, n)) / mu


def exponential_balance_rate(mu: float) -> float:
    """Balance timeout rate for an exponential clock:
    the positive root of ``mu^2 = T^2 + T mu``."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    return mu * (np.sqrt(5.0) - 1.0) / 2.0


def erlang_balance_residual(t: float, mu: float, n: int) -> float:
    """LHS - RHS of the Erlang balance equation (zero at balance).

    LHS: P[timeout] x mean residual served at node 2.
    RHS: P[service wins at phase i] x conditional mean duration, summed.
    """
    p = t / (t + mu)
    lhs = p**n / mu
    i = np.arange(1, n + 1)
    rhs = (mu / (t * (t + mu))) * float(np.sum(i * p**i))
    return lhs - rhs


def erlang_balance_polynomial_residual(t: float, mu: float, n: int) -> float:
    """The paper's polynomial form ``t^n (t+mu) - [(t+mu)^{n+1} -
    t(mu(n+1) + t)]`` (normalised by ``(t+mu)^{n+1}`` to keep magnitudes
    sane).  Kept for cross-checking the printed algebra."""
    lhs = t**n * (t + mu)
    rhs = (t + mu) ** (n + 1) - t * (mu * (n + 1) + t)
    return (lhs - rhs) / (t + mu) ** (n + 1)


def erlang_balance_rate(mu: float, n: int, *, bracket_hi: float = None) -> float:
    """Solve the Erlang balance equation for the per-phase rate ``t``."""
    from scipy.optimize import brentq

    if mu <= 0 or n < 1:
        raise ValueError("need positive mu and n >= 1")
    lo = 1e-9 * mu
    hi = bracket_hi if bracket_hi is not None else 100.0 * mu * n
    f = lambda t: erlang_balance_residual(t, mu, n)
    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0:
        raise ValueError(
            f"balance equation not bracketed on [{lo:g}, {hi:g}] "
            f"(f={flo:g}, {fhi:g})"
        )
    return float(brentq(f, lo, hi, xtol=1e-12, rtol=1e-12))
