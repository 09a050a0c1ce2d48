"""First-passage and absorption analysis.

Beyond steady state, the natural questions about a bounded-queue system
are transient-structural: *how long until the first job is dropped?*,
*which node drops first?*  These reduce to first-passage times and
absorption probabilities:

* :func:`mean_first_passage_times` -- ``E[time to hit target set]`` from
  every state, by solving ``Q_TT m = -1`` on the complement ``T``.
* :func:`absorption_probabilities` -- for a chain with several absorbing
  classes, ``P[absorbed in class c | start at i]`` via ``Q_TT B = -Q_TA``.
* :func:`absorbing_on_action` -- rewire every transition carrying a given
  action label into a fresh absorbing state, turning an *event* ("a loss
  occurred") into a *state* so the two functions above apply.

All solves are sparse; unreachable-target states are reported as ``inf``
passage time rather than raising.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.ctmc.generator import Generator

__all__ = [
    "mean_first_passage_times",
    "absorption_probabilities",
    "conditional_absorption_times",
    "absorbing_on_action",
]


def _as_gen(g) -> Generator:
    return g if isinstance(g, Generator) else Generator(sp.csr_matrix(g))


def mean_first_passage_times(generator, targets) -> np.ndarray:
    """Expected time to reach ``targets`` (a set/array of state ids) from
    every state.

    Target states get 0; states that cannot reach the target set get
    ``inf``.
    """
    g = _as_gen(generator)
    n = g.n_states
    targets = np.asarray(sorted(set(int(t) for t in targets)), dtype=np.int64)
    if targets.size == 0:
        raise ValueError("empty target set")
    if targets.min() < 0 or targets.max() >= n:
        raise ValueError("target id out of range")
    mask = np.ones(n, dtype=bool)
    mask[targets] = False
    T = np.flatnonzero(mask)
    out = np.zeros(n)
    if T.size == 0:
        return out

    # restrict to states that can reach the targets at all
    can_reach = _backward_reachable(g.Q, targets)
    solvable = T[can_reach[T]]
    out[~can_reach] = np.inf
    if solvable.size == 0:
        return out
    QTT = sp.csc_matrix(g.Q[solvable][:, solvable])
    rhs = -np.ones(solvable.size)
    m = spla.spsolve(QTT, rhs)
    if not np.all(np.isfinite(m)) or m.min() < -1e-9:
        raise RuntimeError("first-passage solve failed (singular system)")
    out[solvable] = np.maximum(m, 0.0)
    return out


def _absorption(g: Generator, classes):
    """``(B, T, lu)``: the absorption probabilities, the transient states
    that can reach a class, and the LU factor of ``Q_TT`` on them
    (``None`` when ``T`` is empty).

    ``Q_TT`` is factored once and every class's right-hand side is solved
    against it in one call.
    """
    n = g.n_states
    classes = [np.asarray(sorted(set(int(i) for i in c)), np.int64) for c in classes]
    all_abs = np.concatenate(classes) if classes else np.empty(0, np.int64)
    if len(np.unique(all_abs)) != all_abs.size:
        raise ValueError("absorbing classes must be disjoint")
    mask = np.ones(n, dtype=bool)
    mask[all_abs] = False
    # a state that cannot reach any class is never absorbed (B = 0);
    # leaving such states out keeps Q_TT nonsingular
    mask &= _backward_reachable(g.Q, all_abs)
    T = np.flatnonzero(mask)
    B = np.zeros((n, len(classes)))
    for c, ids in enumerate(classes):
        B[ids, c] = 1.0
    if T.size == 0:
        return B, T, None
    QT = g.Q[T]
    lu = spla.splu(sp.csc_matrix(QT[:, T]))
    rhs = np.zeros((T.size, len(classes)))
    for c, ids in enumerate(classes):
        rhs[:, c] = -np.asarray(QT[:, ids].sum(axis=1)).ravel()
    B[T] = np.clip(_solve_nonzero(lu, rhs), 0.0, 1.0)
    return B, T, lu


def _solve_nonzero(lu, rhs: np.ndarray) -> np.ndarray:
    """``lu.solve`` on the nonzero columns of ``rhs``; zero columns
    (a class no transient state enters) stay zero."""
    out = np.zeros_like(rhs)
    cols = np.flatnonzero(rhs.any(axis=0))
    if cols.size:
        out[:, cols] = lu.solve(rhs[:, cols])
    return out


def absorption_probabilities(generator, classes) -> np.ndarray:
    """``P[absorbed in classes[c]]`` from every state.

    ``classes`` is a list of disjoint state-id collections, each treated
    as absorbing (their outgoing transitions are ignored).  Returns an
    ``(n_states, len(classes))`` matrix; rows of states inside a class are
    the corresponding unit vector.  Transient states that can avoid
    absorption forever (a closed recurrent class outside every target)
    yield rows summing to < 1.
    """
    return _absorption(_as_gen(generator), classes)[0]


def conditional_absorption_times(generator, classes):
    """``(B, M)``: absorption probabilities and *conditional* mean
    absorption times per class.

    ``B[i, c] = P[absorbed in classes[c] | start i]`` (as in
    :func:`absorption_probabilities`) and ``M[i, c] = E[absorption time |
    start i, absorbed in classes[c]]`` (``nan`` where ``B`` is zero).

    Computed from ``H[i, c] = E[tau * 1{absorbed in c}]`` which satisfies
    ``Q_TT H = -B_T`` on the transient states, then ``M = H / B``; both
    systems share one factor of ``Q_TT``.  This is what turns a
    tagged-job chain into per-outcome response times: "how long do the
    jobs that *complete* take, versus the ones that are eventually
    dropped?".
    """
    B, T, lu = _absorption(_as_gen(generator), classes)
    H = np.zeros_like(B)
    if T.size:
        H[T] = _solve_nonzero(lu, -B[T])
    with np.errstate(divide="ignore", invalid="ignore"):
        M = np.where(B > 0, H / np.where(B > 0, B, 1.0), np.nan)
    return B, M


def absorbing_on_action(generator: Generator, action: str):
    """Return ``(new_generator, sink_id)`` where every ``action``-labelled
    transition is redirected into a fresh absorbing sink state.

    Use with :func:`mean_first_passage_times` to answer "expected time
    until the first occurrence of *action*" -- e.g. the first job loss of
    a bounded queueing system.
    """
    if action not in generator.action_rates:
        raise KeyError(
            f"no rate matrix for action {action!r}; known: "
            f"{sorted(generator.action_rates)}"
        )
    n = generator.n_states
    R = generator.off_diagonal().tolil()
    A = generator.action_rates[action].tocoo()
    # remove the action's rates from their original destinations (only the
    # portion that went into the generator, i.e. non-self-loop part)...
    for i, j, r in zip(A.row, A.col, A.data):
        if i != j:
            R[i, j] = max(R[i, j] - r, 0.0)
    R = R.tocoo()
    src = list(R.row)
    dst = list(R.col)
    rate = list(R.data)
    # ...and redirect the full action rate (including self-loop "drop"
    # transitions, which are real events) into the sink
    per_state = np.asarray(generator.action_rates[action].sum(axis=1)).ravel()
    for i in np.flatnonzero(per_state):
        src.append(int(i))
        dst.append(n)
        rate.append(float(per_state[i]))
    new = Generator.from_triples(n + 1, src, dst, rate)
    return new, n


def _backward_reachable(Q: sp.csr_matrix, targets: np.ndarray) -> np.ndarray:
    """Boolean mask of states from which ``targets`` is reachable."""
    A = Q.copy()
    A.setdiag(0.0)
    A.eliminate_zeros()
    AT = sp.csr_matrix(A.T)
    n = Q.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[targets] = True
    frontier = targets
    indptr, indices = AT.indptr, AT.indices
    while frontier.size:
        nxt = (
            np.unique(
                np.concatenate(
                    [indices[indptr[v]: indptr[v + 1]] for v in frontier]
                )
            )
            if frontier.size
            else np.empty(0, np.int64)
        )
        nxt = nxt[~seen[nxt]]
        seen[nxt] = True
        frontier = nxt
    return seen
