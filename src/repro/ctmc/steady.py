"""Steady-state solution of CTMCs.

Solves ``pi Q = 0`` with ``sum(pi) = 1`` for an irreducible generator.
Several solvers are provided because they trade accuracy against scale:

``gth``
    Grassmann-Taksar-Heyman elimination.  Subtraction-free, so it is
    numerically exact to rounding even for stiff chains, but it densifies:
    O(n^3) time, O(n^2) memory.  Default for tiny chains, the last resort
    of the ``"auto"`` fallback chain above them, and the tests' oracle for
    ``direct``.
``direct``
    Sparse LU on the anchored system (one state's probability fixed, its
    balance equation dropped).  Default above :data:`GTH_CUTOFF` states.
    The fill-reducing order is computed once per sparsity pattern and
    kept in a small process-local cache, so a sweep whose points refill
    the rates of one structure orders once and only factors per point.
``power``
    Power iteration on the uniformized DTMC; a fallback of the
    ``"auto"`` chain, and the only solver that accepts a
    ``pi0`` starting vector.

:func:`steady_state` picks ``gth`` up to :data:`GTH_CUTOFF` (30) states
and ``direct`` above: even counting its first solve's ordering, the
sparse LU catches up with dense GTH between 12 and 30 states and is
~50x faster at a few thousand (``benchmarks/bench_solvers.py``, size
sweep).  In ``"auto"`` mode a failed solve **falls back** along the
remaining robust solvers (``gth -> direct -> power`` up to the cutoff,
``direct -> power -> gth`` above) rather than failing the caller: a
stiff breakdown chain that defeats one factorisation usually yields to
another.  Every failed attempt is recorded in the caller's ``info``
dict under ``fallbacks`` (method + error) and counted as a
``steady.fallback`` obs event; if the whole chain fails, the raised
:class:`SteadyStateError` chains the primary solver's exception.
Explicitly requested methods never fall back.

Every solver files a ``steady_state`` span (attributes: method, chain
size, achieved residual, LU fill and ordering or iteration count where
applicable) with the process-global
:mod:`repro.obs` recorder, and power iteration additionally emits a
per-iteration convergence trace (``steady_state.power``: the step-delta
series).  With the default :class:`~repro.obs.NullRecorder` all of this
is skipped behind a single attribute check per solve.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import obs
from repro.ctmc.generator import Generator

__all__ = [
    "SteadyStateError",
    "steady_state",
    "steady_state_gth",
    "steady_state_direct",
    "steady_state_power",
    "GTH_CUTOFF",
    "METHODS",
    "SOLVER_REVISION",
]

GTH_CUTOFF = 30
"""Largest chain :func:`steady_state` solves by dense GTH in ``"auto"``
mode; larger chains go to the sparse LU first and reach GTH only as the
last fallback."""

METHODS = ("auto", "direct", "gth", "power")
"""The ``method`` names :func:`steady_state` accepts."""

SOLVER_REVISION = "lu-mmd-v2"
"""Tag of the solvers' numerics, folded into every solve-cache key:
results that differ at rounding level between solver revisions must not
be served from one disk cache."""

_PLAN_CACHE_SIZE = 16
"""Sparsity patterns whose LU plan :func:`steady_state_direct` keeps."""


class SteadyStateError(RuntimeError):
    """Raised when a steady-state solve fails or does not converge."""


def _as_Q(g) -> sp.csr_matrix:
    if isinstance(g, Generator):
        return g.Q
    return sp.csr_matrix(g, dtype=np.float64)


def _check_pi0(pi0, n: int) -> np.ndarray:
    """Validate and normalise a warm-start vector.

    Raises :class:`ValueError` (not :class:`SteadyStateError`: a bad guess
    is a caller bug, not a convergence failure) on wrong shape/length,
    non-finite or negative entries, or a vector that sums to zero.
    """
    pi0 = np.asarray(pi0, dtype=np.float64)
    if pi0.ndim != 1:
        raise ValueError(f"pi0 must be a 1-D vector, got shape {pi0.shape}")
    if pi0.shape[0] != n:
        raise ValueError(f"pi0 has length {pi0.shape[0]}, chain has {n} states")
    if not np.all(np.isfinite(pi0)):
        raise ValueError("pi0 has non-finite entries")
    if np.any(pi0 < 0):
        raise ValueError("pi0 has negative entries")
    total = pi0.sum()
    if total <= 0:
        raise ValueError("pi0 sums to zero; cannot normalise")
    return pi0 / total


def _record_info(info, **fields) -> None:
    """Write solver diagnostics into the caller's ``info`` dict, if any."""
    if info is not None:
        info.update(fields)


def _check_result(
    pi: np.ndarray, Q: sp.csr_matrix, tol: float
) -> "tuple[np.ndarray, float]":
    """Clip, normalise and verify a candidate; return it with its
    achieved residual ``max|pi Q|``."""
    pi = np.maximum(pi, 0.0)
    total = pi.sum()
    if not np.isfinite(total) or total <= 0:
        raise SteadyStateError("solver produced a non-normalisable vector")
    pi = pi / total
    residual = float(np.abs(pi @ Q).max())
    scale = max(1.0, float(np.abs(Q.diagonal()).max(initial=1.0)))
    if residual > tol * scale:
        raise SteadyStateError(
            f"steady-state residual too large: {residual:g} (tol {tol * scale:g})"
        )
    return pi, residual


def steady_state(
    generator,
    method: str = "auto",
    tol: float = 1e-8,
    pi0=None,
    info: dict | None = None,
) -> np.ndarray:
    """Stationary distribution of an irreducible CTMC.

    Parameters
    ----------
    generator :
        A :class:`~repro.ctmc.generator.Generator` or any sparse/dense
        generator matrix.  Non-finite entries raise ``ValueError`` before
        any solver runs.
    method :
        ``"auto"`` (default), ``"gth"``, ``"direct"`` or ``"power"``.
    tol :
        Residual tolerance used to verify the returned vector (relative to
        the largest exit rate).
    pi0 :
        Optional starting vector for ``power`` (e.g. the stationary
        distribution of a nearby parameter point); the direct methods
        (``gth``, ``direct``) ignore it, since they do not iterate.
        Validated before use: wrong length or negative entries raise
        ``ValueError``.
    info :
        Optional dict the solver fills with diagnostics: ``method`` and
        ``residual`` (the achieved ``max|pi Q|``) always, ``iterations``
        for ``power``, ``warm_started`` when a ``pi0`` was actually
        consumed, ``fill`` (nonzeros of the LU factors) and ``ordering``
        (``"mmd"`` or ``"colamd"``) for ``direct``, and -- in ``"auto"``
        mode -- ``fallbacks``, a list of ``{"method", "error"}`` records
        for every solver that failed before one succeeded (empty on a
        first-try solve).  Fields a method does not produce are ``None``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {list(METHODS)}")
    Q = _as_Q(generator)
    n = Q.shape[0]
    if n == 0:
        raise SteadyStateError("empty chain")
    if not np.isfinite(Q.data).all():
        # a nan/inf rate is a caller bug: no solver can converge on it,
        # and the auto chain would otherwise grind through all of them
        raise ValueError("generator has non-finite entries")
    if n == 1:
        _record_info(
            info, method=method, iterations=0, warm_started=False,
            residual=0.0, fill=None, ordering=None,
        )
        return np.ones(1)

    def run(m: str) -> np.ndarray:
        _record_info(
            info, method=m, iterations=None, warm_started=False,
            residual=None, fill=None, ordering=None,
        )
        if m == "power":
            return steady_state_power(Q, tol=tol, pi0=pi0, info=info)
        solver = steady_state_gth if m == "gth" else steady_state_direct
        return solver(Q, tol=tol, info=info)

    if method == "auto":
        chain = (
            ("gth", "direct", "power")
            if n <= GTH_CUTOFF
            else ("direct", "power", "gth")
        )
        rec = obs.recorder()
        fallbacks: list = []
        first_exc: SteadyStateError | None = None
        for m in chain:
            try:
                pi = run(m)
            except SteadyStateError as exc:
                fallbacks.append({"method": m, "error": str(exc)})
                _record_info(info, fallbacks=list(fallbacks))
                if rec.enabled:
                    rec.add("steady.fallback")
                if first_exc is None:
                    first_exc = exc
                continue
            _record_info(info, fallbacks=list(fallbacks))
            return pi
        raise SteadyStateError(
            "all auto solvers failed: "
            + "; ".join(f"{f['method']}: {f['error']}" for f in fallbacks)
        ) from first_exc
    return run(method)


def steady_state_gth(
    generator, tol: float = 1e-8, info: dict | None = None
) -> np.ndarray:
    """GTH elimination (subtraction-free state reduction).

    Numerically the most robust option; O(n^3) time and dense O(n^2)
    storage, so ``"auto"`` mode runs it first only on chains of at most
    :data:`GTH_CUTOFF` states.  ``info`` receives the achieved
    ``residual``.
    """
    Q = _as_Q(generator)
    n = Q.shape[0]
    rec = obs.recorder()
    t0 = time.perf_counter() if rec.enabled else 0.0
    A = Q.toarray().astype(np.float64, copy=True)
    np.fill_diagonal(A, 0.0)
    # Eliminate states n-1 .. 1.  After eliminating state k, A[:k, :k]
    # holds the rate matrix of the chain censored to states 0..k-1; the
    # column A[:k, k] (rates into k from surviving states, including paths
    # through already-eliminated states) and the elimination total s_k are
    # kept for back-substitution: pi_k = (sum_{i<k} pi_i A[i,k]) / s_k.
    s_elim = np.empty(n)
    for k in range(n - 1, 0, -1):
        s = A[k, :k].sum()
        if s <= 0.0:
            raise SteadyStateError(
                f"GTH: state {k} has no rate back into lower states; "
                "chain is not irreducible"
            )
        s_elim[k] = s
        A[k, :k] /= s
        # rank-1 update: rates into k get redistributed along A[k, :k]
        col = A[:k, k]
        nz = np.flatnonzero(col)
        if nz.size:
            A[np.ix_(nz, range(k))] += np.outer(col[nz], A[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = (pi[:k] @ A[:k, k]) / s_elim[k]
    pi, residual = _check_result(pi, Q, tol)
    _record_info(info, residual=residual)
    if rec.enabled:
        rec.record_span(
            "steady_state",
            t0,
            time.perf_counter() - t0,
            method="gth",
            n=n,
            residual=residual,
        )
    return pi


@dataclass(frozen=True)
class _LUPlan:
    """The ordered anchored system of one sparsity pattern.

    The plan anchors the first state (the models' initial, empty state:
    a likely one, so the reduced system is well conditioned) and solves
    ``M y = -c`` for ``M = A^T`` (``A``: the generator without its first
    row and column) and ``c`` the first row's off-diagonal part.  It
    factors ``B = M[q][:, q]``, whose CSC structure is ``indptr`` /
    ``indices`` and whose values are ``Q.data[gather]``; ``c``'s rates
    ``Q.data[rhs_src]`` sit at ``rhs_dst`` of the permuted right-hand
    side, and the solution of ``B z = rhs`` is ``pi[states] = z``.
    """

    states: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    gather: np.ndarray
    rhs_src: np.ndarray
    rhs_dst: np.ndarray


# shared by every caller in the process: a plan depends on the sparsity
# pattern alone, so whether one is cached changes a solve's time, never
# its result
_plans: "OrderedDict[tuple, _LUPlan]" = OrderedDict()
_plans_lock = threading.Lock()


def _build_plan(Q: sp.csr_matrix) -> _LUPlan:
    """Order ``Q``'s anchored system and build its gather map.

    The order is SuperLU's minimum degree on ``M^T + M``, taken from an
    incomplete factor that drops every off-diagonal entry (its column
    order equals the full factor's at a fraction of the cost).
    """
    n = Q.shape[0]
    # number Q's entries 1..nnz (a 0 would read as a structural zero):
    # sliced and permuted, the numbers say where each entry comes from
    pos = sp.csr_matrix(
        (np.arange(1, Q.nnz + 1), Q.indices, Q.indptr), shape=Q.shape
    )[1:, 1:]
    # A's CSR arrays are M = A^T's CSC arrays
    pos = sp.csc_matrix((pos.data, pos.indices, pos.indptr), shape=(n - 1, n - 1))
    M = sp.csc_matrix((Q.data[pos.data - 1], pos.indices, pos.indptr), shape=pos.shape)
    perm = spla.spilu(
        M,
        permc_spec="MMD_AT_PLUS_A",
        drop_tol=1e300,
        fill_factor=1,
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    ).perm_c
    q = np.argsort(perm)
    B = sp.csc_matrix(pos[q][:, q])
    B.sort_indices()
    first = np.arange(Q.indptr[0], Q.indptr[1])
    first = first[Q.indices[first] != 0]
    return _LUPlan(
        states=q + 1,
        indptr=B.indptr,
        indices=B.indices,
        gather=B.data - 1,
        rhs_src=first,
        rhs_dst=perm[Q.indices[first] - 1],
    )


def _plan(Q: sp.csr_matrix) -> _LUPlan:
    """The cached plan for ``Q``'s sparsity pattern, built on a miss."""
    digest = hashlib.blake2b(Q.indptr.tobytes(), digest_size=16)
    digest.update(Q.indices.tobytes())
    key = (Q.shape[0], Q.nnz, digest.hexdigest())
    with _plans_lock:
        plan = _plans.get(key)
        if plan is not None:
            _plans.move_to_end(key)
            return plan
    plan = _build_plan(Q)
    rec = obs.recorder()
    if rec.enabled:
        rec.add("steady.order")
    with _plans_lock:
        _plans[key] = plan
        while len(_plans) > _PLAN_CACHE_SIZE:
            _plans.popitem(last=False)
    return plan


def _solve_planned(Q: sp.csr_matrix) -> "tuple[np.ndarray, int]":
    """Unnormalised ``pi`` (first state = 1) and the LU fill, from the
    pattern's cached order and an unpivoted factor."""
    plan = _plan(Q)
    m = plan.states.size
    B = sp.csc_matrix(
        (Q.data[plan.gather], plan.indices, plan.indptr), shape=(m, m)
    )
    lu = spla.splu(
        B,
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    rhs = np.zeros(m)
    rhs[plan.rhs_dst] = -Q.data[plan.rhs_src]
    pi = np.empty(m + 1)
    pi[0] = 1.0
    pi[plan.states] = lu.solve(rhs)
    return pi, int(lu.nnz)


def _solve_colamd(
    Q: sp.csr_matrix, tol: float
) -> "tuple[np.ndarray, float, int, bool]":
    """SuperLU with its own COLAMD order and partial pivoting, anchored at
    the last state and, if that fails the residual check, re-anchored at
    the most likely one.  Returns ``(pi, residual, fill, reanchored)``."""
    n = Q.shape[0]
    fill = 0

    def solve_anchored(anchor: int) -> np.ndarray:
        nonlocal fill
        keep = np.arange(n) != anchor
        A = sp.csc_matrix(Q[keep][:, keep].T)
        c = np.asarray(Q[anchor, :].todense()).ravel()[keep]
        try:
            lu = spla.splu(A, permc_spec="COLAMD")
        except RuntimeError as exc:  # singular factor
            raise SteadyStateError(f"sparse LU failed: {exc}") from exc
        fill = int(lu.nnz)
        y = lu.solve(-c)
        if not np.all(np.isfinite(y)):
            raise SteadyStateError("sparse LU produced non-finite entries")
        pi = np.empty(n)
        pi[keep] = y
        pi[anchor] = 1.0
        return pi

    pi = solve_anchored(n - 1)
    try:
        return (*_check_result(pi, Q, tol), fill, False)
    except SteadyStateError:
        # anchoring a tiny-probability state loses accuracy on stiff
        # chains; re-anchor at the (estimated) most likely state -- by
        # magnitude, since the failed solve may carry sign errors
        anchor = int(np.argmax(np.abs(pi)))
        if anchor == n - 1:  # first anchor dominated: nothing to learn
            raise
        return (*_check_result(solve_anchored(anchor), Q, tol), fill, True)


def steady_state_direct(
    generator, tol: float = 1e-8, info: dict | None = None
) -> np.ndarray:
    """Sparse LU via state elimination.

    Fixing one state's ``pi`` to 1 (up to normalisation), the balance
    equations of the others read ``A^T y = -c``, where ``A`` is the
    generator with that state's row and column deleted and ``c`` its
    row's off-diagonal part.  Unlike replacing an equation with the
    (dense) normalisation row, this keeps the factorisation sparse -- a
    row of ones causes catastrophic fill-in in SuperLU (measured ~50x
    slower on the paper's 10^4-state chains).

    The first state is the anchor.  A symmetric minimum-degree order of
    ``A^T`` is computed once per sparsity pattern and cached
    (process-local, the last ``_PLAN_CACHE_SIZE`` patterns, keyed by
    size, nnz and a digest of ``indptr``/``indices``) together with the
    map that gathers the permuted system from ``Q.data``.  Every solve,
    the first included, factors the permuted matrix in that order
    without pivoting, so a point's result does not depend on which
    points were solved before it.  Pivoting is not needed in exact
    arithmetic: ``A^T`` is a nonsingular column-diagonally-dominant
    M-matrix for an irreducible chain.  In floating point a pivot can
    lose its sign when the anchor is a very unlikely state, so a raise
    from the order or the factor, or a result failing the residual
    check, falls back to SuperLU's COLAMD order with partial pivoting,
    anchored at the last state and re-anchored at the most likely one
    if needed.  ``info`` receives ``residual``, ``fill`` (SuperLU's
    stored L + U nonzeros) and ``ordering`` (``"mmd"``, or ``"colamd"``
    on the fallback).
    """
    Q = _as_Q(generator)
    n = Q.shape[0]
    rec = obs.recorder()
    t0 = time.perf_counter() if rec.enabled else 0.0
    if not Q.has_canonical_format:
        Q = Q.copy()
        Q.sum_duplicates()
    reanchored = False
    try:
        pi, fill = _solve_planned(Q)
        pi, residual = _check_result(pi, Q, tol)
        ordering = "mmd"
    except (RuntimeError, ValueError):  # SteadyStateError included
        pi, residual, fill, reanchored = _solve_colamd(Q, tol)
        ordering = "colamd"
    _record_info(info, residual=residual, fill=fill, ordering=ordering)
    if rec.enabled:
        rec.record_span(
            "steady_state",
            t0,
            time.perf_counter() - t0,
            method="direct",
            n=n,
            reanchored=reanchored,
            residual=residual,
            fill=fill,
            ordering=ordering,
        )
    return pi


def steady_state_power(
    generator,
    tol: float = 1e-8,
    max_iter: int = 2_000_000,
    check_every: int = 50,
    pi0=None,
    info: dict | None = None,
) -> np.ndarray:
    """Power iteration on the uniformized DTMC ``P = I + Q / Lambda``.

    Aperiodicity is guaranteed by choosing ``Lambda`` strictly above the
    maximum exit rate.  ``pi0`` warm-starts the iteration (defaults to
    uniform); a good guess from a nearby parameter point cuts the
    iteration count drastically.
    """
    Q = _as_Q(generator)
    n = Q.shape[0]
    rec = obs.recorder()
    t0 = time.perf_counter() if rec.enabled else 0.0
    trace = [] if rec.enabled else None
    lam = float(-Q.diagonal().min()) * 1.05
    if lam <= 0:
        raise SteadyStateError("chain has no transitions")
    P = sp.eye(n, format="csr") + Q / lam
    pi = np.full(n, 1.0 / n) if pi0 is None else _check_pi0(pi0, n)
    delta = float("inf")
    for it in range(1, max_iter + 1):
        new = pi @ P
        new /= new.sum()
        if it % check_every == 0:
            delta = float(np.abs(new - pi).max())
            if trace is not None:
                trace.append((it, delta))
            if delta < tol * 1e-2:
                pi = new
                break
        pi = new
    else:
        residual = float(np.abs(pi @ Q).max())
        raise SteadyStateError(
            f"power iteration did not converge in {max_iter} iterations: "
            f"last step delta {delta:g} (target {tol * 1e-2:g}), "
            f"achieved residual {residual:g}"
        )
    _record_info(info, method="power", iterations=it, warm_started=pi0 is not None)
    pi, residual = _check_result(pi, Q, tol)
    _record_info(info, residual=residual)
    if rec.enabled:
        rec.record_span(
            "steady_state",
            t0,
            time.perf_counter() - t0,
            method="power",
            n=n,
            iterations=it,
            warm_started=pi0 is not None,
            residual=residual,
        )
        rec.trace("steady_state.power", trace, n=n)
    return pi

