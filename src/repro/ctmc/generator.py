"""Sparse CTMC generator matrices.

A continuous-time Markov chain on states ``0 .. n-1`` is described by its
generator matrix ``Q`` where ``Q[i, j]`` (``i != j``) is the transition rate
from state ``i`` to state ``j`` and each diagonal entry makes the row sum to
zero.  :class:`Generator` wraps a SciPy CSR matrix, validates the generator
property on construction and keeps (optionally) a per-action decomposition
``Q = sum_a R_a + diagonal`` so that action throughputs can be computed for
process-algebra derived chains.

Every generator built from transitions goes through one assembler:
:class:`GeneratorPattern` sorts a transition structure once and
:meth:`~GeneratorPattern.fill` sums a rate vector into it.
:func:`assemble_generator`, :meth:`Generator.from_triples` and
:meth:`TransitionBatch.to_generator` build and fill once; the compiled
PEPA engine keeps its pattern across rate refills.  Parallel transitions
on one ``(src, dst)`` pair are summed, matching the multi-transition-system
semantics of PEPA (two distinct activities between the same pair of
states add their rates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = ["Generator", "GeneratorPattern", "TransitionBatch", "assemble_generator"]


def stable_groups(idx: np.ndarray, *keys: np.ndarray):
    """Sort transitions ``idx`` stably by the integer ``keys`` (most
    significant first); return them with each one's group id (equal keys
    share one) and the first transition of every group."""
    cols = [k[idx] for k in keys]
    packed = _packed(cols)
    if packed is None:
        perm = np.lexsort(cols[::-1])
        sorted_cols = [c[perm] for c in cols]
    else:
        perm = np.argsort(packed, kind="stable")
        sorted_cols = [packed[perm]]
    order = idx[perm]
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for ks in sorted_cols:
        new[1:] |= ks[1:] != ks[:-1]
    return order, np.cumsum(new) - 1, order[new]


def _packed(cols: list) -> "np.ndarray | None":
    """Integer columns as one ``int64`` key of the same lexicographic
    order (one stable sort instead of one per column), or ``None`` when
    their value ranges multiply past ``int64``."""
    bounds = [(int(c.min()), int(c.max())) for c in cols] if cols[0].size else []
    span = 1
    for lo, hi in bounds:
        span *= hi - lo + 1
    if span >= 2**63:
        return None
    packed = np.zeros(cols[0].size, dtype=np.int64)
    for c, (lo, hi) in zip(cols, bounds):
        packed *= hi - lo + 1
        packed += c - lo
    return packed


def _indptr(rows: np.ndarray, n: int, dtype) -> np.ndarray:
    """CSR row pointer of entries in the sorted ``rows``."""
    return np.searchsorted(rows, np.arange(n + 1)).astype(dtype)


class GeneratorPattern:
    """The CSR layout of one transition structure, filled per rate vector.

    ``act[i]`` indexes transition ``i``'s label in ``actions``; ``-1``
    (all of them when ``act`` is ``None``) leaves it unlabelled: in
    ``Q``, in no action matrix.  The semantics are SciPy's COO assembly:
    parallel transitions add up in input order, a self-loop counts in its
    action matrix only, a row without exits stores no diagonal, and
    ``Q`` drops entries that sum to zero (action matrices keep them).
    """

    def __init__(self, n, src, dst, act=None, actions: Sequence[str] = ()):
        n = int(n)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        act = np.full(src.shape, -1) if act is None else np.asarray(act, np.int64)
        if not (src.ndim == 1 and src.shape == dst.shape == act.shape):
            raise ValueError("src/dst/act must be 1-d arrays of one length")
        if src.size and (
            min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n
        ):
            raise ValueError(f"transition endpoint outside [0, {n})")
        if act.size and (act.min() < -1 or act.max() >= len(actions)):
            raise ValueError("action code outside the action list")
        self.n = n
        self.size = src.size
        # the index dtype SciPy itself would pick, so it never re-casts
        idx_t = np.int32 if n + src.size < 2**31 else np.int64
        # Q: off-diagonal transitions summed per (src, dst), merged in
        # column order with a diagonal slot for each row that has an exit
        self._q_order, self._q_group, first = stable_groups(
            np.flatnonzero(src != dst), src, dst
        )
        rows, cols = src[first], dst[first]
        self._row_starts = np.flatnonzero(np.diff(rows, prepend=-1))
        r = np.concatenate((rows, rows[self._row_starts]))
        c = np.concatenate((cols, rows[self._row_starts]))
        self._perm = np.lexsort((c, r))
        self._q_csr = c[self._perm].astype(idx_t), _indptr(r[self._perm], n, idx_t)
        # per action: labelled transitions summed per (action, src, dst)
        self._a_order, self._a_group, first = stable_groups(
            np.flatnonzero(act >= 0), act, src, dst
        )
        bounds = np.searchsorted(act[first], np.arange(len(actions) + 1))
        self._actions = [
            (name, lo, hi, dst[first[lo:hi]].astype(idx_t),
             _indptr(src[first[lo:hi]], n, idx_t))
            for name, lo, hi in zip(actions, bounds[:-1], bounds[1:])
            if hi > lo
        ]

    def fill(self, rate: Sequence[float]) -> "Generator":
        """The :class:`Generator` of this structure under ``rate`` (one
        finite, non-negative rate per transition).  Each call returns
        fresh CSR arrays, so mutating one generator leaves the pattern
        intact."""
        rate = np.asarray(rate, dtype=np.float64)
        if rate.shape != (self.size,):
            raise ValueError(f"expected {self.size} rates, got shape {rate.shape}")
        if rate.size and not (np.isfinite(rate).all() and rate.min() >= 0):
            raise ValueError("transition rates must be finite and non-negative")
        n, (indices, indptr) = self.n, self._q_csr
        # bincount adds a group's rates in input order, as SciPy sums
        # duplicates; reduceat over a row's entries is SciPy's row sum
        entries = np.bincount(self._q_group, rate[self._q_order])
        exits = np.add.reduceat(entries, self._row_starts) if entries.size else entries
        data = np.concatenate((entries, -exits))[self._perm]
        Q = sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))
        if not data.all():
            Q.eliminate_zeros()
        vals = np.bincount(self._a_group, rate[self._a_order])
        action_rates = {
            name: sp.csr_matrix((vals[lo:hi], cols.copy(), ptr.copy()), shape=(n, n))
            for name, lo, hi, cols, ptr in self._actions
        }
        return Generator._adopt(Q, action_rates)


def assemble_generator(n, src, dst, rate, act: Sequence) -> "Generator":
    """Assemble a labelled :class:`Generator` from transition arrays.

    ``act[i]`` labels transition ``i``; ``None`` marks an unlabelled
    transition, which enters ``Q`` but no per-action matrix (see
    :class:`GeneratorPattern`).  Deterministic: equal inputs give
    bit-identical generators.
    """
    names = sorted({a for a in act if a is not None})
    code = {a: k for k, a in enumerate(names)}
    codes = np.fromiter((code.get(a, -1) for a in act), np.int64, count=len(act))
    return GeneratorPattern(n, src, dst, codes, names).fill(rate)


@dataclass
class TransitionBatch:
    """Accumulator for transition triples, optionally labelled by action.

    Appending is O(1) amortised per call; ``to_generator`` assembles a
    :class:`Generator` in one vectorised pass.
    """

    n_states: int | None = None
    _src: list = field(default_factory=list)
    _dst: list = field(default_factory=list)
    _rate: list = field(default_factory=list)
    _action: list = field(default_factory=list)

    def add(self, src, dst, rate, action: str | None = None) -> None:
        """Add one transition or an array batch of transitions.

        ``src``, ``dst`` and ``rate`` may be scalars or equal-length
        sequences.  ``action`` labels the whole batch.
        """
        src = np.atleast_1d(np.asarray(src, dtype=np.int64))
        dst = np.atleast_1d(np.asarray(dst, dtype=np.int64))
        rate = np.atleast_1d(np.asarray(rate, dtype=np.float64))
        if not (src.shape == dst.shape == rate.shape):
            raise ValueError(
                f"src/dst/rate shapes differ: {src.shape} {dst.shape} {rate.shape}"
            )
        self._src.append(src)
        self._dst.append(dst)
        self._rate.append(rate)
        self._action.append(action)

    def to_generator(self, n_states: int | None = None) -> "Generator":
        """Assemble the accumulated triples into a :class:`Generator`."""
        src = np.concatenate(self._src) if self._src else np.empty(0, np.int64)
        dst = np.concatenate(self._dst) if self._dst else np.empty(0, np.int64)
        rate = np.concatenate(self._rate) if self._rate else np.empty(0, np.float64)
        n = n_states if n_states is not None else self.n_states
        if n is None:
            if not src.size:
                raise ValueError("cannot infer state count from an empty batch")
            n = 1 + int(max(src.max(), dst.max()))
        act = np.repeat(
            np.asarray(self._action, dtype=object), [s.size for s in self._src]
        )
        return assemble_generator(n, src, dst, rate, act)


class Generator:
    """A validated sparse CTMC generator matrix.

    Parameters
    ----------
    Q :
        Square sparse matrix with non-negative off-diagonal entries and zero
        row sums (within ``atol``).
    action_rates :
        Optional mapping ``action -> sparse rate matrix`` whose entries are
        the rates of transitions carrying that action label.  Used for
        throughput rewards; the off-diagonal part of ``Q`` need not equal the
        sum of the labelled matrices (hidden/unlabelled transitions are
        allowed).
    """

    def __init__(
        self,
        Q: sp.spmatrix,
        action_rates: Mapping[str, sp.spmatrix] | None = None,
        *,
        atol: float = 1e-9,
        validate: bool = True,
    ) -> None:
        Q = sp.csr_matrix(Q, dtype=np.float64)
        if Q.shape[0] != Q.shape[1]:
            raise ValueError(f"generator must be square, got {Q.shape}")
        if validate:
            off = Q.copy()
            off.setdiag(0.0)
            off.eliminate_zeros()
            if off.nnz and off.data.min() < -atol:
                raise ValueError(
                    "negative off-diagonal rate in generator: "
                    f"min={off.data.min():g}"
                )
            rowsum = np.asarray(Q.sum(axis=1)).ravel()
            scale = np.maximum(1.0, np.abs(Q.diagonal()))
            bad = np.abs(rowsum) > atol * scale
            if bad.any():
                i = int(np.argmax(np.abs(rowsum)))
                raise ValueError(
                    f"generator row sums not zero (e.g. row {i}: {rowsum[i]:g})"
                )
        self.Q = Q
        self.action_rates: dict[str, sp.csr_matrix] = {
            a: sp.csr_matrix(m, dtype=np.float64)
            for a, m in (action_rates or {}).items()
        }

    @classmethod
    def _adopt(cls, Q: sp.csr_matrix, action_rates: dict) -> "Generator":
        """Wrap CSR float64 matrices as they are: no copy, no checks (for
        :meth:`GeneratorPattern.fill`, which builds them that way)."""
        g = cls.__new__(cls)
        g.Q = Q
        g.action_rates = action_rates
        return g

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_triples(
        cls,
        n_states: int,
        src: Sequence[int],
        dst: Sequence[int],
        rate: Sequence[float],
    ) -> "Generator":
        """Build from unlabelled transition triples (finite,
        non-negative rates; states in ``[0, n_states)``); the diagonal
        makes each row sum to zero and self-loops cancel out."""
        return GeneratorPattern(n_states, src, dst).fill(rate)

    @classmethod
    def from_dense(cls, Q: np.ndarray, **kw) -> "Generator":
        """Build from a dense generator matrix (small models, tests)."""
        return cls(sp.csr_matrix(np.asarray(Q, dtype=np.float64)), **kw)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        return self.Q.shape[0]

    @property
    def exit_rates(self) -> np.ndarray:
        """Total rate out of each state (non-negative vector)."""
        return -self.Q.diagonal()

    @property
    def uniformization_rate(self) -> float:
        """Smallest valid uniformization constant (max exit rate)."""
        d = self.exit_rates
        return float(d.max()) if d.size else 0.0

    def off_diagonal(self) -> sp.csr_matrix:
        """The rate matrix ``R`` with the diagonal removed."""
        R = self.Q.copy()
        R.setdiag(0.0)
        R.eliminate_zeros()
        return R

    def embedded_dtmc(self) -> sp.csr_matrix:
        """Jump-chain transition matrix (rows of absorbing states are
        identity)."""
        R = self.off_diagonal()
        d = self.exit_rates
        inv = np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 0.0)
        P = sp.diags(inv) @ R
        P = sp.csr_matrix(P)
        absorbing = np.flatnonzero(d <= 0)
        if absorbing.size:
            eye = sp.csr_matrix(
                (np.ones(absorbing.size), (absorbing, absorbing)),
                shape=P.shape,
            )
            P = P + eye
        return sp.csr_matrix(P)

    def dense(self) -> np.ndarray:
        return self.Q.toarray()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Generator(n_states={self.n_states}, nnz={self.Q.nnz}, "
            f"actions={sorted(self.action_rates)})"
        )

