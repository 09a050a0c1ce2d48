"""Sparse CTMC generator matrices.

A continuous-time Markov chain on states ``0 .. n-1`` is described by its
generator matrix ``Q`` where ``Q[i, j]`` (``i != j``) is the transition rate
from state ``i`` to state ``j`` and each diagonal entry makes the row sum to
zero.  :class:`Generator` wraps a SciPy CSR matrix, validates the generator
property on construction and keeps (optionally) a per-action decomposition
``Q = sum_a R_a + diagonal`` so that action throughputs can be computed for
process-algebra derived chains.

Construction is vectorised: callers accumulate ``(src, dst, rate)`` triples
(NumPy arrays or Python lists) and build once.  Duplicate ``(src, dst)``
pairs are summed, matching the multi-transition-system semantics of PEPA
(two distinct activities between the same pair of states add their rates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = ["Generator", "TransitionBatch"]


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
        from repro.ctmc.bfs import assemble_generator  # bfs imports us

        n = n_states if n_states is not None else self.n_states
        if n is None:
            if not self._src:
                raise ValueError("cannot infer state count from an empty batch")
            n = int(max(int(s.max()) for s in self._src if s.size) + 1)
            n = max(n, int(max(int(d.max()) for d in self._dst if d.size) + 1))
        src = np.concatenate(self._src) if self._src else np.empty(0, np.int64)
        dst = np.concatenate(self._dst) if self._dst else np.empty(0, np.int64)
        rate = np.concatenate(self._rate) if self._rate else np.empty(0, np.float64)
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
        action_rates: Mapping[str, sp.spmatrix] | None = None,
    ) -> "Generator":
        """Build from off-diagonal transition triples; the diagonal is set
        so each row sums to zero.  Self-loop triples (``src == dst``) are
        legal and simply cancel out of the generator (they still count for
        any action-labelled rate matrices supplied separately), matching the
        CTMC semantics where a self-loop is unobservable in the stationary
        distribution.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        rate = np.asarray(rate, dtype=np.float64)
        if rate.size and rate.min() < 0:
            raise ValueError("negative transition rate")
        keep = src != dst
        R = sp.csr_matrix(
            (rate[keep], (src[keep], dst[keep])), shape=(n_states, n_states)
        )
        R.sum_duplicates()
        exit_rates = np.asarray(R.sum(axis=1)).ravel()
        Q = R - sp.diags(exit_rates, format="csr")
        return cls(Q, action_rates=action_rates, validate=False)

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

