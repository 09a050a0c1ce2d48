"""General phase-type distribution PH(alpha, T).

A phase-type random variable is the absorption time of a CTMC with ``m``
transient phases, sub-generator ``T`` (m x m, strictly negative diagonal,
non-negative off-diagonal, row sums <= 0) and initial phase distribution
``alpha`` (an atom at zero is allowed when ``sum(alpha) < 1``).

Standard identities used below (Neuts 1981):

* pdf   ``f(x)  = alpha expm(T x) t0`` with exit vector ``t0 = -T 1``
* cdf   ``F(x)  = 1 - alpha expm(T x) 1``
* moments ``E[X^k] = k! alpha (-T)^{-k} 1``
* LST   ``f*(s) = alpha (sI - T)^{-1} t0 (+ atom)``

All matrix functions are evaluated with dense SciPy routines: the phase
counts in this reproduction are tiny (<= a few dozen), so clarity wins over
sparsity here.

Sampling walks the absorbing chain.  Every discrete choice -- the start
phase, then each jump -- inverts a normalised cdf built once at
construction, ``cdf.searchsorted(rng.random(size), "right")``, which is
what ``rng.choice(p=)`` computes internally, so the stream is the one
``choice`` would give.  :meth:`PhaseType.draw` is the scalar form of
:meth:`PhaseType.sample`: ``draw(rng) == sample(1, rng)[0]`` on the same
generator state, at a fraction of the cost; the simulators call it once
per arrival.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

__all__ = ["PhaseType"]


def _normalised_cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, each row divided by its
    total: ``rng.choice(p=)``'s table, so inverting it with
    ``searchsorted(u, "right")`` reproduces ``choice``'s draws."""
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


class PhaseType:
    """Phase-type distribution PH(alpha, T).

    Parameters
    ----------
    alpha :
        Initial distribution over the ``m`` transient phases.  May sum to
        less than one; the deficit is an atom at zero.
    T :
        ``m x m`` sub-generator.
    """

    def __init__(self, alpha, T, *, atol: float = 1e-10) -> None:
        alpha = np.asarray(alpha, dtype=float).ravel()
        T = np.asarray(T, dtype=float)
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise ValueError(f"T must be square, got shape {T.shape}")
        m = T.shape[0]
        if alpha.shape != (m,):
            raise ValueError(f"alpha shape {alpha.shape} != ({m},)")
        if alpha.min() < -atol:
            raise ValueError("alpha has negative entries")
        if alpha.sum() > 1 + 1e-9:
            raise ValueError(f"alpha sums to {alpha.sum()} > 1")
        off = T - np.diag(np.diag(T))
        if off.min() < -atol:
            raise ValueError("T has negative off-diagonal entries")
        if np.any(np.diag(T) >= 0):
            raise ValueError("T diagonal must be strictly negative")
        rowsum = T.sum(axis=1)
        if rowsum.max() > atol:
            raise ValueError("T row sums must be <= 0")
        self.alpha = np.maximum(alpha, 0.0)
        self.T = T
        self.exit = np.maximum(-rowsum, 0.0)
        # the sampler's tables: mean sojourn per phase, the start-phase
        # cdf (index m = the atom at zero) and one jump cdf per phase
        # (column m = absorption), each normalised as rng.choice does
        rates = -np.diag(T)
        self._scales = 1.0 / rates
        start = np.concatenate([self.alpha, [self.atom_at_zero]])
        self._start_cdf = _normalised_cdf(start / start.sum())
        jumps = np.zeros((m, m + 1))
        jumps[:, :m] = T / rates[:, None]
        jumps[np.arange(m), np.arange(m)] = 0.0
        jumps[:, m] = self.exit / rates
        self._jump_cdf = _normalised_cdf(jumps)
        self._draw_tables = (
            self._start_cdf.tolist(), self._scales.tolist(), self._jump_cdf.tolist()
        )

    # ------------------------------------------------------------------
    @property
    def n_phases(self) -> int:
        return self.T.shape[0]

    @property
    def atom_at_zero(self) -> float:
        """Probability mass at x = 0."""
        return max(0.0, 1.0 - float(self.alpha.sum()))

    # ------------------------------------------------------------------
    def pdf(self, x) -> np.ndarray:
        """Density at ``x`` (the atom at zero, if any, is not included)."""
        import scipy.linalg

        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        for i, xi in enumerate(x):
            if xi < 0:
                continue
            out[i] = float(self.alpha @ scipy.linalg.expm(self.T * xi) @ self.exit)
        return out if out.size > 1 else out

    def cdf(self, x) -> np.ndarray:
        import scipy.linalg

        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        ones = np.ones(self.n_phases)
        for i, xi in enumerate(x):
            if xi < 0:
                continue
            out[i] = 1.0 - float(self.alpha @ scipy.linalg.expm(self.T * xi) @ ones)
        return np.clip(out, 0.0, 1.0)

    def sf(self, x) -> np.ndarray:
        """Survival function ``P[X > x]``."""
        return 1.0 - self.cdf(x)

    def moment(self, k: int) -> float:
        """Raw moment ``E[X^k]``."""
        if k < 0:
            raise ValueError("negative moment order")
        if k == 0:
            return 1.0
        ones = np.ones(self.n_phases)
        Tinv_k = np.linalg.matrix_power(np.linalg.inv(-self.T), k)
        return float(math.factorial(k) * (self.alpha @ Tinv_k @ ones))

    @property
    def mean(self) -> float:
        return self.moment(1)

    @property
    def variance(self) -> float:
        m1 = self.moment(1)
        return self.moment(2) - m1 * m1

    @property
    def scv(self) -> float:
        """Squared coefficient of variation Var/Mean^2 (exponential = 1)."""
        m = self.mean
        return self.variance / (m * m)

    def laplace_transform(self, s) -> np.ndarray:
        """Laplace-Stieltjes transform ``E[e^{-sX}]``."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty_like(s)
        I = np.eye(self.n_phases)
        for i, si in enumerate(s):
            out[i] = self.atom_at_zero + float(
                self.alpha @ np.linalg.solve(si * I - self.T, self.exit)
            )
        return out

    # ------------------------------------------------------------------
    def sample(self, size: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Draw ``size`` iid samples by simulating the absorbing chain.

        Vectorised per phase-jump round: all walkers advance one phase
        transition per round, which keeps the Python-level loop count at the
        (small) expected number of jumps rather than the sample count.
        """
        rng = np.random.default_rng() if rng is None else rng
        m = self.n_phases
        total = np.zeros(size)
        phase = self._start_cdf.searchsorted(rng.random(size), "right")
        active = phase < m
        while active.any():
            idx = np.flatnonzero(active)
            ph = phase[idx]
            total[idx] += rng.exponential(self._scales[ph])
            u = rng.random(idx.size)
            # first column whose cdf exceeds u: searchsorted per row
            nxt = (u[:, None] < self._jump_cdf[ph]).argmax(axis=1)
            phase[idx] = nxt
            active[idx] = nxt < m
        return total

    def draw(self, rng: np.random.Generator) -> float:
        """One sample, ``== sample(1, rng)[0]``: the same draws in the
        same order, made one at a time."""
        start, scales, jumps = self._draw_tables
        m = len(scales)
        total = 0.0
        phase = bisect_right(start, rng.random())
        while phase < m:
            total += rng.exponential(scales[phase])
            phase = bisect_right(jumps[phase], rng.random())
        return total

    # ------------------------------------------------------------------
    def as_ph(self) -> "PhaseType":
        """Return self (concrete families override to upcast)."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(phases={self.n_phases}, "
            f"mean={self.mean:.6g}, scv={self.scv:.6g})"
        )
