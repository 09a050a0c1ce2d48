"""Bounded Pareto distribution B(k, p, a).

Harchol-Balter's TAGS analysis (the paper's reference [5]) uses the bounded
Pareto as the empirically observed heavy-tailed job-size distribution::

    f(x) = a k^a x^{-a-1} / (1 - (k/p)^a),   k <= x <= p

Our paper approximates it with an H2 whose parameters "broadly correspond"
(Section 5).  The simulator uses the bounded Pareto directly so the
CTMC-vs-simulation benches can probe what the Markovian approximation
misses.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BoundedPareto"]


class BoundedPareto:
    """Bounded Pareto on [k, p] with tail index ``a > 0``."""

    def __init__(self, k: float, p: float, a: float) -> None:
        if not (0 < k < p):
            raise ValueError(f"need 0 < k < p, got k={k}, p={p}")
        if a <= 0:
            raise ValueError(f"tail index must be positive, got {a}")
        self.k = float(k)
        self.p = float(p)
        self.a = float(a)
        self._norm = 1.0 - (k / p) ** a

    def pdf(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        inside = (x >= self.k) & (x <= self.p)
        out = np.zeros_like(x)
        out[inside] = (
            self.a * self.k**self.a * x[inside] ** (-self.a - 1) / self._norm
        )
        return out

    def cdf(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.clip((1.0 - (self.k / x) ** self.a) / self._norm, 0.0, 1.0)
        out[x < self.k] = 0.0
        out[x >= self.p] = 1.0
        return out

    def moment(self, r: int) -> float:
        """Raw moment ``E[X^r]`` (closed form; handles ``r == a``)."""
        k, p, a = self.k, self.p, self.a
        if abs(a - r) < 1e-12:
            return a * k**a * np.log(p / k) / self._norm
        return (a * k**a / self._norm) * (p ** (r - a) - k ** (r - a)) / (r - a)

    @property
    def mean(self) -> float:
        return self.moment(1)

    @property
    def variance(self) -> float:
        m = self.mean
        return self.moment(2) - m * m

    @property
    def scv(self) -> float:
        m = self.mean
        return self.variance / (m * m)

    def sample(self, size: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Inverse-CDF sampling."""
        rng = np.random.default_rng() if rng is None else rng
        u = rng.random(size)
        # invert F(x) = (1 - (k/x)^a) / norm
        return self.k * (1.0 - u * self._norm) ** (-1.0 / self.a)

    def draw(self, rng: np.random.Generator) -> float:
        """One sample, ``== sample(1, rng)[0]``.  The power goes through
        ``np.power`` as in :meth:`sample`: NumPy's vector ``power`` may
        round differently from the C library's ``pow`` behind ``**`` on
        floats."""
        base = 1.0 - rng.random() * self._norm
        return float(self.k * np.power(base, -1.0 / self.a))
