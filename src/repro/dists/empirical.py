"""Empirical (trace-driven) service-demand distributions.

Harchol-Balter's TAGS papers are motivated by *measured* job-size traces;
no real traces ship with this reproduction (none are publicly bundled with
the paper), so :class:`EmpiricalDistribution` closes the loop synthetically:
generate a "trace" from any distribution (or load one from a file), then
drive the simulator with bootstrap resampling from it, optionally fitting
an H2 via EM for the CTMC side -- the complete trace -> fit -> model
pipeline the paper's Section 5 alludes to with "broadly correspond to ...
observed traffic".
"""

from __future__ import annotations

import numpy as np

__all__ = ["EmpiricalDistribution"]


class EmpiricalDistribution:
    """Bootstrap-resampling distribution over an observed sample."""

    def __init__(self, data) -> None:
        x = np.asarray(data, dtype=float).ravel()
        if x.size < 2:
            raise ValueError("need at least two observations")
        if x.min() <= 0:
            raise ValueError("service demands must be positive")
        self.data = np.sort(x)

    @classmethod
    def from_file(cls, path) -> "EmpiricalDistribution":
        """Load a whitespace/newline-separated numeric trace."""
        return cls(np.loadtxt(path, dtype=float).ravel())

    # -- moments -----------------------------------------------------
    @property
    def mean(self) -> float:
        return float(self.data.mean())

    def moment(self, k: int) -> float:
        return float(np.mean(self.data**k))

    @property
    def variance(self) -> float:
        return float(self.data.var())

    @property
    def scv(self) -> float:
        return self.variance / self.mean**2

    # -- distribution functions ---------------------------------------
    def cdf(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.searchsorted(self.data, x, side="right") / self.data.size

    def quantile(self, q) -> np.ndarray:
        return np.quantile(self.data, q)

    # -- sampling ------------------------------------------------------
    def sample(self, size: int, rng: np.random.Generator | None = None):
        rng = np.random.default_rng() if rng is None else rng
        return rng.choice(self.data, size=size, replace=True)

    def draw(self, rng: np.random.Generator) -> float:
        """One resample, ``== sample(1, rng)[0]``: ``choice`` without
        weights draws its index with ``integers``."""
        return float(self.data[rng.integers(0, self.data.size)])

    # -- model fitting ---------------------------------------------------
    def fit_h2(self, **kw):
        """EM-fit a two-phase hyper-exponential to the trace (the paper's
        Markovian surrogate).  Returns a
        :class:`~repro.dists.fit.FitResult`."""
        from repro.dists.fit import fit_hyperexponential

        return fit_hyperexponential(self.data, k=2, **kw)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EmpiricalDistribution(n={self.data.size}, mean={self.mean:.4g}, "
            f"scv={self.scv:.4g})"
        )
