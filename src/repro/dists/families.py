"""Concrete phase-type families: Exponential, Erlang, Hyper-exponential,
Coxian.

Each family subclasses :class:`~repro.dists.phase_type.PhaseType` so the
generic machinery (pdf/cdf/moments/sampling) applies, but stores its natural
parameters and overrides closed forms where they are cheaper/exacter than
the matrix-exponential route.  Each also overrides :meth:`sample` and
:meth:`~repro.dists.phase_type.PhaseType.draw` with its direct sampler
(one exponential, one gamma, a branch then an exponential); ``draw`` is
the scalar form, ``draw(rng) == sample(1, rng)[0]``.

The paper's H2 parameterisation (Section 3.2) is::

    F(t) = 1 - alpha e^{-mu1 t} - (1 - alpha) e^{-mu2 t}

i.e. with probability ``alpha`` the job is "short" (rate ``mu1``) and with
probability ``1 - alpha`` "long" (rate ``mu2``); in all the paper's
experiments ``mu1 > mu2``.  Helpers construct H2 parameters from the paper's
conventions (fixed mean with ``mu1 = c * mu2``) and from (mean, SCV) pairs.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.dists.phase_type import PhaseType, _normalised_cdf

__all__ = [
    "Exponential",
    "Erlang",
    "HyperExponential",
    "Coxian",
    "h2_balanced_means",
    "h2_from_mean_scv",
]


class Exponential(PhaseType):
    """Exponential(rate) as a one-phase PH."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        super().__init__([1.0], [[-rate]])
        self._scale = 1.0 / self.rate

    def pdf(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.where(x >= 0, self.rate * np.exp(-self.rate * x), 0.0)

    def cdf(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.where(x >= 0, 1.0 - np.exp(-self.rate * x), 0.0)

    def sample(self, size, rng=None):
        rng = np.random.default_rng() if rng is None else rng
        return rng.exponential(self._scale, size=size)

    def draw(self, rng) -> float:
        return rng.exponential(self._scale)


class Erlang(PhaseType):
    """Erlang(k, rate): sum of ``k`` iid Exponential(rate) phases.

    This is the paper's model of the (ideally deterministic) TAGS timeout:
    ``k - 1`` ``tick`` actions followed by the ``timeout`` action, all at
    rate ``rate``.  Mean ``k / rate``; SCV ``1 / k`` (deterministic as
    ``k -> inf``).
    """

    def __init__(self, k: int, rate: float) -> None:
        if k < 1 or k != int(k):
            raise ValueError(f"k must be a positive integer, got {k}")
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.k = int(k)
        self.rate = float(rate)
        T = np.diag(np.full(self.k, -rate))
        idx = np.arange(self.k - 1)
        T[idx, idx + 1] = rate
        alpha = np.zeros(self.k)
        alpha[0] = 1.0
        super().__init__(alpha, T)
        self._scale = 1.0 / self.rate

    def sample(self, size, rng=None):
        rng = np.random.default_rng() if rng is None else rng
        return rng.gamma(shape=self.k, scale=self._scale, size=size)

    def draw(self, rng) -> float:
        return rng.gamma(self.k, self._scale)


class HyperExponential(PhaseType):
    """Hyper-exponential H_k: probabilistic mixture of exponentials.

    ``HyperExponential([p1, .., pk], [r1, .., rk])``; probabilities must sum
    to one.  SCV >= 1 always, which is what makes it the natural
    high-variance service model for TAGS (Section 3.2).
    """

    def __init__(self, probs, rates) -> None:
        probs = np.asarray(probs, dtype=float).ravel()
        rates = np.asarray(rates, dtype=float).ravel()
        if probs.shape != rates.shape:
            raise ValueError("probs and rates must have equal length")
        if abs(probs.sum() - 1.0) > 1e-9 or probs.min() < 0:
            raise ValueError(f"probs must be a distribution, got {probs}")
        if rates.min() <= 0:
            raise ValueError("rates must be positive")
        self.probs = probs
        self.rates = rates
        super().__init__(probs, np.diag(-rates))
        # the branch cdf over probs alone: the PH start cdf also carries
        # the (rounding-sized) atom at zero
        self._branch_cdf = _normalised_cdf(probs)
        self._branch = (self._branch_cdf.tolist(), self._scales.tolist())

    @classmethod
    def h2(cls, alpha: float, mu1: float, mu2: float) -> "HyperExponential":
        """The paper's H2: short jobs (rate mu1) w.p. alpha, long (mu2)
        otherwise."""
        return cls([alpha, 1.0 - alpha], [mu1, mu2])

    def pdf(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))[:, None]
        vals = (self.probs * self.rates * np.exp(-self.rates * x)).sum(axis=1)
        return np.where(x.ravel() >= 0, vals, 0.0)

    def cdf(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))[:, None]
        vals = (self.probs * (1.0 - np.exp(-self.rates * x))).sum(axis=1)
        return np.where(x.ravel() >= 0, vals, 0.0)

    def sample(self, size, rng=None):
        rng = np.random.default_rng() if rng is None else rng
        branch = self._branch_cdf.searchsorted(rng.random(size), "right")
        return rng.exponential(self._scales[branch])

    def draw(self, rng) -> float:
        cdf, scales = self._branch
        return rng.exponential(scales[bisect_right(cdf, rng.random())])


class Coxian(PhaseType):
    """Coxian distribution: sequential phases with early-exit probabilities.

    Phase ``i`` has rate ``rates[i]``; on completing phase ``i`` the process
    continues to phase ``i+1`` with probability ``cont[i]`` (``len(cont) ==
    len(rates) - 1``), otherwise absorbs.  Coxians are dense in the class of
    all distributions on [0, inf) and are what general PH-fitting tools
    usually produce.
    """

    def __init__(self, rates, cont) -> None:
        rates = np.asarray(rates, dtype=float).ravel()
        cont = np.asarray(cont, dtype=float).ravel()
        if cont.shape != (rates.size - 1,):
            raise ValueError("need len(cont) == len(rates) - 1")
        if rates.min() <= 0:
            raise ValueError("rates must be positive")
        if cont.size and (cont.min() < 0 or cont.max() > 1):
            raise ValueError("continuation probabilities must be in [0,1]")
        self.rates = rates
        self.cont = cont
        m = rates.size
        T = np.diag(-rates)
        for i in range(m - 1):
            T[i, i + 1] = rates[i] * cont[i]
        alpha = np.zeros(m)
        alpha[0] = 1.0
        super().__init__(alpha, T)


# ----------------------------------------------------------------------
# constructors for the paper's H2 conventions
# ----------------------------------------------------------------------

def h2_balanced_means(
    mean: float, alpha: float, ratio: float
) -> HyperExponential:
    """H2 with overall mean ``mean``, short-job probability ``alpha`` and
    rate ratio ``mu1 = ratio * mu2``.

    This is exactly how the paper pins down Figures 9-12: "the average
    service demand is 0.1 and mu1 = 100 mu2" with ``alpha = 0.99``
    (Fig 9-10) or ``mu1 = 10 mu2`` with ``alpha in [0.89, 0.99]``
    (Fig 11-12).  Solving ``alpha/mu1 + (1-alpha)/mu2 = mean`` with
    ``mu1 = ratio * mu2`` gives::

        mu2 = (alpha / ratio + 1 - alpha) / mean,   mu1 = ratio * mu2
    """
    if not (0 < alpha < 1):
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if ratio <= 0 or mean <= 0:
        raise ValueError("ratio and mean must be positive")
    mu2 = (alpha / ratio + (1.0 - alpha)) / mean
    mu1 = ratio * mu2
    return HyperExponential.h2(alpha, mu1, mu2)


def h2_from_mean_scv(mean: float, scv: float, *, balanced: bool = True):
    """H2 with given mean and squared coefficient of variation (>= 1).

    With ``balanced=True`` uses the classic balanced-means parameterisation
    (``p1/mu1 == p2/mu2``), the standard two-moment H2 fit.  ``scv == 1``
    returns an :class:`Exponential`.
    """
    if scv < 1.0 - 1e-12:
        raise ValueError(f"H2 requires scv >= 1, got {scv}")
    if mean <= 0:
        raise ValueError("mean must be positive")
    if abs(scv - 1.0) < 1e-12:
        return Exponential(1.0 / mean)
    if not balanced:
        raise NotImplementedError("only the balanced-means fit is provided")
    # balanced means: p1 = (1 + sqrt((scv-1)/(scv+1)))/2
    p1 = 0.5 * (1.0 + np.sqrt((scv - 1.0) / (scv + 1.0)))
    p2 = 1.0 - p1
    mu1 = 2.0 * p1 / mean
    mu2 = 2.0 * p2 / mean
    return HyperExponential([p1, p2], [mu1, mu2])
