"""EM fitting of phase-type models to data (EMpht-style).

The paper cites Asmussen/Nerman/Olsson's EMpht [1] as the tool for building
phase-type approximations of general service-demand distributions.  We
implement the two sub-families actually relevant to TAGS:

* :func:`fit_hyperexponential` -- mixture of ``k`` exponentials (H_k).
  This is a plain mixture model, so the E-step responsibilities and M-step
  updates are in closed form and fully vectorised.
* :func:`fit_erlang_mixture` -- mixture of Erlang(shape_j, rate_j) with
  user-chosen shapes; covers low-variance (SCV < 1) targets that H_k cannot
  reach.

Both return a :class:`FitResult` with the fitted distribution, per-iteration
log-likelihood trace and a convergence flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dists.families import HyperExponential
from repro.dists.phase_type import PhaseType

__all__ = ["FitResult", "fit_hyperexponential", "fit_erlang_mixture"]


@dataclass
class FitResult:
    """Outcome of an EM fit."""

    dist: PhaseType
    log_likelihood: float
    trace: np.ndarray
    converged: bool
    n_iter: int


def _validate_data(data) -> np.ndarray:
    x = np.asarray(data, dtype=float).ravel()
    if x.size < 2:
        raise ValueError("need at least two observations")
    if x.min() <= 0:
        raise ValueError("phase-type data must be strictly positive")
    return x


def fit_hyperexponential(
    data,
    k: int = 2,
    *,
    max_iter: int = 500,
    tol: float = 1e-9,
    rng: np.random.Generator | None = None,
) -> FitResult:
    """Fit an H_k (mixture of exponentials) by EM.

    Initialisation spreads the component means geometrically across the data
    quantiles, which reliably separates short/long modes in heavy-tailed
    samples.
    """
    import scipy.special

    x = _validate_data(data)
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(0) if rng is None else rng

    # geometric-quantile initialisation
    qs = np.linspace(0.15, 0.95, k)
    means = np.quantile(x, qs)
    means = np.maximum(means, x.mean() * 1e-6)
    rates = 1.0 / means
    probs = np.full(k, 1.0 / k)

    prev_ll = -np.inf
    trace = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        # E-step (log-space for numerical safety with extreme rates)
        log_dens = np.log(rates) - np.outer(x, rates)  # (N, k)
        log_w = np.log(probs) + log_dens
        log_norm = scipy.special.logsumexp(log_w, axis=1)
        gamma = np.exp(log_w - log_norm[:, None])
        ll = float(log_norm.sum())
        trace.append(ll)
        # M-step
        nk = gamma.sum(axis=0)
        nk = np.maximum(nk, 1e-300)
        probs = nk / x.size
        rates = nk / np.maximum(gamma.T @ x, 1e-300)
        if abs(ll - prev_ll) < tol * max(1.0, abs(ll)):
            converged = True
            break
        prev_ll = ll

    order = np.argsort(-rates)  # fastest (shortest jobs) first
    dist = HyperExponential(probs[order], rates[order])
    return FitResult(dist, trace[-1], np.asarray(trace), converged, it)


def fit_erlang_mixture(
    data,
    shapes,
    *,
    max_iter: int = 500,
    tol: float = 1e-9,
) -> FitResult:
    """Fit a mixture of Erlang(shape_j, rate_j) components by EM.

    ``shapes`` fixes each component's integer shape; EM estimates the
    weights and rates.  With ``shapes=[n]`` this is a pure Erlang fit (the
    paper's deterministic-timeout approximation); mixed shapes approximate
    multi-modal or low-variance targets.
    """
    import scipy.special

    x = _validate_data(data)
    shapes = np.asarray(shapes, dtype=int).ravel()
    if shapes.size < 1 or shapes.min() < 1:
        raise ValueError("shapes must be positive integers")
    k = shapes.size

    qs = np.linspace(0.2, 0.9, k)
    means = np.maximum(np.quantile(x, qs), x.mean() * 1e-6)
    rates = shapes / means
    probs = np.full(k, 1.0 / k)

    log_x = np.log(x)
    log_fact = scipy.special.gammaln(shapes)  # log (shape-1)!
    prev_ll = -np.inf
    trace = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        log_dens = (
            shapes * np.log(rates)
            + np.outer(log_x, shapes - 1)
            - np.outer(x, rates)
            - log_fact
        )
        log_w = np.log(probs) + log_dens
        log_norm = scipy.special.logsumexp(log_w, axis=1)
        gamma = np.exp(log_w - log_norm[:, None])
        ll = float(log_norm.sum())
        trace.append(ll)
        nk = np.maximum(gamma.sum(axis=0), 1e-300)
        probs = nk / x.size
        rates = shapes * nk / np.maximum(gamma.T @ x, 1e-300)
        if abs(ll - prev_ll) < tol * max(1.0, abs(ll)):
            converged = True
            break
        prev_ll = ll

    # assemble the mixture as a block-diagonal PH
    m = int(shapes.sum())
    T = np.zeros((m, m))
    alpha = np.zeros(m)
    pos = 0
    for j in range(k):
        s, r = int(shapes[j]), rates[j]
        alpha[pos] = probs[j]
        for i in range(s):
            T[pos + i, pos + i] = -r
            if i + 1 < s:
                T[pos + i, pos + i + 1] = r
        pos += s
    dist = PhaseType(alpha, T)
    return FitResult(dist, trace[-1], np.asarray(trace), converged, it)
