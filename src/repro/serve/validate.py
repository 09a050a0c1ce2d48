"""Live-runtime metrics vs. CTMC steady-state predictions.

The dispatcher's measurements and the paper's models describe the same
system (run the runtime with an ``ErlangTimeout(n, t)`` and the Figure 3
chain :class:`repro.models.TagsExponential` with the same ``(lam, mu, t,
n, K1, K2)`` is *exactly* the model of it), so live numbers should land
on the steady-state predictions up to sampling noise.  This module turns
that into a report an operator -- or a test -- can gate on:

* **relative error** per metric (mean jobs per node, throughput, loss
  probability, mean response time);
* a **confidence bound** where the live stream supports one: the mean
  response time gets a batch-means CI
  (:func:`repro.sim.stats.batch_means_ci`), and the total mean
  population inherits it through Little's law (``L = X W`` and the loss
  metrics are ratios of long counts, so the response-time CI is the
  binding one);
* a verdict per row: within CI where a CI exists, within ``rel_tol``
  otherwise.

This is the same methodology ``tests/sim/test_runner.py`` applies to the
offline simulator, packaged as a first-class runtime feature (the
controller's "are my estimates sane" check, the ``serve`` CLI's closing
table, and the convergence test's acceptance gate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.stats import batch_means_ci

__all__ = ["MetricCheck", "ValidationReport", "validate_against_model"]


@dataclass(frozen=True)
class MetricCheck:
    """One live-vs-predicted comparison."""

    name: str
    live: float
    predicted: float
    rel_error: float
    ci_half: float | None  # half-width of the live CI, when available
    ok: bool


@dataclass(frozen=True)
class ValidationReport:
    """All metric checks from one runtime result."""

    checks: tuple
    rel_tol: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __getitem__(self, name: str) -> MetricCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def format(self) -> str:
        rows = []
        for c in self.checks:
            ci = f"{c.ci_half:.4f}" if c.ci_half is not None else "-"
            rows.append(
                f"{c.name:<22} live {c.live:>10.4f}  predicted "
                f"{c.predicted:>10.4f}  rel.err {c.rel_error:>7.2%}  "
                f"ci± {ci:>8}  {'ok' if c.ok else 'MISMATCH'}"
            )
        verdict = "agreement" if self.ok else "DISAGREEMENT"
        return "\n".join(rows + [f"=> {verdict} (rel_tol={self.rel_tol:.0%})"])


def _rel_error(live: float, predicted: float) -> float:
    scale = max(abs(predicted), 1e-12)
    return abs(live - predicted) / scale


def validate_against_model(
    result,
    model,
    *,
    rel_tol: float = 0.10,
    abs_loss_tol: float = 0.02,
    node_tol: "float | None" = None,
    n_batches: int = 20,
) -> ValidationReport:
    """Compare a runtime (or simulator) result against a solved model.

    Parameters
    ----------
    result :
        A :class:`~repro.sim.runner.SimulationResult` from either host.
    model :
        Anything with ``.metrics()`` returning
        :class:`~repro.models.QueueMetrics` -- typically
        ``TagsExponential`` at the parameters the runtime ran with (or
        at the controller's estimates of them).
    rel_tol :
        Acceptance band for metrics without a live CI.
    abs_loss_tol :
        Absolute band for the loss probability (relative error on a
        near-zero loss is noise).
    node_tol :
        Band for the *per-node* population rows (default: ``rel_tol``).
        The paper's node-2 model is a Markovian approximation -- the
        repeat period is resampled as a fresh Erlang rather than being
        the (stochastically shorter) timeout draw that actually fired --
        so once node 2 carries real load the CTMC systematically
        overestimates its population by 15-20% even though the *live
        system is correct* (the offline simulator lands on the same
        numbers).  Callers validating in such regimes widen this band
        deliberately; the report still shows the raw error.
    n_batches :
        Batch count for the response-time batch-means CI; when the live
        stream is too short for that many batches the CI is dropped and
        the ``rel_tol`` band applies instead.
    """
    if node_tol is None:
        node_tol = rel_tol
    predicted = model.metrics()
    checks = []

    # response time: the one metric with an honest live CI
    ci_half = None
    if result.response_times.size >= 2 * n_batches:
        _, ci_half = batch_means_ci(result.response_times, n_batches)
    live_w = result.mean_response_time
    pred_w = predicted.response_time
    ok_w = (
        abs(live_w - pred_w) <= ci_half + rel_tol * abs(pred_w)
        if ci_half is not None
        else _rel_error(live_w, pred_w) <= rel_tol
    )
    checks.append(
        MetricCheck(
            "mean_response_time", live_w, pred_w, _rel_error(live_w, pred_w),
            ci_half, ok_w,
        )
    )

    # population: Little's law L = X W carries the response-time CI over
    live_l = result.mean_jobs
    pred_l = predicted.mean_jobs
    l_half = result.throughput * ci_half if ci_half is not None else None
    ok_l = (
        abs(live_l - pred_l) <= l_half + rel_tol * abs(pred_l)
        if l_half is not None
        else _rel_error(live_l, pred_l) <= rel_tol
    )
    checks.append(
        MetricCheck(
            "mean_jobs", live_l, pred_l, _rel_error(live_l, pred_l),
            l_half, ok_l,
        )
    )

    # per-node populations (no CI: band check)
    for i, (live_q, pred_q) in enumerate(
        zip(result.mean_queue_lengths, predicted.mean_jobs_per_node)
    ):
        err = _rel_error(live_q, pred_q)
        # absolute slack mirrors abs_loss_tol: a relative band on a
        # near-empty queue amplifies noise
        ok_q = err <= node_tol or abs(live_q - pred_q) <= abs_loss_tol
        checks.append(
            MetricCheck(f"mean_jobs_node{i + 1}", float(live_q),
                        float(pred_q), err, None, ok_q)
        )

    live_x = result.throughput
    pred_x = predicted.throughput
    checks.append(
        MetricCheck(
            "throughput", live_x, pred_x, _rel_error(live_x, pred_x), None,
            _rel_error(live_x, pred_x) <= rel_tol,
        )
    )

    live_p = result.loss_probability
    pred_p = predicted.loss_probability
    checks.append(
        MetricCheck(
            "loss_probability", live_p, pred_p, _rel_error(live_p, pred_p),
            None, abs(live_p - pred_p) <= abs_loss_tol,
        )
    )
    return ValidationReport(tuple(checks), rel_tol)
