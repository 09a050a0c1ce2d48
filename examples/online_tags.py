#!/usr/bin/env python
"""Online TAGS with closed-loop timeout control: the paper, live.

The offline story (``timeout_tuning.py``) assumes someone knows lambda
and mu.  An operator running a real dispatcher doesn't -- arrival rate
drifts and the demand mix is only revealed as jobs complete.  This
walkthrough runs ``repro.serve``'s event-driven dispatcher under a
virtual clock and shows the control loop absorbing a load shift:

1. start a two-node TAGS system at lam = 6 with a deliberately mistuned
   timeout (rate t = 5, i.e. a mean timeout of 1.2 -- twelve mean
   service times, so long jobs squat on node 1);
2. let the :class:`repro.serve.TimeoutController` estimate (lam, mu)
   from its sliding window and re-optimise t through the Section 4
   fixed point;
3. double the arrival rate mid-run (lam 6 -> 12, past the mu = 10
   single-node capacity) and watch the controller chase the new optimum;
4. compare each phase against the offline optimum computed with the
   true parameters, and validate the final stretch against the exact
   Figure 3 chain;
5. record the whole run with ``repro.obs`` and print its counters, with
   per-job kill counts from the run's job log.

Everything below is deterministic: the virtual clock makes the run a
pure function of the seed.

Run:  python examples/online_tags.py
"""

from repro import obs
from repro.approx import TagsFixedPoint, optimise_timeout
from repro.dists import Exponential
from repro.models import TagsExponential
from repro.serve import (
    DispatchRuntime,
    PoissonLoad,
    TimeoutController,
    validate_against_model,
)
from repro.sim import ErlangTimeout, TagsPolicy

MU, N, CAPS = 10.0, 6, (10, 10)
LAM_LOW, LAM_HIGH = 6.0, 12.0
T_START = 5.0
SHIFT_AT, T_END = 3000.0, 6000.0


def offline_optimum(lam):
    """What the paper's Section 4 machinery recommends with the *true*
    parameters -- the controller has to get here from measurements."""
    return optimise_timeout(
        lambda t: TagsFixedPoint(lam=lam, mu=MU, t=t, n=N,
                                 K1=CAPS[0], K2=CAPS[1]),
        "throughput",
        t_min=0.5,
        t_max=500.0,
        grid_points=40,
    ).t_opt


def main() -> None:
    print("Offline optima (true parameters, Section 4 fixed point):")
    t_low, t_high = offline_optimum(LAM_LOW), offline_optimum(LAM_HIGH)
    print(f"  lam = {LAM_LOW:>4.0f}: t* = {t_low:6.2f}")
    print(f"  lam = {LAM_HIGH:>4.0f}: t* = {t_high:6.2f}")
    print(f"  starting (mistuned) rate: t = {T_START:.1f}\n")

    load = PoissonLoad(LAM_LOW, Exponential(MU))
    controller = TimeoutController(
        interval=150.0,     # re-tune every 150 model-seconds
        window=300.0,       # ... from the trailing 300 seconds
        metric="throughput",
        deadband=0.05,      # ignore optimum moves under 5%
    )
    runtime = DispatchRuntime(
        load,
        TagsPolicy(timeouts=(ErlangTimeout(N, T_START),)),
        CAPS,
        seed=0,
        controller=controller,
        record_jobs=True,   # per-job outcome, node and kill count
    )

    def double_the_load():
        load.rate = LAM_HIGH

    runtime.schedule(SHIFT_AT, double_the_load)

    with obs.use(obs.Recorder()) as rec:
        result = runtime.run(T_END, warmup=200.0)

    print("Controller trajectory (lam doubles at t = "
          f"{SHIFT_AT:.0f}):")
    print(f"{'time':>7} {'lam^':>6} {'mu^':>6} {'t_opt':>7} decision")
    for d in controller.history:
        lam_hat = "-" if d.lam_hat is None else f"{d.lam_hat:6.2f}"
        mu_hat = "-" if d.mu_hat is None else f"{d.mu_hat:6.2f}"
        t_opt = "-" if d.t_opt is None else f"{d.t_opt:7.1f}"
        mark = " <-- applied" if d.applied else ""
        print(f"{d.time:7.0f} {lam_hat:>6} {mu_hat:>6} {t_opt:>7} "
              f"{d.reason}{mark}")

    t_final = runtime.current_timeout(0).t
    print(f"\nFinal timeout rate: t = {t_final:.2f} "
          f"(offline optimum at lam = {LAM_HIGH:.0f}: {t_high:.2f}, "
          f"error {abs(t_final - t_high) / t_high:.1%})")
    print(f"Run totals: offered {result.offered}, "
          f"completed {result.completed}, killed {result.killed}, "
          f"dropped {result.dropped_arrival + result.dropped_forward}")

    # validate the post-shift stretch against the exact chain at the
    # controller's operating point.  Re-run just that regime so the
    # measurement window is stationary.  In overload the paper's node-2
    # Markovian approximation (the repeat period is resampled as a
    # fresh Erlang rather than the shorter draw that actually fired)
    # overestimates downstream population by ~25-30%, dragging the
    # system rows with it -- the bands below are widened for exactly
    # that, and the raw errors stay visible (see docs/serving.md).
    print("\nValidation of the post-shift regime vs the exact CTMC:")
    steady = DispatchRuntime(
        PoissonLoad(LAM_HIGH, Exponential(MU)),
        TagsPolicy(timeouts=(ErlangTimeout(N, t_final),)),
        CAPS,
        seed=1,
    ).run(8000.0, warmup=500.0)
    model = TagsExponential(lam=LAM_HIGH, mu=MU, t=t_final, n=N,
                            K1=CAPS[0], K2=CAPS[1])
    report = validate_against_model(
        steady, model, rel_tol=0.20, node_tol=0.35
    )
    print(report.format())
    assert report["throughput"].ok and report["mean_jobs_node1"].ok

    print("\nWhat the obs recorder saw (first run):")
    (run,) = rec.find_spans("serve.run")
    print(f"  serve.run wall time: {run.duration:>6.2f} s")
    print(f"  serve.offered:       {int(rec.counter('serve.offered')):>6}")
    print(f"  serve.killed:        {int(rec.counter('serve.killed')):>6}")
    print(f"  serve.retune ticks:  {int(rec.counter_total('serve.retune')):>6}"
          f" ({int(rec.counter('serve.retune', applied=True))} applied)")
    kills = sum(1 for _, _, k in result.job_outcomes().values() if k > 0)
    print(f"  jobs with kills:     {kills:>6} (from the job log)")
    print("\nSpans hold program time; pipe them out with "
          "obs.write_jsonl(rec, path)\nor run any experiment with "
          "`python -m repro.experiments serve --obs-summary`.")


if __name__ == "__main__":
    main()
