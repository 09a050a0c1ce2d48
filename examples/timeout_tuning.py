#!/usr/bin/env python
"""Tuning the TAGS timeout: Section 4's approximations in practice.

The timeout is TAGS's only knob and the paper shows it is sensitive: this
example walks the three estimation tools in increasing cost order --

1. the unbounded balance equations (closed form / 1-D root),
2. the bounded-queue M/M/1/K fixed point (microseconds per evaluation),
3. exact CTMC optimisation (one sparse solve per probed integer t),

and compares what each recommends for the Figure 8 load points.

Run:  python examples/timeout_tuning.py
"""

from repro.approx import (
    TagsFixedPoint,
    erlang_balance_rate,
    exponential_balance_rate,
    optimise_timeout,
)
from repro.experiments.figures import optimal_integer_t
from repro.models import TagsExponential

MU, N = 10.0, 6


def main() -> None:
    print("Step 1 -- balance equations (load-independent):")
    print(f"  exponential clock: T = {exponential_balance_rate(MU):.3f} "
          "(paper: ~6.17)")
    t_bal = erlang_balance_rate(MU, N)
    print(f"  Erlang({N}) clock:  t = {t_bal:.3f} "
          f"(mean timeout {N / t_bal:.4f})")

    print("\nStep 2+3 -- per-load tuning (fixed point: maximise throughput; "
          "exact CTMC: minimise mean queue length):")
    print(f"{'lambda':>7} {'fixed point':>12} {'exact CTMC':>11} {'paper':>6}")
    paper = {5.0: 51, 7.0: 49, 9.0: 45, 11.0: 42}
    for lam in (5.0, 7.0, 9.0, 11.0):
        fp = optimise_timeout(
            lambda t: TagsFixedPoint(lam=lam, mu=MU, t=t, n=N),
            "throughput", t_min=5.0, t_max=200.0,
        )
        exact_t = optimal_integer_t(lam)
        print(f"{lam:>7.0f} {fp.t_opt:>12.1f} {exact_t:>11d} {paper[lam]:>6d}")

    print("\nThe cost of mistuning (lam = 11):")
    for t in (5.0, 42.0, 300.0):
        m = TagsExponential(lam=11.0, mu=MU, t=t, n=N).metrics()
        print(f"  t = {t:>5.0f}: throughput {m.throughput:.3f}, "
              f"loss {m.loss_rate:.3f}/s")


if __name__ == "__main__":
    main()
