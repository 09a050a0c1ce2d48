#!/usr/bin/env python
"""Quickstart: model a TAGS system, solve it, compare policies.

Reproduces the headline comparison of the paper in ~20 lines of API use:
build the Figure 3 PEPA model, derive its CTMC (4331 states), solve for
steady state and compare TAGS with random and shortest-queue allocation.

Run:  python examples/quickstart.py
"""

from repro.models import RandomAllocation, ShortestQueue, TagsExponential
from repro.models.tags_pepa import TagsParameters, build_tags_model, tags_pepa_metrics
from repro.pepa import check_model, explore

LAM, MU, T, N, K = 5.0, 10.0, 51.0, 6, 10


def main() -> None:
    # --- the paper's Figure 3 model, via the PEPA pipeline --------------
    params = TagsParameters(lam=LAM, mu=MU, t=T, n=N, K1=K, K2=K)
    model = build_tags_model(params)
    report = check_model(model)
    assert not report.warnings, report.warnings
    space = explore(model)
    print(f"Figure 3 PEPA model: {space.n_states} states "
          f"({space.n_transitions} transitions); paper reports 4331.")

    metrics = tags_pepa_metrics(params)
    print(f"TAGS (t={T:g}): mean jobs {metrics.mean_jobs:.4f}, "
          f"response time {metrics.response_time:.4f}, "
          f"throughput {metrics.throughput:.4f}")

    # --- a timeout sweep: one state space, only the rates refilled -----
    print("Timeout sweep (TagsExponential reuses the explored structure):")
    for t in (30.0, 51.0, 80.0):
        m = TagsExponential(lam=LAM, mu=MU, t=t, n=N, K1=K, K2=K).metrics()
        print(f"  t = {t:4g}: W = {m.response_time:.4f}")

    # --- baselines -------------------------------------------------------
    rnd = RandomAllocation(lam=LAM, service=MU, K=K).metrics()
    jsq = ShortestQueue(lam=LAM, service=MU, K=K).metrics()
    print("\nPolicy comparison (exponential demand, lam=5, mu=10):")
    for name, m in [("TAGS", metrics), ("random", rnd), ("shortest queue", jsq)]:
        print(f"  {name:>15}: W = {m.response_time:.4f}  "
              f"X = {m.throughput:.4f}  loss = {m.loss_rate:.2e}")
    print("\nWith exponential demand, shortest queue wins -- exactly the "
          "paper's Figure 7.\nSee tags_vs_shortest_queue_hyperexp.py for "
          "where TAGS takes over.")


if __name__ == "__main__":
    main()
