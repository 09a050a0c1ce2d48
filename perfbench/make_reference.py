"""Regenerate the reference outputs the benchmark checks against.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes ``perfbench/reference/``:

* ``figures.json`` -- every series of Figures 6-10 on the paper's full
  grids (the workloads solve seeded orderings / subsets of these grids)
  and the Figure 8 optima;
* ``structure_scan.json`` -- the scan's metrics per ``(K, n)`` shape,
  from the direct construction;
* ``tags_des.json`` -- aggregate counts of the ``tags-des`` replay for
  every trace seed ``0 .. TRACE_SEEDS-1`` (from ``sim.runner``; the
  benchmark requires ``serve`` to match it job by job).

Only regenerate on purpose: a program change that moves these numbers is
a result change, and the regenerated files must be reviewed as such.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import (  # noqa: E402
    REFERENCE_DIR,
    TRACE_SEEDS,
    aggregate_counts,
    des_scenario,
    scan_execute,
    scan_prepare,
    scan_values,
)


def _figure(fig) -> dict:
    return {
        "name": fig.name,
        "x": fig.x.tolist(),
        "series": {k: v.tolist() for k, v in fig.series.items()},
    }


def figures_reference() -> dict:
    from repro.experiments import figures
    from repro.experiments.config import FIG6_T_GRID, FIG8_LAMBDAS, FIG9_T_GRID

    return {
        "figure6": _figure(figures.figure6(FIG6_T_GRID)),
        "figure7": _figure(figures.figure7(FIG6_T_GRID)),
        "figure8": _figure(figures.figure8(FIG8_LAMBDAS)),
        "figure9": _figure(figures.figure9(FIG9_T_GRID)),
        "figure10": _figure(figures.figure10(FIG9_T_GRID)),
    }


def scan_reference() -> dict:
    inputs = scan_prepare(0)
    out = scan_execute(inputs)
    return {
        "fields": "mean_jobs, throughput, response_time, mean_jobs_per_node, loss_per_node",
        "points": [
            {"K": p["K1"], "n": p["n"], "values": scan_values(m)}
            for p, m in zip(inputs["grid"], out["direct"])
        ],
    }


def des_reference() -> dict:
    from repro.serve import TraceArrivals, TraceDemands
    from repro.sim import Simulation

    seeds = {}
    for seed in range(TRACE_SEEDS):
        trace, make_policy, capacities = des_scenario(seed)
        res = Simulation(
            TraceArrivals(trace), TraceDemands(trace), make_policy(), capacities,
            seed=seed, record_jobs=True,
        ).run(t_end=1e12)
        seeds[str(seed)] = aggregate_counts(res, res.job_outcomes())
    return {"seeds": seeds}


def main() -> int:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name, build in (
        ("figures", figures_reference),
        ("structure_scan", scan_reference),
        ("tags_des", des_reference),
    ):
        path = os.path.join(REFERENCE_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(build(), fh, indent=1)
            fh.write("\n")
        print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
