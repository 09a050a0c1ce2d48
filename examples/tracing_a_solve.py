"""Tracing a figure-9 sweep end to end with `repro.obs`.

Demonstrates the three observability primitives on real work:

1. run a (reduced-grid) Figure 9 sweep under a recording
   ``obs.Recorder`` -- every state-space build, steady-state solve and
   cache decision files spans/counters, including anything solved in
   pool workers;
2. re-run the sweep to show cache hits in the counters;
3. re-solve one grid point with power iteration to capture a
   convergence trace (the step delta every 50 iterations), and export
   everything: a JSONL event log, a CSV of the iteration trace, and the
   console summary table.

Run:  PYTHONPATH=src python examples/tracing_a_solve.py
"""

import json
import pathlib
import tempfile

from repro import obs
from repro.ctmc.steady import steady_state
from repro.experiments.config import FIG9_PARAMS, h2_service_fig9
from repro.experiments.figures import figure9
from repro.models import TagsHyperExponential

T_GRID = [2.0, 6.0, 10.0, 14.0, 18.0]  # reduced from the paper's 39 points

out_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-obs-"))
trace_file = out_dir / "figure9.jsonl"
csv_file = out_dir / "power_deltas.csv"

rec = obs.Recorder()
with obs.use(rec):
    # -- 1. the traced sweep ------------------------------------------
    fig = figure9(t_grid=T_GRID)

    # -- 2. the same sweep again: answered from the cache -------------
    figure9(t_grid=T_GRID)

    # -- 3. one solve with power iteration, for its convergence trace
    service = h2_service_fig9()
    mu1, mu2 = service.rates
    model = TagsHyperExponential(
        lam=FIG9_PARAMS["lam"], alpha=float(service.probs[0]),
        mu1=float(mu1), mu2=float(mu2), t=T_GRID[2],
        n=FIG9_PARAMS["n"], K1=FIG9_PARAMS["K1"], K2=FIG9_PARAMS["K2"],
    )
    steady_state(model.generator, method="power")

print(f"figure 9 (reduced grid): TAG response times "
      f"{[round(float(v), 3) for v in fig.series['TAG']]}")
print()

n_events = obs.write_jsonl(rec, trace_file)
n_rows = obs.traces_to_csv(rec, csv_file)
print(f"JSONL event log : {trace_file} ({n_events} events)")
print(f"iteration traces: {csv_file} ({n_rows} rows)")
print()

# the JSONL log is one JSON object per line -- show the span tree roots
roots = [
    e for e in map(json.loads, trace_file.read_text().splitlines())
    if e["type"] == "span" and e["parent"] is None
]
print(f"root spans in the trace: {[r['name'] for r in roots]}")
print(f"span tree covers {rec.coverage():.1%} of recorded wall time")
print()

print(obs.format_summary(rec))
